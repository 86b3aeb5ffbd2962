"""Benchmark of the demigronwall Monte Carlo lab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload maximal-lemma --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py`` and listed, with the reason each
was chosen, in ``BENCHMARK.json``.  Every measurement happens in fresh
processes started from here (``child.py``), with the package imported from
``src/`` of the checkout and BLAS limited to at most ``nproc`` threads.

``--trace 0`` prints the end-to-end metrics: set-up and cold-pass time
(medians over several fresh processes), warm pass time, path-steps per second,
peak RSS and the share of operations that passed the output gate.
``--trace 1`` prints the per-layer metrics of a separate traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fresh processes per --trace 0 run; set-up and cold-pass times are their medians
PROCESSES = 3
#: every run, children included, ends within this many seconds
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def blas_threads(nproc):
    """Threads for BLAS: the environment's request, refused above nproc; else nproc."""
    requested = []
    for var in THREAD_VARS:
        raw = os.environ.get(var)
        if raw is None:
            continue
        try:
            value = int(raw)
        except ValueError:
            fail(f"{var}={raw!r} is not a thread count")
        if not 1 <= value <= nproc:
            fail(f"{var}={value} asks for more threads than nproc={nproc} (or fewer than 1)")
        requested.append(value)
    return min(requested) if requested else nproc


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine_facts(nproc, threads):
    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "l2_per_instance": caches.get("L2", "unknown"),
        "l3_per_instance": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "blas_threads": threads,
    }


def spawn(mode, args, env, deadline):
    """Start child.py in a fresh process and return the JSON object it prints last."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--spawned-at", repr(spawned_at),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail(f"{mode} process for {args.workload} ran past the {RUN_BUDGET_S:.0f} s budget", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{mode} process for {args.workload} exited with code {proc.returncode}", 1)
    return json.loads(lines[-1])


def end_to_end(workload, runs):
    """Metrics of the cold processes and the measured process (the last of ``runs``)."""
    verdict = statistics.median(runs[-1]["warm_pass_s"])
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "cold_verdict_s": (statistics.median(r["cold_verdict_s"] for r in runs), "s"),
        "verdict_s": (verdict, "s"),
        "path_steps_per_s": (workload.path_steps / verdict, "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
        "ok_rate": (1.0 - sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs), "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "demigronwall" / "__init__.py").is_file():
        fail(f"no package source at {ROOT / 'src' / 'demigronwall'}; run from a full checkout")
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        fail("--seconds must be > 0")
    workload = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads(nproc)
    env = dict(os.environ, **{var: str(threads) for var in THREAD_VARS})

    if args.trace:
        runs = [spawn("trace", args, env, deadline)]
        child = runs[0]
        metrics = {name: (m["value"], m["unit"]) for name, m in child["layer_metrics"].items()}
        problems = child["problems"]
        summary = (
            f"traced passes {[round(s, 3) for s in child['traced_pass_s']]}, untraced warm passes"
            f" {[round(s, 3) for s in child['untraced_pass_s']]}; spans in {child['spans_file']}"
        )
    else:
        runs = [spawn("cold", args, env, deadline) for _ in range(PROCESSES - 1)]
        runs.append(spawn("measure", args, env, deadline))
        child = runs[-1]
        metrics = end_to_end(workload, runs)
        problems = []
        summary = (
            f"verdict_s is the median of {len(child['warm_pass_s'])} warm passes"
            f" {[round(s, 3) for s in child['warm_pass_s']]}; setup_s and cold_verdict_s are the medians of"
            f" {len(runs)} fresh processes {[round(r['setup_s'], 3) for r in runs]}"
            f" {[round(r['cold_verdict_s'], 3) for r in runs]}; path-steps per pass {workload.path_steps}"
        )

    facts = machine_facts(nproc, threads)
    facts.update(child["platform"], blas=child["blas"])
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {summary}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    mismatches = [line for r in runs for line in r["mismatches"]]
    print(f"output gate: {child['reference']}; {failed} of {attempted} operations failed"
          f" (fail_rate {failed / attempted!r})")
    for line in mismatches + problems:
        print(f"problem: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not mismatches and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
