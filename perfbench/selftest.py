"""Self-test of the benchmark.

Run from the root of a checkout (takes about three minutes):

    python3 perfbench/selftest.py

It checks two things and exits 0 only when both hold:

1. ``run.py`` prints every metric named in ``BENCHMARK.json`` by name with
   its unit: the end-to-end metrics in a ``--trace 0`` run and the per-layer
   metrics in a ``--trace 1`` run of every workload.  The runs are short and
   use the default seed, so the committed reference is compared and no
   operation may fail.
2. The output gate trips when one byte of the committed reference is
   altered: the same operation output that matches the reference counts as
   a failed operation against the altered copy.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_printed_metrics(spec, workload, trace, seed):
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{workload} trace {trace}: run.py exited with code {proc.returncode}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not any(line.startswith("output gate: compared with") for line in lines):
        problems.append("the committed reference was not compared")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        printed = [line for line in lines[:-1] if line.split(" ", 1)[0] == m["name"]]
        if not printed or not printed[0].endswith(f" {m['unit']}"):
            problems.append(f"{m['name']} is not printed with unit {m['unit']}")
        if metrics.get(m["name"], {}).get("unit") != m["unit"]:
            problems.append(f"{m['name']} has unit {metrics.get(m['name'], {}).get('unit')} in the result")
    return [f"{workload} trace {trace}: {p}" for p in problems]


def check_gate_trips(seed):
    """Run one cheap bem-newton operation and judge it against the reference and an altered copy."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import child
    import gate as gating
    import workloads

    workload = workloads.WORKLOADS["bem-newton"]
    workdir = workloads.workdir_for(ROOT)
    op = next(op for op in workload.ops(workload.setup(seed, workdir), lambda m: m) if op.name == "h-0.2")
    _, results = child.run_pass([op])

    altered_base = workdir / "selftest-reference"
    shutil.rmtree(altered_base, ignore_errors=True)
    shutil.copytree(gating.reference_dir(workload.name, seed).parent, altered_base / workload.name)
    target = gating.reference_dir(workload.name, seed, altered_base) / f"{op.name}.txt"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))

    problems = []
    for base, should_fail in ((gating.REFERENCE_DIR, False), (altered_base, True)):
        reference, status = gating.load_reference(workload.name, seed, base)
        if reference is None:
            return [f"gate: {status}; rewrite it with child.py --mode reference"]
        reference = {op.name: reference[op.name]}
        outcome = child.Outcome(gating.Gate(reference), [op])
        outcome.judge(0, results)
        if outcome.failed != int(should_fail):
            problems.append(f"gate against {base}: {outcome.failed} failed, expected {int(should_fail)}")
    shutil.rmtree(altered_base)
    return problems


def main():
    sys.path.insert(0, str(HERE))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = workloads.DEFAULT_SEED
    problems = check_gate_trips(seed)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_printed_metrics(spec, workload, trace, seed)
            print(f"checked {workload} trace {trace}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
