"""One fresh benchmark process for one workload.

``run.py`` starts this script and reads the JSON object it prints as its last
line of standard output.  Modes:

``cold``
    import the package, build the workload's inputs and report the set-up
    time measured from ``--spawned-at`` (the parent's monotonic clock just
    before it started this process), then time one cold pass.
``measure``
    as ``cold``, then time warm passes for ``--seconds``.
``trace``
    set up, run a cold pass, then alternate traced and untraced passes for
    ``--seconds``; report the per-layer metrics of the traced passes and
    check that their counts repeat exactly.
``reference``
    set up, run one pass and write its outputs as the committed reference.

In every mode but ``reference`` each operation's output goes through the
output gate.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MIN_WARM_PASSES = 3
MIN_TRACED_PASSES = 2


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def run_pass(ops):
    """Run every operation once; returns ``(wall_s, [(name, result, error)])``."""
    results = []
    started = time.perf_counter()
    for op in ops:
        try:
            results.append((op.name, op.run(), None))
        except Exception:  # an operation that raises is a failed operation, not a crash
            results.append((op.name, None, traceback.format_exc()))
    return time.perf_counter() - started, results


class Outcome:
    """Attempted and failed operations of a run, judged by the output gate."""

    def __init__(self, gate, ops):
        self.gate = gate
        self.render = {op.name: op.render for op in ops}
        self.attempted = 0
        self.failed = 0

    def judge(self, pass_index, results):
        for name, result, error in results:
            self.attempted += 1
            if error is None:
                try:
                    ok = self.gate.check(pass_index, name, self.render[name](result))
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                ok = False
                print(f"pass {pass_index} op {name} raised:\n{error}", file=sys.stderr)
            self.failed += not ok


def measure(ops, outcome, seconds, warm_passes):
    cold, results = run_pass(ops)
    outcome.judge(0, results)
    warm = []
    started = time.perf_counter()
    while warm_passes and (len(warm) < MIN_WARM_PASSES or time.perf_counter() - started < seconds):
        wall, results = run_pass(ops)
        warm.append(wall)
        outcome.judge(len(warm), results)
    return {"cold_verdict_s": cold, "warm_pass_s": warm}


def trace(workload, state, plain_ops, outcome, seconds, spans_path):
    import tracer as tracing

    tracer = tracing.Tracer()
    traced_ops = workload.ops(state, tracer.counting_model)
    _, results = run_pass(plain_ops)
    outcome.judge(0, results)
    untraced, traced, layers, all_spans = [], [], [], []
    started = time.perf_counter()
    while (
        len(traced) < MIN_TRACED_PASSES
        or len(untraced) < MIN_TRACED_PASSES
        or time.perf_counter() - started < seconds
    ):
        pass_index = len(traced) + len(untraced) + 1
        if len(traced) <= len(untraced):
            tracer.reset()
            tracer.install()
            try:
                wall, results = run_pass(traced_ops)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(tracing.layer_metrics(tracer.spans, tracer.counts))
            all_spans.append({"pass": pass_index, "counts": dict(tracer.counts), "spans": tracer.spans})
        else:
            wall, results = run_pass(plain_ops)
            untraced.append(wall)
        outcome.judge(pass_index, results)

    problems = []
    for name in tracing.COUNT_METRICS:
        values = {per_pass[name][0] for per_pass in layers}
        if len(values) != 1:
            problems.append(f"count {name} did not repeat across traced passes: {sorted(values)}")
    counted = tracer.counts["generators.path_steps"] + tracer.counts["bem.path_steps"]
    if counted != workload.path_steps:
        problems.append(f"traced path-steps per pass {counted} != workload constant {workload.path_steps}")

    # counts repeat exactly (checked above), times are medians over the traced passes
    metrics = {
        name: (value if name in tracing.COUNT_METRICS else statistics.median(p[name][0] for p in layers), unit)
        for name, (value, unit) in layers[0].items()
    }
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["trace.spans"] = (len(all_spans[0]["spans"]), "count")
    spans_path.write_text(json.dumps(all_spans) + "\n")
    return {
        "layer_metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "traced_pass_s": traced,
        "untraced_pass_s": untraced,
        "problems": problems,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("cold", "measure", "trace", "reference"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    spawned_at = _monotonic() if args.spawned_at is None else args.spawned_at

    sys.path.insert(0, str(ROOT / "src"))
    import gate as gating
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = workloads.workdir_for(ROOT)
    state = workload.setup(args.seed, workdir)
    setup_s = _monotonic() - spawned_at

    import demigronwall

    source = Path(demigronwall.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"imported demigronwall from {source}, not from {ROOT / 'src'}")

    result = {"setup_s": setup_s}
    ops = workload.ops(state, lambda model: model)
    if args.mode == "reference":
        _, results = run_pass(ops)
        renders = {op.name: op.render for op in ops}
        outputs = {}
        for name, value, error in results:
            if error is not None:
                raise SystemExit(f"op {name} raised; no reference written:\n{error}")
            outputs[name] = renders[name](value)
        print(f"wrote {gating.write_reference(workload.name, args.seed, outputs)}", file=sys.stderr)
        return 0

    reference, reference_status = gating.load_reference(workload.name, args.seed)
    gate = gating.Gate(reference)
    outcome = Outcome(gate, ops)
    if args.mode in ("cold", "measure"):
        result.update(measure(ops, outcome, args.seconds, warm_passes=args.mode == "measure"))
    else:
        spans_path = workdir / f"spans-{workload.name}-seed-{args.seed}.json"
        result.update(trace(workload, state, ops, outcome, args.seconds, spans_path))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    if reference is not None and set(reference) != set(gate.first):
        gate.mismatches.append(f"reference ops {sorted(reference)} != run ops {sorted(gate.first)}")
    result.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        mismatches=gate.mismatches,
        reference=reference_status,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        platform=gating.platform_signature(),
        blas=_blas(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
