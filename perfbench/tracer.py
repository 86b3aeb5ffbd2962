"""Spans and exact counters around the package's public functions.

The tracer replaces module (or class) attributes with wrappers at the place
each caller looks them up, for example ``generators.uniform_matrix`` and
``cli.uniform_matrix`` rather than ``rng.uniform_matrix``.  Internal calls
inside a layer stay untraced, so ``rng.normal_matrix`` is one span even
though it calls ``uniform_matrix``.  Every wrapper records a span
``(name, layer, start, end, parent, error)`` in memory; spans are written
out once, when the benchmark ends.

Counts that need the model's callables (Newton iterations, drift rows,
diffusion calls) come from :meth:`Tracer.counting_model`, which wraps a model the
benchmark owns or one built by the ``ou_model`` factory the CLI calls.
"""

import dataclasses
import os
import time
from collections import Counter

LAYERS = ("rng", "generators", "gronwall", "demi", "fractional", "bem", "reporting", "cli")


def _words(counts, out, *args):
    counts["rng.words"] += out.size


def _generated_paths(counts, out, *args):
    counts["generators.entries"] += out.values.size
    counts["generators.path_steps"] += out.n_paths * out.n_steps


def _increment_matrix(counts, out, *args):
    counts["generators.entries"] += out.size
    counts["generators.path_steps"] += out.size


def _cells(key):
    def count(counts, out, *args):
        counts[key] += len(out.rows)

    return count


def _table(counts, out, *args):
    counts["fractional.table_entries"] += out.size


def _simulated(counts, out, *args):
    counts["bem.path_steps"] += out.n_paths * out.n_steps


def _written(counts, out, report, path, *args):
    counts["reporting.bytes"] += os.path.getsize(path)


def _targets():
    from demigronwall import bem, cli, demi, fractional, generators, gronwall, reporting

    report = reporting.VerificationReport
    return [
        (generators, "uniform_matrix", "rng", _words),
        (generators, "normal_matrix", "rng", _words),
        (bem, "normal_matrix", "rng", _words),
        (cli, "uniform_matrix", "rng", _words),
        (generators, "generate_paths", "generators", _generated_paths),
        (cli, "generate_paths", "generators", _generated_paths),
        (cli, "associated_increment_matrix", "generators", _increment_matrix),
        (gronwall, "verify_maximal_inequality", "gronwall", _cells("gronwall.maximal_cells")),
        (gronwall, "build_instance", "gronwall", None),
        (gronwall, "verify_gronwall", "gronwall", _cells("gronwall.theorem_cells")),
        (demi, "check_demimartingale", "demi", _cells("demi.cells")),
        (bem, "check_demimartingale", "demi", _cells("demi.cells")),
        (demi, "check_association", "demi", _cells("demi.cells")),
        (demi.TestFunctionFamily, "default", "demi", None),
        (fractional, "verify_fractional_gronwall", "fractional", _cells("fractional.cells")),
        (fractional, "multi_term_table", "fractional", _table),
        (fractional, "mittag_leffler", "fractional", None),
        (bem, "verify_apriori_bound", "bem", None),
        (bem, "simulate_bem", "bem", _simulated),
        (bem, "z_sequence", "bem", None),
        (report, "to_csv", "reporting", _written),
        (report, "write_json", "reporting", _written),
        (cli, "main", "cli", None),
    ]


def _owner_name(owner):
    return getattr(owner, "__name__", "").rsplit(".", 1)[-1]


class Tracer:
    """Records spans and counts while installed; restores every attribute on uninstall."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, error]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def wrap(self, name, layer, fn, count=None):
        stack = self._stack

        def traced(*args, **kwargs):
            span = [name, layer, time.perf_counter(), 0.0, stack[-1] if stack else -1, False]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, out, *args)
            return out

        return traced

    def counting_model(self, model):
        """The same SDE model with callables that count their calls and rows."""
        tracer = self

        def drift(y):
            tracer.counts["bem.drift_rows"] += y.shape[0]
            return model.drift(y)

        def diffusion(y):
            tracer.counts["bem.diffusion_calls"] += 1
            return model.diffusion(y)

        def jacobian(y):
            # _solve_implicit evaluates the Jacobian once per Newton iteration
            tracer.counts["bem.newton_iterations"] += 1
            tracer.counts["bem.newton_rows"] += y.shape[0]
            return model.drift_jacobian(y)

        return dataclasses.replace(
            model, drift=drift, diffusion=diffusion,
            drift_jacobian=None if model.drift_jacobian is None else jacobian,
        )

    def install(self):
        from demigronwall import bem

        for owner, attr, layer, count in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(f"{_owner_name(owner)}.{attr}", layer, getattr(owner, attr), count))
        ou_model = vars(bem)["ou_model"]
        self._saved.append((bem, "ou_model", ou_model))
        bem.ou_model = lambda *args, **kwargs: self.counting_model(ou_model(*args, **kwargs))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


#: per-layer metrics that are counts and must repeat exactly between traced passes;
#: reporting.bytes is left out because report.json carries the wall-clock time
COUNT_METRICS = (
    "rng.words", "generators.entries", "gronwall.maximal_cells", "gronwall.theorem_cells",
    "demi.cells", "fractional.cells", "fractional.table_entries", "fractional.ml_calls",
    "bem.path_steps", "bem.newton_iterations", "bem.newton_rows", "bem.newton_rows_per_path_step",
    "bem.drift_rows_per_newton_row", "bem.diffusion_calls",
) + tuple(f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "errors"))


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass, as ``{name: (value, unit)}``.

    A layer's busy time sums its outermost spans (a span nested in another
    span of the same layer is not counted twice); its self time sums every
    span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    outer_layers = []
    for i, (_, layer, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            outer_layers.append(outer_layers[parent] | {spans[parent][1]})
        else:
            outer_layers.append(frozenset())
    busy, self_time, by_name = Counter(), Counter(), Counter()
    calls, errors = Counter(), Counter()
    for i, (name, layer, start, end, _, error) in enumerate(spans):
        duration = end - start
        if layer not in outer_layers[i]:
            busy[layer] += duration
        self_time[layer] += duration - child_time[i]
        by_name[name] += duration
        calls[layer] += 1
        errors[layer] += error
    ml_calls = sum(1 for span in spans if span[0] == "fractional.mittag_leffler")

    theorem_s = by_name["gronwall.build_instance"] + by_name["gronwall.verify_gronwall"]
    simulate_s = by_name["bem.simulate_bem"]
    out = {
        "rng.words": (counts["rng.words"], "count"),
        "rng.busy_s": (busy["rng"], "s"),
        "rng.words_per_s": (_ratio(counts["rng.words"], busy["rng"]), "1/s"),
        "generators.entries": (counts["generators.entries"], "count"),
        "generators.self_s": (self_time["generators"], "s"),
        "generators.entries_per_s": (_ratio(counts["generators.entries"], self_time["generators"]), "1/s"),
        "gronwall.maximal_s": (by_name["gronwall.verify_maximal_inequality"], "s"),
        "gronwall.maximal_cells": (counts["gronwall.maximal_cells"], "count"),
        "gronwall.theorem_s": (theorem_s, "s"),
        "gronwall.theorem_cells": (counts["gronwall.theorem_cells"], "count"),
        "gronwall.theorem_s_per_cell": (_ratio(theorem_s, counts["gronwall.theorem_cells"]), "s"),
        "demi.busy_s": (busy["demi"], "s"),
        "demi.cells": (counts["demi.cells"], "count"),
        "demi.association_s": (by_name["demi.check_association"], "s"),
        "fractional.busy_s": (busy["fractional"], "s"),
        "fractional.cells": (counts["fractional.cells"], "count"),
        "fractional.table_entries": (counts["fractional.table_entries"], "count"),
        "fractional.ml_calls": (ml_calls, "count"),
        "bem.simulate_s": (simulate_s, "s"),
        "bem.noise_s": (by_name["bem.z_sequence"], "s"),
        "bem.path_steps": (counts["bem.path_steps"], "count"),
        "bem.path_steps_per_s": (_ratio(counts["bem.path_steps"], simulate_s), "1/s"),
        "bem.newton_iterations": (counts["bem.newton_iterations"], "count"),
        "bem.newton_rows": (counts["bem.newton_rows"], "count"),
        "bem.newton_rows_per_path_step": (_ratio(counts["bem.newton_rows"], counts["bem.path_steps"]), "ratio"),
        "bem.drift_rows_per_newton_row": (_ratio(counts["bem.drift_rows"], counts["bem.newton_rows"]), "ratio"),
        "bem.diffusion_calls": (counts["bem.diffusion_calls"], "count"),
        "reporting.write_s": (by_name["VerificationReport.to_csv"] + by_name["VerificationReport.write_json"], "s"),
        "reporting.bytes": (counts["reporting.bytes"], "count"),
        "cli.self_s": (self_time["cli"], "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.errors"] = (errors[layer], "count")
    return out
