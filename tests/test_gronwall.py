import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from demigronwall import generators, gronwall, reporting
from demigronwall.errors import (
    HolderViolation,
    HypothesisViolated,
    InvalidSpec,
    NegativeBase,
    NegativeInput,
    NegativeWeights,
    NonzeroStart,
    POutOfRange,
    ShapeMismatch,
)
from demigronwall.generators import GeneratorSpec, TrajectoryBatch, generate_paths
from demigronwall.gronwall import (
    GronwallInstance,
    HolderPair,
    build_instance,
    holder_bound,
    maximal_moment_bound,
    neg_inf_mean,
    sup_moment,
    verify_gronwall,
    verify_maximal_inequality,
    weighted_history,
)
from demigronwall.reporting import format_cell, mean_se, one_sided_verdict, power_se
from demigronwall.rng import uniform_matrix


def _growth_product(growth, n):
    """``prod_{k<n} (1 + G_k)``: one number for shared weights, one per path, left to right, for a batch."""
    if not isinstance(growth, TrajectoryBatch):
        return np.prod(1.0 + growth[:n])
    out = np.ones(growth.n_paths)
    for k in range(n):
        out *= 1.0 + growth.values[:, k]
    return out


def _const_batch(rows, m=1, label="det"):
    vals = np.tile(np.asarray(rows, dtype=float)[None, :], (m, 1))
    return TrajectoryBatch(vals, label=label)


class TestMomentEstimators:
    def test_sup_moment_deterministic_path(self):
        assert sup_moment(_const_batch([0.0, 1.0, 2.0]), 0.5, 2) == (math.sqrt(2.0), 0.0)

    def test_sup_moment_single_zero_column(self):
        assert sup_moment(_const_batch([0.0], m=5), 1.0, 0)[0] == 0.0

    def test_sup_moment_rejects_negative_base(self):
        with pytest.raises(NegativeBase):
            sup_moment(_const_batch([-1.0, -2.0]), 0.5)
        # integer exponent p = 1 accepts negative maxima
        assert sup_moment(_const_batch([-1.0, -2.0]), 1.0)[0] == -1.0

    def test_sup_moment_range_checks(self):
        batch = _const_batch([0.0, 1.0])
        with pytest.raises(POutOfRange):
            sup_moment(batch, 1.5)
        with pytest.raises(ShapeMismatch):
            sup_moment(batch, 0.5, 7)

    @pytest.mark.parametrize("n", [2.5, np.float64(1.5), "2"])
    def test_sup_moment_rejects_a_fractional_time_index(self, n):
        batch = _const_batch([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(InvalidSpec, match="whole number"):
            sup_moment(batch, 0.5, n)
        assert sup_moment(batch, 1.0, np.int64(2))[0] == 2.0

    def test_sup_moment_rejects_a_negative_first_index(self):
        # first=-3 would read a wrapped window (column 3 only) instead of raising
        batch = _const_batch([0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ShapeMismatch):
            sup_moment(batch, 1.0, 4, first=-3)
        assert sup_moment(batch, 1.0, 4, first=0)[0] == 4.0

    def test_neg_inf_mean_examples(self):
        assert neg_inf_mean(_const_batch([0.0, 3.0, 5.0]))[0] == 0.0
        assert neg_inf_mean(_const_batch([0.0, -2.0]))[0] == 2.0
        with pytest.raises(NonzeroStart):
            neg_inf_mean(_const_batch([1.0, 2.0]))


class TestMaximalMomentBound:
    def test_examples(self):
        assert maximal_moment_bound(4.0, 0.5) == 4.0
        assert maximal_moment_bound(0.0, 0.3) == 0.0
        assert abs(maximal_moment_bound(0.75, 0.5) - 2.0 * math.sqrt(0.75)) < 1e-15

    def test_monotone_in_q_and_divergent_in_p(self):
        qs = np.linspace(0.0, 5.0, 21)
        vals = [maximal_moment_bound(q, 0.4) for q in qs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert maximal_moment_bound(2.0, 0.99) > maximal_moment_bound(2.0, 0.5)

    def test_errors(self):
        with pytest.raises(POutOfRange):
            maximal_moment_bound(1.0, 1.0)
        with pytest.raises(NegativeInput):
            maximal_moment_bound(-1.0, 0.5)

    def test_nan_q_raises(self):
        with pytest.raises(NegativeInput):
            maximal_moment_bound(math.nan, 0.5)

    def test_infinite_q_raises(self):
        with pytest.raises(NegativeInput):
            maximal_moment_bound(math.inf, 0.5)


class TestHolderPair:
    def test_prefactor_values(self):
        assert HolderPair.deterministic(0.5).prefactor == 3.0
        pair = HolderPair(2.0, 2.0, 0.25)
        assert abs(pair.prefactor - 3.0 ** 0.5) < 1e-15

    @pytest.mark.parametrize(
        "mu,nu,p,exc",
        [
            (2.0, 2.0, 0.5, HolderViolation),       # p*nu = 1
            (2.0, 3.0, 0.25, HolderViolation),      # not conjugate
            (1.0, math.inf, 0.2, HolderViolation),  # nu infinite
            (0.5, 2.0, 0.2, HolderViolation),
            (math.inf, 1.0, 0.0, POutOfRange),
            (math.inf, 1.0, 1.0, POutOfRange),
        ],
    )
    def test_invalid_pairs(self, mu, nu, p, exc):
        with pytest.raises(exc):
            HolderPair(mu, nu, p)


class TestGronwallBound:
    def test_unit_example(self):
        pair = HolderPair.deterministic(0.5)
        assert holder_bound(pair, _growth_product(np.zeros(4), 4), 1.0, 0.0) == (3.0, 0.0)

    def test_deterministic_growth_example(self):
        pair = HolderPair.deterministic(0.5)
        assert abs(holder_bound(pair, _growth_product(np.array([1.0, 1.0]), 2), 4.0, 0.0)[0] - 12.0) < 1e-12

    def test_random_growth_with_sup_norm(self):
        # every path has product (1+G_0)(1+G_1) = 4
        g = TrajectoryBatch(np.tile([1.0, 1.0, 0.0], (50, 1)), label="g")
        pair = HolderPair.deterministic(0.5)
        assert abs(holder_bound(pair, _growth_product(g, 2), 1.0, 0.0)[0] - 6.0) < 1e-12

    def test_deterministic_form_is_bitwise_identical_to_general_form(self):
        # product-then-power convention shared with the closed-form display
        g = np.array([0.3, 0.7, 0.1, 0.0])
        for p in (0.25, 0.45, 0.8):
            pair = HolderPair.deterministic(p)
            by_hand = (1.0 + 1.0 / (1.0 - p)) * np.prod(1.0 + g) ** p * 2.5 ** p
            assert holder_bound(pair, np.prod(1.0 + g), 2.5, 0.0)[0] == by_hand

    def test_standard_error_combines_the_norm_and_power_errors(self):
        pair = HolderPair(2.0, 2.0, 0.25)
        w = np.array([2.0, 4.0, 6.0])
        mean, se = 2.5, 0.1
        norm = float(np.mean(w ** 0.5)) ** 0.5
        norm_se = float(np.std(w ** 0.5, ddof=1)) / math.sqrt(3) * 0.5 / norm
        power = 0.25 * 2.5 ** -0.75 * 0.1
        want = pair.prefactor * math.hypot(2.5 ** 0.25 * norm_se, norm * power)
        assert abs(holder_bound(pair, w, mean, se)[1] - want) < 1e-14
        # a scalar weight is exact, so only the power carries an error
        assert holder_bound(pair, 4.0, mean, se)[1] == pair.prefactor * (4.0 ** 0.25 * power_se(mean, se, 0.25))

    def test_errors(self):
        pair = HolderPair.deterministic(0.5)
        with pytest.raises(NegativeInput):
            holder_bound(pair, 1.0, -1.0, 0.0)

    @pytest.mark.parametrize(
        "weights, mean, exc",
        [
            (2.0, math.nan, NegativeInput),
            (-2.0, 0.1, NegativeWeights),
            (math.nan, 0.1, NegativeWeights),
            (np.array([1.0, -2.0]), 0.1, NegativeWeights),
        ],
    )
    def test_nan_or_negative_inputs_raise(self, weights, mean, exc):
        with pytest.raises(exc):
            holder_bound(HolderPair.deterministic(0.5), weights, mean, 0.1)

    @pytest.mark.parametrize(
        "weights, mean, se, exc",
        [
            (2.0, math.inf, 0.1, NegativeInput),
            (2.0, 1.0, math.nan, NegativeInput),
            (2.0, 1.0, math.inf, NegativeInput),
            (2.0, 1.0, -0.1, NegativeInput),
            (math.inf, 0.1, 0.1, NegativeWeights),
            (np.array([1.0, math.inf]), 0.1, 0.1, NegativeWeights),
        ],
    )
    def test_infinite_inputs_or_a_bad_se_raise(self, weights, mean, se, exc):
        with pytest.raises(exc):
            holder_bound(HolderPair.deterministic(0.5), weights, mean, se)


class TestBuildInstance:
    def test_zero_x_gives_positive_part_of_minus_s(self):
        s = TrajectoryBatch(np.array([[0.0, -1.0, 2.0]]))
        x = TrajectoryBatch(np.zeros((1, 3)))
        inst = build_instance(x, s, np.array([0.5, 0.5]))
        assert np.array_equal(inst.F.values, [[0.0, 1.0, 0.0]])

    def test_constant_x_without_growth(self):
        x = TrajectoryBatch(np.ones((2, 3)))
        s = TrajectoryBatch(np.zeros((2, 3)))
        inst = build_instance(x, s, np.zeros(2))
        assert np.array_equal(inst.F.values, np.ones((2, 3)))

    def test_hand_example_uses_x0_in_the_sum(self):
        x = TrajectoryBatch(np.array([[0.0, 2.0]]))
        s = TrajectoryBatch(np.array([[0.0, 1.0]]))
        inst = build_instance(x, s, np.array([0.5]))
        assert np.array_equal(inst.F.values, [[0.0, 1.0]])

    def test_recursion_holds_by_construction(self):
        m, n = 400, 12
        s = generate_paths(GeneratorSpec.bounded_associated(1.0, 1.0), n, m, seed=3)
        x = TrajectoryBatch(2.0 * uniform_matrix(77, m, n + 1), label="x")
        inst = build_instance(x, s, 0.4 * np.ones(n))
        assert inst.hypothesis_gap().min() >= -1e-12 * max(1.0, x.values.max())

    def test_errors(self):
        x = TrajectoryBatch(np.zeros((2, 3)))
        s = TrajectoryBatch(np.zeros((2, 3)))
        with pytest.raises(NegativeInput):
            build_instance(TrajectoryBatch(-np.ones((2, 3))), s, np.zeros(2))
        with pytest.raises(NegativeInput):
            build_instance(x, s, np.array([-0.1, 0.0]))
        with pytest.raises(ShapeMismatch):
            build_instance(x, TrajectoryBatch(np.zeros((2, 4))), np.zeros(3))
        with pytest.raises(NonzeroStart):
            build_instance(x, TrajectoryBatch(np.ones((2, 3))), np.zeros(2))


class TestVerifyMaximalInequality:
    def test_all_zero_batch_passes_with_zero_bound(self):
        batch = TrajectoryBatch(np.zeros((100, 5)))
        report = verify_maximal_inequality(batch, [0.25, 0.5, 0.75])
        assert report.overall_pass
        assert all(row["lhs"] == 0.0 and row["rhs"] == 0.0 for row in report.rows)

    def test_two_point_exact_enumeration_cell(self):
        batch = generate_paths(GeneratorSpec.two_point(0.5), 2, 100_000, seed=17)
        report = verify_maximal_inequality(batch, [0.25], 2)
        row = report.rows[0]
        # two-atom law: sup in {0, 2}, -inf in {2, 0}, each w.p. 1/2
        lhs_exact = 0.5 * 2.0 ** 0.25
        rhs_exact = maximal_moment_bound(1.0, 0.25)
        assert abs(row["lhs"] - lhs_exact) <= 4.0 * row["lhs_se"]
        assert abs(row["rhs"] - rhs_exact) < 0.02
        assert row["verdict"] == "pass"

    def test_suspicious_batch_warns(self):
        drift = np.cumsum(-np.ones((200, 6)), axis=1)
        batch = TrajectoryBatch(np.hstack([np.zeros((200, 1)), drift]))
        with pytest.warns(UserWarning, match="mean increments"):
            verify_maximal_inequality(batch, [0.5])

    def test_fair_walk_does_not_warn(self):
        batch = generate_paths(GeneratorSpec.random_walk("pm1"), 50, 20_000, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 2, 25, 50):
                verify_maximal_inequality(batch, [0.5], n)

    def test_rows_carry_the_bits_of_sup_moment(self):
        batch = generate_paths(GeneratorSpec.associated(0.5), 12, 3000, seed=21)
        report = verify_maximal_inequality(batch, [0.25, 0.5, 0.75], 7)
        for row in report.rows:
            assert (row["lhs"], row["lhs_se"]) == sup_moment(batch, row["p"], 7)
        with pytest.raises(POutOfRange):
            verify_maximal_inequality(batch, [0.5, 1.5], 7)

    def test_empty_p_grid_raises(self):
        batch = generate_paths(GeneratorSpec.random_walk(), 4, 100, seed=1)
        with pytest.raises(InvalidSpec):
            verify_maximal_inequality(batch, [], 2)

    @pytest.mark.parametrize("p_grid", [0.5, "0.5"], ids=["float", "string"])
    def test_scalar_p_grid_raises(self, p_grid):
        batch = generate_paths(GeneratorSpec.random_walk(), 4, 100, seed=1)
        with pytest.raises(InvalidSpec, match="list of exponents"):
            verify_maximal_inequality(batch, p_grid, 2)

    def test_shape_and_start_are_checked_before_the_screen(self):
        # a down-drifting batch would warn in the screen; the documented errors must come first
        drift = np.hstack([np.zeros((200, 1)), np.cumsum(-np.ones((200, 4)), axis=1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeMismatch):
                verify_maximal_inequality(TrajectoryBatch(drift), [0.5], 4 + 5)
            with pytest.raises(NonzeroStart):
                verify_maximal_inequality(TrajectoryBatch(drift + 1.0), [0.5], 2)
            with pytest.raises(ShapeMismatch):  # the range of n is checked before column 0 is read
                verify_maximal_inequality(TrajectoryBatch(drift + 1.0), [0.5], 4 + 5)

    @pytest.mark.parametrize("n", [2.5, np.float64(1.5), "2"])
    def test_a_fractional_time_index_raises_before_any_column_is_read(self, n):
        batch = generate_paths(GeneratorSpec.random_walk(), 4, 100, seed=1)
        with pytest.raises(InvalidSpec, match="whole number"):
            verify_maximal_inequality(batch, [0.5], n)
        assert batch._sweep is None
        assert [row["n"] for row in verify_maximal_inequality(batch, [0.5], np.int64(2)).rows] == [2]

    def test_nonzero_start_in_the_last_row_block_raises(self):
        # column 0 is read whole before the loop, so a nonzero start in the last row must raise
        values = np.zeros((20_000, 6), order="F")
        values[-1, 0] = -0.5
        with pytest.raises(NonzeroStart):
            verify_maximal_inequality(TrajectoryBatch(values), [0.5], 5)


class TestWorkerCount:
    """Screens and reports over row blocks and spread columns have the serial bits."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "spec",
        [GeneratorSpec.random_walk("gauss"), GeneratorSpec.associated(0.5), GeneratorSpec.two_point(0.4)],
        ids=lambda spec: spec.kind,
    )
    def test_maximal_reports_do_not_depend_on_the_worker_count(self, monkeypatch, spec, workers):
        # 3 workers split the 2000 rows unevenly and the 25 increment columns into 8, 8 and 9
        batch = generate_paths(spec, 25, 2000, seed=17)
        order = np.ascontiguousarray(batch.values)
        p_grid = [0.25, 0.5, 0.75]

        def run():
            reports = [verify_maximal_inequality(batch, p_grid, n) for n in (2, 10, 25)]
            screen = gronwall._screened_extremes(order, 25)
            return [repr(r.rows) for r in reports], [a.tobytes() for a in screen]

        serial = run()
        monkeypatch.setattr(generators, "WORKERS", workers)
        monkeypatch.setattr(generators, "ROW_FLOOR", 1)
        monkeypatch.setattr(generators, "_pool", None)
        assert run() == serial


class TestIncrementScreen:
    """The screen's moments and extremes from the one read of ``_screened_extremes``."""

    @pytest.mark.parametrize(
        "m, order",
        [(1000, "F"), (1000, "C"), (999, "F"), (7, "C"), (9, "F")],
        # the ids are those of the row-block screen that the column loop replaced
        ids=["one-block", "uneven-last", "one-row-last", "one-row-blocks", "column-chunks"],
    )
    def test_matches_mean_se_of_the_increments(self, m, order):
        # bit for bit on either layout; the oracle's 2-D mean_se takes a Fortran copy because
        # numpy adds the rows of a C array one by one, but each column of a Fortran array pairwise,
        # as a 1-D mean_se does
        rng = np.random.default_rng(5)
        values = np.hstack([np.zeros((m, 1)), np.cumsum(rng.normal(3.0, 2.0, size=(m, 8)), axis=1)])
        values = np.array(values, order=order)
        n = 5
        sup, inf, mean, se = gronwall._screened_extremes(values, n)
        ref_mean, ref_se = mean_se(np.diff(np.asfortranarray(values)[:, : n + 1], axis=1))
        assert mean.tobytes() == ref_mean.tobytes()
        assert se.tobytes() == ref_se.tobytes()
        for k in range(1, n + 1):
            assert (mean[k - 1], se[k - 1]) == mean_se(values[:, k] - values[:, k - 1])
        assert sup.tobytes() == values[:, : n + 1].max(axis=1).tobytes()
        assert inf.tobytes() == values[:, : n + 1].min(axis=1).tobytes()

    def test_reports_do_not_read_the_sign_of_a_zero_extreme(self):
        # numpy folds a C-order row in another order than a Fortran one, so a row that mixes +0.0
        # and -0.0 may keep either zero as its maximum or minimum; the reports are the same
        rng = np.random.default_rng(6)
        values = np.hstack([np.zeros((500, 1)), rng.choice([-0.0, 0.0, 1.0, -1.0], size=(500, 12))])
        assert np.sum(values.max(axis=1) == 0.0) > 0 and np.sum(values.min(axis=1) == 0.0) > 0
        reports = [
            [verify_maximal_inequality(TrajectoryBatch(np.array(values, order=order)), [0.25, 0.5, 0.75], n)
             for n in (1, 6, 12)]
            for order in "FC"
        ]
        assert [repr(r.rows) for r in reports[0]] == [repr(r.rows) for r in reports[1]]

    def test_one_row_has_zero_error_and_n_zero_no_increments(self):
        sup, inf, mean, se = gronwall._screened_extremes(np.array([[0.0, 2.0, 1.0]]), 2)
        assert np.array_equal(mean, [2.0, -1.0]) and np.array_equal(se, [0.0, 0.0])
        assert (sup[0], inf[0]) == (2.0, 0.0)
        _, _, mean, se = gronwall._screened_extremes(np.zeros((4, 3)), 0)
        assert mean.shape == se.shape == (0,)


def _cells(report):
    """A report's rows as the CSV cells, and its named checks."""
    return [[format_cell(row.get(col)) for col in report.columns] for row in report.rows], report.checks


class TestSweepOrder:
    """Calls at any sequence of ``n`` continue one sweep per batch, with the reports of a fresh batch per call."""

    P_GRID = [0.25, 0.5, 0.75]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "order",
        [(0, 2, 10, 25), (25, 10, 2, 0), (10, 10, 25, 25, 3), (25, 7, 0, 25, 1)],
        ids=["ascending", "descending", "repeated", "below-after-full"],
    )
    @pytest.mark.parametrize(
        "spec", [GeneratorSpec.random_walk("gauss"), GeneratorSpec.two_point(0.9)], ids=lambda spec: spec.kind
    )
    def test_reports_equal_those_of_a_fresh_batch_per_call(self, monkeypatch, spec, order, workers):
        monkeypatch.setattr(generators, "WORKERS", workers)
        monkeypatch.setattr(generators, "ROW_FLOOR", 1)
        monkeypatch.setattr(generators, "_pool", None)
        batch = generate_paths(spec, 25, 2000, seed=23)

        def call(target, n):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = verify_maximal_inequality(target, self.P_GRID, n)
            return _cells(report), len(caught)

        for n in order:
            swept = call(batch, n)
            fresh = call(TrajectoryBatch(batch.values, label=batch.label), n)
            assert swept == fresh
            if spec.kind == "two_point_demisub":  # mean increment -0.8 on the first two steps
                assert swept[1] == (1 if n >= 1 else 0)

    def test_column_moments_are_taken_once_per_column(self, monkeypatch):
        counted = []

        def counting(a, b, scratch):
            counted.append(1)
            return reporting.difference_mean_se(a, b, scratch)

        monkeypatch.setattr(gronwall, "difference_mean_se", counting)
        batch = generate_paths(GeneratorSpec.random_walk(), 50, 300, seed=4)
        for n in (2, 10, 25, 50):
            verify_maximal_inequality(batch, self.P_GRID, n)
        assert len(counted) == 50  # one call per n from column 0 would take 2 + 10 + 25 + 50 = 87
        for n in (50, 10, 0):
            verify_maximal_inequality(batch, self.P_GRID, n)
        assert len(counted) == 50

    def test_concurrent_calls_on_one_batch_give_the_reports_of_fresh_batches(self):
        # each call takes the sweep off the batch until its report is made, so no other call moves its extremes
        batch = generate_paths(GeneratorSpec.associated(0.5), 25, 2000, seed=29)
        expected = {n: _cells(verify_maximal_inequality(TrajectoryBatch(batch.values), self.P_GRID, n)) for n in range(26)}
        plans = [list(np.random.default_rng(t).integers(0, 26, size=40)) for t in range(6)]
        mismatches = []

        def run(plan):
            try:
                for n in plan:
                    if _cells(verify_maximal_inequality(batch, self.P_GRID, int(n))) != expected[n]:
                        mismatches.append(n)
            except Exception as exc:  # an error in a thread would not fail the test by itself
                mismatches.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(plan,)) for plan in plans]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_a_refused_start_leaves_no_sweep(self):
        values = np.zeros((10, 4))
        values[3, 0] = 1.0
        batch = TrajectoryBatch(values)
        for _ in range(2):
            with pytest.raises(NonzeroStart):
                verify_maximal_inequality(batch, self.P_GRID, 2)
            assert batch._sweep is None


_MAXIMAL_KINDS = [
    GeneratorSpec.random_walk("pm1"),
    GeneratorSpec.random_walk("gauss"),
    GeneratorSpec.associated(0.5),
    GeneratorSpec.bounded_associated(1.0, 1.0),
    GeneratorSpec.two_point(0.5),
]


def _kind_id(spec):
    return spec.kind + ("-" + spec.increment if spec.kind == "random_walk" else "")


def _poisoned_law(monkeypatch, value, row, step):
    """Make every generated batch's increment of path ``row`` at step ``step`` equal ``value``."""
    law = generators._increment_tiles

    def tiles(spec, n_steps, r0, r1, seed, width):
        k = 1
        for tile in law(spec, n_steps, r0, r1, seed, width):
            tile = tile.reshape(r1 - r0, -1)
            if r0 <= row < r1 and k <= step < k + tile.shape[1]:
                tile[row - r0, step - k] = value
            k += tile.shape[1]
            yield tile

    monkeypatch.setattr(generators, "_increment_tiles", tiles)


class TestStreamedSweep:
    """A generated batch is swept from its tile source, never held, with the bits of a batch that holds its values."""

    P_GRID = [0.25, 0.5, 0.75]

    def _reports(self, batch, order):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = [_cells(verify_maximal_inequality(batch, self.P_GRID, n)) for n in order]
        return reports, len(caught)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("entries", [1, 3 * 2000, 64 * 2000], ids=["one-column", "three-columns", "wide"])
    @pytest.mark.parametrize(
        "order", [(2, 10, 25, 50), (50, 2, 25, 10), (10, 10, 50, 50, 2)], ids=["ascending", "shuffled", "repeated"]
    )
    @pytest.mark.parametrize("spec", _MAXIMAL_KINDS, ids=_kind_id)
    def test_reports_equal_those_of_a_held_copy(self, monkeypatch, spec, order, entries, workers):
        # draw tiles of one column, of three (which no sweep round of five columns ends on) and one
        # tile wider than the batch; 3 workers split the 2000 rows into 666, 667 and 667
        monkeypatch.setattr(generators, "WORKERS", workers)
        monkeypatch.setattr(generators, "ROW_FLOOR", 1)
        monkeypatch.setattr(generators, "_pool", None)
        monkeypatch.setattr(generators, "TILE_ENTRIES", entries)
        held = TrajectoryBatch(generate_paths(spec, 50, 2000, seed=31).values)
        streamed = generate_paths(spec, 50, 2000, seed=31)
        assert self._reports(streamed, order) == self._reports(held, order)
        assert streamed._values is None  # the sweep built no values

    def test_a_sweep_continues_when_the_row_blocks_change(self, monkeypatch):
        spec = GeneratorSpec.associated(0.5)
        held = TrajectoryBatch(generate_paths(spec, 50, 2000, seed=32).values)
        streamed = generate_paths(spec, 50, 2000, seed=32)
        first = self._reports(streamed, [10])
        monkeypatch.setattr(generators, "WORKERS", 3)
        monkeypatch.setattr(generators, "ROW_FLOOR", 1)
        monkeypatch.setattr(generators, "_pool", None)
        assert first + self._reports(streamed, [25, 50]) == self._reports(held, [10]) + self._reports(held, [25, 50])

    def test_blocks_take_each_moment_column_once_with_frequent_thread_switches(self, monkeypatch):
        # the row blocks share out each round's increment columns: a column taken twice or not at all
        # would change the count or the reports
        spec = GeneratorSpec.random_walk("gauss")
        held = TrajectoryBatch(generate_paths(spec, 50, 2000, seed=36).values)
        expected = self._reports(held, (2, 10, 25, 50))
        counted = []

        def counting(a, b, scratch):
            counted.append(threading.current_thread())
            return reporting.difference_mean_se(a, b, scratch)

        monkeypatch.setattr(gronwall, "difference_mean_se", counting)
        monkeypatch.setattr(generators, "WORKERS", 7)
        monkeypatch.setattr(generators, "ROW_FLOOR", 1)
        monkeypatch.setattr(generators, "_pool", None)
        monkeypatch.setattr(generators, "TILE_ENTRIES", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            streamed = self._reports(generate_paths(spec, 50, 2000, seed=36), (2, 10, 25, 50))
        finally:
            sys.setswitchinterval(interval)
        assert streamed == expected
        assert len(counted) == 50 and len(set(counted)) > 1

    @pytest.mark.parametrize("spec", _MAXIMAL_KINDS, ids=_kind_id)
    def test_values_after_a_partial_sweep_are_the_partial_sums_of_the_law(self, monkeypatch, spec):
        monkeypatch.setattr(generators, "WORKERS", 3)
        monkeypatch.setattr(generators, "ROW_FLOOR", 1)
        monkeypatch.setattr(generators, "_pool", None)
        batch = generate_paths(spec, 50, 2000, seed=33)
        verify_maximal_inequality(batch, self.P_GRID, 25)
        expected = generators.partial_sums(2000, 50, generators._increment_tiles(spec, 50, 0, 2000, 33, 50))
        assert batch.values.flags.f_contiguous
        assert batch.values.tobytes() == expected.tobytes()
        assert batch.values is batch.values  # built once, then kept

    @pytest.mark.parametrize("spec", _MAXIMAL_KINDS, ids=_kind_id)
    def test_the_lemma_holds_a_fraction_of_the_batch(self, spec):
        # a held batch alone is 1.0, and generating it and then sweeping it peaks above 1.15
        m, n_steps = 20_000, 50
        tracemalloc.start()
        try:
            batch = generate_paths(spec, n_steps, m, seed=3)
            for n in (2, 10, 25, 50):
                verify_maximal_inequality(batch, self.P_GRID, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch._values is None
        assert peak <= 0.4 * m * (n_steps + 1) * 8

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_draw_raises_from_the_sweep_and_from_values(self, monkeypatch, value, workers):
        monkeypatch.setattr(generators, "WORKERS", workers)
        monkeypatch.setattr(generators, "ROW_FLOOR", 1)
        monkeypatch.setattr(generators, "_pool", None)
        _poisoned_law(monkeypatch, value, row=1999, step=17)  # in the last row block
        spec = GeneratorSpec.random_walk("gauss")
        batch = generate_paths(spec, 50, 2000, seed=34)
        verify_maximal_inequality(batch, self.P_GRID, 16)  # the entry is not read yet
        with pytest.raises(InvalidSpec, match="non-finite"):
            verify_maximal_inequality(batch, self.P_GRID, 17)
        assert batch._sweep is None
        with pytest.raises(InvalidSpec, match="non-finite"):
            verify_maximal_inequality(generate_paths(spec, 50, 2000, seed=34), self.P_GRID, 50)
        with pytest.raises(InvalidSpec, match="non-finite"):
            generate_paths(spec, 50, 2000, seed=34).values

    @pytest.mark.parametrize("p_grid", [[0.5, 1.0], [1.5], [0.0, 0.5], [math.nan]], ids=["one", "above", "zero", "nan"])
    def test_p_is_checked_before_any_column_is_read(self, monkeypatch, p_grid):
        batch = generate_paths(GeneratorSpec.random_walk(), 50, 2000, seed=35)
        verify_maximal_inequality(batch, self.P_GRID, 10)
        sweep = batch._sweep
        counted = []
        monkeypatch.setattr(batch, "_tiles", lambda *args: counted.append(args))
        monkeypatch.setattr(gronwall, "difference_mean_se", lambda *args: counted.append(args))
        for n in (25, 5, 10):
            with pytest.raises(POutOfRange, match=r"p must lie in \(0, 1\)"):
                verify_maximal_inequality(batch, p_grid, n)
            assert batch._sweep is sweep and sweep.upto == 10
        fresh = generate_paths(GeneratorSpec.random_walk(), 50, 2000, seed=35)
        monkeypatch.setattr(fresh, "_tiles", lambda *args: counted.append(args))
        with pytest.raises(POutOfRange):
            verify_maximal_inequality(fresh, p_grid, 25)
        assert counted == [] and fresh._sweep is None and fresh._values is None


class TestVerifyGronwall:
    def test_deterministic_instance(self):
        x = TrajectoryBatch(np.ones((1, 2)))
        f = TrajectoryBatch(np.ones((1, 2)))
        s = TrajectoryBatch(np.zeros((1, 2)))
        inst = GronwallInstance(X=x, F=f, G=np.zeros(1), S=s)
        report = verify_gronwall(inst, [HolderPair.deterministic(0.5)], [1])
        row = report.rows[0]
        assert row["lhs"] == 1.0
        assert row["rhs"] == 3.0
        assert row["verdict"] == "pass"

    def test_zero_x_instance_passes(self):
        s = generate_paths(GeneratorSpec.random_walk(), 6, 500, seed=5)
        x = TrajectoryBatch(np.zeros((500, 7)))
        inst = build_instance(x, s, np.zeros(6))
        report = verify_gronwall(inst, [HolderPair.deterministic(0.3)])
        assert [row["n"] for row in report.rows] == [6]
        assert report.rows[0]["lhs"] == 0.0
        assert report.overall_pass

    def test_uniform_bound_ignores_the_demimartingale(self):
        # same F and G, two different demimartingales: identical right side
        rng_a = generate_paths(GeneratorSpec.random_walk(), 5, 300, seed=1)
        rng_b = generate_paths(GeneratorSpec.associated(1.0), 5, 300, seed=2)
        x = TrajectoryBatch(np.zeros((300, 6)))
        f_vals = np.maximum(np.maximum(-rng_a.values, -rng_b.values), 0.0) + 1.0
        g = 0.25 * np.ones(5)
        pair = HolderPair(2.0, 2.0, 0.25)
        rhs = []
        for s in (rng_a, rng_b):
            inst = GronwallInstance(X=x, F=TrajectoryBatch(f_vals), G=g, S=s)
            rhs.append(verify_gronwall(inst, [pair], [5]).rows[0]["rhs"])
        assert rhs[0] == rhs[1]

    def test_hypothesis_violation_detected(self):
        x = TrajectoryBatch(np.full((3, 2), 2.0))
        f = TrajectoryBatch(np.ones((3, 2)))  # too small: 2 > 1 + 0 + 0
        s = TrajectoryBatch(np.zeros((3, 2)))
        inst = GronwallInstance(X=x, F=f, G=np.zeros(1), S=s)
        with pytest.raises(HypothesisViolated):
            verify_gronwall(inst, [HolderPair.deterministic(0.5)], [1])

    def test_monte_carlo_instance_passes_both_exponent_pairs(self):
        m, n = 20_000, 16
        s = generate_paths(GeneratorSpec.bounded_associated(1.0, 1.0), n, m, seed=44)
        x = TrajectoryBatch(2.0 * uniform_matrix(1044, m, n + 1), label="x")
        inst = build_instance(x, s, 0.3 * np.ones(n))
        report = verify_gronwall(inst, [HolderPair.deterministic(0.45), HolderPair(2.0, 2.0, 0.45)], [n])
        assert len(report.rows) == 2
        assert report.overall_pass, report.rows


class TestGronwallGrid:
    PAIRS = [q for p in (0.25, 0.45) for q in (HolderPair.deterministic(p), HolderPair(2.0, 2.0, p))]
    N_LIST = [10, 1, 4]

    @staticmethod
    def _instance(kind):
        m, n = 3000, 10
        s = generate_paths(GeneratorSpec.bounded_associated(1.0, 1.0), n, m, seed=61)
        x = TrajectoryBatch(2.0 * uniform_matrix(62, m, n + 1), label="x")
        growth = 0.3 * np.ones(n) if kind == "det" else TrajectoryBatch(0.3 * uniform_matrix(63, m, n + 1))
        return build_instance(x, s, growth)

    @pytest.mark.parametrize("kind", ["det", "random"])
    def test_rows_are_pair_major_and_carry_the_per_cell_bits(self, kind):
        inst = self._instance(kind)
        report = verify_gronwall(inst, self.PAIRS, self.N_LIST)
        cells = [(pair, n) for pair in self.PAIRS for n in self.N_LIST]
        assert [(row["p"], row["mu"], row["n"]) for row in report.rows] == [(q.p, q.mu, n) for q, n in cells]
        for (pair, n), row in zip(cells, report.rows):
            assert (row["lhs"], row["lhs_se"]) == sup_moment(inst.X, pair.p, n)
            f_mean = float(inst.F.values[:, : n + 1].max(axis=1).mean())
            assert row["rhs"] == holder_bound(pair, _growth_product(inst.G, n), f_mean, 0.0)[0]
        assert set(report.checks) == {f"hypothesis_holds[n={n},p={q.p:g},mu={q.mu:g}]" for q, n in cells}
        assert report.overall_pass, report.rows

    def test_default_time_index_is_the_last(self):
        inst = self._instance("det")
        assert [row["n"] for row in verify_gronwall(inst, self.PAIRS).rows] == [10] * 4

    def test_bad_grid_raises_before_any_cell(self, monkeypatch):
        inst = self._instance("det")

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell was estimated before the grid was checked")

        monkeypatch.setattr(gronwall, "sup_moment", no_cell)
        with pytest.raises(ShapeMismatch):
            verify_gronwall(inst, self.PAIRS, [1, 4, 11])
        with pytest.raises(ShapeMismatch):
            verify_gronwall(inst, self.PAIRS, [-1])
        with pytest.raises(InvalidSpec):
            verify_gronwall(inst, [], [1])
        with pytest.raises(InvalidSpec):
            verify_gronwall(inst, self.PAIRS, [])

    @pytest.mark.parametrize("n_list", [[2.5], [1, np.float64(4.5)], ["4"]])
    def test_a_fractional_time_index_raises_before_any_cell(self, monkeypatch, n_list):
        inst = self._instance("det")
        monkeypatch.setattr(gronwall, "prefix_reduce", lambda *args: pytest.fail("a cell was estimated"))
        with pytest.raises(InvalidSpec, match="whole number"):
            verify_gronwall(inst, self.PAIRS, n_list)


class TestPerTimeIndexHoisting:
    @staticmethod
    def _cell(inst, pair, n):
        """One row of ``verify_gronwall`` from the one-cell estimators."""
        lhs, lhs_se = sup_moment(inst.X, pair.p, n)
        rhs, rhs_se = holder_bound(pair, _growth_product(inst.G, n), *mean_se(inst.F.values[:, : n + 1].max(axis=1)))
        return {"lhs": lhs, "lhs_se": lhs_se, "rhs": rhs, **one_sided_verdict(lhs, lhs_se, rhs, rhs_se)}

    def test_random_growth_rows_match_the_per_cell_formula(self):
        m, n = 2000, 6
        s = generate_paths(GeneratorSpec.bounded_associated(1.0, 1.0), n, m, seed=71)
        x = TrajectoryBatch(2.0 * uniform_matrix(72, m, n + 1), label="x")
        inst = build_instance(x, s, TrajectoryBatch(0.4 * uniform_matrix(73, m, n)))
        pairs = [HolderPair.deterministic(0.4), HolderPair(2.0, 2.0, 0.3), HolderPair(3.0, 1.5, 0.5)]
        n_list = [3, 0, 6, 3]  # 0: the empty growth product is 1
        report = verify_gronwall(inst, pairs, n_list)
        cells = [(pair, k) for pair in pairs for k in n_list]
        assert len(report.rows) == len(cells)
        for (pair, k), row in zip(cells, report.rows):
            assert {key: row[key] for key in ("lhs", "lhs_se", "rhs", "margin", "verdict")} == self._cell(inst, pair, k)

    @pytest.mark.parametrize("shared", [True, False])
    def test_direct_instance_with_negative_growth_raises(self, shared):
        x = TrajectoryBatch(np.ones((4, 3)))
        s = TrajectoryBatch(np.zeros((4, 3)))
        g = np.array([0.5, -0.1]) if shared else TrajectoryBatch(np.full((4, 2), -0.1))
        inst = GronwallInstance(X=x, F=TrajectoryBatch(np.full((4, 3), 3.0)), G=g, S=s)
        with pytest.raises(NegativeWeights):
            verify_gronwall(inst, [HolderPair.deterministic(0.5)], [0])

    def test_direct_instance_with_short_growth_raises(self):
        x = TrajectoryBatch(np.ones((4, 3)))
        s = TrajectoryBatch(np.zeros((4, 3)))
        for g in (np.zeros(1), TrajectoryBatch(np.zeros((3, 2)))):
            inst = GronwallInstance(X=x, F=TrajectoryBatch(np.ones((4, 3))), G=g, S=s)
            with pytest.raises(ShapeMismatch):
                verify_gronwall(inst, [HolderPair.deterministic(0.5)], [1])


class TestGrowthChecks:
    """weighted_history, build_instance and verify_gronwall share one growth-weight check."""

    def test_short_or_misshapen_growth_raises(self):
        x = np.ones((4, 3))
        s = TrajectoryBatch(np.zeros((4, 3)))
        for g in (np.array([0.5]), np.zeros((3, 2)), np.zeros((4, 2, 1)), np.float64(0.5)):
            with pytest.raises(ShapeMismatch):
                weighted_history(x, g)
            with pytest.raises(ShapeMismatch):
                build_instance(TrajectoryBatch(x), s, g)

    def test_negative_growth_raises_negative_weights(self):
        x = np.ones((4, 3))
        s = TrajectoryBatch(np.zeros((4, 3)))
        for g in (np.array([0.5, -0.1]), np.full((4, 2), -0.1), TrajectoryBatch(np.full((4, 2), -0.1))):
            with pytest.raises(NegativeWeights):
                weighted_history(x, g)
            with pytest.raises(NegativeWeights):
                build_instance(TrajectoryBatch(x), s, g)
        assert issubclass(NegativeWeights, NegativeInput)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_history_is_time_major_with_the_row_cumsum_bits(self, order):
        # x < 0 with G = 0 gives -0.0 products; the first one keeps its sign, as in np.cumsum
        x = np.array(4.0 * uniform_matrix(83, 6, 5) - 2.0, order=order)
        x[:, 0] = -1.0
        for g in (np.array([0.0, 0.3, 0.1, 0.7]), np.array(0.3 * uniform_matrix(84, 6, 4), order=order)):
            hist = weighted_history(x, g)
            assert hist.flags.f_contiguous
            oracle = np.hstack([np.zeros((6, 1)), np.cumsum(g[..., :4] * x[:, :4], axis=1)])
            assert hist.tobytes() == oracle.tobytes()

    def test_per_path_array_equals_per_path_batch(self):
        x = TrajectoryBatch(2.0 * uniform_matrix(81, 5, 4), label="x")
        s = TrajectoryBatch(np.zeros((5, 4)))
        g = 0.3 * uniform_matrix(82, 5, 3)
        from_array = build_instance(x, s, g)
        from_batch = build_instance(x, s, TrajectoryBatch(g))
        assert np.array_equal(from_array.F.values, from_batch.F.values)
        assert np.array_equal(weighted_history(x.values, g), weighted_history(x.values, TrajectoryBatch(g)))


class TestTailIntegralIdentity:
    def test_quadrature_matches_closed_form(self):
        # independent oracle for the maximal-moment constant q^p/(1-p)
        from scipy.integrate import quad

        for p in (0.2, 0.5, 0.8):
            for q in (0.5, 1.0, 4.0):
                kink = q ** p
                head, _ = quad(lambda x: min(q * x ** (-1.0 / p), 1.0), 0.0, kink)
                tail, _ = quad(lambda x: q * x ** (-1.0 / p), kink, np.inf)
                assert abs(head + tail - maximal_moment_bound(q, p)) <= 1e-6 * maximal_moment_bound(q, p)


def _bits(a):
    """The bytes of ``a`` in one fixed layout, so that layouts compare equal."""
    return np.asfortranarray(a).tobytes()


class TestColumnWalks:
    """The column walks of H, F and the gap keep the bits of the whole-matrix formulas."""

    M, N = 300, 7

    @classmethod
    def _data(cls, order):
        x = np.array(2.0 * uniform_matrix(91, cls.M, cls.N + 1), order=order)
        x[:5] = 0.0  # zero rows: G X = 0, F from -S alone
        x[5:10, 1:] = -0.0
        s = generate_paths(GeneratorSpec.bounded_associated(1.0, 1.0), cls.N, cls.M, seed=92).values
        s = np.array(s, order=order)
        growth = {
            "shared": np.array([0.0, 0.3, 0.1, 0.7, 0.0, 0.2, 0.4]),
            "per-path": np.array(0.4 * uniform_matrix(93, cls.M, cls.N), order=order),
        }
        return x, s, growth

    @staticmethod
    def _history(x, g):
        """``H`` as ``partial_sums`` built it: ``np.cumsum`` of the products, after a zero column."""
        n = x.shape[1] - 1
        return np.hstack([np.zeros((len(x), 1)), np.cumsum(g[..., :n] * x[:, :n], axis=1)])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", ["shared", "per-path"])
    def test_build_instance_and_gap_keep_the_matrix_bits(self, kind, order):
        x, s, growth = self._data(order)
        g = growth[kind]
        inst = build_instance(TrajectoryBatch(x), TrajectoryBatch(s), g)
        hist = self._history(x, g)
        assert _bits(inst.F.values) == _bits(np.maximum(0.0, x - s - hist))
        assert inst.F.values.flags.f_contiguous
        # a direct instance with F too small somewhere: the gap has both signs
        f = np.asfortranarray(inst.F.values - 0.5 * uniform_matrix(94, self.M, self.N + 1))
        direct = GronwallInstance(X=inst.X, F=TrajectoryBatch(f), G=g, S=inst.S)
        gap = direct.hypothesis_gap()
        assert gap.flags.f_contiguous
        assert _bits(gap) == _bits(f + s + hist - x)

    @pytest.mark.parametrize("kind", ["shared", "per-path"])
    def test_violation_count_is_the_matrix_count(self, kind):
        x, s, growth = self._data("F")
        g = growth[kind]
        x[7, 3] = -5.0  # a negative X and F set the scale through their minima
        hist = self._history(x, g)
        exact = x - s - hist  # the F that makes the gap 0
        f = exact + 1.0
        f[11, 2] = -np.abs(f).max() - 5.0
        scale = max(1.0, float(np.abs(x).max()), float(np.abs(f).max()))
        tol = gronwall.HYPOTHESIS_TOL * scale
        f[40:43, 1] = exact[40:43, 1] - 3.0
        f[20:25, 4] = exact[20:25, 4] - 1.2 * tol  # just beyond the tolerance
        f[30:35, 5] = exact[30:35, 5] - 0.8 * tol  # just inside it
        gap = f + s + hist - x
        expected = int(np.sum(gap < -tol))
        assert expected == 1 + 3 + 5
        inst = GronwallInstance(X=TrajectoryBatch(x), F=TrajectoryBatch(f), G=g, S=TrajectoryBatch(s))
        with pytest.raises(HypothesisViolated, match=rf"^{expected} path/time cells "):
            verify_gronwall(inst, [HolderPair.deterministic(0.5)])

    def test_per_path_growth_products_are_the_running_row_products(self):
        g = 0.4 * uniform_matrix(96, 50, 9)
        g[3] = 0.0
        n_list = [9, 0, 4, 4, 1]
        grow = np.empty((50, 10), order="F")
        grow[:, 0] = 1.0
        np.add(1.0, g, out=grow[:, 1:])
        expected = generators.prefix_reduce(grow, n_list, np.multiply)
        got = gronwall._growth_products(g, n_list)
        assert sorted(got) == sorted(expected) == [0, 1, 4, 9]
        for n in expected:
            assert got[n].tobytes() == expected[n].tobytes()
