import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from demigronwall import demi, reporting
from demigronwall.demi import (
    ASSOCIATION_BLOCKS,
    Constant1,
    CoordinateRamp,
    ProductRamp,
    ShiftedIdentityLast,
    TestFunctionFamily,
    check_association,
    check_demimartingale,
    two_point_stats,
)
from demigronwall.errors import (
    DegenerateBatch,
    EmptyFamily,
    InvalidSpec,
    NotNondecreasing,
)
from demigronwall.generators import GeneratorSpec, TrajectoryBatch, generate_paths
from demigronwall.reporting import mean_se, one_sided_verdict


def _batch(spec, n, m, seed):
    return generate_paths(spec, n, m, seed)


def monotonicity_counterexamples(family: TestFunctionFamily, dim, n_pairs, seed) -> int:
    """Count violations of f(s) <= f(s') over random ordered pairs s <= s'."""
    from demigronwall.rng import uniform_matrix

    lo = 8.0 * uniform_matrix(seed, n_pairs, dim) - 4.0
    gap = uniform_matrix(int(seed) + 1, n_pairs, dim)
    hi = lo + 4.0 * gap
    bad = 0
    for f in family.members:
        if f.min_coords > dim:
            continue
        bad += int(np.sum(f.evaluate(lo) > f.evaluate(hi) + 1e-12))
    return bad


class TestFamily:
    def test_members_are_componentwise_nondecreasing(self):
        batch = _batch(GeneratorSpec.random_walk("gauss"), 6, 200, 1)
        family = TestFunctionFamily.default(batch)
        assert monotonicity_counterexamples(family, dim=4, n_pairs=1000, seed=11) == 0

    def test_nonnegative_flags(self):
        family = TestFunctionFamily.default(_batch(GeneratorSpec.random_walk(), 4, 100, 1))
        nonneg = family.nonnegative_members()
        assert all(f.nonnegative for f in nonneg)
        assert any(isinstance(f, ShiftedIdentityLast) for f in family.members)
        assert not any(isinstance(f, ShiftedIdentityLast) for f in nonneg)

    def test_member_parameter_validation(self):
        with pytest.raises(InvalidSpec):
            CoordinateRamp(0, 0.0, 1.0)
        with pytest.raises(InvalidSpec):
            CoordinateRamp(1, 0.0, 0.0)
        with pytest.raises(InvalidSpec):
            ProductRamp((), 1.0)

    def test_evaluations(self):
        pts = np.array([[-1.0, 2.0], [0.5, 0.5]])
        assert np.array_equal(Constant1().evaluate(pts), [1.0, 1.0])
        assert np.allclose(CoordinateRamp(2, 0.0, 1.0).evaluate(pts), [1.0, 0.5])
        assert np.allclose(ProductRamp((0.0, 0.0), 1.0).evaluate(pts), [0.0, 0.25])
        assert np.allclose(ShiftedIdentityLast(1.0).evaluate(pts), [1.0, -0.5])


class TestQuartiles:
    """``demi._quartiles`` against ``np.quantile``, whose bits it keeps."""

    @staticmethod
    def _batches(seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            m, n = int(rng.integers(1, 400)), int(rng.integers(1, 18))
            gauss = rng.standard_normal((m, n))
            yield gauss
            yield np.cumsum(gauss, axis=1)
            yield rng.integers(-3, 4, (m, n)).astype(np.float64)  # many ties
            yield rng.integers(0, 2, (m, n)).astype(np.float64)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bits_equal_np_quantile(self, order):
        for values in self._batches(5 if order == "C" else 6):
            values = np.asarray(values, order=order)
            want = np.quantile(values, [0.25, 0.5, 0.75])
            assert demi._quartiles(values).tobytes() == want.tobytes(), values.shape
            assert values.flags[f"{order}_CONTIGUOUS"]  # the copy was partitioned, not the batch

    def test_a_batch_with_the_sizes_of_the_cli(self):
        # every virtual index with a fractional part, and the six order statistics all distinct
        values = np.asfortranarray(np.random.default_rng(7).standard_normal((50_000, 16)))
        kept = values.copy()
        assert demi._quartiles(values).tobytes() == np.quantile(values, [0.25, 0.5, 0.75]).tobytes()
        assert values.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("value", [-0.0, 0.0, 2.5])
    def test_a_single_value_is_each_quartile_with_its_sign(self, value):
        values = np.array([[value]])
        assert demi._quartiles(values).tobytes() == np.quantile(values, [0.25, 0.5, 0.75]).tobytes()

    def test_select_places_each_order_statistic(self):
        a = np.random.default_rng(8).permutation(1000).astype(np.float64)
        ks = [0, 249, 250, 499, 500, 998, 999]
        demi._select(a, ks)
        assert a[ks].tolist() == [float(k) for k in ks]

    @staticmethod
    def _ranks(n):
        return np.floor((n - 1) * np.array([0.25, 0.5, 0.75])).astype(np.intp)

    LARGE = ("gauss", "walk", "zeros", "heavy", "sorted", "reversed")

    @classmethod
    def _large(cls, kind, order):
        """A 20 000 x 51 batch (over 8 samples long) whose brackets hold their order statistics."""
        rng = np.random.default_rng(cls.LARGE.index(kind))
        values = rng.standard_normal((20_000, 51))
        if kind == "walk":  # the partial sums of a BEM run: a column of exact zeros, spreads growing in time
            values = np.cumsum(values, axis=1)
            values[:, 0] = 0.0
        elif kind == "zeros":  # 3% of the entries, scattered, tie at the median
            values[rng.random(values.shape) < 0.03] = 0.0
        elif kind == "heavy":
            values = rng.standard_cauchy(values.shape)
        elif kind == "sorted":  # the strided sample is then exact
            values = np.sort(values, axis=None).reshape(values.shape, order=order)
        elif kind == "reversed":
            values = np.sort(values, axis=None)[::-1].reshape(values.shape, order=order)
        return np.asarray(values, order=order)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", LARGE)
    def test_brackets_give_the_bits_of_np_quantile(self, kind, order):
        values = self._large(kind, order)
        kept = values.copy(order="K")
        assert demi._bracketed(values, self._ranks(values.size)) is not None
        assert demi._quartiles(values).tobytes() == np.quantile(values, [0.25, 0.5, 0.75]).tobytes()
        assert values.tobytes(order="A") == kept.tobytes(order="A")

    @staticmethod
    def _missed(kind, order):
        """Data whose brackets miss, so the quartiles come from a flat copy."""
        rng = np.random.default_rng(11)
        shape = (20_000, 51)
        n = shape[0] * shape[1]
        flat = rng.standard_normal(n)
        every_sample = np.arange(n) % (n // demi.QUARTILE_SAMPLE) == 0
        if kind == "constant":
            flat[:] = 2.5
        elif kind == "two-valued":
            flat = rng.integers(0, 2, n).astype(np.float64)
        elif kind == "sample-tied":  # every sampled entry is 0: the brackets touch
            flat[every_sample] = 0.0
        elif kind == "sample-shifted":  # the sample sits far above the rest: no rank falls in its bracket
            flat[every_sample] += 10.0
        elif kind == "mass-at-median":  # a fifth of the entries inside the median's bracket, over the cap
            flat[rng.random(n) < 0.2] = 0.0
        elif kind == "short":  # one entry fewer than the sample
            shape = (4681, 7)
            flat = flat[: demi.QUARTILE_SAMPLE - 1]
        elif kind == "strided":  # no contiguous layout
            return np.asarray(flat.reshape(shape), order=order)[:, ::2]
        return flat.reshape(shape, order=order)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "kind", ["constant", "two-valued", "sample-tied", "sample-shifted", "mass-at-median", "short", "strided"]
    )
    def test_a_missed_bracket_falls_back_to_the_flat_copy(self, kind, order):
        values = self._missed(kind, order)
        assert demi._bracketed(values, self._ranks(values.size)) is None
        assert demi._quartiles(values).tobytes() == np.quantile(values, [0.25, 0.5, 0.75]).tobytes()

    def test_the_default_family_copies_no_batch(self):
        batch = TrajectoryBatch(self._large("walk", "F"))
        tracemalloc.start()
        try:
            TestFunctionFamily.default(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sample, a chunk's masks and the entries inside the brackets (0.18 measured); 1.0 with a flat copy
        assert peak < 0.25 * batch.values.nbytes

    def test_the_default_family_takes_its_centres_from_them(self):
        batch = TrajectoryBatch(np.random.default_rng(9).standard_normal((300, 5)))
        q1, q2, q3 = np.quantile(batch.values, [0.25, 0.5, 0.75])
        ramps = [f for f in TestFunctionFamily.default(batch).members if isinstance(f, CoordinateRamp)]
        assert [f.center for f in ramps] == [q1, q2, q3]


class TestCheckDemimartingale:
    def test_random_walk_passes(self):
        batch = _batch(GeneratorSpec.random_walk(), 8, 100_000, 101)
        report = check_demimartingale(batch, TestFunctionFamily.default(batch))
        assert report.overall_pass
        assert sum(row["verdict"] == "fail" for row in report.rows) == 0

    def test_random_walk_pass_rate_across_seeds(self):
        # martingales are demimartingales: expect >= 99 of 100 seeds to pass
        spec = GeneratorSpec.random_walk()
        passed = 0
        for seed in range(100):
            batch = _batch(spec, 6, 100_000, seed)
            report = check_demimartingale(batch, TestFunctionFamily.default(batch))
            passed += report.overall_pass
        assert passed >= 99

    def test_two_point_demisub_passes_with_exact_cell(self):
        batch = _batch(GeneratorSpec.two_point(0.3), 2, 100_000, 7)
        family = TestFunctionFamily.default(batch)
        report = check_demimartingale(batch, family, mode="demisub")
        assert report.overall_pass
        cell = next(r for r in report.rows if r["function"] == "const1" and r["j"] == 1)
        # E[(S_2 - S_1) * 1] = 1 - 2p = 0.4 exactly
        assert abs(cell["estimate"] - 0.4) <= 4.0 * cell["stderr"]

    def test_two_point_above_half_fails_on_constant_probe(self):
        batch = _batch(GeneratorSpec.two_point(0.6), 2, 100_000, 7)
        family = TestFunctionFamily((Constant1(),))
        report = check_demimartingale(batch, family, mode="demisub")
        assert not report.overall_pass
        cell = report.rows[0]
        assert abs(cell["estimate"] - (-0.2)) <= 4.0 * cell["stderr"]
        assert cell["verdict"] == "fail"

    def test_errors(self):
        batch = _batch(GeneratorSpec.random_walk(), 4, 10, 1)
        family = TestFunctionFamily.default(batch)
        with pytest.raises(DegenerateBatch):
            check_demimartingale(batch, family)
        big = _batch(GeneratorSpec.random_walk(), 4, 64, 1)
        with pytest.raises(EmptyFamily):
            check_demimartingale(big, TestFunctionFamily((ShiftedIdentityLast(0.0),)), mode="demisub")
        with pytest.raises(InvalidSpec):
            check_demimartingale(big, family, mode="sub")

    @pytest.mark.parametrize("n_steps", [0, 1])
    def test_fewer_than_two_steps_raise(self, n_steps):
        # steps j = 1..N-1 give no cell below N = 2; E[S_1] = -0.8 must not pass on zero cells
        batch = _batch(GeneratorSpec.two_point(0.9), n_steps, 1000, 1)
        with pytest.raises(DegenerateBatch):
            check_demimartingale(batch, TestFunctionFamily.default(batch))

    @pytest.mark.parametrize(
        "members, mode",
        [((ProductRamp((0.0, 0.0), 1.0),), "demi"), ((CoordinateRamp(3, 0.0, 1.0), ShiftedIdentityLast(0.0)), "demisub")],
    )
    def test_a_step_no_probe_fits_raises_instead_of_passing_on_zero_cells(self, members, mode, monkeypatch):
        # E[S_2 - S_1] = -0.8, but a two-coordinate probe has no cell at j = 1
        batch = _batch(GeneratorSpec.two_point(0.9), 2, 1000, 1)
        for probe in (ProductRamp, CoordinateRamp):
            monkeypatch.setattr(probe, "evaluate", lambda *args: pytest.fail("a cell was computed"))
        with pytest.raises(EmptyFamily, match="j = 1"):
            check_demimartingale(batch, TestFunctionFamily(members), mode=mode)

    def test_uncovered_steps_are_named(self):
        batch = _batch(GeneratorSpec.random_walk(), 6, 200, 3)
        with pytest.raises(EmptyFamily, match=r"j = 1\.\.2"):
            check_demimartingale(batch, TestFunctionFamily((CoordinateRamp(3, 0.0, 1.0),)))
        # a probe that fits every step keeps the check running
        family = TestFunctionFamily((CoordinateRamp(3, 0.0, 1.0), Constant1()))
        rows = check_demimartingale(batch, family).rows
        assert {row["j"] for row in rows} == {1, 2, 3, 4, 5}

    def test_decreasing_walk_fails(self):
        batch = TrajectoryBatch(np.hstack([np.zeros((200, 1)), np.cumsum(-np.ones((200, 5)), axis=1)]))
        assert not check_demimartingale(batch, TestFunctionFamily.default(batch)).overall_pass

    def test_report_serialization(self, tmp_path):
        batch = _batch(GeneratorSpec.random_walk(), 4, 5000, 3)
        report = check_demimartingale(batch, TestFunctionFamily.default(batch))
        out = tmp_path / "demi.csv"
        report.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "j,function,estimate,stderr,z,verdict"
        assert len(lines) == len(report.rows) + 1
        body = report.json_body()
        assert body["overall"] == "pass"
        assert len(body["rows"]) == len(report.rows)


class TestCheckAssociation:
    def test_common_shock_increments_are_associated(self):
        batch = TrajectoryBatch(np.diff(_batch(GeneratorSpec.associated(1.0), 5, 60_000, 19).values, axis=1))
        family = TestFunctionFamily.default(batch)
        report = check_association(batch, family)
        assert report.overall_pass
        assert len(report.rows) > 0

    def test_disjoint_coordinates_of_independent_signs_near_zero(self):
        batch = TrajectoryBatch(np.diff(_batch(GeneratorSpec.random_walk(), 2, 60_000, 23).values, axis=1))
        fam = TestFunctionFamily((CoordinateRamp(1, 0.0, 1.0), CoordinateRamp(2, 0.0, 1.0)))
        report = check_association(batch, fam)
        assert report.overall_pass
        cross = next(r for r in report.rows if r["function"] == "ramp[1;c=0;w=1]|ramp[2;c=0;w=1]")
        assert abs(cross["estimate"]) <= 3.0 * cross["stderr"]

    def test_negative_coupling_fails(self):
        x = np.linspace(-2.0, 2.0, 6000)
        batch = TrajectoryBatch(np.column_stack([x, -x]), label="anti")
        fam = TestFunctionFamily((CoordinateRamp(1, 0.0, 1.0), CoordinateRamp(2, 0.0, 1.0)))
        report = check_association(batch, fam)
        assert not report.overall_pass

    @staticmethod
    def _associated_batch(m):
        return TrajectoryBatch(np.diff(_batch(GeneratorSpec.associated(1.0), 4, m, 29).values, axis=1))

    def test_one_cell_per_unordered_pair_of_distinct_probes(self):
        batch = self._associated_batch(300)
        family = TestFunctionFamily.default(batch)
        names = [f"{f.name}|{g.name}" for f, g in itertools.combinations(family.members, 2)]
        assert [r["function"] for r in check_association(batch, family).rows] == names
        assert len(names) == 15

    def test_cells_match_a_per_pair_covariance_loop(self):
        m = 6007  # not a multiple of ASSOCIATION_BLOCKS: the last block is ragged
        batch = self._associated_batch(m)
        family = TestFunctionFamily.default(batch)
        evals = [f.evaluate(batch.values) for f in family.members]
        bounds = np.linspace(0, m, ASSOCIATION_BLOCKS + 1).astype(int)
        rows = iter(check_association(batch, family).rows)
        for fv, gv in itertools.combinations(evals, 2):
            est = np.cov(fv, gv, ddof=1)[0, 1]
            block_covs = [np.cov(fv[lo:hi], gv[lo:hi], ddof=1)[0, 1] for lo, hi in zip(bounds[:-1], bounds[1:])]
            _, se = mean_se(np.array(block_covs))
            row = next(rows)
            atol = 1e-12 * np.std(fv) * np.std(gv)
            np.testing.assert_allclose(row["estimate"], est, rtol=1e-12, atol=atol)
            np.testing.assert_allclose(row["stderr"], se, rtol=1e-12, atol=atol)

    def test_one_covariance_matrix_per_path_block(self, monkeypatch):
        batch = self._associated_batch(300)
        family = TestFunctionFamily.default(batch)
        calls = []
        cov = np.cov
        monkeypatch.setattr(np, "cov", lambda *a, **k: calls.append(None) or cov(*a, **k))
        check_association(batch, family)
        assert len(calls) == 1 + ASSOCIATION_BLOCKS

    def test_errors(self):
        batch = _batch(GeneratorSpec.random_walk(), 3, 40, 1)
        with pytest.raises(DegenerateBatch):
            check_association(batch, TestFunctionFamily.default(batch))
        big = _batch(GeneratorSpec.random_walk(), 3, 100, 1)
        with pytest.raises(EmptyFamily):
            check_association(big, TestFunctionFamily((Constant1(),)))


class TestTwoPointStats:
    def test_reference_values(self):
        out = two_point_stats(0.3, 0.0, 1.0)
        assert out["demi_expectation"] == 0.7
        assert out["cond_mean_given_minus1"] == -2.0

    def test_constant_probe_at_half(self):
        assert two_point_stats(0.5, 1.0, 1.0)["demi_expectation"] == 0.0

    def test_signed_probe(self):
        assert two_point_stats(0.5, -1.0, 1.0)["demi_expectation"] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(0.0, 0.5),
        lo=st.floats(0.0, 5.0),
        gap=st.floats(0.0, 5.0),
    )
    def test_nonnegative_for_admissible_probes(self, p, lo, gap):
        out = two_point_stats(p, lo, lo + gap)
        assert out["demi_expectation"] >= 0.0
        assert out["cond_mean_given_minus1"] < -1.0

    def test_errors(self):
        with pytest.raises(InvalidSpec):
            two_point_stats(1.2, 0.0, 1.0)
        with pytest.raises(NotNondecreasing):
            two_point_stats(0.3, 1.0, 0.0)


def test_every_cell_is_the_one_sided_rule_at_the_one_z_level():
    assert reporting.Z_SLACK == float(ndtri(0.999))
    # passing and failing cells of both checks
    walk = _batch(GeneratorSpec.random_walk(), 6, 2000, 5)
    above_half = _batch(GeneratorSpec.two_point(0.6), 2, 2000, 7)
    increments = TrajectoryBatch(np.diff(_batch(GeneratorSpec.associated(1.0), 4, 2000, 6).values, axis=1))
    x = np.linspace(-2.0, 2.0, 600)
    anti = TrajectoryBatch(np.column_stack([x, -x]))
    rows = []
    for batch, mode in ((walk, "demi"), (above_half, "demisub")):
        rows += check_demimartingale(batch, TestFunctionFamily.default(batch), mode=mode).rows
    for batch in (increments, anti):
        rows += check_association(batch, TestFunctionFamily.default(batch)).rows
    assert {row["verdict"] for row in rows} == {"pass", "fail"}
    for row in rows:
        want = one_sided_verdict(0.0, 0.0, row["estimate"], row["stderr"], reporting.Z_SLACK)["verdict"]
        assert row["verdict"] == want
