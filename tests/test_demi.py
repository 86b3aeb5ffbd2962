import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demigronwall.demi import (
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
        family = TestFunctionFamily.default()
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


class TestCheckDemimartingale:
    def test_random_walk_passes(self):
        batch = _batch(GeneratorSpec.random_walk(), 8, 100_000, 101)
        report = check_demimartingale(batch, TestFunctionFamily.default(batch), level=0.999)
        assert report.overall_pass
        assert sum(row["verdict"] == "fail" for row in report.rows) == 0

    def test_random_walk_pass_rate_across_seeds(self):
        # martingales are demimartingales: expect >= 99 of 100 seeds to pass
        spec = GeneratorSpec.random_walk()
        passed = 0
        for seed in range(100):
            batch = _batch(spec, 6, 100_000, seed)
            report = check_demimartingale(batch, TestFunctionFamily.default(batch), level=0.999)
            passed += report.overall_pass
        assert passed >= 99

    def test_two_point_demisub_passes_with_exact_cell(self):
        batch = _batch(GeneratorSpec.two_point(0.3), 2, 100_000, 7)
        family = TestFunctionFamily.default(batch)
        report = check_demimartingale(batch, family, level=0.999, mode="demisub")
        assert report.overall_pass
        cell = next(r for r in report.rows if r["function"] == "const1" and r["j"] == 1)
        # E[(S_2 - S_1) * 1] = 1 - 2p = 0.4 exactly
        assert abs(cell["estimate"] - 0.4) <= 4.0 * cell["stderr"]

    def test_two_point_above_half_fails_on_constant_probe(self):
        batch = _batch(GeneratorSpec.two_point(0.6), 2, 100_000, 7)
        family = TestFunctionFamily((Constant1(),))
        report = check_demimartingale(batch, family, level=0.999, mode="demisub")
        assert not report.overall_pass
        cell = report.rows[0]
        assert abs(cell["estimate"] - (-0.2)) <= 4.0 * cell["stderr"]
        assert cell["verdict"] == "fail"

    def test_errors(self):
        batch = _batch(GeneratorSpec.random_walk(), 4, 10, 1)
        family = TestFunctionFamily.default()
        with pytest.raises(DegenerateBatch):
            check_demimartingale(batch, family)
        big = _batch(GeneratorSpec.random_walk(), 4, 64, 1)
        with pytest.raises(EmptyFamily):
            check_demimartingale(big, TestFunctionFamily((ShiftedIdentityLast(0.0),)), mode="demisub")
        with pytest.raises(InvalidSpec):
            check_demimartingale(big, family, mode="sub")

    @pytest.mark.parametrize("level", [1.5, -0.2, 0.0, 1.0, float("nan")])
    def test_level_outside_the_unit_interval_raises(self, level):
        # ndtri(1.5) is NaN, and no cell can fail against a NaN threshold
        batch = TrajectoryBatch(np.hstack([np.zeros((200, 1)), np.cumsum(-np.ones((200, 5)), axis=1)]))
        family = TestFunctionFamily.default(batch)
        assert not check_demimartingale(batch, family, level=0.999).overall_pass
        with pytest.raises(InvalidSpec):
            check_demimartingale(batch, family, level=level)

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
        batch = _batch(GeneratorSpec.associated(1.0), 5, 60_000, 19).increments()
        family = TestFunctionFamily.default(batch)
        report = check_association(batch, family)
        assert report.overall_pass
        assert len(report.rows) > 0

    def test_disjoint_coordinates_of_independent_signs_near_zero(self):
        batch = _batch(GeneratorSpec.random_walk(), 2, 60_000, 23).increments()
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
