import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demigronwall.demi import TestFunctionFamily, check_demimartingale
from demigronwall import gronwall
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
    discount_weights,
    discounted_transform,
    gronwall_bound,
    maximal_moment_bound,
    neg_inf_mean,
    sup_moment,
    transform_batch,
    verify_gronwall,
    verify_maximal_inequality,
)
from demigronwall.rng import uniform_matrix


def _const_batch(rows, m=1, label="det", starts_at_zero=False):
    vals = np.tile(np.asarray(rows, dtype=float)[None, :], (m, 1))
    return TrajectoryBatch(vals, label=label, starts_at_zero=starts_at_zero)


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


class TestDiscountWeights:
    def test_examples(self):
        assert np.array_equal(discount_weights([0.0, 0.0, 0.0]), [1.0, 1.0, 1.0])
        assert np.allclose(discount_weights([1.0, 1.0]), [0.5, 0.25])
        assert np.allclose(discount_weights([0.5]), [2.0 / 3.0])

    @settings(max_examples=100, deadline=None)
    @given(g=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20))
    def test_positive_and_nonincreasing(self, g):
        c = discount_weights(g)
        assert np.all(c > 0.0)
        assert np.all(np.diff(c) <= 0.0)

    def test_negative_rejected(self):
        with pytest.raises(NegativeWeights):
            discount_weights([0.5, -0.1])


class TestDiscountedTransform:
    def test_zero_growth_is_identity(self):
        s = np.array([0.0, 1.0, -2.0, 4.0])
        assert np.array_equal(discounted_transform(s, np.zeros(3)), s)

    def test_hand_examples(self):
        assert np.allclose(discounted_transform([0.0, 2.0], [1.0]), [0.0, 1.0])
        assert np.allclose(discounted_transform([0.0, 1.0, 3.0], [1.0, 1.0]), [0.0, 0.5, 1.0])

    def test_requires_zero_start_and_nonnegative_growth(self):
        with pytest.raises(NonzeroStart):
            discounted_transform([1.0, 2.0], [0.0])
        with pytest.raises(NegativeWeights):
            discounted_transform([0.0, 1.0], [-0.5])
        with pytest.raises(ShapeMismatch):
            discounted_transform([0.0, 1.0, 2.0], [0.5])

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(st.floats(-5, 5), min_size=1, max_size=15),
        data=st.data(),
    )
    def test_two_forms_agree_on_random_inputs(self, steps, data):
        # FormMismatch inside the call would fail the test
        g = data.draw(
            st.lists(st.floats(0.0, 3.0), min_size=len(steps), max_size=len(steps))
        )
        path = np.concatenate([[0.0], np.cumsum(steps)])
        out = discounted_transform(path, np.asarray(g))
        assert out[0] == 0.0

    def test_transform_preserves_demimartingale_property(self):
        batch = generate_paths(GeneratorSpec.random_walk(), 8, 60_000, seed=29)
        growth = 0.5 * np.ones(8)
        l_batch = transform_batch(batch, growth)
        report = check_demimartingale(l_batch, TestFunctionFamily.default(l_batch), level=0.999)
        assert report.overall_pass


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
        assert gronwall_bound(1.0, np.zeros(4), pair, 4) == 3.0

    def test_deterministic_growth_example(self):
        pair = HolderPair.deterministic(0.5)
        assert abs(gronwall_bound(4.0, np.array([1.0, 1.0]), pair, 2) - 12.0) < 1e-12

    def test_random_growth_with_sup_norm(self):
        # every path has product (1+G_0)(1+G_1) = 4
        g = TrajectoryBatch(np.tile([1.0, 1.0, 0.0], (50, 1)), label="g")
        pair = HolderPair.deterministic(0.5)
        assert abs(gronwall_bound(1.0, g, pair, 2) - 6.0) < 1e-12

    def test_deterministic_form_is_bitwise_identical_to_general_form(self):
        # product-then-power convention shared with the closed-form display
        g = np.array([0.3, 0.7, 0.1, 0.0])
        for p in (0.25, 0.45, 0.8):
            pair = HolderPair.deterministic(p)
            by_hand = (1.0 + 1.0 / (1.0 - p)) * np.prod(1.0 + g) ** p * 2.5 ** p
            assert gronwall_bound(2.5, g, pair, 4) == by_hand

    def test_errors(self):
        pair = HolderPair.deterministic(0.5)
        with pytest.raises(NegativeInput):
            gronwall_bound(-1.0, np.zeros(2), pair, 2)
        with pytest.raises(NegativeWeights):
            gronwall_bound(1.0, np.array([-0.2, 0.0]), pair, 2)


class TestBuildInstance:
    def test_zero_x_gives_positive_part_of_minus_s(self):
        s = TrajectoryBatch(np.array([[0.0, -1.0, 2.0]]), starts_at_zero=True)
        x = TrajectoryBatch(np.zeros((1, 3)))
        inst = build_instance(x, s, np.array([0.5, 0.5]))
        assert np.array_equal(inst.F.values, [[0.0, 1.0, 0.0]])

    def test_constant_x_without_growth(self):
        x = TrajectoryBatch(np.ones((2, 3)))
        s = TrajectoryBatch(np.zeros((2, 3)), starts_at_zero=True)
        inst = build_instance(x, s, np.zeros(2))
        assert np.array_equal(inst.F.values, np.ones((2, 3)))

    def test_hand_example_uses_x0_in_the_sum(self):
        x = TrajectoryBatch(np.array([[0.0, 2.0]]))
        s = TrajectoryBatch(np.array([[0.0, 1.0]]), starts_at_zero=True)
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
        s = TrajectoryBatch(np.zeros((2, 3)), starts_at_zero=True)
        with pytest.raises(NegativeInput):
            build_instance(TrajectoryBatch(-np.ones((2, 3))), s, np.zeros(2))
        with pytest.raises(NegativeInput):
            build_instance(x, s, np.array([-0.1, 0.0]))
        with pytest.raises(ShapeMismatch):
            build_instance(x, TrajectoryBatch(np.zeros((2, 4)), starts_at_zero=True), np.zeros(3))
        with pytest.raises(NonzeroStart):
            build_instance(x, TrajectoryBatch(np.ones((2, 3))), np.zeros(2))


class TestVerifyMaximalInequality:
    def test_all_zero_batch_passes_with_zero_bound(self):
        batch = TrajectoryBatch(np.zeros((100, 5)), starts_at_zero=True)
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
        batch = TrajectoryBatch(np.hstack([np.zeros((200, 1)), drift]), starts_at_zero=True)
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


class TestVerifyGronwall:
    def test_deterministic_instance(self):
        x = TrajectoryBatch(np.ones((1, 2)))
        f = TrajectoryBatch(np.ones((1, 2)))
        s = TrajectoryBatch(np.zeros((1, 2)), starts_at_zero=True)
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
        s = TrajectoryBatch(np.zeros((3, 2)), starts_at_zero=True)
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
            assert row["rhs"] == gronwall_bound(f_mean, inst.G, pair, n)
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
