import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, erfcx
from scipy.special import gamma as scipy_gamma

from demigronwall import fractional, generators
from demigronwall.errors import (
    AlphaOutOfRange,
    BetaOutOfRange,
    FormMismatch,
    InvalidSpec,
    NegativeInput,
    SeriesNoConvergence,
    ShapeMismatch,
)
from demigronwall.fractional import (
    FractionalModel,
    caputo_l1_forms,
    effective_rate,
    kernel_mass,
    l1_a,
    l1_b_row,
    mittag_leffler,
    ml_growth_factor,
    multi_term_table,
    verify_fractional_gronwall,
)
from demigronwall.generators import TrajectoryBatch, associated_increment_matrix, associated_increments
from demigronwall.gronwall import HolderPair, holder_bound, sup_moment
from demigronwall.reporting import mean_se, one_sided_verdict
from demigronwall.rng import uniform_matrix

# math.gamma is the oracle implementation, independent of the scipy-backed
# prefactors used inside the package
G = math.gamma


class TestL1Coefficients:
    @pytest.mark.parametrize("beta", [0.1, 0.4, 0.5, 0.9])
    def test_a0_is_exactly_one(self, beta):
        assert l1_a(beta, 0) == 1.0

    def test_direct_values(self):
        assert abs(l1_a(0.5, 1) - (math.sqrt(2.0) - 1.0)) < 1e-15
        assert abs(l1_a(0.5, 3) - (2.0 - math.sqrt(3.0))) < 1e-15

    def test_strictly_decreasing_to_zero(self):
        for beta in (0.1, 0.5, 0.9):
            a = l1_a(beta, np.arange(1001))
            assert np.all(np.diff(a) < 0.0)
            assert a[1000] < a[10]
            assert np.all(a > 0.0)

    def test_beta_range(self):
        with pytest.raises(BetaOutOfRange):
            l1_a(1.0, 3)
        with pytest.raises(BetaOutOfRange):
            l1_b_row(0.0, 3)

    def test_b_row_n1(self):
        assert np.array_equal(l1_b_row(0.37, 1), [1.0, -1.0])

    def test_b_row_n2(self):
        a1 = math.sqrt(2.0) - 1.0
        b = l1_b_row(0.5, 2)
        assert np.allclose(b, [1.0, a1 - 1.0, -a1], atol=1e-15)
        assert abs(b.sum()) < 1e-15

    @settings(max_examples=120, deadline=None)
    @given(beta=st.floats(0.01, 0.99), n=st.integers(1, 120))
    def test_b_rows_sum_to_zero(self, beta, n):
        assert abs(l1_b_row(beta, n).sum()) <= 1e-12


class TestCaputoL1:
    def test_constant_sequence_vanishes(self):
        for c in (0.0, 1.0, -7.5, 1e6):
            delta_form, direct_form = caputo_l1_forms(np.full(6, c), 0.3, 0.25, 5)
            assert delta_form == 0.0
            assert abs(direct_form) <= 1e-12 * max(1.0, abs(c))

    def test_one_step_example(self):
        for got in caputo_l1_forms([0.0, 1.0], 0.5, 1.0, 1):
            assert abs(got - 1.0 / G(1.5)) < 1e-14

    def test_linear_sequence_example(self):
        for got in caputo_l1_forms([0.0, 1.0, 2.0], 0.5, 1.0, 2):
            assert abs(got - math.sqrt(2.0) / G(1.5)) < 1e-14

    def test_two_forms_agree_on_random_sequences(self):
        betas = (0.1, 0.3, 0.5, 0.7, 0.9)
        u = 4.0 * uniform_matrix(2024, 1000, 13) - 2.0
        for i in range(1000):
            beta = betas[i % len(betas)]
            a_form, b_form = caputo_l1_forms(u[i], beta, 0.1, 12)
            assert abs(a_form - b_form) <= 1e-12 * max(1.0, abs(a_form), abs(b_form))

    def test_argument_validation(self):
        with pytest.raises(InvalidSpec):
            caputo_l1_forms([0.0, 1.0], 0.5, 0.0, 1)
        with pytest.raises(InvalidSpec):
            caputo_l1_forms([0.0, 1.0], 0.5, 1.0, 0)
        with pytest.raises(ShapeMismatch):
            caputo_l1_forms([0.0, 1.0], 0.5, 1.0, 3)
        with pytest.raises(InvalidSpec):
            caputo_l1_forms([0.0, math.nan], 0.5, 1.0, 1)


class TestMultiTerm:
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 17, 64])
    def test_kernel_is_the_toeplitz_matrix_of_the_l1_coefficients(self, n, beta):
        from scipy.linalg import toeplitz

        kernel = fractional._l1_kernel(beta, n)
        assert kernel.flags.c_contiguous
        assert kernel.tobytes() == toeplitz(l1_a(beta, np.arange(n)), np.zeros(n)).tobytes()

    def test_single_term_equals_caputo(self):
        model = FractionalModel(betas=(0.4,), q=(1.0,), tau=0.2, n_steps=6)
        f = np.array([0.0, 0.5, 0.3, 0.9, 0.1, 0.4, 0.2])
        row = multi_term_table(model, f[None, :])[0]
        for n in range(1, 7):
            assert abs(row[n - 1] - caputo_l1_forms(f, 0.4, 0.2, n)[0]) < 1e-14

    def test_constant_sequence_vanishes(self):
        model = FractionalModel(betas=(0.3, 0.7), q=(1.0, 2.0), tau=0.5, n_steps=4)
        table = multi_term_table(model, np.full((3, 5), [[3.3], [-1e6], [0.0]]))
        assert np.array_equal(table, np.zeros((3, 4)))

    def test_two_term_step_one_against_gamma_oracle(self):
        model = FractionalModel(betas=(0.3, 0.7), q=(1.0, 2.0), tau=1.0, n_steps=1)
        got = multi_term_table(model, [[0.0, 1.0]])[0, 0]
        want = 1.0 / G(1.7) + 2.0 / G(1.3)  # ~3.329032
        assert abs(got - want) < 1e-12

    def test_table_matches_scalar_operator(self):
        model = FractionalModel(betas=(0.3, 0.7), q=(1.0, 2.0), tau=0.1, n_steps=8)
        vals = 2.0 * uniform_matrix(5, 40, 9)
        table = multi_term_table(model, vals)
        for r in (0, 17, 39):
            for n in (1, 4, 8):
                want = sum(w * caputo_l1_forms(vals[r], beta, 0.1, n)[0] for beta, w in zip(model.betas, model.q))
                assert abs(table[r, n - 1] - want) < 1e-10

    def test_forms_are_checked_in_every_path_block(self, monkeypatch):
        # only the last row, in the fourth path block, is nonzero
        model = FractionalModel(betas=(0.3, 0.7), q=(1.0, 2.0), tau=0.1, n_steps=8)
        vals = np.zeros((3 * (fractional.BLOCK_ENTRIES // 9) + 5, 9))
        vals[-1] = 2.0 * uniform_matrix(6, 1, 9)[0]
        assert np.any(multi_term_table(model, vals)[-1] != 0.0)
        exact_b_row = fractional.l1_b_row

        def perturbed(beta, n):
            b = exact_b_row(beta, n)
            b[0] += 1e-6
            return b

        monkeypatch.setattr(fractional, "l1_b_row", perturbed)
        with pytest.raises(FormMismatch):
            multi_term_table(model, vals)
        x, y = TestFractionalGrid._data()
        with pytest.raises(FormMismatch):
            verify_fractional_gronwall(TestFractionalGrid.MODEL, x, y, TestFractionalGrid.PAIRS)

    def test_model_validation(self):
        with pytest.raises(InvalidSpec):
            FractionalModel(betas=(0.7, 0.3), q=(1.0, 1.0), tau=0.1, n_steps=4)
        with pytest.raises(InvalidSpec):
            FractionalModel(betas=(0.5,), q=(-1.0,), tau=0.1, n_steps=4)
        with pytest.raises(BetaOutOfRange):
            FractionalModel(betas=(1.5,), q=(1.0,), tau=0.1, n_steps=4)
        with pytest.raises(InvalidSpec):
            FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=4, lambda1=-1.0)

    @pytest.mark.parametrize(
        "bad", [{"lambda1": math.nan}, {"lambda2": math.nan}, {"tau": math.inf}, {"tau": math.nan}]
    )
    def test_model_rejects_non_finite_constants(self, bad):
        args = dict(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=4) | bad
        with pytest.raises(InvalidSpec):
            FractionalModel(**args)


class _Product:
    """Stands in for a kernel's transpose: any matrix times it is a copy of ``value``."""

    __array_ufunc__ = None  # so that ``matrix @ product`` calls ``__rmatmul__``

    def __init__(self, value):
        self.value = value

    @property
    def T(self):
        return self

    def __rmatmul__(self, left):
        return self.value.copy()


class TestTableBits:
    """The table keeps the bits of zeros plus one whole-matrix product per order."""

    @staticmethod
    def _sum_of_products(model, x, kernel=fractional._l1_kernel):
        out = np.zeros((x.shape[0], model.n_steps))
        diffs = np.diff(x, axis=1)
        for beta, w in zip(model.betas, model.q):
            out += w * fractional._prefactor(beta, model.tau) * diffs @ kernel(beta, model.n_steps).T
        return out

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("betas, q", [((0.5,), (1.0,)), ((0.3, 0.7), (1.0, 2.0))])
    def test_whole_products_keep_their_bits(self, betas, q, order):
        model = FractionalModel(betas=betas, q=q, tau=0.1, n_steps=16)
        x = np.array(associated_increment_matrix(1.0, 17, 3000, seed=41) ** 2, order=order)
        x[:4] = 0.0
        x[4:8, 3:] = -0.0  # -0.0 differences
        assert multi_term_table(model, x).tobytes() == self._sum_of_products(model, x).tobytes()

    @pytest.mark.parametrize("betas, q", [((0.5,), (1.0,)), ((0.3, 0.7), (1.0, 2.0))])
    def test_a_negative_zero_product_becomes_zero(self, betas, q, monkeypatch):
        # a BLAS product need not give -0.0 for any input, so stand-in products carry it
        model = FractionalModel(betas=betas, q=q, tau=0.1, n_steps=3)
        tiny = np.array([[-0.0, 0.0, -0.0], [-0.0, 1e-300, -1e-300]])
        products = {beta: tiny * (r + 1) for r, beta in enumerate(betas)}
        monkeypatch.setattr(fractional, "_l1_kernel", lambda beta, n: _Product(products[beta]))
        x = np.zeros((2, 4))  # the direct form is 0, within the tolerance of the tiny products
        table = multi_term_table(model, x)
        expected = self._sum_of_products(model, x, lambda beta, n: _Product(products[beta]))
        assert table.tobytes() == expected.tobytes()
        assert not np.signbit(table[0]).any()

    @pytest.mark.parametrize("betas, q", [((0.5,), (1.0,)), ((0.3, 0.7), (1.0, 2.0))])
    def test_peak_memory_is_the_table_and_the_differences(self, betas, q):
        # the differences, scaled in place for the last order, the table and, for each earlier
        # order, one scaled copy; F is then written into the table
        model = FractionalModel(betas=betas, q=q, tau=0.1, n_steps=16, lambda1=0.5, lambda2=0.5)
        x = TrajectoryBatch(associated_increment_matrix(1.0, 17, 20_000, seed=42) ** 2)
        y = associated_increment_matrix(1.0, 16, 20_000, seed=43)
        batch = x.values.nbytes
        tracemalloc.start()
        try:
            verify_fractional_gronwall(model, x, y, [HolderPair.deterministic(0.5)], [8, 16])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (len(betas) + 1) * batch


class TestMittagLeffler:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0, 2.5])
    def test_at_zero(self, alpha):
        assert mittag_leffler(alpha, 0.0) == 1.0

    def test_reduces_to_exponential(self):
        for z in np.linspace(0.0, 20.0, 41):
            got = mittag_leffler(1.0, float(z))
            assert abs(got - math.exp(z)) <= 1e-10 * math.exp(z)

    def test_half_order_against_erfc_identity(self):
        # E_{1/2}(z) = exp(z^2) erfc(-z)
        for z in (0.5, 1.0, 2.0):
            want = math.exp(z * z) * erfc(-z)
            assert abs(mittag_leffler(0.5, z) - want) <= 1e-9 * want

    def test_monotone_in_z_and_in_inverse_alpha(self):
        zs = np.linspace(0.0, 5.0, 11)
        vals = [mittag_leffler(0.7, float(z)) for z in zs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        alphas = (0.3, 0.5, 0.8, 1.0, 1.5)
        at_two = [mittag_leffler(a, 2.0) for a in alphas]
        assert all(x > y for x, y in zip(at_two, at_two[1:]))

    def test_negative_argument_converges(self):
        val = mittag_leffler(0.8, -3.0)
        assert 0.0 < val < 1.0

    @pytest.mark.parametrize(
        "alpha, z, want",
        [(1.0, z, math.exp(z)) for z in (-3.0, -1.0, -0.5, 0.5, 1.0, 5.0, 20.0)]
        + [(0.5, z, erfcx(-z)) for z in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0)]
        + [(2.0, z, math.cosh(math.sqrt(z))) for z in (0.5, 1.0, 10.0, 50.0)]
        + [(2.0, z, math.cos(math.sqrt(-z))) for z in (-1.0, -4.0, -10.0, -30.0)],
    )
    def test_closed_form_oracles(self, alpha, z, want):
        # E_1 = exp, E_1/2(z) = erfcx(-z), E_2(z) = cosh(sqrt z) or cos(sqrt(-z))
        assert abs(mittag_leffler(alpha, z) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("alpha, z", [(0.5, -6.0), (0.5, -10.0), (1.0, -20.0)])
    def test_cancellation_raises_instead_of_a_wrong_value(self, alpha, z):
        # the plain series returns 19.2, -1.25e29 and 5.2e-7 here
        # (true values 0.0928, 0.0561 and 2.06e-9)
        with pytest.raises(SeriesNoConvergence):
            mittag_leffler(alpha, z)

    def test_guards(self):
        with pytest.raises(AlphaOutOfRange):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(SeriesNoConvergence):
            mittag_leffler(0.5, 200.0)
        with pytest.raises(SeriesNoConvergence):
            mittag_leffler(0.1, 90.0)  # value overflows a double

    def test_nan_argument_fails_the_guard_before_any_term(self, monkeypatch):
        # a NaN compares false with the guard; no term of the series may be summed
        monkeypatch.setattr(fractional, "gammaln", None)
        with pytest.raises(SeriesNoConvergence, match="guard"):
            mittag_leffler(0.5, math.nan)


class TestRateAndKernelMass:
    def test_effective_rate_examples(self):
        assert effective_rate(1.0, 0.0, 0.3) == 1.0
        want = 1.0 / (2.0 - math.sqrt(2.0))
        assert abs(effective_rate(0.0, 1.0, 0.5) - want) < 1e-15
        assert abs(effective_rate(1.0, 1.0, 0.5) - (1.0 + want)) < 1e-15
        with pytest.raises(NegativeInput):
            effective_rate(-0.1, 0.0, 0.5)
        with pytest.raises(NegativeInput):
            effective_rate(math.nan, 0.0, 0.5)

    def test_kernel_mass_single_term_examples(self):
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=1.0, n_steps=4)
        assert abs(kernel_mass(model, 1) - 1.0 / G(1.5)) < 1e-14
        assert abs(kernel_mass(model, 2) - math.sqrt(2.0) / G(1.5)) < 1e-14

    def test_kernel_mass_strictly_increasing(self):
        model = FractionalModel(betas=(0.3, 0.7), q=(0.5, 2.0), tau=0.2, n_steps=30)
        vals = [kernel_mass(model, k) for k in range(1, 31)]
        assert all(v > 0.0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestFractionalGronwallBound:
    """:func:`holder_bound` with the Mittag-Leffler factor as the growth weight."""

    def test_zero_terms_give_zero(self):
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=10)
        pair = HolderPair.deterministic(0.5)
        assert holder_bound(pair, ml_growth_factor(model, 10), 0.0, 0.0) == (0.0, 0.0)

    def test_zero_rate_gives_factor_two(self):
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=10)
        pair = HolderPair.deterministic(0.5)
        assert ml_growth_factor(model, 10) == 2.0
        assert ml_growth_factor(model, 0) == 2.0
        got, _ = holder_bound(pair, ml_growth_factor(model, 10), 0.4 + 0.6, 0.0)
        assert abs(got - 3.0 * 2.0 ** 0.5 * 1.0 ** 0.5) < 1e-14

    def test_negative_step_index_raises(self):
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=10, lambda1=1.0)
        with pytest.raises(InvalidSpec):
            ml_growth_factor(model, -1)

    def test_unit_rate_example_against_erfc_oracle(self):
        # t_n = 1, lambda = 1: bound = 3 (2 E_{1/2}(2))^{1/2}, E_{1/2}(2) = e^4 erfc(-2)
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=10, lambda1=1.0)
        pair = HolderPair.deterministic(0.5)
        got, _ = holder_bound(pair, ml_growth_factor(model, 10), 0.5 + 0.5, 0.0)
        want = 3.0 * math.sqrt(2.0 * math.exp(4.0) * erfc(-2.0))
        assert abs(got - want) <= 1e-9 * want

    def test_single_order_collapse_matches_inlined_formula(self):
        model = FractionalModel(betas=(0.6,), q=(2.0,), tau=0.2, n_steps=8, lambda1=0.3, lambda2=0.4)
        p = 0.4
        pair = HolderPair.deterministic(p)
        n = 8
        lam = 0.3 + 0.4 / (2.0 - 2.0 ** (1.0 - 0.6))
        t = n * 0.2
        ml = 2.0 * mittag_leffler(0.6, 2.0 * lam * t ** 0.6 / 2.0)
        inlined = (1.0 + 1.0 / (1.0 - p)) * ml ** p * (0.7 + 1.3) ** p
        assert abs(holder_bound(pair, ml_growth_factor(model, n), 0.7 + 1.3, 0.0)[0] - inlined) < 1e-12

    def test_random_factor_batch_norms(self):
        # a sample of factors: the mu = inf norm is the sample maximum, mu = 2 a plug-in mean
        vals = np.array([2.0, 4.0, 6.0])
        inf_pair = HolderPair.deterministic(0.5)
        assert abs(holder_bound(inf_pair, vals, 1.0, 0.0)[0] - 3.0 * 6.0 ** 0.5) < 1e-14
        two_pair = HolderPair(2.0, 2.0, 0.25)
        want = two_pair.prefactor * float(np.mean(vals ** 0.5)) ** 0.5
        assert abs(holder_bound(two_pair, vals, 1.0, 0.0)[0] - want) < 1e-14

    def test_negative_terms_rejected(self):
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=10)
        with pytest.raises(NegativeInput):
            holder_bound(HolderPair.deterministic(0.5), ml_growth_factor(model, 10), -1.0, 0.0)


class TestVerifyFractionalGronwall:
    def test_zero_x_passes_with_zero_lhs(self):
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=8, lambda1=0.5)
        x = TrajectoryBatch(np.zeros((200, 9)))
        y = associated_increment_matrix(1.0, 8, 200, seed=5)
        report = verify_fractional_gronwall(model, x, y, [HolderPair.deterministic(0.5)])
        assert [row["n"] for row in report.rows] == [8]
        assert report.rows[0]["lhs"] == 0.0
        assert report.overall_pass

    def test_constant_x_with_zero_noise(self):
        # operator of a constant vanishes, so F = 0 and only the x0 term remains
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=10)
        x = TrajectoryBatch(np.ones((50, 11)))
        y = np.zeros((50, 10))
        report = verify_fractional_gronwall(model, x, y, [HolderPair.deterministic(0.5)], [10])
        row = report.rows[0]
        assert row["lhs"] == 1.0
        c = 0.1 ** 0.5 / G(1.5) * kernel_mass(model, 10)
        want_rhs = 3.0 * 2.0 ** 0.5 * c ** 0.5
        assert abs(row["rhs"] - want_rhs) < 1e-12
        assert row["verdict"] == "pass"

    def test_monte_carlo_instances_pass(self):
        model = FractionalModel(betas=(0.3, 0.7), q=(1.0, 2.0), tau=0.1, n_steps=16,
                                lambda1=0.5, lambda2=0.5)
        x_inc = associated_increment_matrix(1.0, 17, 5000, seed=9)
        x = TrajectoryBatch(x_inc ** 2, label="x")
        y = associated_increment_matrix(1.0, 16, 5000, seed=10)
        report = verify_fractional_gronwall(
            model, x, y, [HolderPair.deterministic(0.5), HolderPair(2.0, 2.0, 0.25)], [8, 16]
        )
        assert len(report.rows) == 4
        assert report.overall_pass, report.rows

    @pytest.mark.parametrize("scale", [1e5, 1e6])
    def test_large_noise_passes_the_hypothesis_by_construction(self, scale):
        # F = (D X - linear)^+ meets the hypothesis exactly; at this noise scale the rounding
        # in F + linear - D exceeds any tolerance taken from the scale of D
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=16, lambda1=0.5, lambda2=0.5)
        x = TrajectoryBatch(associated_increment_matrix(1.0, 17, 2000, seed=21) ** 2)
        y = scale * associated_increment_matrix(1.0, 16, 2000, seed=22)
        report = verify_fractional_gronwall(model, x, y, [HolderPair.deterministic(0.5)])
        assert report.checks == {"fractional_hypothesis_holds[n=16,p=0.5,mu=inf]": True}
        assert report.overall_pass, report.rows

    def test_shape_and_sign_validation(self):
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=8)
        x = TrajectoryBatch(np.zeros((20, 9)))
        with pytest.raises(ShapeMismatch):
            verify_fractional_gronwall(model, x, np.zeros((20, 5)), [HolderPair.deterministic(0.5)])
        with pytest.raises(NegativeInput):
            verify_fractional_gronwall(
                model, TrajectoryBatch(-np.ones((20, 9))), np.zeros((20, 8)),
                [HolderPair.deterministic(0.5)],
            )


    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_y_raises_invalid_spec(self, bad):
        # +inf would be clamped out of F, -inf and NaN would reach the plug-in mean
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=8, lambda1=0.5)
        x = TrajectoryBatch(associated_increment_matrix(1.0, 9, 200, seed=5) ** 2)
        y = associated_increment_matrix(1.0, 8, 200, seed=6)
        y[17, 3] = bad
        with pytest.raises(InvalidSpec, match="non-finite"):
            verify_fractional_gronwall(model, x, y, [HolderPair.deterministic(0.5)])

    @pytest.mark.parametrize("form", ["held", "generated"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_y_batch_raises_invalid_spec_in_the_walk(self, monkeypatch, bad, form):
        # a generated batch's columns are checked as the F walk reads them, after the table is built;
        # a batch that holds its values checked them when it was made, and the walk does not again
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=8, lambda1=0.5)
        x = TrajectoryBatch(associated_increment_matrix(1.0, 9, 200, seed=5) ** 2)
        y = associated_increment_matrix(1.0, 8, 200, seed=6)
        y[17, 3] = bad
        if form == "held":
            with pytest.raises(InvalidSpec, match="non-finite"):
                TrajectoryBatch(y)
            return
        batch = TrajectoryBatch._generated(200, 7, functools.partial(generators._column_views, y), "bad")
        tables = []
        monkeypatch.setattr(fractional, "multi_term_table", lambda *args: tables.append(1) or multi_term_table(*args))
        with pytest.raises(InvalidSpec, match="Y contains non-finite"):
            verify_fractional_gronwall(model, x, batch, [HolderPair.deterministic(0.5)])
        assert tables == [1]

    @pytest.mark.parametrize("form", ["array", "held batch", "generated batch read before"])
    def test_the_walk_checks_no_y_that_holds_its_values(self, monkeypatch, form):
        # an array is wrapped in a held batch, checked once when it is made, and so is a generated
        # batch's values when first read: the walk reads their columns unchecked
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=8, lambda1=0.5)
        x = TrajectoryBatch(associated_increment_matrix(1.0, 9, 200, seed=5) ** 2)
        y = associated_increment_matrix(1.0, 8, 200, seed=6)
        forms = {
            "array": lambda: y,
            "held batch": lambda: TrajectoryBatch(y),
            "generated batch read before": lambda: associated_increments(1.0, 8, 200, seed=6),
        }
        batch = forms[form]()
        if form == "generated batch read before":
            batch.values
        checked = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda v: checked.append(v.shape) or isfinite(v))
        verify_fractional_gronwall(model, x, batch, [HolderPair.deterministic(0.5)])
        assert (200,) not in checked

    def test_every_form_of_y_writes_the_same_bytes(self, tmp_path):
        model = FractionalModel(betas=(0.3, 0.7), q=(1.0, 2.0), tau=0.1, n_steps=16, lambda1=0.5, lambda2=0.5)
        x = TrajectoryBatch(associated_increment_matrix(1.0, 17, 3000, seed=41) ** 2)
        y = associated_increment_matrix(1.0, 16, 3000, seed=42)
        generated = associated_increments(1.0, 16, 3000, seed=42)
        forms = {
            "array": y,
            "C-order array": np.ascontiguousarray(y),
            "held batch": TrajectoryBatch(y),
            "generated batch": generated,
        }
        pairs = [HolderPair.deterministic(0.5), HolderPair(2.0, 2.0, 0.25), HolderPair.deterministic(0.25)]
        written = {}
        for name, form in forms.items():
            report = verify_fractional_gronwall(model, x, form, pairs, [16, 1, 8])
            report.to_csv(tmp_path / "cases.csv")
            written[name] = ((tmp_path / "cases.csv").read_bytes(), json.dumps(report.json_body(), sort_keys=True))
        assert all(out == written["array"] for out in written.values())
        assert generated._values is None  # its columns were drawn as the walk read them

    def test_a_y_batch_not_aligned_to_the_model_raises_shape_mismatch(self):
        model = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=8)
        x = TrajectoryBatch(np.zeros((20, 9)))
        for y in (associated_increments(1.0, 7, 20, seed=1), associated_increments(1.0, 8, 21, seed=1)):
            with pytest.raises(ShapeMismatch):
                verify_fractional_gronwall(model, x, y, [HolderPair.deterministic(0.5)])


class TestWholeStepIndices:
    MODEL = FractionalModel(betas=(0.5,), q=(1.0,), tau=0.1, n_steps=4, lambda1=1.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda model: l1_b_row(0.5, 2.5),
            lambda model: caputo_l1_forms([0.0, 1.0, 2.0, 3.0], 0.5, 0.1, 2.5),
            lambda model: kernel_mass(model, 2.5),
            lambda model: ml_growth_factor(model, 2.5),
        ],
        ids=["l1_b_row", "caputo_l1_forms", "kernel_mass", "ml_growth_factor"],
    )
    def test_a_fractional_step_index_raises(self, call):
        with pytest.raises(InvalidSpec, match="whole number"):
            call(self.MODEL)


class TestFractionalGrid:
    MODEL = FractionalModel(betas=(0.3, 0.7), q=(1.0, 2.0), tau=0.1, n_steps=16, lambda1=0.5, lambda2=0.5)
    PAIRS = [HolderPair.deterministic(0.25), HolderPair(2.0, 2.0, 0.25), HolderPair.deterministic(0.5)]
    N_LIST = [16, 1, 8]

    @staticmethod
    def _data():
        x = TrajectoryBatch(associated_increment_matrix(1.0, 17, 4000, seed=31) ** 2, label="x")
        return x, associated_increment_matrix(1.0, 16, 4000, seed=32)

    def test_rows_are_pair_major_and_carry_the_per_cell_bits(self):
        model = self.MODEL
        x, y = self._data()
        report = verify_fractional_gronwall(model, x, y, self.PAIRS, self.N_LIST)
        cells = [(pair, n) for pair in self.PAIRS for n in self.N_LIST]
        assert [(row["p"], row["mu"], row["n"]) for row in report.rows] == [(q.p, q.mu, n) for q, n in cells]
        # the reverse-constructed F and the plug-in terms, as the bound defines them
        linear = y + model.lambda1 * x.values[:, 1:] + model.lambda2 * x.values[:, :-1]
        f = np.maximum(0.0, multi_term_table(model, x.values) - linear)
        c = 1.0 / (model.q_max * scipy_gamma(1.0 + model.beta_max))
        for (pair, n), row in zip(cells, report.rows):
            assert (row["lhs"], row["lhs_se"]) == sup_moment(x, pair.p, n, first=1)
            x0_term = float(np.mean(model.tau ** model.beta_max * c * kernel_mass(model, n) * x.values[:, 0]))
            f_term = float(np.mean(model.time(n) ** model.beta_max * c * f[:, :n].max(axis=1)))
            assert row["rhs"] == holder_bound(pair, ml_growth_factor(model, n), x0_term + f_term, 0.0)[0]
        assert set(report.checks) == {
            f"fractional_hypothesis_holds[n={n},p={q.p:g},mu={q.mu:g}]" for q, n in cells
        }
        assert report.overall_pass, report.rows

    def test_end_points_match_the_per_cell_formula(self):
        model = self.MODEL
        x, y = self._data()
        n_list = [1, model.n_steps]
        report = verify_fractional_gronwall(model, x, y, self.PAIRS, n_list)
        linear = y + model.lambda1 * x.values[:, 1:] + model.lambda2 * x.values[:, :-1]
        f = np.maximum(0.0, multi_term_table(model, x.values) - linear)
        c = 1.0 / (model.q_max * scipy_gamma(1.0 + model.beta_max))
        rows = iter(report.rows)
        for pair in self.PAIRS:
            for n in n_list:
                lhs, lhs_se = sup_moment(x, pair.p, n, first=1)
                x0_mean, x0_se = mean_se(model.tau ** model.beta_max * c * kernel_mass(model, n) * x.values[:, 0])
                f_mean, f_se = mean_se(model.time(n) ** model.beta_max * c * f[:, :n].max(axis=1))
                rhs, rhs_se = holder_bound(pair, ml_growth_factor(model, n), x0_mean + f_mean, math.hypot(x0_se, f_se))
                row = next(rows)
                assert (row["n"], row["lhs"], row["lhs_se"], row["rhs"]) == (n, lhs, lhs_se, rhs)
                assert row["margin"] == one_sided_verdict(lhs, lhs_se, rhs, rhs_se)["margin"]

    def test_bad_grid_raises_before_any_cell(self, monkeypatch):
        x, y = self._data()

        def no_table(*args, **kwargs):
            raise AssertionError("the operator table was built before the grid was checked")

        monkeypatch.setattr(fractional, "multi_term_table", no_table)
        with pytest.raises(ShapeMismatch):
            verify_fractional_gronwall(self.MODEL, x, y, self.PAIRS, [8, 0])
        with pytest.raises(ShapeMismatch):
            verify_fractional_gronwall(self.MODEL, x, y, self.PAIRS, [17])
        with pytest.raises(InvalidSpec):
            verify_fractional_gronwall(self.MODEL, x, y, [], [8])
        with pytest.raises(InvalidSpec):
            verify_fractional_gronwall(self.MODEL, x, y, self.PAIRS, [])

    @pytest.mark.parametrize("n_list", [[2.5], [1, np.float64(7.5)], ["8"]])
    def test_a_fractional_time_index_raises_before_any_cell(self, monkeypatch, n_list):
        x, y = self._data()
        monkeypatch.setattr(fractional, "multi_term_table", lambda *args: pytest.fail("the table was built"))
        with pytest.raises(InvalidSpec, match="whole number"):
            verify_fractional_gronwall(self.MODEL, x, y, self.PAIRS, n_list)
