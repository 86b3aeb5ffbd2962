import math

import numpy as np
import pytest
from scipy.optimize import brentq

from demigronwall import bem
from demigronwall.bem import (
    BemConfig,
    SdeModel,
    apriori_moment_bound,
    bounded_diffusion_model,
    coercivity_probe,
    frozen_model,
    linear_model,
    noise_terms,
    ou_model,
    simulate_bem,
    sup_norm_estimate,
    verify_apriori_bound,
    z_sequence,
)
from demigronwall.errors import (
    DegenerateBatch,
    HGridViolation,
    InvalidSpec,
    NewtonNonConvergence,
    POutOfRange,
    ShapeMismatch,
    StepBoundViolation,
    StepTooLarge,
)


def _one_step(model, x0, h):
    """One implicit step of one path through :func:`simulate_bem`."""
    cfg = BemConfig(h=h, t_horizon=h, h0=max(0.5, 2.0 * h), x0=x0)
    return simulate_bem(model, cfg, seed=1, n_paths=1)


class TestBemStep:
    def test_linear_drift_closed_form(self):
        # y' = y / (1 - h A) for f(x) = A x, A = -1
        got = _one_step(ou_model(1.0, 0.0), [1.0], 0.5).paths[0, 1]
        assert abs(got[0] - 1.0 / 1.5) < 1e-12

    def test_zero_drift_is_explicit(self):
        model = SdeModel(
            d=1, m=1,
            drift=lambda y: np.zeros_like(y),
            diffusion=lambda y: np.ones((y.shape[0], 1, 1)),
            L=0.5,
        )
        batch = _one_step(model, [0.3], 0.1)
        assert batch.paths[0, 1, 0] == 0.3 + batch.increments[0, 0, 0]

    def test_fixed_point_at_origin(self):
        assert _one_step(ou_model(1.0, 0.0), [0.0], 0.1).paths[0, 1, 0] == 0.0

    def test_solvability_margin(self):
        # osl = 3 at h = 0.5; L = 0 keeps the h0 bound out of the way
        expanding = SdeModel(
            d=1, m=1, drift=lambda y: 3.0 * y, diffusion=lambda y: np.zeros((y.shape[0], 1, 1)), L=0.0, osl=3.0,
        )
        cfg = BemConfig(h=0.5, t_horizon=1.0, h0=0.6, x0=[1.0])
        with pytest.raises(StepTooLarge):
            cfg.validate_against(expanding)
        with pytest.raises(StepTooLarge):
            simulate_bem(expanding, cfg, seed=1, n_paths=1)

    def test_nan_residual_reported(self):
        # a drift that is NaN above 0.5 leaves a NaN residual, which must not pass the tolerance
        broken = SdeModel(
            d=1, m=1,
            drift=lambda y: np.where(y > 0.5, np.nan, -y),
            diffusion=lambda y: np.zeros((y.shape[0], 1, 1)),
            L=0.0,
        )
        with pytest.raises(NewtonNonConvergence):
            _one_step(broken, [1.0], 0.1)
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])
        with pytest.raises(NewtonNonConvergence):
            simulate_bem(broken, cfg, seed=1, n_paths=4)

    def test_backtracking_reaches_the_root(self):
        # full Newton steps on u + 10 atan(u) = 5 overshoot from the predictor, so the line search halves
        calls = {"drift": 0, "jacobian": 0}

        def drift(y):
            calls["drift"] += 1
            return -100.0 * np.arctan(y)

        def jacobian(y):
            calls["jacobian"] += 1
            return (-100.0 / (1.0 + y ** 2))[:, :, None]

        model = SdeModel(
            d=1, m=1, drift=drift, diffusion=lambda y: np.zeros((y.shape[0], 1, 1)),
            drift_jacobian=jacobian, L=0.0, osl=0.0,
        )
        batch = _one_step(model, [5.0], 0.1)
        root = brentq(lambda u: u + 10.0 * math.atan(u) - 5.0, 0.0, 5.0, xtol=1e-15)
        assert batch.residual_norms[0, 0] <= 1e-10
        assert abs(batch.paths[0, 1, 0] - root) < 1e-10
        # the predictor costs two drift calls and each Newton iteration one more, unless it halves
        assert calls["drift"] > 2 + calls["jacobian"]

    def test_understated_osl_raises_instead_of_solving(self):
        # f(y) = 3y with osl = 0 passes validation, but at h = 1/3 the Newton matrix 1 - 3h is singular
        model = SdeModel(
            d=1, m=1, drift=lambda y: 3.0 * y, diffusion=lambda y: np.zeros((y.shape[0], 1, 1)),
            drift_jacobian=lambda y: np.full((y.shape[0], 1, 1), 3.0), L=0.0, osl=0.0,
        )
        with pytest.raises(NewtonNonConvergence, match="osl"):
            _one_step(model, [1.0], 1.0 / 3.0)


class TestScalarKernels:
    def test_one_by_one_division_equals_the_batched_solve(self):
        rng = np.random.default_rng(5)
        m = 20_000
        jac = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3, m)
        matrix = np.eye(1)[None, :, :] - 0.1 * jac[:, None, None]
        r = rng.standard_normal((m, 1)) * 10.0 ** rng.uniform(-8, 2, (m, 1))
        expected = np.linalg.solve(matrix, r[:, :, None])[:, :, 0]
        assert bem._newton_delta(matrix, r).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", range(1, 8))
    def test_squared_norm_equals_the_numpy_sum(self, d):
        rng = np.random.default_rng(d)
        x = rng.standard_normal((300, 9, d)) * 10.0 ** rng.uniform(-5, 5, (300, 9, d))
        assert bem._sq_norm(x).tobytes() == (x ** 2).sum(axis=-1).tobytes()
        assert bem._sq_norm(x[:, 0]).tobytes() == (x[:, 0] ** 2).sum(axis=1).tobytes()

    def test_sup_norms_match_the_row_reduction(self):
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.2, x0=[1.0, -0.5])
        batch = simulate_bem(linear_model([[-1.0, 2.0], [-2.0, -1.0]], 0.5), cfg, seed=4, n_paths=500)
        expected = np.sqrt((batch.paths ** 2).sum(axis=2)).max(axis=1)
        assert batch.sup_norms().tobytes() == expected.tobytes()


class TestSimulate:
    def test_deterministic_linear_oracle_1d(self):
        model = ou_model(1.0, 0.0)
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0], newton_tol=1e-12)
        batch = simulate_bem(model, cfg, seed=1, n_paths=3)
        ref = (1.0 + 0.1) ** -np.arange(11)
        assert np.abs(batch.paths[:, :, 0] - ref[None, :]).max() < 1e-10

    def test_deterministic_linear_oracle_rotation(self):
        a = np.array([[-1.0, -2.0], [2.0, -1.0]])
        model = linear_model(a)
        cfg = BemConfig(h=0.05, t_horizon=1.0, h0=0.5, x0=[1.0, 0.0], newton_tol=1e-12)
        batch = simulate_bem(model, cfg, seed=1, n_paths=2)
        step = np.linalg.inv(np.eye(2) - 0.05 * a)
        ref = np.empty((21, 2))
        ref[0] = [1.0, 0.0]
        for j in range(20):
            ref[j + 1] = step @ ref[j]
        assert np.abs(batch.paths[0] - ref).max() < 1e-10

    def test_pure_noise_column_variance(self):
        model = SdeModel(
            d=1, m=1,
            drift=lambda y: np.zeros_like(y),
            diffusion=lambda y: np.ones((y.shape[0], 1, 1)),
            L=0.5,
        )
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.5, x0=[0.0])
        batch = simulate_bem(model, cfg, seed=3, n_paths=50_000)
        m = batch.n_paths
        for j in (1, 5, 10):
            var = batch.paths[:, j, 0].var(ddof=1)
            want = j * cfg.h
            se = want * math.sqrt(2.0 / (m - 1))
            assert abs(var - want) <= 3.0 * se

    def test_seed_repetition_bit_identical(self):
        model = ou_model(1.0, 1.0)
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])
        a = simulate_bem(model, cfg, seed=11, n_paths=50)
        b = simulate_bem(model, cfg, seed=11, n_paths=50)
        assert np.array_equal(a.paths, b.paths)
        assert np.array_equal(a.increments, b.increments)

    def test_residual_contract(self):
        model = bounded_diffusion_model(1.0, 1.0)
        cfg = BemConfig(h=0.05, t_horizon=0.5, h0=0.5, x0=[0.7], newton_tol=1e-11)
        batch = simulate_bem(model, cfg, seed=5, n_paths=2000)
        assert batch.residual_norms.max() <= 1e-11

    def test_increment_moments(self):
        model = ou_model(1.0, 1.0)
        cfg = BemConfig(h=0.04, t_horizon=0.4, h0=0.25, x0=[0.0])
        batch = simulate_bem(model, cfg, seed=9, n_paths=40_000)
        m = batch.n_paths
        means = batch.increments[:, :, 0].mean(axis=0)
        assert np.abs(means).max() <= 3.0 * math.sqrt(cfg.h / m)
        var = batch.increments[:, :, 0].var(ddof=1, axis=0)
        assert np.abs(var - cfg.h).max() <= 3.0 * cfg.h * math.sqrt(2.0 / (m - 1))


class TestBemConfig:
    def test_step_count_follows_the_horizon(self):
        assert BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[0.0]).n_steps == 10
        assert BemConfig(h=0.02, t_horizon=1.0, h0=0.25, x0=[0.0]).n_steps == 50
        assert BemConfig(h=0.1, t_horizon=0.95, h0=0.25, x0=[0.0]).n_steps == 9

    def test_validation(self):
        with pytest.raises(StepBoundViolation):
            BemConfig(h=0.3, t_horizon=1.0, h0=0.25, x0=[0.0])
        with pytest.raises(StepBoundViolation):
            BemConfig(h=1.2, t_horizon=2.0, h0=1.5, x0=[0.0])
        with pytest.raises(StepBoundViolation):  # with L = 0 the 1/(2L) bound would not catch it
            BemConfig(h=0.1, t_horizon=1.0, h0=math.inf, x0=[0.0])
        cfg = BemConfig(h=0.3, t_horizon=1.0, h0=0.6, x0=[0.0])
        with pytest.raises(StepBoundViolation):
            cfg.validate_against(ou_model(1.0, 2.0))  # h0 >= 1/(2L) = 0.25
        with pytest.raises(ShapeMismatch):
            BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[0.0, 0.0]).validate_against(ou_model())


class TestModelValidation:
    @pytest.mark.parametrize("make", [ou_model, bounded_diffusion_model])
    @pytest.mark.parametrize("kappa, sigma", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-1.0, 1.0)])
    def test_zoo_rejects_bad_rates(self, make, kappa, sigma):
        with pytest.raises(InvalidSpec):
            make(kappa, sigma)

    @pytest.mark.parametrize("bad", [{"L": math.nan}, {"osl": math.nan}, {"L": -1.0}])
    def test_sde_model_rejects_nan_constants(self, bad):
        args = dict(d=1, m=1, drift=lambda y: -y, diffusion=lambda y: np.ones((y.shape[0], 1, 1)), L=0.5) | bad
        with pytest.raises(InvalidSpec):
            SdeModel(**args)


class TestNoiseTerms:
    def test_hand_values(self):
        model = SdeModel(
            d=1, m=1,
            drift=lambda y: np.zeros_like(y),
            diffusion=lambda y: np.ones((y.shape[0], 1, 1)),
            L=0.5,
        )
        paths = np.array([[[0.0], [0.1]], [[1.0], [1.1]]])
        increments = np.array([[[0.1]], [[0.1]]])
        z = noise_terms(model, paths, increments, h=0.01)
        assert abs(z[0, 0]) < 1e-15           # 0.01 - 0.01 + 0
        assert abs(z[1, 0] - 0.2) < 1e-15     # 0.01 - 0.01 + 2*0.1*1

    def test_zero_increment_gives_minus_h_g_squared(self):
        model = ou_model(0.0, 2.0)
        paths = np.array([[[3.0], [3.0]]])
        increments = np.zeros((1, 1, 1))
        z = noise_terms(model, paths, increments, h=0.1)
        assert abs(z[0, 0] + 0.1 * 4.0) < 1e-15

    def test_partial_sums_and_shapes(self):
        model = ou_model(1.0, 1.0)
        cfg = BemConfig(h=0.1, t_horizon=0.5, h0=0.25, x0=[1.0])
        batch = simulate_bem(model, cfg, seed=2, n_paths=10)
        z, s = z_sequence(model, batch.paths, batch.increments, cfg.h, cfg.h0)
        assert z.shape == (10, 5) and s.shape == (10, 6)
        assert np.all(s[:, 0] == 0.0)
        factor = 1.0 - 2.0 * cfg.h0 * model.L
        assert np.allclose(s[:, -1], z.sum(axis=1) / factor)

    def test_step_bound_guard(self):
        model = ou_model(1.0, 1.0)  # L = 0.5
        with pytest.raises(StepBoundViolation):
            z_sequence(model, np.zeros((1, 2, 1)), np.zeros((1, 1, 1)), 0.1, 1.0)


class TestAprioriBound:
    def test_reference_value(self):
        got = apriori_moment_bound(0.5, 1.0, 1.0, 0.25, 0.0, 0.0)
        assert abs(got - 6.0 * math.exp(2.0)) < 1e-12

    def test_zero_growth_constant(self):
        assert apriori_moment_bound(0.5, 0.0, 1.0, 0.25, 1.0, 0.0) == 3.0

    def test_prefactor_at_half(self):
        assert ((2.0 - 0.5) / (1.0 - 0.5)) ** (1.0 / (2.0 * 0.5)) == 3.0

    def test_validation(self):
        with pytest.raises(POutOfRange):
            apriori_moment_bound(1.0, 1.0, 1.0, 0.25, 0.0, 0.0)
        with pytest.raises(StepBoundViolation):
            apriori_moment_bound(0.5, 1.0, 1.0, 0.5, 0.0, 0.0)
        with pytest.raises(InvalidSpec):
            apriori_moment_bound(0.5, 1.0, 0.0, 0.25, 0.0, 0.0)


class TestVerifyApriori:
    def test_frozen_model_is_exact(self):
        model = frozen_model()
        cfgs = [BemConfig(h=h, t_horizon=1.0, h0=0.5, x0=[1.0]) for h in (0.1, 0.25)]
        report = verify_apriori_bound(model, cfgs, [0.5], 500, seed=1)
        assert report.overall_pass
        for row in report.rows:
            assert row["estimate"] == 1.0
            assert row["stderr"] == 0.0
            assert row["bound"] >= 1.0

    def test_single_bound_across_the_grid(self):
        model = ou_model(1.0, 1.0)
        cfgs = [BemConfig(h=h, t_horizon=1.0, h0=0.25, x0=[1.0]) for h in (0.05, 0.1, 0.2)]
        report = verify_apriori_bound(model, cfgs, [0.25, 0.5], 5000, seed=4)
        assert report.overall_pass
        for p in (0.25, 0.5):
            bounds = {row["bound"] for row in report.rows if row["p"] == p}
            assert len(bounds) == 1

    def test_side_checks_recorded(self):
        model = ou_model(1.0, 1.0)
        cfgs = [BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])]
        report = verify_apriori_bound(model, cfgs, [0.5], 20_000, seed=8)
        assert report.checks["z_mean_zero[h=0.1]"]
        assert report.checks["s_demimartingale[h=0.1]"]

    @pytest.mark.parametrize("level", [1.5, -0.2, 0.0, 1.0])
    def test_level_outside_the_unit_interval_raises(self, level, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a path was simulated before the level was checked")

        monkeypatch.setattr(bem, "simulate_bem", no_simulation)
        cfgs = [BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])]
        with pytest.raises(InvalidSpec):
            verify_apriori_bound(ou_model(1.0, 1.0), cfgs, [0.5], 200, seed=8, level=level)

    def test_grid_entry_below_two_steps_raises_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a path was simulated before the step counts were checked")

        monkeypatch.setattr(bem, "simulate_bem", no_simulation)
        # h = 0.1 gives N = 3, but h = 0.2 gives N = 1: no demimartingale cell
        cfgs = [BemConfig(h=h, t_horizon=0.3, h0=0.25, x0=[1.0]) for h in (0.1, 0.2)]
        with pytest.raises(DegenerateBatch):
            verify_apriori_bound(ou_model(), cfgs, [0.5], 200, seed=1)

    def test_grid_must_share_shared_parameters(self):
        model = ou_model(1.0, 1.0)
        cfgs = [
            BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0]),
            BemConfig(h=0.05, t_horizon=2.0, h0=0.25, x0=[1.0]),
        ]
        with pytest.raises(HGridViolation):
            verify_apriori_bound(model, cfgs, [0.5], 100, seed=1)

    def test_empty_p_grid_raises(self):
        cfgs = [BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])]
        with pytest.raises(InvalidSpec):
            verify_apriori_bound(ou_model(), cfgs, [], 200, seed=1)

    def test_sup_norm_estimate_shape(self):
        model = ou_model(1.0, 1.0)
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])
        batch = simulate_bem(model, cfg, seed=2, n_paths=4000)
        est, se = sup_norm_estimate(batch, 0.5)
        assert est > 1.0 and se > 0.0


class TestCoercivityProbe:
    def test_contracting_drift_passes_with_zero_l(self):
        model = SdeModel(
            d=1, m=1,
            drift=lambda y: -y,
            diffusion=lambda y: np.zeros((y.shape[0], 1, 1)),
            L=0.0,
        )
        out = coercivity_probe(model, [-5.0], [5.0], 256, seed=3)
        assert out["passed"]
        assert out["min_residual"] >= 0.0

    def test_identity_drift_with_unit_l(self):
        model = SdeModel(
            d=1, m=1,
            drift=lambda y: y,
            diffusion=lambda y: np.zeros((y.shape[0], 1, 1)),
            L=1.0,
        )
        out = coercivity_probe(model, [-5.0], [5.0], 256, seed=3)
        assert out["passed"]
        assert abs(out["min_residual"] - 1.0) < 1e-12

    def test_cubic_growth_fails_any_finite_l(self):
        model = SdeModel(
            d=1, m=1,
            drift=lambda y: y ** 3,
            diffusion=lambda y: np.zeros((y.shape[0], 1, 1)),
            L=5.0,
        )
        out = coercivity_probe(model, [-10.0], [10.0], 512, seed=3)
        assert not out["passed"]

    def test_zoo_constants_certified_by_probe(self):
        for model in (ou_model(1.0, 1.0), bounded_diffusion_model(1.0, 1.0), frozen_model()):
            out = coercivity_probe(model, [-20.0], [20.0], 512, seed=7)
            assert out["passed"], model.label

    def test_box_validation(self):
        with pytest.raises(InvalidSpec):
            coercivity_probe(ou_model(), [1.0], [1.0], 16, seed=0)
