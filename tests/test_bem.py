import dataclasses
import functools
import math
import sys
import tracemalloc
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from demigronwall import bem, generators
from demigronwall.bem import (
    BemConfig,
    SdeModel,
    apriori_moment_bound,
    bounded_diffusion_model,
    coercivity_probe,
    frozen_model,
    ou_model,
    simulate_bem,
    sup_norm_estimate,
    verify_apriori_bound,
    z_sequence,
)
from demigronwall.errors import (
    BatchTooLarge,
    DegenerateBatch,
    HGridViolation,
    InvalidSpec,
    NegativeInput,
    NewtonNonConvergence,
    POutOfRange,
    ShapeMismatch,
    StepBoundViolation,
    StepTooLarge,
)
from demigronwall.reporting import mean_se
from demigronwall.rng import normal_matrix, uniform_matrix


def linear_model(matrix, sigma=0.0) -> SdeModel:
    """Linear drift f(x) = A x with optional isotropic noise g = sigma I.

    ``L = max(0, lambda_max((A + A^T)/2)) + sigma^2 d / 2`` certifies the
    coercivity condition; the symmetric-part eigenvalue also serves as the
    one-sided Lipschitz constant.
    """
    a = np.asarray(matrix, dtype=np.float64)
    d = a.shape[0]
    lam = float(np.linalg.eigvalsh(0.5 * (a + a.T)).max())
    g0 = sigma * np.eye(d)
    if sigma == 0.0:
        diffusion, m = (lambda y: np.zeros((y.shape[0], d, 1))), 1
    else:
        diffusion, m = (lambda y: np.broadcast_to(g0, (y.shape[0], d, d))), d
    return SdeModel(
        d=d, m=m,
        drift=lambda y: y @ a.T,
        diffusion=diffusion,
        drift_jacobian=lambda y: np.broadcast_to(a, (y.shape[0], d, d)),
        L=max(0.0, lam) + 0.5 * sigma ** 2 * d,
        osl=lam,
        label=f"linear[d={d}]",
    )


def _collect(model, cfg, seed, n_paths):
    """What :func:`simulate_bem` folds away, collected from its stepping loop, ``bem._bem_steps``.

    Returns a namespace of C-order arrays: ``paths`` ``(M, N+1, d)``, ``Y^j``
    at ``[:, j]``; ``noise`` and ``residual_norms`` ``(M, N)``; and
    ``increments`` ``(M, N, m)``, the whole ``normal_matrix`` whose columns
    the steps draw a tile at a time, times ``sqrt(h)``.
    """
    n, m = cfg.n_steps, model.m
    run = types.SimpleNamespace(
        paths=np.empty((n_paths, n + 1, model.d)), noise=np.empty((n_paths, n)), residual_norms=np.empty((n_paths, n)),
        increments=normal_matrix(seed, n_paths, n * m).reshape(n_paths, n, m) * math.sqrt(cfg.h),
    )
    run.paths[:, 0] = cfg.x0
    for j, (z, u, rnorm) in enumerate(bem._bem_steps(model, cfg, seed, n_paths)):
        run.noise[:, j], run.paths[:, j + 1], run.residual_norms[:, j] = z, u, rnorm
    return run


def _assert_folds(batch, z, factor):
    """The batch's S and Z moments are, bit for bit, those of the collected noise terms ``z``.

    S must be ``partial_sums(Z) / factor``, and the moments ``mean_se`` of
    Z in time-major (Fortran) order, whose columns it reduces as 1-D arrays.
    """
    z = np.asfortranarray(z)
    s = generators.partial_sums(z.shape[0], z.shape[1], z.T)
    s /= factor
    assert batch.partial_sums.flags.f_contiguous
    assert batch.partial_sums.tobytes() == s.tobytes()
    mean, se = mean_se(z)
    assert batch.z_mean.tobytes() == mean.tobytes()
    assert batch.z_se.tobytes() == se.tobytes()


def _one_step(model, x0, h):
    """One implicit step of one path, collected from the stepping loop of :func:`simulate_bem`."""
    cfg = BemConfig(h=h, t_horizon=h, h0=max(0.5, 2.0 * h), x0=x0)
    return _collect(model, cfg, seed=1, n_paths=1)


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
        run = _one_step(model, [0.3], 0.1)
        assert run.paths[0, 1, 0] == 0.3 + run.increments[0, 0, 0]

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
        run = _one_step(model, [5.0], 0.1)
        root = brentq(lambda u: u + 10.0 * math.atan(u) - 5.0, 0.0, 5.0, xtol=1e-15)
        assert run.residual_norms[0, 0] <= 1e-10
        assert abs(run.paths[0, 1, 0] - root) < 1e-10
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


def _oracle_2x2(matrix, r):
    """One system through the unfused LU sequence of the 2 x 2 kernel, one float rounding at a time.

    Returns ``(x1, x2, in_kernel)``; ``in_kernel`` is False where the kernel
    hands the system to LAPACK: a divisor is zero, the pivot is subnormal or
    the solution is not finite.
    """
    (a11, a12), (a21, a22) = matrix.tolist()
    b1, b2 = r.tolist()
    if abs(a21) > abs(a11):
        (a11, a12, b1), (a21, a22, b2) = (a21, a22, b2), (a11, a12, b1)
    if abs(a11) < sys.float_info.min:
        return math.nan, math.nan, False
    l = a21 * (1.0 / a11)
    u22 = a22 - l * a12
    if u22 == 0.0:
        return math.nan, math.nan, False
    x2 = (b2 - l * b1) / u22
    x1 = (b1 - a12 * x2) / a11
    return x1, x2, math.isfinite(x1) and math.isfinite(x2)


def _oracle_rows(matrix, r):
    """Oracle solutions of every system, and which of them the kernel keeps."""
    out = np.array([_oracle_2x2(m, b) for m, b in zip(matrix, r)])
    return out[:, :2].copy(), out[:, 2].astype(bool)


def _random_systems(rng, m, spread):
    """``m`` 2 x 2 systems with entries of random sign and magnitude up to ``e^spread``."""
    matrix = rng.standard_normal((m, 2, 2)) * np.exp(rng.uniform(-spread, spread, (m, 2, 2)))
    r = rng.standard_normal((m, 2)) * np.exp(rng.uniform(-spread, spread, (m, 2)))
    return matrix, r


def _lapack_solve(matrix, r):
    return np.linalg.solve(matrix, r[:, :, None])[:, :, 0]


def _lapack_is_unfused() -> bool:
    """Whether ``np.linalg.solve`` rounds 2 x 2 systems as the unfused kernel does on this BLAS core."""
    matrix, r = _random_systems(np.random.default_rng(0), 2000, 9.0)
    expected, in_kernel = _oracle_rows(matrix, r)
    return in_kernel.all() and _lapack_solve(matrix, r).tobytes() == expected.tobytes()


def _masked_newton(model, y, b, h, tol, active_rows, solve):
    """The damped Newton loop with boolean-mask copies on every iteration.

    ``bem._solve_implicit`` as it stood before the 2 x 2 kernel and the copy-free
    iterations, with ``solve(matrix, r)`` for the Newton systems; ``active_rows``
    collects the active row count of each iteration.
    """

    def residual(u, ys, bs):
        return u - ys - h * model.drift(u) - bs

    eye = np.eye(model.d)
    u = y + h * model.drift(y) + b
    r = residual(u, y, b)
    rnorm = np.sqrt((r ** 2).sum(axis=1))
    for _ in range(bem.NEWTON_MAX_ITER):
        active = rnorm > tol
        if not active.any():
            break
        active_rows.append(int(active.sum()))
        ua, ya, ba, ra_norm = u[active], y[active], b[active], rnorm[active]
        jf = model.drift_jacobian(ua)
        delta = solve(eye[None, :, :] - h * jf, r[active])
        alpha = np.ones(ua.shape[0])
        cand = ua - delta
        rc = residual(cand, ya, ba)
        rcn = np.sqrt((rc ** 2).sum(axis=1))
        stuck = (rcn >= ra_norm) & (rcn > tol)
        for _ in range(15):
            if not stuck.any():
                break
            alpha[stuck] *= 0.5
            cand[stuck] = ua[stuck] - alpha[stuck, None] * delta[stuck]
            rc[stuck] = residual(cand[stuck], ya[stuck], ba[stuck])
            rcn[stuck] = np.sqrt((rc[stuck] ** 2).sum(axis=1))
            stuck = (rcn >= ra_norm) & (rcn > tol)
        u[active], r[active], rnorm[active] = cand, rc, rcn
    return u, rnorm


def _rotating_cubic_model():
    """f(x) = A x - |x|^2 x with a strong rotation in A: Newton rows pivot and converge unevenly."""
    a = np.array([[-1.0, 25.0], [-25.0, -1.0]])

    def drift(y):
        return y @ a.T - (y * y).sum(axis=1, keepdims=True) * y

    def jacobian(y):
        jac = a[None, :, :] - 2.0 * y[:, :, None] * y[:, None, :]
        jac[:, [0, 1], [0, 1]] -= (y * y).sum(axis=1)[:, None]
        return jac

    # the symmetric part of A is -I and -|x|^2 x is monotone: osl = -1; with g = I,
    # <f(x), x> + |g|^2 / 2 = 1 - |x|^2 - |x|^4 <= 1 + |x|^2, so L = 1
    return SdeModel(
        d=2, m=2, drift=drift, diffusion=lambda y: np.broadcast_to(np.eye(2), (y.shape[0], 2, 2)),
        drift_jacobian=jacobian, L=1.0, osl=-1.0, label="rotating-cubic",
    )


#: models and starting points of every state and noise dimension the solver branches on
_EVERY_SHAPE = pytest.mark.parametrize(
    "model, x0",
    [
        (ou_model(1.0, 1.0), [1.0]),
        (bounded_diffusion_model(1.0, 1.3), [0.7]),
        (frozen_model(3), [1.0, 2.0, 3.0]),
        (linear_model([[-1.0, 0.5], [-0.5, -2.0]], 0.7), [1.0, -0.5]),
        (linear_model([[-1.0, 0.2, 0.0], [0.1, -1.5, 0.3], [0.0, -0.4, -0.8]], 0.9), [0.3, -1.2, 2.0]),
        (_rotating_cubic_model(), [1.5, -1.0]),
    ],
    ids=lambda v: getattr(v, "label", None),
)


def _whole_matrix_stepper(model, cfg, seed, n_paths):
    """The BEM loop with every increment drawn up front as one ``normal_matrix``.

    Returns ``(increments, paths, noise, residual_norms)``.
    """
    n, d, m = cfg.n_steps, model.d, model.m
    dw = normal_matrix(seed, n_paths, n * m).reshape(n_paths, n, m)
    dw *= math.sqrt(cfg.h)
    paths = np.empty((n_paths, n + 1, d))
    noise = np.empty((n_paths, n))
    residuals = np.empty((n_paths, n))
    paths[:, 0, :] = cfg.x0
    y = np.array(np.broadcast_to(cfg.x0, (n_paths, d)), order="F")
    for j in range(n):
        g = model.diffusion(y)
        b = bem._row_matvec(g, dw[:, j])
        noise[:, j] = bem._sq_norm(b) - cfg.h * bem._sq_norm(g.reshape(n_paths, -1)) + 2.0 * bem._row_dot(b, y)
        y, residuals[:, j] = bem._solve_implicit(model, y, b, cfg.h, cfg.newton_tol)
        paths[:, j + 1, :] = y
    return dw, paths, noise, residuals


class TestScalarKernels:
    @pytest.mark.parametrize("spread", [1.0, 9.0, 300.0])
    def test_two_by_two_follows_the_lu_sequence(self, spread):
        # at e^300 a few solutions overflow: those systems must get LAPACK's bits
        matrix, r = _random_systems(np.random.default_rng(int(spread)), 3000, spread)
        got = bem._newton_delta(matrix, r)
        expected, in_kernel = _oracle_rows(matrix, r)
        assert got[in_kernel].tobytes() == expected[in_kernel].tobytes()
        assert got[~in_kernel].tobytes() == _lapack_solve(matrix[~in_kernel], r[~in_kernel]).tobytes()
        assert in_kernel.all() if spread < 300.0 else 0 < (~in_kernel).sum() < 30

    @pytest.mark.parametrize("spread", [1.0, 9.0, 300.0])
    def test_two_by_two_is_backward_stable_on_every_core(self, spread):
        # whatever the BLAS core: the normwise backward error is a few ulps, and np.linalg.solve,
        # fused or not, lies within the condition number times eps; the check runs in exact
        # rational arithmetic, so e^300 entries cannot overflow it
        matrix, r = _random_systems(np.random.default_rng(100 + int(spread)), 1000, spread)
        got, lapack = bem._newton_delta(matrix, r), _lapack_solve(matrix, r)
        finite = np.isfinite(got).all(axis=1) & np.isfinite(lapack).all(axis=1)
        assert finite.mean() > 0.99
        eps = Fraction(np.finfo(np.float64).eps)
        for a, b, x, y in zip(*(v[finite].tolist() for v in (matrix, r, got, lapack))):
            (a11, a12), (a21, a22) = ([Fraction(v) for v in row] for row in a)
            b, x, y = ([Fraction(v) for v in w] for w in (b, x, y))
            norm_a = max(abs(a11) + abs(a12), abs(a21) + abs(a22))
            norm_x = max(abs(x[0]), abs(x[1]))
            residual = max(abs(a11 * x[0] + a12 * x[1] - b[0]), abs(a21 * x[0] + a22 * x[1] - b[1]))
            assert residual <= 4 * eps * (norm_a * norm_x + max(abs(b[0]), abs(b[1])))
            norm_inverse = max(abs(a22) + abs(a12), abs(a21) + abs(a11)) / abs(a11 * a22 - a12 * a21)
            assert max(abs(x[0] - y[0]), abs(x[1] - y[1])) <= 4 * eps * norm_a * norm_inverse * norm_x

    def test_ties_and_signed_zeros(self):
        rng = np.random.default_rng(3)
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1.0 + 2.0 ** -52])
        matrix = rng.choice(values, (4000, 2, 2))
        r = rng.choice(values, (4000, 2))
        matrix[::3, 1, 0] = -matrix[::3, 0, 0]  # |a21| == |a11|: LAPACK keeps the first row
        matrix[1::3, 1, 0] = matrix[1::3, 0, 0]
        expected, in_kernel = _oracle_rows(matrix, r)
        assert in_kernel.sum() > 1000  # the others are singular
        got = bem._newton_delta(matrix[in_kernel], r[in_kernel])
        assert got.tobytes() == expected[in_kernel].tobytes()

    @pytest.mark.parametrize(
        "singular",
        [[[0.0, 1.0], [0.0, 2.0]], [[1.0, 2.0], [2.0, 4.0]], [[-0.0, 0.0], [0.0, -0.0]], [[3.0, 1.0], [-3.0, -1.0]]],
    )
    def test_singular_rows_raise(self, singular):
        matrix = np.array([[[2.0, 1.0], [1.0, 3.0]], singular, [[1.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(np.linalg.LinAlgError):
            bem._newton_delta(matrix, np.ones((3, 2)))

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 2.0 ** 460, 2.0 ** -460])
    def test_extreme_rows_stay_in_the_kernel(self, scale, monkeypatch):
        rng = np.random.default_rng(8)
        matrix, r = _random_systems(rng, 50, 2.0)
        matrix[::5] *= scale
        r[1::5] *= scale
        monkeypatch.setattr(bem.np.linalg, "solve", lambda a, b: pytest.fail("a row went to LAPACK"))
        got = bem._newton_delta(matrix, r)
        expected, in_kernel = _oracle_rows(matrix, r)
        assert in_kernel.all()
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scale", [2.0 ** 440, 2.0 ** -440, 2.0 ** 1000, 2.0 ** -1000])
    def test_scaled_systems_stay_in_the_kernel(self, scale, monkeypatch):
        # diagonally dominant systems keep |l|, |u22| and |x| within a factor 8 of 1, so only
        # the common scale is extreme; every other system has its equations in swapped order
        rng = np.random.default_rng(9)
        signs = rng.choice([-1.0, 1.0], (500, 2, 2))
        matrix = signs * np.where(np.eye(2, dtype=bool), rng.uniform(2.0, 4.0, (500, 2, 2)), rng.uniform(0.5, 1.0, (500, 2, 2)))
        matrix[::2] = matrix[::2, ::-1]
        r = rng.choice([-1.0, 1.0], (500, 2)) * rng.uniform(0.5, 2.0, (500, 2))
        monkeypatch.setattr(bem.np.linalg, "solve", lambda a, b: pytest.fail("a row went to LAPACK"))
        got = bem._newton_delta(matrix * scale, r * scale)
        assert got.tobytes() == _oracle_rows(matrix * scale, r * scale)[0].tobytes()

    def test_overflow_and_subnormal_pivots_go_to_lapack_without_a_warning(self, monkeypatch):
        rng = np.random.default_rng(8)
        matrix, r = _random_systems(rng, 50, 2.0)
        matrix[::5] *= 1e-300  # u22 near 1e-300 and b near 1: the solution overflows
        r[::5] *= 1e300
        # a subnormal pivot whose reciprocal is finite, and a small b: a finite solution near 2^960,
        # which LAPACK finds by dividing by the pivot, not by scaling with its reciprocal
        matrix[1::5, :, 0] = rng.choice([-1.0, 1.0], (10, 2)) * rng.uniform(0.55, 0.99, (10, 2)) * 2.0 ** -1022
        r[1::5] *= 2.0 ** -60
        calls = []
        solve = np.linalg.solve

        def spy(a, b):
            calls.append(a.shape[0])
            return solve(a, b)

        monkeypatch.setattr(bem.np.linalg, "solve", spy)
        got = bem._newton_delta(matrix, r)  # a warning here is an error in this suite
        routed = np.zeros(50, dtype=bool)
        routed[::5] = routed[1::5] = True
        assert calls == [20]
        assert not np.isfinite(got[::5]).any() and np.isfinite(got[1::5]).all()
        assert got[routed].tobytes() == _lapack_solve(matrix[routed], r[routed]).tobytes()
        expected, in_kernel = _oracle_rows(matrix, r)
        assert np.array_equal(in_kernel, ~routed)
        assert got[~routed].tobytes() == expected[~routed].tobytes()

    @pytest.mark.parametrize(
        "solve",
        [
            pytest.param(lambda matrix, r: _oracle_rows(matrix, r)[0], id="oracle"),
            pytest.param(
                _lapack_solve,
                id="lapack",
                marks=pytest.mark.skipif(
                    not _lapack_is_unfused(),
                    reason="np.linalg.solve on this BLAS core (see OPENBLAS_CORETYPE) fuses the 2 x 2 "
                    "substitution that the kernel rounds unfused",
                ),
            ),
        ],
    )
    def test_simulate_bem_equals_the_masked_loop(self, solve, monkeypatch):
        model = _rotating_cubic_model()
        cfg = BemConfig(h=0.05, t_horizon=0.5, h0=0.2, x0=[1.5, -1.0], newton_tol=1e-12)
        batch, run = simulate_bem(model, cfg, seed=21, n_paths=3000), _collect(model, cfg, 21, 3000)
        active_rows = []
        monkeypatch.setattr(bem, "_solve_implicit", functools.partial(_masked_newton, active_rows=active_rows, solve=solve))
        reference, masked = simulate_bem(model, cfg, seed=21, n_paths=3000), _collect(model, cfg, 21, 3000)
        assert run.paths.tobytes() == masked.paths.tobytes()
        assert run.residual_norms.tobytes() == masked.residual_norms.tobytes()
        assert run.noise.tobytes() == masked.noise.tobytes()
        for name in ("partial_sums", "z_mean", "z_se"):
            assert getattr(batch, name).tobytes() == getattr(reference, name).tobytes(), name
        assert batch.sup_norms().tobytes() == reference.sup_norms().tobytes()
        assert batch.max_residual == reference.max_residual
        # rows converged at different iterations, so the gathers and scatters ran
        assert any(0 < n < 3000 for n in active_rows)

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

    @pytest.mark.parametrize("paths_first", [False, True], ids=["sup-norms-first", "paths-first"])
    def test_sup_norms_match_the_row_reduction(self, paths_first):
        # the running maxima folded in while stepping are the row maxima of the collected paths
        model = linear_model([[-1.0, 2.0], [-2.0, -1.0]], 0.5)
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.2, x0=[1.0, -0.5])
        batch = simulate_bem(model, cfg, seed=4, n_paths=500)
        sup = None if paths_first else batch.sup_norms()
        expected = np.sqrt((_collect(model, cfg, 4, 500).paths ** 2).sum(axis=2)).max(axis=1)
        assert batch.sup_norms().tobytes() == expected.tobytes()
        if sup is not None:
            assert sup.tobytes() == expected.tobytes()


class TestSimulate:
    def test_deterministic_linear_oracle_1d(self):
        model = ou_model(1.0, 0.0)
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0], newton_tol=1e-12)
        paths = _collect(model, cfg, 1, 3).paths
        ref = (1.0 + 0.1) ** -np.arange(11)
        assert np.abs(paths[:, :, 0] - ref[None, :]).max() < 1e-10

    def test_deterministic_linear_oracle_rotation(self):
        a = np.array([[-1.0, -2.0], [2.0, -1.0]])
        model = linear_model(a)
        cfg = BemConfig(h=0.05, t_horizon=1.0, h0=0.5, x0=[1.0, 0.0], newton_tol=1e-12)
        paths = _collect(model, cfg, 1, 2).paths
        step = np.linalg.inv(np.eye(2) - 0.05 * a)
        ref = np.empty((21, 2))
        ref[0] = [1.0, 0.0]
        for j in range(20):
            ref[j + 1] = step @ ref[j]
        assert np.abs(paths[0] - ref).max() < 1e-10

    def test_pure_noise_column_variance(self):
        model = SdeModel(
            d=1, m=1,
            drift=lambda y: np.zeros_like(y),
            diffusion=lambda y: np.ones((y.shape[0], 1, 1)),
            L=0.5,
        )
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.5, x0=[0.0])
        paths = _collect(model, cfg, 3, 50_000).paths
        m = len(paths)
        for j in (1, 5, 10):
            var = paths[:, j, 0].var(ddof=1)
            want = j * cfg.h
            se = want * math.sqrt(2.0 / (m - 1))
            assert abs(var - want) <= 3.0 * se

    def test_seed_repetition_bit_identical(self):
        model = ou_model(1.0, 1.0)
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])
        a = simulate_bem(model, cfg, seed=11, n_paths=50)
        b = simulate_bem(model, cfg, seed=11, n_paths=50)
        for name in ("partial_sums", "z_mean", "z_se"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert a.sup_norms().tobytes() == b.sup_norms().tobytes()
        assert a.max_residual == b.max_residual
        a, b = _collect(model, cfg, 11, 50), _collect(model, cfg, 11, 50)
        assert np.array_equal(a.paths, b.paths)
        assert np.array_equal(a.increments, b.increments)

    @pytest.mark.parametrize("d, m", [(1, 1), (1, 3), (2, 2), (3, 1)])
    def test_partial_sums_meet_the_budget(self, monkeypatch, d, m):
        # S holds N + 1 = 5 entries per path, whatever the state and noise dimensions
        cfg = BemConfig(h=0.05, t_horizon=0.2, h0=0.1, x0=np.ones(d))
        model = SdeModel(
            d=d, m=m, drift=lambda y: -y, diffusion=lambda y: np.ones((y.shape[0], d, m)), L=0.5 * d * m, osl=-1.0,
        )
        monkeypatch.setattr(generators, "MAX_BATCH_ENTRIES", 120)
        assert simulate_bem(model, cfg, seed=1, n_paths=24).n_paths == 24
        with pytest.raises(BatchTooLarge, match="25 x 5 entries"):
            simulate_bem(model, cfg, seed=1, n_paths=25)
        with pytest.raises(InvalidSpec):
            simulate_bem(model, cfg, seed=1, n_paths=0)

    @pytest.mark.parametrize("n_paths", [40.9, np.float64(2.5), "40"])
    def test_fractional_path_count_raises(self, n_paths):
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])
        with pytest.raises(InvalidSpec, match="whole number"):
            simulate_bem(ou_model(), cfg, seed=1, n_paths=n_paths)
        assert simulate_bem(ou_model(), cfg, seed=1, n_paths=np.int64(40)).n_paths == 40

    def test_residual_contract(self):
        model = bounded_diffusion_model(1.0, 1.0)
        cfg = BemConfig(h=0.05, t_horizon=0.5, h0=0.5, x0=[0.7], newton_tol=1e-11)
        batch = simulate_bem(model, cfg, seed=5, n_paths=2000)
        assert batch.max_residual <= 1e-11
        assert _collect(model, cfg, 5, 2000).residual_norms.max() <= 1e-11

    def test_increment_moments(self):
        model = ou_model(1.0, 1.0)
        cfg = BemConfig(h=0.04, t_horizon=0.4, h0=0.25, x0=[0.0])
        increments = _collect(model, cfg, 9, 40_000).increments
        m = len(increments)
        means = increments[:, :, 0].mean(axis=0)
        assert np.abs(means).max() <= 3.0 * math.sqrt(cfg.h / m)
        var = increments[:, :, 0].var(ddof=1, axis=0)
        assert np.abs(var - cfg.h).max() <= 3.0 * cfg.h * math.sqrt(2.0 / (m - 1))

    @_EVERY_SHAPE
    def test_step_tiles_give_the_whole_matrix_bits(self, model, x0):
        cfg = BemConfig(h=0.05, t_horizon=0.5, h0=0.1, x0=x0)
        batch, run = simulate_bem(model, cfg, seed=6, n_paths=2000), _collect(model, cfg, 6, 2000)
        expected = _whole_matrix_stepper(model, cfg, 6, 2000)
        for name, want in zip(("increments", "paths", "noise", "residual_norms"), expected):
            assert getattr(run, name).tobytes() == want.tobytes(), name
        _assert_folds(batch, expected[2], 1.0 - 2.0 * cfg.h0 * model.L)

    def test_peak_memory_holds_no_increment_matrix(self):
        # S is one checked array, and one step's draws and Newton temporaries bring the peak to 2.73;
        # holding the paths and residuals too reached 4.4, and the whole (M, N) increment matrix 5.1
        model = ou_model(1.0, 1.0)
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])
        tracemalloc.start()
        try:
            simulate_bem(model, cfg, 7, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.8 * 20_000 * (cfg.n_steps + 1) * 8

    def test_bad_seed_raises_before_allocating(self):
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSpec, match="64-bit"):
                simulate_bem(ou_model(), cfg, 2 ** 64, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 20_000 * (cfg.n_steps + 1) * 8


def _counting(model):
    """``model`` with callables that count their calls, and the counts."""
    calls = dict.fromkeys(("drift", "drift_jacobian", "diffusion"), 0)

    def counted(name):
        fn = getattr(model, name)

        def call(y):
            calls[name] += 1
            return fn(y)

        return call

    return dataclasses.replace(model, **{name: counted(name) for name in calls}), calls


class TestLeanBatch:
    """A batch holds S, Z's column moments, the sup norms and the largest Newton residual, and nothing of its model."""

    CFG = BemConfig(h=0.05, t_horizon=0.5, h0=0.2, x0=[1.5, -1.0])

    def test_harness_reads_call_no_model_function(self):
        model, calls = _counting(_rotating_cubic_model())
        batch = simulate_bem(model, self.CFG, seed=3, n_paths=500)
        one_run = dict(calls)
        assert one_run["diffusion"] == self.CFG.n_steps
        assert (batch.n_paths, batch.n_steps, batch.partial_sums.shape) == (500, 10, (500, 11))
        assert batch.z_mean.shape == batch.z_se.shape == (10,)
        batch.sup_norms(), batch.max_residual, z_sequence(model, batch, self.CFG.h0)
        assert calls == one_run

    @pytest.mark.parametrize(
        "model, x0", [(ou_model(1.0, 1.0), [1.0]), (_rotating_cubic_model(), [1.5, -1.0])], ids=["ou", "rotating-cubic"],
    )
    def test_max_residual_is_the_largest_collected_residual(self, model, x0):
        cfg = dataclasses.replace(self.CFG, x0=x0, newton_tol=1e-12)
        batch = simulate_bem(model, cfg, seed=3, n_paths=2000)
        largest = _collect(model, cfg, 3, 2000).residual_norms.max()
        assert np.float64(batch.max_residual).tobytes() == largest.tobytes()
        assert batch.max_residual <= cfg.newton_tol

    def test_keeps_no_reference_to_its_model(self):
        model = _rotating_cubic_model()
        alive = weakref.ref(model)
        batch = simulate_bem(model, self.CFG, seed=3, n_paths=100)
        del model
        assert alive() is None
        assert batch.n_paths == 100

    def test_nan_drift_raises_from_simulate_bem(self):
        # drift 1: Y^j is about 0.3 + 0.1 j, and the drift is NaN above 0.55, first at Y^3: step 2 fails
        model, calls = _counting(SdeModel(
            d=1, m=1, drift=lambda y: np.where(y > 0.55, np.nan, 1.0),
            diffusion=lambda y: np.zeros((y.shape[0], 1, 1)),
            drift_jacobian=lambda y: np.zeros((y.shape[0], 1, 1)), L=0.0,
        ))
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[0.3])
        with pytest.raises(NewtonNonConvergence, match="at path 0, step 2") as err:
            simulate_bem(model, cfg, seed=1, n_paths=40)
        assert (err.value.path, err.value.step) == (0, 2)
        assert calls["diffusion"] == 3


def _cubic_drift(y):
    """f(x) = -x - |x|^2 x, the drift of the benchmark's 2-D model."""
    return -y - (y * y).sum(axis=1, keepdims=True) * y


def _cubic_jacobian(y):
    """Df(x) = -(1 + |x|^2) I - 2 x x^T."""
    jac = -2.0 * y[:, :, None] * y[:, None, :]
    diag = np.arange(y.shape[1])
    jac[:, diag, diag] -= 1.0 + (y * y).sum(axis=1)[:, None]
    return jac


class TestStateLayout:
    def test_model_calls_receive_column_major_state(self):
        # row sums over the short state axis of a row-major array cost numpy several times more
        calls = []

        def spy(f):
            def call(y):
                calls.append((f.__name__, y.shape, y.flags.f_contiguous))
                return f(y)
            return call

        model = SdeModel(
            d=2, m=2, drift=spy(_cubic_drift), drift_jacobian=spy(_cubic_jacobian),
            diffusion=spy(lambda y: np.broadcast_to(np.eye(2), (y.shape[0], 2, 2))), L=1.0, osl=-1.0,
        )
        cfg = BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[2.0, -1.0])
        simulate_bem(model, cfg, seed=7, n_paths=2000)
        every = {name for name, shape, _ in calls if shape[0] == 2000}
        assert every == {"_cubic_drift", "_cubic_jacobian", "<lambda>"}
        assert any(1 < shape[0] < 2000 for _, shape, _ in calls)  # rows converged unevenly: subsets ran
        assert all(shape[1] == 2 and f_contiguous for _, shape, f_contiguous in calls)

    def test_paths_do_not_depend_on_the_state_layout(self):
        model = _rotating_cubic_model()

        def row_major(f):
            return lambda y: f(np.ascontiguousarray(y))

        rows = dataclasses.replace(
            model, drift=row_major(model.drift), diffusion=row_major(model.diffusion),
            drift_jacobian=row_major(model.drift_jacobian),
        )
        cfg = BemConfig(h=0.05, t_horizon=0.5, h0=0.2, x0=[1.5, -1.0], newton_tol=1e-12)
        a, b = (_collect(m, cfg, 21, 3000) for m in (model, rows))
        for name in ("paths", "noise", "residual_norms"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


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

    def test_infinite_horizon_raises(self):
        with pytest.raises(InvalidSpec):
            BemConfig(h=0.1, t_horizon=math.inf, h0=0.25, x0=[0.0])

    def test_infinite_newton_tolerance_raises(self):
        # an infinite tolerance would accept the explicit predictor, 0.9, for the implicit step 1 / 1.1
        with pytest.raises(InvalidSpec):
            BemConfig(h=0.1, t_horizon=0.1, h0=0.25, x0=[1.0], newton_tol=math.inf)


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


def _fixed_normals(value):
    """A stand-in for ``draw_columns`` whose every draw is ``value``."""
    return lambda seed, n_paths, n_draws, law, width: (
        np.full((n_paths, width), value, order="F") for _ in range(0, n_draws, width)
    )


class TestNoiseTerms:
    def test_hand_values(self, monkeypatch):
        monkeypatch.setattr(bem, "draw_columns", _fixed_normals(1.0))  # dW = sqrt(h) = 0.1
        model = SdeModel(
            d=1, m=1,
            drift=lambda y: np.zeros_like(y),
            diffusion=lambda y: np.ones((y.shape[0], 1, 1)),
            L=0.5,
        )
        for x0 in (0.0, 1.0):
            cfg = BemConfig(h=0.01, t_horizon=0.02, h0=0.5, x0=[x0])
            z = _collect(model, cfg, 1, 2).noise
            _assert_folds(simulate_bem(model, cfg, seed=1, n_paths=2), z, 1.0 - 2.0 * cfg.h0 * model.L)
            assert z.shape == (2, 2)
            assert np.all(np.abs(z[:, 0] - 0.2 * x0) < 1e-15)           # 0.01 - 0.01 + 2*0.1*x0
            assert np.all(np.abs(z[:, 1] - 0.2 * (x0 + 0.1)) < 1e-15)   # Y^1 = x0 + 0.1

    def test_zero_increment_gives_minus_h_g_squared(self, monkeypatch):
        monkeypatch.setattr(bem, "draw_columns", _fixed_normals(0.0))
        model = ou_model(0.0, 2.0)
        cfg = BemConfig(h=0.1, t_horizon=0.2, h0=0.2, x0=[3.0])
        run = _collect(model, cfg, 1, 3)
        assert np.all(run.paths == 3.0)
        assert np.all(np.abs(run.noise + 0.1 * 4.0) < 1e-15)
        _assert_folds(simulate_bem(model, cfg, seed=1, n_paths=3), run.noise, 1.0 - 2.0 * cfg.h0 * model.L)

    def test_partial_sums_and_shapes(self):
        model = ou_model(1.0, 1.0)
        cfg = BemConfig(h=0.1, t_horizon=0.5, h0=0.25, x0=[1.0])
        batch, z = simulate_bem(model, cfg, seed=2, n_paths=10), _collect(model, cfg, 2, 10).noise
        s = z_sequence(model, batch, cfg.h0)
        assert s is batch.partial_sums  # no second S
        assert z.shape == (10, 5) and s.shape == (10, 6)
        assert np.all(s[:, 0] == 0.0)
        factor = 1.0 - 2.0 * cfg.h0 * model.L
        assert np.allclose(s[:, -1], z.sum(axis=1) / factor)
        # time-major, with the bits of the row-major cumsum
        assert s.flags.f_contiguous
        assert s.tobytes() == (np.hstack([np.zeros((10, 1)), np.cumsum(z, axis=1)]) / factor).tobytes()

    @_EVERY_SHAPE
    def test_column_sums_equal_the_numpy_row_sums(self, model, x0):
        cfg = BemConfig(h=0.05, t_horizon=0.5, h0=0.1, x0=x0)
        batch, run = simulate_bem(model, cfg, seed=6, n_paths=2000), _collect(model, cfg, 6, 2000)
        expected = np.empty((batch.n_paths, batch.n_steps))
        for j in range(batch.n_steps):
            y, g = run.paths[:, j], model.diffusion(run.paths[:, j])
            gdw = np.einsum("pdm,pm->pd", g, run.increments[:, j])
            expected[:, j] = (gdw ** 2).sum(axis=1) - cfg.h * (g ** 2).sum(axis=(1, 2)) + 2.0 * (gdw * y).sum(axis=1)
        assert run.noise.tobytes() == expected.tobytes()
        _assert_folds(batch, expected, 1.0 - 2.0 * cfg.h0 * model.L)

    @pytest.mark.parametrize("d, m", [(1, 1), (2, 2), (3, 1), (2, 4)])
    def test_row_matvec_has_the_einsum_bits(self, d, m):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((500, d, m))
        g[rng.random(g.shape) < 0.3] = 0.0
        g[rng.random(g.shape) < 0.2] = -0.0
        w = rng.standard_normal((500, 6, m))[:, 2]  # strided, as a step's column of increments
        w[rng.random(w.shape) < 0.2] = -0.0
        for gg in (g, np.asfortranarray(g), np.broadcast_to(g[:1], g.shape)):
            b = bem._row_matvec(gg, w)
            assert b.flags.f_contiguous
            assert b.tobytes(order="A") == np.einsum("pdm,pm->pd", gg, w, order="F").tobytes(order="A")

    def test_step_bound_guard(self):
        model = ou_model(1.0, 1.0)  # L = 0.5
        batch = simulate_bem(model, BemConfig(h=0.1, t_horizon=0.2, h0=0.25, x0=[0.0]), seed=1, n_paths=1)
        with pytest.raises(StepBoundViolation):
            z_sequence(model, batch, 1.0)

    def test_partial_sums_of_another_h0_raise(self):
        # S was divided by 1 - 2 h0 L of the simulated h0 = 0.25; another h0 would need another S
        model = ou_model(1.0, 1.0)
        batch = simulate_bem(model, BemConfig(h=0.1, t_horizon=0.2, h0=0.25, x0=[0.0]), seed=1, n_paths=1)
        with pytest.raises(InvalidSpec, match="divided by 0.75"):
            z_sequence(model, batch, 0.2)


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

    @pytest.mark.parametrize(
        "L, T, x0_norm, g_x0_norm, exc",
        [
            (math.nan, 1.0, 1.0, 1.0, InvalidSpec),
            (1.0, math.inf, 1.0, 1.0, InvalidSpec),
            (1.0, 1.0, math.nan, 1.0, NegativeInput),
            (1.0, 1.0, -1.0, 1.0, NegativeInput),
            (1.0, 1.0, 1.0, math.nan, NegativeInput),
        ],
    )
    def test_nan_infinite_or_negative_inputs_raise(self, L, T, x0_norm, g_x0_norm, exc):
        with pytest.raises(exc):
            apriori_moment_bound(0.5, L, T, 0.25, x0_norm, g_x0_norm)

    @pytest.mark.parametrize("x0_norm, g_x0_norm", [(math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_norms_raise(self, x0_norm, g_x0_norm):
        with pytest.raises(NegativeInput):
            apriori_moment_bound(0.5, 1.0, 1.0, 0.25, x0_norm, g_x0_norm)


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

    @pytest.mark.parametrize("h", [0.1, 0.25])
    def test_one_diffusion_call_per_step(self, h):
        calls = []
        base = ou_model(1.0, 1.0)

        def diffusion(y):
            calls.append(y.shape[0])
            return base.diffusion(y)

        cfg = BemConfig(h=h, t_horizon=1.0, h0=0.5, x0=[1.0])
        verify_apriori_bound(dataclasses.replace(base, diffusion=diffusion), [cfg], [0.5], 200, seed=3)
        assert len(calls) == cfg.n_steps + 1  # one per step, one for the bound's |g(x0)|

    def test_side_checks_recorded(self):
        model = ou_model(1.0, 1.0)
        cfgs = [BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])]
        report = verify_apriori_bound(model, cfgs, [0.5], 20_000, seed=8)
        assert report.checks["z_mean_zero[h=0.1]"]
        assert report.checks["s_demimartingale[h=0.1]"]

    def test_peak_memory_is_one_simulation(self):
        # the finest h's simulation sets the peak: no batch holds paths, residuals or Z, each h's S
        # is checked in place, and goes before the next h is simulated
        model = ou_model(1.0, 1.0)
        cfgs = [BemConfig(h=h, t_horizon=1.0, h0=0.25, x0=[1.0]) for h in (0.1, 0.2)]
        peaks = []
        for run in (
            lambda: simulate_bem(model, cfgs[0], 7, 20_000),
            lambda: verify_apriori_bound(model, cfgs, [0.25, 0.5], 20_000, seed=7),
        ):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        checked = 20_000 * (cfgs[0].n_steps + 1) * 8
        assert peaks[1] <= peaks[0] + 0.25 * checked

    def test_peak_memory_holds_one_s(self):
        # at h = 0.02 the Newton temporaries are small beside S, the one matrix held (1.37 measured);
        # 2.06 while the batch held Z: Z with its deviations, Z with S, then S with its quantile copy
        model = ou_model()
        cfg = BemConfig(h=0.02, t_horizon=1.0, h0=0.25, x0=[1.0])
        tracemalloc.start()
        try:
            verify_apriori_bound(model, [cfg], [0.25, 0.5], 20_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 20_000 * (cfg.n_steps + 1) * 8

    def test_peak_memory_on_the_cubic_model(self):
        # h = 0.02: S with the Newton temporaries of the 2-D simulation (1.83 measured); 2.06 while
        # the batch held Z, and 5.0 while it held the paths
        model = SdeModel(
            d=2, m=2, drift=_cubic_drift, drift_jacobian=_cubic_jacobian,
            diffusion=lambda y: np.broadcast_to(np.eye(2), (y.shape[0], 2, 2)), L=1.0, osl=-1.0,
        )
        cfg = BemConfig(h=0.02, t_horizon=1.0, h0=0.25, x0=[2.0, -1.0])
        tracemalloc.start()
        try:
            verify_apriori_bound(model, [cfg], [0.25, 0.5], 20_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * 20_000 * (cfg.n_steps + 1) * 8

    @pytest.mark.parametrize(
        "n_paths, seed, exc",
        [(29, 1, DegenerateBatch), (200, 2 ** 64, InvalidSpec), (200, -1, InvalidSpec), (30, 1, AssertionError)],
        ids=["29-paths", "seed-2**64", "negative-seed", "30-paths-simulate"],
    )
    def test_path_count_and_seed_raise_before_simulating(self, monkeypatch, n_paths, seed, exc):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a path was simulated before the path count and seed were checked")

        monkeypatch.setattr(bem, "simulate_bem", no_simulation)
        cfgs = [BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])]
        with pytest.raises(exc):
            verify_apriori_bound(ou_model(), cfgs, [0.5], n_paths, seed=seed)

    def test_grid_entry_below_two_steps_raises_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a path was simulated before the step counts were checked")

        monkeypatch.setattr(bem, "simulate_bem", no_simulation)
        # h = 0.1 gives N = 3, but h = 0.2 gives N = 1: no demimartingale cell
        cfgs = [BemConfig(h=h, t_horizon=0.3, h0=0.25, x0=[1.0]) for h in (0.1, 0.2)]
        with pytest.raises(DegenerateBatch):
            verify_apriori_bound(ou_model(), cfgs, [0.5], 200, seed=1)

    def test_finest_step_above_the_budget_raises_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a path was simulated before the batch size was checked")

        monkeypatch.setattr(bem, "simulate_bem", no_simulation)
        monkeypatch.setattr(generators, "MAX_BATCH_ENTRIES", 1000)
        # 100 paths of h = 0.2 hold 100 x 6 entries, of h = 0.1 100 x 11: only the second h is too large
        cfgs = [BemConfig(h=h, t_horizon=1.0, h0=0.25, x0=[1.0]) for h in (0.2, 0.1)]
        with pytest.raises(BatchTooLarge, match="100 x 11 entries"):
            verify_apriori_bound(ou_model(), cfgs, [0.5], 100, seed=1)

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

    @pytest.mark.parametrize("p_grid", [0.5, "0.5"], ids=["float", "string"])
    def test_scalar_p_grid_raises(self, p_grid):
        cfgs = [BemConfig(h=0.1, t_horizon=1.0, h0=0.25, x0=[1.0])]
        with pytest.raises(InvalidSpec, match="list of exponents"):
            verify_apriori_bound(ou_model(), cfgs, p_grid, 200, seed=1)

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

    @pytest.mark.parametrize(
        "lows, highs, seed",
        [
            ([math.nan], [1.0], 0),
            ([-1.0], [math.inf], 0),
            ([-math.inf], [1.0], 0),
            ([-1.0], [1.0], -1),
            ([-1e308], [1e308], 0),
        ],
        ids=["nan-bound", "inf-upper", "inf-lower", "negative-seed", "overflowing-width"],
    )
    def test_bad_box_or_seed_raises(self, lows, highs, seed):
        with pytest.raises(InvalidSpec):
            coercivity_probe(ou_model(), lows, highs, 16, seed=seed)

    def test_sample_size_passes_the_batch_check(self, monkeypatch):
        with pytest.raises(InvalidSpec):
            coercivity_probe(ou_model(), [-1.0], [1.0], 0, seed=0)
        monkeypatch.setattr(generators, "MAX_BATCH_ENTRIES", 1000)
        assert coercivity_probe(ou_model(), [-1.0], [1.0], 1000, seed=0)["n_samples"] == 1000
        with pytest.raises(BatchTooLarge):
            coercivity_probe(ou_model(), [-1.0], [1.0], 1001, seed=0)

    def test_non_finite_residual_names_the_point(self):
        model = SdeModel(
            d=1, m=1,
            drift=lambda y: np.where(y > 0.0, np.nan, -y),
            diffusion=lambda y: np.zeros((y.shape[0], 1, 1)),
            L=0.0,
        )
        with pytest.raises(InvalidSpec, match=r"probe point \d+, x = \[\d"):
            coercivity_probe(model, [-5.0], [5.0], 256, seed=3)

    @staticmethod
    def _probe_points(lows, highs, n_samples, seed):
        seen = []

        def drift(y):
            seen.append(np.array(y))
            return np.zeros_like(y)

        d = len(lows)
        model = SdeModel(d=d, m=1, drift=drift, diffusion=lambda y: np.zeros((y.shape[0], d, 1)), L=0.0)
        out = coercivity_probe(model, lows, highs, n_samples, seed)
        assert len(seen) == 1 and out["n_samples"] == n_samples == seen[0].shape[0]
        return seen[0]

    @pytest.mark.parametrize("n_samples", [1, 3, 1000, 1025])
    def test_evaluates_exactly_n_samples(self, n_samples):
        assert self._probe_points([-1.0, 0.0], [1.0, 2.0], n_samples, 5).shape == (n_samples, 2)

    def test_points_are_seeded_uniforms_in_the_box(self):
        lows, highs = np.array([-10.0, 2.0]), np.array([10.0, 2.5])
        pts = self._probe_points(lows, highs, 500, 11)
        np.testing.assert_array_equal(pts, self._probe_points(lows, highs, 500, 11))
        np.testing.assert_array_equal(pts, lows + uniform_matrix(11, 500, 2) * (highs - lows))
        assert np.all((lows <= pts) & (pts <= highs))
        assert not np.any(pts == self._probe_points(lows, highs, 500, 12))

    def test_first_points_of_a_longer_probe_are_the_shorter_probe(self):
        longer = self._probe_points([-3.0], [4.0], 300, 9)
        np.testing.assert_array_equal(longer[:37], self._probe_points([-3.0], [4.0], 37, 9))

    @pytest.mark.parametrize("L, passed", [(0.0, False), (1.0, True)])
    def test_power_on_the_cubic_drift(self, L, passed):
        # <f(x), x> + |g|^2/2 = 1 - |x|^2 - |x|^4 with g = I: L = 1 certifies it, and L = 0 fails
        # on the disc |x|^2 < 0.618, about 0.5% of [-10, 10]^2, so some 20 of the 4096 points
        model = SdeModel(
            d=2, m=2,
            drift=lambda y: -y - (y * y).sum(axis=1, keepdims=True) * y,
            diffusion=lambda y: np.broadcast_to(np.eye(2), (y.shape[0], 2, 2)),
            L=L,
        )
        out = coercivity_probe(model, [-10.0, -10.0], [10.0, 10.0], 4096, seed=1)
        assert out["passed"] is passed
        if not passed:
            assert out["min_residual"] < -0.5
