"""Backward Euler-Maruyama integration of coercive SDE systems.

The drift-implicit scheme

    Y^{j+1} = Y^j + h f(Y^{j+1}) + g(Y^j) dW^{j+1},      Y^0 = x0,

is solved per step by damped Newton iteration on the residual (analytic
Jacobian when the model supplies one, finite differences otherwise) from an
explicit predictor.  Every accepted step satisfies the residual tolerance;
steps that do not raise instead of being silently kept.

Under the coercivity condition ``<f(x), x> + |g(x)|^2 / 2 <= L (1 + |x|^2)``
the 2p-norm of the running supremum admits a closed-form a-priori bound
that depends on model constants only, uniformly in the step size h.  The
verification harness estimates the norm across an h-grid and compares every
estimate against that single bound.  It also rebuilds the centered
quadratic noise terms

    Z^{j+1} = |g(Y^j) dW^{j+1}|^2 - h |g(Y^j)|^2 + 2 <g(Y^j) dW^{j+1}, Y^j>

whose normalized partial sums form a demimartingale; both the zero-mean
property of Z and the demimartingale check on the partial sums are part of
the verdict.

Drift and diffusion callables are vectorized over paths: ``drift`` maps
``(M, d) -> (M, d)`` and ``diffusion`` maps ``(M, d) -> (M, d, m)``.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from .demi import TestFunctionFamily, check_demimartingale
from .errors import (
    HGridViolation,
    InvalidSpec,
    NewtonNonConvergence,
    POutOfRange,
    ShapeMismatch,
    StepBoundViolation,
    StepTooLarge,
)
from .generators import TrajectoryBatch
from .reporting import SLACK_SD, VerificationReport, mean_se, one_sided_verdict, root_of_mean
from .rng import normal_matrix

BEM_COLUMNS = ["h", "p", "estimate", "stderr", "bound", "margin", "verdict"]

#: Newton iterations per implicit step before the residual contract is judged
NEWTON_MAX_ITER = 25


# --------------------------------------------------------------------------
# model and configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SdeModel:
    """Coercive SDE system with vectorized drift and diffusion.

    Attributes:
        d, m: state and noise dimensions.
        drift: ``(M, d) -> (M, d)``.
        diffusion: ``(M, d) -> (M, d, m)``.
        L: coercivity constant (see :func:`coercivity_probe`).
        osl: one-sided Lipschitz constant of the drift; only used for the
            implicit-solvability margin ``h * osl < 1``.
        drift_jacobian: optional ``(M, d) -> (M, d, d)``.
    """

    d: int
    m: int
    drift: callable
    diffusion: callable
    L: float
    osl: float = 0.0
    drift_jacobian: callable = None
    label: str = "model"

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise InvalidSpec(f"dimensions must be >= 1, got d={self.d}, m={self.m}")
        if not self.L >= 0.0:
            raise InvalidSpec(f"coercivity constant must be >= 0, got {self.L}")
        if math.isnan(self.osl):
            raise InvalidSpec("one-sided Lipschitz constant is NaN")

    def diffusion_norm(self, x) -> float:
        """Frobenius norm of g at a single state ``x``."""
        g = self.diffusion(np.asarray(x, dtype=np.float64)[None, :])
        return float(np.sqrt((g[0] ** 2).sum()))


@dataclass(frozen=True)
class BemConfig:
    """Step size, horizon and implicit-solver tolerance for one run.

    ``n_steps`` is derived: the ``N_h`` with ``N_h h <= T < (N_h + 1) h``.
    """

    h: float
    t_horizon: float
    h0: float
    x0: np.ndarray
    newton_tol: float = 1e-10
    n_steps: int = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise StepBoundViolation(f"h must lie in (0, 1), got {self.h}")
        if not self.h < self.h0 < math.inf:
            raise StepBoundViolation(f"need h < h0 < inf, got h={self.h}, h0={self.h0}")
        if not self.t_horizon > 0.0:
            raise InvalidSpec(f"horizon must be > 0, got {self.t_horizon}")
        if not self.newton_tol > 0.0:
            raise InvalidSpec(f"newton_tol must be > 0, got {self.newton_tol}")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=np.float64))
        if x0.ndim != 1 or not np.isfinite(x0).all():
            raise InvalidSpec("x0 must be a finite vector")
        object.__setattr__(self, "x0", x0)
        # N_h h <= T < (N_h + 1) h, judged to 1e-9 relative slack
        n = int(math.floor(self.t_horizon / self.h * (1.0 + 1e-9)))
        if n < 1:
            raise InvalidSpec(f"horizon {self.t_horizon} shorter than one step {self.h}")
        object.__setattr__(self, "n_steps", n)

    def validate_against(self, model: SdeModel) -> None:
        """Raise unless ``h0 < 1/(2L)``, x0 matches ``model.d`` and ``h * osl < 1``."""
        if model.L > 0.0 and not self.h0 < 1.0 / (2.0 * model.L):
            raise StepBoundViolation(
                f"h0={self.h0} must be strictly below 1/(2L)={1.0 / (2.0 * model.L)}"
            )
        if self.x0.shape[0] != model.d:
            raise ShapeMismatch(f"x0 has dimension {self.x0.shape[0]}, model expects {model.d}")
        if self.h * model.osl >= 1.0:
            raise StepTooLarge(f"h * osl = {self.h * model.osl} >= 1 breaks the solvability margin")


@dataclass(frozen=True, eq=False)
class BemBatch:
    """Simulated paths, Brownian increments and per-step Newton residuals."""

    paths: np.ndarray        # (M, N+1, d)
    increments: np.ndarray   # (M, N, m)
    residual_norms: np.ndarray  # (M, N)
    h: float
    seed: int
    label: str = ""

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1] - 1

    def sup_norms(self) -> np.ndarray:
        """Per-path running supremum of the Euclidean state norm."""
        return np.sqrt((self.paths ** 2).sum(axis=2)).max(axis=1)


# --------------------------------------------------------------------------
# implicit solver
# --------------------------------------------------------------------------

def _fd_jacobian(model: SdeModel, u, fu) -> np.ndarray:
    d = u.shape[1]
    jac = np.empty((u.shape[0], d, d))
    for k in range(d):
        eps = 1e-7 * (1.0 + np.abs(u[:, k]))
        bumped = u.copy()
        bumped[:, k] += eps
        jac[:, :, k] = (model.drift(bumped) - fu) / eps[:, None]
    return jac


def _solve_implicit(model: SdeModel, y, b, h, tol):
    """Solve ``u = y + h f(u) + b`` for every path at once.

    Explicit predictor, then damped Newton with per-path backtracking on the
    residual norm; paths that reached tolerance are frozen.  Returns
    ``(u, residual_norms)``; judging the norms is the caller's job.  A row
    whose line search finds no decrease keeps its last halved candidate.

    Raises:
        NewtonNonConvergence: a singular Newton matrix, which ``h * osl < 1``
            rules out when ``osl`` bounds the drift.
    """

    def residual(u, ys, bs):
        return u - ys - h * model.drift(u) - bs

    eye = np.eye(model.d)
    u = y + h * model.drift(y) + b  # explicit predictor
    r = residual(u, y, b)
    rnorm = np.sqrt((r ** 2).sum(axis=1))
    for _ in range(NEWTON_MAX_ITER):
        active = rnorm > tol
        if not active.any():
            break
        ua, ya, ba, ra_norm = u[active], y[active], b[active], rnorm[active]
        if model.drift_jacobian is not None:
            jf = model.drift_jacobian(ua)
        else:
            jf = _fd_jacobian(model, ua, model.drift(ua))
        try:
            delta = np.linalg.solve(eye[None, :, :] - h * jf, r[active][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            raise NewtonNonConvergence(
                f"singular Newton matrix at h={h:g}: osl={model.osl:g} does not bound the drift"
            ) from None
        # backtracking line search on the residual norm, per path
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


def simulate_bem(model: SdeModel, cfg: BemConfig, seed, n_paths) -> BemBatch:
    """Simulate ``n_paths`` backward Euler-Maruyama paths.

    Brownian increments come from per-path substreams with a fixed draw
    order (m normals per step), so path ``r`` is bit-reproducible from
    ``(seed, r)`` alone and independent of the batch size.
    """
    cfg.validate_against(model)
    n_paths = int(n_paths)
    if n_paths < 1:
        raise InvalidSpec(f"n_paths must be >= 1, got {n_paths}")
    n, d, m = cfg.n_steps, model.d, model.m
    dw = normal_matrix(seed, n_paths, n * m).reshape(n_paths, n, m) * math.sqrt(cfg.h)
    paths = np.empty((n_paths, n + 1, d))
    residuals = np.empty((n_paths, n))
    paths[:, 0, :] = cfg.x0[None, :]
    y = np.broadcast_to(cfg.x0[None, :], (n_paths, d)).copy()
    for j in range(n):
        b = np.einsum("pdm,pm->pd", model.diffusion(y), dw[:, j])
        u, rnorm = _solve_implicit(model, y, b, cfg.h, cfg.newton_tol)
        bad = np.nonzero(~(rnorm <= cfg.newton_tol))[0]
        if bad.size:
            raise NewtonNonConvergence(
                f"residual {rnorm[bad[0]]:.3e} above tolerance {cfg.newton_tol:.1e} "
                f"at path {int(bad[0])}, step {j}",
                path=int(bad[0]),
                step=j,
            )
        paths[:, j + 1, :] = u
        residuals[:, j] = rnorm
        y = u
    return BemBatch(
        paths=paths, increments=dw, residual_norms=residuals, h=cfg.h, seed=int(seed),
        label=f"bem[{model.label},h={cfg.h:g}]",
    )


# --------------------------------------------------------------------------
# centered quadratic noise terms
# --------------------------------------------------------------------------

def noise_terms(model: SdeModel, paths, increments, h) -> np.ndarray:
    """Centered quadratic noise contributions, shape (M, N).

    ``Z^{j+1} = |g(Y^j) dW|^2 - h |g(Y^j)|^2 + 2 <g(Y^j) dW, Y^j>`` has
    conditional mean zero: ``E|g dW|^2 = h |g|^2`` cancels the compensator
    and the cross term is centered.
    """
    paths = np.asarray(paths, dtype=np.float64)
    increments = np.asarray(increments, dtype=np.float64)
    if paths.ndim != 3 or increments.ndim != 3 or paths.shape[1] != increments.shape[1] + 1:
        raise ShapeMismatch(
            f"expected paths (M, N+1, d) with increments (M, N, m), got {paths.shape}, {increments.shape}"
        )
    n = increments.shape[1]
    z = np.empty((paths.shape[0], n))
    for j in range(n):
        y = paths[:, j]
        g = model.diffusion(y)
        gdw = np.einsum("pdm,pm->pd", g, increments[:, j])
        z[:, j] = (gdw ** 2).sum(axis=1) - h * (g ** 2).sum(axis=(1, 2)) + 2.0 * (gdw * y).sum(axis=1)
    return z


def z_sequence(model: SdeModel, paths, increments, h, h0):
    """Noise terms plus their normalized partial sums.

    Accepts one path (``(N+1, d)`` with ``(N, m)`` increments) or a batch
    (leading path axis).  Returns ``(Z, S)`` where
    ``S_n = (1 - 2 h0 L)^{-1} sum_{j<n} Z^{j+1}`` and ``S_0 = 0``.
    """
    paths = np.asarray(paths, dtype=np.float64)
    increments = np.asarray(increments, dtype=np.float64)
    single = paths.ndim == 2
    if single:
        paths = paths[None, :, :]
        increments = increments[None, :, :]
    factor = 1.0 - 2.0 * h0 * model.L
    if not factor > 0.0:
        raise StepBoundViolation(f"need 1 - 2 h0 L > 0, got {factor}")
    z = noise_terms(model, paths, increments, h)
    s = np.hstack([np.zeros((z.shape[0], 1)), np.cumsum(z, axis=1)]) / factor
    if single:
        return z[0], s[0]
    return z, s


# --------------------------------------------------------------------------
# the a-priori bound and its verification
# --------------------------------------------------------------------------

def apriori_moment_bound(p, L, T, h0, x0_norm, g_x0_norm) -> float:
    """Step-size-free bound on ``||sup_j |Y^j|||_{2p}``.

    ``((2-p)/(1-p))^{1/(2p)} exp(LT/(1-2 h0 L))
    (|x0|^2 + (1-2 h0 L)^{-1} (h0 |g(x0)|^2 + 2LT))^{1/2}``.
    The signature takes no ``h``: one value covers every admissible step.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise POutOfRange(f"p must lie in (0, 1), got {p}")
    if L < 0.0 or not T > 0.0:
        raise InvalidSpec(f"need L >= 0 and T > 0, got L={L}, T={T}")
    if not h0 > 0.0 or (L > 0.0 and not h0 < 1.0 / (2.0 * L)):
        raise StepBoundViolation(f"h0 must lie in (0, 1/(2L)), got h0={h0}, L={L}")
    damp = 1.0 - 2.0 * h0 * L
    prefactor = ((2.0 - p) / (1.0 - p)) ** (1.0 / (2.0 * p))
    growth = math.exp(L * T / damp)
    tail = math.sqrt(x0_norm ** 2 + (h0 * g_x0_norm ** 2 + 2.0 * L * T) / damp)
    return prefactor * growth * tail


def sup_norm_estimate(batch: BemBatch, p) -> tuple:
    """Plug-in estimate of ``||sup_j |Y^j|||_{2p}`` with delta-method SE."""
    r = 2.0 * float(p)
    return root_of_mean(batch.sup_norms() ** r, r)


def verify_apriori_bound(
    model: SdeModel,
    cfg_grid,
    p_grid,
    n_paths,
    seed,
    level=0.999,
) -> VerificationReport:
    """Estimate ``||sup_j |Y^j|||_{2p}`` across an h-grid against one bound.

    All configurations must share (T, h0, x0).  Each h is simulated once
    and reused over the p-grid; the bound is computed once per p (it takes
    no h) and every estimate must satisfy
    ``estimate <= bound + SLACK_SD * SE``.  For every h two side conditions
    are recorded as named checks: ``z_mean_zero[h=...]``, every column mean
    of the noise terms Z within ``SLACK_SD`` standard errors of zero, and
    ``s_demimartingale[h=...]``, the demimartingale check at ``level`` on
    their normalized partial sums.  An empty ``cfg_grid`` raises
    :class:`HGridViolation`, and an empty ``p_grid`` or a ``level`` outside
    (0, 1) :class:`InvalidSpec`, all before any simulation.
    """
    cfg_grid = list(cfg_grid)
    if not cfg_grid:
        raise HGridViolation("empty step-size grid")
    p_grid = [float(p) for p in (p_grid if np.ndim(p_grid) else [p_grid])]
    if not p_grid:
        raise InvalidSpec("empty p_grid: need at least one exponent")
    if not 0.0 < level < 1.0:
        raise InvalidSpec(f"level must lie in (0, 1), got {level}")
    t0, b0, x0 = cfg_grid[0].t_horizon, cfg_grid[0].h0, cfg_grid[0].x0
    for cfg in cfg_grid:
        if cfg.t_horizon != t0 or cfg.h0 != b0 or not np.array_equal(cfg.x0, x0):
            raise HGridViolation("grid entries must share (T, h0, x0)")
        cfg.validate_against(model)
    x0_norm = float(np.sqrt((x0 ** 2).sum()))
    g0_norm = model.diffusion_norm(x0)
    bounds = {p: apriori_moment_bound(p, model.L, t0, b0, x0_norm, g0_norm) for p in p_grid}
    report = VerificationReport(command="bem", columns=BEM_COLUMNS, seeds=[int(seed)])
    for cfg in cfg_grid:
        batch = simulate_bem(model, cfg, seed, n_paths)
        for p in p_grid:
            estimate, se = sup_norm_estimate(batch, p)
            report.add_row(
                h=cfg.h, p=p, estimate=estimate, stderr=se, bound=bounds[p],
                **one_sided_verdict(estimate, se, bounds[p], 0.0),
            )
        z, s = z_sequence(model, batch.paths, batch.increments, cfg.h, b0)
        col_mean, col_se = mean_se(z)
        z_ok = np.all(np.abs(col_mean) <= SLACK_SD * col_se + 1e-15)
        report.checks[f"z_mean_zero[h={cfg.h:g}]"] = bool(z_ok)
        s_batch = TrajectoryBatch(s, label=f"z-partial-sums[h={cfg.h:g}]", starts_at_zero=True)
        demi = check_demimartingale(s_batch, TestFunctionFamily.default(s_batch), level=level)
        report.checks[f"s_demimartingale[h={cfg.h:g}]"] = demi.overall_pass
    return report


def coercivity_probe(model: SdeModel, lows, highs, n_samples, seed) -> dict:
    """Evaluate the coercivity residual on quasi-random box points.

    Returns the minimum of ``L (1 + |x|^2) - <f(x), x> - |g(x)|^2 / 2``
    over a scrambled Sobol sample; a negative minimum means the stated L
    does not certify the model on that box.
    """
    lows = np.atleast_1d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_1d(np.asarray(highs, dtype=np.float64))
    if lows.shape != (model.d,) or highs.shape != (model.d,) or np.any(highs <= lows):
        raise InvalidSpec("probe box must be nondegenerate and match the state dimension")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise InvalidSpec(f"n_samples must be >= 1, got {n_samples}")
    sampler = qmc.Sobol(d=model.d, scramble=True, seed=int(seed))
    pts = qmc.scale(sampler.random_base2(max(1, math.ceil(math.log2(n_samples)))), lows, highs)
    f = model.drift(pts)
    g = model.diffusion(pts)
    resid = (
        model.L * (1.0 + (pts ** 2).sum(axis=1))
        - (f * pts).sum(axis=1)
        - 0.5 * (g ** 2).sum(axis=(1, 2))
    )
    k = int(np.argmin(resid))
    return {
        "min_residual": float(resid[k]),
        "argmin": [float(v) for v in pts[k]],
        "n_samples": int(pts.shape[0]),
        "passed": bool(resid[k] >= 0.0),
    }


# --------------------------------------------------------------------------
# test-model zoo (each L verified analytically, re-checkable by probe)
# --------------------------------------------------------------------------

def _rates(kappa, sigma) -> tuple:
    """``(kappa, sigma)`` as floats: kappa finite and >= 0, sigma finite."""
    kappa, sigma = float(kappa), float(sigma)
    if not 0.0 <= kappa < math.inf:
        raise InvalidSpec(f"kappa must be finite and >= 0, got {kappa}")
    if not math.isfinite(sigma):
        raise InvalidSpec(f"sigma must be finite, got {sigma}")
    return kappa, sigma


def ou_model(kappa=1.0, sigma=1.0) -> SdeModel:
    """Mean-reverting scalar model: f(x) = -kappa x, g = sigma.

    ``<f(x), x> + g^2/2 = -kappa x^2 + sigma^2/2 <= (sigma^2/2)(1 + x^2)``
    for ``kappa >= 0``, so ``L = sigma^2 / 2``.
    """
    kappa, sigma = _rates(kappa, sigma)
    return SdeModel(
        d=1, m=1,
        drift=lambda y: -kappa * y,
        diffusion=lambda y: np.full((y.shape[0], 1, 1), sigma),
        drift_jacobian=lambda y: np.full((y.shape[0], 1, 1), -kappa),
        L=0.5 * sigma ** 2,
        osl=-kappa,
        label=f"ou[kappa={kappa:g},sigma={sigma:g}]",
    )


def frozen_model(dim=1) -> SdeModel:
    """No drift, no noise: paths stay at x0 exactly."""
    dim = int(dim)
    return SdeModel(
        d=dim, m=1,
        drift=lambda y: np.zeros_like(y),
        diffusion=lambda y: np.zeros((y.shape[0], dim, 1)),
        drift_jacobian=lambda y: np.zeros((y.shape[0], dim, dim)),
        L=0.0,
        osl=0.0,
        label=f"frozen[d={dim}]",
    )


def linear_model(matrix, sigma=0.0) -> SdeModel:
    """Linear drift f(x) = A x with optional isotropic noise g = sigma I.

    ``L = max(0, lambda_max((A + A^T)/2)) + sigma^2 d / 2`` certifies the
    coercivity condition; the symmetric-part eigenvalue also serves as the
    one-sided Lipschitz constant.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidSpec(f"matrix must be square, got shape {a.shape}")
    d = a.shape[0]
    sigma = float(sigma)
    lam = float(np.linalg.eigvalsh(0.5 * (a + a.T)).max())
    if sigma == 0.0:
        diffusion = lambda y: np.zeros((y.shape[0], d, 1))
        m = 1
    else:
        g0 = sigma * np.eye(d)
        diffusion = lambda y: np.broadcast_to(g0, (y.shape[0], d, d))
        m = d
    return SdeModel(
        d=d, m=m,
        drift=lambda y: y @ a.T,
        diffusion=diffusion,
        drift_jacobian=lambda y: np.broadcast_to(a, (y.shape[0], d, d)),
        L=max(0.0, lam) + 0.5 * sigma ** 2 * d,
        osl=lam,
        label=f"linear[d={d}]",
    )


def bounded_diffusion_model(kappa=1.0, sigma=1.0) -> SdeModel:
    """Scalar model with saturating noise g(x) = sigma x / (1 + x^2).

    ``|g| <= sigma / 2`` everywhere, so ``L = sigma^2 / 8`` works for any
    ``kappa >= 0``.
    """
    kappa, sigma = _rates(kappa, sigma)
    return SdeModel(
        d=1, m=1,
        drift=lambda y: -kappa * y,
        diffusion=lambda y: (sigma * y / (1.0 + y ** 2))[:, :, None],
        drift_jacobian=lambda y: np.full((y.shape[0], 1, 1), -kappa),
        L=sigma ** 2 / 8.0,
        osl=-kappa,
        label=f"bounded_diffusion[kappa={kappa:g},sigma={sigma:g}]",
    )
