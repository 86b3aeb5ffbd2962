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
estimate against that single bound.  Each step also records the centered
quadratic noise term

    Z^{j+1} = |g(Y^j) dW^{j+1}|^2 - h |g(Y^j)|^2 + 2 <g(Y^j) dW^{j+1}, Y^j>

from the same ``g(Y^j) dW^{j+1}`` that drives it; the normalized partial
sums of Z form a demimartingale, and both the zero-mean property of Z and
the demimartingale check on the partial sums are part of the verdict.

Drift and diffusion callables are vectorized over paths: ``drift`` maps
``(M, d) -> (M, d)`` and ``diffusion`` maps ``(M, d) -> (M, d, m)``.  The
solver keeps its per-path state column-major and hands the callables
Fortran-ordered ``(M, d)`` arrays, so a sum over the state axis adds ``d``
contiguous columns.  Model code must not assume a memory layout; ``reshape``
and slicing are fine.  Every callable, the Jacobian too, must act row by
row: row ``i`` of its result depends on row ``i`` of its input alone.  The
solver calls them on subsets of rows (the rows whose Newton iteration has
not converged) and solves each step in contiguous row blocks of about
:data:`NEWTON_BLOCK_ENTRIES` state entries, so one call never sees the
whole batch.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .demi import DEMI_MIN_PATHS, DEMI_MIN_STEPS, TestFunctionFamily, check_demimartingale
from .errors import (
    DegenerateBatch,
    HGridViolation,
    InvalidSpec,
    NegativeInput,
    NewtonNonConvergence,
    ShapeMismatch,
    StepBoundViolation,
    StepTooLarge,
)
from .generators import TrajectoryBatch, check_batch, partial_sums
from .reporting import VerificationReport, exponent_list, mean_se, one_sided_verdict, root_of_mean, unit_exponent
# normal_matrix stays importable here: perfbench/tracer.py wraps it by this name
from .rng import _as_seed, draw_columns, normal_matrix, uniform_matrix  # noqa: F401

BEM_COLUMNS = ["h", "p", "estimate", "stderr", "bound", "margin", "verdict"]

#: Newton iterations per implicit step before the residual contract is judged
NEWTON_MAX_ITER = 25

#: state entries (rows x d) that one Newton solve takes at a time: a step is solved in as few
#: even row blocks as keep each within it
NEWTON_BLOCK_ENTRIES = 1 << 15


# --------------------------------------------------------------------------
# model and configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SdeModel:
    """Coercive SDE system with vectorized drift and diffusion.

    The solver calls every callable with a column-major ``(M, d)`` state;
    results may have any layout.  Each callable must act row by row: the
    solver calls them on row blocks of the batch and on the rows whose
    Newton iteration has not converged, so ``M`` varies from call to call.

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
        if not 0.0 < self.t_horizon < math.inf:
            raise InvalidSpec(f"horizon must be finite and > 0, got {self.t_horizon}")
        if not 0.0 < self.newton_tol < math.inf:
            raise InvalidSpec(f"newton_tol must be finite and > 0, got {self.newton_tol}")
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


class BemBatch:
    """Partial sums of the noise terms Z, their column moments, running sup norms and largest Newton residual.

    :func:`simulate_bem` keeps each step's column of Z only long enough to
    fold it into the normalized partial sums S and the column's mean and
    standard error; it also folds each path's running maximum of
    ``|Y^j|^2`` and the largest residual norm of the step's Newton solves.
    No path, residual, increment or Z matrix is held.  A batch is made by
    :func:`simulate_bem`.

    Attributes:
        partial_sums: ``(M, N+1)`` time-major (Fortran order),
            ``S_n = (1 - 2 h0 L)^{-1} sum_{j<n} Z^{j+1}`` in column ``n``,
            with ``S_0 = 0``.
        factor: ``1 - 2 h0 L``, which S is divided by.
        z_mean, z_se: length-N arrays, the mean and standard error of
            ``Z^{j+1}`` over the paths at ``j``: the bits of ``mean_se(Z)``.
        max_residual: the largest Newton residual norm over every path and
            step, at most ``newton_tol``.
    """

    def __init__(self, partial_sums, factor, z_mean, z_se, sup_sq, max_residual):
        self.partial_sums, self.factor, self.z_mean, self.z_se = partial_sums, factor, z_mean, z_se
        self._sup_sq, self.max_residual = sup_sq, max_residual

    @property
    def n_paths(self) -> int:
        return self.partial_sums.shape[0]

    @property
    def n_steps(self) -> int:
        return self.partial_sums.shape[1] - 1

    def sup_norms(self) -> np.ndarray:
        """Per-path running supremum of the Euclidean state norm, ``max_j |Y^j|``.

        The square root of the running maximum of ``|Y^j|^2`` that
        :func:`simulate_bem` folds in as it accepts each step.
        """
        return np.sqrt(self._sup_sq)


def _row_dot(x, y) -> np.ndarray:
    """``(x * y).sum(axis=-1)``, summed one coordinate at a time.

    Bit for bit numpy's sum for at most 7 coordinates, where numpy also adds
    left to right; from 8 on numpy sums pairwise and the last bits may
    differ.  A row reduction costs numpy far more than a few column adds.
    """
    out = x[..., 0] * y[..., 0]
    for k in range(1, x.shape[-1]):
        out += x[..., k] * y[..., k]
    return out


def _row_matvec(g, w) -> np.ndarray:
    """``g[i] @ w[i]`` for every row of ``(M, d, m)`` and ``(M, m)`` arrays, column-major.

    Each entry is summed from 0.0 one noise coordinate at a time, as
    ``np.einsum("pdm,pm->pd", g, w)`` sums, with its bits: a ``-0.0`` sum
    becomes 0.0.  For ``d, m <= 2`` at 20 000 rows this takes about as long
    as einsum's call.
    """
    out = np.zeros(g.shape[:2], order="F")
    for i in range(g.shape[1]):
        column = out[:, i]
        for k in range(g.shape[2]):
            column += g[:, i, k] * w[:, k]
    return out


def _sq_norm(x) -> np.ndarray:
    """Squared Euclidean norm over the last axis (see :func:`_row_dot`)."""
    return _row_dot(x, x)


def _take_rows(x, rows) -> np.ndarray:
    """``x[rows]`` of a column-major ``(M, d)`` array, column-major again.

    ``take`` along the transpose's contiguous axis gathers one column at a
    time: 0.03 ms for 90% of 20 000 x 2 rows, against 0.38 ms for fancy
    indexing and 0.46 ms for ``take`` along axis 0, which both return
    row-major copies.
    """
    return x.T.take(rows, axis=1).T


# --------------------------------------------------------------------------
# implicit solver
# --------------------------------------------------------------------------

def _fd_jacobian(model: SdeModel, u, fu) -> np.ndarray:
    d = u.shape[1]
    jac = np.empty((u.shape[0], d, d))
    for k in range(d):
        eps = 1e-7 * (1.0 + np.abs(u[:, k]))
        bumped = u.copy(order="F")
        bumped[:, k] += eps
        jac[:, :, k] = (model.drift(bumped) - fu) / eps[:, None]
    return jac


#: the smallest normal binary64 number, LAPACK's ``sfmin``
_TINY = np.finfo(np.float64).tiny


def _solve_2x2(matrix, r) -> np.ndarray:
    """LU with partial pivoting in closed form, each step rounded as written."""
    a11, a12, a21, a22 = (matrix[:, i, j] for i in (0, 1) for j in (0, 1))
    b1, b2 = r[:, 0], r[:, 1]
    swap = np.abs(a21) > np.abs(a11)
    if swap.any():
        a11, a21 = np.where(swap, a21, a11), np.where(swap, a11, a21)
        a12, a22 = np.where(swap, a22, a12), np.where(swap, a12, a22)
        b1, b2 = np.where(swap, b2, b1), np.where(swap, b1, b2)
    out = np.empty((r.shape[0], 2), order="F")
    with np.errstate(all="ignore"):  # rows that overflow or divide by zero are redone below
        l = a21 * (1.0 / a11)
        u22 = a22 - l * a12
        x2 = np.divide(b2 - l * b1, u22, out=out[:, 1])
        np.divide(b1 - a12 * x2, a11, out=out[:, 0])
    # rows whose closed form is not finite (singular or overflowing ones, NaN entries) and subnormal
    # pivots, which LAPACK divides by instead of scaling by the reciprocal: LAPACK decides, and raises
    bad = ~np.isfinite(out).all(axis=1) | (np.abs(a11) < _TINY)
    if bad.any():
        out[bad] = np.linalg.solve(matrix[bad], r[bad][:, :, None])[:, :, 0]
    return out


def _newton_delta(matrix, r) -> np.ndarray:
    """Solve ``matrix[i] @ delta[i] = r[i]`` for every row; ``delta`` is column-major.

    Small systems are solved in closed form, elementwise IEEE arithmetic
    that gives the same bits on every OpenBLAS core and SIMD dispatch target:

    * 1 x 1 is a division, the same on every OpenBLAS core; a zero pivot
      raises ``LinAlgError`` as LAPACK does.
    * 2 x 2 is LU with partial pivoting, unfused: it swaps the rows only
      when ``|a21| > |a11|``, then rounds ``l = a21 * (1 / a11)``,
      ``u22 = a22 - l * a12``, ``x2 = (b2 - l * b1) / u22`` and
      ``x1 = (b1 - a12 * x2) / a11`` as written.  Rows whose result is not
      finite, singular ones included, or whose pivot is subnormal go to
      ``np.linalg.solve``, which raises ``LinAlgError`` on a singular one.
      This is bit for bit what ``np.linalg.solve`` gives with OpenBLAS's
      Haswell, Zen, Sandybridge, Nehalem and Prescott kernels
      (``OPENBLAS_CORETYPE``), which do not fuse the substitution;
      SkylakeX's fuse it and differ in the last bits.
    * Larger systems go to ``np.linalg.solve``.
    """
    d = matrix.shape[1]
    if d == 1:
        if not matrix.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return r / matrix[:, :, 0]
    if d == 2:
        return _solve_2x2(matrix, r)
    return np.asfortranarray(np.linalg.solve(matrix, r[:, :, None])[:, :, 0])


def _solve_implicit(model: SdeModel, y, b, h, tol):
    """Solve ``u = y + h f(u) + b`` for every path at once.

    Explicit predictor, then damped Newton with per-path backtracking on the
    residual norm; paths that reached tolerance are frozen.  Returns the
    states and their residual norms, ``(u, rnorm)``; judging the norms is
    the caller's job.  A row whose line search finds no decrease keeps its
    last halved candidate.

    Raises:
        NewtonNonConvergence: a singular Newton matrix, which ``h * osl < 1``
            rules out when ``osl`` bounds the drift.
    """

    def residual(u, ys, bs):
        return u - ys - h * model.drift(u) - bs

    eye = np.eye(model.d)
    u = y + h * model.drift(y) + b  # explicit predictor
    r = residual(u, y, b)
    rnorm = np.sqrt(_sq_norm(r))
    for _ in range(NEWTON_MAX_ITER):
        active = np.flatnonzero(rnorm > tol)
        every = active.size == rnorm.size
        if every:  # no copies until some row converges
            ua, ya, ba, ra, ra_norm = u, y, b, r, rnorm
        elif active.size:
            ua, ya, ba, ra = (_take_rows(x, active) for x in (u, y, b, r))
            ra_norm = rnorm.take(active)
        else:
            break
        if model.drift_jacobian is not None:
            jf = model.drift_jacobian(ua)
        else:
            jf = _fd_jacobian(model, ua, model.drift(ua))
        try:
            delta = _newton_delta(eye[None, :, :] - h * jf, ra)
        except np.linalg.LinAlgError:
            raise NewtonNonConvergence(
                f"singular Newton matrix at h={h:g}: osl={model.osl:g} does not bound the drift"
            ) from None
        # backtracking line search on the residual norm, per path
        alpha = np.ones(ua.shape[0])
        cand = ua - delta
        rc = residual(cand, ya, ba)
        rcn = np.sqrt(_sq_norm(rc))
        stuck = (rcn >= ra_norm) & (rcn > tol)
        for _ in range(15):
            back = np.flatnonzero(stuck)
            if not back.size:
                break
            alpha[back] *= 0.5
            cb = _take_rows(ua, back) - alpha[back, None] * _take_rows(delta, back)
            rb = residual(cb, _take_rows(ya, back), _take_rows(ba, back))
            cand[back], rc[back] = cb, rb
            rcn[back] = np.sqrt(_sq_norm(rb))
            stuck = (rcn >= ra_norm) & (rcn > tol)
        if every:
            u, r, rnorm = cand, rc, rcn
        else:
            for k in range(model.d):  # one 1-D scatter per coordinate beats a 2-D one
                u[:, k][active], r[:, k][active] = cand[:, k], rc[:, k]
            rnorm[active] = rcn
    return u, rnorm


def _newton_blocks(n_rows, d) -> int:
    """Row blocks of a step's solve: the fewest that hold at most :data:`NEWTON_BLOCK_ENTRIES` entries each."""
    return min(n_rows, -(-n_rows * d // NEWTON_BLOCK_ENTRIES))


def _solve_blocks(model: SdeModel, y, b, h, tol):
    """:func:`_solve_implicit` over contiguous row blocks, one after another on the calling thread.

    The blocks are as even as :func:`~demigronwall.generators.row_blocks`
    makes them (:func:`_newton_blocks` of them), so a step holds one
    block's Newton state, not the whole batch's.  Newton is row-local, so
    the bits do not depend on the blocks.  The blocks run serially because
    a profiler may have wrapped the model's callables, which no pool
    thread may call.  A block's ``y`` is copied column-major, since the
    model is called on it; its ``b`` is only added, so it stays a view.
    One block is solved on the step's own arrays, with no copy.
    """
    n_rows = y.shape[0]
    blocks = _newton_blocks(n_rows, model.d)
    if blocks == 1:
        return _solve_implicit(model, y, b, h, tol)
    u, rnorm = np.empty(y.shape, order="F"), np.empty(n_rows)
    bounds = [n_rows * i // blocks for i in range(blocks + 1)]
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        rows = slice(r0, r1)
        u[rows], rnorm[rows] = _solve_implicit(model, np.asfortranarray(y[rows]), b[rows], h, tol)
    return u, rnorm


def _check_size(n_steps, n_paths) -> int:
    """``n_paths`` as an int, checked before anything is drawn: the partial sums S, ``(M, N+1)``, must fit."""
    return check_batch(n_paths, n_steps, n_steps + 1)[0]


def _bem_steps(model: SdeModel, cfg: BemConfig, seed, n_paths):
    """Take the implicit steps of ``n_paths`` paths, yielding ``(z, u, rnorm)`` for each step in order.

    The one stepping loop: :func:`simulate_bem` folds the noise terms into
    their partial sums and column moments and the states and residual
    norms into running maxima.  Step ``j``
    draws its Fortran ``(M, m)`` tile of increments when it reaches it
    (:func:`~demigronwall.rng.draw_columns`), evaluates ``g(Y^j)`` once,
    lets the tile go once ``g dW`` is formed, solves the implicit step in
    row blocks (:func:`_solve_blocks`) and yields the noise terms
    ``z = Z^{j+1}``, the column-major state ``u = Y^{j+1}`` and its Newton
    residual norms, once every norm meets ``cfg.newton_tol``; the first
    step that does not raises :class:`NewtonNonConvergence` naming its
    first failing path.
    """
    n, m = cfg.n_steps, model.m
    sqrt_h = math.sqrt(cfg.h)
    y = np.array(np.broadcast_to(cfg.x0, (n_paths, model.d)), order="F")
    j = 0
    for dw in draw_columns(seed, n_paths, n * m, "normal", width=m):  # no enumerate: its result tuple would hold dw
        dw *= sqrt_h
        g = model.diffusion(y)
        b = _row_matvec(g, dw)
        del dw  # before the solve
        u, rnorm = _solve_blocks(model, y, b, cfg.h, cfg.newton_tol)
        bad = np.nonzero(~(rnorm <= cfg.newton_tol))[0]
        if bad.size:
            raise NewtonNonConvergence(
                f"residual {rnorm[bad[0]]:.3e} above tolerance {cfg.newton_tol:.1e} "
                f"at path {int(bad[0])}, step {j}",
                path=int(bad[0]),
                step=j,
            )
        # |g|^2 sums the d * m entries in row-major order; made after the solve, whose temporaries are gone
        yield _sq_norm(b) - cfg.h * _sq_norm(g.reshape(n_paths, -1)) + 2.0 * _row_dot(b, y), u, rnorm
        y = u
        j += 1


def _sum_factor(model: SdeModel, h0) -> float:
    """``1 - 2 h0 L``, the divisor of the partial sums S; raises :class:`StepBoundViolation` unless it is > 0."""
    factor = 1.0 - 2.0 * h0 * model.L
    if not factor > 0.0:
        raise StepBoundViolation(f"need 1 - 2 h0 L > 0, got {factor}")
    return factor


def simulate_bem(model: SdeModel, cfg: BemConfig, seed, n_paths) -> BemBatch:
    """Simulate ``n_paths`` backward Euler-Maruyama paths.

    Brownian increments come from per-path substreams with a fixed draw
    order (m normals per step), so path ``r`` is bit-reproducible from
    ``(seed, r)`` alone and independent of the batch size.  Step ``j``
    draws its Fortran ``(M, m)`` tile of increments when it reaches it
    (:func:`~demigronwall.rng.draw_columns`), with the bits of columns
    ``j m .. j m + m - 1`` of ``normal_matrix(seed, M, N m)``, so no
    ``(M, N m)`` matrix is held.
    Each step evaluates ``g(Y^j)`` once and forms its noise term
    ``Z^{j+1} = |g dW|^2 - h |g|^2 + 2 <g dW, Y^j>``, which has
    conditional mean zero: ``E|g dW|^2 = h |g|^2`` cancels the compensator
    and the cross term is centered.

    Each step's column of Z is folded as the step is accepted, then
    dropped: its mean and standard error (``mean_se`` of the column, the
    bits of ``mean_se(Z)``) and its running sum
    (:func:`~demigronwall.generators.partial_sums`, with the bits of the
    row-wise ``np.cumsum`` of Z), which is divided by ``1 - 2 h0 L``
    (``cfg.h0``) as the column of S.  Each path's running maximum
    of ``|Y^j|^2`` and the largest Newton residual norm are folded in too;
    the paths, residual norms and Z are not held.  Every step's residual
    contract is judged here.  The configuration, size and seed are checked
    before anything is allocated.
    """
    cfg.validate_against(model)
    n_paths = _check_size(cfg.n_steps, n_paths)
    seed = int(_as_seed(seed))
    factor = _sum_factor(model, cfg.h0)
    z_mean, z_se = np.empty(cfg.n_steps), np.empty(cfg.n_steps)
    sup_sq = np.full(n_paths, _sq_norm(cfg.x0))
    max_residual = 0.0

    def folded():  # no enumerate: its reused result tuple would hold the last Z through the next step
        nonlocal max_residual
        j = 0
        for z, u, rnorm in _bem_steps(model, cfg, seed, n_paths):
            z_mean[j], z_se[j] = mean_se(z)
            np.maximum(sup_sq, _sq_norm(u), out=sup_sq)
            max_residual = max(max_residual, float(rnorm.max()))
            yield z
            del z, u, rnorm  # before the next step is taken
            j += 1

    s = partial_sums(n_paths, cfg.n_steps, folded())
    s /= factor
    return BemBatch(s, factor, z_mean, z_se, sup_sq, max_residual)


def z_sequence(model: SdeModel, batch: BemBatch, h0) -> np.ndarray:
    """The batch's normalized partial sums of the noise terms Z, ``(M, N+1)``.

    ``S_n = (1 - 2 h0 L)^{-1} sum_{j<n} Z^{j+1}`` with ``S_0 = 0``,
    time-major (Fortran order): the batch's own ``partial_sums``, which
    :func:`simulate_bem` summed step by step, so no second S is made.
    ``1 - 2 h0 L`` must be > 0 (else :class:`StepBoundViolation`) and
    equal the divisor the batch was simulated with (else
    :class:`InvalidSpec`).
    """
    factor = _sum_factor(model, h0)
    if factor != batch.factor:
        raise InvalidSpec(f"the batch's partial sums are divided by {batch.factor!r}, not 1 - 2 h0 L = {factor!r}")
    return batch.partial_sums


# --------------------------------------------------------------------------
# the a-priori bound and its verification
# --------------------------------------------------------------------------

def apriori_moment_bound(p, L, T, h0, x0_norm, g_x0_norm) -> float:
    """Step-size-free bound on ``||sup_j |Y^j|||_{2p}``.

    ``((2-p)/(1-p))^{1/(2p)} exp(LT/(1-2 h0 L))
    (|x0|^2 + (1-2 h0 L)^{-1} (h0 |g(x0)|^2 + 2LT))^{1/2}``.
    The signature takes no ``h``: one value covers every admissible step.
    A ``p`` outside (0, 1) raises :class:`POutOfRange`, a negative or NaN
    ``L`` or a ``T`` outside (0, inf) :class:`InvalidSpec`, a negative, NaN
    or infinite norm :class:`NegativeInput` and an ``h0`` outside
    (0, 1/(2L)) :class:`StepBoundViolation`.
    """
    p = unit_exponent(p)
    if not (L >= 0.0 and 0.0 < T < math.inf):
        raise InvalidSpec(f"need L >= 0 and finite T > 0, got L={L}, T={T}")
    if not (0.0 <= x0_norm < math.inf and 0.0 <= g_x0_norm < math.inf):
        raise NegativeInput(f"norms must be finite and >= 0, got |x0|={x0_norm}, |g(x0)|={g_x0_norm}")
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


def _check_grid(model: SdeModel, cfg_grid) -> tuple:
    """Return the (T, h0, x0) that all configurations share; raise at the first that breaks a grid rule."""
    t0, b0, x0 = cfg_grid[0].t_horizon, cfg_grid[0].h0, cfg_grid[0].x0
    for cfg in cfg_grid:
        if cfg.t_horizon != t0 or cfg.h0 != b0 or not np.array_equal(cfg.x0, x0):
            raise HGridViolation("grid entries must share (T, h0, x0)")
        if cfg.n_steps < DEMI_MIN_STEPS:
            raise DegenerateBatch(f"h={cfg.h:g} gives {cfg.n_steps} step(s), need {DEMI_MIN_STEPS} for the demi check")
        cfg.validate_against(model)
    return t0, b0, x0


def verify_apriori_bound(
    model: SdeModel,
    cfg_grid,
    p_grid,
    n_paths,
    seed,
) -> VerificationReport:
    """Estimate ``||sup_j |Y^j|||_{2p}`` across an h-grid against one bound.

    All configurations must share (T, h0, x0).  Each h is simulated once
    and reused over the p-grid; the bound is computed once per p (it takes
    no h) and every estimate must satisfy
    ``estimate <= bound + SLACK_SD * SE``.  For every h two side conditions
    are recorded as named checks: ``z_mean_zero[h=...]``, every column mean
    of the noise terms Z, as each step folded it, within ``SLACK_SD``
    standard errors of zero, and
    ``s_demimartingale[h=...]``, the demimartingale check on their
    normalized partial sums.  ``p_grid`` is a list of exponents.  An empty
    ``cfg_grid`` raises :class:`HGridViolation`, a scalar or empty
    ``p_grid``, ``n_paths < 1`` or a seed outside the unsigned 64-bit range
    :class:`InvalidSpec`, fewer than :data:`~demigronwall.demi.DEMI_MIN_PATHS`
    paths or a configuration with fewer than
    :data:`~demigronwall.demi.DEMI_MIN_STEPS` steps :class:`DegenerateBatch`
    and a finest h above the batch budget :class:`BatchTooLarge`, all before any simulation.

    Of each h's batch only the sup norms, Z's column moments and S are
    read.  S is the one matrix that a batch holds, and it is checked in
    place: no call holds two ``(M, N+1)`` matrices at once.
    """
    cfg_grid = list(cfg_grid)
    if not cfg_grid:
        raise HGridViolation("empty step-size grid")
    p_grid = [float(p) for p in exponent_list(p_grid)]
    t0, b0, x0 = _check_grid(model, cfg_grid)
    n_paths = _check_size(max(cfg.n_steps for cfg in cfg_grid), n_paths)
    if n_paths < DEMI_MIN_PATHS:
        raise DegenerateBatch(f"need at least {DEMI_MIN_PATHS} paths for usable standard errors, got {n_paths}")
    seed = int(_as_seed(seed))
    x0_norm = float(np.sqrt((x0 ** 2).sum()))
    g0_norm = model.diffusion_norm(x0)
    bounds = {p: apriori_moment_bound(p, model.L, t0, b0, x0_norm, g0_norm) for p in p_grid}
    report = VerificationReport(command="bem", columns=BEM_COLUMNS, seeds=[seed])
    for cfg in cfg_grid:
        batch = simulate_bem(model, cfg, seed, n_paths)
        for p in p_grid:
            estimate, se = sup_norm_estimate(batch, p)
            report.add_row(
                h=cfg.h, p=p, estimate=estimate, stderr=se, bound=bounds[p],
                **one_sided_verdict(estimate, se, bounds[p], 0.0),
            )
        report.checks[f"z_mean_zero[h={cfg.h:g}]"] = all(
            one_sided_verdict(abs(m), se, 0.0, 0.0)["verdict"] == "pass" for m, se in zip(batch.z_mean, batch.z_se)
        )
        s_batch = TrajectoryBatch(z_sequence(model, batch, b0), label=f"z-partial-sums[h={cfg.h:g}]")
        del batch  # S, now the only matrix held, is checked in place
        demi = check_demimartingale(s_batch, TestFunctionFamily.default(s_batch))
        report.checks[f"s_demimartingale[h={cfg.h:g}]"] = demi.overall_pass
        del s_batch, demi  # before the next h is simulated
    return report


def coercivity_probe(model: SdeModel, lows, highs, n_samples, seed) -> dict:
    """Evaluate the coercivity residual on seeded uniform box points.

    Returns the minimum of ``L (1 + |x|^2) - <f(x), x> - |g(x)|^2 / 2``
    over exactly ``n_samples`` points of the box ``[lows, highs]``; a
    negative minimum means the stated L does not certify the model on that
    box.  Point ``i`` is ``lows + u_i (highs - lows)``, with ``u_i`` row
    ``i`` of :func:`~demigronwall.rng.uniform_matrix` ``(seed, n_samples,
    d)``, so it depends only on ``(seed, i)``: the first k points of a
    longer probe are the k-point probe.  The sample passes
    :func:`~demigronwall.generators.check_batch`; a degenerate box, a
    non-finite bound or width, a seed outside the unsigned 64-bit range and a
    non-finite residual (naming its point) raise :class:`InvalidSpec`.
    """
    lows = np.atleast_1d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_1d(np.asarray(highs, dtype=np.float64))
    if lows.shape != (model.d,) or highs.shape != (model.d,):
        raise InvalidSpec("probe box must match the state dimension")
    with np.errstate(over="ignore", invalid="ignore"):
        widths = highs - lows
    if not np.all(np.isfinite(widths) & (widths > 0.0)):
        raise InvalidSpec(f"probe box needs positive finite widths, got {lows.tolist()}..{highs.tolist()}")
    n_samples = check_batch(n_samples, model.d, model.d)[0]
    pts = lows + uniform_matrix(seed, n_samples, model.d) * widths
    f = model.drift(pts)
    g = model.diffusion(pts)
    resid = (
        model.L * (1.0 + (pts ** 2).sum(axis=1))
        - (f * pts).sum(axis=1)
        - 0.5 * (g ** 2).sum(axis=(1, 2))
    )
    bad = np.flatnonzero(~np.isfinite(resid))
    if bad.size:
        i = int(bad[0])
        raise InvalidSpec(f"coercivity residual is {resid[i]} at probe point {i}, x = {pts[i].tolist()}")
    k = int(np.argmin(resid))
    return {
        "min_residual": float(resid[k]),
        "argmin": [float(v) for v in pts[k]],
        "n_samples": n_samples,
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


def coercive_equality_model(L, b) -> SdeModel:
    """Scalar model that meets coercivity with equality: f(x) = a x, g(x) = (b x, c).

    With ``a = L - b^2 / 2`` and ``c = sqrt(2 L)``,
    ``<f(x), x> + |g(x)|^2 / 2 = (a + b^2 / 2) x^2 + c^2 / 2 = L (1 + x^2)``
    at every x, so the proof's coercivity step loses nothing, and with
    ``x0 = 0`` the L terms carry the whole a-priori bound.  ``b = 0`` is
    an unstable OU with drift ``L x``; ``b = 1`` and ``L = 1/2`` is
    geometric Brownian motion plus additive noise.  ``osl = max(a, 0)``.
    """
    L, b = float(L), float(b)
    if not 0.0 <= L < math.inf:
        raise InvalidSpec(f"L must be finite and >= 0, got {L}")
    if not math.isfinite(b):
        raise InvalidSpec(f"b must be finite, got {b}")
    a, c = L - 0.5 * b * b, math.sqrt(2.0 * L)

    def diffusion(y):
        g = np.empty((y.shape[0], 1, 2))
        g[:, 0, 0] = b * y[:, 0]
        g[:, 0, 1] = c
        return g

    return SdeModel(
        d=1, m=2,
        drift=lambda y: a * y,
        diffusion=diffusion,
        drift_jacobian=lambda y: np.full((y.shape[0], 1, 1), a),
        L=L,
        osl=max(a, 0.0),
        label=f"coercive_equality[L={L:g},b={b:g}]",
    )
