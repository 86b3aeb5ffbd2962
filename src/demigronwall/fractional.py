"""L1-Caputo difference machinery and the fractional Gronwall bound.

The uniform L1 approximation of a multi-term Caputo derivative of orders
``0 < beta_0 < ... < beta_m < 1`` with positive weights ``q_r`` uses the
kernel coefficients ``a_j = (j+1)^(1-beta) - j^(1-beta)``.  The discrete
difference operator at step ``n`` has two algebraically equal forms,

    D f_n = tau^(-beta)/Gamma(2-beta) * sum_{i=1}^n a_{n-i} (f_i - f_{i-1})
          = tau^(-beta)/Gamma(2-beta) * sum_{i=0}^n b_{n-i} f_i,

with ``b_0 = a_0``, ``b_k = a_k - a_{k-1}`` for ``0 < k < n`` and
``b_n = -a_{n-1}``; every b-row sums to zero by telescoping.
:func:`multi_term_table`, the batch operator that
:func:`verify_fractional_gronwall` runs, evaluates the delta form and
cross-checks it against the direct form on every call;
:func:`caputo_l1_forms` is the scalar reference for one order and one step.

The fractional Gronwall bound controls ``E[sup_{1<=k<=n} X_k^p]`` for
nonnegative sequences satisfying

    sum_r q_r D^{beta_r} X_n <= F_n + Y_n + lambda1 X_n + lambda2 X_{n-1}

with ``(Y_n)`` mean-zero associated, in terms of a Mittag-Leffler growth
factor and plug-in moments of ``X_0`` and ``sup F``.  Its right-hand side is
:func:`~demigronwall.gronwall.holder_bound`, the one the discrete Gronwall
theorem uses, with the Mittag-Leffler factor as the growth weight.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln

from .errors import (
    AlphaOutOfRange,
    BetaOutOfRange,
    FormMismatch,
    InvalidSpec,
    NegativeInput,
    SeriesNoConvergence,
    ShapeMismatch,
)
from .generators import TrajectoryBatch, _columns, whole_number
from .gronwall import _grid_report, _harness_grid, _power_moment, holder_bound
from .reporting import VerificationReport, mean_se

#: the delta and direct forms of the L1 operator must agree this tightly
FORM_RTOL = 1e-12

#: :func:`multi_term_table` cross-checks the forms in path blocks of about this
#: many entries (512 KB of float64), so each block's temporaries stay in L2
BLOCK_ENTRIES = 1 << 16


def _check_beta(beta) -> float:
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"fractional order must lie in (0, 1), got {beta}")
    return beta


@dataclass(frozen=True)
class FractionalModel:
    """Multi-term model: orders, weights, step size and rate constants."""

    betas: tuple
    q: tuple
    tau: float
    n_steps: int
    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        q = tuple(float(w) for w in self.q)
        if len(betas) == 0 or len(betas) != len(q):
            raise InvalidSpec("need matching, nonempty order and weight tuples")
        for b in betas:
            _check_beta(b)
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise InvalidSpec(f"orders must be strictly increasing, got {betas}")
        if any(w <= 0.0 for w in q):
            raise InvalidSpec(f"weights must be strictly positive, got {q}")
        if not 0.0 < self.tau < math.inf:
            raise InvalidSpec(f"step size tau must be finite and > 0, got {self.tau}")
        if self.n_steps < 1:
            raise InvalidSpec(f"n_steps must be >= 1, got {self.n_steps}")
        if not (self.lambda1 >= 0.0 and self.lambda2 >= 0.0):
            raise InvalidSpec(f"rate constants must be >= 0, got lambda1={self.lambda1}, lambda2={self.lambda2}")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "q", q)

    @property
    def beta_max(self) -> float:
        return self.betas[-1]

    @property
    def q_max(self) -> float:
        """Weight attached to the largest order."""
        return self.q[-1]

    def time(self, n) -> float:
        return n * self.tau


# --------------------------------------------------------------------------
# L1 coefficients
# --------------------------------------------------------------------------

def l1_a(beta, j):
    """L1 kernel coefficient ``a_j = (j+1)^(1-beta) - j^(1-beta)``.

    ``a_0 = 1`` exactly and the sequence decreases strictly to zero.
    Accepts scalar or array ``j``.
    """
    beta = _check_beta(beta)
    j = np.asarray(j, dtype=np.float64)
    out = (j + 1.0) ** (1.0 - beta) - j ** (1.0 - beta)
    return float(out) if out.ndim == 0 else out


def l1_b_row(beta, n) -> np.ndarray:
    """History weights ``(b_0, ..., b_n)`` of the direct form at step ``n``.

    Indexed so that ``D f_n`` is ``prefactor * sum_i b_{n-i} f_i``; each row
    sums to zero by telescoping.
    """
    beta = _check_beta(beta)
    n = whole_number(n, "n")
    if n < 1:
        raise InvalidSpec(f"n must be >= 1, got {n}")
    a = l1_a(beta, np.arange(n))
    b = np.empty(n + 1)
    b[0] = a[0]
    b[1:n] = a[1:n] - a[: n - 1]
    b[n] = -a[n - 1]
    return b


def _prefactor(beta, tau) -> float:
    return tau ** (-beta) / gamma_fn(2.0 - beta)


def caputo_l1_forms(f_seq, beta, tau, n) -> tuple:
    """Both forms of the L1 Caputo difference at step ``n`` (delta, direct)."""
    beta = _check_beta(beta)
    if not tau > 0.0:
        raise InvalidSpec(f"tau must be > 0, got {tau}")
    n = whole_number(n, "n")
    if n < 1:
        raise InvalidSpec(f"n must be >= 1, got {n}")
    f = np.asarray(f_seq, dtype=np.float64)
    if f.ndim != 1 or f.shape[0] < n + 1:
        raise ShapeMismatch(f"need a 1-D sequence of length >= {n + 1}, got shape {f.shape}")
    if not np.isfinite(f[: n + 1]).all():
        raise InvalidSpec("sequence contains non-finite entries")
    pref = _prefactor(beta, tau)
    a = l1_a(beta, np.arange(n))
    delta_form = pref * float(np.dot(a[::-1], np.diff(f[: n + 1])))
    b = l1_b_row(beta, n)
    direct_form = pref * float(np.dot(b[::-1], f[: n + 1]))
    return delta_form, direct_form


def _l1_kernel(beta, n) -> np.ndarray:
    """Lower-triangular Toeplitz ``(n, n)`` matrix with entry ``(k, j) = a_{k-j}`` for ``j <= k``, C-ordered."""
    steps = np.arange(n)
    return np.tril(l1_a(beta, steps)[np.abs(np.subtract.outer(steps, steps))])


def multi_term_table(model: FractionalModel, values) -> np.ndarray:
    """Multi-term differences of every path at every step, both forms cross-checked.

    The table is the delta form: zeros plus, per order, one whole-matrix
    BLAS product of the scaled differences with the kernel, the first
    product becoming the table.  The direct form is evaluated in path
    blocks of about :data:`BLOCK_ENTRIES` entries
    and must agree with it to :data:`FORM_RTOL` times the summed absolute
    contributions (at least 1).

    Args:
        values: path matrix of shape (M, N+1).

    Returns:
        matrix of shape (M, N); column ``n-1`` holds the operator at step n.

    Raises:
        FormMismatch: delta- and direct-form evaluations disagree.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_steps + 1:
        raise ShapeMismatch(f"expected shape (M, {model.n_steps + 1}), got {x.shape}")
    n = model.n_steps
    diffs = np.diff(x, axis=1)
    # row k-1 of ``direct`` weighs f_0..f_k at step k; ``magnitude`` holds the absolute weights
    direct = np.zeros((n, n + 1))
    magnitude = np.zeros((n, n + 1))
    last = len(model.betas) - 1
    for i, (beta, w) in enumerate(zip(model.betas, model.q)):
        pref = _prefactor(beta, model.tau)
        # one whole-matrix product per order: row blocks of it change the last bits on some BLAS cores
        product = np.multiply(diffs, w * pref, out=diffs if i == last else None) @ _l1_kernel(beta, n).T
        if i:
            out += product
        else:
            out = product
            out += 0.0  # the bits of zeros plus the product: a -0.0 entry becomes 0.0
        for k in range(1, n + 1):
            row = w * pref * l1_b_row(beta, k)[::-1]
            direct[k - 1, : k + 1] += row
            magnitude[k - 1, : k + 1] += np.abs(row)
    del diffs  # before the cross-check's block temporaries
    rows = max(1, BLOCK_ENTRIES // (n + 1))
    for lo in range(0, x.shape[0], rows):
        block = x[lo : lo + rows]
        gap = np.abs(out[lo : lo + rows] - block @ direct.T)
        tol = FORM_RTOL * np.maximum(1.0, np.abs(block) @ magnitude.T)
        if np.any(gap > tol):
            worst = float(np.max(gap / tol))
            raise FormMismatch(f"L1 forms disagree by {worst:.3g} times the tolerance {FORM_RTOL}")
    return out


# --------------------------------------------------------------------------
# Mittag-Leffler function and rate constants
# --------------------------------------------------------------------------

#: rounding error of one log-space series term, in units of machine epsilon
#: times the term; 16 covers every error measured against the closed forms of
#: E_1/2, E_1 and E_2 on negative arguments
_ML_ROUNDING_EPS = 16.0 * np.finfo(np.float64).eps

#: the Mittag-Leffler series stops after three terms below this fraction of the sum
ML_REL_TOL = 1e-12

#: largest |z| the Mittag-Leffler series accepts
ML_Z_MAX = 100.0

#: the Mittag-Leffler series raises after this many terms
ML_MAX_TERMS = 20000


def mittag_leffler(alpha, z) -> float:
    """Truncated power series ``E_alpha(z) = sum_k z^k / Gamma(1 + k alpha)``.

    Terms are evaluated in log space, so large intermediate Gamma values
    cannot overflow; summation stops once three consecutive terms fall
    below :data:`ML_REL_TOL` times the running sum, and fails after
    :data:`ML_MAX_TERMS` terms.  Arguments are kept moderate by the
    ``|z| <= ML_Z_MAX`` guard; asymptotic large-argument algorithms are out
    of scope here.  For ``z < 0`` the alternating terms cancel: the sum is
    returned only while the rounding error of its largest term stays below
    ``ML_REL_TOL * |sum|`` (roughly ``z >= -2.4`` for ``alpha = 1/2`` and
    ``z >= -3.6`` for ``alpha = 1``).

    Raises:
        AlphaOutOfRange: ``alpha <= 0``.
        SeriesNoConvergence: guard exceeded (a NaN ``z`` included), series overflows, or
            cancellation for ``z < 0`` would exceed ``ML_REL_TOL``.
    """
    alpha = float(alpha)
    if not alpha > 0.0:
        raise AlphaOutOfRange(f"alpha must be > 0, got {alpha}")
    z = float(z)
    if not abs(z) <= ML_Z_MAX:  # a NaN z fails here too
        raise SeriesNoConvergence(f"|z| = {abs(z)} beyond the overflow guard {ML_Z_MAX}")
    if z == 0.0:
        return 1.0
    log_abs_z = math.log(abs(z))
    total = 0.0
    largest = 0.0
    small_streak = 0
    for k in range(ML_MAX_TERMS):
        log_term = k * log_abs_z - gammaln(1.0 + k * alpha)
        if log_term > 709.0:  # exp would overflow a double
            raise SeriesNoConvergence(f"series term overflows at k={k} for alpha={alpha}, z={z}")
        term = math.exp(log_term)
        if z < 0.0 and k % 2 == 1:
            term = -term
        total += term
        largest = max(largest, abs(term))
        if abs(term) < ML_REL_TOL * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                if z < 0.0 and _ML_ROUNDING_EPS * largest > ML_REL_TOL * abs(total):
                    raise SeriesNoConvergence(
                        f"cancellation: largest term {largest:.3e} against sum {total:.3e} "
                        f"for alpha={alpha}, z={z}"
                    )
                return total
        else:
            small_streak = 0
    raise SeriesNoConvergence(f"no convergence within {ML_MAX_TERMS} terms for alpha={alpha}, z={z}")


def effective_rate(lambda1, lambda2, beta_max) -> float:
    """Combined rate ``lambda1 + lambda2 / (2 - 2^(1 - beta_max))``."""
    beta_max = _check_beta(beta_max)
    lambda1, lambda2 = float(lambda1), float(lambda2)
    if not (lambda1 >= 0.0 and lambda2 >= 0.0):
        raise NegativeInput(f"rate constants must be >= 0, got {lambda1}, {lambda2}")
    return lambda1 + lambda2 / (2.0 - 2.0 ** (1.0 - beta_max))


def kernel_mass(model: FractionalModel, k) -> float:
    """Cumulative kernel mass ``sum_r q_r tau^(1-beta_r)/Gamma(2-beta_r) sum_{j<=k} a_{j-1}``.

    Strictly positive and strictly increasing in ``k``.
    """
    k = whole_number(k, "k")
    if k < 1:
        raise InvalidSpec(f"k must be >= 1, got {k}")
    total = 0.0
    for beta, w in zip(model.betas, model.q):
        total += (
            w
            * model.tau ** (1.0 - beta)
            / gamma_fn(2.0 - beta)
            * float(l1_a(beta, np.arange(k)).sum())
        )
    return total


def ml_growth_factor(model: FractionalModel, n) -> float:
    """Growth factor ``2 E_{beta_m}(2 lambda t_n^{beta_m} / q_m)`` of the bound; ``n < 0`` raises :class:`InvalidSpec`."""
    n = whole_number(n, "n")
    if n < 0:
        raise InvalidSpec(f"n must be >= 0, got {n}")
    lam = effective_rate(model.lambda1, model.lambda2, model.beta_max)
    arg = 2.0 * lam * model.time(n) ** model.beta_max / model.q_max
    return 2.0 * mittag_leffler(model.beta_max, arg)


# --------------------------------------------------------------------------
# the fractional Gronwall harness
# --------------------------------------------------------------------------

def _y_batch(Y, n_paths, n_steps) -> TrajectoryBatch:
    """``Y`` as a batch of ``n_steps`` columns: itself, or an array wrapped in a held batch.

    Raises :class:`ShapeMismatch` unless it has ``n_paths`` rows and
    ``n_steps`` columns; wrapping raises :class:`InvalidSpec` on a
    non-finite entry.
    """
    if isinstance(Y, TrajectoryBatch):
        shape = (Y.n_paths, Y.n_steps + 1)
    else:
        Y = np.asarray(Y, dtype=np.float64)
        shape = Y.shape
    if shape != (n_paths, n_steps):
        raise ShapeMismatch(f"Y must align to shape {(n_paths, n_steps)}, got {shape}")
    return Y if isinstance(Y, TrajectoryBatch) else TrajectoryBatch(Y, label="Y")


def verify_fractional_gronwall(
    model: FractionalModel, X: TrajectoryBatch, Y, pairs, n_list=None
) -> VerificationReport:
    """Monte Carlo check of the fractional Gronwall bound at every (pair, n) of a grid.

    Negative X raises :class:`NegativeInput`, X or Y not aligned to the
    model's steps :class:`ShapeMismatch` and a non-finite Y
    :class:`InvalidSpec`.  Every column of Y is checked in the walk below,
    as it is read, whatever form Y takes; an array Y, or a batch that holds
    its values, was also checked before any work, when it was wrapped or
    made.  The grid is checked as in
    :func:`~demigronwall.gronwall.verify_gronwall`, with ``1 <= n <= N``.
    Then, once per call and from one L1 operator table,
    ``F_n = (sum_r q_r D^{beta_r} X_n - Y_n - lambda1 X_n - lambda2 X_{n-1})^+``
    is reverse-constructed in place of the table, one column at a time, so
    the hypothesis holds pathwise by construction
    and each ``fractional_hypothesis_holds[...]`` check is True.  That walk
    reads Y once, a column at a time, from its source, checks each column,
    and folds each row's running maxima of ``X_1..X_n`` and ``F_1..F_n`` at
    every ``n``; the plug-in means and the Mittag-Leffler factor are
    computed once per ``n``.  Each cell
    compares ``E[sup_{1<=k<=n} X_k^p]`` against
    :func:`~demigronwall.gronwall.holder_bound` of the Mittag-Leffler factor
    and the summed plug-in means, with one-sided ``SLACK_SD * SE`` slack;
    rows are pair-major.  ``Y``
    should be a mean-zero associated family; certifying that (via
    ``check_association``) is the caller's responsibility.

    Args:
        X: nonnegative batch of shape (M, N+1).
        Y: finite values of shape (M, N), column ``n-1`` being ``Y_n``: an
            array, which is read through views of it, or a batch of N
            columns, held or generated, such as
            :func:`~demigronwall.generators.associated_increments`, whose
            columns are drawn as the walk reads them.  The report's bytes
            are the same in every form.
    """
    if np.any(X.values < 0.0):
        raise NegativeInput("X must be entrywise nonnegative")
    if X.n_steps != model.n_steps:
        raise ShapeMismatch(f"X has {X.n_steps} steps but the model expects {model.n_steps}")
    y = _y_batch(Y, X.n_paths, model.n_steps)
    pairs, n_list = _harness_grid(pairs, n_list, 1, model.n_steps)

    x = X.values
    f = multi_term_table(model, x)  # overwritten with F, one column at a time
    linear, term = np.empty(X.n_paths), np.empty(X.n_paths)
    x_sup, f_sup = np.full(X.n_paths, -np.inf), np.full(X.n_paths, -np.inf)
    x_sups, f_sups = {}, {}
    for k, y_k in enumerate(_columns(y, 0, X.n_paths)):
        if not np.isfinite(y_k).all():
            raise InvalidSpec("Y contains non-finite entries")
        np.multiply(model.lambda1, x[:, k + 1], out=linear)
        np.add(y_k, linear, out=linear)
        linear += np.multiply(model.lambda2, x[:, k], out=term)
        column = f[:, k]  # F_{k+1}
        column -= linear
        np.maximum(0.0, column, out=column)
        np.maximum(x_sup, x[:, k + 1], out=x_sup)
        np.maximum(f_sup, column, out=f_sup)
        if k + 1 in n_list:
            x_sups[k + 1], f_sups[k + 1] = x_sup.copy(), f_sup.copy()

    c_shared = 1.0 / (model.q_max * gamma_fn(1.0 + model.beta_max))
    per_n = {}
    for n in set(n_list):
        x0_vals = model.tau ** model.beta_max * c_shared * kernel_mass(model, n) * x[:, 0]
        f_vals = model.time(n) ** model.beta_max * c_shared * f_sups[n]
        per_n[n] = (mean_se(x0_vals), mean_se(f_vals), ml_growth_factor(model, n))

    def right(pair, n):
        (x0_mean, x0_se), (f_mean, f_se), ml = per_n[n]
        return holder_bound(pair, ml, x0_mean + f_mean, math.hypot(x0_se, f_se))

    # X >= 0 was checked above
    return _grid_report("fractional", "fractional_hypothesis_holds", pairs, n_list, lambda n: (x_sups[n], False), right)
