"""Discrete stochastic Gronwall machinery and its Monte Carlo verification.

Implements, for sequences satisfying the pathwise recursion

    X_n <= F_n + S_n + sum_{k<n} G_k X_k        (S a demimartingale, S_0 = 0)

* the maximal-moment inequality
  ``E[(sup_k S_k)^p] <= (E[-inf_k S_k])^p / (1 - p)``,
* the closed-form Gronwall bound on ``E[sup_k X_k^p]`` with its Holder
  prefactor, product norm of the growth weights, and sup-moment of F,
* the discount weights ``C_k = prod_{j<=k} (1 + G_j)^{-1}`` and the
  discounted increment transform ``L_n = sum_{k<n} C_k (S_{k+1} - S_k)``
  (a demimartingale again, computed in two algebraic forms and cross
  checked), and
* harnesses that estimate both sides by Monte Carlo and compare them with
  one-sided ``reporting.SLACK_SD * SE`` slack.

Verification instances are built in reverse: given X, S and G, setting
``F_n = (X_n - S_n - sum_{k<n} G_k X_k)^+`` makes the recursion hold
pathwise by construction, so no rejection sampling is needed.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    FormMismatch,
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
from .generators import BLOCK_ENTRIES, TrajectoryBatch
from .reporting import VerificationReport, blocked_mean_se, mean_se, mu_norm, one_sided_verdict, power_se

GRONWALL_COLUMNS = ["n", "p", "mu", "nu", "lhs", "lhs_se", "rhs", "margin", "verdict"]

#: pathwise slack when re-checking the recursion hypothesis
HYPOTHESIS_TOL = 1e-12

#: two algebraic forms of the discounted transform must agree this tightly
FORM_RTOL = 1e-12


# --------------------------------------------------------------------------
# core types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponents (mu, nu) with 1/mu + 1/nu = 1 and p * nu < 1."""

    mu: float
    nu: float
    p: float

    def __post_init__(self):
        mu, nu, p = float(self.mu), float(self.nu), float(self.p)
        if not (mu >= 1.0 and nu >= 1.0):
            raise HolderViolation(f"exponents must lie in [1, inf], got mu={mu}, nu={nu}")
        inv = (0.0 if math.isinf(mu) else 1.0 / mu) + (0.0 if math.isinf(nu) else 1.0 / nu)
        if abs(inv - 1.0) > 1e-12:
            raise HolderViolation(f"1/mu + 1/nu = {inv} != 1 for mu={mu}, nu={nu}")
        if not 0.0 < p < 1.0:
            raise POutOfRange(f"p must lie in (0, 1), got {p}")
        # reject p*nu within 1e-9 of 1: the prefactor explodes there
        if math.isinf(nu) or p * nu >= 1.0 - 1e-9:
            raise HolderViolation(f"need p * nu < 1, got p={p}, nu={nu}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "p", p)

    @classmethod
    def deterministic(cls, p) -> "HolderPair":
        """The (mu, nu) = (inf, 1) pair used for deterministic weights."""
        return cls(math.inf, 1.0, p)

    @property
    def prefactor(self) -> float:
        return (1.0 + 1.0 / (1.0 - self.nu * self.p)) ** (1.0 / self.nu)


@dataclass(frozen=True)
class GronwallInstance:
    """Aligned (X, F, G, S) data satisfying the recursion by construction."""

    X: TrajectoryBatch
    F: TrajectoryBatch
    G: Union[np.ndarray, TrajectoryBatch]
    S: TrajectoryBatch

    def hypothesis_gap(self) -> np.ndarray:
        """Pathwise slack ``F + S + H - X``; nonnegative when the recursion holds."""
        hist = weighted_history(self.X.values, self.G)  # before F + S, to lower peak memory
        return self.F.values + self.S.values + hist - self.X.values


def _growth_array(growth) -> np.ndarray:
    """Growth weights as an array: one row, or one row per path."""
    return growth.values if isinstance(growth, TrajectoryBatch) else np.asarray(growth, dtype=np.float64)


def weighted_history(x, growth) -> np.ndarray:
    """``H_n = sum_{k<n} G_k X_k`` per path (``H_0 = 0``) for shared or per-path weights ``G``."""
    n = x.shape[1] - 1
    return np.hstack([np.zeros((x.shape[0], 1)), np.cumsum(_growth_array(growth)[..., :n] * x[:, :n], axis=1)])


# --------------------------------------------------------------------------
# moment estimators and closed forms
# --------------------------------------------------------------------------

def _moment_exponent(p) -> float:
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise POutOfRange(f"p must lie in (0, 1], got {p}")
    return p


def _power_moment(sups, negative, p) -> tuple:
    """``(mean, se)`` of ``sups ** p``; ``negative`` says whether some entry of ``sups`` is < 0."""
    if p != 1.0 and negative:
        raise NegativeBase(f"running maximum is negative on some path; p={p} power undefined")
    return mean_se(sups ** p)


def sup_moment(batch: TrajectoryBatch, p, n=None, first=0) -> tuple:
    """Estimate ``E[(max_{first<=k<=n} path_k)^p]`` as ``(mean, se)``.

    Fractional powers of a negative running maximum are rejected; for
    batches starting at zero the maximum is automatically nonnegative.
    """
    p = _moment_exponent(p)
    n = batch.n_steps if n is None else int(n)
    if not 0 <= first <= n <= batch.n_steps:
        raise ShapeMismatch(f"need 0 <= first <= n <= {batch.n_steps}, got first={first}, n={n}")
    sups = batch.values[:, first : n + 1].max(axis=1)
    return _power_moment(sups, np.any(sups < 0.0), p)


def neg_inf_mean(batch: TrajectoryBatch, n=None) -> tuple:
    """Estimate ``E[-min_{0<=k<=n} path_k]`` as ``(mean, se)`` (requires column 0 to be zero)."""
    if np.any(batch.values[:, 0] != 0.0):
        raise NonzeroStart("negative-infimum mean requires paths starting at 0")
    n = batch.n_steps if n is None else int(n)
    if not 0 <= n <= batch.n_steps:
        raise ShapeMismatch(f"need 0 <= n <= {batch.n_steps}, got n={n}")
    return mean_se(-batch.values[:, : n + 1].min(axis=1))


def maximal_moment_bound(q, p) -> float:
    """Closed form ``q^p / (1 - p)`` bounding the sup moment by the neg-inf mean."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise POutOfRange(f"p must lie in (0, 1), got {p}")
    q = float(q)
    if q < 0.0:
        raise NegativeInput(f"q must be >= 0, got {q}")
    return q ** p / (1.0 - p)


def discount_weights(growth) -> np.ndarray:
    """``C_k = prod_{j<=k} (1 + G_j)^{-1}``; positive and nonincreasing."""
    g = np.asarray(growth, dtype=np.float64)
    if np.any(g < 0.0):
        raise NegativeWeights("growth weights must be entrywise nonnegative")
    return np.cumprod(1.0 / (1.0 + g))


def discounted_transform(path, growth) -> np.ndarray:
    """``L_n = sum_{k<n} C_k (path_{k+1} - path_k)`` with ``L_0 = 0``.

    Both the telescoped form above and its summation-by-parts rewriting
    ``L_n = C_{n-1} path_n + sum_{1<=k<n} (C_{k-1} - C_k) path_k`` are
    evaluated; disagreement beyond a condition-aware 1e-12 relative
    tolerance raises :class:`FormMismatch` (it would indicate an indexing
    bug in the weights).
    """
    s = np.atleast_2d(np.asarray(path, dtype=np.float64))
    single = np.asarray(path).ndim == 1
    if np.any(s[:, 0] != 0.0):
        raise NonzeroStart("discounted transform requires paths starting at 0")
    n = s.shape[1] - 1
    g = np.asarray(growth, dtype=np.float64)
    if g.shape[0] < n:
        raise ShapeMismatch(f"need at least {n} growth weights, got {g.shape[0]}")
    c = discount_weights(g[:n])
    steps = c[None, :] * np.diff(s, axis=1)
    tele = np.hstack([np.zeros((s.shape[0], 1)), np.cumsum(steps, axis=1)])
    # summation by parts: L_n = C_{n-1} S_n + sum_{k=1}^{n-1} (C_{k-1}-C_k) S_k
    sbp = np.zeros_like(tele)
    if n >= 1:
        d = np.concatenate([[0.0], c[:-1] - c[1:]]) if n > 1 else np.zeros(1)
        inner = np.hstack([np.zeros((s.shape[0], 1)), np.cumsum(d[None, 1:] * s[:, 1:n], axis=1)]) if n > 1 else np.zeros((s.shape[0], 1))
        sbp[:, 1:] = c[None, :n] * s[:, 1:] + inner
    scale = np.maximum(1.0, np.cumsum(np.abs(steps), axis=1))
    gap = np.abs(tele[:, 1:] - sbp[:, 1:])
    if np.any(gap > FORM_RTOL * scale):
        worst = float((gap / scale).max())
        raise FormMismatch(f"transform forms disagree by relative {worst:.3e} > {FORM_RTOL}")
    return tele[0] if single else tele


def transform_batch(batch: TrajectoryBatch, growth) -> TrajectoryBatch:
    """Apply :func:`discounted_transform` to every path of a batch."""
    out = discounted_transform(batch.values, growth)
    return TrajectoryBatch(out, label=f"{batch.label}-discounted", starts_at_zero=True)


# --------------------------------------------------------------------------
# the Gronwall bound
# --------------------------------------------------------------------------

def _growth_norm(growth, pair: HolderPair, n) -> tuple:
    """(norm, stderr) of ``prod_{k<n} (1 + G_k)^p`` in the mu-norm.

    Deterministic weights give the exact value (zero error); random
    weights go through :func:`~demigronwall.reporting.mu_norm`, whose
    mu = inf sample maximum only makes the verification harder to pass.
    """
    g = _growth_array(growth)
    if np.any(g < 0.0):
        raise NegativeWeights("growth weights must be entrywise nonnegative")
    if g.shape[-1] < n:
        raise ShapeMismatch(f"need at least {n} growth weights per path, got {g.shape[-1]}")
    return mu_norm(np.prod(1.0 + g[..., :n], axis=-1), pair.p, pair.mu)


def gronwall_bound(f_sup_mean, growth, pair: HolderPair, n) -> float:
    """Right-hand side of the discrete stochastic Gronwall inequality.

    ``(1 + 1/(1 - nu p))^{1/nu} * ||prod_{k<n} (1+G_k)^p||_mu * f_sup_mean^p``
    where ``f_sup_mean`` estimates ``E[sup_{k<=n} F_k]``.  With
    deterministic weights and (mu, nu) = (inf, 1) this reproduces the
    deterministic-sequence form ``(1 + 1/(1-p)) * prod (1+G_k)^p * (...)^p``
    exactly (same code path, so equality is bitwise).
    """
    f_sup_mean = float(f_sup_mean)
    if f_sup_mean < 0.0:
        raise NegativeInput(f"sup-mean of F must be >= 0, got {f_sup_mean}")
    norm, _ = _growth_norm(growth, pair, int(n))
    return pair.prefactor * norm * f_sup_mean ** pair.p


# --------------------------------------------------------------------------
# instance construction and verification
# --------------------------------------------------------------------------

def build_instance(X: TrajectoryBatch, S: TrajectoryBatch, growth) -> GronwallInstance:
    """Reverse-construct F so the Gronwall recursion holds pathwise.

    ``F_n = max(0, X_n - S_n - sum_{k<n} G_k X_k)`` is nonnegative and makes
    ``X_n <= F_n + S_n + sum_{k<n} G_k X_k`` an identity wherever the max is
    attained and a strict inequality elsewhere.
    """
    if np.any(X.values < 0.0):
        raise NegativeInput("X must be entrywise nonnegative")
    if np.any(S.values[:, 0] != 0.0):
        raise NonzeroStart("S must start at 0 on every path")
    if X.values.shape != S.values.shape:
        raise ShapeMismatch(f"X shape {X.values.shape} != S shape {S.values.shape}")
    n = X.n_steps
    if isinstance(growth, TrajectoryBatch):
        fits = growth.values.shape[0] == X.n_paths and growth.values.shape[1] >= n
    else:
        growth = np.asarray(growth, dtype=np.float64)
        fits = growth.ndim == 1 and growth.shape[0] >= n
    if not fits:
        raise ShapeMismatch(f"growth shape {_growth_array(growth).shape} does not fit X shape {X.values.shape}")
    if np.any(_growth_array(growth) < 0.0):
        raise NegativeInput("growth weights must be entrywise nonnegative")
    hist = weighted_history(X.values, growth)  # before X - S, to lower peak memory
    f = np.maximum(0.0, X.values - S.values - hist)
    F = TrajectoryBatch(f, label=f"reverse-F[{X.label}]")
    return GronwallInstance(X=X, F=F, G=growth, S=S)


def verify_maximal_inequality(batch: TrajectoryBatch, p_grid, n=None) -> VerificationReport:
    """Check ``E[(sup S)^p] <= (E[-inf S])^p / (1-p)`` on a demimartingale batch.

    The demimartingale property itself is the caller's responsibility; a
    cheap mean-increment screen warns (never fails) if some step's mean
    increment lies more than 4 SE below zero.  The screen reads the batch
    one path block of about :data:`~demigronwall.generators.BLOCK_ENTRIES`
    entries at a time and merges the block moments with
    :func:`~demigronwall.reporting.blocked_mean_se`.  The running maximum
    and minimum are reduced once per call.  Each grid point passes when
    ``lhs <= rhs + SLACK_SD * combined_SE`` with the right-hand error
    propagated through the power by the delta method.  An empty ``p_grid``
    raises :class:`InvalidSpec` before any work.
    """
    p_grid = list(p_grid)
    if not p_grid:
        raise InvalidSpec("empty p_grid: need at least one exponent")
    n = batch.n_steps if n is None else int(n)
    values = batch.values
    if batch.n_paths > 1 and n >= 1:
        rows = max(1, BLOCK_ENTRIES // (n + 1))
        mean, se = blocked_mean_se(
            np.diff(values[r0 : r0 + rows, : n + 1], axis=1) for r0 in range(0, batch.n_paths, rows)
        )
        if np.any(mean < -4.0 * se - 1e-15):
            warnings.warn(
                f"batch {batch.label!r} has significantly negative mean increments; "
                "it may not be a demimartingale",
                stacklevel=2,
            )
    report = VerificationReport(command="gronwall-lemma", columns=GRONWALL_COLUMNS)
    q, q_se = neg_inf_mean(batch, n)
    sups = values[:, : n + 1].max(axis=1)
    negative = np.any(sups < 0.0)
    for p in p_grid:
        lhs, lhs_se = _power_moment(sups, negative, _moment_exponent(p))
        rhs = maximal_moment_bound(q, p)
        rhs_se = power_se(q, q_se, p) / (1.0 - p)
        report.add_row(
            n=n, p=float(p), mu=None, nu=None, lhs=lhs, lhs_se=lhs_se, rhs=rhs,
            **one_sided_verdict(lhs, lhs_se, rhs, rhs_se),
        )
    return report


def _harness_grid(pairs, n_list, first, n_steps) -> tuple:
    """``(pairs, n_list)`` of a harness as lists (``None`` is ``[n_steps]``), checked before any work."""
    pairs = list(pairs)
    n_list = [n_steps] if n_list is None else [int(n) for n in n_list]
    if not pairs or not n_list:
        raise InvalidSpec("empty grid: need at least one exponent pair and one time index")
    for n in n_list:
        if not first <= n <= n_steps:
            raise ShapeMismatch(f"need {first} <= n <= {n_steps}, got n={n}")
    return pairs, n_list


def verify_gronwall(instance: GronwallInstance, pairs, n_list=None) -> VerificationReport:
    """Check the Gronwall conclusion on one instance at every (pair, n) of a grid.

    Once per call, before any cell: an empty ``pairs`` or ``n_list`` raises
    :class:`InvalidSpec`, an ``n`` outside ``[0, N]`` :class:`ShapeMismatch`
    (``None`` means ``[N]``), and a pathwise violation of the recursion
    beyond :data:`HYPOTHESIS_TOL` of the data scale :class:`HypothesisViolated`.
    Each cell compares the Monte Carlo left side against the closed-form right
    side with one-sided ``SLACK_SD * SE`` slack.  Rows are pair-major, then in
    ``n_list`` order.
    """
    pairs, n_list = _harness_grid(pairs, n_list, 0, instance.X.n_steps)
    gap = instance.hypothesis_gap()
    scale = max(1.0, float(np.abs(instance.X.values).max()), float(np.abs(instance.F.values).max()))
    violations = int(np.sum(gap < -HYPOTHESIS_TOL * scale))
    if violations:
        raise HypothesisViolated(f"{violations} path/time cells violate the recursion hypothesis beyond tolerance")
    report = VerificationReport(command="gronwall-theorem", columns=GRONWALL_COLUMNS)
    for pair in pairs:
        for n in n_list:
            lhs, lhs_se = sup_moment(instance.X, pair.p, n)
            f_mean, f_se = mean_se(instance.F.values[:, : n + 1].max(axis=1))
            norm, norm_se = _growth_norm(instance.G, pair, n)
            rhs = pair.prefactor * norm * f_mean ** pair.p
            rhs_se = pair.prefactor * math.hypot(f_mean ** pair.p * norm_se, norm * power_se(f_mean, f_se, pair.p))
            report.add_row(
                n=n, p=pair.p, mu=pair.mu, nu=pair.nu, lhs=lhs, lhs_se=lhs_se, rhs=rhs,
                **one_sided_verdict(lhs, lhs_se, rhs, rhs_se),
            )
            report.checks[f"hypothesis_holds[n={n},p={pair.p:g},mu={pair.mu:g}]"] = violations == 0
    return report
