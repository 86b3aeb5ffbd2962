"""Discrete stochastic Gronwall machinery and its Monte Carlo verification.

Implements, for sequences satisfying the pathwise recursion

    X_n <= F_n + S_n + sum_{k<n} G_k X_k        (S a demimartingale, S_0 = 0)

* the maximal-moment inequality
  ``E[(sup_k S_k)^p] <= (E[-inf_k S_k])^p / (1 - p)``,
* the closed-form Gronwall bound on ``E[sup_k X_k^p]``: :func:`holder_bound`
  of the product of the growth weights and the sup-moment of F, the one
  Holder right-hand side, which the fractional variant shares,
* harnesses that estimate both sides by Monte Carlo and compare them with
  one-sided ``reporting.SLACK_SD * SE`` slack.  The maximal-lemma harness
  sweeps a batch's columns once across calls at ascending ``n``, a few
  columns a round: each row block folds the running extremes of its rows,
  and the row blocks then share out the round's increment columns, whose
  moments each takes over the whole column.  A batch from
  :func:`~demigronwall.generators.generate_paths` is drawn round by round
  as the sweep reads it and never held whole.

Verification instances are built in reverse: given X, S and G, setting
``F_n = (X_n - S_n - sum_{k<n} G_k X_k)^+`` makes the recursion hold
pathwise by construction, so no rejection sampling is needed.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
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
from .generators import TrajectoryBatch, _columns, _Stream, row_blocks, tile_width, whole_number
from .reporting import (
    VerificationReport,
    _mean_se,
    difference_mean_se,
    exponent_list,
    mean_se,
    mu_norm,
    one_sided_verdict,
    power_se,
    unit_exponent,
)

GRONWALL_COLUMNS = ["n", "p", "mu", "nu", "lhs", "lhs_se", "rhs", "margin", "verdict"]

#: pathwise slack when re-checking the recursion hypothesis
HYPOTHESIS_TOL = 1e-12

#: fewest columns per round of the maximal-lemma sweep (a round takes one draw tile if that is wider):
#: at 1e5 rows one column a round took 30% longer than a sweep of the held batch, and 5 columns (a
#: 4 MB chunk) as long
SWEEP_COLUMNS = 5


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
        unit_exponent(p)
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
    """Aligned (X, F, G, S) data of the recursion ``X_n <= F_n + S_n + sum_{k<n} G_k X_k``.

    G is one row of shared weights, or one row per path as an array or a
    batch.  The F of :func:`build_instance` is a derived batch: it holds
    only a source that reverse-builds F from the columns of X, S and G
    (:func:`_walk`), and the instance is marked ``_derived_f`` so that
    :func:`verify_gronwall` builds F in its own walk instead of reading it.
    """

    X: TrajectoryBatch
    F: TrajectoryBatch
    G: Union[np.ndarray, TrajectoryBatch]
    S: TrajectoryBatch
    _derived_f: bool = field(default=False, init=False, repr=False, compare=False)


def _checked_growth(growth, n, n_paths):
    """Growth weights as an array or a batch, raising :class:`ShapeMismatch` unless 1-D or 2-D and ``n`` wide.

    2-D weights must have ``n_paths`` rows; their values are checked as
    they are read (:func:`_growth_columns`).
    """
    g = growth if isinstance(growth, TrajectoryBatch) else np.asarray(growth, dtype=np.float64)
    shape = (g.n_paths, g.n_steps + 1) if isinstance(g, TrajectoryBatch) else g.shape
    if len(shape) not in (1, 2) or shape[-1] < n or (len(shape) == 2 and shape[0] != n_paths):
        raise ShapeMismatch(f"need at least {n} growth weights per path, got shape {shape}")
    return g


def _growth_columns(g, r0, r1):
    """Every column of checked weights ``g``: a number if shared, else rows ``r0..r1-1``, each checked when read.

    A weight that is not ``>= 0`` (a NaN included) raises :class:`NegativeWeights`.
    """
    columns = _columns(g, r0, r1) if isinstance(g, TrajectoryBatch) else iter(g.T if g.ndim == 1 else g[r0:r1].T)
    for column in columns:
        if not np.all(column >= 0.0):
            raise NegativeWeights("growth weights must be entrywise nonnegative")
        yield column


def _walk(X: TrajectoryBatch, S: TrajectoryBatch, g, F, r0, r1):
    """``(x_k, f_k, s_k, h_k, g_k)`` for ``k = 0..N`` on the rows ``r0..r1-1``, one column of each at a time.

    ``h_k`` is ``H_k = sum_{j<k} G_j X_j``, one buffer updated in place
    after each step: ``H_0 = 0``, ``H_1 = G_0 X_0`` and ``H_k = H_{k-1} +
    G_{k-1} X_{k-1}``, the bits of ``np.cumsum`` of the products along the
    rows.  ``f_k`` is read from F or, if F is None, reverse-built as
    ``max(0, X_k - S_k - H_k)``.  ``g_k`` is column ``k`` of the checked
    weights ``g`` (:func:`_growth_columns`), or None past their last; the
    weights past column N are read and checked once the walk ends.
    """
    hist = np.zeros(r1 - r0)
    weights = _growth_columns(g, r0, r1)
    f_columns = None if F is None else _columns(F, r0, r1)
    for k, (x, s) in enumerate(zip(_columns(X, r0, r1), _columns(S, r0, r1))):
        g_k = next(weights, None)
        yield x, np.maximum(0.0, x - s - hist) if f_columns is None else next(f_columns), s, hist, g_k
        if k < X.n_steps:
            if k:
                hist += g_k * x
            else:
                np.multiply(g_k, x, out=hist)
    for _ in weights:
        pass


def _f_tiles(X: TrajectoryBatch, S: TrajectoryBatch, g, r0, r1, width):
    """The reverse-built F of the rows ``r0..r1-1``, one ``(r1 - r0, 1)`` tile a column: a derived F's source."""
    return (f[:, None] for _, f, *_ in _walk(X, S, g, None, r0, r1))


# --------------------------------------------------------------------------
# moment estimators and closed forms
# --------------------------------------------------------------------------

def _moment_exponent(p) -> float:
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise POutOfRange(f"p must lie in (0, 1], got {p}")
    return p


def _row_reduce(values, ufunc, first, n) -> np.ndarray:
    """Each row's ``ufunc``-reduction of the columns ``first..n`` of ``values``, left to right, one column at a time.

    Maximum and minimum have the bits of numpy's row reduction in any
    layout, up to the sign of a zero in a row that mixes ``+0.0`` and ``-0.0``.
    """
    acc = values[:, first].copy()
    for k in range(first + 1, n + 1):
        ufunc(acc, values[:, k], out=acc)
    return acc


def _power_moment(sups, negative, p) -> tuple:
    """``(mean, se)`` of ``sups ** p``; ``negative`` says whether some entry of ``sups`` is < 0.

    The power is the one array allocated: the deviations of
    :func:`~demigronwall.reporting.mean_se` are worked in it, with the same bits.
    """
    if p != 1.0 and negative:
        raise NegativeBase(f"running maximum is negative on some path; p={p} power undefined")
    powered = sups ** p
    mean, se = _mean_se(powered, out=powered)
    return float(mean), float(se)


def sup_moment(batch: TrajectoryBatch, p, n=None, first=0) -> tuple:
    """Estimate ``E[(max_{first<=k<=n} path_k)^p]`` as ``(mean, se)``.

    Fractional powers of a negative running maximum are rejected; for
    batches starting at zero the maximum is automatically nonnegative.
    """
    p = _moment_exponent(p)
    n = batch.n_steps if n is None else whole_number(n, "n")
    if not 0 <= first <= n <= batch.n_steps:
        raise ShapeMismatch(f"need 0 <= first <= n <= {batch.n_steps}, got first={first}, n={n}")
    sups = _row_reduce(batch.values, np.maximum, first, n)
    return _power_moment(sups, np.any(sups < 0.0), p)


def _time_index(batch: TrajectoryBatch, n) -> int:
    """Time index ``n`` (``None`` is N), checked to be a whole number in ``[0, N]``."""
    n = batch.n_steps if n is None else whole_number(n, "n")
    if not 0 <= n <= batch.n_steps:
        raise ShapeMismatch(f"need 0 <= n <= {batch.n_steps}, got n={n}")
    return n


def _zero_start_index(batch: TrajectoryBatch, n) -> int:
    """Time index ``n`` (``None`` is N) of a batch starting at 0, both checked."""
    if np.any(batch.values[:, 0] != 0.0):
        raise NonzeroStart("negative-infimum mean requires paths starting at 0")
    return _time_index(batch, n)


def neg_inf_mean(batch: TrajectoryBatch, n=None) -> tuple:
    """Estimate ``E[-min_{0<=k<=n} path_k]`` as ``(mean, se)`` (requires column 0 to be zero)."""
    n = _zero_start_index(batch, n)
    return mean_se(-_row_reduce(batch.values, np.minimum, 0, n))


def maximal_moment_bound(q, p) -> float:
    """Closed form ``q^p / (1 - p)`` bounding the sup moment by the neg-inf mean.

    A ``p`` outside (0, 1) raises :class:`POutOfRange`; a negative, NaN or
    infinite ``q`` :class:`NegativeInput`.
    """
    p = unit_exponent(p)
    q = float(q)
    if not 0.0 <= q < math.inf:
        raise NegativeInput(f"q must be finite and >= 0, got {q}")
    return q ** p / (1.0 - p)


# --------------------------------------------------------------------------
# the Gronwall bound
# --------------------------------------------------------------------------

def holder_bound(pair: HolderPair, weights, mean, se) -> tuple:
    """``(rhs, rhs_se)`` of ``(1 + 1/(1 - nu p))^{1/nu} * ||W^p||_mu * mean^p``, the Holder right-hand side.

    ``W`` is the growth weight (``prod_{k<n} (1 + G_k)`` or the Mittag-Leffler
    factor), exact as a scalar or a sample as in
    :func:`~demigronwall.reporting.mu_norm`; ``(mean, se)`` estimates the
    expectation raised to ``p``.  With (mu, nu) = (inf, 1) and a scalar ``W``
    this is ``(1 + 1/(1-p)) * W^p * mean^p`` bit for bit.  A negative, NaN
    or infinite ``mean`` or ``se`` raises :class:`NegativeInput`, such a
    weight :class:`NegativeWeights`.
    """
    if not (0.0 <= mean < math.inf and 0.0 <= se < math.inf):
        raise NegativeInput(f"the mean raised to p and its SE must be finite and >= 0, got {mean} and {se}")
    w = np.asarray(weights)
    if not np.all((w >= 0.0) & np.isfinite(w)):
        raise NegativeWeights("growth weights must be finite and >= 0")
    norm, norm_se = mu_norm(weights, pair.p, pair.mu)
    rhs = pair.prefactor * norm * mean ** pair.p
    return rhs, pair.prefactor * math.hypot(mean ** pair.p * norm_se, norm * power_se(mean, se, pair.p))


# --------------------------------------------------------------------------
# instance construction and verification
# --------------------------------------------------------------------------

def build_instance(X: TrajectoryBatch, S: TrajectoryBatch, growth) -> GronwallInstance:
    """Reverse-construct F so the Gronwall recursion holds pathwise.

    ``F_n = max(0, X_n - S_n - sum_{k<n} G_k X_k)`` is nonnegative and makes
    ``X_n <= F_n + S_n + sum_{k<n} G_k X_k`` an identity wherever the max is
    attained and a strict inequality elsewhere.  F is a derived batch, whose
    source walks the columns of X, S and G (:func:`_f_tiles`) whenever it
    is read: no F or H matrix is built.  X and S are held; one walk here
    reads G and checks it and F.  Negative X raises :class:`NegativeInput`,
    a nonzero start of S :class:`NonzeroStart`, unequal X and S shapes
    :class:`ShapeMismatch`, growth weights that are not 1-D or 2-D with
    X's rows, or do not cover the N steps, :class:`ShapeMismatch`, a
    weight that is not ``>= 0`` (a NaN included) :class:`NegativeWeights`,
    and a non-finite F (an infinite weight on a zero X) :class:`InvalidSpec`.
    """
    if np.any(X.values < 0.0):
        raise NegativeInput("X must be entrywise nonnegative")
    if np.any(S.values[:, 0] != 0.0):
        raise NonzeroStart("S must start at 0 on every path")
    if X.values.shape != S.values.shape:
        raise ShapeMismatch(f"X shape {X.values.shape} != S shape {S.values.shape}")
    growth = _checked_growth(growth, X.n_steps, X.n_paths)
    # one walk checks every weight, then that F is finite, as a held F would be
    if not all([np.isfinite(f).all() for _, f, *_ in _walk(X, S, growth, None, 0, X.n_paths)]):
        raise InvalidSpec("batch contains non-finite entries")
    F = TrajectoryBatch._generated(
        X.n_paths, X.n_steps, functools.partial(_f_tiles, X, S, growth), label=f"reverse-F[{X.label}]"
    )
    instance = GronwallInstance(X=X, F=F, G=growth, S=S)
    object.__setattr__(instance, "_derived_f", True)
    return instance


class _Sweep:
    """Running extremes and increment moments of the columns ``0..upto`` of a batch, extended forward in place.

    A new sweep has read nothing (``upto`` is -1).  ``sup`` and ``inf`` are
    each row's running maximum and minimum at ``upto``; ``mean[k-1]`` and ``se[k-1]`` are
    :func:`~demigronwall.reporting.mean_se` of the increment column
    ``values[:, k] - values[:, k-1]`` for ``k = 1..upto``.  The columns
    are read in rounds of ``width`` columns (:data:`SWEEP_COLUMNS`, or one
    draw tile if that is wider), the last of which ends at the requested
    ``n``.  Each row block reads its rows of the round into one
    ``(M, width)`` chunk from the batch's tile source
    (:class:`~demigronwall.generators._Stream`), which the next round
    continues: views of the values of a batch that holds them, partial-sum
    tiles drawn as they are read of a generated one, so the sweep holds
    O(M) memory and builds no ``values``.  A sweep only moves forward: the
    columns before ``upto`` are not kept.  Once read, a nonzero entry in
    column 0 raises :class:`NonzeroStart` and a non-finite entry in any
    column :class:`InvalidSpec`.
    """

    def __init__(self, batch: TrajectoryBatch):
        m = batch.n_paths
        self.tiles, self.upto = batch._tiles, -1
        self.width = min(max(SWEEP_COLUMNS, tile_width(m)), batch.n_steps + 1)
        self.chunk, self.streams = np.empty((m, self.width), order="F"), {}
        self.sup, self.inf = np.full(m, -np.inf), np.full(m, np.inf)
        self.fold, self.last = np.empty(m), np.empty(m)
        self.mean, self.se = np.empty(batch.n_steps), np.empty(batch.n_steps)

    def extend(self, n) -> tuple:
        """``(sup, inf, mean, se)`` of the columns ``0..n``, ``n >= upto``, reading the columns ``upto + 1..n`` once.

        ``sup`` and ``inf`` are the sweep's own vectors, which a later
        extension moves.  The columns are read a round at a time; after
        each round the row blocks share out its increment columns, each
        block taking the next column not yet taken, in a scratch column of
        its own.  A column's moments are one
        :func:`~demigronwall.reporting.difference_mean_se` call over the
        whole column, whichever block takes it, so their bits do not depend
        on the blocks.  Maximum and minimum are exact, so ``sup`` and
        ``inf`` have the bits of
        :func:`_row_reduce` in any rounds, up to the sign of a zero in a
        row that mixes ``+0.0`` and ``-0.0``, which no report value reads.
        """
        for c0 in range(self.upto + 1, n + 1, self.width):
            cols = self._round(c0, min(c0 + self.width, n + 1))
            if c0 == 0 and np.any(cols[:, 0] != 0.0):
                raise NonzeroStart("the maximal inequality requires paths starting at 0")
            todo = range(max(c0, 1), c0 + cols.shape[1])
            if todo:
                row_blocks(len(cols), functools.partial(self._moments, cols, c0, iter(todo)))
            np.copyto(self.last, cols[:, -1])
        self.upto = n
        return self.sup, self.inf, self.mean[:n], self.se[:n]

    def _moments(self, cols, c0, todo, r0, r1):
        """The moments of the increment columns ``k`` that ``todo`` yields, ``cols`` holding columns ``c0..``."""
        scratch = np.empty(len(cols))
        for k in todo:
            prev = cols[:, k - c0 - 1] if k > c0 else self.last
            self.mean[k - 1], self.se[k - 1] = difference_mean_se(cols[:, k - c0], prev, scratch)

    def _round(self, c0, c1):
        """The columns ``c0..c1-1`` as an ``(M, c1 - c0)`` array, each row block's extremes folded in.

        Each row block (:func:`~demigronwall.generators.row_blocks`) reads
        its rows of the columns and folds
        their ``np.maximum.reduce`` (``np.minimum.reduce``) into its rows of
        ``sup`` (``inf``).  A NaN stays in the extremes
        and an infinity becomes one, so checking them after the round finds
        every non-finite entry read, before its moments are taken.
        """
        cols = self.chunk[:, : c1 - c0]

        def block(r0, r1):
            stream = self.streams.get((r0, r1))
            if stream is None:
                stream = self.streams[r0, r1] = _Stream(self.tiles(r0, r1, tile_width(len(cols))))
            stream.read(cols[r0:r1], c0)
            for ufunc, acc in ((np.maximum, self.sup), (np.minimum, self.inf)):
                ufunc.reduce(cols[r0:r1], axis=1, out=self.fold[r0:r1])
                ufunc(acc[r0:r1], self.fold[r0:r1], out=acc[r0:r1])

        row_blocks(len(cols), block)
        if not (np.isfinite(self.sup).all() and np.isfinite(self.inf).all()):
            raise InvalidSpec("batch contains non-finite entries")
        return cols


def verify_maximal_inequality(batch: TrajectoryBatch, p_grid, n=None) -> VerificationReport:
    """Check ``E[(sup S)^p] <= (E[-inf S])^p / (1-p)`` on a demimartingale batch.

    The demimartingale property itself is the caller's responsibility; a
    cheap mean-increment screen warns (never fails) if some step's mean
    increment lies more than 4 SE below zero.  The running maximum and
    minimum and the screen's increment moments come from one sweep of the
    batch's columns that later calls continue (:class:`_Sweep`): calls at
    ``n = 2, 10, 25, 50`` read each column once and a repeated ``n`` reads
    none.  A smaller ``n`` starts a new sweep, which reads the columns
    ``0..n`` again from the batch's tile source and replaces the kept one.
    A batch from :func:`~demigronwall.generators.generate_paths` is read
    without building its ``values``: the sweep holds O(M) memory.  The reports are
    the same bits in any order of calls, and on a generated batch the same
    as on a copy that holds the values.  Each grid point passes
    when ``lhs <= rhs + SLACK_SD * combined_SE`` with the right-hand error
    propagated through the power by the delta method.  A scalar or empty
    ``p_grid`` raises :class:`InvalidSpec`, a ``p`` outside (0, 1)
    :class:`POutOfRange`, an ``n`` that is not a whole number
    :class:`InvalidSpec` and one outside ``[0, N]`` :class:`ShapeMismatch`,
    and then a nonzero first column :class:`NonzeroStart`, all before the
    screen; all but the last before any column is read, leaving the batch's
    sweep as it was.  A non-finite entry among the columns read raises
    :class:`InvalidSpec`.
    """
    p_grid = [float(p) for p in exponent_list(p_grid)]
    for p in p_grid:
        unit_exponent(p)
    n = _time_index(batch, n)
    # off the batch until the report is made, so that no other call extends it (and moves sups) meanwhile
    sweep = vars(batch).pop("_sweep", None)
    if sweep is None or n < sweep.upto:
        sweep = _Sweep(batch)
    sups, infs, mean, se = sweep.extend(n)
    if batch.n_paths > 1 and np.any(mean < -4.0 * se - 1e-15):
        warnings.warn(
            f"batch {batch.label!r} has significantly negative mean increments; "
            "it may not be a demimartingale",
            stacklevel=2,
        )
    report = VerificationReport(command="gronwall-lemma", columns=GRONWALL_COLUMNS)
    q, q_se = mean_se(-infs)
    negative = np.any(sups < 0.0)
    for p in p_grid:
        lhs, lhs_se = _power_moment(sups, negative, p)
        rhs = maximal_moment_bound(q, p)
        rhs_se = power_se(q, q_se, p) / (1.0 - p)
        report.add_row(
            n=n, p=p, mu=None, nu=None, lhs=lhs, lhs_se=lhs_se, rhs=rhs,
            **one_sided_verdict(lhs, lhs_se, rhs, rhs_se),
        )
    batch._sweep = sweep  # a call that raised leaves no sweep behind
    return report


def _harness_grid(pairs, n_list, first, n_steps) -> tuple:
    """``(pairs, n_list)`` of a harness as lists (``None`` is ``[n_steps]``), checked before any work."""
    pairs = list(pairs)
    n_list = [n_steps] if n_list is None else [whole_number(n, "n") for n in n_list]
    if not pairs or not n_list:
        raise InvalidSpec("empty grid: need at least one exponent pair and one time index")
    for n in n_list:
        if not first <= n <= n_steps:
            raise ShapeMismatch(f"need {first} <= n <= {n_steps}, got n={n}")
    return pairs, n_list


def _grid_report(command, check, pairs, n_list, sups, right) -> VerificationReport:
    """One row per (pair, n), pair-major and then in ``n_list`` order.

    A row's left side is :func:`_power_moment` of ``sups(n)``, a
    ``(running maxima, negative)`` pair, taken once per ``(p, n)`` however
    many pairs share ``p``; its right side is ``right(pair, n)``, an
    ``(rhs, rhs_se)`` pair.  Each row's verdict is
    :func:`~demigronwall.reporting.one_sided_verdict` of them, and its
    check ``check[n=..,p=..,mu=..]`` is True: the hypothesis held, or the
    harness raised before any cell.
    """
    report = VerificationReport(command=command, columns=GRONWALL_COLUMNS)
    left = {}
    for pair in pairs:
        for n in n_list:
            if (pair.p, n) not in left:
                left[pair.p, n] = _power_moment(*sups(n), pair.p)
            lhs, lhs_se = left[pair.p, n]
            rhs, rhs_se = right(pair, n)
            report.add_row(
                n=n, p=pair.p, mu=pair.mu, nu=pair.nu, lhs=lhs, lhs_se=lhs_se, rhs=rhs,
                **one_sided_verdict(lhs, lhs_se, rhs, rhs_se),
            )
            report.checks[f"{check}[n={n},p={pair.p:g},mu={pair.mu:g}]"] = True
    return report


def verify_gronwall(instance: GronwallInstance, pairs, n_list=None) -> VerificationReport:
    """Check the Gronwall conclusion on one instance at every (pair, n) of a grid.

    Once per call, before any cell: an empty ``pairs`` or ``n_list`` or an
    ``n`` that is not a whole number raises
    :class:`InvalidSpec`, an ``n`` outside ``[0, N]`` :class:`ShapeMismatch`
    (``None`` means ``[N]``), and growth weights that do not cover the N
    steps of every path :class:`ShapeMismatch`.  Then one walk reads X, F,
    S and G once (:func:`_walk`; a derived F is built in it), raising
    :class:`NegativeWeights` on a weight that is not ``>= 0``, and folds the
    hypothesis gap ``F + S + H - X`` and its scale (the largest ``|X|`` and
    ``|F|``), and each row's running maxima of X and F and growth product
    ``prod_{k<n} (1 + G_k)`` at every ``n``.  A pathwise violation of the
    recursion beyond :data:`HYPOTHESIS_TOL` of the scale raises
    :class:`HypothesisViolated`, its cells counted by a second walk.  Each
    cell compares the Monte Carlo left side, taken once per ``(p, n)``
    (:func:`_grid_report`), against :func:`holder_bound`
    with one-sided ``SLACK_SD * SE`` slack.  Rows are pair-major, then in
    ``n_list`` order.
    """
    X = instance.X
    pairs, n_list = _harness_grid(pairs, n_list, 0, X.n_steps)
    g = _checked_growth(instance.G, X.n_steps, X.n_paths)
    shared, wanted = isinstance(g, np.ndarray) and g.ndim == 1, set(n_list)
    walk = functools.partial(_walk, X, instance.S, g, None if instance._derived_f else instance.F, 0, X.n_paths)
    x_sup, f_sup, product = np.full(X.n_paths, -np.inf), np.full(X.n_paths, -np.inf), np.ones(X.n_paths)
    at_n, scale, low = {}, 1.0, np.inf
    for k, (x, f, s, hist, g_k) in enumerate(walk()):
        # max(v.max(), -v.min()) is abs(v).max() exactly, without a copy
        scale = max(scale, float(x.max()), -float(x.min()), float(f.max()), -float(f.min()))
        low = np.fmin.reduce(f + s + hist - x, initial=low)  # a NaN gap is no violation
        np.maximum(x_sup, x, out=x_sup)
        np.maximum(f_sup, f, out=f_sup)
        if k in wanted:
            grow = np.prod(1.0 + g[:k]) if shared else product.copy()
            at_n[k] = (x_sup.copy(), bool(np.any(x_sup < 0.0)), mean_se(f_sup), grow)
        if not shared and k < X.n_steps:
            product *= 1.0 + g_k
    floor = -HYPOTHESIS_TOL * scale
    if low < floor:
        violations = sum(int(np.count_nonzero(f + s + h - x < floor)) for x, f, s, h, _ in walk())
        raise HypothesisViolated(f"{violations} path/time cells violate the recursion hypothesis beyond tolerance")

    def right(pair, n):
        _, _, f_moment, grow = at_n[n]
        return holder_bound(pair, grow, *f_moment)

    return _grid_report("gronwall-theorem", "hypothesis_holds", pairs, n_list, lambda n: at_n[n][:2], right)
