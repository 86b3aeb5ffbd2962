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
  sweeps a batch's columns once across calls at several ``n``, a few
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
from dataclasses import dataclass
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
from .generators import TrajectoryBatch, prefix_reduce, row_blocks, tile_width
from .reporting import (
    VerificationReport,
    difference_mean_se,
    exponent_list,
    mean_se,
    mu_norm,
    one_sided_verdict,
    power_se,
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
        """Pathwise slack ``F + S + H - X``, time-major; nonnegative when the recursion holds."""
        return _stacked(self.X.values.shape, _gap_columns(self))


def _stacked(shape, columns) -> np.ndarray:
    """A time-major array of ``shape`` whose column ``k`` is the ``k``-th item of ``columns``."""
    out = np.empty(shape, order="F")
    for k, column in enumerate(columns):
        out[:, k] = column
    return out


def _gap_columns(instance: GronwallInstance):
    """The columns ``F_k + S_k + H_k - X_k`` of the hypothesis gap, left to right, each into one reused buffer.

    Growth weights are checked as in :func:`weighted_history`.
    """
    x, f, s = instance.X.values, instance.F.values, instance.S.values
    gap = np.empty(len(x))
    for k, hist in enumerate(_history_columns(x, instance.G)):
        np.add(f[:, k], s[:, k], out=gap)
        gap += hist
        gap -= x[:, k]
        yield gap


def _growth_array(growth) -> np.ndarray:
    """Growth weights as an array: one row, or one row per path."""
    return growth.values if isinstance(growth, TrajectoryBatch) else np.asarray(growth, dtype=np.float64)


def _checked_growth(growth, n, n_paths=None) -> np.ndarray:
    """Growth weights as an array, raising unless nonnegative, 1-D or 2-D, and ``n`` wide.

    ``n_paths``, when given, is the row count that 2-D weights must have.
    """
    g = _growth_array(growth)
    if np.any(g < 0.0):
        raise NegativeWeights("growth weights must be entrywise nonnegative")
    if g.ndim not in (1, 2) or g.shape[-1] < n or (g.ndim == 2 and n_paths not in (None, g.shape[0])):
        raise ShapeMismatch(f"need at least {n} growth weights per path, got shape {g.shape}")
    return g


def _history_columns(x, growth):
    """The columns ``H_0 .. H_N`` of :func:`weighted_history`, left to right, each into one reused buffer.

    ``H_0 = 0``, ``H_1 = G_0 X_0`` and ``H_k = H_{k-1} + G_{k-1} X_{k-1}``:
    the bits of :func:`~demigronwall.generators.partial_sums`, whose
    ``-0.0`` start makes ``H_1`` the product itself.  The weights are
    checked as in :func:`weighted_history` before the first column.
    """
    n = x.shape[1] - 1
    g = _checked_growth(growth, n, x.shape[0])
    hist, product = np.zeros(len(x)), np.empty(len(x))
    yield hist
    for k in range(n):
        np.multiply(g[..., k], x[:, k], out=product)
        if k:
            hist += product
        else:
            hist[:] = product
        yield hist


def weighted_history(x, growth) -> np.ndarray:
    """``H_n = sum_{k<n} G_k X_k`` per path (``H_0 = 0``) for shared or per-path weights ``G``.

    ``H`` is a time-major array with the bits of
    :func:`~demigronwall.generators.partial_sums`.  Raises
    :class:`NegativeWeights` or :class:`ShapeMismatch` unless ``G`` passes
    :func:`_checked_growth` for the N steps and rows of ``x``.
    """
    return _stacked(x.shape, _history_columns(x, growth))


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
    sups = prefix_reduce(batch.values, [n], first=first)[n]
    return _power_moment(sups, np.any(sups < 0.0), p)


def _time_index(batch: TrajectoryBatch, n) -> int:
    """Time index ``n`` (``None`` is N), checked to lie in ``[0, N]``."""
    n = batch.n_steps if n is None else int(n)
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
    return mean_se(-prefix_reduce(batch.values, [n], np.minimum)[n])


def maximal_moment_bound(q, p) -> float:
    """Closed form ``q^p / (1 - p)`` bounding the sup moment by the neg-inf mean.

    A ``p`` outside (0, 1) raises :class:`POutOfRange`; a negative, NaN or
    infinite ``q`` :class:`NegativeInput`.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise POutOfRange(f"p must lie in (0, 1), got {p}")
    q = float(q)
    if not 0.0 <= q < math.inf:
        raise NegativeInput(f"q must be finite and >= 0, got {q}")
    return q ** p / (1.0 - p)


# --------------------------------------------------------------------------
# the Gronwall bound
# --------------------------------------------------------------------------

def _growth_products(g, n_list) -> dict:
    """``{n: prod_{k<n} (1 + G_k)}`` of checked weights: a scalar if shared, one per path if 2-D.

    Per-path products run left to right from 1, as
    :func:`~demigronwall.generators.prefix_reduce` multiplies a row.
    """
    if g.ndim == 1:
        return {n: np.prod(1.0 + g[:n]) for n in n_list}
    wanted = set(n_list)
    product, factor, out = np.ones(len(g)), np.empty(len(g)), {}
    for k in range(max(wanted) + 1):
        if k:
            product *= np.add(1.0, g[:, k - 1], out=factor)
        if k in wanted:
            out[k] = product.copy()
    return out


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
    attained and a strict inequality elsewhere.  Negative X raises
    :class:`NegativeInput`, a nonzero start of S :class:`NonzeroStart`,
    unequal X and S shapes :class:`ShapeMismatch`, and growth weights are
    checked as in :func:`weighted_history`.
    """
    if np.any(X.values < 0.0):
        raise NegativeInput("X must be entrywise nonnegative")
    if np.any(S.values[:, 0] != 0.0):
        raise NonzeroStart("S must start at 0 on every path")
    if X.values.shape != S.values.shape:
        raise ShapeMismatch(f"X shape {X.values.shape} != S shape {S.values.shape}")
    if not isinstance(growth, TrajectoryBatch):
        growth = np.asarray(growth, dtype=np.float64)
    x, s = X.values, S.values
    f = np.empty(x.shape, order="F")
    for k, hist in enumerate(_history_columns(x, growth)):  # checks growth before the first column
        column = np.subtract(x[:, k], s[:, k], out=f[:, k])
        column -= hist
        np.maximum(0.0, column, out=column)
    F = TrajectoryBatch(f, label=f"reverse-F[{X.label}]")
    return GronwallInstance(X=X, F=F, G=growth, S=S)


class _Stream:
    """The columns of one row block of a generated batch, read left to right from its partial-sum tiles."""

    def __init__(self, tiles):
        self.tiles, self.rest, self.at = tiles, None, 0

    def read(self, out, start):
        """Write the columns ``start ..`` into the ``(rows, w)`` array ``out``, skipping any before ``start``.

        Columns before ``start`` are read only by a block whose bounds
        changed since the last round, which starts again from column 0.
        A tile read to its end is let go before the next one is drawn.
        """
        stop = start + out.shape[1]
        while self.at < stop:
            if self.rest is None:
                self.rest = next(self.tiles)
            w = min((start if self.at < start else stop) - self.at, self.rest.shape[1])
            if self.at >= start:
                out[:, self.at - start : self.at - start + w] = self.rest[:, :w]
            self.rest = self.rest[:, w:] if w < self.rest.shape[1] else None
            self.at += w


class _Sweep:
    """Running extremes and increment moments of the columns ``0..upto`` of a batch, extended in place.

    A new sweep has read nothing (``upto`` is -1).  ``sup`` and ``inf`` are
    each row's running maximum and minimum at ``upto``; ``mean[k-1]`` and ``se[k-1]`` are
    :func:`~demigronwall.reporting.mean_se` of the increment column
    ``values[:, k] - values[:, k-1]`` for ``k = 1..known``.  The columns
    are read in rounds of ``width`` columns (:data:`SWEEP_COLUMNS`, or one
    draw tile if that is wider), the last of which ends at the requested
    ``n``.  Of a batch that holds its values, a round's columns are views
    of them.  Of a generated batch, each row block draws its rows of the
    round into one ``(M, width)`` chunk from its own partial-sum tiles
    (:class:`_Stream`), which the next round continues, so the sweep holds
    O(M) memory and no ``values``.  ``moments``, when given, is the
    ``(mean, se, known)`` of another sweep of the batch, shared rather than
    taken again.  Once read, a nonzero entry in column 0 raises
    :class:`NonzeroStart` and a non-finite entry in any column
    :class:`InvalidSpec`.
    """

    def __init__(self, batch: TrajectoryBatch, moments=None):
        m = batch.n_paths
        self.held, self.tiles, self.upto = batch._values, batch._tiles, -1
        self.width = min(max(SWEEP_COLUMNS, tile_width(m)), batch.n_steps + 1)
        if self.held is None:
            self.chunk, self.streams = np.empty((m, self.width), order="F"), {}
        self.sup, self.inf = np.full(m, -np.inf), np.full(m, np.inf)
        self.fold, self.last = np.empty(m), np.empty(m)
        self.mean, self.se, self.known = moments or (np.empty(batch.n_steps), np.empty(batch.n_steps), 0)

    def at(self, n, batch: TrajectoryBatch) -> tuple:
        """``(sup, inf, mean, se)`` of the columns ``0..n`` of ``batch``, this sweep's batch.

        An ``n`` at or beyond ``upto`` extends the sweep to ``n``, and
        ``sup`` and ``inf`` are the sweep's own vectors, which a later
        extension moves.  A smaller ``n`` slices the moments and takes the
        extremes from a new sweep that shares them: a fresh draw of a
        generated batch, or views of held values.  This sweep is left as it
        was.
        """
        if n < self.upto:
            fresh = _Sweep(batch, (self.mean, self.se, self.upto))
            fresh._extend(n)
            return fresh.sup, fresh.inf, self.mean[:n], self.se[:n]
        self._extend(n)
        return self.sup, self.inf, self.mean[:n], self.se[:n]

    def _extend(self, n):
        """Read the columns ``upto + 1..n`` once, a round at a time, and take the moments not yet known.

        After each round the row blocks share out its increment columns,
        each block taking the next column not yet taken, in a scratch
        column of its own.  A column's moments are one
        :func:`~demigronwall.reporting.difference_mean_se` call over the
        whole column, whichever block takes it, so their bits do not depend
        on the blocks.  Maximum and minimum are exact, so ``sup`` and
        ``inf`` have the bits of
        :func:`~demigronwall.generators.prefix_reduce` in any rounds and any
        order of calls, up to the sign of a zero in a row that mixes
        ``+0.0`` and ``-0.0``, which no report value reads.
        """
        for c0 in range(self.upto + 1, n + 1, self.width):
            cols = self._round(c0, min(c0 + self.width, n + 1))
            if c0 == 0 and np.any(cols[:, 0] != 0.0):
                raise NonzeroStart("the maximal inequality requires paths starting at 0")
            todo = range(max(c0, self.known + 1), c0 + cols.shape[1])
            if todo:
                row_blocks(len(cols), functools.partial(self._moments, cols, c0, iter(todo)))
            np.copyto(self.last, cols[:, -1])
        self.upto, self.known = max(self.upto, n), max(self.known, n)

    def _moments(self, cols, c0, todo, r0, r1):
        """The moments of the increment columns ``k`` that ``todo`` yields, ``cols`` holding columns ``c0..``."""
        scratch = np.empty(len(cols))
        for k in todo:
            prev = cols[:, k - c0 - 1] if k > c0 else self.last
            self.mean[k - 1], self.se[k - 1] = difference_mean_se(cols[:, k - c0], prev, scratch)

    def _round(self, c0, c1):
        """The columns ``c0..c1-1`` as an ``(M, c1 - c0)`` array, each row block's extremes folded in.

        Each row block (:func:`~demigronwall.generators.row_blocks`) draws
        its rows of the columns, if the batch holds no values, and folds
        their ``np.maximum.reduce`` (``np.minimum.reduce``) into its rows of
        ``sup`` (``inf``).  A NaN stays in the extremes
        and an infinity becomes one, so checking them after the round finds
        every non-finite entry read, before its moments are taken.
        """
        cols = self.chunk[:, : c1 - c0] if self.held is None else self.held[:, c0:c1]

        def block(r0, r1):
            if self.held is None:
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


def _screened_extremes(values, n) -> tuple:
    """``(sup, inf, mean, se)`` of the columns ``0..n`` of ``values``, from a new :class:`_Sweep`."""
    batch = TrajectoryBatch(values)
    return _Sweep(batch).at(n, batch)


def verify_maximal_inequality(batch: TrajectoryBatch, p_grid, n=None) -> VerificationReport:
    """Check ``E[(sup S)^p] <= (E[-inf S])^p / (1-p)`` on a demimartingale batch.

    The demimartingale property itself is the caller's responsibility; a
    cheap mean-increment screen warns (never fails) if some step's mean
    increment lies more than 4 SE below zero.  The running maximum and
    minimum and the screen's increment moments come from one sweep of the
    batch's columns that later calls continue (:class:`_Sweep`): calls at
    ``n = 2, 10, 25, 50`` read each column once, a repeated ``n`` reads
    none, and a smaller ``n`` reads only its extremes, from a fresh draw
    unless the batch holds its values.  A batch from
    :func:`~demigronwall.generators.generate_paths` is read without
    building its ``values``: the sweep holds O(M) memory.  The reports are
    the same bits in any order of calls, and on a generated batch the same
    as on a copy that holds the values.  Each grid point passes
    when ``lhs <= rhs + SLACK_SD * combined_SE`` with the right-hand error
    propagated through the power by the delta method.  A scalar or empty
    ``p_grid`` raises :class:`InvalidSpec`, a ``p`` outside (0, 1)
    :class:`POutOfRange`, an ``n`` outside ``[0, N]`` :class:`ShapeMismatch`
    and then a nonzero first column :class:`NonzeroStart`, all before the
    screen; the first two before any column is read, leaving the batch's
    sweep as it was.  A non-finite entry among the columns read raises
    :class:`InvalidSpec`.
    """
    p_grid = [float(p) for p in exponent_list(p_grid)]
    for p in p_grid:
        if not 0.0 < p < 1.0:
            raise POutOfRange(f"p must lie in (0, 1), got {p}")
    n = _time_index(batch, n)
    # off the batch until the report is made, so that no other call extends it (and moves sups) meanwhile
    sweep = vars(batch).pop("_sweep", None) or _Sweep(batch)
    sups, infs, mean, se = sweep.at(n, batch)
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
    (``None`` means ``[N]``), growth weights that are negative
    (:class:`NegativeWeights`) or do not cover the N steps of every path
    (:class:`ShapeMismatch`), and a pathwise violation of the recursion
    beyond :data:`HYPOTHESIS_TOL` of the data scale :class:`HypothesisViolated`,
    counted one time column at a time.  The running maxima of X and F and the growth products are then swept
    once per ``n``, so each cell only takes powers and norms.  Each cell
    compares the Monte Carlo left side against :func:`holder_bound` with
    one-sided ``SLACK_SD * SE`` slack.  Rows are pair-major, then in
    ``n_list`` order.
    """
    X = instance.X
    pairs, n_list = _harness_grid(pairs, n_list, 0, X.n_steps)
    # max(v.max(), -v.min()) is abs(v).max() exactly, without a batch-sized copy
    scale = max(1.0, *(max(float(v.max()), -float(v.min())) for v in (X.values, instance.F.values)))
    floor = -HYPOTHESIS_TOL * scale
    violations = sum(int(np.count_nonzero(gap < floor)) for gap in _gap_columns(instance))  # checks G first
    if violations:
        raise HypothesisViolated(f"{violations} path/time cells violate the recursion hypothesis beyond tolerance")
    g = _growth_array(instance.G)
    x_sups = prefix_reduce(X.values, n_list)
    x_negative = {n: np.any(sups < 0.0) for n, sups in x_sups.items()}
    f_moments = {n: mean_se(sups) for n, sups in prefix_reduce(instance.F.values, n_list).items()}
    products = _growth_products(g, n_list)
    report = VerificationReport(command="gronwall-theorem", columns=GRONWALL_COLUMNS)
    for pair in pairs:
        for n in n_list:
            lhs, lhs_se = _power_moment(x_sups[n], x_negative[n], pair.p)
            rhs, rhs_se = holder_bound(pair, products[n], *f_moments[n])
            report.add_row(
                n=n, p=pair.p, mu=pair.mu, nu=pair.nu, lhs=lhs, lhs_se=lhs_se, rhs=rhs,
                **one_sided_verdict(lhs, lhs_se, rhs, rhs_se),
            )
            report.checks[f"hypothesis_holds[n={n},p={pair.p:g},mu={pair.mu:g}]"] = True  # or raised above
    return report
