"""Statistical checks of association and the demimartingale inequality.

The defining inequality ``E[(S_{j+1} - S_j) f(S_1, ..., S_j)] >= 0``
quantifies over *all* componentwise nondecreasing ``f`` (nonnegative ``f``
for the demisubmartingale variant), which no finite procedure can certify.
The checks here evaluate a fixed, explicitly parameterized family of
nondecreasing probe functions and run one-sided z-tests per cell:

* each cell is a test at :data:`~demigronwall.reporting.Z_LEVEL` = 0.999,
  so a true inequality fails a cell with probability about 0.1% under the
  normal approximation, with no multiplicity correction across cells;
* a report with many cells can therefore fail on a true demimartingale,
  so a failed cell calls for a rerun with other seeds or more paths and
  is not by itself proof of a violation;
* an all-pass report is evidence, not proof.

No completeness claim is made for the probe family.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBatch, EmptyFamily, InvalidSpec, NotNondecreasing
from .generators import TrajectoryBatch
from .reporting import Z_SLACK, VerificationReport, mean_se, one_sided_verdict

DEMI_COLUMNS = ["j", "function", "estimate", "stderr", "z", "verdict"]

#: contiguous path blocks whose covariances give an association cell's SE
ASSOCIATION_BLOCKS = 30

#: fewest paths :func:`check_demimartingale` accepts
DEMI_MIN_PATHS = 30

#: fewest steps :func:`check_demimartingale` accepts: its first cell is j = 1, which needs S_2
DEMI_MIN_STEPS = 2

#: fewest paths :func:`check_association` accepts: two per block
ASSOCIATION_MIN_PATHS = 2 * ASSOCIATION_BLOCKS


# --------------------------------------------------------------------------
# probe functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant1:
    """f(s) = 1; the weakest probe, it tests plain mean growth."""

    nonnegative = True
    min_coords = 1

    @property
    def name(self) -> str:
        return "const1"

    def evaluate(self, prefix: np.ndarray) -> np.ndarray:
        return np.ones(prefix.shape[0])


@dataclass(frozen=True)
class CoordinateRamp:
    """f(s) = clamp((s_coord - center) / width, 0, 1); coord is 1-based."""

    coord: int
    center: float
    width: float
    nonnegative = True

    def __post_init__(self):
        if self.coord < 1:
            raise InvalidSpec(f"ramp coordinate must be >= 1, got {self.coord}")
        if not self.width > 0:
            raise InvalidSpec(f"ramp width must be > 0, got {self.width}")

    @property
    def min_coords(self) -> int:
        return self.coord

    @property
    def name(self) -> str:
        return f"ramp[{self.coord};c={self.center:g};w={self.width:g}]"

    def evaluate(self, prefix: np.ndarray) -> np.ndarray:
        return np.clip((prefix[:, self.coord - 1] - self.center) / self.width, 0.0, 1.0)


@dataclass(frozen=True)
class ProductRamp:
    """f(s) = prod_j clamp((s_j - c_j) / width, 0, 1) over the leading coords."""

    centers: tuple
    width: float
    nonnegative = True

    def __post_init__(self):
        if len(self.centers) < 1:
            raise InvalidSpec("product ramp needs at least one center")
        if not self.width > 0:
            raise InvalidSpec(f"ramp width must be > 0, got {self.width}")

    @property
    def min_coords(self) -> int:
        return len(self.centers)

    @property
    def name(self) -> str:
        cs = ";".join(f"{c:g}" for c in self.centers)
        return f"prodramp[c={cs};w={self.width:g}]"

    def evaluate(self, prefix: np.ndarray) -> np.ndarray:
        out = np.ones(prefix.shape[0])
        for j, c in enumerate(self.centers):
            out *= np.clip((prefix[:, j] - c) / self.width, 0.0, 1.0)
        return out


@dataclass(frozen=True)
class ShiftedIdentityLast:
    """f(s) = s_last - center; nondecreasing but sign-varying."""

    center: float
    nonnegative = False
    min_coords = 1

    @property
    def name(self) -> str:
        return f"last-{self.center:g}"

    def evaluate(self, prefix: np.ndarray) -> np.ndarray:
        return prefix[:, -1] - self.center


def _select(a, ks):
    """Put the order statistics ``ks`` (ascending, distinct) of the 1-D ``a`` in place, as a sort would.

    One single-kth ``partition`` of ``a`` at the middle index, then the
    same on each side: numpy partitions at one kth far faster than at
    several in one call.
    """
    if ks:
        mid = len(ks) // 2
        k = ks[mid]
        a.partition(k)
        _select(a[:k], ks[:mid])
        _select(a[k + 1 :], [j - k - 1 for j in ks[mid + 1 :]])


#: entries of the strided sample from which :func:`_bracketed` brackets each order statistic
QUARTILE_SAMPLE = 1 << 15

#: entries that :func:`_bracketed` compares with the brackets at a time, about a quarter of an L2 cache
_BRACKET_CHUNK = 1 << 16


def _bracketed(values, ranks):
    """The order statistics ``ranks`` and ``ranks + 1`` of the finite ``values``, without copying them, or ``None``.

    ``ranks`` are three ascending indices into the sorted entries.  A sorted
    strided sample of about :data:`QUARTILE_SAMPLE` entries brackets each
    pair with its values ``2 sqrt(sample size)`` sample ranks either side, more
    than four standard errors of a sample quantile.  One pass over
    contiguous chunks of the data counts the entries below each bracket and
    gathers those inside; :func:`_select` then places each pair among the
    gathered entries, which hold about 7% of them.  ``None`` (the caller takes a
    flat copy) when the data are not contiguous or under 8 samples long,
    the brackets touch, more than an eighth of the entries fall inside
    them, or a pair falls outside its bracket: ties, and data whose values
    repeat with the sample's stride, do that.
    """
    n = values.size
    if n < 8 * QUARTILE_SAMPLE or not (values.flags.c_contiguous or values.flags.f_contiguous):
        return None
    flat = values.ravel(order="K")
    sample = np.sort(flat[:: n // QUARTILE_SAMPLE])
    half = 2 * math.isqrt(sample.size)
    at = ranks * sample.size // n
    bounds = np.empty(6)  # each bracket is [bounds[2i], bounds[2i + 1])
    bounds[0::2] = sample[np.maximum(at - half, 0)]
    bounds[1::2] = np.nextafter(sample[np.minimum(at + 1 + half, sample.size - 1)], np.inf)
    del sample
    if not (bounds[1:] > bounds[:-1]).all():
        return None
    below, kept, inside = np.zeros(3, dtype=np.intp), [], 0
    less = np.empty((6, min(n, _BRACKET_CHUNK)), dtype=bool)
    for start in range(0, n, _BRACKET_CHUNK):
        part = flat[start : start + _BRACKET_CHUNK]
        rows = np.less(part, bounds[:, None], out=less[:, : part.size])
        below += [np.count_nonzero(row) for row in rows[0::2]]
        # the rows are nested, so an entry lies inside a bracket when an odd number of them hold
        kept.append(part.compress(np.bitwise_xor.reduce(rows, axis=0, out=rows[0])))
        inside += kept[-1].size
        if inside > n // 8:
            return None
    del less
    got = np.concatenate(kept)
    del kept
    ends = np.array([np.count_nonzero(got < b) for b in bounds[1::2]])  # in ``got`` sorted, bracket i ends here
    pos = ranks - below + np.concatenate(([0], ends[:-1]))
    if not ((ranks >= below) & (pos + 1 < ends)).all():
        return None
    _select(got, sorted({*pos.tolist(), *(pos + 1).tolist()}))
    return got[pos], got[pos + 1]


def _quartiles(values) -> np.ndarray:
    """The pooled 25/50/75% quantiles of the finite ``values``: ``np.quantile``'s linear rule, from six order statistics.

    The order statistics below and above each virtual index ``(n-1) q``
    come from :func:`_bracketed`, which copies none of the data, or, when
    its brackets miss, from :func:`_select` on one flat copy.  They are
    interpolated as numpy does, ``a + (b-a) g``, or ``b - (b-a)(1-g)`` when
    ``g >= 0.5``.  The bits equal ``np.quantile(values, [0.25, 0.5, 0.75])``
    on any layout, up to the sign of a zero when the data mix ``+0.0`` and
    ``-0.0``, which compare equal, so either may be selected.
    """
    values = np.asarray(values)
    virtual = (values.size - 1) * np.array([0.25, 0.5, 0.75])
    # numpy's neighbours: floor and floor + 1, or the last entry (-1) twice at or beyond it (a single value)
    lo = np.where(virtual >= values.size - 1, -1.0, np.floor(virtual))
    hi = np.where(lo < 0, -1.0, lo + 1)
    gamma = virtual - lo
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    pairs = _bracketed(values, lo)
    if pairs is None:
        a = values.flatten(order="K")
        _select(a, sorted({k % a.size for k in (*lo.tolist(), *hi.tolist())}))
        pairs = a[lo], a[hi]
    below, above = pairs
    diff = above - below
    out = below + diff * gamma
    np.subtract(above, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


@dataclass(frozen=True)
class TestFunctionFamily:
    """Finite family of componentwise nondecreasing probe functions."""

    __test__ = False  # not a pytest collection target

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))

    def nonnegative_members(self) -> tuple:
        return tuple(f for f in self.members if f.nonnegative)

    @classmethod
    def default(cls, batch: TrajectoryBatch) -> "TestFunctionFamily":
        """Data-driven default: ramps at batch quantiles plus the two extremes.

        Centers sit at the pooled 25/50/75% quantiles (:func:`_quartiles`:
        bracketed by a sorted strided sample and gathered without a copy,
        :func:`_bracketed`, with one flat copy only when a bracket misses;
        the bits of ``np.quantile``, up to the sign of a zero when the
        batch mixes ``+0.0`` and ``-0.0``) and the ramp width is
        a quarter of the interquartile range (floored away from zero), so
        the probes stay responsive on whatever scale the batch lives on.
        """
        q1, q2, q3 = _quartiles(batch.values)
        width = max((q3 - q1) / 4.0, 1e-6, 1e-9 * max(abs(q1), abs(q3)))
        members = [
            Constant1(),
            CoordinateRamp(1, q1, width),
            CoordinateRamp(1, q2, width),
            CoordinateRamp(1, q3, width),
            ProductRamp((q2, q2), width),
            ShiftedIdentityLast(q2),
        ]
        return cls(tuple(members))


# --------------------------------------------------------------------------
# per-cell z-tests
# --------------------------------------------------------------------------

def _zscore(estimate, stderr) -> float:
    if stderr > 0.0:
        return estimate / stderr
    if estimate == 0.0:
        return 0.0
    return math.copysign(math.inf, estimate)


def _cell_row(j, name, estimate, stderr) -> dict:
    estimate, stderr = float(estimate), float(stderr)
    z = _zscore(estimate, stderr)
    verdict = one_sided_verdict(0.0, 0.0, estimate, stderr, Z_SLACK)["verdict"]
    return {"j": j, "function": name, "estimate": estimate, "stderr": stderr, "z": z, "verdict": verdict}


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def check_demimartingale(batch: TrajectoryBatch, family: TestFunctionFamily, mode="demi") -> VerificationReport:
    """Test ``E[(S_{j+1} - S_j) f(S_1..S_j)] >= 0`` over steps and probes.

    Args:
        batch: sample paths with columns ``S_0 .. S_N``; needs ``N >= 2``.
        family: probe functions; ``mode="demisub"`` restricts evaluation to
            the nonnegative members.
        mode: ``"demi"`` or ``"demisub"``.

    A cell fails when its estimate is below ``-Z_SLACK * SE``.  Cells whose
    probe needs more coordinates than the step provides are skipped, but
    every step must keep at least one cell.  The report's command is
    ``mode`` and its columns are :data:`DEMI_COLUMNS`.

    Raises:
        InvalidSpec: unknown ``mode``.
        EmptyFamily: no admissible probe for the requested mode, or a step
            that no admissible probe fits (named in the message).
        DegenerateBatch: fewer than :data:`DEMI_MIN_PATHS` paths or
            :data:`DEMI_MIN_STEPS` steps.
    """
    if mode not in ("demi", "demisub"):
        raise InvalidSpec(f"mode must be 'demi' or 'demisub', got {mode!r}")
    members = family.members if mode == "demi" else family.nonnegative_members()
    if not members:
        raise EmptyFamily(f"no admissible probe functions for mode={mode!r}")
    if batch.n_paths < DEMI_MIN_PATHS:
        raise DegenerateBatch(
            f"need at least {DEMI_MIN_PATHS} paths for usable standard errors, got {batch.n_paths}"
        )
    if batch.n_steps < DEMI_MIN_STEPS:
        raise DegenerateBatch(f"need at least {DEMI_MIN_STEPS} steps for one cell, got {batch.n_steps}")
    # min_coords is the only fit condition, so the uncovered steps are the first ones
    last_uncovered = min(min(f.min_coords for f in members), batch.n_steps) - 1
    if last_uncovered >= 1:
        steps = "j = 1" if last_uncovered == 1 else f"j = 1..{last_uncovered}"
        raise EmptyFamily(f"no probe for mode={mode!r} fits step(s) {steps}: each needs more coordinates")
    values = batch.values
    report = VerificationReport(command=mode, columns=DEMI_COLUMNS)
    for j in range(1, batch.n_steps):
        prefix = values[:, 1 : j + 1]
        diff = values[:, j + 1] - values[:, j]
        for f in members:
            if f.min_coords > j:
                continue
            est, se = mean_se(diff * f.evaluate(prefix))
            report.rows.append(_cell_row(j, f.name, est, se))
    return report


def check_association(batch: TrajectoryBatch, family: TestFunctionFamily) -> VerificationReport:
    """Test ``Cov(f(X), g(X)) >= 0`` for each unordered pair of distinct probes.

    Columns of ``batch`` are interpreted as the collection ``X_1 .. X_n``.
    The condition is symmetric and holds for ``f = g``, so the cells are the
    pairs ``f|g`` with ``f`` before ``g`` in member order.  Standard errors
    come from batch means over :data:`ASSOCIATION_BLOCKS` contiguous blocks
    of paths, which stays honest under heavy tails, and each cell is a
    one-sided z-test at :data:`~demigronwall.reporting.Z_LEVEL`.  The
    report's command is ``"association"`` and its columns are
    :data:`DEMI_COLUMNS`.

    Raises:
        EmptyFamily: fewer than two applicable probes.
        DegenerateBatch: fewer than two paths per block.
    """
    n_cols = batch.values.shape[1]
    members = [f for f in family.members if f.min_coords <= n_cols]
    if len(members) < 2:
        raise EmptyFamily("association check needs at least two applicable probes")
    m = batch.n_paths
    if m < ASSOCIATION_MIN_PATHS:
        raise DegenerateBatch(
            f"need at least {ASSOCIATION_MIN_PATHS} paths for {ASSOCIATION_BLOCKS}-block standard errors, got {m}"
        )
    values = batch.values
    evals = np.array([f.evaluate(values) for f in members], dtype=np.float64)
    bounds = np.linspace(0, m, ASSOCIATION_BLOCKS + 1).astype(int)
    est = np.cov(evals, ddof=1)
    _, se = mean_se(np.array([np.cov(evals[:, lo:hi], ddof=1) for lo, hi in zip(bounds[:-1], bounds[1:])]))
    report = VerificationReport(command="association", columns=DEMI_COLUMNS)
    for (a, fa), (b, fb) in itertools.combinations(enumerate(members), 2):
        report.rows.append(_cell_row(None, f"{fa.name}|{fb.name}", est[a, b], se[a, b]))
    return report


def two_point_stats(prob, f_at_minus1, f_at_plus1) -> dict:
    """Exact statistics of the two-atom demisubmartingale.

    Returns the probe expectation ``-p f(-1) + (1-p) f(1)`` together with
    the conditional mean of the second value given a first value of -1,
    which is -2 regardless of ``p`` (the conditional law is degenerate) and
    therefore always below -1: the submartingale property fails even when
    the demisubmartingale inequality holds.

    Raises:
        InvalidSpec: ``prob`` outside [0, 1].
        NotNondecreasing: ``f_at_minus1 > f_at_plus1``.
    """
    p = float(prob)
    if not 0.0 <= p <= 1.0:
        raise InvalidSpec(f"probability must lie in [0, 1], got {prob}")
    lo, hi = float(f_at_minus1), float(f_at_plus1)
    if lo > hi:
        raise NotNondecreasing(f"need f(-1) <= f(1), got {lo} > {hi}")
    return {
        "demi_expectation": -p * lo + (1.0 - p) * hi,
        "cond_mean_given_minus1": -2.0,
    }
