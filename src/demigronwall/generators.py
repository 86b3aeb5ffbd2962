"""Seeded generation of discrete-time stochastic sequences.

A :class:`TrajectoryBatch` is the universal carrier used by every check in
the package: ``M`` independent sample paths of length ``N + 1``, stored as
an ``M x (N+1)`` matrix with column ``k`` holding time index ``k``.

Available generators:

``random_walk``
    Partial sums of i.i.d. mean-zero increments (symmetric +-1 or standard
    normal).  A martingale, hence also a demimartingale.

``associated_partial_sum``
    Partial sums of common-shock increments ``U_i + theta * V`` with
    ``U_i`` i.i.d. centered uniforms on [-1, 1] and ``V`` one centered
    uniform shock shared inside each path.  Nondecreasing functions of
    independent variables are associated, so the increments form a
    mean-zero associated family with dependence tuned by ``theta``.

``bounded_associated_partial_sum``
    Same construction with increments clipped to ``[-c, c]``.  Clipping is
    nondecreasing, so association survives, and symmetry keeps the
    increments mean zero.

``two_point_demisub``
    The two-atom sequence with rows ``(0, -1, -2)`` (probability ``p``) and
    ``(0, 1, 2)`` (probability ``1 - p``).  For ``p <= 1/2`` it satisfies
    the demisubmartingale inequality while failing the submartingale
    property.  Requests longer than two steps freeze the final value, which
    keeps both the two-atom law and the defining inequality intact.

Every kind, two-point and zero-step batches included, is drawn in the same
row blocks from one increment law per kind.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import BatchTooLarge, InvalidSpec, ShapeMismatch
from .rng import normal_matrix, raw_uint64, uniform_matrix

#: Refuse to allocate batches beyond this many matrix entries (~1 GiB).
MAX_BATCH_ENTRIES = 1 << 27

#: Batches are generated in row blocks of about this many entries (512 KB of
#: float64), so each block's temporaries stay in L2.
BLOCK_ENTRIES = 1 << 16

#: :func:`transposed_blocks` copies row blocks of about this many entries
#: (256 KB of float64) into one reused scratch buffer, so every reduction
#: over a block, and a temporary of the same size, stays in a 1 MB L2.
SWEEP_ENTRIES = 1 << 15


def transposed_blocks(values, first, last):
    """Yield ``(rows, c0, t)`` over columns ``first..last`` of a 2-D ``values``, one row block at a time.

    ``t`` is ``values[rows, c0 : c0 + len(t)]`` transposed, copied into one
    C-contiguous scratch buffer of about :data:`SWEEP_ENTRIES` entries that the
    next block overwrites, so a reduction over time reads whole rows of ``t``.
    Rows wider than the buffer are cut into column chunks that overlap by one
    column: ``c0`` of a later chunk is the last column of the chunk before, so
    the increments ``t[1:] - t[:-1]`` of all chunks cover every step once, and
    a running reduction can carry its accumulator in through ``t[0]``.  Row
    blocks come in row order, the chunks of one row block in column order.
    """
    width = last - first + 1
    n_rows = max(1, SWEEP_ENTRIES // width)
    n_cols = min(width, max(2, SWEEP_ENTRIES // n_rows))  # the whole width unless it exceeds the buffer
    scratch = np.empty(n_rows * n_cols, dtype=values.dtype)
    for r0 in range(0, values.shape[0], n_rows):
        rows = slice(r0, min(r0 + n_rows, values.shape[0]))
        c0 = first
        while True:
            c1 = min(c0 + n_cols - 1, last)
            t = scratch[: (c1 - c0 + 1) * (rows.stop - r0)].reshape(c1 - c0 + 1, -1)
            np.copyto(t, values[rows, c0 : c1 + 1].T)
            yield rows, c0, t
            if c1 == last:
                break
            c0 = c1


def prefix_sweep(values, ufuncs, outs, first=0):
    """Fill ``outs`` as :func:`prefix_reduce` does, yielding each block of :func:`transposed_blocks` first.

    ``outs`` holds one dict per ufunc, each mapping the same requested column
    indices ``n`` (all in ``[first, N]``) to a preallocated output of one entry
    per row.  A caller may read each yielded ``(rows, c0, t)`` before the block
    is folded in, but not keep or write it; the outputs are complete once the
    generator is exhausted.  Each stretch of ``t`` between consecutive stops
    (requested columns and chunk ends) takes one ``ufunc.reduce(stretch,
    axis=0)``, after the running accumulator is written into the stretch's
    first row; a chunk end carries the accumulator to the next chunk in the
    output of the next requested column.
    """
    wanted = sorted(outs[0])
    for rows, c0, t in transposed_blocks(values, first, wanted[-1]):
        yield rows, c0, t
        c1 = c0 + len(t) - 1
        start, carried = c0, c0 > first
        stops = [n for n in wanted if c0 <= n <= c1 and not (carried and n == c0)]
        if not stops or stops[-1] < c1:
            stops.append(c1)
        for stop in stops:
            src, dest = (wanted[bisect.bisect_left(wanted, k)] for k in (start, stop))
            stretch = t[start - c0 : stop - c0 + 1]
            for f, out in zip(ufuncs, outs):
                if carried:
                    stretch[0] = out[src][rows]
                f.reduce(stretch, axis=0, out=out[dest][rows])
            start, carried = stop, True


def prefix_reduce(values, n_list, ufunc=np.maximum, first=0):
    """``{n: ufunc-reduction of each row over columns first..n}`` for every ``n`` in ``n_list``.

    One sweep (:func:`prefix_sweep`) reads each row block once, transposed
    into a contiguous scratch copy (:func:`transposed_blocks`), and reduces
    it over time with one ``ufunc.reduce`` per stretch between requested
    ``n``, so no per-row or per-column call is made.  Every element goes
    through the same left-to-right sequence of operations as a loop
    ``ufunc(acc, values[:, k], out=acc)`` over the columns: maximum and
    minimum equal numpy's row maximum (minimum) of those columns bit for bit,
    up to the sign of a zero when a row mixes ``+0.0`` and ``-0.0``, and
    ``np.multiply`` multiplies left to right, as ``np.prod`` does over a row.
    A tuple of ufuncs shares one sweep, so each block is read once for all
    of them, and gives a tuple of such dicts.

    Raises:
        ShapeMismatch: ``values`` not 2-D, or some ``n`` outside ``[first, N]``.
        InvalidSpec: empty ``n_list``.
    """
    ufuncs = ufunc if isinstance(ufunc, tuple) else (ufunc,)
    values = np.asarray(values)
    wanted = sorted({int(n) for n in n_list})
    if not wanted:
        raise InvalidSpec("empty n_list: need at least one column index")
    if values.ndim != 2 or not 0 <= first <= wanted[0] or wanted[-1] >= values.shape[1]:
        raise ShapeMismatch(
            f"need 0 <= first <= n < {values.shape[-1]} on a 2-D array, got first={first}, "
            f"n_list={wanted}, shape {values.shape}"
        )
    outs = tuple({n: np.empty(values.shape[0], dtype=values.dtype) for n in wanted} for _ in ufuncs)
    for _ in prefix_sweep(values, ufuncs, outs, first):
        pass
    return outs if isinstance(ufunc, tuple) else outs[0]


_KINDS = (
    "random_walk",
    "associated_partial_sum",
    "bounded_associated_partial_sum",
    "two_point_demisub",
)


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """M independent discrete-time sample paths of length N + 1.

    Attributes:
        values: float matrix of shape (n_paths, n_steps + 1); row ``r``,
            column ``k`` is path ``r`` at time index ``k``.
        label: generator descriptor for reports.
    """

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise InvalidSpec(f"batch values must be a 2-D M x (N+1) matrix, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise InvalidSpec("batch contains non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1] - 1


@dataclass(frozen=True)
class GeneratorSpec:
    """Descriptor of one path generator; use the factory classmethods."""

    kind: str
    increment: str = "pm1"  # random_walk only: "pm1" or "gauss"
    theta: float = 0.0
    prob: float = 0.5
    bound: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidSpec(f"unknown generator kind {self.kind!r}")
        if self.kind == "random_walk" and self.increment not in ("pm1", "gauss"):
            raise InvalidSpec(f"random_walk increment must be 'pm1' or 'gauss', got {self.increment!r}")
        shock = self.kind in ("associated_partial_sum", "bounded_associated_partial_sum")
        if shock and not 0.0 <= self.theta < math.inf:
            raise InvalidSpec(f"common-shock weight theta must be finite and >= 0, got {self.theta}")
        if self.kind == "bounded_associated_partial_sum" and not 0.0 < self.bound < math.inf:
            raise InvalidSpec(f"increment bound must be finite and > 0, got {self.bound}")
        if self.kind == "two_point_demisub" and not 0.0 <= self.prob <= 1.0:
            raise InvalidSpec(f"two-point probability must lie in [0, 1], got {self.prob}")

    @classmethod
    def random_walk(cls, increment="pm1") -> "GeneratorSpec":
        return cls(kind="random_walk", increment=increment)

    @classmethod
    def associated(cls, theta) -> "GeneratorSpec":
        return cls(kind="associated_partial_sum", theta=float(theta))

    @classmethod
    def bounded_associated(cls, theta, bound) -> "GeneratorSpec":
        return cls(kind="bounded_associated_partial_sum", theta=float(theta), bound=float(bound))

    @classmethod
    def two_point(cls, prob) -> "GeneratorSpec":
        return cls(kind="two_point_demisub", prob=float(prob))

    @property
    def label(self) -> str:
        if self.kind == "random_walk":
            return f"random_walk[{self.increment}]"
        if self.kind == "associated_partial_sum":
            return f"associated_partial_sum[theta={self.theta:g}]"
        if self.kind == "bounded_associated_partial_sum":
            return f"bounded_associated_partial_sum[theta={self.theta:g},c={self.bound:g}]"
        return f"two_point_demisub[p={self.prob:g}]"


_SIGN_BIT = np.uint64(1 << 63)
_ONE_BITS = np.float64(1.0).view(np.uint64)


def _centered_uniform(u):
    return 2.0 * u - 1.0


def associated_increment_matrix(theta, n_steps, n_paths, seed, bound=None):
    """Mean-zero associated increments, shape ``(n_paths, n_steps)``.

    ``U_i + theta * V`` clipped to ``[-bound, bound]`` when a bound is given.
    Exposed separately because several harnesses need the increments
    themselves (the associated collection) rather than their partial sums.
    """
    if bound is None:
        spec = GeneratorSpec.associated(theta)
    else:
        spec = GeneratorSpec.bounded_associated(theta, bound)
    return _increments(spec, n_steps, n_paths, seed, 0)


def _increments(spec: GeneratorSpec, n_steps, n_rows, seed, first_path):
    """Increments of paths ``first_path .. first_path + n_rows - 1``, shape ``(n_rows, n_steps)``."""
    if spec.kind == "random_walk":
        if spec.increment == "pm1":
            # u < 0.5 exactly when the word's top bit is 0: -1.0 there, +1.0 elsewhere
            bits = raw_uint64(seed, n_rows, n_steps, first_path=first_path)
            np.invert(bits, out=bits)
            bits &= _SIGN_BIT
            bits |= _ONE_BITS
            return bits.view(np.float64)
        return normal_matrix(seed, n_rows, n_steps, first_path=first_path)
    if spec.kind == "two_point_demisub":
        # +-1 on the first two steps, then 0: the atom paths (-1, -2) and (1, 2), frozen after
        inc = np.zeros((n_rows, n_steps))
        inc[:, :2] = np.where(uniform_matrix(seed, n_rows, 1, first_path=first_path) < spec.prob, -1.0, 1.0)
        return inc
    # draw 0 per path is the shared shock V, draws 1..n are the U_i
    u = uniform_matrix(seed, n_rows, n_steps + 1, first_path=first_path)
    inc = _centered_uniform(u[:, 1:]) + spec.theta * _centered_uniform(u[:, :1])
    if spec.kind == "bounded_associated_partial_sum":
        np.clip(inc, -spec.bound, spec.bound, out=inc)
    return inc


def generate_paths(spec: GeneratorSpec, n_steps, n_paths, seed) -> TrajectoryBatch:
    """Generate ``n_paths`` seeded sample paths of ``n_steps`` steps.

    Generation is per-path deterministic: path ``r`` depends only on
    ``(seed, r)``, never on ``n_paths`` or on generation order.  Rows of
    every kind, two-point and ``n_steps = 0`` included, are filled in
    blocks of about :data:`BLOCK_ENTRIES` entries, each drawn with its own
    ``first_path``, so the block boundaries leave no trace in the values:
    any batch equals, bit for bit, the first rows of a larger one.

    Raises:
        InvalidSpec: parameter outside its admissible range.
        BatchTooLarge: ``n_paths * (n_steps + 1)`` above the memory budget.
    """
    n_steps = int(n_steps)
    n_paths = int(n_paths)
    if n_paths < 1:
        raise InvalidSpec(f"n_paths must be >= 1, got {n_paths}")
    if n_steps < 0:
        raise InvalidSpec(f"n_steps must be >= 0, got {n_steps}")
    if n_paths * (n_steps + 1) > MAX_BATCH_ENTRIES:
        raise BatchTooLarge(
            f"{n_paths} x {n_steps + 1} entries exceed the budget of {MAX_BATCH_ENTRIES}"
        )
    values = np.empty((n_paths, n_steps + 1))
    values[:, 0] = 0.0
    rows = max(1, BLOCK_ENTRIES // (n_steps + 1))
    for r0 in range(0, n_paths, rows):
        r1 = min(r0 + rows, n_paths)
        inc = _increments(spec, n_steps, r1 - r0, seed, r0)
        np.cumsum(inc, axis=1, out=values[r0:r1, 1:])
    return TrajectoryBatch(values, label=f"{spec.label}@seed={int(seed)}")
