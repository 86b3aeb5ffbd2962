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

import math
from dataclasses import dataclass

import numpy as np

from .errors import BatchTooLarge, InvalidSpec, ShapeMismatch
from .rng import normal_matrix, uniform_matrix

#: Refuse to allocate batches beyond this many matrix entries (~1 GiB).
MAX_BATCH_ENTRIES = 1 << 27

#: Batches are generated (and screened) in blocks of about this many
#: entries (512 KB of float64), so each block's temporaries stay in L2.
BLOCK_ENTRIES = 1 << 16

#: Least rows per block of :func:`prefix_reduce`, so each column slice it
#: reads stays long enough to amortise the per-call cost of a ufunc on wide rows.
SWEEP_MIN_ROWS = 1 << 10


def prefix_reduce(values, n_list, ufunc=np.maximum, first=0):
    """``{n: ufunc-reduction of each row over columns first..n}`` for every ``n`` in ``n_list``.

    One sweep over the columns, ``ufunc(acc, block[:, k], out=acc)``, on row
    blocks of about :data:`BLOCK_ENTRIES` entries but at least
    :data:`SWEEP_MIN_ROWS` rows, records ``acc`` at each requested ``n``; this
    avoids the per-row overhead of reducing short rows along ``axis=1``.
    Maximum and minimum are exact in any order, so the result equals numpy's
    row maximum (minimum) of those columns bit for bit,
    up to the sign of a zero when a row mixes ``+0.0`` and ``-0.0``;
    ``np.multiply`` multiplies left to right, as ``np.prod`` does over a row.
    A tuple of ufuncs shares one sweep, so each column is read once for all
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
    last = wanted[-1]
    outs = [{n: np.empty(values.shape[0], dtype=values.dtype) for n in wanted} for _ in ufuncs]
    rows = max(SWEEP_MIN_ROWS, BLOCK_ENTRIES // (last - first + 1))
    for r0 in range(0, values.shape[0], rows):
        block = values[r0 : r0 + rows]
        accs = [block[:, first].copy() for _ in ufuncs]
        for k in range(first, last + 1):
            if k > first:
                column = block[:, k]
                for f, acc in zip(ufuncs, accs):
                    f(acc, column, out=acc)
            if k in outs[0]:
                for out, acc in zip(outs, accs):
                    out[k][r0 : r0 + rows] = acc
    return tuple(outs) if isinstance(ufunc, tuple) else outs[0]


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
        starts_at_zero: when True, column 0 is asserted to be identically 0.
    """

    values: np.ndarray
    label: str = ""
    starts_at_zero: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise InvalidSpec(f"batch values must be a 2-D M x (N+1) matrix, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise InvalidSpec("batch contains non-finite entries")
        if self.starts_at_zero and np.any(values[:, 0] != 0.0):
            raise InvalidSpec("batch flagged starts_at_zero has a nonzero first column")
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
            u = uniform_matrix(seed, n_rows, n_steps, first_path=first_path)
            return np.where(u < 0.5, -1.0, 1.0)
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
    return TrajectoryBatch(values, label=f"{spec.label}@seed={int(seed)}", starts_at_zero=True)
