"""Seeded generation of discrete-time stochastic sequences.

A :class:`TrajectoryBatch` is the universal carrier used by every check in
the package: ``M`` independent sample paths of length ``N + 1``, stored as
an ``M x (N+1)`` matrix with column ``k`` holding time index ``k``.  Every
path matrix the package builds is time-major (Fortran order, each time
column contiguous): it is filled one time step for all paths at a time
(:func:`partial_sums`) and reduced one column at a time
(:func:`prefix_reduce`).  Any layout is accepted and gives the same bits.

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
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BatchTooLarge, InvalidSpec, ShapeMismatch
# uniform_matrix and normal_matrix stay importable here: perfbench/tracer.py wraps them by this name
from .rng import draw_columns, normal_matrix, uniform_matrix  # noqa: F401

#: Refuse to allocate batches beyond this many matrix entries (~1 GiB).
MAX_BATCH_ENTRIES = 1 << 27


def prefix_reduce(values, n_list, ufunc=np.maximum, first=0):
    """``{n: ufunc-reduction of each row over columns first..n}`` for every ``n`` in ``n_list``.

    One loop over the columns ``first..max(n_list)`` runs ``ufunc(acc,
    values[:, k], out=acc)`` and keeps a copy of ``acc`` at each requested
    ``n``, whatever the layout of ``values``.  Maximum and minimum equal
    numpy's row maximum (minimum) bit for bit, up to the sign of a zero when
    a row mixes ``+0.0`` and ``-0.0``; ``np.multiply`` multiplies left to
    right, as ``np.prod`` does over a row.  A tuple of ufuncs shares the
    loop and gives a tuple of such dicts.

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
    accs = [values[:, first].copy() for _ in ufuncs]
    outs = tuple({} for _ in ufuncs)
    last = wanted[-1]
    for k in range(first, last + 1):
        if k > first:
            for f, acc in zip(ufuncs, accs):
                f(acc, values[:, k], out=acc)
        if k in wanted:
            for acc, out in zip(accs, outs):
                out[k] = acc if k == last else acc.copy()
    return outs if isinstance(ufunc, tuple) else outs[0]


def partial_sums(n_paths, n_steps, increments):
    """Time-major partial sums: ``S_0 = 0`` and ``S_k = S_{k-1} + inc_k`` for ``k = 1..n_steps``.

    ``increments`` yields the ``n_steps`` columns of ``n_paths`` entries in
    time order.  The result is one Fortran-order ``(n_paths, n_steps + 1)``
    array; column 1 is ``inc_1`` itself, so every bit equals ``np.cumsum``
    along the rows, a ``-0.0`` first increment included.
    """
    out = np.empty((n_paths, n_steps + 1), order="F")
    out[:, 0] = 0.0
    for k, inc in zip(range(1, n_steps + 1), increments):
        if k == 1:
            out[:, 1] = inc
        else:
            np.add(out[:, k - 1], inc, out=out[:, k])
    return out


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
            column ``k`` is path ``r`` at time index ``k``.  Every batch the
            package builds is column-major (Fortran order), so each time
            column is contiguous; any layout is accepted and kept, and gives
            the same results.
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
    """``2u - 1`` in place on the uniforms ``u``."""
    return np.subtract(np.multiply(u, 2.0, out=u), 1.0, out=u)


def associated_increment_matrix(theta, n_steps, n_paths, seed, bound=None):
    """Mean-zero associated increments, a Fortran-order array of shape ``(n_paths, n_steps)``.

    ``U_i + theta * V`` clipped to ``[-bound, bound]`` when a bound is given.
    Exposed separately because several harnesses need the increments
    themselves (the associated collection) rather than their partial sums.
    """
    spec = GeneratorSpec.associated(theta) if bound is None else GeneratorSpec.bounded_associated(theta, bound)
    inc = np.empty((n_paths, n_steps), order="F")
    for k, column in enumerate(_increment_columns(spec, n_steps, n_paths, seed)):
        inc[:, k] = column
    return inc


def _pm1_steps(bits):
    """-1.0 where the word's top bit is 0 (the uniform is below 0.5), +1.0 elsewhere, in place on ``bits``."""
    np.invert(bits, out=bits)
    bits &= _SIGN_BIT
    bits |= _ONE_BITS
    return bits.view(np.float64)


def _shock_steps(spec: GeneratorSpec, uniforms, n_steps):
    """Increment columns of the kinds whose draw 0 of a path is a per-path shock."""
    shock = next(uniforms)
    if spec.kind == "two_point_demisub":
        # +-1 on the first two steps, then 0: the atom paths (-1, -2) and (1, 2), frozen after
        step = np.where(shock < spec.prob, -1.0, 1.0)
        zero = np.zeros_like(step)
        for k in range(n_steps):
            yield step if k < 2 else zero
        return
    shock = spec.theta * _centered_uniform(shock)
    for u in uniforms:
        inc = _centered_uniform(u)
        inc += shock
        if spec.kind == "bounded_associated_partial_sum":
            np.clip(inc, -spec.bound, spec.bound, out=inc)
        yield inc


def _increment_columns(spec: GeneratorSpec, n_steps, n_paths, seed):
    """Iterator over the increments of steps ``1..n_steps`` of paths ``0..n_paths-1``, one step at a time.

    The only code that knows each kind's law.  Step ``k`` of a random walk
    is draw ``k - 1`` of its path; the other kinds draw their shock at
    counter 0 and step ``k`` at counter ``k``.  The seed is checked at the
    call, and each step is drawn when the iterator reaches it.
    """
    if spec.kind == "random_walk":
        if spec.increment == "pm1":
            return map(_pm1_steps, draw_columns(seed, n_paths, n_steps, "words"))
        return draw_columns(seed, n_paths, n_steps, "normal")
    return _shock_steps(spec, draw_columns(seed, n_paths, n_steps + 1), n_steps)


def generate_paths(spec: GeneratorSpec, n_steps, n_paths, seed) -> TrajectoryBatch:
    """Generate ``n_paths`` seeded sample paths of ``n_steps`` steps, time-major.

    ``values`` is one Fortran-order array, filled one time step for all
    paths at a time (:func:`partial_sums`).  Generation is per-path
    deterministic: path ``r`` depends only on ``(seed, r)``, never on
    ``n_paths`` or on generation order, so any batch equals, bit for bit,
    the first rows of a larger one.

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
    values = partial_sums(n_paths, n_steps, _increment_columns(spec, n_steps, n_paths, seed))
    return TrajectoryBatch(values, label=f"{spec.label}@seed={int(seed)}")
