"""Seeded generation of discrete-time stochastic sequences.

A :class:`TrajectoryBatch` is the universal carrier used by every check in
the package: ``M`` independent sample paths of length ``N + 1``, an
``M x (N+1)`` matrix with column ``k`` holding time index ``k``.  A batch
made by :func:`generate_paths` holds no matrix: it holds the seeded source
of its partial-sum tiles (:func:`_path_tiles`), which the maximal-lemma
sweep of :func:`~demigronwall.gronwall.verify_maximal_inequality` reads a
few columns at a time, and from which ``values`` is built on first access
and then kept.  The F of :func:`~demigronwall.gronwall.build_instance`,
the CLI's uniform X and G and the increments of
:func:`associated_increments`, the CLI's fractional Y, are such batches
too; F's source walks the columns of X, S and G.  The matrices built here and the partial sums
built from them are time-major (Fortran order, each time column
contiguous): they are filled in time order (:func:`partial_sums`,
:func:`time_major`), after one size check (:func:`check_batch`).  So is
BEM's ``noise``, one column per step.  The operator table of
:func:`~demigronwall.fractional.multi_term_table`, into which the
fractional harness writes its ``F`` one column at a time, is C-order.
Any layout is accepted and gives the same bits.

Work over the rows of a batch runs in contiguous row blocks, one per
worker (:func:`row_blocks`): the calling thread runs block 0 and a pool of
``WORKERS - 1`` threads the others, each block drawing its own paths
(``rng.draw_columns(..., first_path=r0)``).  A block holds at least
:data:`ROW_FLOOR` rows, so smaller batches stay on the calling thread.
Path ``r`` depends only on ``(seed, r)`` and no row operation is split,
so the bits do not depend on the worker count.  Inside a block the draws
and partial sums go in Fortran tiles of :func:`tile_width` time steps,
``max(1, TILE_ENTRIES // M)`` for a batch of ``M`` rows, so a long, narrow
batch takes few Python steps and a wide one keeps one column per step.

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

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BatchTooLarge, InvalidSpec
from .rng import _as_seed, draw_columns
# uniform_matrix and normal_matrix stay importable here: perfbench/tracer.py wraps them by this name
from .rng import normal_matrix, uniform_matrix  # noqa: F401

#: Refuse to allocate a sample matrix beyond this many entries (1 GiB of float64).
#: The budget bounds each matrix, not a command, which may hold several at once.
MAX_BATCH_ENTRIES = 1 << 27


def whole_number(value, name) -> int:
    """``value`` as an int, raising :class:`InvalidSpec` unless it is a whole number (Python and numpy integers are)."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidSpec(f"{name} must be a whole number, got {value!r}")


def check_batch(n_paths, n_steps, width):
    """``(n_paths, n_steps)`` as ints: the one size check, which every sample matrix passes before it is drawn.

    Raises :class:`InvalidSpec` unless ``n_paths >= 1`` and ``n_steps >= 0`` are whole numbers, and
    :class:`BatchTooLarge` if ``n_paths * width`` exceeds :data:`MAX_BATCH_ENTRIES`.
    The check bounds one matrix: the caller's other matrices and temporaries
    are not counted.
    """
    n_paths, n_steps = whole_number(n_paths, "n_paths"), whole_number(n_steps, "n_steps")
    if n_paths < 1 or n_steps < 0:
        raise InvalidSpec(f"need n_paths >= 1 and n_steps >= 0, got {n_paths} and {n_steps}")
    if n_paths * width > MAX_BATCH_ENTRIES:
        raise BatchTooLarge(f"{n_paths} x {width} entries exceed the budget of {MAX_BATCH_ENTRIES}")
    return n_paths, n_steps


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: worker count of :func:`row_blocks`, the CPUs this process may run on; the bits never depend on it
WORKERS = _cpu_count()

#: fewest rows per block of :func:`row_blocks`, so smaller work stays on the calling thread: on 2 CPUs
#: ``demigronwall all --paths 50000`` ran no faster with its batches in two blocks of 25 000 rows than
#: in one, and its two threads traded the interpreter lock some 4 000 times a pass
ROW_FLOOR = 1 << 15

#: entries per tile step: a batch of ``M`` rows draws and sums ``max(1, TILE_ENTRIES // M)`` columns per step
TILE_ENTRIES = 1 << 16

_pool = None  # (pid, executor), started on the first split


def _worker_pool():
    """The ``WORKERS - 1`` pool threads, started on first use, and again in a forked child."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="demigronwall-rows"))
    return _pool[1]


def _workers(n_rows):
    """Workers for work over ``n_rows`` rows: at most ``WORKERS``, ``n_rows`` and one per :data:`ROW_FLOOR` rows."""
    return min(WORKERS, n_rows, max(1, n_rows // ROW_FLOOR))


def row_blocks(n_rows, fn):
    """Run ``fn(r0, r1)`` over contiguous blocks ``[r0, r1)`` that cover ``0 .. n_rows``, one block per worker.

    The blocks are as even as integer division makes them, and there are
    at most ``WORKERS``, at most ``n_rows`` and at most one per
    :data:`ROW_FLOOR` rows, so each block of a split batch holds at least
    that many rows, however many CPUs there are.  The calling thread
    runs block 0 and the pool the others.  Returns once every block has
    finished; if blocks raised, the error of the lowest one is re-raised.  ``fn`` writes only
    its own block, or outputs that it alone takes from a shared queue,
    gives the same bits for any block bounds, and neither calls
    :func:`row_blocks` nor a function that a profiler may have wrapped.
    """
    workers = _workers(n_rows)
    if workers <= 1:
        fn(0, n_rows)
        return
    bounds = [n_rows * i // workers for i in range(workers + 1)]
    pool = _worker_pool()
    futures = [pool.submit(fn, bounds[i], bounds[i + 1]) for i in range(1, workers)]
    try:
        fn(0, bounds[1])
    finally:
        for future in futures:
            future.exception()  # waits: no block may still be writing once this returns
    for future in futures:
        future.result()


def tile_width(n_paths):
    """Columns per tile of an ``n_paths``-row batch: its blocks' tiles hold about ``TILE_ENTRIES`` entries in all."""
    return max(1, TILE_ENTRIES // n_paths)


def time_major(n_paths, n_cols, tiles):
    """Fortran-order ``(n_paths, n_cols)`` floats, filled by row blocks (:func:`row_blocks`) after :func:`check_batch`.

    ``tiles(r0, r1, width)`` yields the columns of rows ``r0 .. r1 - 1`` in
    order, as ``(r1 - r0, w)`` arrays with ``1 <= w <= width``.
    """
    n_paths, n_cols = check_batch(n_paths, n_cols, n_cols)
    out = np.empty((n_paths, n_cols), order="F")
    width = tile_width(n_paths)

    def fill(r0, r1):
        k = 0
        for tile in tiles(r0, r1, width):
            out[r0:r1, k : k + tile.shape[1]] = tile
            k += tile.shape[1]

    row_blocks(n_paths, fill)
    return out


def _running_sums(n_paths, increments):
    """Tiles of the partial sums ``S_0 = 0`` and ``S_k = S_{k-1} + inc_k``, each summed in place in its increment tile.

    Yields ``S_0`` as one ``(n_paths, 1)`` column of zeros, then each item
    of ``increments`` (the increments in time order, one column (1-D) or a
    ``(n_paths, w)`` tile of columns at a time), overwritten with its sums,
    as a ``(n_paths, w)`` array.  A tile wider than tall is summed along its
    rows (``np.cumsum``, left to right); any other one column at a time.
    The sum before ``inc_1`` is ``-0.0``, the identity of addition, so
    ``S_1`` is ``inc_1`` itself and every bit equals ``np.cumsum`` along the
    rows, a ``-0.0`` first increment included.  The one partial-sum code:
    :func:`partial_sums`, ``TrajectoryBatch.values`` and the maximal-lemma
    sweep all read it.
    """
    yield np.zeros((n_paths, 1), order="F")
    last = np.full(n_paths, -0.0)
    for inc in increments:
        tile = inc.reshape(n_paths, -1)
        np.add(last, tile[:, 0], out=tile[:, 0])
        if n_paths < tile.shape[1]:
            np.cumsum(tile, axis=1, out=tile)
        else:
            for j in range(1, tile.shape[1]):
                np.add(tile[:, j - 1], tile[:, j], out=tile[:, j])
        np.copyto(last, tile[:, -1])
        yield tile
        del inc, tile  # before the next tile is drawn


def partial_sums(n_paths, n_steps, increments, out=None):
    """Time-major partial sums: ``S_0 = 0`` and ``S_k = S_{k-1} + inc_k`` for ``k = 1..n_steps``.

    ``increments`` yields the ``n_steps`` increments of ``n_paths`` rows in
    time order, one column (1-D) or a ``(n_paths, w)`` tile of columns at a
    time; copies of them are summed (:func:`_running_sums`), with the bits
    of ``np.cumsum`` along the rows.  The result is a Fortran-order
    ``(n_paths, n_steps + 1)`` array, or ``out``, an array of that shape
    (rows of a larger batch, say).
    """
    if out is None:
        out = np.empty((n_paths, n_steps + 1), order="F")
    k = 0  # map, unlike a generator expression, holds no increment while the next is drawn
    for tile in _running_sums(n_paths, map(functools.partial(np.array, dtype=np.float64), increments)):
        out[:, k : k + tile.shape[1]] = tile
        k += tile.shape[1]
        del tile  # before the next increment is drawn
    return out


_KINDS = (
    "random_walk",
    "associated_partial_sum",
    "bounded_associated_partial_sum",
    "two_point_demisub",
)


def _all_finite(values):
    """Whether every entry of the 2-D ``values`` is finite, checked by row blocks (:func:`row_blocks`).

    Each worker allocates the mask of its own rows, so with several workers
    no thread holds a batch-sized mask.
    """
    finite = []
    row_blocks(len(values), lambda r0, r1: finite.append(bool(np.isfinite(values[r0:r1]).all())))
    return all(finite)


def _column_views(values, r0, r1, width):
    """Views of ``width`` columns at a time of the rows ``r0..r1-1`` of ``values``: a held batch's tile source."""
    for k in range(0, values.shape[1], width):
        yield values[r0:r1, k : k + width]


class TrajectoryBatch:
    """M independent discrete-time sample paths of length N + 1.

    The maximal-lemma sweep of
    :func:`~demigronwall.gronwall.verify_maximal_inequality` reads a batch
    a few columns at a time from its tile source: views of its values
    (:func:`_column_views`), or, when :func:`generate_paths` made it and no
    matrix is held, the seeded partial-sum tiles.  Of such a batch,
    ``values`` is built on first access, by row blocks (:func:`time_major`),
    checked for finite entries and kept, and becomes its source: no batch
    is drawn twice.  Either way a batch's values must not change after construction: the finiteness
    check runs once, and the sweep state that the maximal lemma keeps on
    the batch (running extremes and increment moments up to the last
    column it read) is continued by later calls, not recomputed.

    Attributes:
        values: float matrix of shape (n_paths, n_steps + 1); row ``r``,
            column ``k`` is path ``r`` at time index ``k``.  The package
            builds it time-major; any layout is accepted, kept and gives the
            same results.
        label: generator descriptor for reports.
    """

    _sweep = None  # the maximal-lemma sweep, kept on the batch between calls

    def __init__(self, values, label=""):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise InvalidSpec(f"batch values must be a 2-D M x (N+1) matrix, got shape {values.shape}")
        if not _all_finite(values):
            raise InvalidSpec("batch contains non-finite entries")
        self._values, self._shape, self.label = values, values.shape, label
        self._tiles = functools.partial(_column_views, values)  # tiles(r0, r1, width), as time_major reads them

    @classmethod
    def _generated(cls, n_paths, n_steps, tiles, label):
        """A batch of ``n_paths`` rows and ``n_steps + 1`` columns that holds only ``tiles``, its values' source."""
        batch = cls.__new__(cls)
        batch._values, batch._shape, batch.label, batch._tiles = None, (n_paths, n_steps + 1), label, tiles
        return batch

    @property
    def values(self) -> np.ndarray:
        """The ``(n_paths, n_steps + 1)`` matrix; a generated batch builds it here, once."""
        if self._values is None:
            values = time_major(*self._shape, self._tiles)
            if not _all_finite(values):
                raise InvalidSpec("batch contains non-finite entries")
            self._values, self._tiles = values, functools.partial(_column_views, values)
        return self._values

    @property
    def n_paths(self) -> int:
        return self._shape[0]

    @property
    def n_steps(self) -> int:
        return self._shape[1] - 1


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


def _associated_tiles(theta, n_steps, seed, bound):
    """``tiles(r0, r1, width)`` of the associated increments (:func:`_increment_tiles`): their one source."""
    spec = GeneratorSpec.associated(theta) if bound is None else GeneratorSpec.bounded_associated(theta, bound)
    return lambda r0, r1, width: _increment_tiles(spec, n_steps, r0, r1, seed, width)


def associated_increment_matrix(theta, n_steps, n_paths, seed, bound=None):
    """Mean-zero associated increments, a Fortran-order array of shape ``(n_paths, n_steps)``.

    ``U_i + theta * V`` clipped to ``[-bound, bound]`` when a bound is given,
    filled by row blocks (:func:`time_major`).  Exposed separately because
    several harnesses need the increments themselves (the associated
    collection) rather than their partial sums.

    Raises:
        InvalidSpec: ``theta``, ``bound``, ``n_paths`` or ``n_steps`` out of range.
        BatchTooLarge: ``n_paths * n_steps`` above the budget (:func:`check_batch`).
    """
    return time_major(n_paths, n_steps, _associated_tiles(theta, n_steps, seed, bound))


def associated_increments(theta, n_steps, n_paths, seed, bound=None) -> TrajectoryBatch:
    """The increments of :func:`associated_increment_matrix` as a generated batch of ``n_steps`` columns.

    The batch holds their source, not their values, so its ``n_steps`` is
    one less than this call's.  Its columns, read one at a time or built
    into ``values``, equal the matrix of the same arguments bit for bit:
    path ``r`` depends only on ``(seed, r)``.  The size and the seed are
    checked at the call; nothing is drawn.

    Raises:
        InvalidSpec: as :func:`associated_increment_matrix`, a seed outside 64 bits, or ``n_steps < 1``.
        BatchTooLarge: ``n_paths * n_steps`` above the budget (:func:`check_batch`).
    """
    n_paths, n_steps = check_batch(n_paths, n_steps, n_steps)
    if n_steps < 1:
        raise InvalidSpec(f"need n_steps >= 1 for a batch of increments, got {n_steps}")
    tiles = _associated_tiles(theta, n_steps, int(_as_seed(seed)), bound)
    return TrajectoryBatch._generated(n_paths, n_steps - 1, tiles, label=f"associated-increments[theta={theta:g}]")


def _pm1_steps(bits):
    """-1.0 where the word's top bit is 0 (the uniform is below 0.5), +1.0 elsewhere, in place on ``bits``."""
    np.invert(bits, out=bits)
    bits &= _SIGN_BIT
    bits |= _ONE_BITS
    return bits.view(np.float64)


def _shock_steps(spec: GeneratorSpec, tiles):
    """Increment tiles of the common-shock kinds: draw 0 of a path is its shock, draw ``k`` its step ``k``."""
    u = next(tiles)
    shock = spec.theta * _centered_uniform(u[:, :1])
    u = u[:, 1:]  # the first tile's steps
    while u is not None:
        if u.shape[1]:
            inc = _centered_uniform(u)
            inc += shock
            if spec.kind == "bounded_associated_partial_sum":
                np.clip(inc, -spec.bound, spec.bound, out=inc)
            yield inc
            del inc
        del u  # before the next tile is drawn
        u = next(tiles, None)


def _two_point_steps(spec: GeneratorSpec, shock, n_steps, width):
    """+-1 on the first two steps, then 0: the atom paths (-1, -2) and (1, 2), frozen after; ``shock`` is one column."""
    step = np.where(shock < spec.prob, -1.0, 1.0)
    for k in range(0, n_steps, width):
        tile = np.zeros((len(step), min(width, n_steps - k)), order="F")
        tile[:, : max(0, 2 - k)] = step
        yield tile


def _increment_tiles(spec: GeneratorSpec, n_steps, r0, r1, seed, width):
    """Iterator over the increments of steps ``1..n_steps`` of paths ``r0..r1-1``, as tiles of at most ``width`` steps.

    The only code that knows each kind's law.  Step ``k`` of a random walk
    is draw ``k - 1`` of its path; the other kinds draw their shock at
    counter 0 and step ``k`` at counter ``k``.  The seed is checked at the
    call, and each tile is drawn when the iterator reaches it.
    """
    rows = r1 - r0
    if spec.kind == "random_walk":
        if spec.increment == "pm1":
            return map(_pm1_steps, draw_columns(seed, rows, n_steps, "words", r0, width))
        return draw_columns(seed, rows, n_steps, "normal", r0, width)
    if spec.kind == "two_point_demisub":
        return _two_point_steps(spec, next(draw_columns(seed, rows, 1, first_path=r0)), n_steps, width)
    return _shock_steps(spec, draw_columns(seed, rows, n_steps + 1, "uniform", r0, width))


def _path_tiles(spec: GeneratorSpec, n_steps, seed, r0, r1, width):
    """The partial-sum tiles of paths ``r0..r1-1`` (:func:`_running_sums` of :func:`_increment_tiles`): a batch's source."""
    return _running_sums(r1 - r0, _increment_tiles(spec, n_steps, r0, r1, seed, width))


def generate_paths(spec: GeneratorSpec, n_steps, n_paths, seed) -> TrajectoryBatch:
    """``n_paths`` seeded sample paths of ``n_steps`` steps, as a batch that holds their source, not their values.

    The size and the seed are checked at the call; nothing is drawn.  The
    batch's tiles are drawn and summed by row blocks (:func:`row_blocks`)
    whenever they are read: a few columns at a time by the maximal-lemma
    sweep, which holds no ``(n_paths, n_steps + 1)`` matrix, and into a
    Fortran-order ``values`` on its first access (:class:`TrajectoryBatch`).
    Generation is per-path deterministic: path ``r`` depends only on
    ``(seed, r)``, never on ``n_paths``, on generation order or on the
    worker count, so any batch equals, bit for bit, the first rows of a
    larger one.

    Raises:
        InvalidSpec: ``n_paths < 1``, ``n_steps < 0``, either not a whole number, or a seed outside 64 bits.
        BatchTooLarge: ``n_paths * (n_steps + 1)`` above the budget (:func:`check_batch`).
    """
    n_paths, n_steps = check_batch(n_paths, n_steps, int(n_steps) + 1)
    seed = int(_as_seed(seed))
    tiles = functools.partial(_path_tiles, spec, n_steps, seed)
    return TrajectoryBatch._generated(n_paths, n_steps, tiles, label=f"{spec.label}@seed={seed}")
