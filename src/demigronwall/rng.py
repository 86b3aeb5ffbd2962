"""Counter-based pseudo-random substreams.

Every draw is a pure function of ``(master_seed, path_index, counter)``:
the master seed is finalized once, each path derives a 64-bit key from it,
and draw ``j`` of a path mixes ``key + (j+1) * GAMMA`` through the
SplitMix64 finalizer.  Consequences that the rest of the package relies on:

* identical arguments reproduce bit-identical output,
* path ``r`` sees the same draws no matter how many paths are generated
  alongside it or in which order,
* whole batches vectorize as plain uint64 array arithmetic.

The matrix functions take ``first_path`` and ``first_counter``: row ``r``
and column ``j`` of the result are path ``first_path + r`` at draw
``first_counter + j``.  A batch can therefore be drawn one block of rows
(or columns) at a time, and the blocks are bit-identical to the matching
slice of the whole matrix.  :func:`draw_columns` is the time-major
counterpart: it derives the path keys once and yields one draw of every
path at a time, bit for bit the matching column of the matrix functions.
The finalizer mixes the freshly built word array in place with one scratch
array, the uniform conversion shifts the words in place and scales the one
float array it converts them to, and normals overwrite their uniforms, so a
draw allocates little beyond its result.

Normals are produced from uniforms by the inverse normal CDF.  Rejection
samplers would consume a data-dependent number of uniforms per normal and
break the fixed draw-order contract, so they are deliberately avoided.
"""

import numpy as np
from scipy.special import ndtri

from .errors import InvalidSpec

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MAX = 0xFFFFFFFFFFFFFFFF
_TO_UNIT = 2.0 ** -53


def _mix64(x):
    """SplitMix64 finalizer, in place on the uint64 array ``x`` (wraps mod 2**64).

    ``x`` must be a fresh array the caller owns; it is overwritten and returned.
    """
    tmp = np.empty_like(x)
    with np.errstate(over="ignore"):
        x ^= np.right_shift(x, np.uint64(30), out=tmp)
        x *= _MIX1
        x ^= np.right_shift(x, np.uint64(27), out=tmp)
        x *= _MIX2
        x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def _as_seed(master_seed) -> np.uint64:
    seed = int(master_seed)
    if not 0 <= seed <= _U64_MAX:
        raise InvalidSpec(f"master_seed must be a 64-bit unsigned integer, got {master_seed}")
    return np.uint64(seed)


def path_keys(master_seed, path_indices):
    """Derive the per-path substream key(s) for ``path_indices``."""
    base = _mix64(np.atleast_1d(_as_seed(master_seed)))
    idx = np.asarray(path_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = _mix64(base + (idx + np.uint64(1)) * _GAMMA)
    return keys if idx.ndim else keys[0]


def raw_uint64(master_seed, n_paths, n_draws, first_counter=0, first_path=0):
    """Raw 64-bit words, shape ``(n_paths, n_draws)``.

    Entry ``(r, j)`` depends only on
    ``(master_seed, first_path + r, first_counter + j)``.
    """
    keys = path_keys(master_seed, np.arange(first_path, first_path + n_paths, dtype=np.uint64))
    ctr = np.arange(first_counter, first_counter + n_draws, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(keys[:, None] + (ctr + np.uint64(1)) * _GAMMA)


def _uniform(bits):
    """Uniforms strictly inside (0, 1) from the top 53 bits of ``bits``, which is overwritten."""
    np.right_shift(bits, np.uint64(11), out=bits)
    u = bits.astype(np.float64)
    u += 0.5
    u *= _TO_UNIT
    return u


def _normal(bits):
    """Standard normals by the inverse CDF of :func:`_uniform` of ``bits``."""
    u = _uniform(bits)
    return ndtri(u, out=u)


_LAWS = {"words": lambda bits: bits, "uniform": _uniform, "normal": _normal}


def uniform_matrix(master_seed, n_paths, n_draws, first_counter=0, first_path=0):
    """I.i.d. uniforms strictly inside (0, 1), shape ``(n_paths, n_draws)``."""
    return _uniform(raw_uint64(master_seed, n_paths, n_draws, first_counter, first_path))


def normal_matrix(master_seed, n_paths, n_draws, first_counter=0, first_path=0):
    """I.i.d. standard normals via the inverse CDF, shape ``(n_paths, n_draws)``."""
    return _normal(raw_uint64(master_seed, n_paths, n_draws, first_counter, first_path))


def draw_columns(master_seed, n_paths, n_draws, law="uniform"):
    """Iterate over draws ``0 .. n_draws - 1`` of paths ``0 .. n_paths - 1``, one draw of every path at a time.

    The ``j``-th array equals, bit for bit, column ``j`` of :func:`raw_uint64`
    (``law="words"``), :func:`uniform_matrix` (``"uniform"``) or
    :func:`normal_matrix` (``"normal"``) with the same seed and path count.
    The seed is checked and the path keys are derived once, at the call;
    each column is drawn when the iterator reaches it, into a fresh array
    that belongs to the caller.
    """
    convert = _LAWS[law]
    keys = path_keys(master_seed, np.arange(n_paths, dtype=np.uint64))
    with np.errstate(over="ignore"):
        offsets = (np.arange(n_draws, dtype=np.uint64) + np.uint64(1)) * _GAMMA
    return (convert(_mix64(keys + offset)) for offset in offsets)
