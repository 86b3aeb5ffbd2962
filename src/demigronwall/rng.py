"""Counter-based pseudo-random substreams.

Every draw is a pure function of ``(master_seed, path_index, counter)``:
the master seed is finalized once, each path derives a 64-bit key from it,
and draw ``j`` of a path mixes ``key + (j+1) * GAMMA`` through the
SplitMix64 finalizer.  Consequences that the rest of the package relies on:

* identical arguments reproduce bit-identical output,
* path ``r`` sees the same draws no matter how many paths are generated
  alongside it or in which order,
* whole batches vectorize as plain uint64 array arithmetic.

Normals are produced from uniforms by the inverse normal CDF.  Rejection
samplers would consume a data-dependent number of uniforms per normal and
break the fixed draw-order contract, so they are deliberately avoided.
"""

import numpy as np
from scipy.special import ndtri

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MAX = 0xFFFFFFFFFFFFFFFF
_TO_UNIT = 2.0 ** -53


def _mix64(x):
    """SplitMix64 finalizer, elementwise on uint64 input (wraps mod 2**64)."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        return x ^ (x >> np.uint64(31))


def _as_seed(master_seed) -> np.uint64:
    seed = int(master_seed)
    if not 0 <= seed <= _U64_MAX:
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed}")
    return np.uint64(seed)


def path_keys(master_seed, path_indices):
    """Derive the per-path substream key(s) for ``path_indices``."""
    base = _mix64(_as_seed(master_seed))
    idx = np.asarray(path_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(base + (idx + np.uint64(1)) * _GAMMA)


def raw_uint64(master_seed, n_paths, n_draws, first_counter=0):
    """Raw 64-bit words, shape ``(n_paths, n_draws)``.

    Entry ``(r, j)`` depends only on ``(master_seed, r, first_counter + j)``.
    """
    keys = path_keys(master_seed, np.arange(n_paths))
    ctr = np.arange(first_counter, first_counter + n_draws, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(keys[:, None] + (ctr[None, :] + np.uint64(1)) * _GAMMA)


def uniform_matrix(master_seed, n_paths, n_draws, first_counter=0):
    """I.i.d. uniforms strictly inside (0, 1), shape ``(n_paths, n_draws)``."""
    bits = raw_uint64(master_seed, n_paths, n_draws, first_counter)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * _TO_UNIT


def normal_matrix(master_seed, n_paths, n_draws, first_counter=0):
    """I.i.d. standard normals via the inverse CDF, shape ``(n_paths, n_draws)``."""
    return ndtri(uniform_matrix(master_seed, n_paths, n_draws, first_counter))
