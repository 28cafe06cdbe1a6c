"""Counter-based deterministic random numbers.

All simulation randomness is derived by hashing (seed, counter) pairs through
a 64-bit finalizer (splitmix64).  There is no generator state, so per-trial
streams are independent of execution order, and any range of a stream's
counters can be drawn on its own, bit-identical to the same columns of the
full block.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_TWO_NEG_52 = 2.0**-52


def splitmix64(x):
    """Finalize 64-bit integers (scalar or array) into well-mixed uint64.

    The multiplications wrap modulo 2^64 by design.  numpy warns about that
    on scalars only, so a scalar goes through the 1-element array path."""
    z = np.asarray(x, dtype=np.uint64)
    if z.ndim == 0:
        return splitmix64(z.reshape(1))[0]
    z = z + _GOLDEN
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def trial_seeds(master_seed, trials):
    """Independent per-trial seeds from one master seed."""
    idx = np.arange(1, trials + 1, dtype=np.uint64)
    return splitmix64(_U64(master_seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * idx)


def _to_unit(bits):
    # (0, 1), never exactly 0: safe as a log() argument
    return ((bits >> _U64(12)).astype(np.float64) + 0.5) * _TWO_NEG_52


def uniform_block(seeds, stop, start=0):
    """Uniform (0,1) matrix of shape (len(seeds), stop - start); row t depends only on seeds[t].

    Column j holds counter start + j + 1, so adjacent ranges concatenate to
    uniform_block(seeds, stop)."""
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    ctr = _GOLDEN * np.arange(start + 1, stop + 1, dtype=np.uint64)
    return _to_unit(splitmix64(seeds + ctr))


def normal_block(seeds, count):
    """Standard normals via Box-Muller on the counter stream; shape (len(seeds), count)."""
    pairs = (count + 1) // 2
    u = uniform_block(seeds, 2 * pairs)
    u1, u2 = u[:, :pairs], u[:, pairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    z = np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=1)
    return z[:, :count]
