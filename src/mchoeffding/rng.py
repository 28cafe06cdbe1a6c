"""Counter-based deterministic random numbers.

All simulation randomness is derived by hashing (seed, counter) pairs through
a 64-bit finalizer (splitmix64).  There is no generator state, so per-trial
streams are independent of execution order, and any range of a stream's
counters can be drawn on its own, bit-identical to the same columns of the
full block.  `uniform_steps` yields pre-final hashes, counter-major in two reused
buffers: splitmix64 stops before its last xor-shift (`_premix`), which would leave
their top 31 bits as they are, and `_finish` completes the hashes where needed.  The
guided walk reads its two guide levels from those final bits, k + k2 <= 31 of them.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _premix(z, tmp):
    """splitmix64's finalizer but its last xor-shift (`_finish`), in place on z = input + golden."""
    z ^= np.right_shift(z, 30, out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, 27, out=tmp)
    z *= _MIX2
    return z


def _finish(z, tmp=None):
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def splitmix64(x):
    """Finalize 64-bit integers (scalar or array) into well-mixed uint64."""
    z = np.array(x, dtype=np.uint64, ndmin=1) + _GOLDEN  # numpy warns on scalar wraparound
    z = _finish(_premix(z, tmp := np.empty_like(z)), tmp)
    return z if np.ndim(x) else z[0]


def trial_seeds(master_seed, trials):
    """Independent per-trial seeds from one master seed."""
    idx = np.arange(1, trials + 1, dtype=np.uint64)
    return splitmix64(np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * idx)


def _mantissa(bits):
    bits >>= 12  # in place: m = bits >> 12, which `_to_unit` maps to (2m + 1) 2^-53
    return bits.view(np.int64)


def _to_unit(bits):
    m = _mantissa(bits)  # in place, as (1 + m 2^-52) - (1 - 2^-53)
    m |= 0x3FF0000000000000  # 1.0 as float64 bits
    return np.subtract(m.view(np.float64), 1.0 - 2.0**-53, out=m.view(np.float64))


def hash_block(seeds, stop, start=0):
    """The hashes that `_to_unit` maps to uniform_block(seeds, stop, start)."""
    # counter c of seed s hashes s + golden * c, i.e. mixes s + golden * (c + 1)
    z = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1) + _GOLDEN * np.arange(
        start + 2, stop + 2, dtype=np.uint64)
    return _finish(_premix(z, tmp := np.empty_like(z)), tmp)


def uniform_block(seeds, stop, start=0):
    """Uniform (0,1) matrix of shape (len(seeds), stop - start); row t depends only on seeds[t].

    Column j holds counter start + j + 1, so adjacent ranges concatenate to
    uniform_block(seeds, stop)."""
    return _to_unit(hash_block(seeds, stop, start))


def uniform_steps(seeds, stop, block, start=0):
    """Columns start..stop-1 of hash_block(seeds, stop) before the last xor-shift (`_finish`
    completes them) in (rows, len(seeds)) blocks of up to `block` counters, one per row, all
    drawn into the same two buffers: each block is valid until the next is requested."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    z, tmp = np.empty((2, block, len(seeds)), dtype=np.uint64)
    for lo in range(start, stop, block):
        rows = min(block, stop - lo)
        ctr = _GOLDEN * np.arange(lo + 2, lo + rows + 2, dtype=np.uint64)
        yield _premix(np.add.outer(ctr, seeds, out=z[:rows]), tmp[:rows])


def normal_block(seeds, count):
    """Standard normals via Box-Muller on the counter stream; shape (len(seeds), count)."""
    pairs = (count + 1) // 2
    u = uniform_block(seeds, 2 * pairs)
    r = np.sqrt(-2.0 * np.log(u[:, :pairs]))
    ang = 2.0 * np.pi * u[:, pairs:]
    z = np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=1)
    return z[:, :count]
