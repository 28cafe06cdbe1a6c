"""Counter-based deterministic random numbers.

All simulation randomness is derived by hashing (seed, counter) pairs through
a 64-bit finalizer (splitmix64).  There is no generator state, so per-trial
streams are independent of execution order, and any range of a stream's
counters can be drawn on its own, bit-identical to the same columns of the
full block.  One in-place mixer serves every draw; `uniform_steps` yields raw
hashes counter-major in two reused buffers, for callers to convert as needed.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z, tmp):
    """splitmix64's finalizer in place on uint64 z = input + golden (tmp: scratch)."""
    z ^= np.right_shift(z, 30, out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, 27, out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def splitmix64(x):
    """Finalize 64-bit integers (scalar or array) into well-mixed uint64."""
    z = np.array(x, dtype=np.uint64, ndmin=1) + _GOLDEN  # numpy warns on scalar wraparound
    z = _mix(z, np.empty_like(z))
    return z if np.ndim(x) else z[0]


def trial_seeds(master_seed, trials):
    """Independent per-trial seeds from one master seed."""
    idx = np.arange(1, trials + 1, dtype=np.uint64)
    return splitmix64(np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * idx)


def _to_unit(bits):
    # in place: (k + 1/2) 2^-52 in (0, 1) for k = bits >> 12, as (1 + k 2^-52) - (1 - 2^-53)
    bits >>= 12
    bits |= np.uint64(0x3FF0000000000000)  # 1.0 as float64 bits
    return np.subtract(bits.view(np.float64), 1.0 - 2.0**-53, out=bits.view(np.float64))


def uniform_block(seeds, stop, start=0):
    """Uniform (0,1) matrix of shape (len(seeds), stop - start); row t depends only on seeds[t].

    Column j holds counter start + j + 1, so adjacent ranges concatenate to
    uniform_block(seeds, stop)."""
    # counter c of seed s hashes s + golden * c, i.e. mixes s + golden * (c + 1)
    z = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1) + _GOLDEN * np.arange(
        start + 2, stop + 2, dtype=np.uint64)
    return _to_unit(_mix(z, np.empty_like(z)))


def uniform_steps(seeds, stop, block, start=0):
    """Columns start..stop-1 of uniform_block(seeds, stop) as raw hashes (`_to_unit` maps them
    to the uniforms) in (rows, len(seeds)) blocks of up to `block` counters, one per row, all
    drawn into the same two buffers: each block is valid until the next is requested."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    z, tmp = np.empty((2, block, len(seeds)), dtype=np.uint64)
    for lo in range(start, stop, block):
        rows = min(block, stop - lo)
        ctr = _GOLDEN * np.arange(lo + 2, lo + rows + 2, dtype=np.uint64)
        yield _mix(np.add.outer(ctr, seeds, out=z[:rows]), tmp[:rows])


def normal_block(seeds, count):
    """Standard normals via Box-Muller on the counter stream; shape (len(seeds), count)."""
    pairs = (count + 1) // 2
    u = uniform_block(seeds, 2 * pairs)
    r = np.sqrt(-2.0 * np.log(u[:, :pairs]))
    ang = 2.0 * np.pi * u[:, pairs:]
    z = np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=1)
    return z[:, :count]
