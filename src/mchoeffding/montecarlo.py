"""Seeded trajectory simulation: tail estimates with Wilson intervals.  Hit
counts come from `bounds.tail_mass`, the query the exact tails use, with one
weight per trial.

Determinism contract: every random draw is a pure function of
(master_seed, trial index, step counter), so reports are bit-identical for a
fixed configuration regardless of batching.

Both walk kernels compare hash mantissas with integer CDF thresholds (`_thresholds`)
and agree bit for bit.  The step loop (`_steps`) yields each step's states from hash
blocks in two reused buffers (`rng.uniform_steps`): O(trials * block) memory.
Wide, long walks look steps up in a two-level guide table (`_guide`; Chen and Asau, 1974):
level 1 by a hash's top k bits and, in a bucket that straddles a CDF threshold, level 2 by
the next k2 bits, k + k2 <= 31 bits that the unfinished hashes already hold final; only a
sub-bucket that still straddles takes the binary search.  These walks carry states as
s << k, so a step's index is states | (z >> (64 - k)); `simulate_sums` reads f_i from a
table spread the same way, and `_paths` shifts its filled array back once.
`_paths` takes the prefix scan (`_scan_walk`) for at most _SCAN_WIDTH (trial,
state) pairs, where it measured 1.2-8x faster, and n * pairs <= _BLOCK_DRAWS.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import _check_u, evaluate_tail_bounds, tail_mass, tail_rows
from .chain import FunctionFamily, MarkovChain
from .errors import OutOfRange
from .rng import _finish, _mantissa, hash_block, trial_seeds, uniform_steps
from .spectral import contraction

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval; well behaved at extreme tail probabilities."""
    if trials < 1:
        raise OutOfRange("trials must be positive")
    z = _Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class SimConfig:
    trials: int
    master_seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise OutOfRange("trials must be at least 1")


@dataclass(frozen=True, eq=False)
class TailReport:
    u_grid: np.ndarray
    estimates: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    bounds: dict
    trials: int
    master_seed: int
    lam: float

    def rows(self):
        leading = {"u": self.u_grid, "estimate": self.estimates,
                   "ci_low": self.ci_low, "ci_high": self.ci_high}
        return tail_rows(leading, self.bounds, sorted(self.bounds))


# One block of uniforms holds at most _BLOCK_DRAWS draws (two 512 KB buffers) and
# at most _BLOCK_STEPS steps: small enough to stay in L2, large enough that
# per-call overhead is negligible.
_BLOCK_DRAWS = 1 << 16
_BLOCK_STEPS = 32
_SCAN_WIDTH = 128
# A guide table of 2**_GUIDE_BITS entries (128 KB) pays off from these trials and trial-steps.
_GUIDE_BITS, _GUIDE_TRIALS, _GUIDE_WORK = 14, 1 << 12, 1 << 19


def _block_steps(trials: int) -> int:
    return max(1, min(_BLOCK_STEPS, _BLOCK_DRAWS // trials))


def _thresholds(c: np.ndarray) -> np.ndarray:
    """Mantissas m = hash >> 12 map to uniforms u = (2m + 1) 2^-53 (`rng._to_unit`), and u > c
    exactly when m >= (floor(c 2^53) + 1) // 2, computed exactly as c 2^53 is."""
    return (np.floor(c * 2.0**53).astype(np.int64) + 1) >> 1


def _first_states(chain: MarkovChain, m: np.ndarray) -> np.ndarray:
    """States at mantissas m: the count of stationary CDF values c <= u, or u > nextafter(c, -1)."""
    cum = np.nextafter(np.cumsum(chain.stationary)[:-1], -1.0)  # all but the last: cap at N-1
    return np.searchsorted(_thresholds(cum), m, side="right")


def _cdf_table(transition: np.ndarray):
    """Flat `_thresholds` of the cumulative rows padded to a power-of-two width, 2^53 (above
    every mantissa) from column N-1 on.

    Returns (table, bits) with width 2**bits.  The cap limits the count of entries
    below u to N-1, which is the clip the inverse CDF needs when a row sums to
    slightly less than 1."""
    cum = np.cumsum(transition, axis=1)
    n = cum.shape[1]
    bits = (n - 1).bit_length()
    table = np.full((n, 1 << bits), 1 << 53)
    table[:, :n - 1] = _thresholds(cum[:, :n - 1])
    return table.ravel(), bits


def _step(table: np.ndarray, bits: int, states: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Next states: per trial, the number of thresholds of its table row at most mantissa m.

    A branchless binary search, one gather per halving of the row width from the table
    offset by h - 1; threshold rows are non-decreasing, so this counts u > cumsum."""
    pos = states << bits
    h = (1 << bits) >> 1
    while h:
        pos += (table[h - 1:].take(pos, mode="clip") <= m) * h
        h >>= 1
    return pos & ((1 << bits) - 1)


def _bucket_states(table: np.ndarray, bits: int, index: np.ndarray, depth: int, k: int):
    """Per index (s << depth) | b: t << k for the next state t from s at every mantissa whose
    top depth bits are b, or -1 where it differs at the bucket's ends; exact, as `_step` is
    monotone in m."""
    states, low = index >> depth, (index & (1 << depth) - 1) << (52 - depth)
    last = _step(table, bits, states, low | (1 << (52 - depth)) - 1)
    return np.where(_step(table, bits, states, low) == last, last << k, -1)


def _guide(table: np.ndarray, bits: int):
    """(guide, k, sub, k2): the guided walk's two tables, over states carried as s << k.

    Level 1, guide[(s << k) | b], holds next << k for the next state from s at every
    mantissa with top k bits b.  A bucket that straddles a threshold holds a negative code
    instead: code + (the mantissa's top k + k2 bits) is a negative index into sub, within
    the bucket's 2^k2 entries.  Level 2, sub, holds next << k per sub-bucket, or -1 where it
    still straddles; k2 is the largest with straddled buckets * 2^k2 <= 2^_GUIDE_BITS and
    k + k2 <= 31, so no level 2 exists where no bucket straddles."""
    k = _GUIDE_BITS - bits
    guide = _bucket_states(table, bits, np.arange(table.size >> bits << k), k, k)
    straddled = (guide < 0).nonzero()[0]
    k2 = min(31 - k, _GUIDE_BITS - (max(straddled.size, 1) - 1).bit_length())
    sub = _bucket_states(table, bits, (straddled[:, None] << k2 | np.arange(1 << k2)).ravel(),
                         k + k2, k)
    # sub-table j spans sub[(j - count) 2^k2:][:2^k2]; the code cancels the bucket's top k bits
    bucket = straddled & (1 << k) - 1
    guide[straddled] = (np.arange(straddled.size) - straddled.size - bucket) * (1 << k2)
    return guide, k, sub, k2


def _guided_step(table, bits, guide, k, sub, k2, states, z):
    """`_step` at `_premix` hashes z, on and to states s << k: one level-1 lookup by the hashes'
    final top k bits, `_second_level` past a straddled bucket."""
    nxt = guide.take(states | (z >> (64 - k)).view(np.int64), mode="clip")
    miss = (nxt < 0).nonzero()[0]
    if miss.size:
        nxt[miss] = _second_level(table, bits, sub, k, k2, states[miss], z[miss], nxt[miss])
    return nxt


def _second_level(table, bits, sub, k, k2, states, z, code):
    """Straddled trials' next states << k: one level-2 lookup by their hashes' final top
    k + k2 bits, `_step` past a -1."""
    nxt = sub.take(code + (z >> (64 - k - k2)).view(np.int64))
    miss = (nxt < 0).nonzero()[0]
    if miss.size:
        nxt[miss] = _step(table, bits, states[miss] >> k, _mantissa(_finish(z[miss]))) << k
    return nxt


def _steps(chain: MarkovChain, seeds: np.ndarray, n: int):
    """(iterator, shift): an iterator over the C-contiguous vector of all trials' states
    << shift at steps 1..n.

    Trial t uses the counter stream of seeds[t]: its first state inverts the
    stationary CDF at uniform 1, and state k inverts the transition row of
    state k-1 at uniform k, each used before the next is drawn (`uniform_steps`).
    Wide, long walks of at most 64 states read the guide tables (`_guided_step`) with
    states shifted by their k; any other walk searches every row (`_step`), shift 0."""
    if n < 1:
        raise OutOfRange("n must be at least 1")
    first = _first_states(chain, _mantissa(hash_block(seeds, 1)[:, 0]))
    rows = _block_steps(len(seeds))
    blocks = uniform_steps(seeds, n, rows, start=1)
    table, bits = _cdf_table(chain.transition)
    if 2 * bits < _GUIDE_BITS and _GUIDE_TRIALS <= len(seeds) >= _GUIDE_WORK / n:
        levels = _guide(table, bits)
        step, shift = functools.partial(_guided_step, table, bits, *levels), levels[1]
    else:
        step, shift = functools.partial(_step, table, bits), 0
        tmp = np.empty((rows, len(seeds)), np.uint64)
        blocks = (_mantissa(_finish(z, tmp[:len(z)])) for z in blocks)
    steps = itertools.chain.from_iterable(blocks)
    return itertools.accumulate(steps, step, initial=first << shift), shift


def _scan_walk(chain: MarkovChain, m: np.ndarray) -> np.ndarray:
    """(trials, n) states read off a (trials, n) mantissa block, equal to the step loop's: every
    step maps all N states at once (`_step`), and a Hillis-Steele scan composes the maps."""
    (trials, n), N = m.shape, chain.n_states
    table, bits = _cdf_table(chain.transition)
    maps = np.empty((n, trials, N), dtype=np.int64)
    maps[0] = _first_states(chain, m[:, :1])  # step 1 maps every state to the first state
    maps[1:] = _step(table, bits, np.broadcast_to(np.arange(N), maps[1:].shape), m.T[1:, :, None])
    # map (k, t) sends s to (k*trials + t)*N + target: row k after row k - span is one take
    maps += np.arange(0, maps.size, N).reshape(n, trials, 1)
    span = 1
    while span < n:
        maps[span:] = maps.take(maps[:-span] + span * trials * N)
        span <<= 1
    return (maps[:, :, 0] % N).T


def _paths(chain: MarkovChain, seeds: np.ndarray, n: int) -> np.ndarray:
    """(len(seeds), n) state paths: the prefix scan for a few, else the transpose
    of the step-major array that `_steps` fills one row at a time, shifted back once."""
    width = len(seeds) * chain.n_states
    if width <= _SCAN_WIDTH and 0 < n * width <= _BLOCK_DRAWS:  # n < 1: `_steps` raises
        return _scan_walk(chain, _mantissa(hash_block(seeds, n)))
    steps, shift = _steps(chain, seeds, n)
    paths = np.fromiter(steps, np.dtype((np.int64, len(seeds))), n)
    paths >>= shift
    return paths.T


def sample_path(chain: MarkovChain, n: int, seed: int) -> np.ndarray:
    """One stationary path Y_1..Y_n, deterministic in `seed`."""
    return _paths(chain, np.array([seed], dtype=np.uint64), n)[0]


def sample_paths(chain: MarkovChain, n: int, cfg: SimConfig) -> np.ndarray:
    """(trials, n) state paths; row t equals sample_path with the t-th derived seed."""
    return _paths(chain, trial_seeds(cfg.master_seed, cfg.trials), n)


def simulate_sums(chain: MarkovChain, funcs: FunctionFamily, cfg: SimConfig) -> np.ndarray:
    """Per-trial realizations of S_n = sum_i f_i(Y_i), accumulated step by step."""
    steps, shift = _steps(chain, trial_seeds(cfg.master_seed, cfg.trials), funcs.n_steps)
    spread = np.zeros(chain.n_states << shift)  # entry s << shift is f_i(s)
    S = np.zeros(cfg.trials)
    for f, states in zip(funcs.values, steps):
        if shift:
            spread[::1 << shift] = f
            f = spread
        np.add(S, f.take(states), out=S)
    return S


def _tail_table(values: np.ndarray, thresholds: np.ndarray):
    """Per threshold t: the fraction of values >= t - 1e-12 and its Wilson interval; the
    values are never NaN (|S_n| of finite terms), and sums of ones are exact in float64."""
    hits = tail_mass(values, thresholds, np.ones(len(values)))
    trials = len(values)
    ci = np.array([wilson_interval(int(h), trials) for h in hits]).reshape(-1, 2)
    return hits / trials, ci[:, 0], ci[:, 1]


def estimate_tail(chain: MarkovChain, funcs: FunctionFamily, u_grid, cfg: SimConfig) -> TailReport:
    """Empirical Pr[|S_n| >= u * ||a||_2] over the u-grid, with bound columns."""
    u_grid = _check_u(u_grid, 0.0)
    lam = contraction(chain)
    S = simulate_sums(chain, funcs, cfg)
    est, lo, hi = _tail_table(np.abs(S), u_grid * funcs.a_l2)
    return TailReport(u_grid=u_grid, estimates=est, ci_low=lo, ci_high=hi,
                      bounds=evaluate_tail_bounds(u_grid, lam),
                      trials=cfg.trials, master_seed=cfg.master_seed, lam=float(lam))


def _mean_interval(x: np.ndarray):
    """(mean, low, high): the sample mean -+ z_95 standard errors; the
    interval collapses to the mean for a single sample."""
    mean = float(x.mean())
    sem = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return mean, mean - _Z95 * sem, mean + _Z95 * sem
