"""The counter-based generator against an independent pure-Python splitmix64."""

import math

import numpy as np
import pytest

from mchoeffding.montecarlo import _GUIDE_BITS, _block_steps, _cdf_table, _guide
from mchoeffding.rng import (
    _GOLDEN,
    _finish,
    _premix,
    _to_unit,
    hash_block,
    normal_block,
    splitmix64,
    trial_seeds,
    uniform_block,
    uniform_steps,
)

from conftest import M64, ref_splitmix64, ref_uniforms
from test_montecarlo import GUIDE_CHAINS


def test_reference_matches_published_splitmix64():
    # first output of SplitMix64 seeded with 0 (Steele, Lea and Flood, 2014)
    assert ref_splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0) == np.uint64(0xE220A8397B1DCDAF)


def test_splitmix64_matches_reference():
    xs = [0, 1, 2, 12345, 2**32 - 1, 2**63 - 1, 2**63, M64 - 1, M64]
    xs += [int(x) for x in np.random.default_rng(5).integers(0, 2**63, size=200)]
    got = splitmix64(np.array(xs, dtype=np.uint64))
    assert [int(z) for z in got] == [ref_splitmix64(x) for x in xs]
    for x in xs[:9]:
        assert int(splitmix64(x)) == ref_splitmix64(x)


def test_trial_seeds_match_reference():
    for master in (0, 7, -1, 2**64 + 5):
        want = [ref_splitmix64(((master & M64) + 0x9E3779B97F4A7C15 * t) & M64)
                for t in range(1, 6)]
        assert [int(s) for s in trial_seeds(master, 5)] == want


@pytest.mark.parametrize("start, stop", [(0, 1), (0, 40), (1, 2), (13, 77), (5, 5)])
def test_uniform_block_matches_reference(start, stop):
    seeds = np.concatenate([trial_seeds(3, 50), np.array([0, 1, M64], dtype=np.uint64)])
    np.testing.assert_array_equal(uniform_block(seeds, stop, start),
                                  ref_uniforms(seeds, stop, start))


@pytest.mark.parametrize("start, stop", [(0, 1), (13, 77)])
def test_hash_block_is_the_uniform_blocks_hashes(start, stop):
    seeds = trial_seeds(3, 50)
    z = hash_block(seeds, stop, start)
    assert z.dtype == np.uint64
    np.testing.assert_array_equal(_to_unit(z), uniform_block(seeds, stop, start))


def test_premix_keeps_the_final_top_31_bits():
    """splitmix64's last step z ^= z >> 31 leaves bits 63..33 alone, and bit 32 takes bit 63;
    the guided walk reads at most k + k2 <= 31 top bits before that step, k at level 1 and k2
    below them at level 2."""
    xs = [0, 1, 2**31 - 1, 2**32, 2**33 - 1, 2**63 - 1, 2**63, M64 - 1, M64]
    xs += [int(x) for x in np.random.default_rng(31).integers(0, 2**64, size=2000,
                                                              dtype=np.uint64)]
    x = np.array(xs, dtype=np.uint64)
    pre = _premix(x + _GOLDEN, np.empty_like(x))
    full = splitmix64(x)
    np.testing.assert_array_equal(pre >> np.uint64(33), full >> np.uint64(33))
    assert [int(p) >> 33 for p in pre] == [ref_splitmix64(x) >> 33 for x in xs]
    np.testing.assert_array_equal(_finish(pre.copy()), full)
    assert np.any(pre >> np.uint64(32) != full >> np.uint64(32))
    assert _GUIDE_BITS <= 31
    for chain in GUIDE_CHAINS.values():
        table, bits = _cdf_table(chain)
        _, k, _, k2 = _guide(table, bits)
        assert k + k2 <= 31


@pytest.mark.parametrize("trials", [1, 7, 300, 20_000])
def test_walk_draws_match_reference(trials):
    """The walk's draws: `_to_unit(_finish(...))` of row j of the blocks is column j of the
    reference block, for the walk's own block size and for others, each block copied before
    the next is requested (the buffers are reused)."""
    seeds = trial_seeds(41, trials)
    walk_block = _block_steps(trials)
    n = 2 * walk_block + 3
    ref = ref_uniforms(seeds, n)
    for block in sorted({1, 2, walk_block, n, n + 4}):
        blocks = [z.copy() for z in uniform_steps(seeds, n, block)]
        assert all(z.dtype == np.uint64 and z.flags.c_contiguous and 1 <= len(z) <= block
                   for z in blocks)
        np.testing.assert_array_equal(_to_unit(_finish(np.concatenate(blocks))), ref.T)


def test_to_unit_is_exact_at_every_boundary():
    """(k + 1/2) 2^-52 for the top 52 bits k, whatever the low 12 bits hold."""
    ks = [0, 1, 2, 3, 2**26, 2**51 - 1, 2**51, 2**51 + 1, 2**52 - 2, 2**52 - 1]
    ks += [int(k) for k in np.random.default_rng(9).integers(0, 2**52, size=1000)]
    for low in (0, 1, 0x800, 0xFFF):
        bits = np.array([(k << 12) | low for k in ks], dtype=np.uint64)
        u = _to_unit(bits)
        np.testing.assert_array_equal(u, [(k + 0.5) * 2.0**-52 for k in ks])
    assert 0.0 < u.min() and u.max() < 1.0


def _inside_95(x, expected):
    half = 1.959963984540054 * float(x.std(ddof=1)) / math.sqrt(x.size)
    assert abs(float(x.mean()) - expected) <= half


def test_normal_block_half_normal_mean():
    """|3 g_1 + 4 g_2| is 5 |N(0, 1)|, whose mean is 5 sqrt(2 / pi)."""
    g = normal_block(trial_seeds(21, 50_000), 2)
    _inside_95(np.abs(g @ [3.0, 4.0]), 5.0 * math.sqrt(2.0 / math.pi))


def test_normal_block_chi_mean():
    """The norm of 4 independent N(0, 1) draws has the chi mean sqrt(2) G(5/2) / G(2)."""
    n = 4
    g = normal_block(trial_seeds(33, 50_000), n)
    chi_mean = math.sqrt(2.0) * math.gamma((n + 1) / 2) / math.gamma(n / 2)
    _inside_95(np.linalg.norm(g, axis=1), chi_mean)


@pytest.mark.parametrize("count", [1, 3, 7])
def test_normal_block_odd_count_is_the_next_even_counts_prefix(count):
    """An odd count takes the (count + 1) / 2 Box-Muller pairs of count + 1 and drops
    the last column."""
    seeds = trial_seeds(5, 40)
    g = normal_block(seeds, count)
    assert g.shape == (40, count)
    np.testing.assert_array_equal(g, normal_block(seeds, count + 1)[:, :count])
