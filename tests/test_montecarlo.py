import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mchoeffding import (
    SimConfig,
    estimate_tail,
    exact_tail,
    montecarlo,
    sample_path,
    sign_family,
    two_state_chain,
    validate_chain,
    wilson_interval,
)
from mchoeffding.chain import FunctionFamily
from mchoeffding.errors import NegativeU, OutOfRange
from mchoeffding.montecarlo import (
    _BLOCK_DRAWS,
    _GUIDE_BITS,
    _GUIDE_TRIALS,
    _GUIDE_WORK,
    _SCAN_WIDTH,
    _block_steps,
    _cdf_table,
    _first_states,
    _guide,
    _guided_step,
    _scan_walk,
    _second_level,
    _step,
    _steps,
    _tail_table,
    _thresholds,
    sample_paths,
    simulate_sums,
)
from mchoeffding.rng import (
    _finish,
    _to_unit,
    hash_block,
    splitmix64,
    trial_seeds,
    uniform_block,
)

from conftest import random_chain, random_lattice_family, ref_uniforms


def test_wilson_interval_contains_estimate():
    for hits, n in [(0, 100), (3, 100), (50, 100), (100, 100), (1, 10**6)]:
        lo, hi = wilson_interval(hits, n)
        assert 0.0 <= lo <= hits / n <= hi <= 1.0
    with pytest.raises(OutOfRange):
        wilson_interval(0, 0)


def test_sample_path_deterministic():
    chain = two_state_chain(0.3)
    p1 = sample_path(chain, 50, seed=123)
    p2 = sample_path(chain, 50, seed=123)
    np.testing.assert_array_equal(p1, p2)
    assert not np.array_equal(p1, sample_path(chain, 50, seed=124))


def test_identity_chain_gives_constant_path():
    chain = validate_chain([[1, 0], [0, 1]], [0.5, 0.5])
    path = sample_path(chain, 30, seed=7)
    assert len(set(path.tolist())) == 1


def test_initial_state_frequency_matches_pi():
    chain = validate_chain([[0.7, 0.3], [0.2, 0.8]])
    cfg = SimConfig(trials=100_000, master_seed=5)
    states = sample_paths(chain, 1, cfg)
    freq = float(np.mean(states[:, 0] == 0))
    sigma = math.sqrt(0.4 * 0.6 / cfg.trials)
    assert abs(freq - 0.4) < 3 * sigma + 1e-3


def test_paths_consistent_with_per_trial_seeds():
    chain = two_state_chain(0.5)
    cfg = SimConfig(trials=8, master_seed=99)
    batch = sample_paths(chain, 12, cfg)
    for t, seed in enumerate(trial_seeds(cfg.master_seed, cfg.trials)):
        np.testing.assert_array_equal(batch[t], sample_path(chain, 12, int(seed)))


def test_estimate_tail_at_zero_is_one():
    chain = two_state_chain(0.5)
    report = estimate_tail(chain, sign_family(4), [0.0], SimConfig(trials=200, master_seed=1))
    assert report.estimates[0] == 1.0


def test_estimate_tail_checks_its_grid_before_the_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("simulate_sums ran before the u-grid was checked")

    monkeypatch.setattr(montecarlo, "simulate_sums", walk)
    with pytest.raises(NegativeU):
        estimate_tail(two_state_chain(0.5), sign_family(2000), [-1.0, 0.0, 1.0],
                      SimConfig(trials=10**6, master_seed=1))


def test_estimate_tail_matches_exact_two_state():
    chain = two_state_chain(0.5)
    funcs = sign_family(2)
    u = 2.0 / math.sqrt(2.0)
    report = estimate_tail(chain, funcs, [u], SimConfig(trials=20_000, master_seed=11))
    assert report.ci_low[0] <= 0.75 <= report.ci_high[0]


def test_estimate_tail_matches_exact_random_chains(rng):
    for seed in (1, 2):
        chain = random_chain(rng, 3)
        funcs = random_lattice_family(rng, chain, 4)
        report = estimate_tail(chain, funcs, [0.5, 1.0], SimConfig(trials=20_000, master_seed=seed))
        for i, u in enumerate(report.u_grid):
            p = exact_tail(chain, funcs, u * funcs.a_l2)
            assert report.ci_low[i] - 1e-9 <= p <= report.ci_high[i] + 1e-9


def test_reports_deterministic():
    chain = two_state_chain(0.7)
    funcs = sign_family(8)
    grid = [0.0, 1.0, 2.0]
    a = estimate_tail(chain, funcs, grid, SimConfig(trials=5000, master_seed=3))
    b = estimate_tail(chain, funcs, grid, SimConfig(trials=5000, master_seed=3))
    np.testing.assert_array_equal(a.estimates, b.estimates)
    np.testing.assert_array_equal(a.ci_low, b.ci_low)
    for name in a.bounds:
        np.testing.assert_array_equal(a.bounds[name], b.bounds[name])


def test_report_rows_and_vacuous_flags():
    chain = two_state_chain(0.5)
    report = estimate_tail(chain, sign_family(4), [0.0, 6.0], SimConfig(trials=100, master_seed=2))
    rows = report.rows()
    assert rows[0][0] == "u"
    assert "rao" in rows[1][-1] and "iid" in rows[1][-1]  # all vacuous at u = 0
    assert "iid" not in rows[2][-1]                        # 2 e^{-18} < 1 at u = 6


def test_tightness_direction_in_lambda():
    # slower chains put more mass in the tail at a fixed u
    n, u = 200, 2.0
    funcs = sign_family(n)
    cfg = SimConfig(trials=4000, master_seed=17)
    slow = estimate_tail(two_state_chain(0.9), funcs, [u], cfg)
    fast = estimate_tail(two_state_chain(0.0), funcs, [u], cfg)
    assert slow.ci_low[0] > fast.ci_high[0]


def test_sim_config_validation():
    with pytest.raises(OutOfRange):
        SimConfig(trials=0, master_seed=1)


def test_simulate_sums_shape():
    chain = two_state_chain(0.2)
    S = simulate_sums(chain, sign_family(5), SimConfig(trials=64, master_seed=9))
    assert S.shape == (64,)
    assert np.all(np.abs(S) <= 5 + 1e-12)


def test_zero_steps_rejected():
    chain = two_state_chain(0.3)
    with pytest.raises(OutOfRange):
        sample_paths(chain, 0, SimConfig(trials=4, master_seed=1))
    with pytest.raises(OutOfRange):
        sample_path(chain, 0, seed=1)
    with pytest.raises(OutOfRange):
        sample_path(chain, -3, seed=1)


# --- streamed walk against the (trials, n) inverse-CDF walk ---------------------

@functools.cache
def _reference_uniforms(master_seed, trials, n):
    """The (trials, n) uniform block from the pure-Python splitmix64."""
    return ref_uniforms(trial_seeds(master_seed, trials), n)


def seed_walk(chain, u):
    """Reference walk over a (trials, n) uniform block: per step count the
    cumulative entries below u and clip to the last state."""
    n = u.shape[1]
    last = chain.n_states - 1
    cum_rows = np.cumsum(chain.transition, axis=1)
    cum_pi = np.cumsum(chain.stationary)
    states = np.empty(u.shape, dtype=np.int64)
    states[:, 0] = np.clip(np.searchsorted(cum_pi, u[:, 0], side="right"), 0, last)
    for k in range(1, n):
        nxt = (u[:, k][:, None] > cum_rows[states[:, k - 1]]).sum(axis=1)
        states[:, k] = np.clip(nxt, 0, last)
    return states


def _doubly_stochastic(A):
    A = np.asarray(A, dtype=float)
    return validate_chain(A, np.full(len(A), 1.0 / len(A)))


def _walk_chains():
    rng = np.random.default_rng(1806)
    eye5 = np.eye(5)
    cycle5 = np.roll(eye5, 1, axis=1)
    chains = {
        "one_state": validate_chain([[1.0]], [1.0]),
        "identity": _doubly_stochastic(np.eye(3)),
        # two zeros per row, so every cumulative row repeats a value
        "zero_entries": _doubly_stochastic(0.2 * eye5 + 0.5 * cycle5 + 0.3 * np.roll(eye5, 2, axis=1)),
        "near_periodic": _doubly_stochastic(0.98 * cycle5 + 0.004),
        "slow_mixing": _doubly_stochastic(0.97 * np.eye(4) + 0.0075),
        # non-reversible: a 3-cycle mixed with uniform, doubly stochastic
        "non_reversible": _doubly_stochastic(0.7 * np.roll(np.eye(3), 1, axis=1) + 0.1),
    }
    for n_states in (3, 5, 7, 17):
        chains[f"random_{n_states}"] = random_chain(rng, n_states, min_entry=0.01)
    return chains


WALK_CHAINS = _walk_chains()


@pytest.mark.parametrize("trials", [300, 20_000])
@pytest.mark.parametrize("name", sorted(WALK_CHAINS))
def test_streamed_walk_matches_seed_walk(name, trials):
    chain = WALK_CHAINS[name]
    cfg = SimConfig(trials=trials, master_seed=41)
    seeds = trial_seeds(cfg.master_seed, cfg.trials)
    block = _block_steps(cfg.trials)
    u = _reference_uniforms(cfg.master_seed, cfg.trials, 3 * block + 5)
    for n in (1, block - 1, block, block + 1, 3 * block + 5):
        ref = seed_walk(chain, u[:, :n])  # counters 1..n are the first n columns
        np.testing.assert_array_equal(sample_paths(chain, n, cfg), ref)
        np.testing.assert_array_equal(sample_path(chain, n, int(seeds[7])), ref[7])
        values = np.random.default_rng(n).normal(size=(n, chain.n_states))
        fam = FunctionFamily(values=values, bounds=np.abs(values).max(axis=1))
        S = np.zeros(cfg.trials)
        for i in range(n):
            S += values[i][ref[:, i]]
        np.testing.assert_array_equal(simulate_sums(chain, fam, cfg), S)


_WALK_SIZES = (1, 2, 3, 527, 528)


def _last_scanned_trials(n_states, n):
    """The largest trial count the prefix scan takes: at most _SCAN_WIDTH
    (trial, state) pairs and _BLOCK_DRAWS map entries."""
    return min(_SCAN_WIDTH // n_states, _BLOCK_DRAWS // (n * n_states))


@pytest.mark.parametrize("name", sorted(WALK_CHAINS))
def test_small_batch_walk_matches_seed_walk(name, monkeypatch):
    chain = WALK_CHAINS[name]
    widest = _SCAN_WIDTH + 1
    u_all = _reference_uniforms(41, widest, max(_WALK_SIZES))
    scanned = []
    monkeypatch.setattr(montecarlo, "_scan_walk",
                        lambda chain, m: scanned.append(m.shape) or _scan_walk(chain, m))
    for n in _WALK_SIZES:
        edge = _last_scanned_trials(chain.n_states, n)
        assert 1 <= edge < widest
        for trials in sorted({1, 2, 10, edge, edge + 1}):
            seeds = trial_seeds(41, trials)
            u = u_all[:trials, :n]  # trial seeds and counters are prefixes of the wider block
            ref = seed_walk(chain, u)
            # both kernels on every size, then the one the rule picks
            mantissas = (hash_block(seeds, n) >> 12).view(np.int64)
            np.testing.assert_array_equal(_scan_walk(chain, mantissas), ref)
            steps, shift = _steps(chain, seeds, n)
            np.testing.assert_array_equal((np.array(list(steps)) >> shift).T, ref)
            scanned.clear()
            np.testing.assert_array_equal(sample_paths(chain, n, SimConfig(trials, 41)), ref)
            assert scanned == ([(trials, n)] if trials <= edge else [])
            # one trial always scans, so past the edge the two calls take different kernels
            np.testing.assert_array_equal(sample_path(chain, n, int(seeds[-1])), ref[-1])
            assert scanned[-1] == (1, n)
    # streamed sums never reach the scan, however few the trials
    monkeypatch.setattr(montecarlo, "_scan_walk", None)
    values = np.random.default_rng(0).normal(size=(3, chain.n_states))
    fam = FunctionFamily(values=values, bounds=np.abs(values).max(axis=1))
    ref = seed_walk(chain, u_all[:2, :3])
    np.testing.assert_array_equal(simulate_sums(chain, fam, SimConfig(2, 41)),
                                  sum(values[i][ref[:, i]] for i in range(3)))


def _unit(m):
    """The uniform (2m + 1) 2^-53 of each mantissa m, through the library's float map."""
    return _to_unit(np.array(m, dtype=np.uint64, ndmin=1) << np.uint64(12))


_TOP_MANTISSA = 2**52 - 1  # uniform 1 - 2^-53


def _short_row_sum_chain(n_states):
    # the last row sums to 1 - 5e-10, inside the row-sum tolerance; u above its
    # final cumulative value must land on the last state, as the clip does
    A = np.full((n_states, n_states), 1.0 / n_states)
    A[-1, -1] -= 5e-10
    chain = validate_chain(A, np.full(n_states, 1.0 / n_states))
    cum = np.cumsum(chain.transition, axis=1)
    top = cum[-1, -1]
    assert top < 1.0
    # the mantissas just above top, near 1 - 2.5e-10, at 1 - 2^-53, just below top, 1/2, 0
    above = next(m for m in range(int(top * 2**52) - 2, 2**52) if _unit(m)[0] > top)
    m = np.array([above, int((1.0 - 2.5e-10) * 2**52), _TOP_MANTISSA, above - 1, 2**51, 0])
    u = _unit(m)
    assert u[0] > top >= u[3]
    states = np.full(len(m), n_states - 1)
    expected = np.clip((u[:, None] > cum[states]).sum(axis=1), 0, n_states - 1)
    return chain, m, expected


@pytest.mark.parametrize("n_states", [3, 4, 5])
def test_step_caps_state_above_short_row_sum(n_states):
    chain, m, expected = _short_row_sum_chain(n_states)
    table, bits = _cdf_table(chain.transition)
    nxt = _step(table, bits, np.full(len(m), n_states - 1), m)
    np.testing.assert_array_equal(nxt, expected)
    np.testing.assert_array_equal(nxt[:3], n_states - 1)


@pytest.mark.parametrize("n_states", [3, 4, 5])
def test_scan_caps_state_above_short_row_sum(n_states):
    chain, m, expected = _short_row_sum_chain(n_states)
    # uniform 1 - 2^-53 starts every trial on the last state and keeps it there
    # for a step, so the last column reads the test mantissas from the short row
    top_m = np.full(len(m), _TOP_MANTISSA)
    paths = _scan_walk(chain, np.stack([top_m, top_m, m], axis=1))
    np.testing.assert_array_equal(paths[:, :2], n_states - 1)
    np.testing.assert_array_equal(paths[:, 2], expected)
    np.testing.assert_array_equal(paths[:3, 2], n_states - 1)


def _guide_chains():
    # row 0 puts three cumulative values below 2^-12, inside the first bucket of a
    # 4-state guide; dyadic cumulative values fall exactly on bucket edges
    tiny = np.array([[1e-5, 2e-5, 3e-5, 1 - 6e-5], [0.25] * 4, [0.4, 0.3, 0.2, 0.1],
                     [0.1, 0.2, 0.3, 0.4]])
    dyadic = [[0.25, 0.5, 0.25], [0.5, 0.25, 0.25], [0.25, 0.25, 0.5]]
    # 1/2 - 3 * 2^-53 has threshold 2^51 - 1, the last mantissa of a 4-state guide bucket
    top = [0.5 - 3 * 2.0**-53, 3 * 2.0**-53, 0.25, 0.25]
    # 0.3 and 0.3 + 1e-12 fall inside one level-2 sub-bucket of row 0 at every depth up to 31
    pair = [[0.3, 1e-12, 0.2, 0.5 - 1e-12], [0.1, 0.6, 0.2, 0.1], [0.25] * 4, [0.7, 0.1, 0.1, 0.1]]
    rng = np.random.default_rng(64)
    return {
        "bucket_top": _doubly_stochastic([np.roll(top, i) for i in range(4)]),
        "sub_bucket_pair": validate_chain(pair),
        "tiny_probabilities": validate_chain(tiny),
        "dyadic": _doubly_stochastic(dyadic),
        "zero_entries": WALK_CHAINS["zero_entries"],
        "short_row_sum": _short_row_sum_chain(4)[0],
        "one_state": WALK_CHAINS["one_state"],
        "random_64": random_chain(rng, 64, min_entry=1e-3),
        "random_65": random_chain(rng, 65, min_entry=1e-3),  # above 64 states: no guide
    }


GUIDE_CHAINS = _guide_chains()


def _count_up_to_last(chain, states, u):
    """Independent inverse CDF: cumulative entries below u, clipped to the last state."""
    cum = np.cumsum(chain.transition, axis=1)[states]
    return np.minimum((u[:, None] > cum).sum(axis=1), chain.n_states - 1)


def _unfinish(x):
    """The `rng._premix` output that splitmix64's last xor-shift turns into hash x."""
    return x ^ (x >> np.uint64(31)) ^ (x >> np.uint64(62))


def _edge_hashes(depth, buckets):
    """The smallest and largest hash of each bucket of the top depth bits, and one past each."""
    top = np.asarray(buckets, dtype=np.uint64) << np.uint64(64 - depth)
    return np.concatenate([top, top - np.uint64(1), top | np.uint64(2**64 - 1) >> np.uint64(depth),
                           top + np.uint64(1)])


def _check_guided_step(chain, tables, states, z):
    """`_guided_step` on `_premix` preimages of hashes z from states, against the float walk."""
    table, bits, guide, k, sub, k2 = tables
    premixed = _unfinish(z)
    np.testing.assert_array_equal(_finish(premixed.copy()), z)
    nxt = _guided_step(table, bits, guide, k, sub, k2, states << k, premixed)
    np.testing.assert_array_equal(nxt & (1 << k) - 1, 0)
    np.testing.assert_array_equal(nxt >> k, _count_up_to_last(chain, states, _to_unit(z.copy())))


@pytest.mark.parametrize("name", sorted(GUIDE_CHAINS))
def test_guided_step_is_exact_at_bucket_edges(name, monkeypatch):
    """Every state at the edges of every level-1 bucket, each straddled bucket's state at the
    edges of every level-2 sub-bucket, and every row at its thresholds and their neighbours."""
    chain = GUIDE_CHAINS[name]
    table, bits = _cdf_table(chain.transition)
    tables = (table, bits, *_guide(table, bits))
    guide, k, sub, k2 = tables[2:]
    straddled = (guide < 0).nonzero()[0]
    assert guide.size == chain.n_states << k and k == _GUIDE_BITS - bits
    assert sub.size == straddled.size << k2 <= 1 << _GUIDE_BITS and k + k2 <= 31
    assert straddled.size << (k2 + 1) > 1 << _GUIDE_BITS or k2 == 31 - k or not straddled.size
    calls = []
    monkeypatch.setattr(montecarlo, "_step", lambda *a: calls.append(len(a[2])) or _step(*a))
    edges = _edge_hashes(k, np.arange(1 << k))
    _check_guided_step(chain, tables, np.repeat(np.arange(chain.n_states), edges.size),
                       np.tile(edges, chain.n_states))
    sub_buckets = (straddled[:, None] << k2 | np.arange(1 << k2)).ravel()
    edges = _edge_hashes(k + k2, sub_buckets & (1 << (k + k2)) - 1)
    _check_guided_step(chain, tables, np.tile(sub_buckets >> (k + k2), 4), edges)
    T = table.reshape(chain.n_states, -1)[:, :chain.n_states - 1]
    m = np.clip(T[..., None] + [-1, 0, 1], 0, _TOP_MANTISSA).reshape(chain.n_states, -1)
    z = m.astype(np.uint64) << np.uint64(12) | np.uint64(0xABC)  # the low bits play no part
    _check_guided_step(chain, tables, np.arange(chain.n_states).repeat(m.shape[1]), z.ravel())
    assert bool(calls) == bool((sub < 0).any())  # `_step` runs exactly past a level-2 -1
    if name == "tiny_probabilities":
        assert guide[0] < 0 and guide[1] == 3 << k  # three values in bucket 0, none in 1
    if name == "dyadic" or chain.n_states == 1:
        assert sub.size == 0 and guide.min() >= 0   # every value lies on a bucket edge
    if name == "bucket_top":
        assert guide[(1 << (k - 1)) - 1] < 0        # the last mantissa of the bucket moves on
        assert sub[(1 << k2) - 1] == -1             # and of its last sub-bucket
    if name == "sub_bucket_pair":
        assert sub.min() == -1 and calls


def test_level_two_size_cap():
    """64 states whose 63 thresholds each straddle a level-1 bucket of their own: the most
    straddled buckets any chain can have, 64 * 63, with 2^2 sub-buckets each."""
    cum = (4 * np.arange(63) + 2.3) / 256
    row = np.diff(cum, prepend=0.0, append=1.0)
    table, bits = _cdf_table(validate_chain(np.tile(row, (64, 1)), row).transition)
    guide, k, sub, k2 = _guide(table, bits)
    assert (k, (guide < 0).sum(), k2) == (8, 64 * 63, 2)
    assert sub.size == 64 * 63 << 2 <= 1 << _GUIDE_BITS < 64 * 63 << 3
    assert (sub < 0).sum() == 64 * 63                 # 2.3 / 256 straddles its sub-bucket too


@pytest.mark.parametrize("name", sorted(GUIDE_CHAINS))
def test_guided_walk_matches_seed_walk(name, monkeypatch):
    chain = GUIDE_CHAINS[name]
    trials = max(20_000, _GUIDE_TRIALS)
    n = -(-_GUIDE_WORK // trials)  # the shortest walk that builds the guide
    cfg = SimConfig(trials=trials, master_seed=41)
    ref = seed_walk(chain, _reference_uniforms(cfg.master_seed, trials, n))
    table, bits = _cdf_table(chain.transition)
    guide, k, sub, k2 = _guide(table, bits)
    sizes, level_two = [], []
    monkeypatch.setattr(montecarlo, "_step", lambda *a: sizes.append(len(a[2])) or _step(*a))
    monkeypatch.setattr(montecarlo, "_second_level",
                        lambda *a: level_two.append(len(a[5])) or _second_level(*a))
    np.testing.assert_array_equal(sample_paths(chain, n, cfg), ref)
    if chain.n_states <= 64:
        # two calls build level 1 on every (state, bucket), two level 2 on every straddled
        # bucket's sub-buckets; any later call is a fallback past a level-2 -1
        assert sizes[:4] == [chain.n_states << k] * 2 + [sub.size] * 2
        assert all(0 < m < trials for m in level_two)
        assert len(sizes[4:]) <= len(level_two) and all(0 < m < max(level_two) for m in sizes[4:])
        assert level_two or name != "tiny_probabilities"
        assert sizes[4:] or name != "random_64"
    else:
        assert sizes == [trials] * (n - 1) and not level_two
    values = np.random.default_rng(n).normal(size=(n, chain.n_states))
    fam = FunctionFamily(values=values, bounds=np.abs(values).max(axis=1))
    np.testing.assert_array_equal(simulate_sums(chain, fam, cfg),
                                  sum(values[i][ref[:, i]] for i in range(n)))
    # one step shorter, the walk searches every row, with the same states
    sizes.clear()
    np.testing.assert_array_equal(sample_paths(chain, n - 1, cfg), ref[:, :n - 1])
    assert sizes == [trials] * (n - 2)


def _adversarial_cumulatives():
    """0, the smallest subnormal, every odd (2m + 1) 2^-53 and even 2m 2^-53 multiple for a
    spread of m with its float neighbours, 1 - 2^-53, 1 and the short-row-sum cap 1 + 1e-12."""
    values = [0.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53, 1.0, 1.0 + 1e-12]
    for m in (0, 1, 2, 3, 2**26 + 1, 2**50, 2**51 - 1, 2**51, 2**52 - 2, 2**52 - 1):
        for c in ((2 * m + 1) * 2.0**-53, 2 * m * 2.0**-53):
            values += [np.nextafter(c, -1.0), c, np.nextafter(c, 2.0)]
    return np.array(values)


def test_thresholds_are_exact_at_every_boundary():
    """u > c exactly when the mantissa of u reaches _thresholds(c), with `_to_unit` as the
    float oracle, at every cumulative value of the walk's chains and at adversarial ones."""
    chains = list(WALK_CHAINS.values()) + list(GUIDE_CHAINS.values())
    c = np.concatenate([np.cumsum(ch.transition, axis=1).ravel() for ch in chains]
                       + [np.cumsum(ch.stationary) for ch in chains]
                       + [_adversarial_cumulatives()])
    M = _thresholds(c)
    below, above = M > 0, M <= _TOP_MANTISSA
    assert np.all(_unit(M[below] - 1) <= c[below])
    assert np.all(c[above] < _unit(M[above]))
    assert np.all(_unit(_TOP_MANTISSA) <= c[~above])  # no uniform exceeds these
    assert above.sum() < c.size and below.sum() < c.size


def test_first_states_count_stationary_values_up_to_u():
    """The first state counts the stationary CDF's values c <= u, not c < u: at a c that
    equals a uniform, (2^51 + 1) 2^-53, the first state is already the next one."""
    odd = validate_chain(np.eye(3), [0.25 + 2.0**-53, 0.25 - 2.0**-53, 0.5])
    for chain in [odd] + list(WALK_CHAINS.values()) + list(GUIDE_CHAINS.values()):
        cum = np.cumsum(chain.stationary)
        T = _thresholds(cum)
        m = np.clip(np.concatenate([T - 1, T, T + 1, [0, _TOP_MANTISSA]]), 0, _TOP_MANTISSA)
        np.testing.assert_array_equal(_first_states(chain, m),
                                      np.searchsorted(cum[:-1], _unit(m), side="right"))
    assert _first_states(odd, np.array([2**50 - 1, 2**50, 2**50 + 1])).tolist() == [0, 1, 1]


def test_uniform_block_ranges_concatenate():
    seeds = trial_seeds(12, 37)
    full = uniform_block(seeds, 100)
    cuts = [0, 1, 13, 14, 64, 99, 100]
    parts = [uniform_block(seeds, stop, start) for start, stop in zip(cuts, cuts[1:])]
    np.testing.assert_array_equal(np.concatenate(parts, axis=1), full)


def test_simulate_sums_memory_is_streamed():
    # a (T, n) float64 array alone would take 80 MB
    trials, n = 2000, 5000
    funcs = sign_family(n)
    chain = two_state_chain(0.5)
    tracemalloc.start()
    try:
        simulate_sums(chain, funcs, SimConfig(trials=trials, master_seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


# --- tail table against the per-threshold comparison ----------------------------

def test_tail_table_matches_threshold_loop(rng):
    values = np.abs(rng.normal(size=1001))
    t = 0.75
    edge = t - 1e-12
    values[:4] = [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf), t]
    values[4:7] = [0.0, np.inf, values[10]]
    thresholds = np.array([-np.inf, 0.0, 1e-12, t, values[10] + 1e-12, 1.5, 10.0, np.inf, np.nan])
    est, lo, hi = _tail_table(values, thresholds)
    hits = [int(np.sum(values >= x - 1e-12)) for x in thresholds]
    np.testing.assert_array_equal(est, np.array(hits) / len(values))
    for i, h in enumerate(hits):
        assert (lo[i], hi[i]) == wilson_interval(h, len(values))


def test_splitmix64_scalar_is_silent_and_matches_array():
    for x in (0, 12345, 2**63, 2**64 - 1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = splitmix64(x)
        expected = splitmix64(np.array([x], dtype=np.uint64))[0]
        assert z.dtype == np.uint64 and z == expected
