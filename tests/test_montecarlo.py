import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mchoeffding import (
    SimConfig,
    estimate_tail,
    exact_tail,
    sample_path,
    sign_family,
    two_state_chain,
    validate_chain,
    wilson_interval,
)
from mchoeffding.chain import FunctionFamily
from mchoeffding.errors import EmptyInput, OutOfRange
from mchoeffding.montecarlo import (
    _block_steps,
    _cdf_table,
    _step,
    _tail_table,
    estimate_gaussian_norm,
    estimate_vector_sum_tail,
    sample_paths,
    simulate_sums,
)
from mchoeffding.rng import normal_block, splitmix64, trial_seeds, uniform_block

from conftest import random_chain, random_lattice_family


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


def test_gaussian_norm_half_normal():
    mean, lo, hi = estimate_gaussian_norm([[3.0, 4.0]], "euclidean",
                                          SimConfig(trials=50_000, master_seed=21))
    assert lo <= math.sqrt(2.0 / math.pi) * 5.0 <= hi


def test_gaussian_norm_zero_vectors():
    mean, _, _ = estimate_gaussian_norm(np.zeros((3, 4)), "euclidean",
                                        SimConfig(trials=100, master_seed=1))
    assert mean == 0.0


def test_gaussian_norm_chi_mean():
    n = 4
    mean, lo, hi = estimate_gaussian_norm(np.eye(n), "euclidean",
                                          SimConfig(trials=50_000, master_seed=33))
    chi_mean = math.sqrt(2.0) * math.gamma((n + 1) / 2) / math.gamma(n / 2)
    assert lo <= chi_mean <= hi


def test_gaussian_norm_empty():
    with pytest.raises(EmptyInput):
        estimate_gaussian_norm(np.zeros((0, 3)), "euclidean", SimConfig(trials=10, master_seed=1))


def test_vector_sum_tail_scalar_reduction():
    chain = two_state_chain(0.5)
    funcs = sign_family(1)
    report = estimate_vector_sum_tail(chain, funcs, [[1.0, 0.0]], "euclidean",
                                      [0.5, 1.5], SimConfig(trials=500, master_seed=4))
    assert report.estimates[0] == 1.0   # |f_1| = 1 always
    assert report.estimates[1] == 0.0


def test_vector_sum_tail_zero_functions():
    chain = two_state_chain(0.5)
    funcs = sign_family(3)
    zero = type(funcs)(values=np.zeros_like(funcs.values), bounds=np.zeros(3))
    report = estimate_vector_sum_tail(chain, zero, np.eye(3), "euclidean",
                                      [0.1, 1.0], SimConfig(trials=200, master_seed=4))
    assert np.all(report.estimates == 0.0)


def test_vector_sum_tail_orthonormal_cross_check(rng):
    # orthonormal X_i: the norm is sqrt(sum f_i(Y_i)^2); compare to enumeration
    chain = random_chain(rng, 2)
    funcs = random_lattice_family(rng, chain, 3)
    import itertools

    probs = {}
    for path in itertools.product(range(2), repeat=3):
        p = chain.stationary[path[0]]
        for i in range(1, 3):
            p *= chain.transition[path[i - 1], path[i]]
        norm = math.sqrt(sum(funcs.values[i][path[i]] ** 2 for i in range(3)))
        probs[round(norm, 9)] = probs.get(round(norm, 9), 0.0) + p
    t = float(np.median(sorted(probs)))
    exact_p = sum(p for v, p in probs.items() if v >= t - 1e-12)
    report = estimate_vector_sum_tail(chain, funcs, np.eye(3), "euclidean",
                                      [t], SimConfig(trials=20_000, master_seed=8))
    assert report.ci_low[0] - 1e-9 <= exact_p <= report.ci_high[0] + 1e-9


def test_vector_sum_tail_schatten_inf_matches_per_matrix_svd(rng):
    chain = random_chain(rng, 3)
    funcs = random_lattice_family(rng, chain, 4)
    X = rng.normal(size=(4, 3, 3))
    X[:, 0, 1] += 2.0                       # clearly non-symmetric
    cfg = SimConfig(trials=400, master_seed=12)

    def svd_norms(sums):
        return np.array([np.linalg.svd(M, compute_uv=False).max() for M in sums])

    states = sample_paths(chain, 4, cfg)
    coeff = np.stack([funcs.values[i][states[:, i]] for i in range(4)], axis=1)
    norms = np.sort(svd_norms(np.tensordot(coeff, X, axes=(1, 0))))
    # thresholds halfway between distinct norms, away from the 1e-12 tie slack
    distinct = np.unique(norms)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    thresholds = mids[np.linspace(0, len(mids) - 1, 6).astype(int)]
    report = estimate_vector_sum_tail(chain, funcs, X, "schatten_inf", thresholds, cfg,
                                      gaussian_trials=300)
    np.testing.assert_array_equal(report.estimates,
                                  [(norms >= t).mean() for t in thresholds])
    g_seed = int(trial_seeds(cfg.master_seed ^ 0x5A5A5A5A, 1)[0])
    g = normal_block(trial_seeds(g_seed, 300), 4)
    g_mean = svd_norms(np.tensordot(g, X, axes=(1, 0))).mean()
    assert report.extra["gaussian_norm_mean"] == pytest.approx(g_mean, rel=1e-12)


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

def seed_walk(chain, seeds, n):
    """Reference walk: the full (trials, n) uniform block, then per step count
    the cumulative entries below u and clip to the last state."""
    u = uniform_block(seeds, n)
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
    for n in (1, block - 1, block, block + 1, 3 * block + 5):
        ref = seed_walk(chain, seeds, n)
        np.testing.assert_array_equal(sample_paths(chain, n, cfg), ref)
        np.testing.assert_array_equal(sample_path(chain, n, int(seeds[7])), ref[7])
        values = np.random.default_rng(n).normal(size=(n, chain.n_states))
        fam = FunctionFamily(values=values, bounds=np.abs(values).max(axis=1))
        S = np.zeros(cfg.trials)
        for i in range(n):
            S += values[i][ref[:, i]]
        np.testing.assert_array_equal(simulate_sums(chain, fam, cfg), S)


@pytest.mark.parametrize("n_states", [3, 4, 5])
def test_step_caps_state_above_short_row_sum(n_states):
    # the last row sums to 1 - 5e-10, inside the row-sum tolerance; u above its
    # final cumulative value must land on the last state, as the clip does
    A = np.full((n_states, n_states), 1.0 / n_states)
    A[-1, -1] -= 5e-10
    chain = validate_chain(A, np.full(n_states, 1.0 / n_states))
    cum = np.cumsum(chain.transition, axis=1)
    top = cum[-1, -1]
    assert top < 1.0
    u = np.array([np.nextafter(top, 1.0), 1.0 - 2.5e-10, 1.0 - 2.0**-53, top, 0.5, 1e-300])
    states = np.full(len(u), n_states - 1)
    table, bits = _cdf_table(chain.transition)
    nxt = _step(table, bits, states, u)
    expected = np.clip((u[:, None] > cum[states]).sum(axis=1), 0, n_states - 1)
    np.testing.assert_array_equal(nxt, expected)
    np.testing.assert_array_equal(nxt[:3], n_states - 1)


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
    values[4:8] = [0.0, np.inf, np.nan, values[10]]
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
