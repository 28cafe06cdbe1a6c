import math
import tracemalloc

import numpy as np
import pytest

from mchoeffding import (
    CoefficientMatrix,
    SimConfig,
    bound_matrix_schatten,
    build_markov_matrix,
    run_matrix_experiment,
    schatten_norm,
    sigma_params,
    two_state_chain,
    validate_chain,
)
from mchoeffding.errors import DimensionMismatch, InvalidOrder, OutOfRange, ValidationError
from mchoeffding.matrixlab import FillOrder, diagonal_first_order, row_major_order
from mchoeffding.montecarlo import sample_path
from mchoeffding.rng import normal_block, trial_seeds
from mchoeffding.spectral import spectral_norms


def test_sigma_params_all_ones():
    for d in (2, 5, 8):
        sigma, sigma_star = sigma_params(CoefficientMatrix(np.ones((d, d))))
        assert sigma == pytest.approx(math.sqrt(d))
        assert sigma_star == 1.0


def test_sigma_params_mixed():
    sigma, sigma_star = sigma_params(CoefficientMatrix([[2.0, 1.0], [1.0, 2.0]]))
    assert sigma == pytest.approx(math.sqrt(5.0))
    assert sigma_star == 2.0


def test_sigma_dominates_sigma_star(rng):
    for _ in range(10):
        M = rng.random((4, 4)) + 0.01
        B = CoefficientMatrix((M + M.T) / 2)
        sigma, sigma_star = sigma_params(B)
        assert sigma >= sigma_star


def test_coefficient_matrix_validation():
    with pytest.raises(OutOfRange):
        CoefficientMatrix([[1.0, 2.0], [3.0, 1.0]])      # asymmetric
    with pytest.raises(OutOfRange):
        CoefficientMatrix([[1.0, 0.0], [0.0, 1.0]])      # zero entries
    with pytest.raises(DimensionMismatch):
        CoefficientMatrix([[1.0, 2.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        CoefficientMatrix(np.ones((0, 0)))               # empty
    for bad in ([[1.0, math.inf], [math.inf, 1.0]], [[math.inf]],
                [[1.0, math.nan], [math.nan, 1.0]]):
        with pytest.raises(OutOfRange):
            CoefficientMatrix(bad)                       # non-finite
    for bad in ([[1.0, "a"], ["a", 1.0]], [[1.0, 2.0], [2.0]], [[None]]):
        with pytest.raises(ValidationError):
            CoefficientMatrix(bad)                       # not a numeric matrix


def test_fill_orders_are_bijective():
    for d in (1, 2, 5):
        for order in (row_major_order(d), diagonal_first_order(d)):
            vals = sorted(order.positions + 1)
            assert vals == list(range(1, (d * d + d) // 2 + 1))
    with pytest.raises(InvalidOrder):
        FillOrder(d=2, positions=np.zeros(3, dtype=int))


def _omega_reference(d, diagonal_first):
    """The fill orders as dicts (i, j) -> path position 1..(d^2+d)/2, built
    pair by pair in Python."""
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    if diagonal_first:
        pairs = [(i, i) for i in range(d)] + [(i, j) for i, j in pairs if i != j]
    return {p: k + 1 for k, p in enumerate(pairs)}


@pytest.mark.parametrize("d", [1, 2, 3, 7, 32])
def test_fill_orders_match_pairwise_reference(d):
    iu = list(zip(*np.triu_indices(d)))
    for order, diagonal_first in ((row_major_order(d), False), (diagonal_first_order(d), True)):
        omega = _omega_reference(d, diagonal_first)
        assert order.d == d
        assert list(order.positions + 1) == [omega[p] for p in iu]
        assert not order.positions.flags.writeable


def test_fill_order_rejects_non_permutations():
    m = 6  # d = 3
    bad = {
        "duplicate": [0, 1, 2, 3, 4, 4],
        "above range": [1, 2, 3, 4, 5, 6],
        "negative": [-1, 1, 2, 3, 4, 5],
        "too short": [0, 1, 2, 3, 4],
        "too long": list(range(m + 1)),
        "two-dimensional": np.arange(m).reshape(2, 3),
        "float dtype": np.arange(m, dtype=float),
        "huge unsigned": np.array([0, 1, 2, 3, 4, 2**64 - 1], dtype=np.uint64),
        "bool dtype": np.ones(m, dtype=bool),
        "dict": {(0, 0): 1},
        "scalar": 0,
    }
    for name, positions in bad.items():
        with pytest.raises(InvalidOrder):
            FillOrder(d=3, positions=positions)
    for d in (0, -1, 2, 4):
        with pytest.raises(InvalidOrder):
            FillOrder(d=d, positions=np.arange(6))
    for dtype in (np.uint8, np.int32, np.uint64):
        assert list(FillOrder(d=3, positions=np.arange(m, dtype=dtype)).positions) == list(range(m))
    # a valid permutation is copied, so the caller's array stays its own
    p = np.arange(m)[::-1].copy()
    order = FillOrder(d=3, positions=p)
    p[:] = 0
    assert list(order.positions) == [5, 4, 3, 2, 1, 0]
    with pytest.raises(ValueError):
        order.positions[0] = 1


def test_fill_order_dimension_must_match_b():
    B = CoefficientMatrix(np.ones((3, 3)))
    chain = two_state_chain(0.5)
    for order in (row_major_order(2), diagonal_first_order(4)):
        for run in (lambda: build_markov_matrix(B, order, chain, [1.0, -1.0], seed=1),
                    lambda: run_matrix_experiment(B, order, chain, [1.0, -1.0],
                                                  SimConfig(trials=2, master_seed=1))):
            with pytest.raises(InvalidOrder) as err:
                run()
            assert isinstance(err.value, DimensionMismatch)


def test_build_matrix_symmetric_and_dominated():
    B = CoefficientMatrix(np.ones((6, 6)) * 1.5)
    chain = two_state_chain(0.5)
    X = build_markov_matrix(B, row_major_order(6), chain, [1.0, -1.0], seed=42)
    np.testing.assert_array_equal(X, X.T)
    assert np.all(np.abs(X) <= B.entries + 1e-12)
    X2 = build_markov_matrix(B, row_major_order(6), chain, [1.0, -1.0], seed=42)
    np.testing.assert_array_equal(X, X2)


def test_build_matrix_scalar_case():
    B = CoefficientMatrix([[2.5]])
    chain = two_state_chain(0.0)
    X = build_markov_matrix(B, row_major_order(1), chain, [1.0, -1.0], seed=0)
    assert X.shape == (1, 1)
    assert abs(X[0, 0]) == pytest.approx(2.5)


def test_build_matrix_zero_function_gives_zero():
    B = CoefficientMatrix(np.ones((3, 3)))
    chain = two_state_chain(0.2)
    X = build_markov_matrix(B, row_major_order(3), chain, [0.0, 0.0], seed=1)
    assert np.all(X == 0.0)


def test_build_matrix_rejects_large_f():
    B = CoefficientMatrix(np.ones((2, 2)))
    chain = two_state_chain(0.0)
    with pytest.raises(OutOfRange):
        build_markov_matrix(B, row_major_order(2), chain, [2.0, -2.0], seed=1)


def test_independent_fill_has_uncorrelated_entries():
    # A = E_pi reproduces the independent Rademacher model
    pi = np.array([0.5, 0.5])
    chain = validate_chain(np.tile(pi, (2, 1)), pi)
    B = CoefficientMatrix(np.ones((4, 4)))
    trials = 4000
    prods = []
    for t in range(trials):
        X = build_markov_matrix(B, row_major_order(4), chain, [1.0, -1.0], seed=t)
        prods.append(X[0, 1] * X[2, 3])
    corr = float(np.mean(prods))
    assert abs(corr) < 4.0 / math.sqrt(trials)


def test_schatten_diag_values():
    M = np.diag([3.0, -4.0])
    assert schatten_norm(M, math.inf) == pytest.approx(4.0)
    assert schatten_norm(M, 1) == pytest.approx(7.0)
    assert schatten_norm(M, 2) == pytest.approx(5.0)
    # tridiagonal [[2,1,0],[1,2,1],[0,1,2]] has eigenvalues 2, 2 +- sqrt(2)
    T = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]
    assert schatten_norm(T, math.inf) == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-14)
    assert schatten_norm(T, 1) == pytest.approx(6.0, abs=1e-14)


def test_schatten_inf_below_finite_p(rng):
    for _ in range(5):
        S = rng.normal(size=(4, 4))
        for p in (1, 2, 3.5):
            assert schatten_norm(S, math.inf) <= schatten_norm(S, p) + 1e-10


def test_schatten_inf_matches_power_iteration(rng):
    S = rng.normal(size=(5, 5))
    S = S + S.T
    # independent oracle: power iteration on S^2
    v = rng.normal(size=5)
    for _ in range(5000):
        v = S @ (S @ v)
        v /= np.linalg.norm(v)
    top = math.sqrt(float(v @ (S @ (S @ v))))
    assert schatten_norm(S, math.inf) == pytest.approx(top, abs=1e-8)


def test_schatten_nonsymmetric_matches_numpy(rng):
    M = rng.normal(size=(4, 4))
    M[0, 1] += 3.0  # clearly asymmetric
    assert schatten_norm(M, math.inf) == pytest.approx(
        np.linalg.svd(M, compute_uv=False).max(), abs=1e-9)


def test_run_matrix_experiment_report():
    B = CoefficientMatrix(np.ones((8, 8)))
    chain = two_state_chain(0.5)
    rep = run_matrix_experiment(B, row_major_order(8), chain, [1.0, -1.0],
                                SimConfig(trials=40, master_seed=5), lam=0.5,
                                gaussian_trials=40)
    assert rep.sample_norms.max() <= rep.b_norm + 1e-9
    assert rep.ci_low <= rep.mean_norm <= rep.ci_high
    assert set(rep.bound_by_C) == {0.5, 1.0, 2.0, 4.0}
    for C, value in rep.bound_by_C.items():
        assert value == bound_matrix_schatten(rep.sigma, rep.sigma_star, 8, 0.5, rep.b_norm, C)
    assert math.isfinite(rep.fitted_C) and rep.fitted_C > 0
    assert rep.gaussian_mean > 0
    d = rep.to_dict()
    assert d["d"] == 8 and d["trials"] == 40
    # an owned array, not a view pinning the whole singular-value stack
    assert rep.sample_norms.base is None and rep.sample_norms.shape == (40,)


def test_run_matrix_experiment_scalar_case():
    B = CoefficientMatrix([[2.0]])
    chain = two_state_chain(0.0)
    for trials in (200, 1):
        rep = run_matrix_experiment(B, row_major_order(1), chain, [1.0, -1.0],
                                    SimConfig(trials=trials, master_seed=6), lam=0.0,
                                    gaussian_trials=10)
        # |f| = 1 always, so every sample norm is exactly b_11
        assert rep.mean_norm == pytest.approx(2.0)
    # one sample: the interval collapses, with no ddof=1 RuntimeWarning (an error under pyproject.toml)
    assert rep.ci_low == rep.mean_norm == rep.ci_high == 2.0
    with pytest.raises(OutOfRange):
        run_matrix_experiment(B, row_major_order(1), chain, [1.0, -1.0],
                              SimConfig(trials=2, master_seed=6), lam=0.0, gaussian_trials=0)


def _random_coefficients(rng, d):
    M = rng.random((d, d)) + 0.05
    return CoefficientMatrix((M + M.T) / 2)


def _seed_scatter(B, order, chain, f, seed):
    """The original per-entry fill loop, kept as the reference."""
    m = (B.d * B.d + B.d) // 2
    path = sample_path(chain, m, seed)
    X = np.zeros((B.d, B.d))
    for i, j, k in zip(*np.triu_indices(B.d), order.positions):
        x = f[path[k]] * B.entries[i, j]
        X[i, j] = x
        X[j, i] = x
    return X


@pytest.mark.parametrize("d", [1, 2, 7])
def test_fill_matches_seed_scatter_loop(rng, d):
    B = _random_coefficients(rng, d)
    chain = validate_chain([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
    f = np.array([1.0, -0.4, 0.0])
    f -= f @ chain.stationary
    f /= np.abs(f).max()
    for order in (row_major_order(d), diagonal_first_order(d)):
        for seed in (0, 17, 2**40 + 3):
            X = build_markov_matrix(B, order, chain, list(f), seed)
            np.testing.assert_array_equal(X, _seed_scatter(B, order, chain, f, seed))


def test_run_matrix_experiment_matches_numpy_rebuild(rng):
    # independent route: fill the upper triangle with np.triu_indices, mirror it,
    # and take numpy's symmetric eigenvalues
    d, trials, g_trials, master = 6, 30, 25, 77
    B = _random_coefficients(rng, d)
    chain = two_state_chain(0.4)
    f = np.array([1.0, -1.0])
    rep = run_matrix_experiment(B, row_major_order(d), chain, list(f),
                                SimConfig(trials=trials, master_seed=master), lam=0.4,
                                gaussian_trials=g_trials)
    iu = np.triu_indices(d)
    m = len(iu[0])

    def rebuild(values):
        X = np.zeros((len(values), d, d))
        X[:, iu[0], iu[1]] = values * B.entries[iu]
        X = X + np.triu(X, 1).transpose(0, 2, 1)
        return np.abs(np.linalg.eigvalsh(X)).max(axis=1)

    paths = np.array([sample_path(chain, m, int(s)) for s in trial_seeds(master, trials)])
    np.testing.assert_allclose(rep.sample_norms, rebuild(f[paths]), rtol=1e-12, atol=0)
    g_seed = int(trial_seeds(master ^ 0x3C3C3C3C, 1)[0])
    g = normal_block(trial_seeds(g_seed, g_trials), m)
    assert rep.gaussian_mean == pytest.approx(rebuild(g).mean(), rel=1e-12)
    assert rep.b_norm == pytest.approx(np.abs(np.linalg.eigvalsh(B.entries)).max(), rel=1e-12)


# --- the batched walk against per-trial rebuilds ---------------------------------

_NON_REVERSIBLE = ([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]], [1.0, -0.5, -0.5])


@pytest.mark.parametrize("d", [1, 2, 7, 32])
def test_batched_walk_matches_per_trial_build(rng, d):
    B = _random_coefficients(rng, d)
    cases = [(two_state_chain(lam), [1.0, -1.0]) for lam in (0.0, 0.5, 0.9)]
    cases.append((validate_chain(_NON_REVERSIBLE[0]), _NON_REVERSIBLE[1]))
    cfg = SimConfig(trials=5, master_seed=2**35 + d)
    for chain, f in cases:
        for order in (row_major_order(d), diagonal_first_order(d)):
            rep = run_matrix_experiment(B, order, chain, f, cfg, gaussian_trials=2)
            per_trial = np.stack([build_markov_matrix(B, order, chain, f, int(s))
                                  for s in trial_seeds(cfg.master_seed, cfg.trials)])
            assert np.array_equal(rep.sample_norms, spectral_norms(per_trial))


def test_run_matrix_experiment_validates_order_and_f():
    B = CoefficientMatrix(np.ones((3, 3)))
    cfg = SimConfig(trials=4, master_seed=1)
    with pytest.raises(DimensionMismatch):
        run_matrix_experiment(B, row_major_order(2), two_state_chain(0.5), [1.0, -1.0], cfg)
    with pytest.raises(OutOfRange):
        run_matrix_experiment(B, row_major_order(3), two_state_chain(0.5), [2.0, -2.0], cfg)


# --- the report keeps no per-instance dict and derives bound_by_C ----------------

def test_report_has_slots_and_derived_bounds():
    B = CoefficientMatrix(np.ones((4, 4)))
    cfg = SimConfig(trials=6, master_seed=9)
    rep = run_matrix_experiment(B, row_major_order(4), two_state_chain(0.5), [1.0, -1.0], cfg,
                                lam=0.5, gaussian_trials=3)
    assert not hasattr(rep, "__dict__")
    assert list(rep.bound_by_C) == [0.5, 1.0, 2.0, 4.0]
    assert list(rep.to_dict()["bound_by_C"]) == ["0.5", "1.0", "2.0", "4.0"]
    at_one = run_matrix_experiment(B, row_major_order(4), two_state_chain(0.5), [1.0, -1.0],
                                   cfg, lam=1.0, gaussian_trials=3)
    assert at_one.bound_by_C == {} and at_one.to_dict()["bound_by_C"] == {}
    assert math.isnan(at_one.fitted_C)


def test_report_derives_summary_from_sample_norms():
    B = CoefficientMatrix(np.ones((5, 5)))
    cfg = SimConfig(trials=7, master_seed=21)
    reps = [run_matrix_experiment(B, row_major_order(5), two_state_chain(lam), [1.0, -1.0], cfg,
                                  lam=lam, gaussian_trials=3) for lam in (0.3, 0.6)]
    for rep in reps:
        x = rep.sample_norms
        assert not x.flags.writeable
        half = 1.959963984540054 * float(x.std(ddof=1) / math.sqrt(x.size))
        assert rep.mean_norm == float(x.mean())
        assert (rep.ci_low, rep.ci_high) == (rep.mean_norm - half, rep.mean_norm + half)
        sigma, sigma_star = sigma_params(B)
        b_norm = schatten_norm(B.entries, math.inf)
        assert (rep.sigma, rep.sigma_star, rep.b_norm) == (sigma, sigma_star, b_norm)
        gauss = sigma + sigma_star * math.sqrt(math.log(5))
        assert rep.fitted_C == rep.mean_norm * math.sqrt(1.0 - rep.lam) / gauss
    # reports on one B share its norms rather than holding copies
    assert reps[0].sigma is reps[1].sigma and reps[0].b_norm is reps[1].b_norm


def test_report_retains_little_memory():
    # callers that keep every report (a study loop, a benchmark runner) pay
    # these bytes once per report
    d, reports = 32, 200
    B = CoefficientMatrix(np.ones((d, d)))
    order = row_major_order(d)
    chains = [(lam, two_state_chain(lam)) for lam in (0.0, 0.5, 0.9)]

    def run(i):
        lam, chain = chains[i % 3]
        return run_matrix_experiment(B, order, chain, [1.0, -1.0],
                                     SimConfig(trials=10, master_seed=1000 + i), lam=lam,
                                     gaussian_trials=10)

    run(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [run(i) for i in range(reports)]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == reports and retained / reports < 700
