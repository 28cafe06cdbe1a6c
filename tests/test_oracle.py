import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mchoeffding import (
    brute_force_distribution,
    contraction,
    exact_mgf,
    exact_moments,
    exact_monomial_expectation,
    exact_tail,
    lattice_distribution,
    make_family,
    sign_family,
    two_state_chain,
    validate_chain,
    verify_holder_application,
)
from mchoeffding.bounds import bound_monomial
from mchoeffding.config import Tolerances
from mchoeffding.errors import (
    DimensionMismatch,
    NotLattice,
    NotMeanZero,
    Overflow,
    TooLarge,
    Unsorted,
)
from mchoeffding.oracle import (
    brute_force_monomial,
    evaluate_diagonal_chain_claim,
    evaluate_projector_chain_claim,
)

from conftest import brute_force_string_sum, random_chain, random_lattice_family


def _agree(x, y, tol=1e-10):
    assert abs(x - y) <= tol * max(1.0, abs(x), abs(y)), (x, y)


def test_single_index_monomial_is_zero(rng):
    chain = random_chain(rng, 3)
    funcs = random_lattice_family(rng, chain, 5)
    for i in (1, 3, 5):
        assert abs(exact_monomial_expectation(chain, funcs, [i])) < 1e-12


def test_two_state_pair_correlation():
    lam = 0.6
    chain = two_state_chain(lam)
    funcs = sign_family(6)
    for i, j in [(1, 2), (2, 5), (1, 6)]:
        assert exact_monomial_expectation(chain, funcs, [i, j]) == pytest.approx(
            lam ** (j - i), abs=1e-12)


def test_monomial_matches_brute_force(rng):
    chain = random_chain(rng, 3)
    funcs = random_lattice_family(rng, chain, 5)
    for w in ([1, 2, 2, 5], [1, 1], [2, 3, 4], [1, 2, 3, 4, 5]):
        _agree(exact_monomial_expectation(chain, funcs, w),
               brute_force_monomial(chain, funcs, w), 1e-12)


def test_monomial_rejects_unsorted():
    chain = two_state_chain(0.2)
    with pytest.raises(Unsorted):
        exact_monomial_expectation(chain, sign_family(4), [3, 1])


def test_monomial_lemma_dominance(rng):
    chain = random_chain(rng, 3)
    lam = contraction(chain)
    assert lam < 1.0
    funcs = random_lattice_family(rng, chain, 6)
    for _ in range(100):
        q = int(rng.integers(2, 7))
        w = sorted(int(x) for x in rng.integers(1, 7, size=q))
        lhs = exact_monomial_expectation(chain, funcs, w)
        assert lhs <= bound_monomial(w, lam, funcs.bounds) + 1e-9


def test_first_moments():
    chain = two_state_chain(0.5)
    table = exact_moments(chain, sign_family(2), 2)
    assert table[0] == pytest.approx(1.0)
    assert table[1] == pytest.approx(0.0, abs=1e-12)
    assert table[2] == pytest.approx(3.0)  # 2 + 2 lam


def test_moments_under_independence(rng):
    # A = E_pi: moments factor; second moment is the sum of variances
    pi = np.array([0.2, 0.3, 0.5])
    chain = validate_chain(np.tile(pi, (3, 1)), pi)
    funcs = random_lattice_family(rng, chain, 4)
    variances = ((funcs.values**2) @ pi).sum()
    _agree(exact_moments(chain, funcs, 2)[2], float(variances), 1e-12)


def test_moments_match_brute_force(rng):
    for _ in range(5):
        chain = random_chain(rng, int(rng.integers(2, 4)))
        funcs = random_lattice_family(rng, chain, int(rng.integers(2, 6)))
        bf = brute_force_distribution(chain, funcs)
        table = exact_moments(chain, funcs, 6)
        for m in range(7):
            _agree(table[m], bf.moment(m))


def test_moment_order_guard():
    with pytest.raises(TooLarge):
        exact_moments(two_state_chain(0.1), sign_family(2), 33)


def test_mgf_basics(rng):
    chain = two_state_chain(0.5)
    assert exact_mgf(chain, sign_family(4), 0.0) == pytest.approx(1.0)
    funcs = sign_family(1)
    theta = 0.37
    assert exact_mgf(chain, funcs, theta) == pytest.approx(math.cosh(theta), abs=1e-14)


def test_mgf_matches_brute_force_and_moment_series(rng):
    chain = two_state_chain(0.5)
    funcs = sign_family(4)
    bf = brute_force_distribution(chain, funcs)
    for theta in (-0.3, 0.1, 0.25):
        _agree(exact_mgf(chain, funcs, theta), bf.mgf(theta), 1e-12)
    table = exact_moments(chain, funcs, 12)
    theta = 0.01
    series = sum(theta**m * table[m] / math.factorial(m) for m in range(13))
    assert exact_mgf(chain, funcs, theta) == pytest.approx(series, abs=1e-8)


def test_mgf_overflow():
    with pytest.raises(Overflow):
        exact_mgf(two_state_chain(0.0), sign_family(64), 1e4)


def test_exact_tail_examples():
    assert exact_tail(two_state_chain(0.0), sign_family(2), 2.0) == pytest.approx(0.5)
    assert exact_tail(two_state_chain(0.5), sign_family(2), 2.0) == pytest.approx(0.75)
    assert exact_tail(two_state_chain(0.5), sign_family(2), 0.0) == 1.0


def test_lattice_distribution_is_a_distribution(rng):
    for _ in range(5):
        chain = random_chain(rng, 3)
        funcs = random_lattice_family(rng, chain, 5)
        dist = lattice_distribution(chain, funcs)
        assert np.all(dist.probabilities >= 0)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_tail_matches_brute_force(rng):
    for _ in range(5):
        chain = random_chain(rng, 3)
        funcs = random_lattice_family(rng, chain, 5)
        bf = brute_force_distribution(chain, funcs)
        for t in (0.5, 1.0, 2.0, 3.5):
            _agree(exact_tail(chain, funcs, t), bf.tail(t))


def test_non_lattice_values_rejected():
    chain = two_state_chain(0.4)
    funcs = make_family([[0.03, -0.03]], chain=chain)
    tight = Tolerances(lattice_max_denominator=10)
    with pytest.raises(NotLattice):
        lattice_distribution(chain, funcs, tight)


def test_brute_force_guard():
    chain = two_state_chain(0.1)
    with pytest.raises(TooLarge):
        brute_force_distribution(chain, sign_family(40))


def _itertools_paths(chain, n):
    """Every path as a row of an (N^n, n) array, with its probability
    multiplied left to right."""
    paths = np.array(list(itertools.product(range(chain.n_states), repeat=n)), dtype=np.int64)
    probs = chain.stationary[paths[:, 0]].copy()
    for i in range(1, n):
        probs *= chain.transition[paths[:, i - 1], paths[:, i]]
    return paths, probs


def test_brute_force_matches_itertools_reference(rng):
    for N in range(1, 6):
        for n in range(1, 9):
            A = rng.random((N, N)) * (rng.random((N, N)) < 0.8) + 0.01
            chain = validate_chain(A / A.sum(axis=1, keepdims=True))
            paths, probs = _itertools_paths(chain, n)
            # integer values, so S_n itself is the lattice index up to an affine map
            V = rng.integers(-2, 3, size=(n, N))
            V[0, 0] = V[0, -1] + 1
            S = V[np.arange(n), paths].sum(axis=1)
            agg = np.bincount(S - S.min(), weights=probs)
            keep = agg > 0
            dist = brute_force_distribution(chain, make_family(V.astype(float)))
            if N == 1:
                assert dist.step == 0.0 and np.array_equal(dist.probabilities, [1.0])
            else:
                assert np.array_equal(dist.probabilities, agg[keep])
                assert np.array_equal(dist.support, np.flatnonzero(keep) + S.min())
            funcs = make_family(rng.normal(size=(n, N)))
            for _ in range(3):
                w = sorted(int(i) for i in rng.integers(1, n + 1, size=int(rng.integers(1, 7))))
                paths, probs = _itertools_paths(chain, max(w))
                vals = np.ones(len(paths))
                for i in w:
                    vals *= funcs.values[i - 1][paths[:, i - 1]]
                expected = float(np.sum(probs * vals))
                assert brute_force_monomial(chain, funcs, w) == expected, (N, n, w)


def test_brute_force_guard_allocates_nothing(rng):
    chain = random_chain(rng, 10)
    funcs = make_family(rng.integers(-2, 3, size=(8, 10)).astype(float))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            brute_force_distribution(chain, funcs)
        with pytest.raises(TooLarge):
            brute_force_monomial(chain, funcs, [1, 8])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6          # 10^8 paths would need 800 MB for the probabilities alone


def test_moments_match_brute_force_to_order_32(rng):
    """E[S_n^m] for m <= 32 within 1e-12 of brute force, relative to
    (sum_i a_i)^m, the a-priori bound on |S_n|^m; odd moments cancel to
    near zero, so a relative error against the moment itself means nothing."""
    for _ in range(20):
        N = int(rng.integers(1, 5))
        chain = random_chain(rng, N)
        n = int(rng.integers(1, 8))
        funcs = (random_lattice_family(rng, chain, n) if N > 1
                 else make_family(np.zeros((n, 1)), chain=chain))
        bf = brute_force_distribution(chain, funcs)
        table = exact_moments(chain, funcs, 32)
        scale = max(1.0, float(funcs.bounds.sum()))
        for m in range(33):
            assert abs(table[m] - bf.moment(m)) <= 1e-12 * scale**m, (m, table[m], bf.moment(m))


def test_moment_overflow_raises():
    with pytest.raises(Overflow):
        exact_moments(two_state_chain(0.5), make_family([[1e200, -1e200], [1e200, -1e200]]), 4)


def test_degenerate_constant_family():
    chain = two_state_chain(0.3)
    funcs = make_family([[0.0, 0.0], [0.0, 0.0]], chain=chain)
    dist = lattice_distribution(chain, funcs)
    assert dist.tail(0.5) == 0.0
    assert dist.tail(0.0) == 1.0


def test_holder_zero_matrices():
    pi = np.array([0.5, 0.5])
    lhs, rhs = verify_holder_application(pi, [[1, -1], [1, -1]], [np.zeros((2, 2))])
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)


def test_holder_tight_two_state():
    chain = two_state_chain(0.5)
    pi = chain.stationary
    T = chain.transition - np.tile(pi, (2, 1))
    lhs, rhs = verify_holder_application(pi, [[1, -1], [1, -1]], [T])
    assert lhs == pytest.approx(0.5, abs=1e-12)
    assert rhs == pytest.approx(0.5, abs=1e-12)


def test_holder_requires_mean_zero():
    pi = np.array([0.5, 0.5])
    with pytest.raises(NotMeanZero):
        verify_holder_application(pi, [[1, 1], [1, -1]], [np.eye(2)])


def _mean_zero_vector(r, pi):
    g = r.normal(size=pi.size)
    return g - float(pi @ g)


def test_holder_random_instances(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        pi = rng.random(n) + 0.05
        pi /= pi.sum()
        us = [_mean_zero_vector(rng, pi) for _ in range(k + 1)]
        Ts = [rng.normal(size=(n, n)) for _ in range(k)]
        lhs, rhs = verify_holder_application(pi, us, Ts)
        assert lhs <= rhs + 1e-9


def test_holder_rhs_matches_brute_force_string_sum(rng):
    for k in range(1, 9):
        n = int(rng.integers(2, 6))
        pi = rng.random(n) + 0.05
        pi /= pi.sum()
        us = [_mean_zero_vector(rng, pi) for _ in range(k + 1)]
        Ts = [rng.normal(size=(n, n)) for _ in range(k)]
        _, rhs = verify_holder_application(pi, us, Ts)
        # ||T||_{L2(pi)} is the spectral norm of D^{1/2} T D^{-1/2}, D = diag(pi)
        t_norms = [np.linalg.norm(np.sqrt(pi)[:, None] * T / np.sqrt(pi), 2) for T in Ts]
        u_sup = math.prod(np.abs(u).max() for u in us)
        assert rhs == pytest.approx(u_sup * brute_force_string_sum(t_norms), rel=1e-12)


def test_holder_needs_at_least_one_matrix():
    with pytest.raises(DimensionMismatch):
        verify_holder_application([0.5, 0.5], [[1, -1]], [])


def test_projector_chain_claim(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        pi = rng.random(n) + 0.05
        pi /= pi.sum()
        Rs = [rng.normal(size=(n, n)) for _ in range(k)]
        lhs, factored, rhs = evaluate_projector_chain_claim(pi, Rs)
        assert lhs == pytest.approx(factored, abs=1e-10 * max(1.0, abs(lhs)))
        assert abs(lhs) <= rhs + 1e-9


def test_diagonal_chain_claim(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        pi = rng.random(n) + 0.05
        pi /= pi.sum()
        us = [rng.normal(size=n) for _ in range(k)]
        Ts = [rng.normal(size=(n, n)) for _ in range(k - 1)]
        lhs, rhs = evaluate_diagonal_chain_claim(pi, us, Ts)
        assert lhs <= rhs + 1e-9
