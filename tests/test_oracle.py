import itertools
import math
import tracemalloc
from fractions import Fraction

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
from mchoeffding.config import DEFAULT_TOL
from mchoeffding.errors import (
    DimensionMismatch,
    NotLattice,
    NotMeanZero,
    OutOfRange,
    Overflow,
    TooLarge,
    Unsorted,
)
from mchoeffding.oracle import (
    MAX_LATTICE_POINTS,
    _lattice_decomposition,
    brute_force_monomial,
    evaluate_diagonal_chain_claim,
    evaluate_projector_chain_claim,
)

from conftest import (
    brute_force_string_sum,
    lattice_instances,
    prime_reciprocal_values,
    random_chain,
    random_lattice_family,
)


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


@pytest.mark.parametrize("w,error", [
    ([], OutOfRange),
    ([0, 1], OutOfRange),       # index 0 would read the last function
    ([5], OutOfRange),
    ([2, 4], OutOfRange),
    ([1.0, 2.0], OutOfRange),
    ([1.5, 2], OutOfRange),
    ([3, 1], Unsorted),
])
def test_monomial_index_vector_validated_once(w, error):
    chain = two_state_chain(0.2)
    funcs = sign_family(3)
    for call in (exact_monomial_expectation, brute_force_monomial,
                 lambda c, f, w: bound_monomial(w, 0.2, f.bounds)):
        with pytest.raises(error):
            call(chain, funcs, w)


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


def _full_width_dp(chain, funcs):
    """Reference lattice DP: indices taken relative to f_i(0), and every step multiplies
    and shifts the whole (N, width) table of the final span.  Returns (offsets, probs)."""
    _, _, _, K = _lattice_decomposition(funcs)
    K = K - K[:, :1]
    N = chain.n_states
    A = chain.transition
    lo = int(np.minimum(K, 0).min(axis=1).sum())
    hi = int(np.maximum(K, 0).max(axis=1).sum())
    width = hi - lo + 1
    D = np.zeros((N, width))
    D[np.arange(N), K[0] - lo] = chain.stationary
    for shifts in K[1:].tolist():
        T = A.T @ D
        D = np.zeros_like(T)
        for v, s in enumerate(shifts):
            if s >= 0:
                D[v, s:] = T[v, :width - s] if s else T[v]
            else:
                D[v, :s] = T[v, -s:]
    probs = D.sum(axis=0)
    keep = probs > 0
    return np.arange(lo, lo + width)[keep], probs[keep]


def _doubly_stochastic_chain(rng, N):
    """A 10% uniform component over a Dirichlet mix of three random permutations:
    irreducible, generally non-reversible, with uniform pi."""
    w = rng.dirichlet([1.0, 1.0, 1.0])
    A = 0.1 / N + 0.9 * sum(wi * np.eye(N)[rng.permutation(N)] for wi in w)
    return validate_chain(A, np.full(N, 1.0 / N))


def test_lattice_dp_matches_full_width_reference():
    """The live-window DP equals the full-width one bit for bit: same offsets, same
    probabilities, on small and deep (n = 2048) lattices, a pitch of 1/3, and more states."""
    rng = np.random.default_rng(26)
    two = two_state_chain(0.5)
    decaying = np.ceil(64.0 / np.sqrt(np.arange(1, 2049)))
    cases = lattice_instances(101, 50)  # criterion 1's instances
    cases += [(two, sign_family(2048)), (two, make_family(np.outer(decaying, [1.0, -1.0])))]
    for N, n in ((4, 500), (16, 300)):
        chain = _doubly_stochastic_chain(rng, N)
        cases.append((chain, random_lattice_family(rng, chain, n)))
    chain = random_chain(rng, 3)
    thirds = rng.integers(-6, 7, size=(300, 3)) / 3.0
    cases.append((chain, make_family(thirds - (thirds @ chain.stationary)[:, None], chain=chain)))
    for chain, funcs in cases:
        dist = lattice_distribution(chain, funcs)
        offsets, probs = _full_width_dp(chain, funcs)
        assert np.array_equal(dist.offsets, offsets), (chain.n_states, funcs.n_steps)
        assert np.array_equal(dist.probabilities, probs), (chain.n_states, funcs.n_steps)
    # At N = 64 the BLAS product takes another kernel on the narrower early tables, which
    # sums in another order, so far-tail probabilities may differ by a few ulps relative.
    chain = _doubly_stochastic_chain(rng, 64)
    funcs = random_lattice_family(rng, chain, 100)
    dist = lattice_distribution(chain, funcs)
    offsets, probs = _full_width_dp(chain, funcs)
    assert np.array_equal(dist.offsets, offsets)
    assert np.all(np.abs(dist.probabilities - probs) <= 4e-15 * probs)


def test_exact_tail_matches_brute_force(rng):
    for _ in range(5):
        chain = random_chain(rng, 3)
        funcs = random_lattice_family(rng, chain, 5)
        bf = brute_force_distribution(chain, funcs)
        for t in (0.5, 1.0, 2.0, 3.5):
            _agree(exact_tail(chain, funcs, t), bf.tail(t))


def test_non_lattice_values_rejected():
    """A difference with no rational form of denominator at most 10^6 within 1e-9."""
    chain = two_state_chain(0.4)
    funcs = make_family([[1e-7, -1e-7]], chain=chain)
    for oracle in (lattice_distribution, brute_force_distribution):
        with pytest.raises(NotLattice, match="-2e-07 has no small rational form"):
            oracle(chain, funcs)


def test_lattice_with_huge_common_denominator_is_too_large():
    """Rational differences whose denominators' LCM overflows int64 raise TooLarge, not
    OverflowError, in both oracles that share the lattice decomposition."""
    chain = two_state_chain(0.5)
    for n, oracles in [(40, [lattice_distribution]),
                       (16, [lattice_distribution, brute_force_distribution])]:
        funcs = make_family(prime_reciprocal_values(n), chain=chain)
        for oracle in oracles:
            with pytest.raises(TooLarge, match="lattice indices span"):
                oracle(chain, funcs)


def test_brute_force_guard():
    chain = two_state_chain(0.1)
    with pytest.raises(TooLarge):
        brute_force_distribution(chain, sign_family(40))


def test_deterministic_sum_skips_enumeration():
    """A zero family makes S_n = 0 surely: both oracles return the point mass, with
    N^n = 4^20 > 10^7 paths that the brute force would otherwise refuse to enumerate."""
    chain = random_chain(np.random.default_rng(20), 4)
    funcs = make_family(np.zeros((20, 4)), chain=chain)
    tracemalloc.start()
    try:
        bf = brute_force_distribution(chain, funcs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    dp = lattice_distribution(chain, funcs)
    for dist in (bf, dp):
        assert dist.step == 0.0
        assert dist.support.tolist() == [0.0] and dist.probabilities.tolist() == [1.0]


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


@pytest.mark.parametrize("N,n", [(4, 10), (10, 6), (2, 20)])
def test_enumeration_peak_memory(N, n):
    """About 10^6 paths: each oracle holds at most two arrays of N^n entries (8 * N^n
    bytes each) at once, the distribution its path probabilities and lattice indices,
    the monomial its probabilities and a factor table, with w repeating its last index."""
    rng = np.random.default_rng(N)
    chain = random_chain(rng, N)
    funcs = make_family(np.tile([[1.0, -1.0] + [0.0] * (N - 2)], (n, 1))
                        + rng.integers(-2, 3, size=(n, N)))
    w = list(range(1, n + 1)) + [n]
    full = 8 * N**n
    for call in (lambda: brute_force_distribution(chain, funcs),
                 lambda: brute_force_monomial(chain, funcs, w)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * full, peak / full


def _vander_moments(chain, funcs, q):
    """E[S_n^m], m = 0..q, by the binomial recursion with per-step np.vander powers."""
    A = chain.transition
    orders = np.arange(q + 1)
    pascal = np.array([[math.comb(m, j) for j in orders] for m in orders], dtype=float)
    lag = np.maximum(orders[:, None] - orders[None, :], 0)
    M = np.array([chain.stationary * funcs.values[0] ** m for m in range(q + 1)])
    for f in funcs.values[1:]:
        fpow = np.vander(f, q + 1, increasing=True).T
        M = np.cumsum(pascal[:, :, None] * fpow * (M @ A)[lag], axis=1)[:, -1] + 0.0
    return M.sum(axis=1)


@pytest.mark.parametrize("q", [0, 1, 4, 8, 32])
def test_moments_equal_vander_recursion_bit_for_bit(rng, q):
    for _ in range(12):
        N = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        chain = random_chain(rng, N)
        for funcs in (random_lattice_family(rng, chain, n) if N > 1 else make_family(np.zeros((n, 1))),
                      make_family(rng.normal(size=(n, N)))):
            got = exact_moments(chain, funcs, q).moments
            assert got.tobytes() == _vander_moments(chain, funcs, q).tobytes(), (N, n, q)


def _fraction_decomposition(funcs):
    """(pitch, base, K) by a limit_denominator Fraction per distinct difference,
    taken in order of first appearance."""
    V = funcs.values
    base = float(V[:, 0].sum())
    diffs = V - V[:, :1]
    uniq, first, inverse = np.unique(diffs.ravel(), return_index=True, return_inverse=True)
    fracs = [None] * uniq.size
    for u in np.argsort(first, kind="stable"):
        d = float(uniq[u])
        fr = Fraction(d).limit_denominator(DEFAULT_TOL.lattice_max_denominator)
        if abs(float(fr) - d) > DEFAULT_TOL.lattice_residual:
            raise NotLattice(f"value difference {d!r} has no small rational form")
        fracs[u] = fr
    nonzero = [f for f in fracs if f != 0]
    if not nonzero:
        return None, base, np.zeros_like(diffs, dtype=np.int64)
    den_lcm = math.lcm(*(f.denominator for f in nonzero))
    ints = [f.numerator * (den_lcm // f.denominator) for f in fracs]
    g = math.gcd(*ints)
    ks = [i // g for i in ints]
    if max(map(abs, ks)) > MAX_LATTICE_POINTS:
        raise TooLarge(f"lattice indices span more than {MAX_LATTICE_POINTS} points")
    return Fraction(g, den_lcm), base, np.array(ks, dtype=np.int64)[inverse].reshape(diffs.shape)


def _rebased_fraction_decomposition(funcs):
    """`_fraction_decomposition` with each row of K shifted to start at 0, and lo the
    sum of the shifts, as `_lattice_decomposition` returns it."""
    pitch, base, K = _fraction_decomposition(funcs)
    low = K.min(axis=1, keepdims=True)
    return pitch, base, int(low.sum()), K - low


def _outcome(decompose, funcs):
    try:
        pitch, base, lo, K = decompose(funcs)
    except (NotLattice, TooLarge) as err:
        return type(err), str(err)
    return pitch, base, lo, K.dtype, K.tolist()


def test_lattice_decomposition_equals_fraction_loop(rng):
    # a zero family, a difference that rounds to 0, an exact binary fraction, integers
    # past the index cap whose gcd brings them under it, and irrationals that pass with
    # denominators near the denominator cap
    families = [np.zeros((3, 2)), [[0.0, 1e-12], [0.0, 1.0]], [[0.0, 2.0**-19], [1.0, 0.0]],
                [[0.0, 1e8], [0.0, -3e8]], [[0.0, 1.0], [0.0, math.sqrt(2.0)]], [[1.0, math.pi]]]
    for _ in range(6):
        n, N = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        families.append(rng.integers(-5, 6, size=(n, N)).astype(float))
        families.append(rng.integers(-5, 6, size=(n, N)) * 1e6 + rng.integers(0, 9))
        for den in (3, 7, 1000, 997 * 991):
            families.append(rng.integers(-20, 21, size=(n, N)) / den + rng.normal(size=(n, 1)))
    # the message names the first failing difference to appear, here not the smallest
    raises = [([[0.0, 1e-7]], NotLattice), ([[0.0, 2.0**-20]], NotLattice),
              ([[0.0, 3e-7], [0.0, -2e-7]], NotLattice),
              ([[0.0, 1.0], [0.0, 0.1234567891]], NotLattice),
              ([[0.0, 1.0], [0.0, 5e7]], TooLarge), ([[0.0, 1e300], [0.0, 1.0]], TooLarge),
              (prime_reciprocal_values(16), TooLarge)]
    families += [values for values, _ in raises]
    for values in families:
        funcs = make_family(values)
        assert (_outcome(_lattice_decomposition, funcs)
                == _outcome(_rebased_fraction_decomposition, funcs))
    for values, error in raises:
        with pytest.raises(error):
            _lattice_decomposition(make_family(values))


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


# --- function-table width and the array tail query ------------------------------

@pytest.mark.parametrize("oracle", [
    lambda c, f: exact_monomial_expectation(c, f, [1, 2]),
    lambda c, f: exact_moments(c, f, 2),
    lambda c, f: exact_mgf(c, f, 0.1),
    lambda c, f: lattice_distribution(c, f),
    lambda c, f: brute_force_distribution(c, f),
    lambda c, f: brute_force_monomial(c, f, [1, 2]),
], ids=["monomial", "moments", "mgf", "lattice", "brute_force", "brute_force_monomial"])
@pytest.mark.parametrize("values", [[[2.0], [3.0]], [[1.0, 0.0, -1.0], [1.0, 0.0, -1.0]]],
                         ids=["width1", "width3"])
def test_every_oracle_rejects_a_function_table_of_the_wrong_width(oracle, values):
    with pytest.raises(DimensionMismatch, match="width must match the state count"):
        oracle(two_state_chain(0.5), make_family(values))


def test_array_tail_equals_scalar_tails(rng):
    chain = random_chain(rng, 3)
    funcs = random_lattice_family(rng, chain, 6)
    dist = lattice_distribution(chain, funcs)
    t = np.concatenate([np.abs(dist.support), np.linspace(-1.0, 8.0, 37), [np.inf, np.nan]])
    got = dist.tail(t)
    assert isinstance(dist.tail(1.0), float)
    np.testing.assert_array_equal(got, [dist.tail(float(x)) for x in t])
    assert np.all(got[t <= 0] == 1.0)


def test_deep_tails_keep_relative_precision():
    """Tails down to about 1e-46: every positive lattice threshold within 1e-13 of an
    exactly rounded sum of the same probabilities."""
    dist = lattice_distribution(two_state_chain(0.9), sign_family(2048))
    support = np.abs(dist.support)
    t = np.unique(support[support > 0])
    got = dist.tail(t)
    want = np.array([math.fsum(dist.probabilities[support >= x - 1e-12]) for x in t])
    assert want.min() < 1e-25
    np.testing.assert_array_less(np.abs(got - want), 1e-13 * want)
