import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mchoeffding import NormContext, contraction, deviation_norms, opnorm, two_state_chain, validate_chain
from mchoeffding import spectral
from mchoeffding.chain import averaging_operator
from mchoeffding.errors import DimensionMismatch, OutOfRange
from mchoeffding.spectral import l2_opnorms, spectral_norms

from conftest import ADVERSARIAL, random_chain, random_contractive_chain


def test_contraction_of_averaging_chain_is_zero():
    pi = np.array([0.4, 0.6])
    chain = validate_chain(np.tile(pi, (2, 1)), pi)
    assert contraction(chain) < 1e-12


def test_contraction_two_state():
    assert contraction(two_state_chain(0.5)) == pytest.approx(0.5, abs=1e-12)


def test_contraction_swap_chain_is_one():
    chain = validate_chain([[0, 1], [1, 0]], [0.5, 0.5])
    assert contraction(chain) == pytest.approx(1.0, abs=1e-12)


def test_opnorm_identity_all_p():
    ctx = NormContext(np.array([0.3, 0.3, 0.4]))
    for p in (1, 2, np.inf):
        assert opnorm(np.eye(3), ctx, p) == pytest.approx(1.0, abs=1e-12)


def test_opnorm_averaging_inf():
    chain = validate_chain([[0.7, 0.3], [0.2, 0.8]])
    ctx = NormContext(chain.stationary)
    assert opnorm(averaging_operator(chain), ctx, np.inf) == pytest.approx(1.0, abs=1e-11)


def test_opnorm_uniform_pi_matches_plain_svd(rng):
    for _ in range(10):
        T = rng.normal(size=(4, 4))
        ctx = NormContext(np.full(4, 0.25))
        assert opnorm(T, ctx, 2) == pytest.approx(np.linalg.svd(T, compute_uv=False).max(), abs=1e-10)


def test_opnorm_weighted_matches_numpy_conjugation(rng):
    # independent route: conjugate with numpy and take its SVD
    for _ in range(10):
        n = int(rng.integers(2, 6))
        T = rng.normal(size=(n, n))
        pi = rng.random(n) + 0.1
        pi /= pi.sum()
        d = np.sqrt(pi)
        expected = np.linalg.svd((d[:, None] * T) / d[None, :], compute_uv=False).max()
        assert opnorm(T, NormContext(pi), 2) == pytest.approx(expected, abs=1e-10)


def test_spectral_norms_of_a_stack(rng):
    for shape in ((2, 3, 5, 5), (4, 5, 3)):
        X = rng.normal(size=shape)
        expected = [np.linalg.norm(M, 2) for M in X.reshape(-1, *shape[-2:])]
        np.testing.assert_allclose(spectral_norms(X).ravel(), expected, rtol=1e-13)
        assert spectral_norms(X).base is None


def test_opnorm_errors():
    ctx = NormContext(np.array([0.5, 0.5]))
    with pytest.raises(DimensionMismatch):
        opnorm(np.eye(3), ctx, 2)
    with pytest.raises(OutOfRange):
        opnorm(np.eye(2), ctx, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
def test_interpolation_claim(n, seed):
    # ||T||_2^2 <= ||T||_1 ||T||_inf on L_p(pi)
    r = np.random.default_rng(seed)
    T = r.normal(size=(n, n)) * r.choice([0.1, 1.0, 10.0])
    pi = r.random(n) + 0.05
    pi /= pi.sum()
    ctx = NormContext(pi)
    assert opnorm(T, ctx, 2) ** 2 <= opnorm(T, ctx, 1) * opnorm(T, ctx, np.inf) + 1e-9


def test_deviation_norms_two_state_examples():
    norms = deviation_norms(two_state_chain(0.5), 6)
    np.testing.assert_allclose(norms, 0.5 ** np.arange(1, 7), rtol=0, atol=1e-12)


def test_deviation_norms_of_averaging_chain_are_zero():
    pi = np.array([0.25, 0.75])
    chain = validate_chain(np.tile(pi, (2, 1)), pi)
    assert np.abs(deviation_norms(chain, 5)).max() < 1e-13


def test_deviation_norms_identity_and_decay(rng):
    for _ in range(5):
        chain = random_chain(rng, 4)
        E = averaging_operator(chain)
        ctx = NormContext(chain.stationary)
        norms = deviation_norms(chain, 20)
        for k in range(1, 21):
            oracle = opnorm(np.linalg.matrix_power(chain.transition - E, k), ctx, 2)
            assert abs(norms[k - 1] - oracle) < 1e-10
            assert norms[k - 1] <= norms[0] ** k * (1 + 1e-9)


def test_deviation_norms_reject_k_zero():
    with pytest.raises(OutOfRange):
        deviation_norms(two_state_chain(0.2), 0)


def test_deviation_norms_keep_relative_precision():
    """0.5^k at every k up to 200: the powers of A - E decay with the norms
    instead of leaving the roundoff of A^k - E at about 1e-16."""
    norms = deviation_norms(two_state_chain(0.5), 200)
    np.testing.assert_allclose(norms, 0.5 ** np.arange(1, 201), rtol=1e-12, atol=0)


def _assert_relative_decay(chain, K=200):
    norms = deviation_norms(chain, K)
    assert np.all(norms <= norms[0] ** np.arange(1, K + 1) * (1 + 1e-9))


@pytest.mark.parametrize("n_states", [8, 64])
def test_deviation_norms_decay_relative_to_lambda_powers(rng, n_states):
    for _ in range(3):
        _assert_relative_decay(random_chain(rng, n_states))


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_deviation_norms_match_an_independent_oracle(name):
    """Carried powers against numpy's repeated squaring of A - E, one SVD per k;
    below lambda = 1 they decay relative to lambda^k up to k = 200."""
    chain = ADVERSARIAL[name]
    E = averaging_operator(chain)
    ctx = NormContext(chain.stationary)
    norms = deviation_norms(chain, 40)
    oracle = [opnorm(np.linalg.matrix_power(chain.transition - E, k), ctx, 2)
              for k in range(1, 41)]
    np.testing.assert_allclose(norms, oracle, rtol=0, atol=1e-12)
    if norms[0] < 1:
        _assert_relative_decay(chain)


def test_deviation_norms_block_edges_are_bit_identical(rng):
    """At N = 64 one block holds 16 powers: K on and either side of a block edge
    gives, bit for bit, the per-k norms of the same carried powers of A - E."""
    chain = random_chain(rng, 64)
    assert spectral._BLOCK_ENTRIES // 64**2 == 16
    D = chain.transition - averaging_operator(chain)
    ctx = NormContext(chain.stationary)
    P, per_k = D, []
    for _ in range(33):
        per_k.append(float(l2_opnorms(P, ctx)))
        P = P @ D
    for K in (15, 16, 17, 33):
        norms = deviation_norms(chain, K)
        assert norms.shape == (K,)
        assert norms.tolist() == per_k[:K]


def test_contraction_is_the_first_deviation_norm(rng):
    """Bit for bit, and equal to one SVD of A - E."""
    chains = [random_chain(rng, n) for n in (2, 3, 5, 8)]
    chains += [random_contractive_chain(rng, n) for n in (2, 4)]
    for chain in chains:
        lam = contraction(chain)
        assert lam == deviation_norms(chain, 1)[0]
        assert lam == opnorm(chain.transition - averaging_operator(chain),
                             NormContext(chain.stationary), 2)


def test_contraction_invariant_under_relabeling(rng):
    for _ in range(5):
        chain = random_chain(rng, 5)
        perm = rng.permutation(5)
        A = chain.transition[np.ix_(perm, perm)]
        chain2 = validate_chain(A, chain.stationary[perm])
        assert contraction(chain2) == pytest.approx(contraction(chain), abs=1e-10)
