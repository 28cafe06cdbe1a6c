import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mchoeffding import NormContext, contraction, opnorm, power_deviation, two_state_chain, validate_chain
from mchoeffding.chain import averaging_operator
from mchoeffding.errors import DimensionMismatch, OutOfRange
from mchoeffding.spectral import spectral_norms

from conftest import random_chain


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


def test_power_deviation_examples():
    chain = two_state_chain(0.5)
    E = averaging_operator(chain)
    np.testing.assert_allclose(power_deviation(chain, 1), chain.transition - E, atol=1e-14)
    dev3 = power_deviation(chain, 3)
    np.testing.assert_allclose(np.abs(dev3), 0.5**3 / 2, atol=1e-12)
    ctx = NormContext(chain.stationary)
    assert opnorm(dev3, ctx, 2) == pytest.approx(0.125, abs=1e-12)


def test_power_deviation_of_averaging_chain_is_zero():
    pi = np.array([0.25, 0.75])
    chain = validate_chain(np.tile(pi, (2, 1)), pi)
    for k in (1, 2, 5):
        assert np.abs(power_deviation(chain, k)).max() < 1e-13


def test_power_deviation_identity_and_decay(rng):
    for _ in range(5):
        chain = random_chain(rng, 4)
        E = averaging_operator(chain)
        lam = contraction(chain)
        ctx = NormContext(chain.stationary)
        for k in range(1, 21):
            dev = power_deviation(chain, k)
            assert np.abs(dev - np.linalg.matrix_power(chain.transition - E, k)).max() < 1e-10
            assert opnorm(dev, ctx, 2) <= lam**k + 1e-9


def test_power_deviation_rejects_k_zero():
    with pytest.raises(OutOfRange):
        power_deviation(two_state_chain(0.2), 0)


def test_contraction_invariant_under_relabeling(rng):
    for _ in range(5):
        chain = random_chain(rng, 5)
        perm = rng.permutation(5)
        A = chain.transition[np.ix_(perm, perm)]
        chain2 = validate_chain(A, chain.stationary[perm])
        assert contraction(chain2) == pytest.approx(contraction(chain), abs=1e-10)
