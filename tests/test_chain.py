import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mchoeffding import (
    CoefficientMatrix,
    NormContext,
    SimConfig,
    averaging_operator,
    contraction,
    estimate_tail,
    exact_moments,
    lattice_distribution,
    make_family,
    row_major_order,
    run_matrix_experiment,
    sign_family,
    two_state_chain,
    validate_chain,
)
from mchoeffding.chain import chain_from_dict, chain_to_dict, load_chain
from mchoeffding.errors import (
    DegenerateStationary,
    DimensionMismatch,
    NonStochastic,
    NotMeanZero,
    NotStationary,
    OutOfRange,
)

from conftest import random_chain


# every record type that holds an ndarray, built twice from equal inputs
_ARRAY_RECORDS = {
    "MarkovChain": lambda: two_state_chain(0.5),
    "FunctionFamily": lambda: sign_family(4),
    "NormContext": lambda: NormContext(np.array([0.25, 0.75])),
    "CoefficientMatrix": lambda: CoefficientMatrix(np.ones((3, 3))),
    "FillOrder": lambda: row_major_order(3),
    "MatrixExperimentReport": lambda: run_matrix_experiment(
        CoefficientMatrix(np.ones((2, 2))), row_major_order(2), two_state_chain(0.5),
        [1.0, -1.0], SimConfig(trials=3, master_seed=1), gaussian_trials=3),
    "TailReport": lambda: estimate_tail(two_state_chain(0.5), sign_family(2), [0.0, 1.0],
                                        SimConfig(trials=10, master_seed=1)),
    "MomentTable": lambda: exact_moments(two_state_chain(0.5), sign_family(2), 2),
    "LatticeDistribution": lambda: lattice_distribution(two_state_chain(0.5), sign_family(2)),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_RECORDS))
def test_array_records_compare_by_identity(name):
    """`==` on a record with ndarray fields is identity: a bool, never an ambiguous
    array truth value, and the records hash."""
    a, b = _ARRAY_RECORDS[name](), _ARRAY_RECORDS[name]()
    assert type(a).__name__ == name
    assert (a == a) is True and (a != a) is False
    assert (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2


def test_identity_accepts_any_stationary():
    chain = validate_chain([[1, 0], [0, 1]], [0.5, 0.5])
    assert np.allclose(chain.stationary, [0.5, 0.5])


def test_stationary_solved_directly():
    chain = validate_chain([[0.7, 0.3], [0.2, 0.8]])
    np.testing.assert_allclose(chain.stationary, [0.4, 0.6], atol=1e-11)
    # slow-mixing two-state chain: pi = (b, a) / (a + b)
    slow = validate_chain([[1 - 1e-5, 1e-5], [2e-5, 1 - 2e-5]])
    np.testing.assert_allclose(slow.stationary, [2 / 3, 1 / 3], rtol=0, atol=1e-11)
    # periodic chain: unique pi although A^k does not converge
    periodic = validate_chain([[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])
    np.testing.assert_allclose(periodic.stationary, [0.25, 0.5, 0.25], rtol=0, atol=1e-14)


def test_stationary_matches_left_eigenvector(rng):
    for n in (2, 3, 5, 8, 17, 33, 64):
        # irreducible through the cycle i -> i+1, with about half the other entries zero
        A = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        A[np.arange(n), (np.arange(n) + 1) % n] += rng.random(n) + 0.1
        A /= A.sum(axis=1, keepdims=True)
        vals, vecs = np.linalg.eig(A.T)
        v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
        chain = validate_chain(A)
        np.testing.assert_allclose(chain.stationary, v / v.sum(), rtol=1e-9, atol=1e-13)


def test_reducible_chains_need_stationary():
    two_classes = [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.3, 0.7], [0, 0, 0.6, 0.4]]
    for A in (two_classes, np.eye(3)):
        with pytest.raises(DegenerateStationary, match="supply 'stationary'"):
            validate_chain(A)
    chain = validate_chain(two_classes, [0.25, 0.25, 3 / 13, 3.5 / 13])
    assert chain.n_states == 4
    # one closed class and a transient state: pi is unique but not positive
    with pytest.raises(DegenerateStationary, match="strictly positive"):
        validate_chain([[0.5, 0.5], [0.0, 1.0]])


def test_non_stochastic_rows_rejected():
    with pytest.raises(NonStochastic):
        validate_chain([[0.5, 0.6], [0.2, 0.8]])
    with pytest.raises(NonStochastic):
        validate_chain([[-0.1, 1.1], [0.5, 0.5]])


def test_non_finite_entries_rejected():
    with pytest.raises(NonStochastic):
        validate_chain([[np.nan, 1.0], [0.5, 0.5]])
    with pytest.raises(NonStochastic):
        validate_chain([[np.nan, 1.0], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(DegenerateStationary):
        validate_chain([[0.5, 0.5], [0.5, 0.5]], [np.nan, 0.5])


def test_shape_and_stationary_validation():
    with pytest.raises(DimensionMismatch):
        validate_chain([[0.5, 0.5]])
    with pytest.raises(NotStationary):
        validate_chain([[0.7, 0.3], [0.2, 0.8]], [0.5, 0.5])
    with pytest.raises(DegenerateStationary):
        validate_chain([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])


def test_two_state_chain_examples():
    assert np.allclose(two_state_chain(0.0).transition, 0.5)
    chain = two_state_chain(0.5)
    np.testing.assert_allclose(chain.transition, [[0.75, 0.25], [0.25, 0.75]])
    for bad in (1.0, -0.1, 2.0):
        with pytest.raises(OutOfRange):
            two_state_chain(bad)


def test_two_state_contraction_roundtrip():
    for lam in np.arange(0.0, 1.0, 0.1):
        assert abs(contraction(two_state_chain(lam)) - lam) < 1e-10


def test_averaging_operator_rows():
    chain = validate_chain([[0.7, 0.3], [0.2, 0.8]])
    E = averaging_operator(chain)
    np.testing.assert_allclose(E, [[0.4, 0.6], [0.4, 0.6]], atol=1e-11)
    chain2 = validate_chain([[1, 0], [0, 1]], [0.5, 0.5])
    np.testing.assert_allclose(averaging_operator(chain2), 0.5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=6))
def test_averaging_operator_is_projector(weights):
    pi = np.array(weights) / np.sum(weights)
    chain = validate_chain(np.tile(pi, (len(pi), 1)), pi)
    E = averaging_operator(chain)
    assert np.abs(E @ E - E).max() < 1e-12


def test_projector_identities_random_chains(rng):
    for _ in range(10):
        chain = random_chain(rng, int(rng.integers(2, 6)))
        A, E = chain.transition, averaging_operator(chain)
        assert np.abs(E @ A - E).max() < 1e-12
        assert np.abs(A @ E - E).max() < 1e-12
        assert np.abs(E @ E - E).max() < 1e-12


def test_powers_stay_stochastic_and_stationary(rng):
    for _ in range(5):
        chain = random_chain(rng, 4)
        Ak = np.eye(4)
        for _k in range(20):
            Ak = Ak @ chain.transition
            assert np.abs(Ak.sum(axis=1) - 1.0).max() < 1e-9
            assert np.abs(chain.stationary @ Ak - chain.stationary).max() < 1e-8


def test_sign_family():
    fam = sign_family(3)
    assert fam.values.shape == (3, 2)
    assert fam.a_l2 == pytest.approx(np.sqrt(3))
    with pytest.raises(OutOfRange):
        sign_family(0)


def test_validated_arrays_are_read_only_copies():
    """The records hold read-only arrays of their own; the caller's arrays stay
    writable and share no memory with them."""
    A, pi = np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([2.0, 1.0]) / 3.0
    V, a = np.array([[1.0, -2.0], [0.5, -1.0]]), np.array([2.0, 1.5])
    records = [validate_chain(A, pi), validate_chain(A), make_family(V), make_family(V, a)]
    held = [x for r in records for x in vars(r).values()]
    held += [averaging_operator(records[0]), *vars(sign_family(3)).values()]
    for x in held:
        assert not x.flags.writeable
        for mine in (A, pi, V, a):
            assert not np.shares_memory(x, mine)
    assert all(x.flags.writeable for x in (A, pi, V, a))


def test_make_family_validation():
    chain = two_state_chain(0.3)
    with pytest.raises(OutOfRange):
        make_family([[1.0, -1.0]], bounds=[0.5], chain=chain)
    with pytest.raises(NotMeanZero):
        make_family([[1.0, 0.5]], chain=chain)
    fam = make_family([[2.0, -2.0]], chain=chain)
    assert fam.bounds[0] == 2.0


@pytest.mark.parametrize("values,bounds", [
    ([[np.nan, 0.0]], None),
    ([[np.inf, -np.inf]], None),
    ([[1.0, -1.0]], [np.nan]),
    ([[1.0, -1.0]], [np.inf]),
])
def test_make_family_rejects_non_finite(values, bounds):
    with pytest.raises(OutOfRange, match="finite"):
        make_family(values, bounds=bounds, chain=two_state_chain(0.3))


def test_json_schema_roundtrip(tmp_path):
    chain = two_state_chain(0.5)
    funcs = sign_family(4)
    blob = chain_to_dict(chain, funcs)
    assert set(blob) == {"transition", "stationary", "functions"}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(blob))
    chain2, funcs2 = load_chain(path)
    np.testing.assert_array_equal(chain2.transition, chain.transition)
    np.testing.assert_array_equal(funcs2.values, funcs.values)
    chain3, funcs3 = chain_from_dict({"transition": blob["transition"]})
    assert funcs3 is None
    np.testing.assert_allclose(chain3.stationary, [0.5, 0.5], atol=1e-11)
