import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mchoeffding.bounds import (
    bound_fjs,
    bound_glss,
    bound_healy,
    bound_iid_hoeffding,
    bound_matrix_schatten,
    bound_mgf,
    bound_moment,
    bound_monomial,
    bound_rao,
    _admissible_sum,
    evaluate_tail_bounds,
    is_vacuous,
    tail_mass,
)
from mchoeffding.errors import LambdaGeOne, NegativeU, OddQ, OutOfRange, Unsorted

from conftest import brute_force_string_sum, brute_force_strings


def test_iid_hoeffding_values():
    assert bound_iid_hoeffding(0.0) == 2.0
    assert bound_iid_hoeffding(2.0) == pytest.approx(0.270670566473225383788, rel=1e-14)
    assert bound_iid_hoeffding(50.0) < 1e-200


def test_healy_values():
    assert bound_healy(2.0, 0.0) == pytest.approx(0.735758882342884643191, rel=1e-14)
    assert bound_healy(7.0, 1.0) == 2.0  # vacuous once lam >= 1
    assert bound_healy(0.0, 0.3) == 2.0


def test_rao_values():
    assert bound_rao(0.0, 0.5) == 2.0
    # boundary of the trivial region: u = 8 / sqrt(1 - lam) gives 2 e^{-1/e}
    for lam in (0.0, 0.5, 0.9):
        u = 8.0 / math.sqrt(1.0 - lam)
        assert bound_rao(u, lam) == pytest.approx(1.38440125511069270773, rel=1e-13)
        assert is_vacuous(bound_rao(u, lam))
    assert bound_rao(30.0, 0.5) == pytest.approx(0.150543207920995340606, rel=1e-13)
    assert type(bound_rao(1.0, 0.5)) is float


def test_is_vacuous_elementwise_and_nan_safe():
    assert not is_vacuous(0.999)
    assert is_vacuous(1.0) and is_vacuous(math.inf) and is_vacuous(math.nan)
    np.testing.assert_array_equal(is_vacuous(np.array([0.5, 1.0, np.nan, 2.0, 0.0])),
                                  [False, True, True, True, False])


def test_mgf_level_bound():
    assert bound_mgf(0.0, 0.5) == 2.0
    assert bound_mgf(8.0, 0.0) == pytest.approx(2.0 * math.exp(1.0), rel=1e-14)
    # overflow is a vacuous +inf, not an error or a warning
    assert bound_mgf(1e3, 0.0) == math.inf and bound_healy(1e3, 5.0) == math.inf


def test_fjs_values():
    for u in (0.0, 0.5, 1.0, 3.0):
        assert bound_fjs(u, 0.0) == bound_iid_hoeffding(u)
    assert bound_fjs(2.0, 0.5) == pytest.approx(1.02683423806518405374, rel=1e-13)
    with pytest.raises(OutOfRange):
        bound_fjs(1.0, -0.1)


def test_glss_values():
    assert bound_glss(0.0, 0.3, 5) == 10.0
    for u in (0.0, 1.0, 2.5):
        assert bound_glss(u, 0.4, 1, c=0.25) == pytest.approx(bound_healy(u, 0.4), rel=1e-14)
    assert bound_glss(10.0, 0.0, 2, c=1.0) == pytest.approx(4.0 * math.exp(-100.0), rel=1e-12)


def test_negative_u_rejected():
    for fn in (bound_iid_hoeffding,):
        with pytest.raises(NegativeU):
            fn(-1.0)
    for fn in (bound_healy, bound_rao, bound_fjs, bound_mgf):
        with pytest.raises(NegativeU):
            fn(-1.0, 0.5)
    with pytest.raises(NegativeU):
        bound_glss(-1.0, 0.5, 2)
    u = np.array([0.0, 1.0, -1e-300, 2.0])
    for call in (lambda: bound_iid_hoeffding(u), lambda: bound_rao(u, 0.5),
                 lambda: bound_glss(u, 0.5, 2), lambda: evaluate_tail_bounds(u, 0.5)):
        with pytest.raises(NegativeU):
            call()


@pytest.mark.parametrize("call", [
    lambda: bound_rao(math.nan, 0.5),
    lambda: bound_healy(1.0, math.nan),
    lambda: bound_fjs(1.0, math.inf),
    lambda: bound_iid_hoeffding(math.inf),
    lambda: bound_mgf(1.0, -math.inf),
    lambda: bound_glss(math.nan, 0.5, 2),
    lambda: bound_glss(1.0, math.inf, 2),
    lambda: evaluate_tail_bounds([0.0, 1.0], math.nan),
    lambda: bound_healy(np.array([0.0, math.nan, 1.0]), 0.5),
    lambda: evaluate_tail_bounds([0.0, 1.0, math.inf], 0.5),
])
def test_non_finite_u_or_lambda_rejected(call):
    with pytest.raises(OutOfRange):
        call()


def test_monotonicity_in_u_and_lambda():
    us = np.linspace(0, 10, 41)
    for lam in (0.0, 0.3, 0.8):
        for fn in (bound_healy, bound_rao, bound_fjs):
            vals = [fn(u, lam) for u in us]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
    for u in (1.0, 4.0):
        for fn in (bound_healy, bound_rao, bound_fjs):
            vals = [fn(u, lam) for lam in np.linspace(0, 0.99, 20)]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_admissible_strings_small_cases():
    # S_1 = {1}, S_2 = {11}, S_3 = {111, 101}, S_4 = {1111, 1011, 1101}
    assert _admissible_sum([2.0]) == 2.0
    assert _admissible_sum([2.0, 3.0]) == 6.0
    assert _admissible_sum([2.0, 3.0, 5.0]) == 30.0 + 10.0
    assert _admissible_sum([2.0, 3.0, 5.0, 7.0]) == 210.0 + 70.0 + 42.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_admissible_strings_match_brute_force(data):
    q = data.draw(st.integers(min_value=2, max_value=14))
    n = data.draw(st.integers(min_value=1, max_value=20))
    w = sorted(data.draw(st.lists(st.integers(min_value=1, max_value=n),
                                  min_size=q, max_size=q)))
    lam = data.draw(st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False))
    a = data.draw(st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=n, max_size=n))
    prefactor = math.prod(a[i - 1] for i in w)
    expected = prefactor * brute_force_string_sum(
        [lam ** (c - b) for b, c in zip(w[:-1], w[1:])])
    assert bound_monomial(w, lam, a) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_admissible_counts_follow_fibonacci():
    # at lam = 1 every string counts 1, and |S_k| is the k-th Fibonacci number
    fib = [1, 1]
    while len(fib) < 39:
        fib.append(fib[-1] + fib[-2])
    for q in range(2, 41):
        assert bound_monomial(range(1, q + 1), 1.0, np.ones(q)) == fib[q - 2]
    assert bound_monomial(range(1, 41), 1.0, np.ones(40)) == 63245986


def test_monomial_examples():
    assert bound_monomial([1, 2], 0.5, [1.0, 1.0]) == pytest.approx(0.5)
    assert bound_monomial([1, 1], 0.77, [1.0]) == pytest.approx(1.0)
    assert bound_monomial([1, 2, 3, 4], 0.5, np.ones(4)) == pytest.approx(0.375)
    with pytest.raises(Unsorted):
        bound_monomial([2, 1], 0.5, [1.0, 1.0])


def test_monomial_rejects_bad_indices_and_lambda():
    for w in ([0, 1], [1, 3], [1, 5], [-1, 2], [1.5, 2], [1.0, 2.0]):
        with pytest.raises(OutOfRange):
            bound_monomial(w, 0.5, [1.0, 3.0])
    for w in ([], [1]):
        with pytest.raises(OutOfRange):
            bound_monomial(w, 0.5, [1.0, 3.0])
    for lam in (-0.1, math.nan):
        with pytest.raises(OutOfRange):
            bound_monomial([1, 2], lam, [1.0, 3.0])
    assert bound_monomial([1, 2], 0.5, [1.0, 3.0]) == 1.5
    assert bound_monomial(np.array([1, 2]), 0.5, [1.0, 3.0]) == 1.5


def test_monomial_counts_strings_at_lambda_one():
    for q in range(2, 8):
        expected = len(brute_force_strings(q - 1))
        assert bound_monomial(list(range(1, q + 1)), 1.0, np.ones(q)) == pytest.approx(expected)


def test_moment_bound_values():
    for n in (1, 4, 9):
        assert bound_moment(2, 0.0, np.ones(n)) == pytest.approx(16.0 * n)
    assert bound_moment(2, 0.5, [3.0, 4.0]) == pytest.approx(800.0)
    with pytest.raises(OddQ):
        bound_moment(3, 0.0, [1.0])
    with pytest.raises(LambdaGeOne):
        bound_moment(2, 1.0, [1.0])


def test_matrix_schatten_bound():
    assert bound_matrix_schatten(2.0, 1.0, 4, 0.0, 3.0) == pytest.approx(
        min(2.0 + math.sqrt(math.log(4)), 3.0))
    assert bound_matrix_schatten(2.0, 1.0, 1, 0.75, 100.0) == pytest.approx(4.0)
    assert bound_matrix_schatten(1.0, 1.0, 3, 0.75, 100.0, C=1.0) == pytest.approx(
        4.09629414793640989298, rel=1e-13)
    with pytest.raises(LambdaGeOne):
        bound_matrix_schatten(1.0, 1.0, 2, 1.0, 1.0)


def test_evaluate_tail_bounds_columns():
    cols = evaluate_tail_bounds([0.0, 2.0], 0.5)
    assert list(cols) == ["iid", "healy", "rao", "fjs"]
    assert cols["iid"][0] == 2.0
    assert cols["iid"][1] == pytest.approx(bound_iid_hoeffding(2.0))
    # every bound is array-valued: on a grid it matches its scalar calls
    u = np.concatenate([np.linspace(0.0, 60.0, 1201), [1e-3, 7.77, 1e3]])
    for lam in (0.0, 0.37, 0.9, 1.0, 1.5):
        bounds = {"iid": bound_iid_hoeffding, "healy": lambda x: bound_healy(x, lam),
                  "rao": lambda x: bound_rao(x, lam), "mgf": lambda x: bound_mgf(x, lam),
                  "fjs": lambda x: bound_fjs(x, lam), "glss": lambda x: bound_glss(x, lam, 3, c=0.7)}
        cols = evaluate_tail_bounds(u, lam)
        for name, fn in bounds.items():
            vals = fn(u)
            assert vals.shape == u.shape, name
            np.testing.assert_array_max_ulp(vals, [fn(x) for x in u.tolist()], maxulp=1)
            if name in cols:
                np.testing.assert_array_equal(cols[name], vals)


# --- tail_mass against a mask-and-sum -------------------------------------------

def _masked_fsum(values, threshold, weights):
    return math.fsum(weights[values >= threshold - 1e-12])


def test_tail_mass_matches_mask_and_fsum(rng):
    values = np.abs(rng.integers(-20, 21, size=500)) * 0.25
    weights = rng.random(500)
    weights[:40] = 0.0
    values[40:60] = np.nan
    weights[40:60] = 0.0
    values[60:63] = np.inf
    point = 2.5
    thresholds = np.array([point, point + 1e-12, point - 1e-12, np.nextafter(point, 0.0), 0.0,
                           -1.0, 1e-13, -np.inf, np.inf, np.nan, 5.0, 5.25, 100.0])
    got = tail_mass(values, thresholds, weights)
    for t, g in zip(thresholds, got):
        want = _masked_fsum(values, t, weights)
        assert abs(g - want) <= 1e-13 * want, (t, g, want)
    assert got[8] == math.fsum(weights[60:63])                # t = inf: the inf values only
    assert got[9] == 0.0                                      # NaN threshold
    unit = 1.0 - np.isnan(values)                             # counts are exact in float64
    np.testing.assert_array_equal(tail_mass(values, thresholds, unit),
                                  [np.sum(values >= t - 1e-12) for t in thresholds])


def test_tail_mass_scalar_threshold_and_empty_input():
    values, weights = np.array([3.0, 1.0, 2.0]), np.array([0.5, 0.25, 0.125])
    assert tail_mass(values, 2.0, weights) == 0.625
    assert tail_mass(values, 2.0 + 1e-12, weights) == 0.625  # 1e-12 slack: inclusive
    assert tail_mass(values, 2.0 + 1e-9, weights) == 0.5
    np.testing.assert_array_equal(tail_mass(np.array([]), np.array([0.0, 1.0]), np.array([])),
                                  [0.0, 0.0])
