"""Closed-form tail, moment, and monomial bounds, plus related-work comparators.

Conventions: raw bound values are returned unclamped (they can exceed 1);
reports attach a `vacuous` flag instead of clipping, so the mathematical
object survives for plotting.  Symbolic universal constants default to 1 and
are configurable per call.  The monomial bound's sum over admissible strings
is a two-state recurrence, linear in the monomial's degree q, with no cap on q.
"""

import math
import numbers

import numpy as np

from .errors import LambdaGeOne, NegativeU, OddQ, OutOfRange, Unsorted

RAO_DENOMINATOR = 64.0 * math.e


def _check_u(u, lam=0.0):
    if not (math.isfinite(u) and math.isfinite(lam)):
        raise OutOfRange(f"u and lam must be finite, got u={u}, lam={lam}")
    if u < 0:
        raise NegativeU(f"u must be nonnegative, got {u}")


def bound_iid_hoeffding(u: float) -> float:
    """Classical independent-case tail bound 2 exp(-u^2 / 2)."""
    _check_u(u)
    return 2.0 * math.exp(-(u * u) / 2.0)


def bound_healy(u: float, lam: float) -> float:
    """2 exp(-u^2 (1-lam) / 4); vacuous (>= 2) once lam >= 1."""
    _check_u(u, lam)
    return 2.0 * math.exp(-(u * u) * (1.0 - lam) / 4.0)


def bound_rao(u: float, lam: float) -> float:
    """2 exp(-u^2 (1-lam) / (64 e)), the a-weighted Markov-chain Hoeffding bound."""
    _check_u(u, lam)
    return 2.0 * math.exp(-(u * u) * (1.0 - lam) / RAO_DENOMINATOR)


def bound_mgf(u: float, lam: float) -> float:
    """Intermediate MGF-level bound 2 exp(u^2 (1-lam) / 64) at the tuned theta."""
    _check_u(u, lam)
    return 2.0 * math.exp((u * u) * (1.0 - lam) / 64.0)


def bound_fjs(u: float, lam: float) -> float:
    """Sharper comparator: 2 exp(-u^2 (1-lam) / (2 (1+lam))); equals the iid
    bound at lam = 0."""
    _check_u(u, lam)
    if lam < 0:
        raise OutOfRange("lam must be nonnegative")
    return 2.0 * math.exp(-(u * u) * (1.0 - lam) / (2.0 * (1.0 + lam)))


def bound_glss(u: float, lam: float, d: int, c: float = 1.0) -> float:
    """Matrix-valued comparator 2 d exp(-c (1-lam) u^2)."""
    _check_u(u, lam)
    if c <= 0:
        raise OutOfRange("c must be positive")
    return 2.0 * d * math.exp(-c * (1.0 - lam) * u * u)


def is_vacuous(value):
    """True where a bound value says nothing: at least 1, or NaN.  Works
    elementwise on arrays."""
    return ~(np.asarray(value, dtype=float) < 1.0)


def _admissible_sum(x) -> float:
    """Sum over the admissible strings s of length len(x) (endpoints 1, no
    two consecutive zeros) of prod over {j : s_j = 1} of x_j.

    A two-state recurrence on the last bit: end1 and end0 sum the products
    of the admissible prefixes ending in 1 and in 0.  O(len(x)) time."""
    end1, end0 = x[0], 0.0
    for xj in x[1:]:
        end1, end0 = (end1 + end0) * xj, end1
    return end1


def bound_monomial(w, lam: float, a) -> float:
    """Right side of the monomial lemma:

        a_{w_1} ... a_{w_q} * sum over s in S_{q-1} of
        prod over i with s_i = 1 of lam^{w_{i+1} - w_i},

    where S_{q-1} holds the bit strings of length q-1 with endpoints 1 and no
    two consecutive zeros.  `w` is 1-based, nondecreasing, with entries in
    1..len(a).
    """
    w = list(w)
    a = np.asarray(a, dtype=float)
    if len(w) < 2:
        raise OutOfRange("w must have length at least 2")
    if any(b < c for b, c in zip(w[1:], w[:-1])):
        raise Unsorted("w must be nondecreasing")
    if not (all(isinstance(i, numbers.Integral) for i in w) and 1 <= w[0] <= w[-1] <= a.size):
        raise OutOfRange(f"w entries must be integers in 1..{a.size}, got {w[0]}..{w[-1]}")
    if not lam >= 0:
        raise OutOfRange("lam must be nonnegative")
    prefactor = float(np.prod([a[i - 1] for i in w]))
    return prefactor * _admissible_sum([lam ** (c - b) for b, c in zip(w[:-1], w[1:])])


def bound_moment(q: int, lam: float, a) -> float:
    """Even-moment bound 4^q (q/2)! (1/(1-lam))^{q/2} (sum a_i^2)^{q/2}."""
    if q < 2 or q % 2 != 0:
        raise OddQ(f"q must be an even integer >= 2, got {q}")
    if lam >= 1.0:
        raise LambdaGeOne(f"the moment bound needs lam < 1, got {lam}")
    a2 = float(np.sum(np.asarray(a, dtype=float) ** 2))
    h = q // 2
    return (4.0**q) * math.factorial(h) * (1.0 / (1.0 - lam)) ** h * a2**h


def bound_matrix_schatten(sigma: float, sigma_star: float, d: int, lam: float,
                          b_norm: float, C: float = 1.0) -> float:
    """min{ C / sqrt(1-lam) * (sigma + sigma_* sqrt(log d)), ||B||_Sinf }."""
    if min(sigma, sigma_star, b_norm) < 0 or d < 1:
        raise OutOfRange("sigma, sigma_star, b_norm must be nonnegative and d >= 1")
    if lam >= 1.0:
        raise LambdaGeOne(f"the Schatten bound needs lam < 1, got {lam}")
    gauss = C / math.sqrt(1.0 - lam) * (sigma + sigma_star * math.sqrt(math.log(d)))
    return min(gauss, b_norm)


SCALAR_TAIL_BOUNDS = {
    "iid": lambda u, lam: bound_iid_hoeffding(u),
    "healy": bound_healy,
    "rao": bound_rao,
    "fjs": bound_fjs,
}


def evaluate_tail_bounds(u_grid, lam: float) -> dict:
    """Evaluate every scalar tail bound on a u-grid; used by reports and the CLI."""
    u_grid = np.asarray(u_grid, dtype=float)
    out = {}
    for name, fn in SCALAR_TAIL_BOUNDS.items():
        vals = np.array([fn(float(u), lam) for u in u_grid])
        out[name] = vals
    return out
