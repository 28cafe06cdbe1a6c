"""Closed-form tail, moment, and monomial bounds, plus related-work comparators.

Conventions: raw bound values are returned unclamped (they can exceed 1);
reports attach a `vacuous` flag instead of clipping, so the mathematical
object survives for plotting.  Symbolic universal constants default to 1 and
are configurable per call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LambdaGeOne, NegativeU, OddQ, OutOfRange, TooLarge, Unsorted

RAO_DENOMINATOR = 64.0 * math.e

MAX_STRING_Q = 30


def _check_u(u):
    if u < 0:
        raise NegativeU(f"u must be nonnegative, got {u}")


def bound_iid_hoeffding(u: float) -> float:
    """Classical independent-case tail bound 2 exp(-u^2 / 2)."""
    _check_u(u)
    return 2.0 * math.exp(-(u * u) / 2.0)


def bound_healy(u: float, lam: float) -> float:
    """2 exp(-u^2 (1-lam) / 4); vacuous (>= 2) once lam >= 1."""
    _check_u(u)
    return 2.0 * math.exp(-(u * u) * (1.0 - lam) / 4.0)


def bound_rao(u: float, lam: float) -> float:
    """2 exp(-u^2 (1-lam) / (64 e)), the a-weighted Markov-chain Hoeffding bound."""
    _check_u(u)
    return 2.0 * math.exp(-(u * u) * (1.0 - lam) / RAO_DENOMINATOR)


def bound_mgf(u: float, lam: float) -> float:
    """Intermediate MGF-level bound 2 exp(u^2 (1-lam) / 64) at the tuned theta."""
    _check_u(u)
    return 2.0 * math.exp((u * u) * (1.0 - lam) / 64.0)


def bound_fjs(u: float, lam: float) -> float:
    """Sharper comparator: 2 exp(-u^2 (1-lam) / (2 (1+lam))); equals the iid
    bound at lam = 0."""
    _check_u(u)
    if lam < 0:
        raise OutOfRange("lam must be nonnegative")
    return 2.0 * math.exp(-(u * u) * (1.0 - lam) / (2.0 * (1.0 + lam)))


def bound_glss(u: float, lam: float, d: int, c: float = 1.0) -> float:
    """Matrix-valued comparator 2 d exp(-c (1-lam) u^2)."""
    _check_u(u)
    if c <= 0:
        raise OutOfRange("c must be positive")
    return 2.0 * d * math.exp(-c * (1.0 - lam) * u * u)


def is_vacuous(value):
    """True where a bound value says nothing: at least 1, or NaN.  Works
    elementwise on arrays."""
    return ~(np.asarray(value, dtype=float) < 1.0)


@dataclass(frozen=True)
class AdmissibleStrings:
    """S_{q-1}: bit strings of length q-1 with endpoints 1 and no two
    consecutive zeros, indexing the surviving terms of the monomial bound."""

    q: int
    strings: tuple


def enumerate_admissible_strings(q: int) -> AdmissibleStrings:
    """Exhaustively enumerate S_{q-1} for q >= 2; |S_{q-1}| <= 2^q."""
    if q < 2:
        raise OutOfRange("q must be at least 2")
    if q > MAX_STRING_Q:
        raise TooLarge(f"q = {q} exceeds the enumeration guard {MAX_STRING_Q}")
    k = q - 1
    if k == 1:
        return AdmissibleStrings(q=q, strings=((1,),))

    out = []

    def extend(prefix):
        if len(prefix) == k:
            out.append(prefix)
            return
        choices = (1,) if len(prefix) == k - 1 else (0, 1)
        for b in choices:
            if b == 0 and prefix[-1] == 0:
                continue
            extend(prefix + (b,))

    extend((1,))
    return AdmissibleStrings(q=q, strings=tuple(out))


def bound_monomial(w, lam: float, a) -> float:
    """Right side of the monomial lemma:

        a_{w_1} ... a_{w_q} * sum over s in S_{q-1} of
        prod over i with s_i = 1 of lam^{w_{i+1} - w_i}.

    `w` is 1-based, nondecreasing, with entries indexing `a`.
    """
    w = list(w)
    if len(w) < 2:
        raise OutOfRange("w must have length at least 2")
    if any(b < c for b, c in zip(w[1:], w[:-1])):
        raise Unsorted("w must be nondecreasing")
    if lam < 0:
        raise OutOfRange("lam must be nonnegative")
    a = np.asarray(a, dtype=float)
    prefactor = float(np.prod([a[i - 1] for i in w]))
    total = 0.0
    for s in enumerate_admissible_strings(len(w)).strings:
        term = 1.0
        for i, bit in enumerate(s):
            if bit == 1:
                term *= lam ** (w[i + 1] - w[i])
        total += term
    return prefactor * total


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
