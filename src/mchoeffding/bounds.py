"""Closed-form tail, moment, and monomial bounds, plus related-work comparators.

Conventions: the closed-form tail bounds take a scalar or an array u and
return a Python float or an array of the same shape; a bound that overflows
(lam > 1, or the MGF bound at large u) is a silent, vacuous +inf.  Raw bound
values are returned unclamped (they can exceed 1);
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


def _check_u(u, lam) -> np.ndarray:
    """u as a float array, once u and lam are checked finite and u >= 0."""
    u = np.asarray(u, dtype=float)
    if not (np.all(np.isfinite(u)) and math.isfinite(lam)):
        raise OutOfRange(f"u and lam must be finite, got u={u}, lam={lam}")
    if np.any(u < 0):
        raise NegativeU(f"u must be nonnegative, got {u.min()}")
    return u


def _value(x):
    """A Python float for a scalar argument, else the array itself."""
    return float(x) if np.ndim(x) == 0 else x


def bound_iid_hoeffding(u):
    """Classical independent-case tail bound 2 exp(-u^2 / 2): the FJS bound at
    lam = 0, bit for bit."""
    return bound_fjs(u, 0.0)


@np.errstate(over="ignore")
def bound_healy(u, lam: float):
    """2 exp(-u^2 (1-lam) / 4); vacuous (>= 2) once lam >= 1."""
    u = _check_u(u, lam)
    return _value(2.0 * np.exp(-(u * u) * (1.0 - lam) / 4.0))


@np.errstate(over="ignore")
def bound_rao(u, lam: float):
    """2 exp(-u^2 (1-lam) / (64 e)), the a-weighted Markov-chain Hoeffding bound."""
    u = _check_u(u, lam)
    return _value(2.0 * np.exp(-(u * u) * (1.0 - lam) / RAO_DENOMINATOR))


@np.errstate(over="ignore")
def bound_mgf(u, lam: float):
    """Intermediate MGF-level bound 2 exp(u^2 (1-lam) / 64) at the tuned theta."""
    u = _check_u(u, lam)
    return _value(2.0 * np.exp((u * u) * (1.0 - lam) / 64.0))


@np.errstate(over="ignore")
def bound_fjs(u, lam: float):
    """Sharper comparator: 2 exp(-u^2 (1-lam) / (2 (1+lam)))."""
    u = _check_u(u, lam)
    if lam < 0:
        raise OutOfRange("lam must be nonnegative")
    return _value(2.0 * np.exp(-(u * u) * (1.0 - lam) / (2.0 * (1.0 + lam))))


@np.errstate(over="ignore")
def bound_glss(u, lam: float, d: int, c: float = 1.0):
    """Matrix-valued comparator 2 d exp(-c (1-lam) u^2)."""
    u = _check_u(u, lam)
    if c <= 0:
        raise OutOfRange("c must be positive")
    return _value(2.0 * d * np.exp(-c * (1.0 - lam) * u * u))


def is_vacuous(value):
    """True where a bound value says nothing: at least 1, or NaN.  Works
    elementwise on arrays."""
    return ~(np.asarray(value, dtype=float) < 1.0)


def tail_mass(values, thresholds, weights):
    """Per threshold t, the total weight of the values >= t - 1e-12, summed from the largest
    value down.  NaN values sort last and should weigh 0; a NaN threshold gets 0."""
    order = np.argsort(values)
    suffix = np.append(np.cumsum(weights[order][::-1])[::-1], 0.0)
    return suffix[np.searchsorted(values[order], thresholds - 1e-12)]


def _admissible_sum(x) -> float:
    """Sum over the admissible strings s of length len(x) (endpoints 1, no
    two consecutive zeros) of prod over {j : s_j = 1} of x_j.

    A two-state recurrence on the last bit: end1 and end0 sum the products
    of the admissible prefixes ending in 1 and in 0.  O(len(x)) time."""
    end1, end0 = x[0], 0.0
    for xj in x[1:]:
        end1, end0 = (end1 + end0) * xj, end1
    return end1


def _check_w(w, n: int) -> list:
    """The monomial index vector w as a list, once checked non-empty, integer,
    nondecreasing and within 1..n."""
    w = list(w)
    if not w:
        raise OutOfRange("w must be non-empty")
    if not all(isinstance(i, numbers.Integral) for i in w):
        raise OutOfRange(f"w entries must be integers, got {w}")
    if any(b < c for b, c in zip(w[1:], w[:-1])):
        raise Unsorted("w must be nondecreasing")
    if not 1 <= w[0] <= w[-1] <= n:
        raise OutOfRange(f"w entries must lie in 1..{n}, got {w[0]}..{w[-1]}")
    return w


def bound_monomial(w, lam: float, a) -> float:
    """Right side of the monomial lemma:

        a_{w_1} ... a_{w_q} * sum over s in S_{q-1} of
        prod over i with s_i = 1 of lam^{w_{i+1} - w_i},

    where S_{q-1} holds the bit strings of length q-1 with endpoints 1 and no
    two consecutive zeros.  `w` is 1-based, nondecreasing, with entries in
    1..len(a), and has at least two entries.
    """
    a = np.asarray(a, dtype=float)
    w = _check_w(w, a.size)
    if len(w) < 2:
        raise OutOfRange("w must have length at least 2")
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


def evaluate_tail_bounds(u_grid, lam: float) -> dict:
    """The iid, Healy, Rao and FJS tail bounds on a u-grid, one array call
    each, in that column order; used by reports and the CLI."""
    return {"iid": bound_iid_hoeffding(u_grid), "healy": bound_healy(u_grid, lam),
            "rao": bound_rao(u_grid, lam), "fjs": bound_fjs(u_grid, lam)}


def tail_rows(leading: dict, bounds: dict, names) -> list:
    """Header plus one row per grid point: the `leading` columns, the `bounds`
    columns in the order of `names`, and the ';'-joined names of the bounds
    that are vacuous there."""
    names = list(names)
    cols = [np.asarray(c, dtype=float).tolist()
            for c in [*leading.values(), *(bounds[n] for n in names)]]
    # bit k of code[i] says whether bound names[k] is vacuous at row i
    code = sum((is_vacuous(bounds[n]).astype(np.int64) << k for k, n in enumerate(names)),
               np.zeros(len(cols[0]), dtype=np.int64))
    flags = [";".join(n for k, n in enumerate(names) if c >> k & 1) for c in range(1 << len(names))]
    cols.append([flags[c] for c in code.tolist()])
    return [list(leading) + names + ["vacuous_flags"], *zip(*cols)]
