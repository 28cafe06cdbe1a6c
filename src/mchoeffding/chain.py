"""Finite-state stationary Markov chains and the function families fed to them."""

import json
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    DegenerateStationary,
    DimensionMismatch,
    NonConvergence,
    NonStochastic,
    NotMeanZero,
    NotStationary,
    OutOfRange,
    ValidationError,
)


@dataclass(frozen=True)
class MarkovChain:
    """Row-stochastic transition matrix paired with its stationary distribution.

    Construct through :func:`validate_chain`; instances are immutable and safe
    to share across threads.
    """

    transition: np.ndarray
    stationary: np.ndarray

    @property
    def n_states(self):
        return self.transition.shape[0]


@dataclass(frozen=True)
class FunctionFamily:
    """Per-step functions f_i on states with uniform bounds |f_i| <= a_i.

    values[i, v] = f_i(v); bounds[i] = a_i.  Mean-zero under the chain's
    stationary distribution is validated at construction.
    """

    values: np.ndarray
    bounds: np.ndarray

    @property
    def n_steps(self):
        return self.values.shape[0]

    @property
    def a_l2(self):
        """Euclidean norm of the bound vector, the natural deviation scale."""
        return float(np.sqrt(np.sum(self.bounds**2)))


def _freeze(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _stationary_by_power_iteration(A, tol: Tolerances):
    n = A.shape[0]
    p = np.full(n, 1.0 / n)
    for _ in range(tol.power_iter_cap):
        q = p @ A
        if np.abs(q - p).sum() < tol.power_residual:
            return q / q.sum()
        p = q
    raise NonConvergence("power iteration did not reach the residual threshold")


def validate_chain(transition, stationary=None, tol: Tolerances = DEFAULT_TOL) -> MarkovChain:
    """Validate a transition matrix (and optional stationary vector) into a MarkovChain.

    When `stationary` is omitted it is computed by power iteration; chains
    whose stationary distribution has an entry <= tol.degenerate_pi are
    rejected rather than pruned.
    """
    A = np.array(transition, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got shape {A.shape}")
    if not np.all((A >= 0) & (A <= 1)):
        raise NonStochastic("transition entries must lie in [0, 1]")
    row_err = np.abs(A.sum(axis=1) - 1.0)
    if np.any(row_err > tol.row_sum):
        raise NonStochastic(f"row sums off by up to {row_err.max():.3g}")

    if stationary is None:
        pi = _stationary_by_power_iteration(A, tol)
        if np.any(pi <= tol.degenerate_pi):
            raise DegenerateStationary(f"computed stationary entry as small as {pi.min():.3g}")
    else:
        pi = np.array(stationary, dtype=float)
        if pi.shape != (A.shape[0],):
            raise DimensionMismatch("stationary vector length must match the state count")
        if not np.all(pi > tol.degenerate_pi):
            raise DegenerateStationary("stationary entries must be strictly positive")
        if abs(pi.sum() - 1.0) > tol.row_sum:
            raise NotStationary(f"stationary vector sums to {pi.sum():.12g}")
        if np.abs(pi @ A - pi).max() > tol.stationarity:
            raise NotStationary("supplied vector is not fixed by the transition matrix")
    return MarkovChain(transition=_freeze(A), stationary=_freeze(pi))


def two_state_chain(lam: float, tol: Tolerances = DEFAULT_TOL) -> MarkovChain:
    """The symmetric two-state chain [[ (1+l)/2, (1-l)/2 ], [ (1-l)/2, (1+l)/2 ]].

    Its contraction parameter is exactly `lam`; the uniform distribution is
    stationary.  Requires 0 <= lam < 1.
    """
    if not 0.0 <= lam < 1.0:
        raise OutOfRange(f"lam must lie in [0, 1), got {lam}")
    p, q = (1.0 + lam) / 2.0, (1.0 - lam) / 2.0
    return validate_chain([[p, q], [q, p]], [0.5, 0.5], tol)


def sign_family(n: int) -> FunctionFamily:
    """f_i(state 0) = +1, f_i(state 1) = -1 for all i: the two-state tightness family."""
    if n < 1:
        raise OutOfRange("need at least one step")
    values = np.tile([1.0, -1.0], (n, 1))
    return FunctionFamily(values=_freeze(values), bounds=_freeze(np.ones(n)))


def make_family(values, bounds=None, chain: MarkovChain | None = None,
                tol: Tolerances = DEFAULT_TOL) -> FunctionFamily:
    """Build a FunctionFamily, defaulting bounds to max |f_i| and validating
    the mean-zero property against `chain` when supplied."""
    V = np.array(values, dtype=float)
    if V.ndim != 2:
        raise DimensionMismatch("values must be an n x N matrix")
    if bounds is None:
        a = np.abs(V).max(axis=1)
    else:
        a = np.array(bounds, dtype=float)
        if a.shape != (V.shape[0],):
            raise DimensionMismatch("bounds length must match the step count")
        if np.any(a < 0):
            raise OutOfRange("bounds must be nonnegative")
        if np.any(np.abs(V) > a[:, None] + 1e-12):
            raise OutOfRange("|f_i(v)| exceeds its bound a_i")
    fam = FunctionFamily(values=_freeze(V), bounds=_freeze(a))
    if chain is not None:
        check_mean_zero(fam, chain, tol)
    return fam


def check_mean_zero(funcs: FunctionFamily, chain: MarkovChain, tol: Tolerances = DEFAULT_TOL):
    if funcs.values.shape[1] != chain.n_states:
        raise DimensionMismatch("function table width must match the state count")
    means = funcs.values @ chain.stationary
    if np.abs(means).max() > tol.mean_zero:
        raise NotMeanZero(f"stationary means as large as {np.abs(means).max():.3g}")


def averaging_operator(chain: MarkovChain) -> np.ndarray:
    """Rank-one projector E with E_{ij} = pi_j; every row equals pi."""
    return _freeze(np.tile(chain.stationary, (chain.n_states, 1)))


def chain_to_dict(chain: MarkovChain, funcs: FunctionFamily | None = None) -> dict:
    out = {"transition": chain.transition.tolist(), "stationary": chain.stationary.tolist()}
    if funcs is not None:
        out["functions"] = {"values": funcs.values.tolist(), "bounds": funcs.bounds.tolist()}
    return out


def chain_from_dict(data: dict, tol: Tolerances = DEFAULT_TOL):
    """Parse the JSON chain schema; returns (MarkovChain, FunctionFamily or None)."""
    if "transition" not in data:
        raise ValidationError("missing 'transition' field")
    chain = validate_chain(data["transition"], data.get("stationary"), tol)
    funcs = None
    if "functions" in data:
        f = data["functions"]
        funcs = make_family(f["values"], f.get("bounds"), chain=chain, tol=tol)
    return chain, funcs


def load_chain(path, tol: Tolerances = DEFAULT_TOL):
    with open(path) as fh:
        return chain_from_dict(json.load(fh), tol)
