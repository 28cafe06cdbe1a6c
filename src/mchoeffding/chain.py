"""Finite-state stationary Markov chains and the function families fed to them."""

import json
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    DegenerateStationary,
    DimensionMismatch,
    NonStochastic,
    NotMeanZero,
    NotStationary,
    OutOfRange,
    ValidationError,
)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def _floats(x, name):
    """x as a float array; ragged or non-numeric input raises ValidationError."""
    try:
        return np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a numeric array: {exc}") from exc


def _solve_stationary(A):
    """The unique pi with pi A = pi and sum(pi) = 1, from a least-squares
    solve of the augmented system [A^T - I; 1^T] pi = e_{N+1}.

    The system has full column rank exactly when pi is unique; a lower rank
    means the chain has more than one closed class."""
    n = A.shape[0]
    M = np.vstack([A.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
    if rank < n:
        raise DegenerateStationary(
            "the stationary distribution is not unique (the chain is reducible); "
            "supply 'stationary'")
    return pi


def validate_chain(transition, stationary=None) -> MarkovChain:
    """Validate a transition matrix (and optional stationary vector) into a MarkovChain.

    When `stationary` is omitted it is solved for directly; a chain whose
    stationary distribution is not unique (a reducible chain) must supply it.
    Solved and supplied vectors pass the same checks: length N, every entry
    above DEFAULT_TOL.degenerate_pi (chains with transient states are rejected
    rather than pruned), sum 1 within DEFAULT_TOL.row_sum, and |pi A - pi| within
    DEFAULT_TOL.stationarity.
    """
    A = _floats(transition, "transition")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got shape {A.shape}")
    if not np.all((A >= 0) & (A <= 1)):
        raise NonStochastic("transition entries must lie in [0, 1]")
    row_err = np.abs(A.sum(axis=1) - 1.0)
    if np.any(row_err > DEFAULT_TOL.row_sum):
        raise NonStochastic(f"row sums off by up to {row_err.max():.3g}")

    pi = _solve_stationary(A) if stationary is None else _floats(stationary, "stationary")
    if pi.shape != (A.shape[0],):
        raise DimensionMismatch("stationary vector length must match the state count")
    if not np.all(pi > DEFAULT_TOL.degenerate_pi):
        raise DegenerateStationary(
            f"stationary entries must be strictly positive, got one as small as {pi.min():.3g}")
    if abs(pi.sum() - 1.0) > DEFAULT_TOL.row_sum:
        raise NotStationary(f"stationary vector sums to {pi.sum():.12g}")
    if np.abs(pi @ A - pi).max() > DEFAULT_TOL.stationarity:
        raise NotStationary("stationary vector is not fixed by the transition matrix")
    A.flags.writeable = pi.flags.writeable = False
    return MarkovChain(transition=A, stationary=pi)


def two_state_chain(lam: float) -> MarkovChain:
    """The symmetric two-state chain [[ (1+l)/2, (1-l)/2 ], [ (1-l)/2, (1+l)/2 ]].

    Its contraction parameter is exactly `lam`; the uniform distribution is
    stationary.  Requires 0 <= lam < 1.
    """
    if not 0.0 <= lam < 1.0:
        raise OutOfRange(f"lam must lie in [0, 1), got {lam}")
    p, q = (1.0 + lam) / 2.0, (1.0 - lam) / 2.0
    return validate_chain([[p, q], [q, p]], [0.5, 0.5])


def sign_family(n: int) -> FunctionFamily:
    """f_i(state 0) = +1, f_i(state 1) = -1 for all i: the two-state tightness family."""
    if n < 1:
        raise OutOfRange("need at least one step")
    values, bounds = np.tile([1.0, -1.0], (n, 1)), np.ones(n)
    values.flags.writeable = bounds.flags.writeable = False
    return FunctionFamily(values=values, bounds=bounds)


def make_family(values, bounds=None, chain: MarkovChain | None = None) -> FunctionFamily:
    """Build a FunctionFamily, defaulting bounds to max |f_i| and validating
    the mean-zero property against `chain` when supplied."""
    V = _floats(values, "function values")
    if V.ndim != 2:
        raise DimensionMismatch("values must be an n x N matrix")
    if not np.all(np.isfinite(V)):
        raise OutOfRange("function values must be finite")
    if bounds is None:
        a = np.abs(V).max(axis=1)
    else:
        a = _floats(bounds, "function bounds")
        if a.shape != (V.shape[0],):
            raise DimensionMismatch("bounds length must match the step count")
        if not np.all(np.isfinite(a) & (a >= 0)):
            raise OutOfRange("bounds must be finite and nonnegative")
        if np.any(np.abs(V) > a[:, None] + 1e-12):
            raise OutOfRange("|f_i(v)| exceeds its bound a_i")
    V.flags.writeable = a.flags.writeable = False
    fam = FunctionFamily(values=V, bounds=a)
    if chain is not None:
        check_width(fam, chain)
        largest = np.abs(fam.values @ chain.stationary).max()
        if largest > DEFAULT_TOL.mean_zero:
            raise NotMeanZero(f"stationary means as large as {largest:.3g}")
    return fam


def check_width(funcs: FunctionFamily, chain: MarkovChain):
    """Raise DimensionMismatch unless the function table has one column per state."""
    if funcs.values.shape[1] != chain.n_states:
        raise DimensionMismatch("function table width must match the state count")


def averaging_operator(chain: MarkovChain) -> np.ndarray:
    """Rank-one projector E with E_{ij} = pi_j; every row equals pi."""
    E = np.tile(chain.stationary, (chain.n_states, 1))
    E.flags.writeable = False
    return E


def chain_to_dict(chain: MarkovChain, funcs: FunctionFamily | None = None) -> dict:
    out = {"transition": chain.transition.tolist(), "stationary": chain.stationary.tolist()}
    if funcs is not None:
        out["functions"] = {"values": funcs.values.tolist(), "bounds": funcs.bounds.tolist()}
    return out


def chain_from_dict(data: dict):
    """Parse the JSON chain schema; returns (MarkovChain, FunctionFamily or None)."""
    if not isinstance(data, dict) or "transition" not in data:
        raise ValidationError("a chain must be a JSON object with a 'transition' field")
    chain = validate_chain(data["transition"], data.get("stationary"))
    funcs = None
    if "functions" in data:
        f = data["functions"]
        if not isinstance(f, dict) or "values" not in f:
            raise ValidationError("'functions' must be an object with a 'values' field")
        funcs = make_family(f["values"], f.get("bounds"), chain=chain)
    return chain, funcs


def read_json(path):
    """Parse a JSON file; a missing or unreadable file or malformed JSON raises
    ValidationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from exc


def load_chain(path):
    return chain_from_dict(read_json(path))
