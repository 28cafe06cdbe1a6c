"""Pi-weighted operator norms and the contraction parameter of a chain.

The L2(pi) operator norm of T equals the largest singular value of
D^{1/2} T D^{-1/2} with D = diag(pi): conjugating by D^{1/2} turns the
weighted norm into the Euclidean one, whose singular values come from
numpy's LAPACK SVD.
"""

from dataclasses import dataclass

import numpy as np

from .chain import MarkovChain, averaging_operator
from .errors import DimensionMismatch, OutOfRange


@dataclass(frozen=True)
class NormContext:
    """Weighting vector for the L_p(pi) norm family."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 1 or not np.all(pi > 0) or not abs(pi.sum() - 1.0) <= 1e-9:
            raise OutOfRange("pi must be a strictly positive probability vector")
        object.__setattr__(self, "pi", pi)


def opnorm(T, ctx: NormContext, p) -> float:
    """Operator norm of T on L_p(pi) for p in {1, 2, inf}.

    p = inf: max row sum of |T| (the weighting cancels since pi > 0).
    p = 1:   max over columns j of (1/pi_j) sum_i pi_i |T_ij|.
    p = 2:   largest singular value of D^{1/2} T D^{-1/2}.
    """
    T = np.asarray(T, dtype=float)
    pi = ctx.pi
    if T.shape != (pi.size, pi.size):
        raise DimensionMismatch(f"matrix shape {T.shape} does not match pi of length {pi.size}")
    if p == np.inf:
        return float(np.abs(T).sum(axis=1).max())
    if p == 1:
        return float(((pi[:, None] * np.abs(T)).sum(axis=0) / pi).max())
    if p == 2:
        return float(l2_opnorms(T, ctx))
    raise OutOfRange("p must be one of 1, 2, inf")


def l2_opnorms(T, ctx: NormContext) -> np.ndarray:
    """L2(pi) operator norm of each matrix in a (..., N, N) stack, from one
    batched SVD of D^{1/2} T D^{-1/2}."""
    d = np.sqrt(ctx.pi)
    conj = (d[:, None] * T) / d[None, :]
    return np.linalg.svd(conj, compute_uv=False)[..., 0].copy()


def contraction(chain: MarkovChain) -> float:
    """lambda = ||A - E_pi|| on L2(pi).

    May exceed 1 for non-reversible chains; the value is returned as-is and
    callers mark dependent bounds vacuous.
    """
    E = averaging_operator(chain)
    return opnorm(chain.transition - E, NormContext(chain.stationary), 2)


def power_deviation(chain: MarkovChain, k: int) -> np.ndarray:
    """A^k - E_pi, which equals (A - E_pi)^k."""
    if k < 1:
        raise OutOfRange("k must be a positive integer")
    Ak = np.linalg.matrix_power(chain.transition, k)
    return Ak - averaging_operator(chain)
