"""Pi-weighted operator norms, the contraction parameter of a chain and the
norms of its deviation powers.

The L2(pi) operator norm of T equals the largest singular value of
D^{1/2} T D^{-1/2} with D = diag(pi): conjugating by D^{1/2} turns the
weighted norm into the Euclidean one, whose singular values come from
numpy's LAPACK SVD.  `matrix_powers` carries every power sequence, and
`deviation_norms` takes ||A^k - E_pi|| as the norm of the carried (A - E_pi)^k,
which keeps its relative precision where A^k - E_pi is roundoff.
"""

from dataclasses import dataclass
from itertools import accumulate, islice, repeat

import numpy as np

from .chain import MarkovChain, averaging_operator
from .config import DEFAULT_TOL
from .errors import DimensionMismatch, OutOfRange

# Matrix entries in one batched SVD of deviation_norms: bounds its memory at any K.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True, eq=False)
class NormContext:
    """Weighting vector for the L_p(pi) norm family."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 1 or not np.all(pi > 0) or not abs(pi.sum() - 1.0) <= DEFAULT_TOL.row_sum:
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


def spectral_norms(X: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., m, n) stack, from one
    batched SVD, copied out so the full singular-value stack can be freed."""
    return np.linalg.svd(X, compute_uv=False)[..., 0].copy()


def l2_opnorms(T, ctx: NormContext) -> np.ndarray:
    """L2(pi) operator norm of each matrix in a (..., N, N) stack, from one
    batched SVD of D^{1/2} T D^{-1/2}."""
    d = np.sqrt(ctx.pi)
    return spectral_norms((d[:, None] * T) / d[None, :])


def contraction(chain: MarkovChain) -> float:
    """lambda = ||A - E_pi|| on L2(pi).

    May exceed 1 for non-reversible chains; the value is returned as-is and
    callers mark dependent bounds vacuous.
    """
    return float(deviation_norms(chain, 1)[0])


def matrix_powers(M: np.ndarray, K: int):
    """Yield M, M^2, ..., M^K, each carried as M^{k-1} @ M."""
    return accumulate(repeat(M, K - 1), np.matmul, initial=M)


def deviation_norms(chain: MarkovChain, K: int) -> np.ndarray:
    """||A^k - E_pi|| on L2(pi) for k = 1..K, as the norms of (A - E_pi)^k.

    The powers are carried by `matrix_powers`, keeping their relative precision
    as they decay, and normed one block of at most _BLOCK_ENTRIES matrix entries
    per batched SVD, so memory stays bounded at any K.
    """
    if K < 1:
        raise OutOfRange("K must be a positive integer")
    ctx = NormContext(chain.stationary)
    devs = matrix_powers(chain.transition - averaging_operator(chain), K)
    per_block = max(1, _BLOCK_ENTRIES // chain.n_states**2)
    return np.concatenate([l2_opnorms(np.stack(list(islice(devs, per_block))), ctx)
                           for _ in range(0, K, per_block)])
