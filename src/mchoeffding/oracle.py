"""Exact oracles for S_n = sum_i f_i(Y_i): moments, MGF, monomial expectations,
and full lattice tail distributions via transfer-operator dynamic programming,
with brute-force trajectory enumeration as the oracle of oracles.

The enumeration never builds a (N^n, n) array of paths.  It broadcasts one
step at a time: the path probabilities live in an (N,)*n array whose axis i
is the state Y_{i+1}, grown by prob[..., None] * A, and per-path quantities
(lattice indices, monomial factors) are broadcast along the same axes.
Memory is O(N^n), and every path keeps its own product, so nothing is
marginalised the way the DP does.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import _admissible_sum
from .chain import FunctionFamily, MarkovChain
from .config import DEFAULT_TOL, Tolerances
from .errors import (
    DimensionMismatch,
    NotLattice,
    NotMeanZero,
    Overflow,
    TooLarge,
    Unsorted,
)
from .spectral import NormContext, opnorm

MAX_MOMENT_ORDER = 32          # keeps binomial coefficients exact in doubles
MAX_BRUTE_FORCE_PATHS = 10**7


@dataclass(frozen=True)
class MomentTable:
    """E[S_n^m] for m = 0..q."""

    q: int
    moments: np.ndarray

    def __getitem__(self, m):
        return float(self.moments[m])


@dataclass(frozen=True)
class LatticeDistribution:
    """Distribution of S_n supported on base + step * offsets.

    `step` is the exact lattice pitch (0.0 when S_n is deterministic);
    `offsets` are integers; `probabilities` sum to 1.
    """

    step: float
    base: float
    offsets: np.ndarray
    probabilities: np.ndarray

    @property
    def support(self):
        return self.base + self.step * self.offsets

    def tail(self, threshold: float) -> float:
        """Pr[|S_n| >= threshold], inclusive at lattice points (1e-12 slack)."""
        if threshold <= 0:
            return 1.0
        mask = np.abs(self.support) >= threshold - 1e-12
        return float(self.probabilities[mask].sum())

    def moment(self, m: int) -> float:
        return float(np.sum(self.probabilities * self.support**m))

    def mgf(self, theta: float) -> float:
        return float(np.sum(self.probabilities * np.exp(theta * self.support)))


def _shape_check(chain: MarkovChain, funcs: FunctionFamily):
    if funcs.values.shape[1] != chain.n_states:
        raise DimensionMismatch("function table width must match the state count")


def exact_monomial_expectation(chain: MarkovChain, funcs: FunctionFamily, w) -> float:
    """E[f_{w_1}(Y_{w_1}) ... f_{w_q}(Y_{w_q})] for nondecreasing 1-based w.

    Transfer recursion: start from pi weighted by the first function, push
    through A^{gap} between consecutive indices, reweight, and sum.
    """
    _shape_check(chain, funcs)
    w = list(w)
    if any(b < c for b, c in zip(w[1:], w[:-1])):
        raise Unsorted("w must be nondecreasing")
    if not all(1 <= i <= funcs.n_steps for i in w):
        raise Unsorted("w entries must index the function family")
    A = chain.transition
    p = chain.stationary * funcs.values[w[0] - 1]
    for prev, cur in zip(w[:-1], w[1:]):
        gap = cur - prev
        if gap:
            p = p @ np.linalg.matrix_power(A, gap)
        p = p * funcs.values[cur - 1]
    return float(p.sum())


def exact_moments(chain: MarkovChain, funcs: FunctionFamily, q: int) -> MomentTable:
    """All moments E[S_n^m], m = 0..q, by the binomial transfer recursion

        M_{k+1}(v', m) = sum_j C(m, j) f_{k+1}(v')^j (M_k(., m-j) A)(v'),

    one Pascal-weighted contraction over (m, j) per step.  Raises Overflow
    when a moment leaves the representable range.
    """
    _shape_check(chain, funcs)
    if q < 0:
        raise TooLarge("q must be nonnegative")
    if q > MAX_MOMENT_ORDER:
        raise TooLarge(f"q = {q} exceeds the cap {MAX_MOMENT_ORDER}")
    A = chain.transition
    orders = np.arange(q + 1)
    pascal = np.array([[math.comb(m, j) for j in orders] for m in orders], dtype=float)
    lag = np.maximum(orders[:, None] - orders[None, :], 0)
    with np.errstate(over="ignore", invalid="ignore"):
        # M[m, v] = E[S_k^m ; Y_k = v]
        M = np.array([chain.stationary * funcs.values[0] ** m for m in range(q + 1)])
        for f in funcs.values[1:]:
            fpow = np.vander(f, q + 1, increasing=True).T      # fpow[j] = f^j
            # terms[m, j] = C(m, j) f^j (M A)[m - j]; C(m, j) = 0 zeroes j > m.
            # cumsum adds j = 0..m in order, like a sum started from +0.0,
            # which the trailing + 0.0 matches in the sign of a zero total.
            terms = pascal[:, :, None] * fpow * (M @ A)[lag]
            M = np.cumsum(terms, axis=1)[:, -1] + 0.0
    if not np.all(np.isfinite(M)):
        raise Overflow("moment recursion left the representable range")
    return MomentTable(q=q, moments=M.sum(axis=1))


def exact_mgf(chain: MarkovChain, funcs: FunctionFamily, theta: float) -> float:
    """E[exp(theta S_n)] by the weighted transfer recursion."""
    _shape_check(chain, funcs)
    A = chain.transition
    with np.errstate(over="ignore", invalid="ignore"):
        p = chain.stationary * np.exp(theta * funcs.values[0])
        for k in range(1, funcs.n_steps):
            p = (p @ A) * np.exp(theta * funcs.values[k])
            if not np.all(np.isfinite(p)):
                raise Overflow("MGF recursion left the representable range")
    total = float(p.sum())
    if not math.isfinite(total):
        raise Overflow("MGF recursion left the representable range")
    return total


def _lattice_decomposition(funcs: FunctionFamily, tol: Tolerances):
    """Write f_i(v) = f_i(0) + pitch * k_{i,v} with integer k.

    Only the within-function differences need to be rational: per-step offsets
    shift S_n by a constant.  Returns (pitch: Fraction or None, base, k-matrix).
    """
    V = funcs.values
    base = float(V[:, 0].sum())
    diffs = V - V[:, :1]
    # one rational approximation per distinct difference, in order of first appearance
    uniq, first, inverse = np.unique(diffs.ravel(), return_index=True, return_inverse=True)
    fracs = [None] * uniq.size
    for u in np.argsort(first, kind="stable"):
        d = float(uniq[u])
        fr = Fraction(d).limit_denominator(tol.lattice_max_denominator)
        if abs(float(fr) - d) > tol.lattice_residual:
            raise NotLattice(f"value difference {d!r} has no small rational form")
        fracs[u] = fr
    nonzero = [f for f in fracs if f != 0]
    if not nonzero:
        return None, base, np.zeros_like(diffs, dtype=np.int64)
    den_lcm = math.lcm(*(f.denominator for f in nonzero))
    ints = [f.numerator * (den_lcm // f.denominator) for f in fracs]
    g = math.gcd(*ints)
    pitch = Fraction(g, den_lcm)
    K = (np.array(ints, dtype=np.int64) // g)[inverse].reshape(diffs.shape)
    return pitch, base, K


def lattice_distribution(chain: MarkovChain, funcs: FunctionFamily,
                         tol: Tolerances = DEFAULT_TOL) -> LatticeDistribution:
    """Exact distribution of S_n by DP over (state, accumulated lattice index)."""
    _shape_check(chain, funcs)
    pitch, base, K = _lattice_decomposition(funcs, tol)
    N = chain.n_states
    if pitch is None:
        return LatticeDistribution(step=0.0, base=base,
                                   offsets=np.array([0]), probabilities=np.array([1.0]))
    A = chain.transition
    n = funcs.n_steps
    lo = int(np.minimum(K, 0).min(axis=1).sum())
    hi = int(np.maximum(K, 0).max(axis=1).sum())
    width = hi - lo + 1
    if width * N > 4 * 10**7:
        raise TooLarge(f"lattice support of {width} points is too wide for the exact DP")
    # D[v, idx]: Pr[Y_k = v, sum index = idx + lo]
    D = np.zeros((N, width))
    for v in range(N):
        D[v, K[0, v] - lo] += chain.stationary[v]
    for i in range(1, n):
        T = A.T @ D
        D = np.zeros_like(T)
        for v in range(N):
            s = int(K[i, v])
            if s >= 0:
                D[v, s:] = T[v, :width - s] if s else T[v]
            else:
                D[v, :s] = T[v, -s:]
    probs = D.sum(axis=0)
    keep = probs > 0
    offsets = np.arange(lo, hi + 1)[keep]
    return LatticeDistribution(step=float(pitch), base=base,
                               offsets=offsets, probabilities=probs[keep])


def exact_tail(chain: MarkovChain, funcs: FunctionFamily, threshold: float,
               tol: Tolerances = DEFAULT_TOL) -> float:
    """Pr[|S_n| >= threshold], exact, for lattice-valued function families."""
    return lattice_distribution(chain, funcs, tol).tail(threshold)


def _path_probabilities(chain: MarkovChain, n: int) -> np.ndarray:
    """Pr[Y_1 = v_1, ..., Y_n = v_n] as an (N,)*n array, one step at a time.

    Each entry is pi(v_1) A(v_1, v_2) ... A(v_{n-1}, v_n), multiplied left to
    right; C order lists the paths lexicographically, last step fastest."""
    N = chain.n_states
    if N**n > MAX_BRUTE_FORCE_PATHS:
        raise TooLarge(f"{N}^{n} trajectories exceed the enumeration guard")
    prob = chain.stationary.copy()
    for _ in range(1, n):
        prob = prob[..., None] * chain.transition
    return prob


def brute_force_distribution(chain: MarkovChain, funcs: FunctionFamily,
                             tol: Tolerances = DEFAULT_TOL) -> LatticeDistribution:
    """Enumerate all N^n trajectories; the independent ground truth for every
    transfer-DP oracle.  Shares only the lattice representation of the f
    values, never the DP recursion."""
    _shape_check(chain, funcs)
    pitch, base, K = _lattice_decomposition(funcs, tol)
    probs = _path_probabilities(chain, funcs.n_steps)
    if pitch is None:
        return LatticeDistribution(step=0.0, base=base,
                                   offsets=np.array([0]), probabilities=np.array([1.0]))
    idx = K[0]
    for k in K[1:]:
        idx = idx[..., None] + k
    idx = idx.ravel()
    lo = int(idx.min())
    agg = np.bincount(idx - lo, weights=probs.ravel())
    keep = agg > 0
    return LatticeDistribution(step=float(pitch), base=base,
                               offsets=np.arange(lo, lo + len(agg))[keep],
                               probabilities=agg[keep])


def brute_force_monomial(chain: MarkovChain, funcs: FunctionFamily, w) -> float:
    """E[prod_i f_{w_i}(Y_{w_i})] by trajectory enumeration up to max(w) steps."""
    w = list(w)
    n = max(w)
    probs = _path_probabilities(chain, n)
    vals = np.ones(1)
    for i in w:
        # f_i(Y_i) varies along axis i - 1 only
        vals = vals * funcs.values[i - 1].reshape((-1,) + (1,) * (n - i))
    return float(np.sum((probs * vals).ravel()))


def verify_holder_application(pi, u_vectors, T_matrices,
                              tol: Tolerances = DEFAULT_TOL):
    """Both sides of the chained-Hoelder inequality

        |<1, U_1 (T_1 + E) U_2 ... U_k (T_k + E) U_{k+1} 1>_{L2(pi)}|
          <= prod_i ||u_i||_inf * sum over admissible s of
             prod over {j : s_j = 1} of ||T_j||_{L2(pi)}.

    Requires each u_i mean-zero under pi.  Returns (lhs, rhs).
    """
    pi = np.asarray(pi, dtype=float)
    us = [np.asarray(u, dtype=float) for u in u_vectors]
    Ts = [np.asarray(T, dtype=float) for T in T_matrices]
    k = len(Ts)
    if k < 1 or len(us) != k + 1:
        raise DimensionMismatch("need k >= 1 matrices and k+1 vectors")
    for u in us:
        if abs(float(pi @ u)) > tol.mean_zero:
            raise NotMeanZero("every u_i must satisfy pi . u_i = 0")
    E = np.tile(pi, (pi.size, 1))
    v = us[-1].copy()
    for j in range(k - 1, -1, -1):
        v = (Ts[j] + E) @ v
        v = us[j] * v
    lhs = abs(float(pi @ v))
    ctx = NormContext(pi)
    u_sup = math.prod(float(np.abs(u).max()) for u in us)
    return lhs, u_sup * _admissible_sum([opnorm(T, ctx, 2) for T in Ts])


def evaluate_projector_chain_claim(pi, R_matrices):
    """Both sides of: |<1, R_1 E R_2 E ... E R_k 1>_{L2(pi)}| <= prod ||R_i 1||_{L1(pi)}.

    The inner product also factors exactly into prod <1, R_i 1>_{L2(pi)};
    the factored value is returned for the equality check."""
    pi = np.asarray(pi, dtype=float)
    Rs = [np.asarray(R, dtype=float) for R in R_matrices]
    E = np.tile(pi, (pi.size, 1))
    v = Rs[-1] @ np.ones(pi.size)
    for R in reversed(Rs[:-1]):
        v = R @ (E @ v)
    lhs = float(pi @ v)
    factored = math.prod(float(pi @ (R @ np.ones(pi.size))) for R in Rs)
    rhs = math.prod(float(np.sum(pi * np.abs(R @ np.ones(pi.size)))) for R in Rs)
    return lhs, factored, rhs


def evaluate_diagonal_chain_claim(pi, u_vectors, T_matrices):
    """Both sides of: ||U_1 T_1 U_2 ... T_{k-1} U_k 1||_{L1(pi)}
    <= prod ||u_i||_inf * prod ||T_i||_{L2(pi)}."""
    pi = np.asarray(pi, dtype=float)
    us = [np.asarray(u, dtype=float) for u in u_vectors]
    Ts = [np.asarray(T, dtype=float) for T in T_matrices]
    if len(us) != len(Ts) + 1:
        raise DimensionMismatch("need k vectors and k-1 matrices")
    v = us[-1] * np.ones(pi.size)
    for u, T in zip(reversed(us[:-1]), reversed(Ts)):
        v = u * (T @ v)
    lhs = float(np.sum(pi * np.abs(v)))
    ctx = NormContext(pi)
    rhs = math.prod(float(np.abs(u).max()) for u in us)
    rhs *= math.prod(opnorm(T, ctx, 2) for T in Ts)
    return lhs, rhs
