"""Exact oracles for S_n = sum_i f_i(Y_i): moments, MGF, monomial expectations,
and full lattice tail distributions via transfer-operator dynamic programming,
with brute-force trajectory enumeration as the oracle of oracles.  A distribution
answers a whole threshold grid with one `bounds.tail_mass` query (one sort).
The lattice decomposition alone re-bases each step's indices to start at 0, and
the DP carries only the live window of indices that the steps so far can reach.

The enumeration never builds a (N^n, n) array of paths.  It grows the path
probabilities one step at a time in lexicographic order, each path's product
taken left to right, so nothing is marginalised the way the DP does; rows of
paths keep numpy's loops long (`_path_probabilities`).  The distribution joins
integer lattice indices from two halves of the steps and bins the
probabilities with one np.bincount: two N^n arrays at its peak, as the
monomial's probabilities and factor table are.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import _admissible_sum, _check_w, _value, tail_mass
from .chain import FunctionFamily, MarkovChain, check_width
from .config import DEFAULT_TOL
from .errors import (
    DimensionMismatch,
    NotLattice,
    NotMeanZero,
    Overflow,
    TooLarge,
)
from .spectral import NormContext, opnorm

MAX_MOMENT_ORDER = 32          # keeps binomial coefficients exact in doubles
MAX_BRUTE_FORCE_PATHS = 10**7
MAX_LATTICE_POINTS = 4 * 10**7  # (state, index) cells of the lattice DP; index span of both
# Entries in a row of enumerated paths: the largest power of N up to this, N^2 at least.
_BLOCK_ENTRIES = 2**10


@dataclass(frozen=True, eq=False)
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

    def tail(self, threshold):
        """Pr[|S_n| >= threshold], a float or an array (`tail_mass`); 1.0 where threshold <= 0."""
        t = np.asarray(threshold, dtype=float)
        return _value(np.where(t <= 0, 1.0, tail_mass(abs(self.support), t, self.probabilities)))

    def moment(self, m: int) -> float:
        return float(np.sum(self.probabilities * self.support**m))

    def mgf(self, theta: float) -> float:
        return float(np.sum(self.probabilities * np.exp(theta * self.support)))


def exact_monomial_expectation(chain: MarkovChain, funcs: FunctionFamily, w) -> float:
    """E[f_{w_1}(Y_{w_1}) ... f_{w_q}(Y_{w_q})] for nondecreasing 1-based w.

    Transfer recursion: start from pi weighted by the first function, push
    through A^{gap} between consecutive indices, reweight, and sum.
    """
    check_width(funcs, chain)
    w = _check_w(w, funcs.n_steps)
    A = chain.transition
    p = chain.stationary * funcs.values[w[0] - 1]
    for prev, cur in zip(w[:-1], w[1:]):
        gap = cur - prev
        if gap:
            p = p @ np.linalg.matrix_power(A, gap)
        p = p * funcs.values[cur - 1]
    return float(p.sum())


def exact_moments(chain: MarkovChain, funcs: FunctionFamily, q: int) -> np.ndarray:
    """All moments E[S_n^m], m = 0..q, as a read-only (q+1,) array, by the binomial
    transfer recursion

        M_{k+1}(v', m) = sum_j C(m, j) f_{k+1}(v')^j (M_k(., m-j) A)(v'),

    one Pascal-weighted contraction over (m, j) per step.  Raises Overflow
    when a moment leaves the representable range.

    Precision: the binomial terms cancel, so E[S_n^m] is accurate to about
    4e-15 relative to (sum_i a_i)^m only: on the 1-state chain with f = 3, -3,
    3, -3, 3, -4 (S_n = -1) E[S_n^24] comes out as 2048, not 1.
    """
    check_width(funcs, chain)
    if q < 0:
        raise TooLarge("q must be nonnegative")
    if q > MAX_MOMENT_ORDER:
        raise TooLarge(f"q = {q} exceeds the cap {MAX_MOMENT_ORDER}")
    A = chain.transition
    V = funcs.values
    pascal, lag = _binomial_tables(q)
    f = np.ones((q + 1, chain.n_states))  # f[j] = f_k^j, row 0 fixed at 1
    with np.errstate(over="ignore", invalid="ignore"):
        # M[m, v] = E[S_k^m ; Y_k = v]; pow gives f_1^m, which the products below would not match
        M = chain.stationary * np.array([V[0] ** m for m in range(q + 1)])
        for values in V[1:]:
            f[1:] = values
            np.multiply.accumulate(f, out=f)  # one power at a time, as np.vander does
            # terms[m, j] = C(m, j) f^j (M A)[m - j]; C(m, j) = 0 zeroes j > m.
            # cumsum adds j = 0..m in order, like a sum started from +0.0,
            # which the trailing + 0.0 matches in the sign of a zero total.
            terms = pascal[:, :, None] * f * (M @ A)[lag]
            M = np.cumsum(terms, axis=1)[:, -1] + 0.0
    if not np.all(np.isfinite(M)):
        raise Overflow("moment recursion left the representable range")
    moments = M.sum(axis=1)
    moments.setflags(write=False)
    return moments


@functools.cache
def _binomial_tables(q):
    """Read-only (q+1, q+1) tables C(m, j) and max(m - j, 0) of the moment recursion."""
    orders = np.arange(q + 1)
    pascal = np.array([[math.comb(m, j) for j in orders] for m in orders], dtype=float)
    lag = np.maximum(orders[:, None] - orders[None, :], 0)
    pascal.flags.writeable = lag.flags.writeable = False
    return pascal, lag


def exact_mgf(chain: MarkovChain, funcs: FunctionFamily, theta: float) -> float:
    """E[exp(theta S_n)] by the weighted transfer recursion."""
    check_width(funcs, chain)
    A = chain.transition
    with np.errstate(over="ignore", invalid="ignore"):
        p = chain.stationary * np.exp(theta * funcs.values[0])
        for k in range(1, funcs.n_steps):
            p = (p @ A) * np.exp(theta * funcs.values[k])  # inf or NaN persists into the total
        total = float(p.sum())
    if not math.isfinite(total):
        raise Overflow("MGF recursion left the representable range")
    return total


def _lattice_decomposition(funcs: FunctionFamily):
    """Write f_i(v) = f_i(0) + pitch * (m_i + K[i, v]), integers with min_v K[i, v] = 0.

    Only the within-function differences need to be rational: per-step offsets
    shift S_n by a constant.  Returns (pitch: Fraction or None, base, lo = sum_i m_i, K).
    """
    V = funcs.values
    base = float(V[:, 0].sum())
    diffs = V - V[:, :1]
    uniq, inverse = np.unique(diffs.ravel(), return_inverse=True)  # sorted
    ratios = []
    for d in uniq.tolist():
        ratio = _small_ratio(d)
        if ratio is None:  # name the first difference to appear without one
            first = next(x for x in diffs.ravel().tolist() if _small_ratio(x) is None)
            raise NotLattice(f"value difference {first!r} has no small rational form")
        ratios.append(ratio)
    dens = [den for num, den in ratios if num]
    if not dens:
        return None, base, 0, np.zeros_like(diffs, dtype=np.int64)
    den_lcm = math.lcm(*dens)
    ints = [num * (den_lcm // den) for num, den in ratios]
    g = math.gcd(*ints)
    ks = [i // g for i in ints]
    if max(map(abs, ks)) > MAX_LATTICE_POINTS:  # before the int64 conversion can overflow
        raise TooLarge(f"lattice indices span more than {MAX_LATTICE_POINTS} points")
    K = np.array(ks, dtype=np.int64)[inverse].reshape(diffs.shape)
    low = K.min(axis=1, keepdims=True)
    return Fraction(g, den_lcm), base, int(low.sum()), K - low


def _small_ratio(d: float):
    """(num, den) with num / den = d exactly, or the nearest ratio with den up to
    the lattice cap when that lies within the lattice residual; else None."""
    num, den = d.as_integer_ratio()
    if den > DEFAULT_TOL.lattice_max_denominator:
        fr = Fraction(num, den).limit_denominator(DEFAULT_TOL.lattice_max_denominator)
        num, den = fr.numerator, fr.denominator
        if abs(num / den - d) > DEFAULT_TOL.lattice_residual:
            return None
    return num, den


def lattice_distribution(chain: MarkovChain, funcs: FunctionFamily) -> LatticeDistribution:
    """Exact distribution of S_n by DP over (state, accumulated lattice index)."""
    check_width(funcs, chain)
    pitch, base, lo, K = _lattice_decomposition(funcs)
    N = chain.n_states
    if pitch is None:
        return _distribution(None, base, 0, None)
    A = chain.transition
    width = int(K.max(axis=1).sum()) + 1
    if width * N > MAX_LATTICE_POINTS:
        raise TooLarge(f"lattice support of {width} points is too wide for the exact DP")
    # D[v, idx]: Pr[Y_k = v, sum index = idx + lo], idx up to the first k rows' summed maxima
    D = np.zeros((N, K[0].max() + 1))
    D[np.arange(N), K[0]] = chain.stationary
    for shifts in K[1:].tolist():
        T = A.T @ D
        D = np.zeros((N, T.shape[1] + max(shifts)))
        for v, s in enumerate(shifts):
            D[v, s:s + T.shape[1]] = T[v]
    return _distribution(pitch, base, lo, D.sum(axis=0))


def _distribution(pitch, base, lo, probs) -> LatticeDistribution:
    """probs[i] at base + pitch * (lo + i), zeros dropped; pitch None: S_n = base surely."""
    if pitch is None:
        return LatticeDistribution(0.0, base, np.array([0]), np.array([1.0]))
    keep = probs > 0
    offsets = np.arange(lo, lo + len(probs))[keep]
    return LatticeDistribution(float(pitch), base, offsets, probs[keep])


def exact_tail(chain: MarkovChain, funcs: FunctionFamily, threshold: float) -> float:
    """Pr[|S_n| >= threshold], exact, for lattice-valued function families."""
    return lattice_distribution(chain, funcs).tail(threshold)


def _path_probabilities(chain: MarkovChain, n: int) -> np.ndarray:
    """Pr[Y_1 = v_1, ..., Y_n = v_n] as an (N,)*n array, one step at a time.

    Each entry is pi(v_1) A(v_1, v_2) ... A(v_{n-1}, v_n), multiplied left to
    right; C order lists the paths lexicographically, last step fastest.  Path
    p extends to p*N + v with weight A(p mod N, v): a step repeats each entry N
    times and multiplies rows of up to one block by A's entries tiled to one
    row, so numpy's loops run a row long whatever N."""
    N = chain.n_states
    if N**n > MAX_BRUTE_FORCE_PATHS:
        raise TooLarge(f"{N}^{n} trajectories exceed the enumeration guard")
    width = N * N
    while 1 < N and width * N <= _BLOCK_ENTRIES:
        width *= N
    pattern = np.tile(chain.transition.ravel(), width // (N * N))  # pattern[i] = A(i // N mod N, i mod N)
    prob = chain.stationary.copy()
    for _ in range(1, n):
        prob = np.repeat(prob, N)
        rows = prob.reshape(-1, min(prob.size, width))  # both powers of N, at least N^2
        np.multiply(rows, pattern[:rows.shape[1]], out=rows)
    return prob.reshape((N,) * n)


def _index_sums(K) -> np.ndarray:
    """sum_i K[i, v_i] over every index path (v_1, ...), in lexicographic order."""
    return functools.reduce(lambda s, k: (s[:, None] + k).ravel(), K, np.zeros(1, np.int64))


def brute_force_distribution(chain: MarkovChain, funcs: FunctionFamily) -> LatticeDistribution:
    """Enumerate all N^n trajectories; the independent ground truth for every
    transfer-DP oracle.  Shares only the lattice representation of the f
    values, never the DP recursion.  A deterministic S_n is its point mass,
    whatever N^n.

    The path indices, each step's starting at 0, are the sums over the first and
    the last half of the steps joined by one outer add, exact in integers."""
    check_width(funcs, chain)
    pitch, base, lo, K = _lattice_decomposition(funcs)
    if pitch is None:
        return _distribution(None, base, 0, None)
    probs = _path_probabilities(chain, funcs.n_steps)
    half = len(K) // 2
    idx = np.add.outer(_index_sums(K[:half]), _index_sums(K[half:])).ravel()
    return _distribution(pitch, base, lo, np.bincount(idx, weights=probs.ravel()))


def brute_force_monomial(chain: MarkovChain, funcs: FunctionFamily, w) -> float:
    """E[prod_i f_{w_i}(Y_{w_i})] by trajectory enumeration up to max(w) steps."""
    check_width(funcs, chain)
    w = _check_w(w, funcs.n_steps)
    n = w[-1]
    probs = _path_probabilities(chain, n)
    # f_i(Y_i) varies along axis i - 1 only; vals spans axes w_1 - 1 .. n - 1
    shape = np.ones(n - w[0] + 1, dtype=int)
    shape[np.array(w) - w[0]] = chain.n_states
    vals = np.ones(shape)
    for i in w:
        vals *= funcs.values[i - 1].reshape((-1,) + (1,) * (n - i))
    return float(np.sum(np.multiply(probs, vals, out=probs).ravel()))


def verify_holder_application(pi, u_vectors, T_matrices):
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
        if abs(float(pi @ u)) > DEFAULT_TOL.mean_zero:
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
