"""Markov-filled symmetric random matrices and their Schatten-infinity norms.

A symmetric coefficient matrix B with positive entries is filled with signs
f(Y_t) read off a stationary chain path, one upper-triangular entry per step
in a pluggable order, and the spectral norm of the result is compared to the
Gaussian baseline and the 1/sqrt(1-lam) bound.  One fill scatters a block of
path-ordered entries into a stack of symmetric matrices, for the Markov and
the Gaussian matrices alike, and every norm comes from numpy's LAPACK SVD,
which takes the whole stack in one call."""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_matrix_schatten
from .chain import MarkovChain, make_family
from .errors import DimensionMismatch, InvalidOrder, OutOfRange
from .montecarlo import SimConfig, _mean_interval, sample_path
from .rng import normal_block, trial_seeds


@dataclass(frozen=True)
class CoefficientMatrix:
    """Symmetric d x d matrix with positive entries."""

    entries: np.ndarray

    def __post_init__(self):
        try:
            B = np.array(self.entries, dtype=float)
        except (TypeError, ValueError):
            raise OutOfRange("B must be a numeric matrix") from None
        if B.ndim != 2 or B.shape[0] != B.shape[1] or B.size == 0:
            raise DimensionMismatch("B must be square and non-empty")
        if not np.all(np.isfinite(B)):
            raise OutOfRange("B must have finite entries")
        if not np.array_equal(B, B.T):
            raise OutOfRange("B must be symmetric")
        if np.any(B <= 0):
            raise OutOfRange("B must have strictly positive entries")
        B.setflags(write=False)
        object.__setattr__(self, "entries", B)

    @property
    def d(self):
        return self.entries.shape[0]


def upper_indices(d: int):
    """The index set of pairs (i, j) with i <= j, row-major."""
    return [(i, j) for i in range(d) for j in range(i, d)]


@dataclass(frozen=True)
class FillOrder:
    """Injective map from upper-triangular pairs to path positions 1..(d^2+d)/2."""

    d: int
    omega: dict

    def __post_init__(self):
        pairs = upper_indices(self.d)
        m = (self.d * self.d + self.d) // 2
        vals = [self.omega.get(p) for p in pairs]
        if None in vals or len(set(vals)) != m or not all(1 <= v <= m for v in vals):
            raise InvalidOrder("omega must map the upper triangle bijectively onto 1..(d^2+d)/2")


def row_major_order(d: int) -> FillOrder:
    return FillOrder(d=d, omega={p: k + 1 for k, p in enumerate(upper_indices(d))})


def diagonal_first_order(d: int) -> FillOrder:
    """All diagonal entries first, then the strict upper triangle row-major."""
    diag = [(i, i) for i in range(d)]
    strict = [(i, j) for i in range(d) for j in range(i + 1, d)]
    return FillOrder(d=d, omega={p: k + 1 for k, p in enumerate(diag + strict)})


def sigma_params(B: CoefficientMatrix):
    """(sigma, sigma_star): largest row Euclidean norm and largest |entry|."""
    sigma = float(np.sqrt((B.entries**2).sum(axis=1)).max())
    sigma_star = float(np.abs(B.entries).max())
    return sigma, sigma_star


def build_markov_matrix(B: CoefficientMatrix, order: FillOrder, chain: MarkovChain,
                        f_values, seed: int) -> np.ndarray:
    """Sample one symmetric X with X_ij = f(Y_{omega(i,j)}) * b_ij on the upper
    triangle, mirrored below.  `f_values` is one mean-zero function table with
    |f| <= 1."""
    if order.d != B.d:
        raise DimensionMismatch("fill order dimension must match B")
    funcs = make_family([list(f_values)], chain=chain)
    if funcs.bounds[0] > 1.0 + 1e-12:
        raise OutOfRange("|f| must be bounded by 1")
    m = (B.d * B.d + B.d) // 2
    path = sample_path(chain, m, seed)
    return _fill(B, order, funcs.values[0][path][None, :])[0]


def _fill(B: CoefficientMatrix, order: FillOrder, values: np.ndarray) -> np.ndarray:
    """(T, d, d) symmetric stack with X[t, i, j] = values[t, omega(i, j) - 1] * b_ij.

    `values` holds one row of (d^2+d)/2 path-ordered entries per matrix."""
    pairs = upper_indices(order.d)
    i, j = np.array(pairs).T
    k = np.array([order.omega[p] for p in pairs]) - 1
    X = np.zeros((len(values), order.d, order.d))
    X[:, i, j] = values[:, k] * B.entries[i, j]
    X[:, j, i] = X[:, i, j]
    return X


def _spectral_norms(X: np.ndarray) -> np.ndarray:
    """Largest singular value of each square matrix in a (..., d, d) stack,
    copied out so the full singular-value stack can be freed."""
    if X.shape[-1] != X.shape[-2]:
        raise DimensionMismatch("matrices must be square")
    return np.linalg.svd(X, compute_uv=False)[..., 0].copy()


def schatten_norm(M, p) -> float:
    """Schatten p-norm from singular values; p = inf gives the spectral norm."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("M must be square")
    if not p > 0:
        raise OutOfRange("p must be positive")
    s = np.linalg.svd(M, compute_uv=False)
    if p == math.inf:
        return float(s[0])
    return float(np.sum(s**p) ** (1.0 / p))


@dataclass(frozen=True)
class MatrixExperimentReport:
    d: int
    lam: float
    trials: int
    master_seed: int
    mean_norm: float
    ci_low: float
    ci_high: float
    sigma: float
    sigma_star: float
    b_norm: float
    bound_by_C: dict          # C -> min{C/sqrt(1-lam)(sigma+sigma* sqrt(log d)), ||B||}
    fitted_C: float           # minimal C making the first branch cover the mean
    gaussian_mean: float
    sample_norms: np.ndarray

    def to_dict(self):
        return {
            "d": self.d, "lambda": self.lam, "trials": self.trials,
            "master_seed": self.master_seed, "mean_norm": self.mean_norm,
            "ci_low": self.ci_low, "ci_high": self.ci_high,
            "sigma": self.sigma, "sigma_star": self.sigma_star,
            "b_norm": self.b_norm,
            "bound_by_C": {str(c): v for c, v in self.bound_by_C.items()},
            "fitted_C": self.fitted_C, "gaussian_mean": self.gaussian_mean,
        }


def gaussian_counterpart_mean(B: CoefficientMatrix, trials: int, seed: int) -> float:
    """E[||X'||_Sinf] where X' has independent N(0,1)-weighted upper entries,
    drawn row-major over the upper triangle."""
    if trials < 1:
        raise OutOfRange("trials must be at least 1")
    g = normal_block(trial_seeds(seed, trials), (B.d * B.d + B.d) // 2)
    return float(_spectral_norms(_fill(B, row_major_order(B.d), g)).mean())


def run_matrix_experiment(B: CoefficientMatrix, order: FillOrder, chain: MarkovChain,
                          f_values, cfg: SimConfig, lam: float | None = None,
                          C_grid=(0.5, 1.0, 2.0, 4.0),
                          gaussian_trials: int = 200) -> MatrixExperimentReport:
    """Sample `cfg.trials` Markov-filled matrices and report mean spectral norm,
    the Corollary-style bound over a C-grid, the fitted minimal C, and the
    Gaussian-counterpart mean."""
    from .spectral import contraction

    if lam is None:
        lam = contraction(chain)
    seeds = trial_seeds(cfg.master_seed, cfg.trials)
    norms = _spectral_norms(np.stack([
        build_markov_matrix(B, order, chain, f_values, int(s)) for s in seeds]))
    mean, ci_low, ci_high = _mean_interval(norms)
    sigma, sigma_star = sigma_params(B)
    b_norm = schatten_norm(B.entries, math.inf)
    bound_by_C = {}
    if lam < 1.0:
        for C in C_grid:
            bound_by_C[float(C)] = bound_matrix_schatten(sigma, sigma_star, B.d, lam, b_norm, C)
        fitted_C = mean * math.sqrt(1.0 - lam) / (sigma + sigma_star * math.sqrt(math.log(B.d)))
    else:
        fitted_C = float("nan")
    g_seed = int(trial_seeds(cfg.master_seed ^ 0x3C3C3C3C, 1)[0])
    g_mean = gaussian_counterpart_mean(B, gaussian_trials, g_seed)
    return MatrixExperimentReport(
        d=B.d, lam=float(lam), trials=cfg.trials, master_seed=cfg.master_seed,
        mean_norm=mean, ci_low=ci_low, ci_high=ci_high,
        sigma=sigma, sigma_star=sigma_star, b_norm=b_norm,
        bound_by_C=bound_by_C, fitted_C=fitted_C, gaussian_mean=g_mean,
        sample_norms=norms)
