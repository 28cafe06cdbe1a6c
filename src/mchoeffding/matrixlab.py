"""Markov-filled symmetric random matrices and their Schatten-infinity norms.

A symmetric coefficient matrix B with positive entries is filled with signs
f(Y_t) read off a stationary chain path, one upper-triangular entry per step
in a pluggable order, and the spectral norm of the result is compared to the
Gaussian baseline and the 1/sqrt(1-lam) bound.  A fill order is a permutation
array over np.triu_indices(d); one fill scatters path-ordered entries (a few
paths come from the walk's prefix scan) into a stack of symmetric matrices,
Markov and Gaussian alike, and one LAPACK SVD call takes the stack's norms;
the same batched SVD (`spectral_norms`) takes ||B|| itself."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_matrix_schatten
from .chain import MarkovChain, make_family
from .errors import DimensionMismatch, InvalidOrder, OrderMismatch, OutOfRange
from .montecarlo import SimConfig, _mean_interval, sample_path, sample_paths
from .rng import normal_block, trial_seeds
from .spectral import contraction, spectral_norms

GAUSSIAN_TRIALS = 200   # Gaussian-counterpart matrices per experiment
C_GRID = (0.5, 1.0, 2.0, 4.0)  # constants C of the reported bounds


@dataclass(frozen=True, eq=False)
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

    @functools.cached_property
    def _norms(self) -> tuple:
        """(sigma, sigma_star, ||B||_Sinf), computed once and shared by every report on B."""
        return (*sigma_params(self), float(spectral_norms(self.entries)))


@functools.cache
def _upper(d: int) -> np.ndarray:
    """np.triu_indices(d) as one read-only (2, m) array: the pairs i <= j, row-major."""
    iu = np.array(np.triu_indices(d))
    iu.setflags(write=False)
    return iu


@dataclass(frozen=True, eq=False)
class FillOrder:
    """Pair k of np.triu_indices(d) takes path position omega = positions[k] + 1, 1..(d^2+d)/2."""

    d: int
    positions: np.ndarray

    def __post_init__(self):
        p, m = np.array(self.positions), (self.d * self.d + self.d) // 2
        if (self.d < 1 or not np.issubdtype(p.dtype, np.integer) or p.shape != (m,)
                or p.min() < 0 or p.max() >= m or np.bincount(p.astype(np.intp)).max() > 1):
            raise InvalidOrder(f"positions must permute 0..{m - 1} over np.triu_indices({self.d})")
        p.setflags(write=False)
        object.__setattr__(self, "positions", p)


def row_major_order(d: int) -> FillOrder:
    return FillOrder(d=d, positions=np.arange((d * d + d) // 2))


def diagonal_first_order(d: int) -> FillOrder:
    """All diagonal entries first, then the strict upper triangle row-major."""
    i, j = _upper(d)
    # strict pair k follows the i + 1 diagonal pairs of rows 0..i in np.triu_indices order
    return FillOrder(d=d, positions=np.where(i == j, i, d + np.arange(len(i)) - i - 1))


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
    f = _checked_f(B, order, chain, f_values)
    return _fill(B, order, f[sample_path(chain, (B.d * B.d + B.d) // 2, seed)][None, :])[0]


def _checked_f(B: CoefficientMatrix, order: FillOrder, chain: MarkovChain,
               f_values) -> np.ndarray:
    """The validated table of f over the chain's states, for filling B in `order`."""
    if order.d != B.d:
        raise OrderMismatch(f"fill order is for d = {order.d}, B has d = {B.d}")
    funcs = make_family([list(f_values)], chain=chain)
    if funcs.bounds[0] > 1.0 + 1e-12:
        raise OutOfRange("|f| must be bounded by 1")
    return funcs.values[0]


def _fill(B: CoefficientMatrix, order: FillOrder, values: np.ndarray) -> np.ndarray:
    """(T, d, d) symmetric stack with X[t, i, j] = values[t, omega(i, j) - 1] * b_ij,
    where `values` holds one row of (d^2+d)/2 path-ordered entries per matrix."""
    i, j = _upper(order.d)
    X = np.zeros((len(values), order.d, order.d))
    X[:, i, j] = values[:, order.positions] * B.entries[i, j]
    X[:, j, i] = X[:, i, j]
    return X


@dataclass(frozen=True, slots=True, eq=False)
class MatrixExperimentReport:
    """Mean norm, interval and fitted C derive from the read-only `sample_norms` on access."""

    d: int
    lam: float
    trials: int
    master_seed: int
    sigma: float
    sigma_star: float
    b_norm: float
    gaussian_mean: float
    sample_norms: np.ndarray
    mean_norm = property(lambda self: _mean_interval(self.sample_norms)[0])
    ci_low = property(lambda self: _mean_interval(self.sample_norms)[1])
    ci_high = property(lambda self: _mean_interval(self.sample_norms)[2])

    @property
    def fitted_C(self) -> float:
        """The minimal C making the first branch cover the mean; NaN unless lam < 1."""
        if not self.lam < 1.0:
            return float("nan")
        gauss = self.sigma + self.sigma_star * math.sqrt(math.log(self.d))
        return self.mean_norm * math.sqrt(1.0 - self.lam) / gauss

    @property
    def bound_by_C(self) -> dict:
        """C -> min{C/sqrt(1-lam)(sigma+sigma* sqrt(log d)), ||B||}; empty unless lam < 1."""
        if not self.lam < 1.0:
            return {}
        return {C: bound_matrix_schatten(self.sigma, self.sigma_star, self.d, self.lam,
                                         self.b_norm, C) for C in C_GRID}

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
    return float(spectral_norms(_fill(B, row_major_order(B.d), g)).mean())


def run_matrix_experiment(B: CoefficientMatrix, order: FillOrder, chain: MarkovChain,
                          f_values, cfg: SimConfig, lam: float | None = None,
                          gaussian_trials: int = GAUSSIAN_TRIALS) -> MatrixExperimentReport:
    """Sample `cfg.trials` Markov-filled matrices and report mean spectral norm,
    the Corollary-style bound at each C of C_GRID, the fitted minimal C, and the
    Gaussian-counterpart mean.

    All trials are walked at once by `sample_paths`, whose row t uses the t-th
    trial seed, and filled as one stack, so matrix t equals
    `build_markov_matrix` with that seed."""
    f = _checked_f(B, order, chain, f_values)
    if lam is None:
        lam = contraction(chain)
    paths = sample_paths(chain, (B.d * B.d + B.d) // 2, cfg)
    norms = spectral_norms(_fill(B, order, f[paths]))
    norms.setflags(write=False)
    g_seed = int(trial_seeds(cfg.master_seed ^ 0x3C3C3C3C, 1)[0])
    sigma, sigma_star, b_norm = B._norms
    return MatrixExperimentReport(
        d=B.d, lam=float(lam), trials=cfg.trials, master_seed=cfg.master_seed,
        sigma=sigma, sigma_star=sigma_star, b_norm=b_norm,
        gaussian_mean=gaussian_counterpart_mean(B, gaussian_trials, g_seed), sample_norms=norms)
