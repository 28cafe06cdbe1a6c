"""Centralized numerical tolerances.

Every threshold used by validation and the verification suites lives here so
acceptance runs are reproducible against a single configuration record.
`degenerate_pi`, `row_sum` and `stationarity` check solved and supplied
stationary vectors alike.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    row_sum: float = 1e-9            # row-stochasticity of transition matrices
    stationarity: float = 1e-9       # |pi A - pi| per coordinate
    stationary_powers: float = 1e-8  # |pi A^k - pi|, k <= 20: pi's residual adds up over k steps
    mean_zero: float = 1e-9          # |sum_v pi_v f_i(v)|
    degenerate_pi: float = 1e-12     # stationary entries at or below this are rejected
    projector: float = 1e-12         # E_pi identities
    entrywise_identity: float = 1e-10  # A^k - E_pi vs (A - E_pi)^k
    oracle_agreement: float = 1e-10
    inequality_slack: float = 1e-9   # slack added to proved inequalities
    lattice_residual: float = 1e-9   # rational-reconstruction residual for f values
    lattice_max_denominator: int = 10**6


DEFAULT_TOL = Tolerances()
