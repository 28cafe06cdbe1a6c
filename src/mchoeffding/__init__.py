"""Hoeffding-type concentration bounds for finite-state stationary Markov
chains: closed-form bound evaluators, exact transfer-DP oracles, seeded Monte
Carlo, and Markov-filled random-matrix experiments."""

__version__ = "0.1.0"

from .bounds import (
    bound_fjs,
    bound_glss,
    bound_healy,
    bound_iid_hoeffding,
    bound_matrix_schatten,
    bound_mgf,
    bound_moment,
    bound_monomial,
    bound_rao,
)
from .chain import (
    FunctionFamily,
    MarkovChain,
    averaging_operator,
    make_family,
    sign_family,
    two_state_chain,
    validate_chain,
)
from .config import DEFAULT_TOL
from .matrixlab import (
    CoefficientMatrix,
    FillOrder,
    build_markov_matrix,
    row_major_order,
    run_matrix_experiment,
    sigma_params,
)
from .montecarlo import SimConfig, TailReport, estimate_tail, sample_path, wilson_interval
from .oracle import (
    brute_force_distribution,
    exact_mgf,
    exact_moments,
    exact_monomial_expectation,
    exact_tail,
    lattice_distribution,
    verify_holder_application,
)
from .spectral import NormContext, contraction, deviation_norms, opnorm
