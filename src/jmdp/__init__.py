"""Policy evaluation for joint MDPs.

Environments expose counterfactual one-step outcome tables across all actions
under shared exogenous noise. This package computes joint return moments for a
fixed policy four ways: exact dynamic programming with residual certificates,
an arbitrary-order generalization, asynchronous one-sample stochastic
approximation, and a PSD-constrained projected linear approximation, all
validated against a coupled Monte Carlo oracle.
"""

from .core import (
    MomentCollection2,
    MomentCollectionN,
    StateActionSpace,
    lambda_norm,
)
from .dp import JipeReport, apply_tn, jipe
from .env import (
    ExoJmdp,
    NoiseModel,
    Policy,
    build_crc,
    build_hub_successors,
    build_indep_successors,
    build_ring_chain,
    build_shared_successors,
    build_wgw,
    child_seed,
    induced_jstm,
    is_coupled_dynamics,
    load_env,
    load_policy,
    marginal_mdp,
    sample_outcomes,
    save_env,
    save_policy,
    wgw_goal_policy,
)
from .errors import (
    AssumptionError,
    BudgetError,
    ConfigError,
    DivergenceError,
    FeatureRankError,
    InvalidInputError,
    InvalidQueryError,
    JmdpError,
)
from .fa import (
    CouplingReport,
    FeatureMap,
    LinearMoments,
    StationaryDist,
    beta_weight,
    coupling_coefficient,
    project_mu,
    project_sigma_psd,
    projected_jipe2,
    stationary_distribution,
)
from .incremental import (
    NoiseDiagnostic,
    noise_diagnostic,
    run_incremental,
    sample_backup,
)
from .stats import (
    CorrMatrix,
    McBlock,
    cantelli_bound,
    chebyshev_ecdf,
    corr_matrix,
    gap_stats,
    mc_state_block,
)

__version__ = "0.1.0"
