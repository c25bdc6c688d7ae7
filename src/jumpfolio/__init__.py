"""Optimal investment and consumption under dynamic VaR/ES limits in
jump-diffusion markets, verified against Monte Carlo and brute-force
oracles."""

from . import errors
from .constrained import (
    ConstraintCertificate,
    DiffGammaReport,
    certify,
    slack_path,
    solve_diff_gamma,
    solve_gamma1,
    solve_no_consumption,
)
from .market import (
    CoefficientPath,
    JumpDist,
    JumpSpec,
    MarketModel,
    TimeGrid,
    UtilitySpec,
    expected_jump_exponential,
    inner_product_path,
    theta_hat_path,
    theta_path,
)
from .negjumps import (
    adjusted_solve,
    beta_hat,
    effective_level,
    epsilon_t,
)
from .riskmetrics import (
    F_beta,
    NegJumpMethod,
    RiskKind,
    RiskSpec,
    es_stoch_exp,
    normal_quantile,
    quantile_stoch_exp,
)
from .simulate import (
    GridOracleResult,
    NodeStats,
    PathEnsemble,
    constraint_profile,
    estimate_cost,
    grid_oracle,
    simulate,
    simulate_node_stats,
)
from .unconstrained import (
    SolveReport,
    Strategy,
    cost_function,
    solve_linear,
    solve_power_equal,
    value_terms,
)

__version__ = "0.1.0"
