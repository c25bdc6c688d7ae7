"""Confidence-level adjustment when assets can jump down.

If a negative jump happens on [0, T] with probability eps_T < beta, the
downside constraints stay valid after tightening the confidence level to
beta_hat = (beta - eps_T) / (1 - eps_T): the quantile level q_beta is
replaced by q_beta_hat in the VaR transform, and the ES transform uses the
log tail function at beta_hat shifted down by ln(1 - eps_T),
F_beta_hat(u) + ln(1 - eps_T), evaluated at the beta_hat quantile offset
(`EffectiveLevel.F`).

`epsilon_t` estimates eps_T two ways.  NegJumpMethod.THINNING computes the
exact probability of seeing at least one negative jump (thinned Poisson
counts per asset); NegJumpMethod.PAPER evaluates the paper's product formula
prod_j (1 - exp(-lambda_j t)) P(xi_j < 0), which disagrees with the exact
count on generic inputs and reads 0 once one asset cannot jump down.

`adjusted_solve` is the one solve dispatcher, with or without a risk spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionJViolated,
    ConditionViolated,
    EpsilonTooLarge,
    OutOfRange,
)
from .market import JumpSpec, MarketModel, UtilitySpec, _once_per_model
from .riskmetrics import F_beta, NegJumpMethod, RiskSpec, normal_quantile
from .unconstrained import solve_linear, solve_power_equal


def epsilon_t(jumps: JumpSpec, t: float,
              method: NegJumpMethod = NegJumpMethod.THINNING) -> float:
    """Probability of at least one negative jump in any asset on [0, t].

    THINNING is that probability exactly.  PAPER is the paper's product
    over assets, which one asset that cannot jump down (lambda_j = 0 or
    P(xi_j < 0) = 0) zeroes whatever the others do, so THINNING is the
    safe choice.
    """
    if not t >= 0:
        raise OutOfRange(f"t must be nonnegative, got {t}")
    method = NegJumpMethod(method)
    lam, p_neg = jumps.lambdas, jumps.negative_mass
    if method == NegJumpMethod.THINNING:
        # negative jumps of asset j arrive Poisson with rate lambda_j p_neg_j
        return float(-np.expm1(-t * float(lam @ p_neg)))
    if method == NegJumpMethod.PAPER:
        factors = -np.expm1(-lam * t) * p_neg
        return float(np.prod(factors))
    raise OutOfRange("no adjustment method selected")


def beta_hat(beta: float, epsilon: float) -> float:
    """Tightened confidence level (beta - eps) / (1 - eps).

    Decreasing in eps; requires eps < beta so the level stays positive.
    """
    if not 0.0 < beta < 1.0:
        raise OutOfRange(f"beta must lie in (0, 1), got {beta}")
    if not epsilon >= 0:
        raise OutOfRange(f"epsilon must be nonnegative, got {epsilon}")
    if epsilon >= beta:
        raise EpsilonTooLarge(
            f"negative-jump probability {epsilon:.6g} >= beta {beta:.6g}")
    return (beta - epsilon) / (1.0 - epsilon)


@dataclass(frozen=True)
class EffectiveLevel:
    """Quantile level and tail function actually used by the solvers."""

    beta: float             # effective confidence level, beta_hat if adjusted
    q_level: float          # lower quantile at the effective level
    log_shift: float        # additive ES shift ln(1 - eps_T)
    epsilon_T: float

    def F(self, u):
        """Effective log tail function, zero-shifted at u = |q_level|."""
        return F_beta(u, self.beta) + self.log_shift


@_once_per_model
def effective_level(model: MarketModel, risk: RiskSpec) -> EffectiveLevel:
    """Resolve the risk level against the market's jump signs.

    With adjustment off, negative jumps violate Assumption J and raise
    AssumptionJViolated, and otherwise eps_T = 0 leaves beta as it is;
    under another method eps_T is estimated by that method and the level
    is tightened.  The level is kept on the model per risk spec from the
    first call on; both are frozen, so it cannot go stale.  A refusal is
    not kept.
    """
    method = risk.negjump_method
    if method == NegJumpMethod.OFF and model.jumps.has_negative_jumps():
        raise AssumptionJViolated(
            "market allows negative jumps; pick a negjump method")
    eps = (0.0 if method == NegJumpMethod.OFF
           else epsilon_t(model.jumps, model.grid.horizon, method))
    bh = beta_hat(risk.beta, eps)
    return EffectiveLevel(beta=bh, q_level=normal_quantile(bh),
                          log_shift=math.log1p(-eps), epsilon_T=eps)


def adjusted_solve(model: MarketModel, risk: RiskSpec | None,
                   utility: UtilitySpec, x: float = 1.0, force: bool = False):
    """Solve the configured problem: the one dispatcher over the solvers.

    Without a risk spec, linear utilities go to solve_linear and equal gamma
    in (0, 1) to solve_power_equal; distinct gammas have no provided
    solution.  Under a risk spec, honoring its negative-jump method, linear
    utilities go to the gamma=1 closed forms, equal gamma in (0, 1) to the
    inactivity certificate (the unconstrained optimum is returned when
    certified), distinct gammas to the consume-all solution.
    """
    from . import constrained  # local import; constrained uses this module

    if risk is None:
        if utility.is_linear:
            return solve_linear(model, x)
        if utility.is_equal:
            return solve_power_equal(model, utility, x)
        raise ConditionViolated(
            "unconstrained solve with distinct gammas is not provided; "
            "add a risk section")
    if utility.is_linear:
        return constrained.solve_gamma1(model, risk, x, force)
    if utility.is_equal:
        cert = constrained.certify(model, utility, risk, x)
        if cert.active and not force:
            raise ConditionViolated(
                "inactivity certificate failed: lhs="
                f"{cert.condition_lhs:.6g} > kappa={cert.condition_rhs:.6g}")
        return cert.report
    return constrained.solve_diff_gamma(model, utility, risk, x, force=force)
