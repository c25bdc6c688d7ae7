"""Solvers under dynamic VaR and expected-shortfall limits.

With nonnegative jump sizes the jump factor of wealth is at least one, so a
strategy that satisfies the jump-free transformed constraint

    VaR:  -||y||_t^2 / 2 + q ||y||_t - V_t + (y, theta_hat)_t >= ln(1-kappa)
    ES:   -V_t + (y, theta_hat)_t + F(||y||_t + |q|)          >= ln(1-kappa)

at every t also satisfies the original constraint on the jump-diffusion
wealth.  The linear-utility solvers return the box optimum when it meets
the limit and otherwise the binding radius rho along the direction
theta_t / ||theta||_T; the equal-gamma certificates test
whether the unconstrained optimum already satisfies the transform; for
distinct gammas the constraint forces consuming everything at an explicit
rate.  Negative jumps are handled by the tightened level from `negjumps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import (
    ConditionViolated,
    EpsilonTooLarge,
    KappaOutOfRange,
    ThetaHatNegative,
)
from .market import (
    MarketModel,
    R_path,
    UtilitySpec,
    _exp,
    _sigma_solve,
    inner_product_path,
    jump_terms_path,
    l2_time_norm,
    l2_time_norm_sq_path,
    log_tail_trapz,
    sigma_inv_xi_lambda_path,
    theta_hat_path,
    theta_path,
    trapz,
)
from .negjumps import effective_level
from .riskmetrics import RiskKind, RiskSpec
from .unconstrained import (
    SolveReport,
    Strategy,
    _in_box,
    _optimal_allocation,
    _power_gamma,
    _value,
    check_initial_wealth,
    solve_linear,
    solve_power_equal,
    value_terms,
)

_SLACK_TOL = 1e-10


# ---------------------------------------------------------------------------
# Transformed constraints
# ---------------------------------------------------------------------------

def slack_path(strategy: Strategy, model: MarketModel,
               risk: RiskSpec) -> np.ndarray:
    """Slack of the transformed constraint of the risk spec's kind, VaR or
    ES, at every node (>= 0 is ok); a stack of strategies gives one slack
    path per candidate, with the candidate axes in front.  A strategy that
    does not fit the model (see Strategy.check_fit) raises InvalidStrategy."""
    strategy.check_fit(model.grid, model.d)
    lev = effective_level(model, risk)
    ynorm, V = strategy.y_norm_path(), strategy.V
    ip = inner_product_path(model.grid, strategy.y, theta_hat_path(model))
    if risk.kind == RiskKind.VAR:
        body = -0.5 * ynorm**2 + lev.q_level * ynorm - V + ip
    else:
        body = -V + ip + lev.F(ynorm + abs(lev.q_level))
    return body - math.log1p(-risk.kappa)


# ---------------------------------------------------------------------------
# Linear utility: the box optimum, else the paper's ray
# ---------------------------------------------------------------------------

def _ray_radius(model: MarketModel, risk: RiskSpec, force: bool) -> tuple:
    """(rho*, residual, ||theta||_T, K) of the gamma = 1 ray theta_t /
    ||theta||_T: the binding radius, the defect of its defining equation

        VaR:  -rho^2/2 + (q - K + ||theta||_T) rho = ln(1 - kappa)  (closed)
        ES:   ||theta||_T rho + F(rho + |q|) - K rho = ln(1 - kappa)  (Brent)

    and the drag K = max_t (theta, sigma^{-1} xi_lambda)_t / ||theta||_T, a
    uniform bound (the max sits at T under nonnegative jumps and prices of
    risk).  ES needs |q| >= 2 ||theta||_T, so that the worst time is the
    horizon, unless force.  ||theta||_T = 0 raises ConditionViolated.
    """
    lev = effective_level(model, risk)
    theta = theta_path(model)
    theta_norm = l2_time_norm(model.grid, theta)
    if theta_norm <= 1e-14:
        raise ConditionViolated("||theta||_T = 0; use the riskless case")
    drag = float(np.max(inner_product_path(
        model.grid, theta, sigma_inv_xi_lambda_path(model)))) / theta_norm
    target = math.log1p(-risk.kappa)
    if risk.kind == RiskKind.VAR:
        exponent = 0.5 * lev.q_level**2 - abs(lev.q_level) * theta_norm
        floor = 1.0 - math.exp(min(exponent, 0.0))  # 0 once exp >= 1
        if risk.kappa <= floor:
            raise KappaOutOfRange(
                f"kappa = {risk.kappa:.6g} must exceed {floor:.6g}")
        b = theta_norm - abs(lev.q_level) - drag
        rho_star = b + math.sqrt(b * b - 2.0 * target)
        residual = (-0.5 * rho_star**2 + b * rho_star) - target
        return rho_star, residual, theta_norm, drag
    if abs(lev.q_level) < 2.0 * theta_norm and not force:
        raise ConditionViolated(
            f"|q| = {abs(lev.q_level):.6g} < 2 ||theta||_T = "
            f"{2 * theta_norm:.6g}")

    def psi(rho: float) -> float:
        return (theta_norm * rho + lev.F(rho + abs(lev.q_level))
                - drag * rho)

    if psi(0.0) <= target:
        raise KappaOutOfRange(
            "kappa lies below the negative-jump adjustment floor")
    hi = 1.0
    for _ in range(200):
        if psi(hi) < target:
            break
        hi *= 2.0
    else:
        raise ConditionViolated("could not bracket the ES radius")
    rho_star = float(brentq(lambda r: psi(r) - target, 0.0, hi,
                            xtol=1e-15, rtol=8.9e-16))
    return rho_star, psi(rho_star) - target, theta_norm, drag


def solve_gamma1(model: MarketModel, risk: RiskSpec, x: float = 1.0,
                 force: bool = False) -> SolveReport:
    """Optimal rule under the VaR or ES limit for gamma1 = gamma2 = 1 over
    the box [0, 1]^d; the limit's kind picks the radius.

    The box optimum pi_t^j = 1{mu_t^j > r_t} when it meets the limit (case
    "box"); otherwise the optimum rides theta_t / ||theta||_T at the
    binding radius rho* and J* = x exp(R_T + ||theta||_T rho*) (case
    "directional").  The ray needs a componentwise nonnegative theta_hat; a
    ray outside [0, 1]^d raises ConditionViolated.  force skips the ES
    level condition on |q|, not the box check.
    """
    report = solve_linear(model, x)
    slack = slack_path(report.strategy, model, risk)
    if slack.min() >= -_SLACK_TOL:
        report.diagnostics["case"] = "box"
    else:
        if np.min(theta_hat_path(model)) < -1e-12:
            raise ThetaHatNegative("theta_hat has a negative component")
        rho_star, residual, theta_norm, drag = _ray_radius(model, risk,
                                                           force)
        y = theta_path(model) * (rho_star / theta_norm)
        strategy = Strategy.from_y(model, y)
        if not _in_box(strategy.pi):
            raise ConditionViolated(
                "the gamma = 1 optimum leaves [0, 1]: pi ranges over "
                f"[{strategy.pi.min():.6g}, {strategy.pi.max():.6g}]")
        R_T = float(R_path(model)[-1])
        J = x * _exp(R_T + theta_norm * rho_star, "J*")
        report = SolveReport(strategy=strategy, J_star=J, diagnostics=dict(
            case="directional", rho_star=rho_star, rho_residual=residual,
            drag=drag))
        slack = slack_path(strategy, model, risk)
    report.diagnostics.update(min_slack=float(slack.min()),
                              slack_at_T=float(slack[-1]))
    return report


solve_var_gamma1 = solve_es_gamma1 = solve_gamma1  # bench/ reads; ROADMAP item 10


# ---------------------------------------------------------------------------
# Equal gamma in (0, 1): inactivity certificates
# ---------------------------------------------------------------------------

@dataclass
class ConstraintCertificate:
    """Outcome of an inactivity check for the equal-gamma problem.

    active = False certifies that the unconstrained optimum satisfies the
    transformed constraint; the sufficient condition compares the loss
    fraction against 1 - chi * exp(bound).  The certificate holds for
    every kappa in [kappa_lo, kappa_hi].
    """

    kind: RiskKind
    active: bool
    condition_lhs: float
    condition_rhs: float
    kappa_lo: float
    kappa_hi: float = 1.0
    report: SolveReport | None = None
    diagnostics: dict = field(default_factory=dict)


def certify(model: MarketModel, utility: UtilitySpec, risk: RiskSpec,
            x: float = 1.0,
            report: SolveReport | None = None) -> ConstraintCertificate:
    """Inactivity certificate for the equal-gamma optimum under the risk
    spec's limit, VaR or ES: the limit is inactive when 1 - chi exp(e + c)
    <= kappa and ||y*||_T <= b = q ||theta||_T (q the utility conjugate
    exponent).  The limit's kind picks the exponent e and
    the cross term c, the nonpositive part of a minimum over the nodes:

        VaR:  e = l* = -b^2 + q_beta b,  c from (y*, theta_hat)_t
        ES:   e = m* = min_t q ||theta_hat||_t^2 + F(q ||theta||_t + |q_beta|),
              c from (y* - q theta_hat, theta_hat)_t;  needs |q_beta| >=
              2 ||theta_hat||_T and reports M paired with theta_hat

    The certificate is also kept in its report's diagnostics["certificate"].
    """
    gamma = _power_gamma(utility, x, "certify")
    lev = effective_level(model, risk)
    grid = model.grid
    thh = theta_hat_path(model)
    es = risk.kind == RiskKind.ES
    if es and abs(lev.q_level) < 2.0 * l2_time_norm(grid, thh):
        raise ConditionViolated(
            f"|q| = {abs(lev.q_level):.6g} < 2 ||theta_hat||_T = "
            f"{2 * l2_time_norm(grid, thh):.6g}")
    report = solve_power_equal(model, utility, x) if report is None else report
    qq = utility.q
    b = qq * l2_time_norm(grid, theta_path(model))
    cross = inner_product_path(grid, report.strategy.y, thh)
    if es:
        th_norm = np.sqrt(l2_time_norm_sq_path(grid, theta_path(model)))
        thh_sq = l2_time_norm_sq_path(grid, thh)
        e = float(np.min(qq * thh_sq + lev.F(qq * th_norm + abs(lev.q_level))))
        cross = cross - qq * thh_sq
        qv = jump_terms_path(model.jumps, report.strategy.pi, gamma)[0]
        m_path = _sigma_solve(model, qv)
        diag = {"m_star": e, "M_hat_theta_T":
                float(trapz(grid, np.sum(thh * m_path, axis=1)))}
    else:
        e = -b * b + lev.q_level * b
        diag = {"l_star": e}
    c = min(0.0, float(np.min(cross)))
    lhs = 1.0 - report.chi * math.exp(e + c)    # e + c <= 0: no overflow
    y_norm_T = float(report.strategy.y_norm_path()[-1])
    norm_bound_ok = y_norm_T <= b + 1e-10
    slack = float(slack_path(report.strategy, model, risk).min())
    diag.update(chi=report.chi, cross_term_correction=c, y_norm_T=y_norm_T,
                norm_budget=b, norm_bound_ok=norm_bound_ok, min_slack=slack)
    cert = ConstraintCertificate(
        kind=risk.kind,
        active=not (lhs <= risk.kappa and norm_bound_ok),
        condition_lhs=lhs,
        condition_rhs=risk.kappa,
        kappa_lo=max(0.0, lhs),
        report=report,
        diagnostics=diag,
    )
    report.diagnostics["certificate"] = cert
    return cert


certify_var_gamma = certify_es_gamma = certify  # bench/ reads; ROADMAP item 10


# ---------------------------------------------------------------------------
# Distinct gammas: consume everything
# ---------------------------------------------------------------------------

class DiffGammaReport(SolveReport):
    """Consume-all solution for gamma1 != gamma2; J_star is the attained
    bound M_hat(kappa).  The consumed fraction eta_kappa = 1 - exp(-V_T),
    condition_ok, and the upper-bound curve M_hat and the feasible
    allocation budget rho_eta along eta_grid are diagnostics keys."""


def solve_diff_gamma(model: MarketModel, utility: UtilitySpec, risk: RiskSpec,
                     x: float = 1.0, force: bool = False) -> DiffGammaReport:
    """Optimal rule for 0 < gamma1 != gamma2 < 1 under a VaR or ES limit.

    Under the level condition on |q_beta| the cost is bounded by
    M(x, eta) = x^g1 eta^g1 ||ghat1||_{q1,T} + x^g2 (1 - eta)^g2 ghat2(T)
    over consumed fractions eta <= kappa, and the bound is attained by
    y* = 0 with the explicit consumption rate
    v*_t = kappa ghat1^{q1}(t) / (||ghat1||_{q1,T}^{q1} - kappa
    ||ghat1||_{q1,t}^{q1}), the law of `value_terms` with f = ghat1^{q1}
    and c = (1 - kappa) / kappa ||ghat1||_{q1,T}^{q1}.

    Under an ES limit the shift ln(1 - eps_T) of the transform makes
    kappa_hat = (kappa - eps_T) / (1 - eps_T) the level in place of kappa,
    the same shape as beta_hat; eps_T >= kappa raises EpsilonTooLarge.
    """
    check_initial_wealth(x)
    g1, g2 = utility.gamma1, utility.gamma2
    if g1 == g2 or g1 >= 1.0 or g2 >= 1.0:
        raise ConditionViolated(
            "solve_diff_gamma needs distinct gammas in (0, 1)")
    lev = effective_level(model, risk)
    grid = model.grid
    q1 = 1.0 / (1.0 - g1)
    R = R_path(model)
    R_T, log_f = float(R[-1]), g1 * q1 * R    # log_f = ln ghat1^{q1}
    log_A_T = float(log_tail_trapz(grid, log_f, -math.inf)[0])
    norm1 = _exp(log_A_T / q1, "||ghat1||_{q1,T}")
    ghat2_T = _exp(g2 * R_T, "ghat2(T)")

    def m_hat(eta):
        eta = np.asarray(eta, dtype=float)
        return (x**g1 * eta**g1 * norm1
                + x**g2 * (1.0 - eta) ** g2 * ghat2_T)

    # M_hat' falls strictly from +inf to -inf on (0, 1), so its root is the
    # argmax.  The log ratio of its two terms has its sign; in the logit
    # w = ln(eta / (1 - eta)) it is finite and nearly linear at both ends.
    log_c = (math.log(g1 / g2) + log_A_T / q1 - g2 * R_T
             + (g1 - g2) * math.log(x))

    def log_ratio(w: float) -> float:    # ln eta = -ln(1 + e^-w)
        return (log_c + (1.0 - g1) * np.logaddexp(0.0, -w)
                - (1.0 - g2) * np.logaddexp(0.0, w))

    lo, hi = math.log(5e-324), 53.0 * math.log(2.0)  # eta 5e-324, 1 - 2^-53
    if log_ratio(hi) > 0.0:
        eta_max = 1.0
    else:
        w = (brentq(log_ratio, lo, hi, xtol=1e-300)
             if log_ratio(lo) > 0.0 else lo)
        eta_max = math.exp(-np.logaddexp(0.0, -w))
    kappa, eps = risk.kappa, lev.epsilon_T
    if risk.kind == RiskKind.ES:
        if eps >= kappa:
            raise EpsilonTooLarge(f"negative-jump probability {eps:.6g} >= "
                                  f"kappa {kappa:.6g}")
        kappa = (kappa - eps) / (1.0 - eps)
    problems = []
    if kappa > eta_max + 1e-12:
        problems.append(f"kappa = {kappa:.6g} exceeds argmax "
                        f"{eta_max:.6g} of the upper-bound curve")

    # log-derivative M_hat'/M_hat of the bound, smallest over [0, kappa]:
    # the bound is concave, so it is read at the right end
    e = min(kappa, eta_max)
    d_star = (g1 * x**g1 * e ** (g1 - 1.0) * norm1 - g2 * x**g2
              * (1.0 - e) ** (g2 - 1.0) * ghat2_T) / float(m_hat(e))
    thh_norm = l2_time_norm(grid, theta_hat_path(model))
    q_abs = abs(lev.q_level)
    if d_star <= 0:
        problems.append("upper-bound curve is not increasing on [0, kappa]")
        required = math.inf
    elif risk.kind == RiskKind.VAR:
        required = thh_norm + thh_norm * max(g1, g2) / ((1.0 - kappa) * d_star)
    else:
        required = 2.0 * thh_norm + (1.0 - kappa) * thh_norm * min(g1, g2) / d_star
    if q_abs < required:
        problems.append(f"|q_beta| = {q_abs:.6g} below the required level "
                        f"{required:.6g}")
    if problems and not force:
        raise ConditionViolated("; ".join(problems))

    # A_T - kappa A_t = (1 - kappa) A_T + kappa int_t^T f: the law with
    # c = (1 - kappa) / kappa A_T, read for f / A_T, whose integral is 1
    v_star, V_star, _ = value_terms(grid, log_f - log_A_T,
                                    math.log1p(-kappa) - math.log(kappa))
    zeros = np.zeros((grid.n, model.d))
    strategy = Strategy(grid, zeros, zeros.copy(), v_star, V_star)

    eta_grid = np.linspace(0.0, kappa, 101)
    base = (q_abs - thh_norm) ** 2 - 2.0 * math.log1p(-kappa)
    rho_eta = (np.sqrt(np.maximum(base + 2.0 * np.log1p(-eta_grid), 0.0))
               - q_abs + thh_norm)

    diag = {
        "eta_argmax": eta_max,
        "log_derivative_min": d_star,
        "required_q_abs": required,
        "q_abs": q_abs,
        "problems": problems,
        "condition_ok": not problems,
        "eta_kappa": float(-np.expm1(-V_star[-1])),
        "log_A_T": log_A_T,
        "norm1": norm1,
        "eta_grid": eta_grid,
        "rho_eta": rho_eta,
        "M_hat": m_hat(eta_grid),
    }
    return DiffGammaReport(strategy, float(m_hat(kappa)), diagnostics=diag)


# ---------------------------------------------------------------------------
# No consumption
# ---------------------------------------------------------------------------

def solve_no_consumption(model: MarketModel, utility: UtilitySpec,
                         risk: RiskSpec | None = None,
                         x: float = 1.0) -> SolveReport:
    """Terminal-wealth problem (v forced to 0) for equal gamma in (0, 1).

    The allocation solves the same per-node first-order system; the value
    function is exp(int_t^T h*) x^gamma, so rho solves rho' + h* rho = 0.
    When a risk spec is given, the matching inactivity certificate (with
    exp(-V_T) = 1) is attached to the diagnostics.
    """
    gamma = _power_gamma(utility, x, "solve_no_consumption")
    y, pi, h, log_g, diag = _optimal_allocation(model, gamma)
    J = _value(x, gamma, float(log_g[-1]))     # rho(0) = g(T)
    with np.errstate(over="ignore"):    # rho(t) may pass the float range
        diag.update(h_star=h, log_g=log_g, rho=np.exp(log_g[-1] - log_g))
    report = SolveReport(Strategy(model.grid, y, pi), J, 1.0, diag)
    if risk is not None:
        certify(model, utility, risk, x, report=report)
    return report
