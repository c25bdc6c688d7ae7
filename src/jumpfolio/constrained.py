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
    ConfigError,
    EpsilonTooLarge,
    KappaOutOfRange,
    ThetaHatNegative,
)
from .market import (
    MarketModel,
    R_path,
    UtilitySpec,
    _sigma_solve,
    cumtrapz,
    inner_product_path,
    jump_terms_path,
    l2_time_norm,
    l2_time_norm_sq_path,
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
    check_initial_wealth,
    solve_linear,
    solve_power_equal,
)

_SLACK_TOL = 1e-10


# ---------------------------------------------------------------------------
# Transformed constraints
# ---------------------------------------------------------------------------

def slack_path(strategy: Strategy, model: MarketModel,
               risk: RiskSpec) -> np.ndarray:
    """Slack of the transformed constraint of the risk spec's kind, VaR or
    ES, at every node (>= 0 is ok); a stack of strategies gives one slack
    path per candidate, with the candidate axes in front."""
    lev = effective_level(model, risk)
    ynorm, V = strategy.y_norm_path(), strategy.V
    ip = inner_product_path(model.grid, strategy.y, theta_hat_path(model))
    if risk.kind == RiskKind.VAR:
        body = -0.5 * ynorm**2 + lev.q_level * ynorm - V + ip
    else:
        body = -V + ip + lev.F(ynorm + abs(lev.q_level))
    return body - math.log1p(-risk.kappa)


def _require_kind(risk: RiskSpec, kind: RiskKind, solver: str) -> None:
    """Raise ConfigError unless the limit is of the solver's own kind."""
    if risk.kind != kind:
        raise ConfigError(f"{solver} takes a {kind.value} limit, got "
                          f"{risk.kind.value}")


# ---------------------------------------------------------------------------
# Linear utility: the box optimum, else the paper's ray
# ---------------------------------------------------------------------------

def _radius_terms(model: MarketModel, risk: RiskSpec) -> tuple:
    """Effective level, ||theta||_T, compensator drag K and ln(1 - kappa)
    of a gamma = 1 radius; raises ConditionViolated when ||theta||_T = 0.

    K is the largest cumulative drag (theta, sigma^{-1} xi_lambda)_t /
    ||theta||_T.  Under nonnegative jumps and componentwise nonnegative
    prices of risk the integrand is nonnegative and the maximum sits at
    t = T; taking the max keeps the uniform bound valid in general.
    """
    lev = effective_level(model, risk)
    theta = theta_path(model)
    theta_norm = l2_time_norm(model.grid, theta)
    if theta_norm <= 1e-14:
        raise ConditionViolated("||theta||_T = 0; use the riskless case")
    drag = inner_product_path(model.grid, theta,
                              sigma_inv_xi_lambda_path(model))
    return (lev, theta_norm, float(np.max(drag)) / theta_norm,
            math.log1p(-risk.kappa))


@dataclass(frozen=True)
class RadiusSolution:
    """Binding allocation radius of the linear-utility solvers."""

    rho_star: float      # root of the binding transformed constraint
    residual: float      # defining-equation defect at rho_star
    theta_norm: float
    drag: float          # compensator drag K used in the equation


def rho_var_gamma1(model: MarketModel, risk: RiskSpec) -> RadiusSolution:
    """Binding radius of the transformed VaR constraint for gamma = 1.

    Solves -rho^2/2 + (q - K + ||theta||_T) rho = ln(1 - kappa) in closed
    form.
    """
    lev, theta_norm, drag, target = _radius_terms(model, risk)
    floor = max(0.0, 1.0 - math.exp(0.5 * lev.q_level**2
                                    - abs(lev.q_level) * theta_norm))
    if risk.kappa <= floor:
        raise KappaOutOfRange(
            f"kappa = {risk.kappa:.6g} must exceed {floor:.6g}")
    b = theta_norm - abs(lev.q_level) - drag
    rho_star = b + math.sqrt(b * b - 2.0 * target)
    residual = (-0.5 * rho_star**2 + b * rho_star) - target
    return RadiusSolution(rho_star=rho_star, residual=residual,
                          theta_norm=theta_norm, drag=drag)


def rho_es_gamma1(model: MarketModel, risk: RiskSpec,
                  force: bool = False) -> RadiusSolution:
    """Binding radius of the transformed ES constraint for gamma = 1.

    Root of ||theta||_T rho + F(rho + |q|) - K rho = ln(1 - kappa), found by
    doubling the bracket until the sign flips and polishing with Brent.
    Requires |q| >= 2 ||theta||_T so the worst time is the horizon.
    """
    lev, theta_norm, drag, target = _radius_terms(model, risk)
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
    return RadiusSolution(rho_star=rho_star, residual=psi(rho_star) - target,
                          theta_norm=theta_norm, drag=drag)


def _solve_gamma1(model: MarketModel, risk: RiskSpec, x: float,
                  force: bool = False) -> SolveReport:
    """Shared body of the gamma = 1 solvers over the box [0, 1]^d.

    The box optimum of solve_linear when it meets the limit (case "box");
    otherwise the paper's ray theta_t / ||theta||_T at the binding radius
    rho* of the limit's kind (case "directional"), refused with
    ConditionViolated when it leaves the box.  force skips the ES level
    condition.
    """
    report = solve_linear(model, x)
    slack = slack_path(report.strategy, model, risk)
    if slack.min() >= -_SLACK_TOL:
        report.diagnostics["case"] = "box"
    else:
        if np.min(theta_hat_path(model)) < -1e-12:
            raise ThetaHatNegative("theta_hat has a negative component")
        radius = (rho_var_gamma1(model, risk) if risk.kind == RiskKind.VAR
                  else rho_es_gamma1(model, risk, force))
        y = theta_path(model) * (radius.rho_star / radius.theta_norm)
        strategy = Strategy.from_y(model, y)
        if not _in_box(strategy.pi):
            raise ConditionViolated(
                "the gamma = 1 optimum leaves [0, 1]: pi ranges over "
                f"[{strategy.pi.min():.6g}, {strategy.pi.max():.6g}]")
        R_T = float(R_path(model)[-1])
        J = x * math.exp(R_T + radius.theta_norm * radius.rho_star)
        report = SolveReport(strategy=strategy, J_star=J, diagnostics=dict(
            case="directional", rho_star=radius.rho_star,
            rho_residual=radius.residual, drag=radius.drag))
        slack = slack_path(strategy, model, risk)
    report.diagnostics.update(min_slack=float(slack.min()),
                              slack_at_T=float(slack[-1]))
    return report


def solve_var_gamma1(model: MarketModel, risk: RiskSpec,
                     x: float = 1.0) -> SolveReport:
    """Optimal rule under the VaR limit for gamma1 = gamma2 = 1.

    The box optimum pi_t^j = 1{mu_t^j > r_t} when it meets the limit;
    otherwise the optimum rides theta_t / ||theta||_T at the binding radius
    rho* and J* = x exp(R_T + ||theta||_T rho*).  The ray needs a
    componentwise nonnegative theta_hat; a ray outside [0, 1]^d raises
    ConditionViolated.
    """
    _require_kind(risk, RiskKind.VAR, "solve_var_gamma1")
    return _solve_gamma1(model, risk, x)


def solve_es_gamma1(model: MarketModel, risk: RiskSpec, x: float = 1.0,
                    force: bool = False) -> SolveReport:
    """Optimal rule under the ES limit for gamma1 = gamma2 = 1; force skips
    the level condition on |q|, not the box check."""
    _require_kind(risk, RiskKind.ES, "solve_es_gamma1")
    return _solve_gamma1(model, risk, x, force)


# ---------------------------------------------------------------------------
# Equal gamma in (0, 1): inactivity certificates
# ---------------------------------------------------------------------------

@dataclass
class ConstraintCertificate:
    """Outcome of an inactivity check for the equal-gamma problem.

    active = False certifies that the unconstrained optimum satisfies the
    transformed constraint; the sufficient condition compares the loss
    fraction against 1 - chi * exp(bound).
    """

    kind: RiskKind
    active: bool
    condition_lhs: float
    condition_rhs: float
    kappa_range: tuple
    report: SolveReport | None = None
    diagnostics: dict = field(default_factory=dict)


def certify(model: MarketModel, utility: UtilitySpec, risk: RiskSpec,
            x: float = 1.0,
            report: SolveReport | None = None) -> ConstraintCertificate:
    """Inactivity certificate for the risk spec's kind: certify_var_gamma
    for a VaR limit, certify_es_gamma for an ES limit."""
    check = certify_var_gamma if risk.kind == RiskKind.VAR else certify_es_gamma
    return check(model, utility, risk, x, report)


def _certify(model: MarketModel, utility: UtilitySpec, risk: RiskSpec,
             x: float, report: SolveReport | None,
             solver: str) -> ConstraintCertificate:
    """Shared body of the equal-gamma certificates: the limit is inactive
    when 1 - chi exp(e + c) <= kappa and ||y*||_T <= b = q ||theta||_T (q the
    utility conjugate exponent).  The limit's kind picks the exponent e and
    the cross term c, the nonpositive part of a minimum over the nodes:

        VaR:  e = l* = -b^2 + q_beta b,  c from (y*, theta_hat)_t
        ES:   e = m* = min_t q ||theta_hat||_t^2 + F(q ||theta||_t + |q_beta|),
              c from (y* - q theta_hat, theta_hat)_t;  needs |q_beta| >=
              2 ||theta_hat||_T and reports M paired with theta_hat
    """
    gamma = _power_gamma(utility, x, solver)
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
        qv = jump_terms_path(model.jumps, report.strategy.pi, gamma)[1]
        m_path = _sigma_solve(model, qv)
        diag = {"m_star": e, "M_hat_theta_T":
                float(trapz(grid, np.sum(thh * m_path, axis=1)))}
    else:
        e = -b * b + lev.q_level * b
        diag = {"l_star": e}
    c = min(0.0, float(np.min(cross)))
    lhs = 1.0 - report.chi * math.exp(e + c)
    y_norm_T = float(report.strategy.y_norm_path()[-1])
    norm_bound_ok = y_norm_T <= b + 1e-10
    slack = float(slack_path(report.strategy, model, risk).min())
    diag.update(chi=report.chi, cross_term_correction=c, y_norm_T=y_norm_T,
                norm_budget=b, norm_bound_ok=norm_bound_ok, min_slack=slack)
    return ConstraintCertificate(
        kind=risk.kind,
        active=not (lhs <= risk.kappa and norm_bound_ok),
        condition_lhs=lhs,
        condition_rhs=risk.kappa,
        kappa_range=(max(0.0, lhs), 1.0),
        report=report,
        diagnostics=diag,
    )


def certify_var_gamma(model: MarketModel, utility: UtilitySpec,
                      risk: RiskSpec, x: float = 1.0,
                      report: SolveReport | None = None) -> ConstraintCertificate:
    """Certify that the VaR limit is inactive at the equal-gamma optimum:
    `_certify` with e = l*."""
    _require_kind(risk, RiskKind.VAR, "certify_var_gamma")
    return _certify(model, utility, risk, x, report, "certify_var_gamma")


def certify_es_gamma(model: MarketModel, utility: UtilitySpec,
                     risk: RiskSpec, x: float = 1.0,
                     report: SolveReport | None = None) -> ConstraintCertificate:
    """Certify that the ES limit is inactive at the equal-gamma optimum:
    `_certify` with e = m*."""
    _require_kind(risk, RiskKind.ES, "certify_es_gamma")
    return _certify(model, utility, risk, x, report, "certify_es_gamma")


# ---------------------------------------------------------------------------
# Distinct gammas: consume everything
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class DiffGammaReport(SolveReport):
    """Consume-all solution for gamma1 != gamma2 and its upper-bound data;
    J_star is the attained bound M_hat(kappa)."""

    eta_kappa: float            # consumed fraction 1 - exp(-V_T)
    eta_grid: np.ndarray
    rho_eta: np.ndarray         # feasible allocation budget along eta
    M_hat: np.ndarray           # upper-bound curve along eta
    condition_ok: bool


def solve_diff_gamma(model: MarketModel, utility: UtilitySpec, risk: RiskSpec,
                     x: float = 1.0, force: bool = False) -> DiffGammaReport:
    """Optimal rule for 0 < gamma1 != gamma2 < 1 under a VaR or ES limit.

    Under the level condition on |q_beta| the cost is bounded by
    M(x, eta) = x^g1 eta^g1 ||ghat1||_{q1,T} + x^g2 (1 - eta)^g2 ghat2(T)
    over consumed fractions eta <= kappa, and the bound is attained by
    y* = 0 with the explicit consumption rate
    v*_t = kappa ghat1^{q1}(t) / (||ghat1||_{q1,T}^{q1} - kappa
    ||ghat1||_{q1,t}^{q1}).

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
    ghat1_q1 = np.exp(g1 * q1 * R)
    A = cumtrapz(grid, ghat1_q1)          # ||ghat1||_{q1,t}^{q1}
    A_T = float(A[-1])
    norm1 = A_T ** (1.0 / q1)             # ||ghat1||_{q1,T}
    ghat2_T = math.exp(g2 * float(R[-1]))

    def m_hat(eta):
        eta = np.asarray(eta, dtype=float)
        return (x**g1 * eta**g1 * norm1
                + x**g2 * (1.0 - eta) ** g2 * ghat2_T)

    # M_hat' falls strictly from +inf to -inf on (0, 1), so its root is the
    # argmax.  The log ratio of its two terms has its sign; in the logit
    # w = ln(eta / (1 - eta)) it is finite and nearly linear at both ends.
    log_c = math.log(g1 * norm1 / (g2 * ghat2_T)) + (g1 - g2) * math.log(x)

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
    condition_ok = not problems
    if problems and not force:
        raise ConditionViolated("; ".join(problems))

    v_star = kappa * ghat1_q1 / (A_T - kappa * A)
    V_star = -np.log1p(-kappa * A / A_T)      # exact integral of v_star
    zeros = np.zeros((grid.n, model.d))
    strategy = Strategy(grid, zeros, zeros.copy(), v_star, V_path=V_star)
    eta_kappa = float(-np.expm1(-strategy.V[-1]))

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
        "A_T": A_T,
        "norm1": norm1,
    }
    return DiffGammaReport(
        strategy=strategy,
        J_star=float(m_hat(kappa)),
        eta_kappa=eta_kappa,
        eta_grid=eta_grid,
        rho_eta=rho_eta,
        M_hat=m_hat(eta_grid),
        condition_ok=condition_ok,
        diagnostics=diag,
    )


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
    y, pi, h, g, diag = _optimal_allocation(model, gamma)
    rho = g[-1] / g
    strategy = Strategy(model.grid, y, pi)
    J = x**gamma * float(g[-1])
    report = SolveReport(strategy=strategy, J_star=J, h_star=h, g=g, rho=rho,
                         chi=1.0, diagnostics=diag)
    if risk is not None:
        report.diagnostics["certificate"] = certify(model, utility, risk, x,
                                                    report=report)
    return report
