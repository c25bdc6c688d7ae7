"""Solvers under dynamic VaR and expected-shortfall limits.

With nonnegative jump sizes the jump factor of wealth is at least one, so a
strategy that satisfies the jump-free transformed constraint

    VaR:  -||y||_t^2 / 2 + q ||y||_t - V_t + (y, theta_hat)_t >= ln(1-kappa)
    ES:   -V_t + (y, theta_hat)_t + F(||y||_t + |q|)          >= ln(1-kappa)

at every t also satisfies the original constraint on the jump-diffusion
wealth.  The linear-utility solvers pick the largest feasible radius rho
along the direction theta_t / ||theta||_T; the equal-gamma certificates test
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
    AssumptionJViolated,
    ConditionViolated,
    KappaOutOfRange,
    NegativeJumpsPresent,
    ThetaHatNegative,
)
from .market import (
    MarketModel,
    R_path,
    UtilitySpec,
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
from .negjumps import EffectiveLevel, effective_level
from .riskmetrics import RiskKind, RiskSpec
from .unconstrained import (
    SolveReport,
    Strategy,
    _optimal_allocation,
    check_initial_wealth,
    growth_rate_path,
    solve_power_equal,
)

_SLACK_TOL = 1e-10


# ---------------------------------------------------------------------------
# Transformed constraints
# ---------------------------------------------------------------------------

def _slack(kind: RiskKind, lev: EffectiveLevel, kappa: float,
           ynorm: np.ndarray, V: np.ndarray, ip: np.ndarray) -> np.ndarray:
    """Transformed VaR or ES slack from the cumulative paths ||y||_t, V_t
    and (y, theta_hat)_t.  Time runs along the last axis and the arrays
    broadcast over their leading axes, so one call covers a stack of
    candidates."""
    if kind == RiskKind.VAR:
        body = -0.5 * ynorm**2 + lev.q_level * ynorm - V + ip
    else:
        body = -V + ip + lev.F(ynorm + abs(lev.q_level))
    return body - math.log1p(-kappa)


def _strategy_slack(kind: RiskKind, strategy: Strategy, model: MarketModel,
                    risk: RiskSpec) -> np.ndarray:
    lev = effective_level(model, risk)
    ip = inner_product_path(model.grid, strategy.y, theta_hat_path(model))
    return _slack(kind, lev, risk.kappa, strategy.y_norm_path(), strategy.V,
                  ip)


def var_slack_path(strategy: Strategy, model: MarketModel,
                   risk: RiskSpec) -> np.ndarray:
    """Slack of the transformed VaR constraint at every node (>= 0 is ok)."""
    return _strategy_slack(RiskKind.VAR, strategy, model, risk)


def es_slack_path(strategy: Strategy, model: MarketModel,
                  risk: RiskSpec) -> np.ndarray:
    """Slack of the transformed ES constraint at every node."""
    return _strategy_slack(RiskKind.ES, strategy, model, risk)


def transformed_var_constraint(strategy: Strategy, model: MarketModel,
                               risk: RiskSpec, t: float) -> float:
    """Transformed VaR slack at one grid node; the constraint holds on
    [0, T] iff the slack is nonnegative at every node."""
    return float(var_slack_path(strategy, model, risk)[model.grid.index_of(t)])


def transformed_es_constraint(strategy: Strategy, model: MarketModel,
                              risk: RiskSpec, t: float) -> float:
    return float(es_slack_path(strategy, model, risk)[model.grid.index_of(t)])


def slack_path(strategy: Strategy, model: MarketModel,
               risk: RiskSpec) -> np.ndarray:
    return _strategy_slack(risk.kind, strategy, model, risk)


# ---------------------------------------------------------------------------
# Shared scalars for the linear-utility solvers
# ---------------------------------------------------------------------------

def _effective_or_assumption_j(model: MarketModel, risk: RiskSpec) -> EffectiveLevel:
    try:
        return effective_level(model, risk)
    except NegativeJumpsPresent as exc:
        raise AssumptionJViolated(str(exc)) from exc


def _compensator_drag(model: MarketModel, theta_norm_T: float) -> float:
    """Largest cumulative drag K_t = (theta, sigma^{-1} xi_lambda)_t / ||theta||_T.

    Under nonnegative jumps and componentwise nonnegative prices of risk the
    integrand is nonnegative and the maximum sits at t = T; taking the max
    keeps the uniform bound valid in general.
    """
    drag = inner_product_path(model.grid, theta_path(model),
                              sigma_inv_xi_lambda_path(model))
    return float(np.max(drag)) / theta_norm_T


def _sigma_time_norm(model: MarketModel) -> float:
    """Time-L2 norm of the Frobenius norm of sigma_t."""
    fro_sq = np.sum(model.coeffs.sigma**2, axis=(1, 2))
    return float(np.sqrt(trapz(model.grid, fro_sq)))


def _kappa_floor(q_level: float, theta_norm_T: float) -> float:
    return max(0.0, 1.0 - math.exp(0.5 * q_level**2
                                    - abs(q_level) * theta_norm_T))


@dataclass(frozen=True)
class RadiusSolution:
    """Feasible allocation radius for the linear-utility solvers."""

    rho_star: float      # root of the binding transformed constraint
    cap: float           # budget sqrt(T) ||sigma||_T on the radius
    rho_bar: float       # usable radius min(rho_star, cap)
    residual: float      # defining-equation defect at rho_star
    theta_norm: float
    drag: float          # compensator drag K used in the equation
    kappa_floor: float = 0.0


def rho_var_gamma1(model: MarketModel, risk: RiskSpec) -> RadiusSolution:
    """Binding radius of the transformed VaR constraint for gamma = 1.

    Solves -rho^2/2 + (q - K + ||theta||_T) rho = ln(1 - kappa) in closed
    form and caps the result by sqrt(T) ||sigma||_T.
    """
    lev = _effective_or_assumption_j(model, risk)
    theta_norm = l2_time_norm(model.grid, theta_path(model))
    if theta_norm <= 1e-14:
        raise ConditionViolated("||theta||_T = 0; use the riskless case")
    floor = _kappa_floor(lev.q_level, theta_norm)
    if risk.kappa <= floor:
        raise KappaOutOfRange(
            f"kappa = {risk.kappa:.6g} must exceed {floor:.6g}")
    drag = _compensator_drag(model, theta_norm)
    b = theta_norm - abs(lev.q_level) - drag
    target = math.log1p(-risk.kappa)
    rho_star = b + math.sqrt(b * b - 2.0 * target)
    residual = (-0.5 * rho_star**2 + b * rho_star) - target
    cap = math.sqrt(model.grid.horizon) * _sigma_time_norm(model)
    return RadiusSolution(rho_star=rho_star, cap=cap,
                          rho_bar=min(rho_star, cap), residual=residual,
                          theta_norm=theta_norm, drag=drag, kappa_floor=floor)


def rho_es_gamma1(model: MarketModel, risk: RiskSpec,
                  force: bool = False) -> RadiusSolution:
    """Binding radius of the transformed ES constraint for gamma = 1.

    Root of ||theta||_T rho + F(rho + |q|) - K rho = ln(1 - kappa), found by
    doubling the bracket until the sign flips and polishing with Brent.
    Requires |q| >= 2 ||theta||_T so the worst time is the horizon.
    """
    lev = _effective_or_assumption_j(model, risk)
    theta_norm = l2_time_norm(model.grid, theta_path(model))
    if theta_norm <= 1e-14:
        raise ConditionViolated("||theta||_T = 0; use the riskless case")
    if abs(lev.q_level) < 2.0 * theta_norm and not force:
        raise ConditionViolated(
            f"|q| = {abs(lev.q_level):.6g} < 2 ||theta||_T = "
            f"{2 * theta_norm:.6g}")
    drag = _compensator_drag(model, theta_norm)
    target = math.log1p(-risk.kappa)

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
    cap = math.sqrt(model.grid.horizon) * _sigma_time_norm(model)
    return RadiusSolution(rho_star=rho_star, cap=cap,
                          rho_bar=min(rho_star, cap),
                          residual=psi(rho_star) - target,
                          theta_norm=theta_norm, drag=drag)


def _solve_gamma1(model: MarketModel, risk: RiskSpec, x: float,
                  radius: RadiusSolution | None) -> SolveReport:
    grid = model.grid
    R_T = float(R_path(model)[-1])
    if radius is None:
        # vanishing price of risk: stay riskless, consume nothing
        lev = _effective_or_assumption_j(model, risk)
        strategy = Strategy.riskless(model)
        six = sigma_inv_xi_lambda_path(model)
        xi_norm = l2_time_norm(grid, six)
        rho0 = (math.sqrt((abs(lev.q_level) + xi_norm) ** 2
                          - 2.0 * math.log1p(-risk.kappa))
                - abs(lev.q_level) - xi_norm)
        diag = {
            "case": "zero_theta",
            "rho_0": rho0,
            "y_norm_budget": min(rho0, math.sqrt(grid.horizon)
                                 * _sigma_time_norm(model)),
        }
        return SolveReport(strategy=strategy, J_star=x * math.exp(R_T),
                           diagnostics=diag)
    y = theta_path(model) * (radius.rho_bar / radius.theta_norm)
    strategy = Strategy.from_y(model, y)
    slack = slack_path(strategy, model, risk)
    pi = strategy.pi
    diag = {
        "case": "directional",
        "rho_star": radius.rho_star,
        "rho_bar": radius.rho_bar,
        "cap": radius.cap,
        "binding": radius.rho_bar == radius.rho_star,
        "rho_residual": radius.residual,
        "drag": radius.drag,
        "min_slack": float(slack.min()),
        "slack_at_T": float(slack[-1]),
        "pi_in_box": bool(np.all((pi >= -_SLACK_TOL) & (pi <= 1 + _SLACK_TOL))),
    }
    J = x * math.exp(R_T + radius.theta_norm * radius.rho_bar)
    return SolveReport(strategy=strategy, J_star=J, diagnostics=diag)


def solve_var_gamma1(model: MarketModel, risk: RiskSpec,
                     x: float = 1.0) -> SolveReport:
    """Optimal rule under the VaR limit for gamma1 = gamma2 = 1.

    With ||theta||_T = 0 the riskless account is optimal.  Otherwise the
    optimum rides theta_t / ||theta||_T at the largest feasible radius and
    J* = x exp(R_T + ||theta||_T rho_bar).  Needs a componentwise
    nonnegative theta_hat.
    """
    check_initial_wealth(x)
    theta_norm = l2_time_norm(model.grid, theta_path(model))
    if theta_norm <= 1e-14:
        return _solve_gamma1(model, risk, x, None)
    if np.min(theta_hat_path(model)) < -1e-12:
        raise ThetaHatNegative("theta_hat has a negative component")
    return _solve_gamma1(model, risk, x, rho_var_gamma1(model, risk))


def solve_es_gamma1(model: MarketModel, risk: RiskSpec, x: float = 1.0,
                    force: bool = False) -> SolveReport:
    """Optimal rule under the ES limit for gamma1 = gamma2 = 1."""
    check_initial_wealth(x)
    theta_norm = l2_time_norm(model.grid, theta_path(model))
    if theta_norm <= 1e-14:
        return _solve_gamma1(model, risk, x, None)
    if np.min(theta_hat_path(model)) < -1e-12:
        raise ThetaHatNegative("theta_hat has a negative component")
    return _solve_gamma1(model, risk, x, rho_es_gamma1(model, risk, force))


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
    rho_star: float | None
    kappa_range: tuple
    report: SolveReport | None = None
    diagnostics: dict = field(default_factory=dict)


def certify_var_gamma(model: MarketModel, utility: UtilitySpec,
                      risk: RiskSpec, x: float = 1.0,
                      report: SolveReport | None = None,
                      chi: float | None = None) -> ConstraintCertificate:
    """Certify that the VaR limit is inactive at the equal-gamma optimum.

    Tests 1 - chi exp(l* + c) <= kappa with l* = -(q ||theta||_T)^2 +
    q_beta q ||theta||_T (q the utility conjugate exponent) and c the
    nonpositive part of min_t (y*, theta_hat)_t, evaluated on the solved
    strategy; c vanishes when theta_hat is componentwise nonnegative.  The
    norm bound ||y*||_T <= q ||theta||_T is verified before certifying.
    """
    check_initial_wealth(x)
    if not (utility.is_equal and utility.gamma < 1.0):
        raise ValueError("certificates need equal gamma in (0, 1)")
    lev = _effective_or_assumption_j(model, risk)
    if report is None:
        report = solve_power_equal(model, utility, x)
    if chi is None:
        chi = report.chi
    qq = utility.q
    b = qq * l2_time_norm(model.grid, theta_path(model))
    cross = inner_product_path(model.grid, report.strategy.y,
                               theta_hat_path(model))
    correction = min(0.0, float(np.min(cross)))
    l_star = -b * b + lev.q_level * b
    lhs = 1.0 - chi * math.exp(l_star + correction)
    y_norm_T = float(report.strategy.y_norm_path()[-1])
    norm_bound_ok = y_norm_T <= b + 1e-10
    slack = var_slack_path(report.strategy, model, risk)
    diag = {
        "l_star": l_star,
        "chi": chi,
        "cross_term_correction": correction,
        "y_norm_T": y_norm_T,
        "norm_budget": b,
        "norm_bound_ok": norm_bound_ok,
        "min_slack": float(slack.min()),
    }
    return ConstraintCertificate(
        kind=RiskKind.VAR,
        active=not (lhs <= risk.kappa and norm_bound_ok),
        condition_lhs=lhs,
        condition_rhs=risk.kappa,
        rho_star=None,
        kappa_range=(max(0.0, lhs), 1.0),
        report=report,
        diagnostics=diag,
    )


def certify_es_gamma(model: MarketModel, utility: UtilitySpec,
                     risk: RiskSpec, x: float = 1.0,
                     report: SolveReport | None = None,
                     chi: float | None = None) -> ConstraintCertificate:
    """Certify that the ES limit is inactive at the equal-gamma optimum.

    The exponent is the worst node of q ||theta_hat||_t^2 +
    F(q ||theta||_t + |q_beta|), shifted by the nonpositive part of
    min_t (y* - q theta_hat, theta_hat)_t; requires |q_beta| >=
    2 ||theta_hat||_T.  The first-order jump aggregate M and its pairing
    with theta_hat are reported for reference.
    """
    check_initial_wealth(x)
    if not (utility.is_equal and utility.gamma < 1.0):
        raise ValueError("certificates need equal gamma in (0, 1)")
    lev = _effective_or_assumption_j(model, risk)
    grid = model.grid
    thh = theta_hat_path(model)
    thh_norm_T = l2_time_norm(grid, thh)
    if abs(lev.q_level) < 2.0 * thh_norm_T:
        raise ConditionViolated(
            f"|q| = {abs(lev.q_level):.6g} < 2 ||theta_hat||_T = "
            f"{2 * thh_norm_T:.6g}")
    if report is None:
        report = solve_power_equal(model, utility, x)
    if chi is None:
        chi = report.chi
    qq = utility.q
    th_norm_path = np.sqrt(l2_time_norm_sq_path(grid, theta_path(model)))
    thh_sq_path = l2_time_norm_sq_path(grid, thh)
    worst = qq * thh_sq_path + lev.F(qq * th_norm_path + abs(lev.q_level))
    m_star = float(np.min(worst))
    cross = inner_product_path(grid, report.strategy.y, thh)
    correction = min(0.0, float(np.min(cross - qq * thh_sq_path)))
    lhs = 1.0 - chi * math.exp(m_star + correction)

    qv = jump_terms_path(model.jumps, report.strategy.pi, utility.gamma)[1]
    m_path = np.linalg.solve(model.coeffs.sigma, qv[..., None])[..., 0]
    m_hat_theta_T = trapz(grid, np.sum(thh * m_path, axis=1))

    b = qq * l2_time_norm(grid, theta_path(model))
    y_norm_T = float(report.strategy.y_norm_path()[-1])
    norm_bound_ok = y_norm_T <= b + 1e-10
    slack = es_slack_path(report.strategy, model, risk)
    diag = {
        "m_star": m_star,
        "chi": chi,
        "cross_term_correction": correction,
        "M_hat_theta_T": float(m_hat_theta_T),
        "y_norm_T": y_norm_T,
        "norm_budget": b,
        "norm_bound_ok": norm_bound_ok,
        "min_slack": float(slack.min()),
    }
    return ConstraintCertificate(
        kind=RiskKind.ES,
        active=not (lhs <= risk.kappa and norm_bound_ok),
        condition_lhs=lhs,
        condition_rhs=risk.kappa,
        rho_star=None,
        kappa_range=(max(0.0, lhs), 1.0),
        report=report,
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# Distinct gammas: consume everything
# ---------------------------------------------------------------------------

@dataclass
class DiffGammaReport:
    """Consume-all solution and its upper-bound data for gamma1 != gamma2."""

    strategy: Strategy
    eta_kappa: float            # consumed fraction 1 - exp(-V_T)
    eta_grid: np.ndarray
    rho_eta: np.ndarray         # feasible allocation budget along eta
    M_hat: np.ndarray           # upper-bound curve along eta
    v_star: np.ndarray
    J_upper: float              # M_hat at eta = kappa
    condition_ok: bool
    diagnostics: dict = field(default_factory=dict)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    inv_phi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def solve_diff_gamma(model: MarketModel, utility: UtilitySpec, risk: RiskSpec,
                     x: float = 1.0, force: bool = False) -> DiffGammaReport:
    """Optimal rule for 0 < gamma1 != gamma2 < 1 under a VaR or ES limit.

    Under the level condition on |q_beta| the cost is bounded by
    M(x, eta) = x^g1 eta^g1 ||ghat1||_{q1,T} + x^g2 (1 - eta)^g2 ghat2(T)
    over consumed fractions eta <= kappa, and the bound is attained by
    y* = 0 with the explicit consumption rate
    v*_t = kappa ghat1^{q1}(t) / (||ghat1||_{q1,T}^{q1} - kappa
    ||ghat1||_{q1,t}^{q1}).
    """
    check_initial_wealth(x)
    g1, g2 = utility.gamma1, utility.gamma2
    if g1 == g2 or g1 >= 1.0 or g2 >= 1.0:
        raise ValueError("solve_diff_gamma needs distinct gammas in (0, 1)")
    lev = _effective_or_assumption_j(model, risk)
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

    def m_hat_prime(eta: float) -> float:
        return (g1 * x**g1 * eta ** (g1 - 1.0) * norm1
                - g2 * x**g2 * (1.0 - eta) ** (g2 - 1.0) * ghat2_T)

    eta_max = _golden_max(lambda e: float(m_hat(e)), 0.0, 1.0)
    kappa = risk.kappa
    problems = []
    if kappa > eta_max + 1e-12:
        problems.append(f"kappa = {kappa:.6g} exceeds argmax "
                        f"{eta_max:.6g} of the upper-bound curve")

    # log-derivative of the bound, smallest over [0, kappa] (attained at
    # kappa since the bound is concave increasing there)
    eta_probe = np.linspace(1e-9, min(kappa, eta_max), 64)
    log_der = np.array([m_hat_prime(e) / float(m_hat(e)) for e in eta_probe])
    d_star = float(log_der.min())
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
        eta_kappa=eta_kappa,
        eta_grid=eta_grid,
        rho_eta=rho_eta,
        M_hat=m_hat(eta_grid),
        v_star=v_star,
        J_upper=float(m_hat(kappa)),
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
    check_initial_wealth(x)
    gamma = utility.gamma
    if gamma >= 1.0:
        raise ValueError("solve_no_consumption needs gamma < 1")
    y, pi, diag = _optimal_allocation(model, gamma)
    grid = model.grid
    h = growth_rate_path(model, gamma, y, pi)
    g = np.exp(cumtrapz(grid, h))
    rho = g[-1] / g
    strategy = Strategy(grid, y, pi, np.zeros(grid.n))
    J = x**gamma * float(g[-1])
    report = SolveReport(strategy=strategy, J_star=J, h_star=h, g=g, rho=rho,
                         chi=1.0, diagnostics=diag)
    if risk is not None:
        if risk.kind == RiskKind.VAR:
            cert = certify_var_gamma(model, utility, risk, x,
                                     report=report, chi=1.0)
        else:
            cert = certify_es_gamma(model, utility, risk, x,
                                    report=report, chi=1.0)
        report.diagnostics["certificate"] = cert
    return report
