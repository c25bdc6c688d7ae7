import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

import jumpfolio as jf
from jumpfolio.constrained import slack_path
from jumpfolio.errors import (
    AssumptionJViolated,
    ConditionViolated,
    ConfigError,
    KappaOutOfRange,
    OutOfRange,
    ThetaHatNegative,
)
from jumpfolio.market import l2_time_norm, theta_hat_path, theta_path

from conftest import make_model, make_model_2d

VAR = jf.RiskSpec("var", 0.05, 0.1)
ES = jf.RiskSpec("es", 0.05, 0.1)


@pytest.fixture
def gamma1_model():
    # positive jumps small enough to keep theta_hat nonnegative
    return make_model(mu=0.07, r=0.02, sigma=0.3, lam=0.5,
                      jump=jf.JumpDist.point_masses([0.04], [1.0]))


# ---------------------------------------------------------------------------
# Transformed constraints
# ---------------------------------------------------------------------------

def test_riskless_slack_is_log_kappa(gamma1_model):
    strat = jf.Strategy.riskless(gamma1_model)
    slack = slack_path(strat, gamma1_model, VAR)[64]   # t = 0.5
    assert slack == pytest.approx(-math.log(1.0 - VAR.kappa), abs=1e-14)
    assert slack > 0


def test_slack_grows_with_kappa(gamma1_model):
    strat = jf.Strategy.riskless(gamma1_model)
    loose = jf.RiskSpec("var", 0.05, 0.99)
    tight = jf.RiskSpec("var", 0.05, 0.5)
    assert (slack_path(strat, gamma1_model, loose)[-1]
            > slack_path(strat, gamma1_model, tight)[-1])


# ---------------------------------------------------------------------------
# gamma = 1, VaR
# ---------------------------------------------------------------------------

def test_rho_var_defining_equation(gamma1_model):
    sol = jf.rho_var_gamma1(gamma1_model, VAR)
    assert abs(sol.residual) < 1e-12
    # binding radius reproduced by an independent bracketed root search
    q = jf.normal_quantile(0.05)
    theta_norm = l2_time_norm(gamma1_model.grid, theta_path(gamma1_model))
    b = theta_norm - abs(q) - sol.drag

    def g1(rho):
        return -0.5 * rho * rho + b * rho - math.log(1.0 - VAR.kappa)

    oracle = brentq(g1, 0.0, 10.0, xtol=1e-14)
    assert sol.rho_star == pytest.approx(oracle, abs=1e-12)


def test_rho_var_pure_diffusion_reduction():
    model = make_model(mu=0.07, r=0.02, sigma=0.3, lam=0.0)
    sol = jf.rho_var_gamma1(model, VAR)
    q = abs(jf.normal_quantile(0.05))
    theta_norm = l2_time_norm(model.grid, theta_path(model))
    expected = (math.sqrt((theta_norm - q) ** 2 - 2.0 * math.log(1.0 - 0.1))
                + theta_norm - q)
    assert sol.drag == 0.0
    assert sol.rho_star == pytest.approx(expected, rel=1e-14)


def test_rho_var_kappa_floor():
    model = make_model(mu=0.27, r=0.02, sigma=0.3, lam=0.0)
    with pytest.raises(KappaOutOfRange):
        jf.rho_var_gamma1(model, jf.RiskSpec("var", 0.05, 0.01))


def test_solve_var_gamma1_zero_theta():
    model = make_model(mu=0.02, r=0.02, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.0], [1.0]))
    rep = jf.solve_var_gamma1(model, VAR, x=3.0)
    assert rep.J_star == pytest.approx(3.0 * math.exp(0.02), rel=1e-14)
    assert np.all(rep.strategy.y == 0.0)
    assert rep.diagnostics["case"] == "box"


def test_solve_var_gamma1_feasibility_and_binding(gamma1_model):
    rep = jf.solve_var_gamma1(gamma1_model, VAR)
    slack = slack_path(rep.strategy, gamma1_model, VAR)
    assert slack.min() >= -1e-10
    assert rep.diagnostics["case"] == "directional"
    assert abs(rep.diagnostics["slack_at_T"]) < 1e-10


def _rising_drift_model():
    # mu climbs from 0.03 to 0.30 over five nodes: pi = 1 breaks a tight
    # limit, and the ray theta_t / ||theta||_T at rho* peaks above 1
    grid = jf.TimeGrid.uniform(1.0, 5)
    coeffs = jf.CoefficientPath(r=np.full(5, 0.02),
                                mu=np.linspace(0.03, 0.30, 5)[:, None],
                                sigma=np.full((5, 1, 1), 0.3))
    return jf.MarketModel(grid, coeffs, jf.JumpSpec.none(1))


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("kind", ["var", "es"])
def test_gamma1_solves_refuse_an_out_of_box_optimum(kind, force):
    # |q| >= 2 ||theta||_T, so the ES level condition holds
    model = _rising_drift_model()
    risk = jf.RiskSpec(kind, 0.05, 0.3)
    if kind == "var":
        solve = lambda: jf.solve_var_gamma1(model, risk)
    else:
        solve = lambda: jf.solve_es_gamma1(model, risk, force=force)
    with pytest.raises(ConditionViolated, match=r"\[0, 1\]"):
        solve()
    with pytest.raises(ConditionViolated, match=r"\[0, 1\]"):
        jf.adjusted_solve(model, risk, jf.UtilitySpec(1.0, 1.0), force=force)


@pytest.mark.parametrize("kind, kappa", [("var", 0.3), ("es", 0.4)])
def test_gamma1_solves_return_a_feasible_box_optimum(kind, kappa):
    # the ray at rho* would put pi above 1 on a two-year horizon, but the
    # box optimum pi = 1 meets the limit
    model = make_model(n=65, horizon=2.0, mu=0.10, sigma=0.2)
    risk = jf.RiskSpec(kind, 0.05, kappa)
    rep = jf.adjusted_solve(model, risk, jf.UtilitySpec(1.0, 1.0))
    assert rep.diagnostics["case"] == "box"
    assert np.all(rep.strategy.pi == 1.0)
    assert rep.J_star == pytest.approx(1.2214028, abs=1e-7)
    assert rep.J_star == pytest.approx(
        jf.cost_function(model, jf.UtilitySpec(1.0, 1.0), rep.strategy, 1.0),
        rel=1e-14)
    assert slack_path(rep.strategy, model, risk).min() >= -1e-10
    assert rep.diagnostics["min_slack"] >= -1e-10


_NAMED_ENTRY_POINTS = {
    "solve_var_gamma1": (ES, lambda m, risk: jf.solve_var_gamma1(m, risk)),
    "solve_es_gamma1": (VAR, lambda m, risk: jf.solve_es_gamma1(m, risk)),
    "certify_var_gamma": (ES, lambda m, risk: jf.certify_var_gamma(
        m, jf.UtilitySpec.equal(0.5), risk)),
    "certify_es_gamma": (VAR, lambda m, risk: jf.certify_es_gamma(
        m, jf.UtilitySpec.equal(0.5), risk)),
}


@pytest.mark.parametrize("name", sorted(_NAMED_ENTRY_POINTS))
def test_named_entry_points_refuse_a_limit_of_the_other_kind(gamma1_model,
                                                             name,
                                                             monkeypatch):
    # the refusal comes before any solve
    for solver in ("_optimal_allocation", "solve_power_equal",
                   "rho_var_gamma1", "rho_es_gamma1"):
        monkeypatch.setattr(f"jumpfolio.constrained.{solver}", None)
    risk, call = _NAMED_ENTRY_POINTS[name]
    with pytest.raises(ConfigError, match=name):
        call(gamma1_model, risk)


def test_solve_var_gamma1_rejects_negative_theta_hat():
    model = make_model(mu=0.05, r=0.02, sigma=0.3, lam=1.0,
                       jump=jf.JumpDist.point_masses([0.08], [1.0]))
    with pytest.raises(ThetaHatNegative):
        jf.solve_var_gamma1(model, VAR)


def test_solve_var_gamma1_rejects_negative_jumps_without_method(mixed_jump_1d):
    with pytest.raises(AssumptionJViolated):
        jf.solve_var_gamma1(mixed_jump_1d, VAR)


def test_var_proof_function_decreasing_in_u(gamma1_model):
    sol = jf.rho_var_gamma1(gamma1_model, VAR)
    q = jf.normal_quantile(0.05)
    theta_norm = sol.theta_norm
    u = np.linspace(0.0, 1.0, 501)
    rho = sol.rho_star
    g = (-0.5 * u**2 * rho**2 + q * u * rho + u**2 * theta_norm * rho
         - rho * sol.drag)
    assert np.all(np.diff(g) < 0)


# ---------------------------------------------------------------------------
# gamma = 1, ES
# ---------------------------------------------------------------------------

def test_rho_es_small_kappa_limit(gamma1_model):
    sol = jf.rho_es_gamma1(gamma1_model, jf.RiskSpec("es", 0.05, 1e-8))
    assert 0.0 < sol.rho_star < 1e-6


def test_rho_es_root_and_scan_oracle(gamma1_model):
    sol = jf.rho_es_gamma1(gamma1_model, ES)
    assert abs(sol.residual) < 1e-12
    q = abs(jf.normal_quantile(0.05))
    theta_norm = sol.theta_norm
    target = math.log(1.0 - ES.kappa)
    rho_grid = np.linspace(0.0, 2.0 * sol.rho_star, 1_000_001)
    psi = (theta_norm * rho_grid + jf.F_beta(rho_grid + q, 0.05)
           - sol.drag * rho_grid)
    crossing = int(np.argmax(psi < target))
    assert abs(rho_grid[crossing] - sol.rho_star) <= rho_grid[1] - rho_grid[0]


def test_rho_es_condition_violated():
    model = make_model(mu=0.30, r=0.02, sigma=0.3, lam=0.0)
    with pytest.raises(ConditionViolated):
        jf.rho_es_gamma1(model, ES)


def test_solve_es_gamma1_feasible_and_conservative(gamma1_model):
    rep_es = jf.solve_es_gamma1(gamma1_model, ES)
    rep_var = jf.solve_var_gamma1(gamma1_model, VAR)
    assert slack_path(rep_es.strategy, gamma1_model, ES).min() >= -1e-10
    assert abs(rep_es.diagnostics["slack_at_T"]) < 1e-10
    # the averaged tail is the stricter measure, so the radius is smaller
    assert rep_es.diagnostics["rho_star"] < rep_var.diagnostics["rho_star"]


def test_es_proof_function_minimized_at_full_radius(gamma1_model):
    sol = jf.rho_es_gamma1(gamma1_model, ES)
    q = abs(jf.normal_quantile(0.05))
    u = np.linspace(0.0, 1.0, 1000)
    psi = (u**2 * sol.theta_norm * sol.rho_star
           + jf.F_beta(u * sol.rho_star + q, 0.05) - sol.rho_star * sol.drag)
    assert np.argmin(psi) == u.size - 1


# ---------------------------------------------------------------------------
# Equal gamma in (0, 1): certificates
# ---------------------------------------------------------------------------

def test_certify_var_near_one_kappa_inactive(jump_1d, equal_utility):
    cert = jf.certify_var_gamma(jump_1d, equal_utility,
                                jf.RiskSpec("var", 0.05, 0.999))
    assert not cert.active
    assert cert.kappa_range[0] <= 0.999 < cert.kappa_range[1]


def test_certify_var_inactive_implies_direct_feasibility(jump_1d, equal_utility):
    risk = jf.RiskSpec("var", 0.05, 0.8)
    cert = jf.certify_var_gamma(jump_1d, equal_utility, risk)
    assert not cert.active
    slack = slack_path(cert.report.strategy, jump_1d, risk)
    assert slack.min() >= -1e-10


def test_certify_var_active_for_small_kappa(jump_1d, equal_utility):
    cert = jf.certify_var_gamma(jump_1d, equal_utility,
                                jf.RiskSpec("var", 0.05, 0.05))
    assert cert.active


def test_certify_var_pure_diffusion_formula():
    model = make_model(mu=0.047, sigma=0.3, lam=0.0)
    utility = jf.UtilitySpec.equal(0.5)
    risk = jf.RiskSpec("var", 0.05, 0.8)
    cert = jf.certify_var_gamma(model, utility, risk)
    rep = jf.solve_power_equal(model, utility)
    b = utility.q * l2_time_norm(model.grid, theta_path(model))
    l_star = -b * b + jf.normal_quantile(0.05) * b
    chi = math.exp(-rep.strategy.V[-1])
    assert cert.condition_lhs == pytest.approx(1.0 - chi * math.exp(l_star),
                                               abs=2e-6)


def test_certify_es_inactive_implies_direct_feasibility(jump_1d, equal_utility):
    risk = jf.RiskSpec("es", 0.05, 0.8)
    cert = jf.certify_es_gamma(jump_1d, equal_utility, risk)
    assert not cert.active
    slack = slack_path(cert.report.strategy, jump_1d, risk)
    assert slack.min() >= -1e-10


def test_certify_es_jump_aggregate_sign(equal_utility):
    # nonnegative jumps with theta_hat >= 0 pair nonpositively
    model = make_model(mu=0.06, r=0.02, sigma=0.3, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.04], [1.0]))
    assert np.min(theta_hat_path(model)) >= 0
    cert = jf.certify_es_gamma(model, equal_utility,
                               jf.RiskSpec("es", 0.05, 0.8))
    assert cert.diagnostics["M_hat_theta_T"] <= 1e-15
    assert cert.diagnostics["cross_term_correction"] == 0.0


def test_certify_es_level_condition():
    model = make_model(mu=0.30, r=0.02, sigma=0.3, lam=0.0)
    with pytest.raises(ConditionViolated):
        jf.certify_es_gamma(model, jf.UtilitySpec.equal(0.5),
                            jf.RiskSpec("es", 0.05, 0.9))


def test_certify_rejects_negative_jumps(mixed_jump_1d, equal_utility):
    with pytest.raises(AssumptionJViolated):
        jf.certify_var_gamma(mixed_jump_1d, equal_utility, VAR)


def test_certify_var_2d():
    sigma = np.array([[0.3, 0.05], [0.0, 0.35]])
    dists = (jf.JumpDist.point_masses([0.03], [1.0]),
             jf.JumpDist.point_masses([0.05], [1.0]))
    model = make_model_2d(mu=(0.05, 0.055), sigma=sigma, lams=(0.4, 0.3),
                          dists=dists)
    risk = jf.RiskSpec("var", 0.05, 0.85)
    cert = jf.certify_var_gamma(model, jf.UtilitySpec.equal(0.5), risk)
    assert not cert.active
    assert slack_path(cert.report.strategy, model, risk).min() >= -1e-10


# ---------------------------------------------------------------------------
# Distinct gammas
# ---------------------------------------------------------------------------

@pytest.fixture
def diff_setup():
    model = make_model(n=257, mu=0.04, r=0.02, sigma=0.3, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.02], [1.0]))
    utility = jf.UtilitySpec(0.3, 0.7)
    risk = jf.RiskSpec("var", 0.01, 0.15)
    return model, utility, risk


def test_diff_gamma_consumed_fraction(diff_setup):
    model, utility, risk = diff_setup
    rep = jf.solve_diff_gamma(model, utility, risk)
    assert rep.condition_ok
    assert rep.eta_kappa == pytest.approx(risk.kappa, abs=1e-14)
    assert rep.strategy.V[-1] == pytest.approx(-math.log(1.0 - risk.kappa),
                                               abs=1e-14)
    # the exact consumption integral matches the trapezoid of v* to
    # quadrature order
    from jumpfolio.market import cumtrapz
    assert np.max(np.abs(rep.strategy.V
                         - cumtrapz(model.grid, rep.strategy.v))) < 1e-6
    assert np.all(rep.strategy.y == 0.0)


def test_diff_gamma_feasible_and_binding(diff_setup):
    model, utility, risk = diff_setup
    rep = jf.solve_diff_gamma(model, utility, risk)
    slack = slack_path(rep.strategy, model, risk)
    assert slack.min() >= -1e-10
    assert abs(slack[-1]) < 1e-12

    risk_es = jf.RiskSpec("es", 0.01, 0.15)
    rep_es = jf.solve_diff_gamma(model, utility, risk_es)
    assert rep_es.condition_ok
    slack_es = slack_path(rep_es.strategy, model, risk_es)
    assert slack_es.min() >= -1e-10
    assert abs(slack_es[-1]) < 1e-12
    cost = jf.cost_function(model, utility, rep_es.strategy, 1.0)
    assert cost == pytest.approx(rep_es.J_star, abs=1e-9)


def test_diff_gamma_flat_rate_closed_form():
    model = make_model(n=129, mu=0.02, r=0.0, sigma=0.3, lam=0.0)
    utility = jf.UtilitySpec(0.3, 0.7)
    risk = jf.RiskSpec("var", 0.01, 0.2)
    rep = jf.solve_diff_gamma(model, utility, risk)
    t = model.grid.nodes
    expected = risk.kappa / (1.0 - risk.kappa * t)
    assert np.max(np.abs(rep.strategy.v - expected)) < 1e-12


def test_diff_gamma_cost_attains_upper_bound(diff_setup):
    model, utility, risk = diff_setup
    rep = jf.solve_diff_gamma(model, utility, risk)
    cost = jf.cost_function(model, utility, rep.strategy, 1.0)
    assert cost == pytest.approx(rep.J_star, abs=1e-6)


def test_diff_gamma_dominates_random_feasible(diff_setup):
    model, utility, risk = diff_setup
    rep = jf.solve_diff_gamma(model, utility, risk)
    rng = np.random.default_rng(7)
    n = model.grid.n
    p, s = np.array([(rng.uniform(0.0, 0.3), rng.uniform(0.0, 2.0))
                     for _ in range(300)]).T
    stack = jf.Strategy.from_pi(model, np.repeat(p[:, None, None], n, axis=1),
                                s[:, None] * rep.strategy.v)
    feasible = ~(slack_path(stack, model, risk).min(axis=-1) < -1e-10)
    cost = jf.cost_function(model, utility, stack, 1.0)
    assert np.all(cost[feasible] <= rep.J_star + 1e-9)
    assert np.count_nonzero(feasible) > 50


def test_diff_gamma_upper_bound_curve_shape(diff_setup):
    model, utility, risk = diff_setup
    rep = jf.solve_diff_gamma(model, utility, risk)
    m = rep.M_hat
    second = m[2:] - 2.0 * m[1:-1] + m[:-2]
    assert np.max(second) <= 1e-10
    # budget curve decreases to zero at kappa
    assert np.all(np.diff(rep.rho_eta) < 1e-14)
    assert abs(rep.rho_eta[-1]) < 1e-10
    # G_i = fbar_i(rho(eta)) * M_hat(eta) is nondecreasing under the level
    # condition
    thh = l2_time_norm(model.grid, theta_hat_path(model))
    for g in (utility.gamma1, utility.gamma2):
        fbar = np.exp(g * thh * rep.rho_eta
                      - 0.5 * g * (1.0 - g) * rep.rho_eta**2)
        assert np.all(np.diff(fbar * m) >= -1e-12)


def test_diff_gamma_argmax_is_the_exact_root(diff_setup):
    # eta_argmax is the root of M_hat', 0.25817309013488614 by an mpmath
    # root; the log-derivative is read at the right end, kappa
    model, utility, risk = diff_setup
    rep = jf.solve_diff_gamma(model, utility, risk)
    assert abs(rep.diagnostics["eta_argmax"] - 0.25817309013488614) <= 1e-15
    g1, g2 = utility.gamma1, utility.gamma2
    norm1, k = rep.diagnostics["norm1"], risk.kappa
    ghat2_T = math.exp(g2 * 0.02)
    m_hat = k**g1 * norm1 + (1.0 - k) ** g2 * ghat2_T
    m_hat_prime = (g1 * k ** (g1 - 1.0) * norm1
                   - g2 * (1.0 - k) ** (g2 - 1.0) * ghat2_T)
    assert rep.diagnostics["log_derivative_min"] == pytest.approx(
        m_hat_prime / m_hat, rel=1e-14)


@pytest.mark.parametrize("g1, g2, x", [(0.15, 0.25, 1e-60), (0.9, 0.8, 1e26),
                                       (0.3, 0.7, 1e300), (0.99, 0.5, 1e-10)])
def test_diff_gamma_argmax_at_extreme_wealth(diff_setup, g1, g2, x):
    # argmaxes 2e-8 and 6e-14 below 1, near 1e-172, and below the smallest
    # double (read as 5e-324): M_hat' changes sign there, by the log ratio
    # of its two terms at 50 digits
    model, _, risk = diff_setup
    rep = jf.solve_diff_gamma(model, jf.UtilitySpec(g1, g2), risk, x=x,
                              force=True)
    eta, norm1 = rep.diagnostics["eta_argmax"], rep.diagnostics["norm1"]
    with mpmath.workdps(50):
        def log_ratio(e):
            return (mpmath.log(g1 * norm1 / g2) - g2 * mpmath.mpf(0.02)
                    + (g1 - g2) * mpmath.log(x) + (g1 - 1) * mpmath.log(e)
                    - (g2 - 1) * mpmath.log1p(-e))

        if eta == 5e-324:
            assert log_ratio(mpmath.mpf(eta)) < 0
        else:
            h = 1e-9 * eta if eta < 0.5 else 1e-15 + 1e-9 * (1.0 - eta)
            assert log_ratio(mpmath.mpf(eta) - h) > 0
            assert log_ratio(mpmath.mpf(eta) + h) < 0


def test_diff_gamma_condition_failures(diff_setup):
    model, utility, _ = diff_setup
    with pytest.raises(ConditionViolated):
        jf.solve_diff_gamma(model, utility, jf.RiskSpec("var", 0.01, 0.9))
    with pytest.raises(ConditionViolated):
        jf.solve_diff_gamma(model, utility, jf.RiskSpec("var", 0.5, 0.15))
    rep = jf.solve_diff_gamma(model, utility, jf.RiskSpec("var", 0.5, 0.15),
                              force=True)
    assert not rep.condition_ok


# ---------------------------------------------------------------------------
# No consumption
# ---------------------------------------------------------------------------

def test_no_consumption_merton_value():
    model = make_model(mu=0.047, r=0.02, sigma=0.3, lam=0.0)
    utility = jf.UtilitySpec.equal(0.5)
    rep = jf.solve_no_consumption(model, utility, x=1.0)
    gamma, q = 0.5, 2.0
    theta0 = (0.047 - 0.02) / 0.3
    h = gamma * 0.02 + 0.5 * gamma * q * theta0**2
    assert rep.J_star == pytest.approx(math.exp(h), rel=1e-10)
    assert np.all(rep.strategy.v == 0.0)
    merton = theta0 / ((1.0 - gamma) * 0.3)
    assert np.max(np.abs(rep.strategy.pi - merton)) < 1e-12


def test_no_consumption_rho_is_linear_ode(jump_1d):
    utility = jf.UtilitySpec.equal(0.5)
    rep = jf.solve_no_consumption(jump_1d, utility)
    rho, h = rep.rho, rep.h_star
    dt = jump_1d.grid.dt[0]
    drho = (rho[2:] - rho[:-2]) / (2.0 * dt)
    resid = drho + rho[1:-1] * h[1:-1]
    assert np.max(np.abs(resid)) < 5e-5
    assert rep.rho[-1] == 1.0


def test_no_consumption_grid_dominance(jump_1d):
    utility = jf.UtilitySpec.equal(0.5)
    rep = jf.solve_no_consumption(jump_1d, utility)
    oracle = jf.grid_oracle(jump_1d, utility, None, 1.0,
                            np.linspace(0.0, 1.0, 101), np.array([0.0]))
    assert rep.J_star >= oracle.J - 1e-9


def test_no_consumption_certificate(jump_1d):
    utility = jf.UtilitySpec.equal(0.5)
    risk = jf.RiskSpec("var", 0.05, 0.6)
    rep = jf.solve_no_consumption(jump_1d, utility, risk)
    cert = rep.diagnostics["certificate"]
    assert not cert.active
    assert slack_path(rep.strategy, jump_1d, risk).min() >= -1e-10


# ---------------------------------------------------------------------------
# Initial wealth
# ---------------------------------------------------------------------------

_SOLVER_CALLS = {
    "solve_linear": lambda m, x: jf.solve_linear(m, x),
    "solve_power_1d": lambda m, x: jf.solve_power_1d(
        m, jf.UtilitySpec.equal(0.5), x),
    "solve_power_equal": lambda m, x: jf.solve_power_equal(
        m, jf.UtilitySpec.equal(0.5), x),
    "solve_no_consumption": lambda m, x: jf.solve_no_consumption(
        m, jf.UtilitySpec.equal(0.5), None, x),
    "solve_var_gamma1": lambda m, x: jf.solve_var_gamma1(m, VAR, x),
    "solve_es_gamma1": lambda m, x: jf.solve_es_gamma1(m, ES, x),
    "certify_var_gamma": lambda m, x: jf.certify_var_gamma(
        m, jf.UtilitySpec.equal(0.5), VAR, x),
    "certify_es_gamma": lambda m, x: jf.certify_es_gamma(
        m, jf.UtilitySpec.equal(0.5), ES, x),
    "solve_diff_gamma": lambda m, x: jf.solve_diff_gamma(
        m, jf.UtilitySpec(0.3, 0.6), VAR, x),
    "adjusted_solve": lambda m, x: jf.adjusted_solve(
        m, VAR, jf.UtilitySpec.equal(0.5), x),
    "adjusted_solve_linear": lambda m, x: jf.adjusted_solve(
        m, None, jf.UtilitySpec(1.0, 1.0), x),
    "adjusted_solve_power_equal": lambda m, x: jf.adjusted_solve(
        m, None, jf.UtilitySpec.equal(0.5), x),
    "cost_function": lambda m, x: jf.cost_function(
        m, jf.UtilitySpec.equal(0.5), jf.Strategy.riskless(m), x),
}


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(_SOLVER_CALLS))
def test_solvers_reject_bad_initial_wealth(gamma1_model, name, x):
    with pytest.raises(OutOfRange):
        _SOLVER_CALLS[name](gamma1_model, x)


# ---------------------------------------------------------------------------
# The dispatcher without a risk spec
# ---------------------------------------------------------------------------

_UNCONSTRAINED = {
    "solve_linear": (jf.UtilitySpec(1.0, 1.0),
                     lambda m, u: jf.solve_linear(m)),
    "solve_power_equal": (jf.UtilitySpec.equal(0.5), jf.solve_power_equal),
}


@pytest.mark.parametrize("name", sorted(_UNCONSTRAINED))
def test_adjusted_solve_without_risk_is_the_unconstrained_solve(jump_1d,
                                                                name):
    utility, solve = _UNCONSTRAINED[name]
    got = jf.adjusted_solve(jump_1d, None, utility)
    want = solve(jump_1d, utility)
    assert type(got) is type(want)
    assert got.J_star == want.J_star
    for path in ("y", "pi", "v", "V"):
        assert (getattr(got.strategy, path).tobytes()
                == getattr(want.strategy, path).tobytes())


def test_adjusted_solve_without_risk_refuses_distinct_gammas(jump_1d):
    with pytest.raises(ConditionViolated, match="distinct gammas"):
        jf.adjusted_solve(jump_1d, None, jf.UtilitySpec(0.3, 0.7))
