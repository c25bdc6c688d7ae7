import dataclasses
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

import jumpfolio as jf
from jumpfolio import constrained
from jumpfolio.constrained import _ray_radius, slack_path
from jumpfolio.errors import (
    AssumptionJViolated,
    ConditionViolated,
    KappaOutOfRange,
    OutOfRange,
    ThetaHatNegative,
)
from jumpfolio.market import l2_time_norm, theta_hat_path, theta_path

from conftest import make_model, make_model_2d

VAR = jf.RiskSpec("var", 0.05, 0.1)
ES = jf.RiskSpec("es", 0.05, 0.1)


def _ray(model, risk):
    """rho_star, residual, theta_norm and drag of a gamma = 1 solve whose
    box optimum breaks the limit, read from its diagnostics."""
    diag = jf.solve_gamma1(model, risk).diagnostics
    assert diag["case"] == "directional"
    return SimpleNamespace(
        rho_star=diag["rho_star"], residual=diag["rho_residual"],
        theta_norm=l2_time_norm(model.grid, theta_path(model)),
        drag=diag["drag"])


def _radius(model, risk):
    """The same four numbers from the radius step alone, for markets whose
    box optimum may meet the limit."""
    return SimpleNamespace(**dict(zip(
        ("rho_star", "residual", "theta_norm", "drag"),
        _ray_radius(model, risk, False))))


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
    sol = _ray(gamma1_model, VAR)
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
    sol = _ray(model, VAR)
    q = abs(jf.normal_quantile(0.05))
    theta_norm = l2_time_norm(model.grid, theta_path(model))
    expected = (math.sqrt((theta_norm - q) ** 2 - 2.0 * math.log(1.0 - 0.1))
                + theta_norm - q)
    assert sol.drag == 0.0
    assert sol.rho_star == pytest.approx(expected, rel=1e-14)


def test_rho_var_kappa_floor():
    model = make_model(mu=0.27, r=0.02, sigma=0.3, lam=0.0)
    with pytest.raises(KappaOutOfRange):
        _radius(model, jf.RiskSpec("var", 0.05, 0.01))


def test_solve_var_gamma1_zero_theta():
    model = make_model(mu=0.02, r=0.02, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.0], [1.0]))
    rep = jf.solve_gamma1(model, VAR, x=3.0)
    assert rep.J_star == pytest.approx(3.0 * math.exp(0.02), rel=1e-14)
    assert np.all(rep.strategy.y == 0.0)
    assert rep.diagnostics["case"] == "box"


def test_solve_var_gamma1_feasibility_and_binding(gamma1_model):
    rep = jf.solve_gamma1(gamma1_model, VAR)
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
    with pytest.raises(ConditionViolated, match=r"\[0, 1\]"):
        jf.solve_gamma1(model, risk, force=force)
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
    "solve_var_gamma1": (jf.solve_gamma1, ES),
    "solve_es_gamma1": (jf.solve_gamma1, VAR),
    "certify_var_gamma": (jf.certify, ES),
    "certify_es_gamma": (jf.certify, VAR),
}


@pytest.mark.parametrize("name", sorted(_NAMED_ENTRY_POINTS))
def test_named_entry_points_answer_for_the_spec_kind(gamma1_model, name):
    # each name is the one function, so a limit of the other kind is
    # answered at its own kind's radius or exponent; the package root
    # exports only the one function
    function, risk = _NAMED_ENTRY_POINTS[name]
    named = getattr(constrained, name)
    assert named is function
    assert not hasattr(jf, name)
    if function is jf.certify:
        utility = jf.UtilitySpec.equal(0.5)
        got = named(gamma1_model, utility, risk)
        want = jf.certify(gamma1_model, utility, risk)
        assert got.kind == want.kind == risk.kind
        assert got.active == want.active
        assert got.condition_lhs == want.condition_lhs
        return
    got = named(gamma1_model, risk)
    want = jf.adjusted_solve(gamma1_model, risk, jf.UtilitySpec(1.0, 1.0))
    assert got.J_star == want.J_star
    assert got.strategy.pi.tobytes() == want.strategy.pi.tobytes()
    assert got.diagnostics["rho_star"] == want.diagnostics["rho_star"]
    assert got.diagnostics["rho_star"] == _radius(gamma1_model,
                                                  risk).rho_star
    other = VAR if risk.kind == jf.RiskKind.ES else ES
    assert got.diagnostics["rho_star"] != _radius(gamma1_model,
                                                  other).rho_star


def test_solve_var_gamma1_rejects_negative_theta_hat():
    model = make_model(mu=0.05, r=0.02, sigma=0.3, lam=1.0,
                       jump=jf.JumpDist.point_masses([0.08], [1.0]))
    with pytest.raises(ThetaHatNegative):
        jf.solve_gamma1(model, VAR)


def test_solve_var_gamma1_rejects_negative_jumps_without_method(mixed_jump_1d):
    with pytest.raises(AssumptionJViolated):
        jf.solve_gamma1(mixed_jump_1d, VAR)


def test_var_proof_function_decreasing_in_u(gamma1_model):
    sol = _ray(gamma1_model, VAR)
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
    sol = _ray(gamma1_model, jf.RiskSpec("es", 0.05, 1e-8))
    assert 0.0 < sol.rho_star < 1e-6


def test_rho_es_root_and_scan_oracle(gamma1_model):
    sol = _ray(gamma1_model, ES)
    assert abs(sol.residual) < 1e-12
    q = abs(jf.normal_quantile(0.05))
    theta_norm = sol.theta_norm
    target = math.log(1.0 - ES.kappa)
    rho_grid = np.linspace(0.0, 2.0 * sol.rho_star, 1_000_001)
    psi = (theta_norm * rho_grid + jf.F_beta(rho_grid + q, 0.05)
           - sol.drag * rho_grid)
    crossing = int(np.argmax(psi < target))
    assert abs(rho_grid[crossing] - sol.rho_star) <= rho_grid[1] - rho_grid[0]


def test_rho_es_doubles_its_bracket_past_one():
    # a loose limit on a jump-free market puts the root beyond [0, 1]
    model = make_model(n=33)
    sol = _radius(model, jf.RiskSpec("es", 0.05, 0.95))
    assert sol.rho_star == pytest.approx(1.2274, abs=1e-4)
    assert abs(sol.residual) < 1e-12
    q = abs(jf.normal_quantile(0.05))
    psi = sol.theta_norm * sol.rho_star + jf.F_beta(sol.rho_star + q, 0.05)
    assert abs(psi - math.log(0.05)) < 1e-12


def test_rho_es_refuses_a_radius_beyond_its_bracket():
    # ||theta||_T is about 1e60, so the ES radius lies beyond 2^200
    model = make_model_2d(n=33, mu=(1.02, 0.52),
                          sigma=((1e-60, 0.0), (0.0, 1e60)))
    with pytest.raises(ConditionViolated, match="could not bracket"):
        jf.solve_gamma1(model, jf.RiskSpec("es", 0.05, 0.2), force=True)


def test_rho_es_condition_violated():
    model = make_model(mu=0.30, r=0.02, sigma=0.3, lam=0.0)
    with pytest.raises(ConditionViolated):
        jf.solve_gamma1(model, ES)


def test_solve_es_gamma1_feasible_and_conservative(gamma1_model):
    rep_es = jf.solve_gamma1(gamma1_model, ES)
    rep_var = jf.solve_gamma1(gamma1_model, VAR)
    assert slack_path(rep_es.strategy, gamma1_model, ES).min() >= -1e-10
    assert abs(rep_es.diagnostics["slack_at_T"]) < 1e-10
    # the averaged tail is the stricter measure, so the radius is smaller
    assert rep_es.diagnostics["rho_star"] < rep_var.diagnostics["rho_star"]


def test_es_proof_function_minimized_at_full_radius(gamma1_model):
    sol = _ray(gamma1_model, ES)
    q = abs(jf.normal_quantile(0.05))
    u = np.linspace(0.0, 1.0, 1000)
    psi = (u**2 * sol.theta_norm * sol.rho_star
           + jf.F_beta(u * sol.rho_star + q, 0.05) - sol.rho_star * sol.drag)
    assert np.argmin(psi) == u.size - 1


# ---------------------------------------------------------------------------
# Equal gamma in (0, 1): certificates
# ---------------------------------------------------------------------------

def test_certify_var_near_one_kappa_inactive(jump_1d, equal_utility):
    cert = jf.certify(jump_1d, equal_utility,
                      jf.RiskSpec("var", 0.05, 0.999))
    assert not cert.active
    assert cert.kappa_lo <= 0.999 < cert.kappa_hi


def test_certify_var_inactive_implies_direct_feasibility(jump_1d, equal_utility):
    risk = jf.RiskSpec("var", 0.05, 0.8)
    cert = jf.certify(jump_1d, equal_utility, risk)
    assert not cert.active
    slack = slack_path(cert.report.strategy, jump_1d, risk)
    assert slack.min() >= -1e-10


def test_certify_var_active_for_small_kappa(jump_1d, equal_utility):
    cert = jf.certify(jump_1d, equal_utility,
                      jf.RiskSpec("var", 0.05, 0.05))
    assert cert.active


def test_certify_var_pure_diffusion_formula():
    model = make_model(mu=0.047, sigma=0.3, lam=0.0)
    utility = jf.UtilitySpec.equal(0.5)
    risk = jf.RiskSpec("var", 0.05, 0.8)
    cert = jf.certify(model, utility, risk)
    rep = jf.solve_power_equal(model, utility)
    b = utility.q * l2_time_norm(model.grid, theta_path(model))
    l_star = -b * b + jf.normal_quantile(0.05) * b
    chi = math.exp(-rep.strategy.V[-1])
    assert cert.condition_lhs == pytest.approx(1.0 - chi * math.exp(l_star),
                                               abs=2e-6)


def test_certify_es_inactive_implies_direct_feasibility(jump_1d, equal_utility):
    risk = jf.RiskSpec("es", 0.05, 0.8)
    cert = jf.certify(jump_1d, equal_utility, risk)
    assert not cert.active
    slack = slack_path(cert.report.strategy, jump_1d, risk)
    assert slack.min() >= -1e-10


def test_certify_es_cross_term_decides_the_verdict():
    # the optimum breaks this limit, and only the cross-term correction c
    # says so: without it the bound would read 1 - chi exp(m*) <= kappa
    # with the norm budget met, an inactive certificate
    model = make_model(n=33, horizon=2.2, r=0.0116, mu=0.0922, sigma=0.422,
                       lam=1.48, jump=jf.JumpDist.point_masses([0.178], [1.0]))
    risk = jf.RiskSpec("es", 0.087, 0.836)
    cert = jf.certify(model, jf.UtilitySpec.equal(0.657), risk)
    diag = cert.diagnostics
    assert cert.active
    assert cert.condition_lhs == pytest.approx(0.9636, abs=1e-4)
    assert diag["cross_term_correction"] < 0.0
    assert diag["norm_bound_ok"]
    assert 1.0 - diag["chi"] * math.exp(diag["m_star"]) == pytest.approx(
        0.8186, abs=1e-4)
    slack = slack_path(cert.report.strategy, model, risk).min()
    assert slack == pytest.approx(-0.989, abs=1e-3)


def test_certify_es_jump_aggregate_sign(equal_utility):
    # nonnegative jumps with theta_hat >= 0 pair nonpositively
    model = make_model(mu=0.06, r=0.02, sigma=0.3, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.04], [1.0]))
    assert np.min(theta_hat_path(model)) >= 0
    cert = jf.certify(model, equal_utility,
                      jf.RiskSpec("es", 0.05, 0.8))
    assert cert.diagnostics["M_hat_theta_T"] <= 1e-15
    assert cert.diagnostics["cross_term_correction"] == 0.0


def test_certify_es_level_condition():
    model = make_model(mu=0.30, r=0.02, sigma=0.3, lam=0.0)
    with pytest.raises(ConditionViolated):
        jf.certify(model, jf.UtilitySpec.equal(0.5),
                   jf.RiskSpec("es", 0.05, 0.9))


def test_certify_rejects_negative_jumps(mixed_jump_1d, equal_utility):
    with pytest.raises(AssumptionJViolated):
        jf.certify(mixed_jump_1d, equal_utility, VAR)


def test_certify_var_2d():
    sigma = np.array([[0.3, 0.05], [0.0, 0.35]])
    dists = (jf.JumpDist.point_masses([0.03], [1.0]),
             jf.JumpDist.point_masses([0.05], [1.0]))
    model = make_model_2d(mu=(0.05, 0.055), sigma=sigma, lams=(0.4, 0.3),
                          dists=dists)
    risk = jf.RiskSpec("var", 0.05, 0.85)
    cert = jf.certify(model, jf.UtilitySpec.equal(0.5), risk)
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
    assert rep.diagnostics["condition_ok"]
    assert rep.diagnostics["eta_kappa"] == pytest.approx(risk.kappa, abs=1e-14)
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
    assert rep_es.diagnostics["condition_ok"]
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
    m, rho_eta = rep.diagnostics["M_hat"], rep.diagnostics["rho_eta"]
    second = m[2:] - 2.0 * m[1:-1] + m[:-2]
    assert np.max(second) <= 1e-10
    # budget curve decreases to zero at kappa
    assert np.all(np.diff(rho_eta) < 1e-14)
    assert abs(rho_eta[-1]) < 1e-10
    # G_i = fbar_i(rho(eta)) * M_hat(eta) is nondecreasing under the level
    # condition
    thh = l2_time_norm(model.grid, theta_hat_path(model))
    for g in (utility.gamma1, utility.gamma2):
        fbar = np.exp(g * thh * rho_eta - 0.5 * g * (1.0 - g) * rho_eta**2)
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
    assert not rep.diagnostics["condition_ok"]


def test_diff_gamma_var_level_takes_the_larger_gamma():
    # the paper's VaR level ||theta_hat||_T (1 + max(g1, g2) / ((1 - kappa)
    # D*)) is 2.3285 here, above |q_beta| = 1.6449, so the market is
    # refused; the level with min(g1, g2), 1.3217, would admit it
    model = make_model(n=33, r=0.02, mu=0.2, sigma=0.3, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.02], [1.0]))
    utility = jf.UtilitySpec(0.3, 0.7)
    risk = jf.RiskSpec("var", 0.05, 0.15)
    with pytest.raises(ConditionViolated, match="below the required level"):
        jf.solve_diff_gamma(model, utility, risk)
    diag = jf.solve_diff_gamma(model, utility, risk, force=True).diagnostics
    thh = l2_time_norm(model.grid, theta_hat_path(model))
    min_level = thh + thh * 0.3 / ((1.0 - 0.15) * diag["log_derivative_min"])
    assert min_level < diag["q_abs"] < diag["required_q_abs"]


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
    rho, h = rep.diagnostics["rho"], rep.diagnostics["h_star"]
    dt = jump_1d.grid.dt[0]
    drho = (rho[2:] - rho[:-2]) / (2.0 * dt)
    resid = drho + rho[1:-1] * h[1:-1]
    assert np.max(np.abs(resid)) < 5e-5
    assert rho[-1] == 1.0


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
# Finite inputs whose scalar formulas overflow
# ---------------------------------------------------------------------------

def _overflowing_diff_gamma():
    # g2 R_T = 770 overflows exp(g2 R_T) = ghat2(T)
    model = make_model(n=257, r=1100.0, mu=1100.02, sigma=0.3)
    return jf.solve_diff_gamma(model, jf.UtilitySpec(0.3, 0.7),
                               jf.RiskSpec("var", 0.01, 0.15))


def _overflowing_ghat1_power():
    # ||ghat1||_{q1,T} = (int exp(g1 q1 R_t) dt)^(1/q1) is about
    # exp(g1 R_T) = exp(770), one term of M_hat, while g2 R_T = 330 keeps
    # ghat2(T) finite
    model = make_model(n=17, r=1100.0, mu=1100.04, sigma=0.3)
    return jf.solve_diff_gamma(model, jf.UtilitySpec(0.7, 0.3),
                               jf.RiskSpec("var", 0.01, 0.15))


def _overflowing_growth_factor():
    # h* is about 750, so g(T) = exp(int h*) overflows itself
    model = make_model(n=17, r=1500.0, mu=1500.07, sigma=0.3)
    return jf.solve_no_consumption(model, jf.UtilitySpec.equal(0.5))


def _overflowing_gamma1_value():
    # R_T = 720: the box optimum's J* = x exp(R_T + int (mu - r)^+), which
    # the gamma = 1 solvers cost first, overflows before the ray's
    # J* = x exp(R_T + ||theta||_T rho*) is reached
    model = make_model(r=720.0, mu=720.07, sigma=0.3, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.04], [1.0]))
    return jf.solve_gamma1(model, VAR)


def _overflowing_linear_value():
    # solve_linear's J* = x exp(R_T + int (mu - r)^+) at R_T = 720
    return jf.solve_linear(make_model(r=720.0, mu=720.07, sigma=0.3))


def _overflowing_gamma1_box():
    # a limit the box optimum meets, so its overflowing J* is the answer
    model = make_model(r=720.0, mu=720.07, sigma=0.3)
    return jf.solve_gamma1(model, jf.RiskSpec("var", 0.05, 0.99))


@pytest.mark.parametrize("solve", [_overflowing_diff_gamma,
                                   _overflowing_ghat1_power,
                                   _overflowing_growth_factor,
                                   _overflowing_gamma1_value,
                                   _overflowing_linear_value,
                                   _overflowing_gamma1_box])
def test_overflowing_scalar_formulas_raise_out_of_range(solve):
    with pytest.raises(OutOfRange, match="overflows"):
        solve()


def test_a_ghat1_power_past_the_float_range_is_answered():
    # g1 q1 R_T = 0.7 / 0.3 * 400 = 933: ghat1^{q1} and its integral pass
    # the float range, but the law reads them in logs, and M_hat's terms
    # ||ghat1||_{q1,T} (about exp(280)) and ghat2(T) = exp(120) are floats
    model = make_model(n=17, r=400.0, mu=400.04, sigma=0.3)
    kappa = 0.15
    rep = jf.solve_diff_gamma(model, jf.UtilitySpec(0.7, 0.3),
                              jf.RiskSpec("var", 0.01, kappa))
    mpmath.mp.dps = 40
    t = [mpmath.mpf(float(s)) for s in model.grid.nodes]
    f = [mpmath.exp(mpmath.mpf(0.7) / mpmath.mpf(0.3) * 400 * s) for s in t]
    A_T = sum((f[k] + f[k + 1]) * (t[k + 1] - t[k]) / 2 for k in range(16))
    m_hat = (kappa**0.7 * A_T ** mpmath.mpf(0.3)
             + (1 - kappa) ** 0.3 * mpmath.exp(mpmath.mpf(0.3) * 400))
    assert rep.J_star == pytest.approx(float(m_hat), rel=1e-12)
    assert rep.J_star == pytest.approx(3.75e120, rel=1e-3)
    assert rep.strategy.V[-1] == pytest.approx(-math.log1p(-kappa),
                                               rel=1e-13)
    assert np.all(np.isfinite(rep.strategy.v))


def test_the_var_kappa_floor_is_zero_where_its_exponential_overflows():
    # 0.5 q_beta^2 is about 720 at beta = 1e-315 and ||theta||_T is tiny,
    # so exp(0.5 q^2 - |q| ||theta||_T) would overflow; the floor
    # 1 - exp(...) is 0 once the exponent passes 0, and the ray is answered
    model = make_model(r=0.02, mu=0.0201, sigma=0.3)
    rep = jf.solve_gamma1(model, jf.RiskSpec("var", 1e-315, 0.1))
    assert rep.diagnostics["case"] == "directional"
    assert rep.diagnostics["rho_star"] == pytest.approx(0.0027768809711545828,
                                                        rel=1e-12)
    assert abs(rep.diagnostics["rho_residual"]) < 1e-12
    assert rep.strategy.pi == pytest.approx(0.00925627, rel=1e-6)
    assert rep.diagnostics["min_slack"] >= -1e-10


def _refused_by_the_limit(model):
    """The equal-gamma optimum, after checking that adjusted_solve refuses
    it under VAR, whose limit it breaks."""
    with pytest.raises(ConditionViolated, match="certificate failed"):
        jf.adjusted_solve(model, VAR, jf.UtilitySpec.equal(0.5))
    return jf.solve_power_equal(model, jf.UtilitySpec.equal(0.5))


@pytest.mark.parametrize("solve", [
    lambda m: jf.solve_power_equal(m, jf.UtilitySpec.equal(0.5)),
    lambda m: jf.certify(m, jf.UtilitySpec.equal(0.5), VAR).report,
    _refused_by_the_limit,
], ids=["solve_power_equal", "certify_var_gamma", "adjusted_solve"])
@pytest.mark.parametrize("r, mu", [(720.0, 720.07), (-1100.0, -1099.9)],
                         ids=["overflow", "underflow"])
def test_a_power_of_g_outside_the_float_range_raises_out_of_range(solve, r,
                                                                  mu):
    # h* is about r / 2, so g^q = g^2 reaches exp(+-r) and leaves the float
    # range.  The consumption law reads it in logs, so no OutOfRange comes
    # of it: J* = x^gamma rho(0) is a float, and each entry point answers
    # or refuses for its own reason, adjusted_solve since the optimum
    # breaks the limit.
    rep = solve(make_model(n=17, r=r, mu=mu, sigma=0.3))
    assert 0.0 < rep.J_star < math.inf
    assert np.all(np.isfinite(rep.strategy.v))
    assert rep.chi == math.exp(-rep.strategy.V[-1])


@pytest.mark.parametrize("solve", [jf.solve_no_consumption,
                                   jf.solve_power_equal])
def test_an_underflowing_growth_factor_raises_out_of_range(solve):
    # h* is about r / 2 = -800, so g = exp(int h*) underflows before T.
    # Only the terminal-wealth value J* = x^gamma g(T) leaves the float
    # range; the consuming solve reads g in logs and answers J* = rho(0),
    # the root of g^q(T) + int g^q, here sqrt(dt / 2) to rounding.
    model = make_model(n=17, r=-1600.0, mu=-1599.9, sigma=0.3)
    if solve is jf.solve_no_consumption:
        with pytest.raises(OutOfRange, match=r"J\* = 0\.0 is not"):
            solve(model, jf.UtilitySpec.equal(0.5))
        return
    rep = solve(model, jf.UtilitySpec.equal(0.5))
    assert rep.J_star == pytest.approx(math.sqrt(1.0 / 32.0), rel=1e-15)
    assert np.all(np.isfinite(rep.strategy.v))


def test_underflowing_ghat2_raises_out_of_range():
    # g2 R_T = -770 underflows ghat2(T) = exp(g2 R_T) to 0.0.  The argmax
    # of the upper-bound curve reads ln ghat2(T), so no OutOfRange comes of
    # it: the level condition refuses the market (|q_beta| 2.33 against a
    # required 5177), and forced, M_hat is its first term alone.
    model = make_model(n=17, r=-1100.0, mu=0.04, sigma=0.3)
    utility, risk = jf.UtilitySpec(0.3, 0.7), jf.RiskSpec("var", 0.01, 0.15)
    with pytest.raises(ConditionViolated, match="required level 5176"):
        jf.solve_diff_gamma(model, utility, risk)
    rep = jf.solve_diff_gamma(model, utility, risk, force=True)
    assert rep.diagnostics["eta_argmax"] == 1.0
    assert rep.J_star == 0.15**0.3 * rep.diagnostics["norm1"]


# ---------------------------------------------------------------------------
# Initial wealth
# ---------------------------------------------------------------------------

_SOLVER_CALLS = {
    "solve_linear": lambda m, x: jf.solve_linear(m, x),
    "solve_power_equal": lambda m, x: jf.solve_power_equal(
        m, jf.UtilitySpec.equal(0.5), x),
    "solve_no_consumption": lambda m, x: jf.solve_no_consumption(
        m, jf.UtilitySpec.equal(0.5), None, x),
    "solve_var_gamma1": lambda m, x: jf.solve_gamma1(m, VAR, x),
    "solve_es_gamma1": lambda m, x: jf.solve_gamma1(m, ES, x),
    "certify_var_gamma": lambda m, x: jf.certify(
        m, jf.UtilitySpec.equal(0.5), VAR, x),
    "certify_es_gamma": lambda m, x: jf.certify(
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


# ---------------------------------------------------------------------------
# One report shape: scalar fields, every path or curve a named diagnostic
# ---------------------------------------------------------------------------

_EQUAL = jf.UtilitySpec.equal(0.5)
_REPORT_CASES = {
    "linear": (lambda m, u, r: jf.solve_linear(m), ()),
    "gamma1": (lambda m, u, r: jf.solve_gamma1(m, r), ()),
    "power_equal": (lambda m, u, r: jf.solve_power_equal(m, _EQUAL),
                    ("h_star", "log_g", "rho")),
    "no_consumption": (lambda m, u, r: jf.solve_no_consumption(m, _EQUAL),
                       ("h_star", "log_g", "rho")),
    "diff_gamma": (jf.solve_diff_gamma, ("eta_grid", "rho_eta", "M_hat")),
    "certify": (lambda m, u, r: jf.certify(m, _EQUAL, r), ()),
}


@pytest.mark.parametrize("family", sorted(_REPORT_CASES))
def test_a_report_holds_scalars_and_names_its_paths(diff_setup, family):
    model, utility, risk = diff_setup
    solve, paths = _REPORT_CASES[family]
    report = solve(model, utility, risk)
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if f.name not in ("strategy", "diagnostics", "report"):
            assert value is None or (np.ndim(value) == 0
                                     and not isinstance(value, np.ndarray))
    length = 101 if family == "diff_gamma" else model.grid.n
    for key in paths:
        assert report.diagnostics[key].shape == (length,)
