import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize

import jumpfolio as jf
from jumpfolio import unconstrained
from jumpfolio.errors import ConditionViolated, InvalidStrategy, NoConvergence
from jumpfolio.market import (
    R_path,
    cumtrapz,
    jump_terms_path,
    theta_path,
    trapz,
)
from jumpfolio.unconstrained import growth_rate_path

from conftest import make_model, make_model_2d


# ---------------------------------------------------------------------------
# Strategy container
# ---------------------------------------------------------------------------

def test_strategy_roundtrip_pi_y(diffusion_1d):
    pi = np.linspace(0.0, 1.0, diffusion_1d.grid.n)[:, None]
    s1 = jf.Strategy.from_pi(diffusion_1d, pi)
    s2 = jf.Strategy.from_y(diffusion_1d, s1.y)
    assert np.max(np.abs(s2.pi - pi)) < 1e-14
    s1.validate(diffusion_1d)


def test_strategy_box_violation(diffusion_1d):
    pi = np.full((diffusion_1d.grid.n, 1), 1.2)
    strat = jf.Strategy.from_pi(diffusion_1d, pi)
    with pytest.raises(InvalidStrategy):
        strat.validate(diffusion_1d)


@pytest.mark.parametrize("field", ["y", "pi", "v"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_strategy_non_finite_values_rejected(diffusion_1d, field, value):
    n = diffusion_1d.grid.n
    strat = jf.Strategy.from_pi(diffusion_1d, np.full((n, 1), 0.5),
                                np.full(n, 0.1))
    parts = {"y": strat.y.copy(), "pi": strat.pi.copy(), "v": strat.v.copy()}
    parts[field][n // 2] = value
    bad = jf.Strategy(diffusion_1d.grid, parts["y"], parts["pi"], parts["v"])
    with pytest.raises(InvalidStrategy):
        bad.validate(diffusion_1d)


# ---------------------------------------------------------------------------
# Linear utility
# ---------------------------------------------------------------------------

def test_solve_linear_degenerate():
    model = make_model(mu=0.02, r=0.02)
    rep = jf.solve_linear(model, x=1.0)
    assert rep.J_star == pytest.approx(math.exp(0.02), rel=1e-14)
    assert np.all(rep.strategy.pi == 0.0)


def test_solve_linear_closed_form():
    model = make_model(mu=0.10, r=0.02)
    rep = jf.solve_linear(model, x=1.0)
    assert rep.J_star == pytest.approx(math.exp(0.10), rel=1e-13)
    assert np.allclose(rep.strategy.pi, 1.0)


def test_solve_linear_holds_no_asset_below_the_rate():
    model = make_model(mu=0.01, r=0.02)
    rep = jf.solve_linear(model)
    assert np.all(rep.strategy.pi == 0.0)
    assert rep.J_star == pytest.approx(math.exp(0.02), rel=1e-14)


def test_solve_linear_refuses_a_negative_growth_rate():
    # r + (mu - r)^+ = -0.05 < 0: consuming fast beats consuming nothing,
    # whose J* would read exp(R_T) = 0.95123
    model = make_model(r=-0.05, mu=-0.06, sigma=0.2)
    zeros = np.zeros((model.grid.n, 1))
    fast = jf.Strategy(model.grid, zeros, zeros.copy(),
                       np.full(model.grid.n, 50.0))
    linear = jf.UtilitySpec(1.0, 1.0)
    assert jf.cost_function(model, linear, fast, 1.0) > math.exp(-0.05)
    with pytest.raises(ConditionViolated, match="growth rate"):
        jf.solve_linear(model)
    for risk in (jf.RiskSpec("var", 0.05, 0.3), jf.RiskSpec("es", 0.05, 0.3)):
        with pytest.raises(ConditionViolated, match="growth rate"):
            jf.adjusted_solve(model, risk, linear)


def test_solve_linear_is_the_box_optimum_on_every_node():
    # the gamma = 1 cost is linear in pi, so pi_j = 1{mu_j > r} at every
    # node: a drift that rises across the rate, and two assets
    grid = jf.TimeGrid.uniform(1.0, 5)
    coeffs = jf.CoefficientPath(r=np.full(5, 0.02),
                                mu=np.linspace(0.0, 0.30, 5)[:, None],
                                sigma=np.full((5, 1, 1), 0.3))
    model = jf.MarketModel(grid, coeffs, jf.JumpSpec.none(1))
    linear = jf.UtilitySpec(1.0, 1.0)
    rep = jf.solve_linear(model)
    assert np.array_equal(rep.strategy.pi[:, 0], [0.0, 1.0, 1.0, 1.0, 1.0])
    assert rep.J_star == pytest.approx(
        jf.cost_function(model, linear, rep.strategy, 1.0), rel=1e-14)
    rep_2d = jf.solve_linear(make_model_2d())
    assert np.all(rep_2d.strategy.pi == 1.0)
    assert rep_2d.J_star == pytest.approx(1.0941743, abs=1e-7)
    rep_2d.strategy.validate(make_model_2d())
    below = jf.solve_linear(make_model_2d(mu=(0.06, 0.01)))
    assert np.all(below.strategy.pi == [1.0, 0.0])


def test_solve_linear_brute_force_grid():
    # constant (pi, v) candidates evaluated through an independent closed form
    r, mu, T, x = 0.02, 0.10, 1.0, 1.0
    model = make_model(mu=mu, r=r, horizon=T)
    rep = jf.solve_linear(model, x=x)
    best = -np.inf
    for pi in np.arange(0.0, 1.0001, 0.05):
        for v in np.arange(0.0, 1.0001, 0.1):
            a = r + pi * (mu - r) - v
            growth = math.exp(a * T)
            integral = (growth - 1.0) / a if a != 0.0 else T
            best = max(best, x * (v * integral + growth))
    assert rep.J_star >= best - 1e-12


# ---------------------------------------------------------------------------
# First-order function in one dimension
# ---------------------------------------------------------------------------

def eta_1d(model, node, pi, gamma):
    """First-order function of the one-asset allocation problem.

    eta(pi) = mu_t - r_t + (gamma - 1) sigma_t^2 pi + Q(pi), the derivative
    (up to the factor gamma) of the growth rate in pi.  Strictly decreasing
    on [0, 1]; an interior optimum is its unique root.
    """
    c = model.coeffs
    q = jump_terms_path(model.jumps, np.array([[pi]]), gamma)[0][0, 0]
    return (c.mu[node, 0] - c.r[node]
            + (gamma - 1.0) * c.sigma[node, 0, 0] ** 2 * pi + q)


def test_eta_1d_at_zero_is_excess_drift(jump_1d):
    # the jump term vanishes at pi = 0, leaving the raw excess drift
    got = eta_1d(jump_1d, 0, 0.0, 0.5)
    assert got == pytest.approx(0.055 - 0.02, abs=1e-15)


def test_eta_1d_linear_case_constant():
    model = make_model(mu=0.07, r=0.02, lam=0.0)
    vals = [eta_1d(model, 0, p, 1.0) for p in (0.0, 0.4, 1.0)]
    assert np.allclose(vals, 0.05)


def test_eta_1d_sign_change_and_decreasing(jump_1d):
    gamma = 0.5
    pi = np.linspace(0.0, 1.0, 101)
    vals = np.array([eta_1d(jump_1d, 5, p, gamma) for p in pi])
    assert vals[0] > 0 > vals[-1]
    assert np.all(np.diff(vals) < 0)


# ---------------------------------------------------------------------------
# Equal-gamma solvers
# ---------------------------------------------------------------------------

def test_solve_power_1d_merton_reduction():
    model = make_model(mu=0.047, r=0.02, sigma=0.3, lam=0.0)
    utility = jf.UtilitySpec.equal(0.5)
    rep = jf.solve_power_equal(model, utility)
    merton = (0.047 - 0.02) / ((1.0 - 0.5) * 0.3**2)
    assert np.max(np.abs(rep.strategy.pi - merton)) < 1e-12
    assert not rep.diagnostics["boundary_clipped"]


def test_solve_power_1d_merton_clipped():
    model = make_model(mu=0.10, r=0.02, sigma=0.2, lam=0.0)
    rep = jf.solve_power_equal(model, jf.UtilitySpec.equal(0.8))
    assert np.all(rep.strategy.pi == 1.0)
    assert rep.diagnostics["boundary_clipped"]


def test_solve_power_1d_root_property(jump_1d):
    utility = jf.UtilitySpec.equal(0.5)
    rep = jf.solve_power_equal(jump_1d, utility)
    pi = rep.strategy.pi[:, 0]
    assert np.all((pi > 0) & (pi < 1))
    resid = max(abs(eta_1d(jump_1d, k, pi[k], 0.5))
                for k in range(0, jump_1d.grid.n, 16))
    assert resid < 1e-10


def test_solve_power_equal_matches_1d(jump_1d):
    utility = jf.UtilitySpec.equal(0.5)
    rep_1d = jf.solve_power_equal(jump_1d, utility)
    rep_nd = jf.solve_power_equal(jump_1d, utility)
    assert np.max(np.abs(rep_1d.strategy.pi - rep_nd.strategy.pi)) < 1e-8
    assert rep_nd.J_star == pytest.approx(rep_1d.J_star, rel=1e-10)
    assert rep_nd.diagnostics["foc_residual"] < 1e-8


def test_solve_power_equal_pure_diffusion_closed_form():
    sigma = np.array([[0.3, 0.05], [0.0, 0.35]])
    model = make_model_2d(mu=(0.04, 0.045), sigma=sigma)
    utility = jf.UtilitySpec.equal(0.5)
    rep = jf.solve_power_equal(model, utility)
    th = theta_path(model)
    assert np.max(np.abs(rep.strategy.y - utility.q * th)) < 1e-12


def test_solve_power_equal_no_convergence_reported(monkeypatch):
    # violent jumps against a tiny diffusion: the solve converges within the
    # iteration cap, and a cap it cannot meet is reported
    model = make_model(n=17, mu=0.06, sigma=0.05, lam=3.0,
                       jump=jf.JumpDist.point_masses([0.9], [1.0]))
    utility = jf.UtilitySpec.equal(0.5)
    rep = jf.solve_power_equal(model, utility)
    assert rep.diagnostics["foc_residual"] < 1e-12
    assert rep.diagnostics["iterations"] > 1
    monkeypatch.setattr(unconstrained, "_MAX_ITER", 1)
    with pytest.raises(NoConvergence):
        jf.solve_power_equal(model, utility)


def test_solve_power_equal_box_optimum_with_correlated_assets():
    # clipping the unconstrained optimum (5.84, -1.12) into the box gives
    # (1, 0); the box optimum keeps pi_1 = 1 and solves for pi_2
    model = make_model_2d(mu=(0.12, 0.06), sigma=((0.2, 0.0), (0.15, 0.25)))
    rep = jf.solve_power_equal(model, jf.UtilitySpec.equal(0.5))
    pi2 = (0.04 - 0.5 * 0.03) / (0.5 * 0.085)
    assert np.all(rep.strategy.pi[:, 0] == 1.0)
    assert np.max(np.abs(rep.strategy.pi[:, 1] - pi2)) < 1e-12
    assert rep.diagnostics["boundary_clipped"]
    assert rep.diagnostics["foc_residual"] < 1e-12


@pytest.mark.parametrize("mu, sigma, lam, xi", [
    (0.05, 0.10, 1.0, 0.3),
    (0.03, 0.10, 2.0, 0.2),
    (0.025, 0.05, 1.0, 0.1),
])
def test_solve_power_equal_matches_root_of_eta(mu, sigma, lam, xi):
    # jump curvature well above the diffusion curvature
    model = make_model(n=17, mu=mu, sigma=sigma, lam=lam,
                       jump=jf.JumpDist.point_masses([xi], [1.0]))
    rep = jf.solve_power_equal(model, jf.UtilitySpec.equal(0.5))
    roots = [brentq(lambda p, k=k: eta_1d(model, k, p, 0.5), 0.0, 1.0,
                    xtol=1e-16, rtol=4 * np.finfo(float).eps)
             for k in range(model.grid.n)]
    assert np.max(np.abs(rep.strategy.pi[:, 0] - roots)) < 1e-12
    assert not rep.diagnostics["boundary_clipped"]


def _random_market(rng, d, n=4):
    """Time-varying market with well-conditioned sigma and two-sided jumps."""
    grid = jf.TimeGrid.uniform(1.0, n)
    r = rng.uniform(0.0, 0.03, n)
    mu = r[:, None] + rng.uniform(0.0, 0.15, (n, d))
    sigma = (rng.uniform(0.15, 0.35, (n, d))[:, :, None] * np.eye(d)
             + rng.uniform(-0.1, 0.1, (n, d, d)))
    dists = tuple(jf.JumpDist.point_masses(
        [-rng.uniform(0.02, 0.1), rng.uniform(0.05, 0.3)], [0.3, 0.7])
        for _ in range(d))
    jumps = jf.JumpSpec(rng.uniform(0.2, 2.0, d), dists)
    return jf.MarketModel(grid, jf.CoefficientPath(r, mu, sigma), jumps)


def _growth_at(model, node, gamma, pts):
    """h(t; pi) at one node for each row of pts, from its definition."""
    c = model.coeffs
    y = pts @ c.sigma[node]
    h = (gamma * (c.r[node] + pts @ (c.mu[node] - c.r[node]))
         - 0.5 * gamma * (1.0 - gamma) * np.sum(y * y, axis=1))
    for j in range(model.d):
        lam, z, w = (model.jumps.lambdas[j], model.jumps.dists[j].z,
                     model.jumps.dists[j].w)
        p = pts[:, j, None]
        h += lam * (((1.0 + p * z) ** gamma - 1.0 - gamma * p * z) @ w)
    return h


@pytest.mark.parametrize("d, steps, seed", [(2, 201, 0), (2, 201, 1),
                                            (3, 41, 2), (3, 41, 3)])
def test_solve_power_equal_beats_box_grid(d, steps, seed):
    rng = np.random.default_rng(seed)
    model = _random_market(rng, d)
    gamma = float(rng.uniform(0.2, 0.8))
    rep = jf.solve_power_equal(model, jf.UtilitySpec.equal(gamma))
    axis = np.linspace(0.0, 1.0, steps)
    pts = np.stack(np.meshgrid(*[axis] * d), axis=-1).reshape(-1, d)
    for k in range(model.grid.n):
        best = _growth_at(model, k, gamma, pts).max()
        assert rep.diagnostics["h_star"][k] >= best - 1e-12


def _small_sigma_market():
    """Three assets, one with a tiny volatility, and strong two-sided
    jumps; a step-halving projected Newton stalled here at a first-order
    residual of 2.05e-11 and raised NoConvergence."""
    grid = jf.TimeGrid.uniform(1.0, 3)
    sigma = [(0.04286405346638882, -0.00179033070469671, -0.00224736761441616),
             (0.0, 0.04011940564126842, -0.00454894031376698),
             (0.0, 0.0, -0.00016243274406207)]
    coeffs = jf.CoefficientPath.constant(
        grid, 0.020463332041587293,
        (1.5941581956115922, -0.4671135855959078, 2.012034384661421), sigma)
    dists = (
        jf.JumpDist.point_masses(
            (1.906001314151719, 0.6965636301141552, -0.30388644009725274),
            (0.14376128199837937, 0.8055697432439315, 0.05066897475768906)),
        jf.JumpDist.point_masses(
            (-0.13080016086362523, 2.5326140814411566, 0.05449850397485095),
            (0.4762202144102943, 0.18223348919342292, 0.34154629639628287)),
        jf.JumpDist.point_masses((3.297499095793654,), (1.0,)))
    lambdas = np.array((6.199368242020327, 9.90805173971686,
                        17.841752208325993))
    return jf.MarketModel(grid, coeffs, jf.JumpSpec(lambdas, dists))


def test_small_sigma_market_reaches_the_box_maximum():
    model = _small_sigma_market()
    gamma = 0.42542117357486553
    rep = jf.solve_power_equal(model, jf.UtilitySpec.equal(gamma))
    assert rep.diagnostics["iterations"] <= 10
    # an independent maximum of h over the box: L-BFGS-B from 20 starts
    starts = np.random.default_rng(0).uniform(0.0, 1.0, (20, 3))
    best = min((minimize(lambda p: -_growth_at(model, 0, gamma, p[None])[0],
                         x0, method="L-BFGS-B", bounds=[(0.0, 1.0)] * 3,
                         options=dict(ftol=1e-16, gtol=1e-14))
                for x0 in starts), key=lambda res: res.fun)
    assert np.all(np.abs(rep.diagnostics["h_star"] + best.fun) <= 1e-14)
    assert np.max(np.abs(rep.strategy.pi - best.x)) < 1e-6
    assert rep.strategy.pi[0, 1] == 0.0


def test_solve_power_equal_beats_random_candidates(jump_1d):
    utility = jf.UtilitySpec.equal(0.5)
    rep = jf.solve_power_equal(jump_1d, utility)
    h_star = rep.diagnostics["h_star"]
    rng = np.random.default_rng(31)
    pi = rng.uniform(0.0, 1.0, size=(1000, jump_1d.grid.n, 1))
    for candidate in pi[:50]:
        strat = jf.Strategy.from_pi(jump_1d, candidate)
        h = growth_rate_path(jump_1d, 0.5, strat.y, strat.pi)
        assert np.all(h <= h_star + 1e-12)


# ---------------------------------------------------------------------------
# rho, v*, chi
# ---------------------------------------------------------------------------

def test_rho_path_flat_growth():
    grid = jf.TimeGrid.uniform(1.0, 101)
    utility = jf.UtilitySpec.equal(0.5)
    _, rho, _ = jf.value_terms(grid, np.ones(101), utility)
    expected = (1.0 + 1.0 - grid.nodes) ** (1.0 / utility.q)
    assert np.max(np.abs(rho - expected)) < 1e-13
    assert rho[-1] == 1.0


def test_rho_path_ode_residual(jump_1d):
    utility = jf.UtilitySpec.equal(0.5)
    rep = jf.solve_power_equal(jump_1d, utility)
    grid = jump_1d.grid
    rho, h = rep.diagnostics["rho"], rep.diagnostics["h_star"]
    dt = grid.dt[0]
    drho = (rho[2:] - rho[:-2]) / (2.0 * dt)
    gamma = 0.5
    rhs = (gamma - 1.0) * rho[1:-1] ** (gamma / (gamma - 1.0))
    resid = drho + h[1:-1] * rho[1:-1] - rhs
    assert np.max(np.abs(resid)) < 5e-4


def test_v_star_flat_growth_and_identities(jump_1d):
    grid = jf.TimeGrid.uniform(1.0, 101)
    utility = jf.UtilitySpec.equal(0.5)
    v, _, _ = jf.value_terms(grid, np.ones(101), utility)
    assert np.max(np.abs(v - 1.0 / (2.0 - grid.nodes))) < 1e-13
    assert v[-1] == pytest.approx(1.0, abs=1e-14)

    fine = make_model(n=512, mu=0.055, sigma=0.3, lam=0.8,
                      jump=jf.JumpDist.point_masses([0.03, 0.10], [0.6, 0.4]))
    rep = jf.solve_power_equal(fine, utility)
    gq = rep.diagnostics["g"] ** utility.q
    cum = cumtrapz(fine.grid, gq)
    tail = cum[-1] - cum
    lhs = rep.strategy.v * (gq[-1] + tail)
    assert np.max(np.abs(lhs - gq)) < 1e-12
    # chi equals the exponential of the total consumption integral
    assert math.exp(-rep.strategy.V[-1]) == pytest.approx(rep.chi, abs=1e-6)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 17: int_t^T g^q as cum[-1] - cum "
                          "cancels")
@pytest.mark.parametrize("market, gamma", [
    (dict(n=129, horizon=30.0, r=-0.015, mu=-0.015, sigma=0.3), 0.99),
    (dict(n=17, r=-40.0, mu=-39.9), 0.5),
])
def test_v_star_keeps_its_digits_where_g_q_falls_steeply(market, gamma):
    # g^q falls by more than 36 e-folds over the horizon, so cum[-1] - cum
    # loses the tail integral near T: v* was 4.1e3 times too large at node
    # 103 of the first market and 41% off at node 15 of the second.  The
    # same trapezoid summed backward from T keeps every digit.
    model = make_model(**market)
    utility = jf.UtilitySpec.equal(gamma)
    rep = jf.solve_power_equal(model, utility)
    gq = rep.diagnostics["g"] ** utility.q
    pieces = 0.5 * model.grid.dt * (gq[1:] + gq[:-1])
    tail = np.append(np.cumsum(pieces[::-1])[::-1], 0.0)
    assert rep.strategy.v == pytest.approx(gq / (gq[-1] + tail), rel=1e-9)


def test_chi_value_cases():
    grid = jf.TimeGrid.uniform(2.0, 65)
    utility = jf.UtilitySpec.equal(0.5)
    assert jf.value_terms(grid, np.ones(65), utility)[2] == pytest.approx(
        1.0 / 3.0, abs=1e-12)


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3,
                max_size=12))
@settings(max_examples=40, deadline=None)
def test_chi_value_in_unit_interval(h_samples):
    n = len(h_samples)
    grid = jf.TimeGrid.uniform(1.0, n)
    utility = jf.UtilitySpec.equal(0.6)
    g = np.exp(cumtrapz(grid, np.asarray(h_samples)))
    _, _, chi = jf.value_terms(grid, g, utility)
    assert 0.0 < chi < 1.0


# ---------------------------------------------------------------------------
# Cost function
# ---------------------------------------------------------------------------

def test_cost_function_bank_account():
    model = make_model(lam=0.0)
    utility = jf.UtilitySpec.equal(0.5)
    strat = jf.Strategy.riskless(model)
    got = jf.cost_function(model, utility, strat, 2.0)
    assert got == pytest.approx(2.0**0.5 * math.exp(0.5 * 0.02), rel=1e-13)


def test_cost_function_linear_no_consumption(jump_1d):
    utility = jf.UtilitySpec(1.0, 1.0)
    pi = np.full((jump_1d.grid.n, 1), 0.7)
    strat = jf.Strategy.from_pi(jump_1d, pi)
    got = jf.cost_function(jump_1d, utility, strat, 1.0)
    th = theta_path(jump_1d)
    drift = trapz(jump_1d.grid, np.sum(strat.y * th, axis=1))
    expected = math.exp(R_path(jump_1d)[-1] + drift)
    assert got == pytest.approx(expected, rel=1e-13)


def test_V_integral(jump_1d):
    strat = jf.Strategy.riskless(jump_1d)
    assert strat.V[-1] == 0.0


# ---------------------------------------------------------------------------
# Jump versus diffusion comparison
# ---------------------------------------------------------------------------

def _jump_and_diffusion(model, utility):
    """The one-asset optima with jumps and with jumps switched off, the two
    solves that `jumpfolio compare` writes."""
    return (jf.solve_power_equal(model, utility),
            jf.solve_power_equal(model.without_jumps(), utility))


def test_compare_merton_no_jumps_identical():
    model = make_model(mu=0.047, sigma=0.3, lam=0.0)
    jump, diffusion = _jump_and_diffusion(model, jf.UtilitySpec.equal(0.5))
    assert np.array_equal(jump.strategy.pi, diffusion.strategy.pi)
    assert np.array_equal(jump.strategy.v, diffusion.strategy.v)


def test_compare_merton_orderings(jump_1d):
    jump, diffusion = _jump_and_diffusion(jump_1d, jf.UtilitySpec.equal(0.5))
    pi_jump, pi_diffusion = jump.strategy.pi[:, 0], diffusion.strategy.pi[:, 0]
    assert np.all(pi_jump <= pi_diffusion + 1e-12)
    assert np.any(pi_jump < pi_diffusion - 1e-6)
    assert np.all(jump.strategy.v >= diffusion.strategy.v - 1e-12)
    assert np.all(jump.diagnostics["rho"]
                  <= diffusion.diagnostics["rho"] + 1e-12)
