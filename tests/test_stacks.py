"""Stacked strategies and the per-model market paths.

A stack of candidates (y and pi (..., N, d), v (..., N)) is costed by one
call each to `cost_function` and `slack_path`.  Both must return, bit for
bit, what the per-candidate loop returns for each candidate; the loop here
is the reference.  The derived market paths are computed once per model
and handed out read-only.
"""

import numpy as np
import pytest

import jumpfolio as jf
from jumpfolio.errors import InvalidStrategy
from jumpfolio.market import R_path, sigma_inv_xi_lambda_path

from conftest import make_model, make_model_2d

MIXED = jf.JumpDist.point_masses([-0.05, 0.08], [0.25, 0.75])
DENSITY = jf.JumpDist.from_density(lambda z: np.full_like(z, 1.0 / 0.3),
                                   -0.1, 0.2)


def _three_assets():
    grid = jf.TimeGrid.uniform(1.0, 33)
    t = grid.nodes[:, None, None]
    sigma = (np.array([[0.3, 0.05, 0.02], [0.0, 0.25, 0.04],
                       [0.01, 0.03, 0.2]]) * (1.0 + 0.5 * t))
    coeffs = jf.CoefficientPath(np.full(grid.n, 0.02),
                                np.tile([0.07, 0.06, 0.05], (grid.n, 1)),
                                sigma)
    jumps = jf.JumpSpec(np.array([0.6, 0.0, 1.1]),
                        (MIXED, jf.JumpDist.degenerate(),
                         jf.JumpDist.point_masses([0.03, 0.1], [0.5, 0.5])))
    return jf.MarketModel(grid, coeffs, jumps)


MODELS = {
    "two_assets_negative_jumps": lambda: make_model_2d(
        n=65, lams=(0.7, 0.4),
        dists=(MIXED, jf.JumpDist.point_masses([0.04], [1.0]))),
    "three_assets": _three_assets,
    "density_129_atoms": lambda: make_model(n=129, mu=0.08, sigma=0.25,
                                            lam=1.2, jump=DENSITY),
}
UTILITIES = (jf.UtilitySpec.equal(0.5), jf.UtilitySpec(0.3, 0.8),
             jf.UtilitySpec(0.9, 0.2))
RISKS = (jf.RiskSpec("var", 0.45, 0.3, "thinning"),
         jf.RiskSpec("es", 0.45, 0.3, "thinning"))


def _candidates(model, rng, b):
    """b time-varying allocations and consumption rates, (b, N, d) and
    (b, N)."""
    n, d = model.grid.n, model.d
    ramp = np.linspace(0.0, 1.0, n)[None, :, None]
    lo, hi = rng.uniform(0.0, 1.0, (2, b, 1, d))
    pi = lo + (hi - lo) * ramp
    v = rng.uniform(0.0, 1.5, (b, 1)) * np.linspace(0.5, 1.0, n)
    return pi, v


@pytest.mark.parametrize("name", sorted(MODELS))
def test_stack_matches_per_candidate_loop(name):
    model = MODELS[name]()
    pi, v = _candidates(model, np.random.default_rng(5), 9)
    stack = jf.Strategy.from_pi(model, pi, v)
    singles = [jf.Strategy.from_pi(model, p, w) for p, w in zip(pi, v)]
    assert np.array_equal(stack.y, np.array([s.y for s in singles]))
    for utility in UTILITIES:
        for x in (0.5, 2.0):
            got = jf.cost_function(model, utility, stack, x)
            want = [jf.cost_function(model, utility, s, x) for s in singles]
            assert got.shape == (9,)
            assert np.array_equal(got, want)
    for risk in RISKS:
        got = jf.slack_path(stack, model, risk)
        want = [jf.slack_path(s, model, risk) for s in singles]
        assert np.array_equal(got, want)


def test_allocation_and_consumption_axes_broadcast():
    model = MODELS["density_129_atoms"]()
    pi, v = _candidates(model, np.random.default_rng(11), 4)
    stack = jf.Strategy.from_pi(model, pi[:, None], v[:3])       # (4, 3)
    utility = jf.UtilitySpec(0.3, 0.8)
    cost = jf.cost_function(model, utility, stack, 1.0)
    slack = jf.slack_path(stack, model, RISKS[1])
    assert cost.shape == (4, 3) and slack.shape == (4, 3, model.grid.n)
    for i in range(4):
        for j in range(3):
            single = jf.Strategy.from_pi(model, pi[i], v[j])
            assert cost[i, j] == jf.cost_function(model, utility, single, 1.0)
            assert np.array_equal(slack[i, j],
                                  jf.slack_path(single, model, RISKS[1]))


def test_one_strategy_costs_a_float():
    model = MODELS["density_129_atoms"]()
    strategy = jf.Strategy.from_pi(model, np.full(model.grid.n, 0.4))
    assert type(jf.cost_function(model, UTILITIES[1], strategy, 1.0)) is float


def test_stack_axes_that_do_not_broadcast_are_refused():
    model = make_model(n=17)
    with pytest.raises(InvalidStrategy):
        jf.Strategy.from_pi(model, np.zeros((3, 17, 1)), np.zeros((2, 17)))


def test_validate_and_simulate_refuse_a_stack():
    model = make_model(n=17)
    stack = jf.Strategy.from_pi(model, np.full((2, 17, 1), 0.5))
    with pytest.raises(InvalidStrategy, match="stack"):
        stack.validate(model)
    with pytest.raises(InvalidStrategy, match="stack"):
        jf.simulate(model, stack, 1.0, 10, 1)
    with pytest.raises(InvalidStrategy, match="stack"):
        jf.simulate_node_stats(model, stack, 1.0, 0.1, 10, 1)


# ---------------------------------------------------------------------------
# Market paths derived once per model
# ---------------------------------------------------------------------------

PATHS = (jf.theta_path, jf.theta_hat_path, sigma_inv_xi_lambda_path, R_path)


@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.__name__)
def test_each_path_is_one_read_only_array_per_model(path):
    model = MODELS["two_assets_negative_jumps"]()
    first = path(model)
    assert path(model) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
    other = MODELS["two_assets_negative_jumps"]()
    assert path(other) is not first
    assert np.array_equal(path(other), first)


def test_jump_vectors_are_one_read_only_array_per_spec():
    jumps = MODELS["two_assets_negative_jumps"]().jumps
    for name, fresh in (
            ("xi_lambda", jumps.lambdas * np.array([d.mean
                                                    for d in jumps.dists])),
            ("negative_mass", np.array([d.negative_mass
                                        for d in jumps.dists]))):
        first = getattr(jumps, name)
        assert getattr(jumps, name) is first
        assert not first.flags.writeable
        assert first.tobytes() == fresh.tobytes()


def test_model_inputs_are_read_only_copies():
    mu = np.full((17, 1), 0.07)
    grid = jf.TimeGrid.uniform(1.0, 17)
    coeffs = jf.CoefficientPath(np.full(17, 0.02), mu, np.full((17, 1, 1), 0.3))
    model = jf.MarketModel(grid, coeffs, jf.JumpSpec([0.5], (MIXED,)))
    arrays = (grid.nodes, coeffs.r, coeffs.mu, coeffs.sigma,
              model.jumps.lambdas, MIXED.z, MIXED.w)
    assert not any(a.flags.writeable for a in arrays)
    mu[0, 0] = 1.0        # the caller's array stays theirs
    assert coeffs.mu[0, 0] == 0.07
