"""Stacked strategies and the per-model market paths.

A stack of candidates (y and pi (..., N, d), v (..., N)) is costed by one
call each to `cost_function` and `slack_path`.  Both must return, bit for
bit, what the per-candidate loop returns for each candidate; the loop here
is the reference.  The derived market paths and the risk level are
computed once per model and handed out read-only; a strategy keeps
read-only copies of its paths and its own integrals V and ||y||_t^2.
"""

import collections
import dataclasses
import inspect

import numpy as np
import pytest

import jumpfolio as jf
from jumpfolio import negjumps
from jumpfolio.errors import AssumptionJViolated, InvalidStrategy
from jumpfolio.market import (
    R_path,
    cumtrapz,
    l2_time_norm_sq_path,
    sigma_inv_xi_lambda_path,
)

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


@pytest.mark.parametrize("build", [
    lambda model, half: jf.Strategy.from_pi(model, np.full((17, 1), half)),
    lambda model, half: jf.Strategy.from_pi(model, half),
    lambda model, half: jf.Strategy.from_y(model, np.full(17, half)),
    lambda model, half: jf.Strategy.from_pi(model, np.full(17, 0.5),
                                            np.full(17, half)),
    lambda model, half: jf.Strategy.from_pi(model, np.full(17, 0.5),
                                            np.ones(17), np.full(17, half)),
], ids=["pi", "pi_scalar", "y", "v", "V"])
def test_a_complex_path_is_refused(build):
    # a cast to float would keep 0.5 and drop the imaginary part
    model = make_model(n=17)
    with pytest.raises(InvalidStrategy, match="must be real"):
        build(model, 0.5 + 0.5j)


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


def test_jump_atoms_of_the_active_assets_are_kept_once_per_spec():
    jumps = _three_assets().jumps
    active = jumps.active
    assert jumps.active is active
    assert [j for j, *_ in active] == [0, 2]
    for j, lam, z, w in active:
        assert type(lam) is float and lam == jumps.lambdas[j]
        assert z is jumps.dists[j].z and w is jumps.dists[j].w


# ---------------------------------------------------------------------------
# A strategy keeps its own integrals; the risk level is kept per model
# ---------------------------------------------------------------------------

def _cost_and_slack(model, pi, v, order):
    """Cost under each utility and slack under each risk of one strategy
    built from pi and v, called in the given order: "slack first", "cost
    first", or "fresh", a new strategy for every call."""
    strategy = jf.Strategy.from_pi(model, pi, v)

    def fresh():
        return jf.Strategy.from_pi(model, pi, v) if order == "fresh" else strategy

    def costs():
        return [jf.cost_function(model, u, fresh(), 1.5) for u in UTILITIES]

    def slacks():
        return [jf.slack_path(fresh(), model, risk) for risk in RISKS]

    if order == "cost first":
        cost = costs()
        return cost, slacks()
    slack = slacks()
    return costs(), slack


@pytest.mark.parametrize("b", [None, 5], ids=["one", "stack"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_call_order_does_not_move_the_bits(name, b):
    model = MODELS[name]()
    pi, v = _candidates(model, np.random.default_rng(23), b or 1)
    if b is None:
        pi, v = pi[0], v[0]
    want_cost, want_slack = _cost_and_slack(model, pi, v, "fresh")
    for order in ("slack first", "cost first"):
        cost, slack = _cost_and_slack(model, pi, v, order)
        assert np.asarray(cost).tobytes() == np.asarray(want_cost).tobytes()
        for got, want in zip(slack, want_slack):
            assert got.tobytes() == want.tobytes()


def test_strategy_holds_read_only_copies_and_its_integrals():
    model = make_model(n=17)
    y, pi, v = np.full((17, 1), 0.09), np.full((17, 1), 0.3), np.ones(17)
    V = np.linspace(0.0, 1.0, 17) ** 3     # not the trapezoid of v
    strategy = jf.Strategy(model.grid, y, pi, v, V)
    kept = (strategy.y, strategy.pi, strategy.v, strategy.V,
            strategy.y_norm_sq)
    assert not any(a.flags.writeable for a in kept)
    assert strategy.V.tobytes() == V.tobytes()     # a given V is kept
    with pytest.raises(ValueError):
        strategy.v[0] = 2.0
    for caller in (y, pi, v, V):     # the caller's arrays stay theirs
        assert caller.flags.writeable
        caller[0] = 7.0
    assert strategy.y[0, 0] == 0.09 and strategy.V[0] == 0.0
    for field in ("y", "pi", "v", "V", "y_norm_sq", "grid"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(strategy, field, None)
    assert strategy.y_norm_sq.tobytes() == l2_time_norm_sq_path(
        model.grid, strategy.y).tobytes()
    assert np.array_equal(strategy.y_norm_path(), np.sqrt(strategy.y_norm_sq))
    # the integrals are set when the strategy is made, before any read
    rate = jf.Strategy(model.grid, y, pi, v)
    assert {"V", "y_norm_sq"} <= vars(rate).keys()
    assert not rate.V.flags.writeable
    assert rate.V.tobytes() == cumtrapz(model.grid, v).tobytes()
    built = jf.Strategy.from_pi(model, pi, v, V)
    assert built.V.tobytes() == V.tobytes() and not built.V.flags.writeable


@pytest.mark.parametrize("shape", [(17,), (17, 1)])
@pytest.mark.parametrize("build", ["from_pi", "from_y"])
def test_a_built_strategy_keeps_no_view_of_the_callers_path(build, shape):
    model = make_model(n=17)
    given = np.full(shape, 0.3)
    strategy = getattr(jf.Strategy, build)(model, given)
    assert not (strategy.y.flags.writeable or strategy.pi.flags.writeable)
    assert given.flags.writeable
    assert not any(np.shares_memory(given, path)
                   for path in (strategy.y, strategy.pi))


def test_a_strategy_copies_every_path_one_way():
    # no init-only switch lets a builder hand over a path uncopied
    assert list(inspect.signature(jf.Strategy).parameters) == [
        "grid", "y", "pi", "v", "V"]


def test_risk_level_is_resolved_once_per_model_and_risk(monkeypatch):
    # count the normal quantiles and negative-jump probabilities that
    # effective_level computes
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("normal_quantile", "epsilon_t"):
        monkeypatch.setattr(negjumps, name,
                            counted(name, getattr(negjumps, name)))
    model = MODELS["two_assets_negative_jumps"]()
    pi, v = _candidates(model, np.random.default_rng(3), 4)
    risk = jf.RiskSpec("es", 0.45, 0.3, "thinning")
    level = negjumps.effective_level(model, risk)
    for p, w in zip(pi, v):
        jf.slack_path(jf.Strategy.from_pi(model, p, w), model, risk)
    # an equal spec shares the level
    jf.slack_path(jf.Strategy.from_pi(model, pi, v), model,
                  jf.RiskSpec("es", 0.45, 0.3, "thinning"))
    assert negjumps.effective_level(model, risk) is level
    assert calls == {"normal_quantile": 1, "epsilon_t": 1}
    # a second spec on the same model gets its own level, once
    other = jf.RiskSpec("var", 0.2, 0.3, "thinning")
    for _ in range(3):
        jf.slack_path(jf.Strategy.from_pi(model, pi, v), model, other)
    assert negjumps.effective_level(model, other).beta != level.beta
    assert calls == {"normal_quantile": 2, "epsilon_t": 2}
    # a new model resolves its own
    negjumps.effective_level(MODELS["two_assets_negative_jumps"](), risk)
    assert calls == {"normal_quantile": 3, "epsilon_t": 3}


def test_a_refused_risk_level_is_refused_on_every_call():
    model = MODELS["two_assets_negative_jumps"]()
    risk = jf.RiskSpec("var", 0.05, 0.3)        # negative jumps, method off
    for _ in range(2):
        with pytest.raises(AssumptionJViolated):
            negjumps.effective_level(model, risk)
