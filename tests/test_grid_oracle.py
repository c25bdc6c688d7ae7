"""The batched grid oracle against the per-candidate loop it replaced.

`reference_grid_oracle` is the former implementation: one Strategy and one
call each to slack_path and cost_function per candidate.  The batched
oracle, which costs each block of pi rows as one stacked strategy, must
reproduce its table (NaN mask included), winner, value and feasible count
bit for bit.
"""

import collections
import importlib

import numpy as np
import pytest

import jumpfolio as jf
from jumpfolio.errors import (
    AssumptionJViolated,
    EmptyFeasibleSet,
    EpsilonTooLarge,
    OutOfRange,
)

from conftest import make_model, make_model_2d

# the package exports the function `simulate`, which shadows the module
simulate = importlib.import_module("jumpfolio.simulate")
unconstrained = importlib.import_module("jumpfolio.unconstrained")


def reference_grid_oracle(model, utility, risk, x, pi_grid, v_scale_grid,
                          v_shape=None):
    grid = model.grid
    if v_shape is None:
        v_shape = 1.0 / (1.0 + grid.horizon - grid.nodes)
    pi_grid = np.asarray(pi_grid, dtype=float)
    v_scale_grid = np.asarray(v_scale_grid, dtype=float)
    best = None
    n_feasible = 0
    table = np.full((pi_grid.size, v_scale_grid.size), np.nan)
    for i, p in enumerate(pi_grid):
        pi_path = np.full((grid.n, 1), p)
        for j, s in enumerate(v_scale_grid):
            strategy = jf.Strategy.from_pi(model, pi_path, s * v_shape)
            if risk is not None:
                if jf.slack_path(strategy, model, risk).min() < -1e-10:
                    continue
            n_feasible += 1
            J = jf.cost_function(model, utility, strategy, x)
            table[i, j] = J
            if best is None or J > best[0]:
                best = (J, float(p), float(s), strategy)
    if best is None:
        raise EmptyFeasibleSet("no grid candidate satisfies the constraint")
    J, p, s, strategy = best
    return simulate.GridOracleResult(pi=p, v_scale=s, J=J, strategy=strategy,
                                     n_feasible=n_feasible, table=table)


def assert_same_result(got, want):
    assert np.array_equal(np.isnan(got.table), np.isnan(want.table))
    assert np.array_equal(got.table, want.table, equal_nan=True)
    assert (got.pi, got.v_scale, got.J, got.n_feasible) == (
        want.pi, want.v_scale, want.J, want.n_feasible)
    for name in ("y", "pi", "v", "V"):
        assert np.array_equal(getattr(got.strategy, name),
                              getattr(want.strategy, name))


POINTS = jf.JumpDist.point_masses([0.03, 0.10], [0.6, 0.4])
MIXED = jf.JumpDist.point_masses([-0.05, 0.08], [0.25, 0.75])
UNIFORM = jf.JumpDist.from_density(lambda z: np.full_like(z, 1.0 / 0.3),
                                   -0.1, 0.2)


def _case(name):
    """(model, utility, risk, x, pi_grid, v_scale_grid, v_shape) by name."""
    pi_grid = np.linspace(0.0, 1.0, 21)
    scales = np.linspace(0.0, 2.0, 11)
    model = make_model(n=65, mu=0.06, sigma=0.3, lam=0.8, jump=POINTS)
    shape = np.linspace(0.5, 1.5, 65)
    equal = jf.UtilitySpec.equal(0.5)
    if name == "var":
        return (model, equal, jf.RiskSpec("var", 0.05, 0.5), 1.0, pi_grid,
                scales, shape)
    if name == "es":
        return (model, equal, jf.RiskSpec("es", 0.02, 0.5), 1.0, pi_grid,
                scales, shape)
    if name in ("negative_thinning", "negative_paper"):
        mixed = make_model(n=65, mu=0.07, sigma=0.3, lam=0.1, jump=MIXED)
        method = name.split("_")[1]
        return (mixed, equal, jf.RiskSpec("var", 0.1, 0.5, method), 1.0,
                pi_grid, scales, shape)
    if name == "no_jumps":
        return (make_model(n=65, mu=0.05), jf.UtilitySpec.equal(0.4),
                jf.RiskSpec("es", 0.05, 0.5), 1.0, pi_grid, scales, shape)
    if name == "distinct_gamma":
        return (model, jf.UtilitySpec(0.4, 0.7), jf.RiskSpec("var", 0.05, 0.4),
                2.0, pi_grid, scales, shape)
    if name == "density":
        dense = make_model(n=129, mu=0.08, sigma=0.25, lam=1.2, jump=UNIFORM)
        return (dense, jf.UtilitySpec(0.3, 0.6), None, 2.0,
                np.linspace(0.0, 1.0, 31), np.linspace(0.0, 2.0, 16),
                np.linspace(1.0, 2.0, 129))
    if name == "default_shape":
        return (model, equal, None, 1.0, pi_grid, scales, None)
    if name == "tie":
        # no consumption: every scale of a pi row costs exactly the same
        return (model, equal, jf.RiskSpec("var", 0.05, 0.2), 1.0,
                np.array([0.0, 0.3, 0.3, 0.6, 0.6, 1.0]),
                np.array([0.5, 1.0, 1.5]), np.zeros(65))
    raise KeyError(name)


CASES = ("var", "es", "negative_thinning", "negative_paper", "no_jumps",
         "distinct_gamma", "density", "default_shape", "tie")


@pytest.mark.parametrize("name", CASES)
def test_matches_per_candidate_loop(name):
    args = _case(name)
    want = reference_grid_oracle(*args)
    got = jf.grid_oracle(*args)
    assert_same_result(got, want)


def test_risk_cases_keep_some_candidates_and_drop_others():
    for name in CASES:
        args = _case(name)
        if args[2] is not None:
            result = jf.grid_oracle(*args)
            assert 0 < result.n_feasible < result.table.size, name


def test_tie_goes_to_first_candidate_in_pi_major_order():
    args = _case("tie")
    result = jf.grid_oracle(*args)
    ties = np.argwhere(result.table == result.J)
    assert len(ties) == 6          # two equal pi rows times three scales
    i, j = ties[0]
    assert (result.pi, result.v_scale) == (args[4][i], args[5][j]) == (
        args[4][i], 0.5)


@pytest.mark.parametrize("name", ("es", "density"))
def test_smallest_block_gives_identical_output(monkeypatch, name):
    args = _case(name)
    want = jf.grid_oracle(*args)
    monkeypatch.setattr(simulate, "_ORACLE_BLOCK", 1)
    assert_same_result(jf.grid_oracle(*args), want)


def _counted_calls(monkeypatch):
    """Count the calls of Strategy.from_pi and of the cost and slack paths
    that grid_oracle makes."""
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(jf.Strategy, "from_pi", classmethod(
        counted("from_pi", jf.Strategy.from_pi.__func__)))
    for name in ("cost_function", "slack_path"):
        monkeypatch.setattr(simulate, name, counted(name,
                                                    getattr(simulate, name)))
    return calls


def test_costs_each_block_with_one_call_per_path(monkeypatch):
    calls = _counted_calls(monkeypatch)
    model, utility, risk, x, pi_grid, scales, shape = _case("var")
    # the consumption stack (S, N) is the only two-axis path integrated
    stacks = []
    for module in (simulate, unconstrained):
        def counted(grid, values, fn=module.cumtrapz):
            if np.ndim(values) == 2:
                stacks.append(np.shape(values))
            return fn(grid, values)
        monkeypatch.setattr(module, "cumtrapz", counted)
    # five pi rows per block: the 21 rows take five blocks
    monkeypatch.setattr(simulate, "_ORACLE_BLOCK",
                        5 * model.grid.n * scales.size)
    jf.grid_oracle(model, utility, risk, x, pi_grid, scales, shape)
    assert calls == {"from_pi": 6, "cost_function": 5, "slack_path": 5}
    # its V is integrated once per call and shared by the blocks
    assert stacks == [(scales.size, model.grid.n)]
    # in one block the count does not grow with the consumption grid, and
    # the winner is the only strategy built on its own
    monkeypatch.setattr(simulate, "_ORACLE_BLOCK", 1 << 30)
    for n_scales in (3, 101):
        calls.clear()
        jf.grid_oracle(model, utility, risk, x, pi_grid,
                       np.linspace(0.0, 2.0, n_scales), shape)
        assert calls == {"from_pi": 2, "cost_function": 1, "slack_path": 1}
    calls.clear()
    jf.grid_oracle(model, utility, None, x, pi_grid, scales, shape)
    assert calls == {"from_pi": 2, "cost_function": 1}
    # without a risk spec no block is trimmed: each is costed as the stack
    # it was built as, so the strategies made are one per block and the
    # winner
    made = collections.Counter()
    post_init = jf.Strategy.__post_init__

    def counted_post_init(strategy):
        made["Strategy"] += 1
        post_init(strategy)

    monkeypatch.setattr(jf.Strategy, "__post_init__", counted_post_init)
    monkeypatch.setattr(simulate, "_ORACLE_BLOCK",
                        5 * model.grid.n * scales.size)
    calls.clear()
    jf.grid_oracle(model, utility, None, x, pi_grid, scales, shape)
    assert calls == {"from_pi": 6, "cost_function": 5}
    assert made == {"Strategy": 6}


def test_a_block_without_a_feasible_candidate_is_not_costed(monkeypatch):
    model, utility, _risk, x, pi_grid, scales, shape = _case("var")
    tight = jf.RiskSpec("var", 0.05, 0.1)
    want = reference_grid_oracle(model, utility, tight, x, pi_grid, scales,
                                 shape)
    costed_rows = int(np.count_nonzero(~np.isnan(want.table).all(axis=1)))
    assert 0 < costed_rows < pi_grid.size
    calls = _counted_calls(monkeypatch)
    # one pi row per block
    monkeypatch.setattr(simulate, "_ORACLE_BLOCK", model.grid.n * scales.size)
    got = jf.grid_oracle(model, utility, tight, x, pi_grid, scales, shape)
    assert_same_result(got, want)
    assert calls == {"from_pi": pi_grid.size + 1, "slack_path": pi_grid.size,
                     "cost_function": costed_rows}


# ---------------------------------------------------------------------------
# Input rules, checked before anything is evaluated
# ---------------------------------------------------------------------------

def _free_args(**changes):
    model, utility, _risk, x, pi_grid, scales, shape = _case("var")
    args = dict(model=model, utility=utility, risk=None, x=x,
                pi_grid=pi_grid, v_scale_grid=scales, v_shape=shape)
    args.update(changes)
    return args


@pytest.mark.parametrize("changes", [
    {"pi_grid": np.array([])},
    {"pi_grid": np.array([0.0, np.nan, 1.0])},
    {"pi_grid": np.array([-0.5, 0.5])},
    {"pi_grid": np.array([0.5, 1.5])},
    {"pi_grid": np.array([[0.0, 0.5], [0.5, 1.0]])},
    {"v_scale_grid": np.array([-1.0, 0.5])},
    {"v_scale_grid": np.array([])},
    {"v_scale_grid": np.array([0.5, np.inf])},
    {"v_shape": -np.ones(65)},
    {"v_shape": np.ones(64)},
    {"v_shape": np.full(65, np.nan)},
    {"x": 0.0},
    {"x": -1.0},
    {"x": np.nan},
], ids=lambda c: next(iter(c)))
def test_bad_input_raises_out_of_range(changes):
    with pytest.raises(OutOfRange):
        jf.grid_oracle(**_free_args(**changes))


def test_negative_scale_is_refused_not_nan():
    model = make_model(n=65, mu=0.06, sigma=0.3)
    with pytest.raises(OutOfRange):
        jf.grid_oracle(model, jf.UtilitySpec.equal(0.5), None, 1.0,
                       np.linspace(0, 1, 5), [-1.0, 0.5])


def test_two_asset_market_raises_out_of_range():
    model = make_model_2d()
    with pytest.raises(OutOfRange):
        jf.grid_oracle(model, jf.UtilitySpec.equal(0.5), None, 1.0,
                       np.linspace(0, 1, 5), np.linspace(0, 1, 3))


def test_bad_wealth_is_reported_before_an_empty_feasible_set():
    model = make_model(n=65, mu=0.06, sigma=0.3, lam=0.8, jump=POINTS)
    args = (model, jf.UtilitySpec.equal(0.5), jf.RiskSpec("var", 0.05, 0.01))
    with pytest.raises(EmptyFeasibleSet):
        jf.grid_oracle(*args, 1.0, [0.9, 1.0], [5.0, 8.0])
    with pytest.raises(OutOfRange):
        jf.grid_oracle(*args, 0.0, [0.9, 1.0], [5.0, 8.0])


_NEGJUMP_OFF_CALLS = {
    "slack_path": lambda m, u, r, s: jf.slack_path(s, m, r),
    "grid_oracle": lambda m, u, r, s: jf.grid_oracle(m, u, r, 1.0, [0.5],
                                                     [0.5]),
    "constraint_profile": lambda m, u, r, s: jf.constraint_profile(s, m, r,
                                                                   1.0),
    "adjusted_solve": lambda m, u, r, s: jf.adjusted_solve(m, r, u),
}


@pytest.mark.parametrize("call", sorted(_NEGJUMP_OFF_CALLS))
def test_negative_jumps_without_a_method_violate_assumption_j(call):
    model = make_model(n=65, mu=0.07, sigma=0.3, lam=0.6, jump=MIXED)
    strategy = jf.Strategy.from_pi(model, np.full((65, 1), 0.5))
    with pytest.raises(AssumptionJViolated):
        _NEGJUMP_OFF_CALLS[call](model, jf.UtilitySpec.equal(0.5),
                                 jf.RiskSpec("var", 0.05, 0.5), strategy)


def test_bad_wealth_is_reported_before_the_level_adjustment():
    model = make_model(n=65, mu=0.07, sigma=0.3, lam=0.6, jump=MIXED)
    utility = jf.UtilitySpec.equal(0.5)
    too_large = jf.RiskSpec("var", 0.05, 0.5, "thinning")
    with pytest.raises(EpsilonTooLarge):
        jf.grid_oracle(model, utility, too_large, 1.0, [0.5], [0.5])
    with pytest.raises(OutOfRange):
        jf.grid_oracle(model, utility, too_large, -2.0, [0.5], [0.5])
