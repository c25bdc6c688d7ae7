import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import jumpfolio as jf
from jumpfolio.errors import EpsilonTooLarge, JumpfolioError, KappaOutOfRange
from jumpfolio.negjumps import effective_level

from conftest import make_model


# ---------------------------------------------------------------------------
# Probability of a negative jump
# ---------------------------------------------------------------------------

def test_epsilon_zero_for_nonnegative_support():
    jumps = jf.JumpSpec(np.array([2.0]),
                        (jf.JumpDist.point_masses([0.0, 0.3], [0.5, 0.5]),))
    for method in ("thinning", "paper"):
        assert jf.epsilon_t(jumps, 1.0, method) == 0.0
        assert jf.epsilon_t(jumps, 0.0, method) == 0.0


def test_epsilon_single_asset_values():
    jumps = jf.JumpSpec(np.array([2.0]),
                        (jf.JumpDist.point_masses([-0.1, 0.2], [0.3, 0.7]),))
    got = jf.epsilon_t(jumps, 1.0, "thinning")
    assert got == pytest.approx(1.0 - math.exp(-0.6), rel=1e-14)
    got_paper = jf.epsilon_t(jumps, 1.0, "paper")
    assert got_paper == pytest.approx((1.0 - math.exp(-2.0)) * 0.3, rel=1e-14)
    # the two printed variants genuinely disagree here
    assert abs(got - got_paper) > 0.05


@pytest.mark.parametrize("null", [
    (0.0, jf.JumpDist.degenerate()),
    (1.0, jf.JumpDist.point_masses([0.1], [1.0])),
], ids=["no_jumps", "up_only"])
def test_paper_epsilon_is_zeroed_by_an_asset_that_cannot_jump_down(null):
    # the paper's product over assets has a zero factor for such an asset;
    # the thinned count is the probability of a negative jump either way
    down = jf.JumpDist.point_masses([-0.05, 0.08], [0.4, 0.6])
    one = jf.JumpSpec(np.array([0.3]), (down,))
    two = jf.JumpSpec(np.array([0.3, null[0]]), (down, null[1]))
    assert jf.epsilon_t(one, 1.0, "paper") == pytest.approx(0.10367, abs=1e-5)
    assert jf.epsilon_t(two, 1.0, "paper") == 0.0
    thinning = jf.epsilon_t(one, 1.0, "thinning")
    assert thinning == pytest.approx(0.11308, abs=1e-5)
    assert jf.epsilon_t(two, 1.0, "thinning") == thinning


def test_epsilon_monotone_in_time():
    jumps = jf.JumpSpec(
        np.array([1.0, 0.5]),
        (jf.JumpDist.point_masses([-0.1, 0.2], [0.4, 0.6]),
         jf.JumpDist.point_masses([-0.2], [1.0])))
    tt = np.linspace(0.0, 2.0, 41)
    for method in ("thinning", "paper"):
        vals = np.array([jf.epsilon_t(jumps, t, method) for t in tt])
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_epsilon_thinning_matches_mc_counting():
    lam, p_neg, horizon, n = 2.0, 0.3, 1.0, 200_000
    jumps = jf.JumpSpec(np.array([lam]),
                        (jf.JumpDist.point_masses([-0.1, 0.2], [p_neg, 0.7]),))
    closed = jf.epsilon_t(jumps, horizon, "thinning")
    rng = np.random.default_rng(8080)
    counts = rng.poisson(lam * horizon, n)
    sizes_neg = rng.binomial(counts, p_neg)
    hit = (sizes_neg > 0).mean()
    se = math.sqrt(closed * (1.0 - closed) / n)
    assert abs(hit - closed) < 3.0 * se


# ---------------------------------------------------------------------------
# Level adjustment
# ---------------------------------------------------------------------------

def test_beta_hat_values_and_monotonicity():
    assert jf.beta_hat(0.05, 0.0) == 0.05
    assert jf.beta_hat(0.05, 0.01) == pytest.approx(0.04 / 0.99, rel=1e-15)
    eps = np.linspace(0.0, 0.049, 25)
    vals = np.array([jf.beta_hat(0.05, e) for e in eps])
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(EpsilonTooLarge):
        jf.beta_hat(0.05, 0.05)


def test_adjusted_quantile_is_stricter():
    q = jf.normal_quantile(0.05)
    q_hat = jf.normal_quantile(jf.beta_hat(0.05, 0.02))
    assert q_hat < q < 0


def test_effective_F_reduction_and_composition(mixed_jump_1d):
    beta = 0.2
    clean = make_model(lam=0.5, jump=jf.JumpDist.point_masses([0.05], [1.0]))
    lev0 = effective_level(clean, jf.RiskSpec("es", beta, 0.2, "thinning"))
    assert lev0.F(1.5) == jf.F_beta(1.5, beta)
    lev = effective_level(mixed_jump_1d, jf.RiskSpec("es", beta, 0.2,
                                                     "thinning"))
    eps = lev.epsilon_T
    assert 0.0 < eps < beta
    for u in (1.0, 1.7, 2.5):
        # ln((1 - Phi(u)) / beta_hat) + ln(1 - eps), beta_hat written out
        tail = 0.5 * math.erfc(u / math.sqrt(2.0))
        composed = math.log(tail * (1.0 - eps) ** 2 / (beta - eps))
        assert lev.F(u) == pytest.approx(composed, abs=1e-12)
    assert lev.F(abs(lev.q_level)) == pytest.approx(math.log1p(-eps),
                                                    abs=1e-12)
    with pytest.raises(EpsilonTooLarge):
        jf.beta_hat(beta, beta)


def test_effective_level_off_and_adjusted(mixed_jump_1d):
    risk = jf.RiskSpec("var", 0.25, 0.2, "thinning")
    lev = effective_level(mixed_jump_1d, risk)
    eps = jf.epsilon_t(mixed_jump_1d.jumps, 1.0, "thinning")
    assert lev.epsilon_T == pytest.approx(eps, rel=1e-14)
    assert lev.beta == pytest.approx(jf.beta_hat(0.25, eps), rel=1e-14)

    clean = make_model(lam=0.5, jump=jf.JumpDist.point_masses([0.05], [1.0]))
    lev0 = effective_level(clean, jf.RiskSpec("var", 0.25, 0.2, "thinning"))
    assert lev0.epsilon_T == 0.0
    assert lev0.beta == 0.25


# ---------------------------------------------------------------------------
# Adjusted solves
# ---------------------------------------------------------------------------

def test_adjusted_solve_identical_without_negative_jumps():
    model = make_model(mu=0.07, r=0.02, sigma=0.3, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.04], [1.0]))
    utility = jf.UtilitySpec(1.0, 1.0)
    off = jf.adjusted_solve(model, jf.RiskSpec("var", 0.05, 0.1, "off"), utility)
    on = jf.adjusted_solve(model, jf.RiskSpec("var", 0.05, 0.1, "thinning"),
                           utility)
    assert on.J_star == off.J_star
    assert np.array_equal(on.strategy.y, off.strategy.y)


def test_adjusted_radius_more_conservative(mixed_jump_1d):
    risk = jf.RiskSpec("var", 0.25, 0.15, "thinning")
    rep = jf.solve_gamma1(mixed_jump_1d, risk)
    rho_adj = rep.diagnostics["rho_star"]
    # unadjusted radius from the same closed form at the raw level
    from jumpfolio.market import l2_time_norm, theta_path
    q_raw = abs(jf.normal_quantile(0.25))
    theta_norm = l2_time_norm(mixed_jump_1d.grid, theta_path(mixed_jump_1d))
    b = theta_norm - q_raw - rep.diagnostics["drag"]
    rho_raw = b + math.sqrt(b * b - 2.0 * math.log(1.0 - risk.kappa))
    assert rho_adj <= rho_raw


def test_adjusted_es_solve_feasible(mixed_jump_1d):
    risk = jf.RiskSpec("es", 0.25, 0.35, "thinning")
    rep = jf.solve_gamma1(mixed_jump_1d, risk)
    assert jf.slack_path(rep.strategy, mixed_jump_1d, risk).min() >= -1e-10
    with pytest.raises(KappaOutOfRange):
        jf.solve_gamma1(mixed_jump_1d, jf.RiskSpec("es", 0.25, 0.05,
                                                   "thinning"))


def test_adjusted_solve_certificate_path(mixed_jump_1d):
    utility = jf.UtilitySpec.equal(0.5)
    risk = jf.RiskSpec("var", 0.25, 0.9, "thinning")
    rep = jf.adjusted_solve(mixed_jump_1d, risk, utility)
    cert = rep.diagnostics["certificate"]
    assert not cert.active


def test_adjusted_solve_certificate_path_uses_initial_wealth(mixed_jump_1d):
    utility = jf.UtilitySpec.equal(0.5)
    risk = jf.RiskSpec("var", 0.25, 0.9, "thinning")
    rep = jf.adjusted_solve(mixed_jump_1d, risk, utility, x=2.0)
    assert rep.J_star == jf.solve_power_equal(mixed_jump_1d, utility,
                                              2.0).J_star


def test_epsilon_too_large_for_level():
    jumps = jf.JumpSpec(np.array([5.0]),
                        (jf.JumpDist.point_masses([-0.1], [1.0]),))
    grid = jf.TimeGrid.uniform(1.0, 9)
    coeffs = jf.CoefficientPath.constant(grid, 0.02, [0.07], [[0.3]])
    model = jf.MarketModel(grid, coeffs, jumps)
    with pytest.raises(EpsilonTooLarge):
        effective_level(model, jf.RiskSpec("var", 0.05, 0.2, "thinning"))


# ---------------------------------------------------------------------------
# Consume-all regime under an ES limit with negative jumps
# ---------------------------------------------------------------------------

def _consume_all_market():
    return (make_model(n=257, mu=0.04, r=0.02, sigma=0.3, lam=0.5,
                       jump=jf.JumpDist.point_masses([-0.05, 0.02],
                                                     [0.1, 0.9])),
            jf.UtilitySpec(0.3, 0.7))


@pytest.mark.parametrize("method", ("thinning", "paper"))
def test_consume_all_meets_the_shifted_es_limit(method):
    # at y = 0 the ES transform reads -V_t + ln(1 - eps_T) >= ln(1 - kappa),
    # so the consumed fraction is (kappa - eps_T) / (1 - eps_T)
    model, utility = _consume_all_market()
    risk = jf.RiskSpec("es", 0.1, 0.15, method)
    rep = jf.solve_diff_gamma(model, utility, risk)
    eps = effective_level(model, risk).epsilon_T
    assert eps > 0.0
    slack = jf.slack_path(rep.strategy, model, risk)
    assert rep.condition_ok
    assert slack.min() >= -1e-10
    assert abs(slack[-1]) < 1e-12
    assert rep.eta_kappa == pytest.approx((0.15 - eps) / (1.0 - eps),
                                          abs=1e-14)


def test_consume_all_es_refuses_epsilon_at_kappa():
    model, utility = _consume_all_market()
    eps = effective_level(model, jf.RiskSpec("es", 0.1, 0.15,
                                             "thinning")).epsilon_T
    with pytest.raises(EpsilonTooLarge):
        jf.solve_diff_gamma(model, utility,
                            jf.RiskSpec("es", 0.1, eps, "thinning"),
                            force=True)


def test_consume_all_var_keeps_kappa_with_negative_jumps():
    model, utility = _consume_all_market()
    risk = jf.RiskSpec("var", 0.1, 0.15, "thinning")
    rep = jf.solve_diff_gamma(model, utility, risk)
    assert rep.eta_kappa == pytest.approx(0.15, abs=1e-14)
    assert jf.slack_path(rep.strategy, model, risk).min() >= -1e-10


# ---------------------------------------------------------------------------
# Every solve on a random market refuses or is admissible and feasible
# ---------------------------------------------------------------------------

@st.composite
def solve_cases(draw, atoms=(-1.0, 5.0), lam_max=5.0, mu=(-0.05, 0.5),
                beta_max=0.5, optional_limit=True):
    """Inputs of one adjusted_solve: d <= 3 assets with drifts linear in
    time, atoms in (-1, 5), intensities up to 5, horizons up to 3, any
    utility kind and an optional VaR or ES limit under any method; the
    keywords narrow the atoms, intensities, drifts and levels, or make the
    limit certain."""
    d = draw(st.integers(1, 3))
    sizes = st.lists(st.floats(*atoms, exclude_min=True, exclude_max=True),
                     min_size=1, max_size=3)
    jumps = [(draw(st.floats(0.0, lam_max)), draw(sizes)) for _ in range(d)]
    utility = draw(st.sampled_from(["linear", "equal", "distinct"]))
    limits = st.tuples(st.sampled_from(["var", "es"]),
                       st.floats(0.01, beta_max), st.floats(0.01, 0.99),
                       st.sampled_from(["off", "paper", "thinning"]))
    return dict(
        n=draw(st.sampled_from([5, 9, 17])),
        horizon=draw(st.floats(0.1, 3.0)),
        r=draw(st.floats(0.0, 0.05)),
        mu=[(draw(st.floats(*mu)), draw(st.floats(*mu))) for _ in range(d)],
        sigma=[[draw(st.floats(0.1, 0.6)) if i == j
                else draw(st.floats(-0.2, 0.2)) if j < i else 0.0
                for j in range(d)] for i in range(d)],
        jumps=jumps,
        gammas={"linear": (1.0, 1.0),
                "equal": (draw(st.floats(0.05, 0.95)),) * 2,
                "distinct": (draw(st.floats(0.05, 0.45)),
                             draw(st.floats(0.55, 0.95)))}[utility],
        risk=draw(st.none() | limits if optional_limit else limits),
    )


def _case_inputs(case):
    n = case["n"]
    grid = jf.TimeGrid.uniform(case["horizon"], n)
    mu = np.column_stack([np.linspace(a, b, n) for a, b in case["mu"]])
    coeffs = jf.CoefficientPath(r=np.full(n, case["r"]), mu=mu,
                                sigma=np.tile(case["sigma"], (n, 1, 1)))
    dists = tuple(jf.JumpDist.point_masses(z, np.full(len(z), 1.0 / len(z)))
                  for _, z in case["jumps"])
    lambdas = np.array([lam for lam, _ in case["jumps"]])
    model = jf.MarketModel(grid, coeffs, jf.JumpSpec(lambdas, dists))
    risk = None if case["risk"] is None else jf.RiskSpec(*case["risk"])
    return model, jf.UtilitySpec(*case["gammas"]), risk


# a two-year horizon where the gamma = 1 ray at rho* leaves [0, 1] but the
# box optimum pi = 1 meets the limit
_BOX_CASE = dict(n=65, horizon=2.0, r=0.02, mu=[(0.25, 0.25)],
                 sigma=[[0.2]], jumps=[(0.5, [0.05])], gammas=(1.0, 1.0),
                 risk=("var", 0.05, 0.9, "off"))


# milder markets than solve_cases' defaults, so that each branch answers
# often enough to be checked
_MILD = dict(atoms=(-0.05, 0.2), lam_max=0.5, mu=(0.03, 0.1), beta_max=0.2)

# fixed markets, with (beta, method, high kappa, low kappa): under either
# kind of limit, gamma = 1 and equal gamma 0.5 (certified) answer at the
# high kappa, and gamma = 1 and gammas (0.3, 0.7) answer at the low one;
# so the answer floors below hold whatever the draws
_FIXED_MARKETS = [
    (dict(n=9, horizon=1.3, r=0.036, mu=[(0.067, 0.069)], sigma=[[0.35]],
          jumps=[(0.31, [0.088, 0.118, -0.002])]),
     (0.198, "paper", 0.95, 0.2)),
    (dict(n=17, horizon=0.59, r=0.017, mu=[(0.095, 0.092)], sigma=[[0.34]],
          jumps=[(0.23, [0.117])]),
     (0.173, "off", 0.95, 0.05)),
    (dict(n=9, horizon=1.52, r=0.027, mu=[(0.052, 0.065)], sigma=[[0.13]],
          jumps=[(0.02, [0.069, 0.158, -0.045])]),
     (0.116, "thinning", 0.95, 0.05)),
    (dict(n=9, horizon=1.87, r=0.023, mu=[(0.061, 0.061), (0.049, 0.087)],
          sigma=[[0.33, 0.0], [-0.16, 0.28]],
          jumps=[(0.24, [0.04]), (0.05, [-0.012, 0.132])]),
     (0.091, "thinning", 0.95, 0.05)),
    (dict(n=9, horizon=1.71, r=0.026, mu=[(0.085, 0.091), (0.089, 0.04)],
          sigma=[[0.55, 0.0], [-0.15, 0.47]],
          jumps=[(0.02, [-0.017, 0.105]), (0.16, [0.092])]),
     (0.052, "thinning", 0.95, 0.05)),
]


def _with_examples(arguments):
    """Add one hypothesis example per tuple of arguments."""
    def apply(test):
        for args in arguments:
            test = example(*args)(test)
        return test
    return apply


def _branch(report) -> str:
    """The constrained branch of adjusted_solve that gave the report, with
    the certificate's kind."""
    if isinstance(report, jf.DiffGammaReport):
        return "distinct gamma"
    if "certificate" in report.diagnostics:
        kind = report.diagnostics["certificate"].kind.value
        return f"certified equal gamma, {kind}"
    return "gamma = 1"


# one market with a negative atom, eps_T 0.049 under thinning, on which
# every constrained branch of adjusted_solve answers at beta 0.1: the
# utility and the limit's kind and kappa pick the branch
_ONE_MARKET = dict(n=33, horizon=1.0, r=0.02, mu=[(0.07, 0.07)],
                   sigma=[[0.3]], jumps=[(0.15, [-0.05, 0.08, 0.1])])

# gammas, (kind, kappa), the branch and the gamma = 1 case it answers with
_BRANCH_CASES = {
    "gamma = 1 box": ((1.0, 1.0), ("var", 0.6), "gamma = 1", "box"),
    "gamma = 1 ray, var": ((1.0, 1.0), ("var", 0.1), "gamma = 1",
                           "directional"),
    "gamma = 1 ray, es": ((1.0, 1.0), ("es", 0.1), "gamma = 1",
                          "directional"),
    "certified var": ((0.5, 0.5), ("var", 0.9),
                      "certified equal gamma, var", None),
    "certified es": ((0.5, 0.5), ("es", 0.9), "certified equal gamma, es",
                     None),
    "distinct gamma, var": ((0.3, 0.7), ("var", 0.1), "distinct gamma", None),
    "distinct gamma, es": ((0.3, 0.7), ("es", 0.1), "distinct gamma", None),
}


@pytest.mark.parametrize("name", sorted(_BRANCH_CASES))
def test_each_constrained_branch_answers_on_a_fixed_market(name):
    # the random draws below reach each branch only as luck allows; this
    # reaches each one by construction
    gammas, (kind, kappa), branch, case = _BRANCH_CASES[name]
    model, utility, risk = _case_inputs(dict(
        _ONE_MARKET, gammas=gammas, risk=(kind, 0.1, kappa, "thinning")))
    report = jf.adjusted_solve(model, risk, utility)
    assert _branch(report) == branch
    assert report.diagnostics.get("case") == case
    report.strategy.validate(model)
    assert jf.slack_path(report.strategy, model, risk).min() >= -1e-10
    assert math.isfinite(report.J_star)


def test_adjusted_solve_refuses_or_returns_a_feasible_strategy():
    # each example solves one case of the wide draws as drawn and one mild
    # market under a limit for each utility kind; each constrained branch
    # must answer often enough to be checked
    answered = dict.fromkeys(
        ("gamma = 1", "certified equal gamma, var",
         "certified equal gamma, es", "distinct gamma"), 0)

    def check(case):
        model, utility, risk = _case_inputs(case)
        try:
            report = jf.adjusted_solve(model, risk, utility)
        except JumpfolioError:
            return
        report.strategy.validate(model)
        if risk is not None:
            assert jf.slack_path(report.strategy, model, risk).min() >= -1e-10
            answered[_branch(report)] += 1
        assert math.isfinite(report.J_star)
        for key, value in report.diagnostics.items():
            assert not isinstance(value, float) or math.isfinite(value), key

    @given(solve_cases(), solve_cases(**_MILD, optional_limit=False),
           st.floats(0.05, 0.95), st.floats(0.05, 0.45), st.floats(0.55, 0.95))
    @example(_BOX_CASE, _BOX_CASE, 0.5, 0.3, 0.7)
    # per fixed market and kappa: a case under an ES limit, certified at
    # the high kappa and distinct gamma at the low one, and the market
    # under a VaR limit
    @_with_examples([
        (dict(market, gammas=gammas, risk=("es", beta, kappa, method)),
         dict(market, risk=("var", beta, kappa, method)), 0.5, 0.3, 0.7)
        for market, (beta, method, high, low) in _FIXED_MARKETS
        for gammas, kappa in (((0.5, 0.5), high), ((0.3, 0.7), low))])
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    def run(case, mild, gamma, gamma1, gamma2):
        check(case)
        for gammas in ((1.0, 1.0), (gamma, gamma), (gamma1, gamma2)):
            check(dict(mild, gammas=gammas))

    run()
    assert min(answered.values()) >= 5, answered


# ---------------------------------------------------------------------------
# Metamorphic relations: each solve against a transformed copy of itself
# ---------------------------------------------------------------------------

def _solve_case(case, x=1.0):
    """The report of adjusted_solve on a case, or the type it raises."""
    model, utility, risk = _case_inputs(case)
    try:
        return jf.adjusted_solve(model, risk, utility, x)
    except JumpfolioError as exc:
        return type(exc)


def _refused(a, b) -> bool:
    """Whether both outcomes are refusals, which must then be of one type;
    a refusal on one side only fails."""
    if isinstance(a, type) or isinstance(b, type):
        assert a is b, (a, b)
        return True
    return False


def _assert_same_strategy(a, b):
    for path in ("y", "pi", "v", "V"):
        assert (getattr(a.strategy, path).tobytes()
                == getattr(b.strategy, path).tobytes()), path


def _with_null_asset(case):
    """The case plus an asset with mu = r, no jumps and its own Brownian
    motion, which an optimum leaves alone."""
    d = len(case["mu"])
    sigma = [row + [0.0] for row in case["sigma"]] + [[0.0] * d + [0.3]]
    return dict(case, mu=case["mu"] + [(case["r"], case["r"])], sigma=sigma,
                jumps=case["jumps"] + [(0.0, [0.0])])


def _relabelled(case, order):
    """The case with its assets in the given order."""
    return dict(case, mu=[case["mu"][i] for i in order],
                sigma=[case["sigma"][i] for i in order],
                jumps=[case["jumps"][i] for i in order])


def test_solves_obey_the_metamorphic_relations():
    # each example checks one case as drawn and one market under a certain
    # limit for each utility kind, equal gamma under both kinds of limit;
    # each constrained branch must answer often enough for its relations to
    # be checked
    answered = dict.fromkeys(
        ("gamma = 1", "certified equal gamma, var",
         "certified equal gamma, es", "distinct gamma"), 0)

    def check(case, c, order):
        base = _check_relations(case, c, order)
        if case["risk"] is not None and not isinstance(base, type):
            answered[_branch(base)] += 1

    @given(solve_cases(**_MILD), solve_cases(**_MILD, optional_limit=False),
           st.floats(0.05, 0.95), st.floats(0.05, 0.45), st.floats(0.55, 0.95),
           st.floats(0.1, 10.0), st.permutations(range(3)))
    # per fixed market: a distinct-gamma case at the low kappa, and a VaR
    # limit at the high kappa, which the equal gamma also meets as ES
    @_with_examples([
        (dict(market, gammas=(0.3, 0.7), risk=("var", beta, low, method)),
         dict(market, risk=("var", beta, high, method)), 0.5, 0.3, 0.7,
         2.0, [2, 0, 1])
        for market, (beta, method, high, low) in _FIXED_MARKETS])
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    def run(case, limited, gamma, gamma1, gamma2, c, order):
        check(case, c, order)
        for gammas in ((1.0, 1.0), (gamma, gamma), (gamma1, gamma2)):
            check(dict(limited, gammas=gammas), c, order)
        kind, *level = limited["risk"]
        check(dict(limited, gammas=(gamma, gamma),
                   risk=("es" if kind == "var" else "var", *level)), c, order)

    run()
    assert min(answered.values()) >= 5, answered


def _check_relations(case, c, order):
    """Check every relation that applies to the case; returns the report of
    its own solve, or the type it raised."""
    base = _solve_case(case)
    gamma1, gamma2 = case["gammas"]

    # homogeneity for equal gamma: J*(c x) = c^gamma J*(x), same strategy
    if gamma1 == gamma2:
        scaled = _solve_case(case, c)
        if not _refused(scaled, base):
            assert scaled.J_star == pytest.approx(c**gamma1 * base.J_star,
                                                  rel=1e-12)
            _assert_same_strategy(scaled, base)

    # relabelling the assets relabels pi and leaves J* alone
    order = [i for i in order if i < len(case["mu"])]
    moved = _solve_case(_relabelled(case, order))
    if not _refused(moved, base):
        assert moved.J_star == pytest.approx(base.J_star, rel=1e-12)
        np.testing.assert_allclose(moved.strategy.pi,
                                   base.strategy.pi[:, order],
                                   rtol=0.0, atol=1e-12)

    # a null asset leaves J* and pi alone, but not under `paper`, whose
    # product over assets reads eps_T = 0 once one asset cannot jump
    if case["risk"] is None or case["risk"][3] != "paper":
        more = _solve_case(_with_null_asset(case))
        if not _refused(more, base):
            assert more.J_star == pytest.approx(base.J_star, rel=1e-12)
            np.testing.assert_allclose(more.strategy.pi[:, :-1],
                                       base.strategy.pi, rtol=0.0, atol=1e-12)

    if case["risk"] is None:
        return base
    kind, beta, kappa, method = case["risk"]

    # for equal gamma a limit can only lower J*
    if gamma1 == gamma2 and not isinstance(base, type):
        free = _solve_case(dict(case, risk=None))
        assert base.J_star <= free.J_star * (1.0 + 1e-12)

    # without negative atoms every method solves bit for bit as `off` does
    clean = dict(case, jumps=[(lam, [abs(z) for z in sizes])
                              for lam, sizes in case["jumps"]])
    off = _solve_case(dict(clean, risk=(kind, beta, kappa, "off")))
    for other in ("paper", "thinning"):
        adjusted = _solve_case(dict(clean, risk=(kind, beta, kappa, other)))
        if not _refused(adjusted, off):
            assert adjusted.J_star == off.J_star
            _assert_same_strategy(adjusted, off)

    # J* is nondecreasing in kappa over the kappas that get an answer
    answers = [_solve_case(dict(case, risk=(kind, beta, k, method)))
               for k in (0.05, 0.2, 0.5, 0.8, 0.95)]
    values = [a.J_star for a in answers if not isinstance(a, type)]
    assert all(lo <= hi * (1.0 + 1e-12) for lo, hi in zip(values, values[1:]))
    return base
