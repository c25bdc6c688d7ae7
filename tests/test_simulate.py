import hashlib
import importlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

import jumpfolio as jf
from jumpfolio.errors import EmptyFeasibleSet, InvalidStrategy, OutOfRange
from jumpfolio.market import R_path, cumtrapz, theta_hat_path, theta_path
from jumpfolio.riskmetrics import empirical_lower_quantile, empirical_shortfall
from jumpfolio.simulate import _PathCost, _march

from conftest import make_model

simulate_module = importlib.import_module("jumpfolio.simulate")


@pytest.fixture
def sim_model():
    return make_model(n=65, mu=0.06, r=0.02, sigma=0.3, lam=0.8,
                      jump=jf.JumpDist.point_masses([0.03, 0.10], [0.6, 0.4]))


@pytest.fixture
def sim_strategy(sim_model):
    n = sim_model.grid.n
    return jf.Strategy.from_pi(sim_model, np.full((n, 1), 0.5),
                               np.full(n, 0.3))


def _terminal_mean_closed_form(model, strategy, x):
    drift = cumtrapz(model.grid,
                     np.sum(strategy.y * theta_path(model), axis=1))
    return x * math.exp(R_path(model)[-1] - strategy.V[-1] + drift[-1])


# ---------------------------------------------------------------------------
# Determinism, positivity, exact cases
# ---------------------------------------------------------------------------

def test_simulation_is_bit_deterministic(sim_model, sim_strategy):
    a = jf.simulate(sim_model, sim_strategy, 1.0, 5000, 99)
    b = jf.simulate(sim_model, sim_strategy, 1.0, 5000, 99)
    assert np.array_equal(a.wealth, b.wealth)
    c = jf.simulate(sim_model, sim_strategy, 1.0, 5000, 100)
    assert not np.array_equal(a.wealth, c.wealth)


def test_node_stats_consistent_with_full_ensemble(sim_model, sim_strategy):
    n = 20_000
    ens = jf.simulate(sim_model, sim_strategy, 1.0, n, 4242)
    stats = jf.simulate_node_stats(sim_model, sim_strategy, 1.0, 0.05, n, 4242)
    for k in (0, 10, 40, 64):
        col = ens.wealth[:, k]
        q = jf.riskmetrics.empirical_lower_quantile(col, 0.05)
        assert stats.q_beta[k] == q
        assert stats.mean[k] == pytest.approx(col.mean(), rel=1e-14)


def test_node_stats_without_beta_skip_only_the_tail(sim_model, sim_strategy):
    thresholds = 0.9 * np.exp(R_path(sim_model))
    utility = jf.UtilitySpec.equal(0.5)
    tail, plain = (jf.simulate_node_stats(sim_model, sim_strategy, 1.0, beta,
                                          3000, 17, thresholds, utility)
                   for beta in (0.05, None))
    assert plain.q_beta is None and plain.tail_mean is None
    assert plain.tail_std is None
    assert np.array_equal(plain.mean, tail.mean)
    assert np.array_equal(plain.below, tail.below)
    assert plain.cost == tail.cost
    assert plain.terminal_std == tail.terminal_std
    with pytest.raises(OutOfRange):
        plain.shortfall_standard_error()
    with pytest.raises(OutOfRange):
        jf.constraint_profile(plain, sim_model, jf.RiskSpec("var", 0.05, 0.1),
                              1.0)


def test_wealth_is_stored_node_major(sim_model, sim_strategy):
    ens = jf.simulate(sim_model, sim_strategy, 1.0, 1000, 5)
    assert ens.wealth.shape == (1000, sim_model.grid.n)
    assert ens.wealth.flags.f_contiguous


def test_simulate_allocates_no_second_wealth_matrix(sim_model, sim_strategy):
    # the wealth matrix and the normal buffers, plus about 0.5 MB of log
    # wealth and jump marks; a full-size copy of the matrix
    # (10.4 MB here) would not fit in the margin
    n_paths = 20_000
    tracemalloc.start()
    try:
        ens = jf.simulate(sim_model, sim_strategy, 1.0, n_paths, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = min(sim_model.grid.n - 1,
               max(1, simulate_module._NORMALS_PER_DRAW // n_paths))
    buffers = simulate_module._BUFFERS * rows * n_paths * 8
    assert peak <= ens.wealth.nbytes + buffers + (1 << 20)


def test_wealth_positive(sim_model, sim_strategy):
    ens = jf.simulate(sim_model, sim_strategy, 1.0, 20_000, 7)
    assert np.all(ens.wealth > 0.0)


def test_bank_account_is_deterministic(sim_model):
    bank = jf.Strategy.riskless(sim_model)
    ens = jf.simulate(sim_model, bank, 2.0, 64, 3)
    expected = 2.0 * np.exp(R_path(sim_model))
    assert np.max(np.abs(ens.wealth - expected[None, :])) < 1e-14


def test_rejects_inadmissible_strategy(sim_model):
    n = sim_model.grid.n
    bad = jf.Strategy.from_pi(sim_model, np.full((n, 1), 1.4))
    with pytest.raises(InvalidStrategy):
        jf.simulate(sim_model, bad, 1.0, 10, 1)


def test_rejects_non_finite_strategy(sim_model, sim_strategy):
    y, pi = sim_strategy.y.copy(), sim_strategy.pi.copy()
    y[7], pi[7] = np.nan, np.nan
    bad = jf.Strategy(sim_model.grid, y, pi, sim_strategy.v)
    with pytest.raises(InvalidStrategy):
        jf.simulate(sim_model, bad, 1.0, 10, 1)
    with pytest.raises(InvalidStrategy):
        jf.simulate_node_stats(sim_model, bad, 1.0, 0.05, 10, 1)


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
def test_rejects_bad_initial_wealth(sim_model, sim_strategy, x):
    with pytest.raises(OutOfRange):
        jf.simulate(sim_model, sim_strategy, x, 10, 1)
    with pytest.raises(OutOfRange):
        jf.simulate_node_stats(sim_model, sim_strategy, x, 0.05, 100, 1)


@pytest.mark.parametrize("n_paths, seed", [(0, 1), (-3, 1), (10, -1)])
def test_rejects_bad_paths_and_seed(sim_model, sim_strategy, n_paths, seed):
    with pytest.raises(OutOfRange):
        jf.simulate(sim_model, sim_strategy, 1.0, n_paths, seed)
    with pytest.raises(OutOfRange):
        jf.simulate_node_stats(sim_model, sim_strategy, 1.0, 0.05, n_paths,
                               seed)


def test_rejects_ensemble_too_large_to_store(sim_model, sim_strategy):
    # 65 nodes x 5e6 paths is above the 3e8-cell cap; nothing is allocated
    with pytest.raises(OutOfRange):
        jf.simulate(sim_model, sim_strategy, 1.0, 5_000_000, 1)


@pytest.mark.parametrize("shape", [(64,), (66,), (65, 1), ()])
def test_rejects_thresholds_of_wrong_shape_before_drawing(
        sim_model, sim_strategy, shape, monkeypatch):
    # every task's stream starts from this constructor
    def no_draws(seed):
        raise AssertionError("drew random numbers before validating")

    monkeypatch.setattr(np.random, "SFC64", no_draws)
    with pytest.raises(OutOfRange):
        jf.simulate_node_stats(sim_model, sim_strategy, 1.0, 0.05, 100, 1,
                               thresholds=np.ones(shape))


def test_callback_error_reaches_caller_and_stops_the_worker(
        sim_model, sim_strategy):
    stop = RuntimeError("stop at node 3")
    before = threading.active_count()
    seen = []

    def callback(k, log_w):
        seen.append(threading.active_count())
        if k == 3:
            raise stop

    with pytest.raises(RuntimeError) as caught:
        _march(sim_model, sim_strategy, 1.0, 50_000, 9, callback)
    assert caught.value is stop
    assert seen and max(seen) <= before + simulate_module._WORKERS
    assert threading.active_count() == before


def _serial_march(model, strategy, x, n_paths, seed, block_paths):
    """Reference: every task's draws and every node update in one loop on
    one thread.  The intervals go in groups (as many as 2^18 normals
    cover, at least one), and block b's share of group g draws from SFC64
    seeded by SeedSequence(seed, spawn_key=(b, g)): its normals interval
    by interval, then per asset with jumps one Poisson total per interval,
    the jumps' path indices, their offsets inside the interval and, unless
    the law has one atom, their sizes.  Returns the wealth and each task's
    first normal."""
    grid = model.grid
    n = grid.n
    det_log = (math.log(x) + R_path(model) - strategy.V
               + cumtrapz(grid, np.sum(strategy.y * theta_hat_path(model),
                                       axis=1)))
    ysq = np.sum(strategy.y**2, axis=1)
    s2 = 0.5 * (ysq[1:] + ysq[:-1]) * grid.dt
    rows = min(n - 1, max(1, (1 << 18) // n_paths))
    inc = np.empty((n - 1, n_paths))
    first_normals = []
    for b, lo in enumerate(range(0, n_paths, block_paths)):
        hi = min(lo + block_paths, n_paths)
        for g, first in enumerate(range(0, n - 1, rows)):
            rng = np.random.Generator(np.random.SFC64(
                np.random.SeedSequence(seed, spawn_key=(b, g))))
            group = np.arange(first, min(first + rows, n - 1))
            for i in group:
                z = rng.standard_normal(hi - lo)
                if i == first:
                    first_normals.append(z[0])
                inc[i, lo:hi] = (z * math.sqrt(s2[i])
                                 + (det_log[i + 1] - det_log[i] - 0.5 * s2[i]))
            for j in range(model.d):
                lam = float(model.jumps.lambdas[j])
                if lam <= 0.0:
                    continue
                m = rng.poisson(lam * grid.dt[group] * (hi - lo))
                path = rng.integers(0, hi - lo, m.sum())
                offset = rng.random(m.sum())
                dist = model.jumps.dists[j]
                if dist.z.size == 1:
                    size = dist.z[0]
                else:
                    cdf = np.cumsum(dist.w)
                    size = dist.z[np.searchsorted(cdf / cdf[-1],
                                                  rng.random(m.sum()),
                                                  side="right")]
                interval = np.repeat(group, m)
                left = strategy.pi[interval, j]
                right = strategy.pi[interval + 1, j]
                factor = np.log1p((left + offset * (right - left)) * size)
                np.add.at(inc, (interval, lo + path), factor)
    wealth = np.empty((n_paths, n))
    log_w = np.full(n_paths, det_log[0])
    wealth[:, 0] = np.exp(log_w)
    for k in range(1, n):
        log_w += inc[k - 1]
        wealth[:, k] = np.exp(log_w)
    return wealth, first_normals


def test_matches_serial_reference_under_fast_thread_switching(monkeypatch):
    # four path blocks, then one, each in 20 groups of two intervals, so
    # every normal buffer is reused several times and tasks of one block
    # run at once while the interpreter switches threads as often as it can
    grid = jf.TimeGrid(np.linspace(0.0, 1.0, 41) ** 1.5)
    coeffs = jf.CoefficientPath.constant(grid, 0.02, [0.07, 0.05],
                                         [[0.3, 0.05], [0.0, 0.25]])
    jumps = jf.JumpSpec(np.array([3.0, 1.0]),
                        (jf.JumpDist.point_masses([-0.1, 0.1], [0.5, 0.5]),
                         jf.JumpDist.point_masses([0.05], [1.0])))
    model = jf.MarketModel(grid, coeffs, jumps)
    pi = np.column_stack([np.linspace(0.2, 0.8, grid.n),
                          np.full(grid.n, 0.5)])
    strategy = jf.Strategy.from_pi(model, pi)
    n_paths = 100_000
    for block_paths in (1 << 15, simulate_module._BLOCK_PATHS):
        monkeypatch.setattr(simulate_module, "_BLOCK_PATHS", block_paths)
        wealth, first_normals = _serial_march(
            model, strategy, 1.0, n_paths, 21, block_paths)
        # every task of the seed draws from a stream of its own
        n_blocks = -(-n_paths // block_paths)
        assert len(set(first_normals)) == 20 * n_blocks
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ens = jf.simulate(model, strategy, 1.0, n_paths, 21)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(ens.wealth, wealth)


def _march_digest(model, strategy, n_paths, seed):
    h = hashlib.sha256()
    _march(model, strategy, 1.0, n_paths, seed,
           lambda k, log_w: h.update(log_w.tobytes()))
    return h.hexdigest()


def test_output_does_not_depend_on_the_worker_count(sim_model, sim_strategy,
                                                     monkeypatch):
    # three full blocks and a partial one in groups of 21 intervals, then
    # one block in groups of 2; with three workers there are more draw
    # threads than cores, and the interpreter switches threads as often as
    # it can
    monkeypatch.setattr(simulate_module, "_BLOCK_PATHS", 4096)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_paths, per_draw in ((3 * 4096 + 123, 1 << 18), (4000, 1 << 13)):
            monkeypatch.setattr(simulate_module, "_NORMALS_PER_DRAW", per_draw)
            digests = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(simulate_module, "_WORKERS", workers)
                digests.append(_march_digest(sim_model, sim_strategy,
                                             n_paths, 8))
            assert digests[0] == digests[1] == digests[2]
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# Martingale and closed-form moments
# ---------------------------------------------------------------------------

def test_diffusion_martingale_factor():
    model = make_model(n=65, mu=0.06, r=0.02, sigma=0.3, lam=0.0)
    n_grid = model.grid.n
    strat = jf.Strategy.from_pi(model, np.full((n_grid, 1), 0.7))
    n = 200_000
    ens = jf.simulate(model, strat, 1.0, n, 314)
    scale = _terminal_mean_closed_form(model, strat, 1.0)
    sample = ens.wealth[:, -1] / scale
    se = sample.std(ddof=1) / math.sqrt(n)
    assert abs(sample.mean() - 1.0) < 3.0 * se


def test_mean_wealth_matches_closed_form_at_nodes(sim_model, sim_strategy):
    n = 200_000
    ens = jf.simulate(sim_model, sim_strategy, 1.0, n, 2718)
    drift = cumtrapz(sim_model.grid,
                     np.sum(sim_strategy.y * theta_path(sim_model), axis=1))
    closed = np.exp(R_path(sim_model) - sim_strategy.V + drift)
    for k in (16, 32, 64):
        col = ens.wealth[:, k]
        se = col.std(ddof=1) / math.sqrt(n)
        assert abs(col.mean() - closed[k]) < 3.0 * se


def test_mean_wealth_exact_for_time_varying_pi_on_coarse_grid():
    # pi enters each jump at its exact time, linearly interpolated between
    # the nodes, so the node mean matches the trapezoid closed form even on
    # a 5-node grid with a jump-heavy market
    model = make_model(n=5, lam=3.0, jump=jf.JumpDist.point_masses([0.5], [1.0]))
    strat = jf.Strategy.from_pi(model, np.linspace(0.0, 1.0, 5)[:, None])
    n = 2_000_000
    first, second = np.zeros(5), np.zeros(5)

    def collect(k, log_w):
        w = np.exp(log_w)
        first[k] = w.mean()
        second[k] = np.mean(w * w)

    _march(model, strat, 1.0, n, 31, collect)
    drift = cumtrapz(model.grid, np.sum(strat.y * theta_path(model), axis=1))
    closed = np.exp(R_path(model) + drift)
    se = np.sqrt((second - first**2) / n)
    assert closed[-1] == pytest.approx(1.046, abs=5e-4)
    assert np.all(np.abs(first - closed) <= 4.0 * se + 1e-12)


def test_jump_counts_distribution(sim_model):
    # with a one-atom law, pi = 1 and a negligible volatility, each half's
    # log-wealth step is its jump count times log(1 + xi), so the march's
    # own output gives every path's count in the two halves of the
    # horizon, which one group of draws splits from one Poisson total per
    # half
    n = 100_000
    lam = float(sim_model.jumps.lambdas[0])
    grid = jf.TimeGrid(np.array([0.0, 0.5, 1.0]))
    coeffs = jf.CoefficientPath.constant(grid, 0.0, [0.0], [[1e-6]])
    xi = 0.1
    jumps = jf.JumpSpec(np.array([lam]),
                        (jf.JumpDist.point_masses([xi], [1.0]),))
    halves_model = jf.MarketModel(grid, coeffs, jumps)
    pi_one = jf.Strategy.from_pi(halves_model, np.ones((3, 1)))
    steps = []
    _march(halves_model, pi_one, 1.0, n, 1,
           lambda k, log_w: steps.append(log_w.copy()))
    halves = [np.rint((steps[k] - steps[k - 1]
                       + lam * xi * 0.5) / math.log1p(xi)) for k in (1, 2)]
    # Poisson(lambda T) per path, T = 1: the variance is lambda T too, and
    # the sample variance has variance (mu_4 - sigma^4) / n
    # = (lam + 2 lam^2) / n
    counts = halves[0] + halves[1]
    assert abs(counts.mean() - lam) < 3.0 * math.sqrt(lam / n)
    assert abs(counts.var(ddof=1) - lam) < 3.0 * math.sqrt(
        (lam + 2.0 * lam**2) / n)
    for half in halves:
        assert abs(half.mean() - 0.5 * lam) < 3.0 * math.sqrt(0.5 * lam / n)
    corr = np.corrcoef(halves[0], halves[1])[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# Empirical risk measures
# ---------------------------------------------------------------------------

def _var_risk(ens, model, beta, k):
    """Empirical downside risk x e^{R_t} - q_beta(X_t) at node k."""
    ref = ens.x * math.exp(R_path(model)[k])
    return ref - empirical_lower_quantile(ens.wealth[:, k], beta)


def _es_risk(ens, model, beta, k):
    """Empirical shortfall risk x e^{R_t} - ES_beta(X_t) at node k."""
    ref = ens.x * math.exp(R_path(model)[k])
    return ref - empirical_shortfall(ens.wealth[:, k], beta)


def test_empirical_var_bank_account(sim_model):
    bank = jf.Strategy.riskless(sim_model)
    ens = jf.simulate(sim_model, bank, 1.0, 1000, 5)
    assert _var_risk(ens, sim_model, 0.05, -1) == pytest.approx(
        0.0, abs=1e-12)
    assert _es_risk(ens, sim_model, 0.05, -1) == pytest.approx(
        0.0, abs=1e-12)


def test_empirical_var_no_jump_closed_form():
    model = make_model(n=33, mu=0.06, r=0.02, sigma=0.3, lam=0.0)
    n_grid = model.grid.n
    strat = jf.Strategy.from_pi(model, np.full((n_grid, 1), 0.6))
    n, beta = 400_000, 0.05
    ens = jf.simulate(model, strat, 1.0, n, 11)
    s = strat.y_norm_path()[-1]
    drift = cumtrapz(model.grid, np.sum(strat.y * theta_path(model), axis=1))
    q_closed = (math.exp(R_path(model)[-1] + drift[-1])
                * jf.quantile_stoch_exp(s, beta))
    got = _var_risk(ens, model, beta, -1)
    ref = math.exp(R_path(model)[-1])
    # exact order-statistic interval around the true quantile
    lo = int(binom.ppf(0.005, n, beta))
    hi = int(binom.ppf(0.995, n, beta)) + 1
    ordered = np.sort(ens.wealth[:, -1])
    assert ordered[lo - 1] <= q_closed <= ordered[hi - 1]
    assert got == pytest.approx(ref - q_closed, abs=ordered[hi - 1] - ordered[lo - 1])

    es_closed = (math.exp(R_path(model)[-1] + drift[-1])
                 * jf.es_stoch_exp(s, beta))
    got_es = _es_risk(ens, model, beta, -1)
    tail = ordered[:jf.riskmetrics.tail_count(beta, n)]
    se = tail.std(ddof=1) / math.sqrt(tail.size)
    assert abs((ref - got_es) - es_closed) < 3.0 * se


def test_var_monotone_in_beta(sim_model, sim_strategy):
    ens = jf.simulate(sim_model, sim_strategy, 1.0, 50_000, 17)
    v1 = _var_risk(ens, sim_model, 0.01, -1)
    v5 = _var_risk(ens, sim_model, 0.05, -1)
    assert v1 >= v5


def test_es_risk_dominates_var_risk(sim_model, sim_strategy):
    ens = jf.simulate(sim_model, sim_strategy, 1.0, 50_000, 23)
    for k in (32, -1):   # t = 0.5 and t = 1
        assert (_es_risk(ens, sim_model, 0.05, k)
                >= _var_risk(ens, sim_model, 0.05, k))


def test_quantile_consistency_shrinking_bands():
    model = make_model(n=17, mu=0.0, r=0.0, sigma=0.5, lam=0.0)
    n_grid = model.grid.n
    strat = jf.Strategy.from_pi(model, np.full((n_grid, 1), 0.6))
    s = strat.y_norm_path()[-1]
    closed = jf.quantile_stoch_exp(s, 0.05)
    widths = []
    for n in (10_000, 100_000):
        ens = jf.simulate(model, strat, 1.0, n, 1234)
        ordered = np.sort(ens.wealth[:, -1])
        lo = int(binom.ppf(0.005, n, 0.05))
        hi = int(binom.ppf(0.995, n, 0.05)) + 1
        assert ordered[lo - 1] <= closed <= ordered[hi - 1]
        widths.append(ordered[hi - 1] - ordered[lo - 1])
    assert widths[1] < widths[0]


# ---------------------------------------------------------------------------
# Cost estimation
# ---------------------------------------------------------------------------

def _stored_cost(model, strategy, utility, x, n_paths, seed, drawn=None):
    ens = jf.simulate(model, strategy if drawn is None else drawn, x,
                      n_paths, seed)
    return jf.estimate_cost(ens, strategy, utility)


def _streamed_cost(model, strategy, utility, x, n_paths, seed, drawn=None):
    return jf.simulate_node_stats(model, strategy, x, None, n_paths, seed,
                                  utility=utility).cost


# The Monte Carlo cost (mean, se) of strategy, from the ensemble simulate()
# draws for `drawn` (the strategy itself unless given) or streamed; each
# behaviour test below holds for both.
MC_COSTS = (_stored_cost, _streamed_cost)


def test_estimate_cost_zero_variance_bank():
    model = make_model(n=33, lam=0.0)
    bank = jf.Strategy.riskless(model)
    utility = jf.UtilitySpec(0.5, 0.7)
    for mc_cost in MC_COSTS:
        mean, se = mc_cost(model, bank, utility, 1.0, 500, 2)
        assert mean == pytest.approx(math.exp(0.7 * 0.02), rel=1e-13)
        assert se < 1e-15


def test_estimate_cost_matches_closed_form(sim_model, sim_strategy):
    utility = jf.UtilitySpec.equal(0.5)
    exact = jf.cost_function(sim_model, utility, sim_strategy, 1.0)
    for mc_cost in MC_COSTS:
        mean, se = mc_cost(sim_model, sim_strategy, utility, 1.0, 200_000, 77)
        assert abs(mean - exact) < 3.0 * se
        bigger, _ = mc_cost(sim_model, sim_strategy, utility, 2.0, 200_000,
                            77)
        assert bigger > mean


def _trapezoid_cost(ensemble, strategy, utility):
    """The whole-matrix formula estimate_cost must match bit for bit:
    np.trapezoid over the node axis of the node-major (N, n_paths)
    matrix."""
    wealth = np.ascontiguousarray(ensemble.wealth.T)
    consumption = (strategy.v[:, None] * wealth) ** utility.gamma1
    per_path = (np.trapezoid(consumption, ensemble.grid.nodes, axis=0)
                + wealth[-1] ** utility.gamma2)
    n = ensemble.n_paths
    return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("gamma1", [1.0, 0.5, 0.3])
def test_each_path_cost_is_the_trapezoid_over_the_node_axis(gamma1):
    # per path, not only in (mean, se), where a 1-ulp change can vanish
    grid = jf.TimeGrid(np.linspace(0.0, 1.0, 65) ** 1.7)
    rng = np.random.default_rng(5)
    wealth = np.exp(0.3 * rng.standard_normal((65, 3001)))   # node-major
    v = rng.uniform(0.0, 0.5, 65)
    v[::4] = -0.0
    utility = jf.UtilitySpec(gamma1, 0.7)
    cost = _PathCost(grid, v, utility, 3001)
    for k, w in enumerate(wealth):
        cost.add(k, w)
    want = (np.trapezoid((v[:, None] * wealth) ** gamma1, grid.nodes, axis=0)
            + wealth[-1] ** 0.7)
    assert cost.total.tobytes() == want.tobytes()


def _cost_case(case):
    """(model, strategy, n_paths) on a 65-node grid."""
    n = 65
    if case == "non_uniform_grid":
        grid = jf.TimeGrid(np.linspace(0.0, 1.0, n) ** 1.7)
        coeffs = jf.CoefficientPath.constant(grid, 0.02, [0.06], [[0.3]])
        jumps = jf.JumpSpec(np.array([0.8]),
                            (jf.JumpDist.point_masses([-0.1, 0.05],
                                                      [0.3, 0.7]),))
        model = jf.MarketModel(grid, coeffs, jumps)
    else:
        model = make_model(n=n, mu=0.06, lam=0.8)
    v = np.linspace(0.1, 0.4, n)
    if case == "no_consumption":
        v = np.zeros(n)
    elif case == "signed_zero_consumption":
        v = np.resize([0.0, -0.0], n)
    elif case == "partly_signed_zero_consumption":
        v[::3] = -0.0
    strategy = jf.Strategy.from_pi(model, np.full((n, 1), 0.5), v)
    n_paths = {"one_block": 672, "ragged_blocks": 4069}.get(case, 2021)
    return model, strategy, n_paths


@pytest.mark.parametrize("gamma1", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("case", ["one_block", "ragged_blocks",
                                  "non_uniform_grid", "no_consumption",
                                  "signed_zero_consumption",
                                  "partly_signed_zero_consumption"])
def test_estimate_cost_blocks_match_the_trapezoid_formula(case, gamma1,
                                                          monkeypatch):
    # the streamed run gives the same bits over several draw blocks on two
    # workers: one_block has one block of 1024 paths, ragged_blocks four
    # with a short last one, the other cases two
    monkeypatch.setattr(simulate_module, "_BLOCK_PATHS", 1024)
    monkeypatch.setattr(simulate_module, "_WORKERS", 2)
    model, strategy, n_paths = _cost_case(case)
    if "signed_zero" in case:
        assert np.any(np.signbit(strategy.v))
    ens = jf.simulate(model, strategy, 1.0, n_paths, 31)
    utility = jf.UtilitySpec(gamma1, 0.7)
    want = _trapezoid_cost(ens, strategy, utility)
    assert jf.estimate_cost(ens, strategy, utility) == want
    stats = jf.simulate_node_stats(model, strategy, 1.0, 0.05, n_paths, 31,
                                   utility=utility)
    assert stats.cost == want
    assert stats.terminal_std == ens.wealth[:, -1].std(ddof=1)


@pytest.mark.parametrize("stack", ["two_rates", "four_rates",
                                   "two_allocations"])
def test_estimate_cost_refuses_a_stack_of_candidates(stack):
    # four rates against four paths would pair candidate k with path k
    model = make_model(n=5)
    single = jf.Strategy.from_pi(model, np.full((5, 1), 0.5))
    pi, v = {"two_rates": (np.full((5, 1), 0.5), np.ones((2, 5))),
             "four_rates": (np.full((5, 1), 0.5), np.ones((4, 5))),
             "two_allocations": (np.full((2, 5, 1), 0.5), np.ones(5))}[stack]
    candidates = jf.Strategy.from_pi(model, pi, v)
    for mc_cost in MC_COSTS:
        with pytest.raises(InvalidStrategy, match="stack"):
            mc_cost(model, candidates, jf.UtilitySpec.equal(0.5), 1.0, 4, 3,
                    drawn=single)


def test_estimate_cost_needs_two_paths(sim_model, sim_strategy):
    for mc_cost in MC_COSTS:
        with pytest.raises(OutOfRange):
            mc_cost(sim_model, sim_strategy, jf.UtilitySpec.equal(0.5), 1.0,
                    1, 5)


# ---------------------------------------------------------------------------
# Constraint profiles
# ---------------------------------------------------------------------------

def test_profile_bank_account_zero(sim_model):
    bank = jf.Strategy.riskless(sim_model)
    stats = jf.simulate_node_stats(sim_model, bank, 1.0, 0.05, 2000, 3)
    for kind in ("var", "es"):
        prof = jf.constraint_profile(stats, sim_model,
                                     jf.RiskSpec(kind, 0.05, 0.1), 1.0)
        assert np.max(np.abs(prof)) < 1e-12


def test_profile_rejects_node_stats_at_another_level(sim_model, sim_strategy):
    stats = jf.simulate_node_stats(sim_model, sim_strategy, 1.0, 0.05, 100, 3)
    with pytest.raises(OutOfRange):
        jf.constraint_profile(stats, sim_model, jf.RiskSpec("var", 0.01, 0.1),
                              1.0)


def test_profile_closed_form_binds_at_one():
    model = make_model(n=129, mu=0.07, r=0.02, sigma=0.3, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.04], [1.0]))
    risk = jf.RiskSpec("var", 0.05, 0.1)
    rep = jf.solve_gamma1(model, risk)
    prof = jf.constraint_profile(rep.strategy, model, risk, 1.0)
    assert prof.max() == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(prof)) == model.grid.n - 1


def test_mc_profile_below_diffusion_profile():
    # positive jumps only reduce the measured risk relative to the jump-free
    # transform the solver binds against
    model = make_model(n=129, mu=0.07, r=0.02, sigma=0.3, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.04], [1.0]))
    risk = jf.RiskSpec("var", 0.05, 0.1)
    rep = jf.solve_gamma1(model, risk)
    stats = jf.simulate_node_stats(model, rep.strategy, 1.0, risk.beta,
                                   200_000, 555)
    prof_mc = jf.constraint_profile(stats, model, risk, 1.0)
    prof_cf = jf.constraint_profile(rep.strategy, model, risk, 1.0)
    assert np.all(prof_mc <= prof_cf + 0.02)


# ---------------------------------------------------------------------------
# Grid oracle
# ---------------------------------------------------------------------------

def test_grid_oracle_recovers_merton():
    model = make_model(n=65, mu=0.047, r=0.02, sigma=0.3, lam=0.0)
    utility = jf.UtilitySpec.equal(0.5)
    oracle = jf.grid_oracle(model, utility, None, 1.0,
                            np.linspace(0.0, 1.0, 101),
                            np.linspace(0.0, 2.0, 21))
    merton = (0.047 - 0.02) / (0.5 * 0.09)
    assert abs(oracle.pi - merton) <= 0.01 + 1e-12


def test_grid_oracle_constraint_vacuous_when_kappa_near_one(sim_model):
    utility = jf.UtilitySpec.equal(0.5)
    pi_grid = np.linspace(0.0, 1.0, 21)
    scales = np.linspace(0.0, 2.0, 11)
    free = jf.grid_oracle(sim_model, utility, None, 1.0, pi_grid, scales)
    loose = jf.RiskSpec("var", 0.05, 0.999999)
    tied = jf.grid_oracle(sim_model, utility, loose, 1.0, pi_grid, scales)
    assert tied.J == free.J
    assert tied.pi == free.pi


def test_grid_oracle_empty_feasible_set(sim_model):
    risk = jf.RiskSpec("var", 0.05, 0.01)
    with pytest.raises(EmptyFeasibleSet):
        jf.grid_oracle(sim_model, jf.UtilitySpec.equal(0.5), risk, 1.0,
                       np.array([0.9, 1.0]), np.array([5.0, 8.0]))


def test_grid_oracle_dominated_by_solver(jump_1d):
    utility = jf.UtilitySpec.equal(0.5)
    rep = jf.solve_power_equal(jump_1d, utility)
    oracle = jf.grid_oracle(jump_1d, utility, None, 1.0,
                            np.linspace(0.0, 1.0, 41),
                            np.linspace(0.0, 2.0, 11),
                            v_shape=rep.strategy.v)
    assert rep.J_star >= oracle.J - 1e-9
