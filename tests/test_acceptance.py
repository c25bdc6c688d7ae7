"""End-to-end acceptance battery.

Each test prints one [PASS]/[FAIL] line per criterion (pytest -s shows them
inline).  Monte Carlo checks use fixed seeds with three-standard-error or
exact order-statistic bands; closed-form checks pin their tolerances
explicitly.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import binom

import jumpfolio as jf
from jumpfolio.constrained import slack_path
from jumpfolio.market import R_path
from jumpfolio.riskmetrics import tail_count

from conftest import make_model, make_model_2d

N_PATHS = 1_000_000
GRID_N = 512


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _order_stat_ci(sample_sorted: np.ndarray, beta: float, level: float = 0.99):
    n = sample_sorted.size
    lo = int(binom.ppf((1.0 - level) / 2.0, n, beta))
    hi = int(binom.ppf((1.0 + level) / 2.0, n, beta)) + 1
    return sample_sorted[max(lo - 1, 0)], sample_sorted[min(hi - 1, n - 1)]


# ---------------------------------------------------------------------------
# Criteria 1 and 2: closed-form tails of the lognormal factor
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stoch_exp_samples():
    """Terminal samples of the lognormal wealth factor at three budgets."""
    samples = {}
    for i, s in enumerate((0.1, 0.3, 0.6)):
        model = make_model(n=17, r=0.0, mu=0.0, sigma=0.8, lam=0.0)
        pi = np.full((17, 1), s / 0.8)
        strat = jf.Strategy.from_pi(model, pi)
        ens = jf.simulate(model, strat, 1.0, N_PATHS, 9000 + i)
        samples[s] = np.sort(ens.wealth[:, -1])
        del ens
    return samples


def test_criterion_1_quantile_closed_form(stoch_exp_samples):
    start = time.time()
    worst = ""
    ok = True
    for s, ordered in stoch_exp_samples.items():
        for beta in (0.01, 0.05):
            closed = jf.quantile_stoch_exp(s, beta)
            lo, hi = _order_stat_ci(ordered, beta)
            inside = lo <= closed <= hi
            ok &= inside
            if not inside:
                worst = f" s={s} beta={beta}: {closed:.6g} not in [{lo:.6g},{hi:.6g}]"
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    _report("criterion 1 (quantile closed form)", ok,
            f"6 combos in 99% order-statistic bands, {elapsed:.1f}s{worst}")


def test_criterion_2_shortfall_closed_form(stoch_exp_samples):
    start = time.time()
    ok = True
    worst_z = 0.0
    for s, ordered in stoch_exp_samples.items():
        for beta in (0.01, 0.05):
            closed = jf.es_stoch_exp(s, beta)
            k = tail_count(beta, ordered.size)
            tail = ordered[:k]
            est = tail.mean()
            q_hat = ordered[k - 1]
            infl = np.minimum(ordered - q_hat, 0.0)
            se = math.sqrt(np.var(infl) / ordered.size) / beta
            z = abs(est - closed) / se
            worst_z = max(worst_z, z)
            ok &= z < 3.0
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    _report("criterion 2 (shortfall closed form)", ok,
            f"worst z-score {worst_z:.2f} < 3, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: exponential jump functional identity
# ---------------------------------------------------------------------------

def test_criterion_3_jump_exponential_identity():
    lam = 1.2
    z_atoms = np.array([-0.1, 0.25])
    p_atoms = np.array([0.4, 0.6])
    model = make_model(n=65, lam=lam,
                       jump=jf.JumpDist.point_masses(z_atoms, p_atoms))
    scale, pi = 0.7, 0.8

    def a(t, z):
        return scale * np.log1p(pi * z)

    closed = jf.expected_jump_exponential(model.jumps, model.grid, a)
    # independent closed form for the two-point law
    by_hand = math.exp(lam * float(((1.0 + pi * z_atoms) ** scale - 1.0)
                                   @ p_atoms))
    rng = np.random.default_rng(1303)
    counts = rng.poisson(lam, N_PATHS)
    total = int(counts.sum())
    sizes = rng.choice(z_atoms, size=total, p=p_atoms)
    log_sum = np.zeros(N_PATHS)
    hit = np.flatnonzero(counts)
    np.add.at(log_sum, np.repeat(hit, counts[hit]),
              scale * np.log1p(pi * sizes))
    sample = np.exp(log_sum)
    se = sample.std(ddof=1) / math.sqrt(N_PATHS)
    z_mc = abs(sample.mean() - closed) / se
    ok = abs(closed - by_hand) < 1e-12 and z_mc < 3.0
    _report("criterion 3 (jump exponential)", ok,
            f"closed={closed:.8f}, mc z-score {z_mc:.2f} < 3")


# ---------------------------------------------------------------------------
# Criterion 4: pure-diffusion reduction
# ---------------------------------------------------------------------------

def test_criterion_4_pure_diffusion_reduction():
    cases = [
        (0.3, 0.035, 0.02, 0.30),
        (0.5, 0.047, 0.02, 0.30),
        (0.8, 0.025, 0.02, 0.25),
    ]
    worst = 0.0
    for gamma, mu, r, sigma in cases:
        model = make_model(n=GRID_N, mu=mu, r=r, sigma=sigma, lam=0.0)
        utility = jf.UtilitySpec.equal(gamma)
        rep = jf.solve_power_equal(model, utility)
        q = 1.0 / (1.0 - gamma)
        theta0 = (mu - r) / sigma
        # closed forms evaluated with the same quadrature convention
        t = model.grid.nodes
        h = gamma * r + 0.5 * gamma * q * theta0**2
        gq = np.exp(q * h * t)
        inc = 0.5 * (gq[1:] + gq[:-1]) * np.diff(t)
        cum = np.concatenate([[0.0], np.cumsum(inc)])
        tail = cum[-1] - cum
        v_closed = gq / (gq[-1] + tail)
        j_closed = (cum[-1] + gq[-1]) ** (1.0 / q)
        err = max(
            float(np.max(np.abs(rep.strategy.y[:, 0] - q * theta0))),
            float(np.max(np.abs(rep.strategy.v - v_closed))),
            abs(rep.diagnostics["J_star_rho0"] - j_closed),
        )
        worst = max(worst, err)
    ok = worst < 1e-8
    _report("criterion 4 (diffusion reduction)", ok,
            f"worst deviation {worst:.3e} < 1e-8 on 3 instances")


# ---------------------------------------------------------------------------
# Criterion 5: grid-oracle dominance
# ---------------------------------------------------------------------------

def test_criterion_5_grid_dominance():
    start = time.time()
    cases = [
        (0.3, dict(mu=0.035, sigma=0.30, lam=0.0)),
        (0.5, dict(mu=0.055, sigma=0.30, lam=0.8,
                   jump=jf.JumpDist.point_masses([0.03, 0.10], [0.6, 0.4]))),
        (0.5, dict(mu=0.047, sigma=0.30, lam=0.0)),
        (0.8, dict(mu=0.028, sigma=0.25, lam=0.5,
                   jump=jf.JumpDist.point_masses([0.02], [1.0]))),
        (0.3, dict(mu=0.040, sigma=0.30, lam=1.0,
                   jump=jf.JumpDist.from_density(
                       lambda z: np.full_like(z, 10.0), 0.0, 0.1))),
    ]
    worst_margin = math.inf
    for gamma, kwargs in cases:
        model = make_model(n=257, **kwargs)
        utility = jf.UtilitySpec.equal(gamma)
        rep = jf.solve_power_equal(model, utility)
        oracle = jf.grid_oracle(model, utility, None, 1.0,
                                np.linspace(0.0, 1.0, 101),
                                np.linspace(0.0, 2.0, 51),
                                v_shape=rep.strategy.v)
        worst_margin = min(worst_margin, rep.J_star - oracle.J)
    # gamma = 1 under a limit: the box optimum where it is feasible, else
    # the paper's ray, against every feasible constant allocation
    linear = jf.UtilitySpec(1.0, 1.0)
    for horizon in (0.5, 1.0, 2.0):
        model = make_model(n=257, horizon=horizon, mu=0.0846, sigma=0.4606,
                           lam=0.434,
                           jump=jf.JumpDist.point_masses([0.0099], [1.0]))
        for kind in ("var", "es"):
            risk = jf.RiskSpec(kind, 0.05, 0.6)
            rep = jf.adjusted_solve(model, risk, linear)
            oracle = jf.grid_oracle(model, linear, risk, 1.0,
                                    np.linspace(0.0, 1.0, 101), [0.0])
            worst_margin = min(worst_margin, rep.J_star - oracle.J)
    elapsed = time.time() - start
    ok = worst_margin >= -1e-6 and elapsed < 120.0
    _report("criterion 5 (grid dominance)", ok,
            f"worst margin {worst_margin:.3e} >= -1e-6 over 5x101x51 "
            f"candidates and 6 gamma = 1 limits x 101, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 6: gamma = 1 optimal strategies stay feasible under Monte Carlo
# ---------------------------------------------------------------------------

def _feasibility_run(model, risk, rep, seed):
    thresholds = (1.0 - risk.kappa) * np.exp(R_path(model))
    stats = jf.simulate_node_stats(model, rep.strategy, 1.0, risk.beta,
                                   N_PATHS, seed, thresholds=thresholds)
    band = float(binom.ppf(1.0 - 1e-3 / model.grid.n, N_PATHS, risk.beta))
    var_ok = bool(stats.below.max() <= band)
    es_gap = thresholds - stats.tail_mean       # > 0 means ES violation
    es_ok = bool(np.all(es_gap <= 4.5 * stats.shortfall_standard_error()))
    profile = jf.constraint_profile(stats, model, risk, 1.0)
    return var_ok, es_ok, float(profile.max()), float(stats.below.max()), band


def test_criterion_6_gamma1_feasibility():
    model = make_model(n=GRID_N, mu=0.07, r=0.02, sigma=0.3, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.04], [1.0]))
    var = jf.RiskSpec("var", 0.05, 0.1)
    es = jf.RiskSpec("es", 0.05, 0.1)
    rep_var = jf.solve_gamma1(model, var)
    rep_es = jf.solve_gamma1(model, es)
    resid = max(abs(rep_var.diagnostics["rho_residual"]),
                abs(rep_es.diagnostics["rho_residual"]))
    var_ok, _, sup_var, below, band = _feasibility_run(model, var, rep_var, 60)
    _, es_ok, sup_es, _, _ = _feasibility_run(model, es, rep_es, 61)
    ok = var_ok and es_ok and resid < 1e-12
    _report("criterion 6 (gamma=1 feasibility)", ok,
            f"VaR tail counts {below:.0f} <= {band:.0f} at all {GRID_N} "
            f"nodes, ES within band (sup profiles {sup_var:.4f}/{sup_es:.4f}),"
            f" rho residual {resid:.1e} < 1e-12")


# ---------------------------------------------------------------------------
# Criterion 7: inactivity certificates imply direct feasibility
# ---------------------------------------------------------------------------

def test_criterion_7_certificates():
    utility = jf.UtilitySpec.equal(0.5)
    jump = jf.JumpDist.point_masses([0.03, 0.10], [0.6, 0.4])
    instances = [
        (make_model(mu=0.055, sigma=0.3, lam=0.8, jump=jump),
         jf.RiskSpec("var", 0.05, 0.8)),
        (make_model(mu=0.047, sigma=0.3, lam=0.0),
         jf.RiskSpec("var", 0.05, 0.7)),
        (make_model(mu=0.055, sigma=0.3, lam=0.8, jump=jump),
         jf.RiskSpec("es", 0.05, 0.85)),
        (make_model_2d(mu=(0.05, 0.055), lams=(0.4, 0.3),
                       dists=(jf.JumpDist.point_masses([0.03], [1.0]),
                              jf.JumpDist.point_masses([0.05], [1.0]))),
         jf.RiskSpec("var", 0.05, 0.85)),
    ]
    worst_slack = math.inf
    inactive_count = 0
    for model, risk in instances:
        cert = jf.certify(model, utility, risk)
        if cert.active:
            continue
        inactive_count += 1
        slack = slack_path(cert.report.strategy, model, risk)
        worst_slack = min(worst_slack, float(slack.min()))
    active_cert = jf.certify(instances[0][0], utility,
                             jf.RiskSpec("var", 0.05, 0.05))
    ok = (inactive_count == len(instances) and worst_slack >= -1e-10
          and active_cert.active)
    _report("criterion 7 (inactivity certificates)", ok,
            f"{inactive_count} inactive certificates, worst direct slack "
            f"{worst_slack:.3e} >= 0")


# ---------------------------------------------------------------------------
# Criterion 8: consume-all regime attains its upper bound and dominates
# ---------------------------------------------------------------------------

def test_criterion_8_consume_all():
    model = make_model(n=257, mu=0.04, r=0.02, sigma=0.3, lam=0.5,
                       jump=jf.JumpDist.point_masses([0.02], [1.0]))
    utility = jf.UtilitySpec(0.3, 0.7)
    risk = jf.RiskSpec("var", 0.01, 0.15)
    rep = jf.solve_diff_gamma(model, utility, risk)
    cost_gap = abs(jf.cost_function(model, utility, rep.strategy, 1.0)
                   - rep.J_star)

    # random candidates in a fixed draw order, checked in stacks of 2048;
    # the feasible ones up to the 10,000th overall are costed
    rng = np.random.default_rng(88)
    n, half = model.grid.n, model.grid.n // 2
    accepted = 0
    attempts = 0
    worst_excess = -math.inf
    while accepted < 10_000 and attempts < 100_000:
        size = min(2048, 100_000 - attempts)
        pi = np.empty((size, n, 1))
        scale = np.empty(size)
        for b in range(size):
            attempts += 1
            if attempts % 2 == 0:
                pi[b] = rng.uniform(0.0, 0.35)
            else:
                pi[b, :half] = rng.uniform(0.0, 0.2)
                pi[b, half:] = rng.uniform(0.0, 0.35)
            scale[b] = rng.uniform(0.0, 1.6)
        v = scale[:, None] * rep.strategy.v
        stack = jf.Strategy.from_pi(model, pi, v)
        feasible = ~(slack_path(stack, model, risk).min(axis=-1) < -1e-10)
        keep = np.flatnonzero(feasible)[:10_000 - accepted]
        accepted += keep.size
        if keep.size:
            kept = jf.Strategy.from_pi(model, pi[keep], v[keep])
            cost = jf.cost_function(model, utility, kept, 1.0)
            worst_excess = max(worst_excess, float(np.max(cost - rep.J_star)))
    ok = (rep.condition_ok and cost_gap < 1e-6 and accepted >= 10_000
          and worst_excess <= 1e-9)
    _report("criterion 8 (consume-all regime)", ok,
            f"cost gap {cost_gap:.2e} < 1e-6, dominated {accepted} feasible "
            f"strategies (max excess {worst_excess:.2e})")


# ---------------------------------------------------------------------------
# Criterion 9: jumps lower the allocation and raise consumption
# ---------------------------------------------------------------------------

def test_criterion_9_policy_ordering():
    cases = [
        (0.5, dict(mu=0.055, sigma=0.30, lam=0.8,
                   jump=jf.JumpDist.point_masses([0.03, 0.10], [0.6, 0.4]))),
        (0.3, dict(mu=0.040, sigma=0.30, lam=1.0,
                   jump=jf.JumpDist.point_masses([0.05], [1.0]))),
        (0.7, dict(mu=0.053, sigma=0.35, lam=0.6,
                   jump=jf.JumpDist.point_masses([0.02, 0.08], [0.5, 0.5]))),
    ]
    ok = True
    for gamma, kwargs in cases:
        model = make_model(n=257, **kwargs)
        utility = jf.UtilitySpec.equal(gamma)
        jump = jf.solve_power_equal(model, utility).strategy
        diffusion = jf.solve_power_equal(model.without_jumps(), utility).strategy
        ok &= bool(np.all(jump.pi <= diffusion.pi + 1e-12))
        ok &= bool(np.all(jump.v >= diffusion.v - 1e-12))
        ok &= bool(np.any(jump.pi < diffusion.pi - 1e-8))
    _report("criterion 9 (policy ordering)", ok,
            "pi_jump <= pi_diffusion and v_jump >= v_diffusion at every node "
            "on 3 instances")


# ---------------------------------------------------------------------------
# Criterion 10: negative-jump adjustment
# ---------------------------------------------------------------------------

def test_criterion_10_negative_jump_adjustment():
    lam, p_neg = 0.6, 0.25
    jump = jf.JumpDist.point_masses([-0.05, 0.08], [p_neg, 1.0 - p_neg])
    model = make_model(n=GRID_N, mu=0.07, r=0.02, sigma=0.3, lam=lam,
                       jump=jump)
    risk = jf.RiskSpec("var", 0.2, 0.15, "thinning")
    rep = jf.solve_gamma1(model, risk)
    var_ok, _, sup_prof, below, band = _feasibility_run(model, risk, rep, 62)

    eps_grid = np.linspace(0.0, 2.0, 21)
    thinning = np.array([jf.epsilon_t(model.jumps, t, "thinning")
                         for t in eps_grid])
    paper = np.array([jf.epsilon_t(model.jumps, t, "paper")
                      for t in eps_grid])
    eps_monotone = bool(np.all(np.diff(thinning) >= -1e-15)
                        and np.all(np.diff(paper) >= -1e-15))
    beta_grid = np.linspace(0.0, 0.19, 20)
    bh = np.array([jf.beta_hat(0.2, e) for e in beta_grid])
    bh_monotone = bool(np.all(np.diff(bh) < 0))

    eps_T = jf.epsilon_t(model.jumps, 1.0, "thinning")
    rng = np.random.default_rng(4040)
    counts = rng.poisson(lam, N_PATHS)
    total = int(counts.sum())
    sizes = rng.choice(jump.z, size=total, p=jump.w)
    neg_any = np.zeros(N_PATHS, dtype=bool)
    hit = np.flatnonzero(counts)
    np.logical_or.at(neg_any, np.repeat(hit, counts[hit]), sizes < 0)
    mc_eps = neg_any.mean()
    se = math.sqrt(eps_T * (1.0 - eps_T) / N_PATHS)
    eps_mc_ok = abs(mc_eps - eps_T) < 3.0 * se

    ok = var_ok and eps_monotone and bh_monotone and eps_mc_ok and eps_T < 0.2
    _report("criterion 10 (negative-jump adjustment)", ok,
            f"adjusted VaR profile sup {sup_prof:.4f} within band "
            f"({below:.0f} <= {band:.0f}), eps_T mc z "
            f"{abs(mc_eps - eps_T) / se:.2f} < 3, monotonicity suites pass")


# ---------------------------------------------------------------------------
# Criterion 11: martingale optimality spot check
# ---------------------------------------------------------------------------

def _value_process_means(model, rho, strategy, n_paths, seed, checkpoints,
                         gamma):
    ens = jf.simulate(model, strategy, 1.0, n_paths, seed)
    cons = (strategy.v[None, :] * ens.wealth) ** gamma
    dt = model.grid.dt
    increments = 0.5 * (cons[:, 1:] + cons[:, :-1]) * dt[None, :]
    running = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(increments, axis=1)], axis=1)
    stat = rho[None, :] * ens.wealth**gamma + running
    means = stat[:, checkpoints].mean(axis=0)
    ses = stat[:, checkpoints].std(axis=0, ddof=1) / math.sqrt(n_paths)
    return means, ses


def test_criterion_11_martingale_spot_check():
    gamma = 0.5
    model = make_model(n=65, mu=0.055, sigma=0.3, lam=0.8,
                       jump=jf.JumpDist.point_masses([0.03, 0.10], [0.6, 0.4]))
    utility = jf.UtilitySpec.equal(gamma)
    rep = jf.solve_power_equal(model, utility)
    rho = rep.diagnostics["rho"]
    checkpoints = np.arange(0, 65, 8)
    n_paths = 200_000

    means, ses = _value_process_means(model, rho, rep.strategy, n_paths,
                                      70, checkpoints, gamma)
    flat_ok = bool(np.all(np.abs(means - means[0]) <= 3.0 * ses))

    perturbations = [
        jf.Strategy(model.grid, 0.5 * rep.strategy.y, 0.5 * rep.strategy.pi,
                    rep.strategy.v),
        jf.Strategy(model.grid, rep.strategy.y, rep.strategy.pi,
                    1.5 * rep.strategy.v),
        jf.Strategy(model.grid, rep.strategy.y, rep.strategy.pi,
                    0.6 * rep.strategy.v),
    ]
    decreasing_ok = True
    drops = []
    for i, strat in enumerate(perturbations):
        m, s = _value_process_means(model, rho, strat, n_paths, 71 + i,
                                    checkpoints, gamma)
        decreasing_ok &= bool(np.all(np.diff(m) <= 3.0 * s[1:]))
        decreasing_ok &= bool(m[-1] < m[0] - 3.0 * s[-1])
        drops.append(m[0] - m[-1])
    ok = flat_ok and decreasing_ok
    _report("criterion 11 (martingale optimality)", ok,
            f"optimal value process flat within 3 SE at 9 checkpoints; "
            f"perturbed drops {', '.join(f'{d:.4f}' for d in drops)} all "
            "significant")
