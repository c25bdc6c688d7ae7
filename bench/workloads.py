"""Inputs, ops and output checks of the four benchmark workloads.

Every workload turns a seed into a fixed list of ops, one per distinct
input.  An op is one unit of the closed loop: the runner calls `op()` and
the next op starts when it returns; it cycles through the list until the
run's time is up.  An op returns an `Outcome`; the runner turns exceptions
into outcomes (see `classify`).  Inputs are built from the seed only,
before timing starts, and the library receives nothing else.

    mc_tail        one simulate_node_stats call with thresholds on a gamma=1
                   VaR or ES optimum; one op for each of three markets
    solve_mix      one public solve on a seeded random market
    oracle_grid    grid_oracle with and without a risk spec, plus a loop
                   over random candidates, on a one-asset market
    cli_reference  one in-process jumpfolio.cli.main call on the committed
                   reference configs
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import binom, norm

import jumpfolio as jf

market = importlib.import_module("jumpfolio.market")
unconstrained = importlib.import_module("jumpfolio.unconstrained")
constrained = importlib.import_module("jumpfolio.constrained")
negjumps = importlib.import_module("jumpfolio.negjumps")
simulate = importlib.import_module("jumpfolio.simulate")
cli = importlib.import_module("jumpfolio.cli")

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
REFERENCE_CONFIGS = ("ref_var_gamma1.ini", "ref_es_equal2.ini")

SLACK_TOL = 1e-10       # feasibility tolerance the solvers use themselves
RESIDUAL_TOL = 1e-12    # radius residual tolerance used by `jumpfolio verify`
# solve_power_equal stops once its damped step is below tol = 1e-12.  Its
# first-order defect is (1 - gamma)|target(y) - y| at the last iterate, which
# is below (1 + (1 + L)/2) tol for a map with Lipschitz constant L < 3 (the
# damped map contracts), so 10 tol bounds it.
FOC_TOL = 1e-11
ORACLE_TOL = 1e-6       # dominance tolerance of acceptance criterion 5
MEAN_FWER = 1e-6        # family-wise false-alarm rate of the node-mean check
BAND_FWER = 1e-3        # family-wise rate of the criterion 6 binomial band

SIZES = {
    "full": {
        "mc_tail": {"paths": 10**6, "nodes": 17},
        "solve_mix": {"nodes": 257, "pool": 2000},
        "oracle_grid": {"nodes": 257, "pi": 51, "v": 26, "random": 250,
                        "models": 6},
        "cli_reference": {"paths": 20_000},
    },
    "tiny": {
        "mc_tail": {"paths": 4000, "nodes": 9},
        "solve_mix": {"nodes": 17, "pool": 40},
        "oracle_grid": {"nodes": 17, "pi": 11, "v": 6, "random": 20,
                        "models": 2},
        "cli_reference": {"paths": 400},
    },
}


@dataclass
class Outcome:
    """Result of one op: "ok", "refused" (typed precondition error) or
    "failed" (failed check, NoConvergence or untyped exception)."""

    status: str = "ok"
    detail: str = ""
    work: int = 0


@dataclass
class Inputs:
    """Generated inputs of one workload run."""

    ops: list                     # callables returning an Outcome, one per
                                  # distinct input
    warmup: object                # the op run once before timing
    work_unit: str | None         # what Outcome.work counts, if reported
    sizes: dict
    fingerprint: str              # digest of every generated parameter
    description: dict = field(default_factory=dict)
    calibration: str = "interp"   # machine-speed kernel, see harness.py


# Failures this commit is known to produce.  They count in `failed` like any
# other failure; a failure outside this list also marks the run incorrect.
BASELINE_DEFECTS = {
    "NoConvergence":
        "solve_power_equal's damped fixed point stalls once lambda E[xi^2] / "
        "sigma^2 reaches about 3",
    "check:foc_residual_clipped":
        "solve_power_equal reports a first-order residual above its tolerance "
        "when an allocation is clipped to the box in d >= 2",
    "check:diff_gamma_slack_es_negjump":
        "solve_diff_gamma's consume-all rate ignores the ln(1 - eps_T) shift of "
        "the ES transform, so its strategy has negative slack",
}


def classify(op) -> Outcome:
    """Run one op and map exceptions to outcomes.

    NoConvergence and untyped exceptions are failures; every other
    JumpfolioError is a documented typed refusal and counts as an answer.
    """
    try:
        return op()
    except jf.errors.NoConvergence:
        return Outcome("failed", "NoConvergence")
    except jf.errors.JumpfolioError as exc:
        return Outcome("refused", type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 - the benchmark records it
        return Outcome("failed", f"untyped:{type(exc).__name__}")


def _check_failed(name: str, work: int = 0) -> Outcome:
    return Outcome("failed", f"check:{name}", work)


def _model(n_nodes, r, mu, sigma, lambdas, atoms):
    """Constant-coefficient market; atoms is one (sizes, probs) per asset."""
    grid = jf.TimeGrid.uniform(1.0, n_nodes)
    coeffs = jf.CoefficientPath.constant(grid, r, list(mu),
                                         [list(row) for row in sigma])
    dists = tuple(jf.JumpDist.point_masses(z, p) for z, p in atoms)
    return jf.MarketModel(grid, coeffs, jf.JumpSpec(np.asarray(lambdas), dists))


def _model_key(model) -> tuple:
    c, j = model.coeffs, model.jumps
    return (model.grid.n, c.r.tolist(), c.mu[0].tolist(), c.sigma[0].tolist(),
            j.lambdas.tolist(), [(d.z.tolist(), d.w.tolist()) for d in j.dists])


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) * 31**i for i, c in enumerate(workload)) % 2**32
    return np.random.default_rng([seed, tag])


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# mc_tail
# ---------------------------------------------------------------------------

@dataclass
class _TailMarket:
    name: str
    model: object
    risk: object
    thresholds: np.ndarray
    band: float


def _mc_tail_markets(rng, n_nodes: int, n_paths: int) -> list:
    kinds = [str(rng.choice(["var", "es"])) for _ in range(3)]
    beta = 0.05

    reference = _model(n_nodes, 0.02, [0.07], [[0.3]], [0.5],
                       [([0.04], [1.0])])
    ref_risk = jf.RiskSpec(kinds[0], beta, 0.1)

    r = 0.02
    lam = _u(rng, 0.2, 0.6)
    p_neg = _u(rng, 0.01, 0.05)
    neg = _model(n_nodes, r, [r + _u(rng, 0.05, 0.08)], [[_u(rng, 0.2, 0.35)]],
                 [lam], [([-_u(rng, 0.02, 0.08), _u(rng, 0.03, 0.08)],
                          [p_neg, 1.0 - p_neg])])
    neg_risk = jf.RiskSpec(kinds[1], beta, _u(rng, 0.08, 0.2),
                           negjump_method="thinning")

    lams = [1.0, 2.0]
    sizes = [_u(rng, 0.01, 0.05), _u(rng, 0.01, 0.05)]
    excess = [_u(rng, 0.03, 0.06), _u(rng, 0.03, 0.06)]
    sigma = [[_u(rng, 0.2, 0.35), _u(rng, 0.0, 0.05)],
             [0.0, _u(rng, 0.2, 0.35)]]
    two = _model(n_nodes, r, [r + e + l * z for e, l, z in
                              zip(excess, lams, sizes)],
                 sigma, lams, [([z], [1.0]) for z in sizes])
    two_risk = jf.RiskSpec(kinds[2], beta, _u(rng, 0.08, 0.2))

    out = []
    for name, model, risk in (("reference", reference, ref_risk),
                              ("negjump_thinning", neg, neg_risk),
                              ("two_asset", two, two_risk)):
        R = market.R_path(model)
        band = float(binom.ppf(1.0 - BAND_FWER / n_nodes, n_paths, risk.beta))
        out.append(_TailMarket(name, model, risk,
                               (1.0 - risk.kappa) * np.exp(R), band))
    return out


def _node_moments(model, strategy):
    """Closed-form mean and second moment of wealth (x = 1) at every node.

    E[X_t^g] = exp(g (R - V + (y, theta))_t - g (1 - g)/2 ||y||_t^2
    + int_0^t sum_j K_j(pi_j; g)), the formula behind the terminal mean
    check of `jumpfolio verify`, at g = 1 and g = 2.
    """
    grid = model.grid
    base = (market.R_path(model) - strategy.V
            + market.inner_product_path(grid, strategy.y,
                                        market.theta_path(model)))
    ysq = market.l2_time_norm_sq_path(grid, strategy.y)
    jumps2 = market.cumtrapz(
        grid, market.K_transform_path(model.jumps, strategy.pi, 2.0))
    return np.exp(base), np.exp(2.0 * base + ysq + jumps2)


def mc_tail_inputs(rng, sizes: dict) -> Inputs:
    n_paths, n_nodes = sizes["paths"], sizes["nodes"]
    markets = _mc_tail_markets(rng, n_nodes, n_paths)
    seeds = rng.integers(1, 2**31, size=len(markets))
    z_mean = float(norm.isf(MEAN_FWER / (2 * n_nodes)))

    def make_op(k):
        tm = markets[k % 3]
        seed = int(seeds[k])

        def op():
            if tm.risk.kind == jf.RiskKind.VAR:
                rep = constrained.solve_var_gamma1(tm.model, tm.risk, 1.0)
            else:
                rep = constrained.solve_es_gamma1(tm.model, tm.risk, 1.0)
            stats = simulate.simulate_node_stats(
                tm.model, rep.strategy, 1.0, tm.risk.beta, n_paths, seed,
                thresholds=tm.thresholds)
            work = n_paths * n_nodes
            mean, second = _node_moments(tm.model, rep.strategy)
            se = np.sqrt(np.maximum(second - mean**2, 0.0) / n_paths)
            if np.any(np.abs(stats.mean - mean) > z_mean * se + 1e-12 * mean):
                return _check_failed("node_mean", work)
            if stats.below.max() > tm.band:
                return _check_failed("tail_count_band", work)
            return Outcome(work=work)

        return op

    ops = [make_op(k) for k in range(len(seeds))]
    return Inputs(ops=ops, warmup=make_op(0), work_unit="path_nodes",
                  calibration="stream",
                  sizes=dict(sizes),
                  fingerprint=_digest([(_model_key(m.model), m.risk)
                                       for m in markets] + seeds.tolist()),
                  description={m.name: {"d": m.model.d,
                                        "risk": m.risk.kind.value,
                                        "kappa": m.risk.kappa,
                                        "negjump_method":
                                            m.risk.negjump_method.value}
                               for m in markets})


# ---------------------------------------------------------------------------
# solve_mix
# ---------------------------------------------------------------------------

SOLVE_KINDS = ("linear", "power_1d", "power_equal", "gamma1_var", "gamma1_es",
               "certify_var", "certify_es", "diff_gamma", "no_consumption",
               "adjusted")


@dataclass
class SolveSpec:
    """One solve_mix op: a market, a utility, a risk spec and a solver."""

    kind: str
    model: object
    utility: object
    risk: object | None


STRATA = ("d", "sigma", "lambda", "jump", "drift")


def random_solve_spec(rng, n_nodes: int, kind: str, u: dict) -> SolveSpec:
    """Random market with d in {1, 2, 3}, sigma from 0.05, jump sizes up to
    0.3 (some negative) and intensities up to 2, for the solver `kind`;
    power_1d gets d = 1.  `u` holds a uniform in [0, 1) for each of
    STRATA; they set d and the first asset's volatility, jump intensity,
    first jump size and excess drift."""
    d = 1 if kind == "power_1d" else 1 + int(3 * u["d"])
    r = _u(rng, 0.0, 0.04)
    diag = rng.uniform(0.05, 0.4, d)
    diag[0] = 0.05 + 0.35 * u["sigma"]
    sigma = np.diag(diag)
    for i in range(d):
        for j in range(i + 1, d):
            sigma[i, j] = _u(rng, -0.3, 0.3) * min(diag[i], diag[j])
    lambdas, atoms = [], []
    for i in range(d):
        lam = 0.0 if rng.random() < 0.2 else _u(rng, 0.0, 2.0)
        n_up = int(rng.integers(1, 3))
        z = list(rng.uniform(0.01, 0.3, n_up))
        if i == 0:
            lam = max(0.0, 2.0 * (u["lambda"] - 0.2) / 0.8)
            z[0] = 0.01 + 0.29 * u["jump"]
        p = list(rng.dirichlet(np.ones(n_up)))
        if rng.random() < 0.25:
            p_neg = _u(rng, 0.05, 0.3)
            z.append(-_u(rng, 0.01, 0.1))
            p = [w * (1.0 - p_neg) for w in p] + [p_neg]
        lambdas.append(lam)
        atoms.append((z, p))
    mu = [r + _u(rng, 0.0, 0.1) for _ in range(d)]
    mu[0] = r + 0.1 * u["drift"]
    model = _model(n_nodes, r, mu, sigma, lambdas, atoms)

    if kind in ("linear", "gamma1_var", "gamma1_es"):
        utility = jf.UtilitySpec(1.0, 1.0)
    elif kind == "diff_gamma":
        g1, g2 = rng.uniform(0.2, 0.8, 2)
        utility = jf.UtilitySpec(float(g1), float(g2))
    elif kind == "adjusted":
        pick = int(rng.integers(3))
        g1, g2 = (1.0, 1.0) if pick == 0 else rng.uniform(0.2, 0.8, 2)
        utility = jf.UtilitySpec(float(g1), float(g1 if pick == 1 else g2))
    else:
        utility = jf.UtilitySpec.equal(_u(rng, 0.2, 0.8))

    risk = None
    if kind not in ("linear", "power_1d", "power_equal") and not (
            kind == "no_consumption" and rng.random() < 0.5):
        risk_kind = "var" if kind in ("gamma1_var", "certify_var") else (
            "es" if kind in ("gamma1_es", "certify_es")
            else str(rng.choice(["var", "es"])))
        method = "off"
        if model.jumps.has_negative_jumps():
            method = str(rng.choice(["off", "paper", "thinning"]))
        risk = jf.RiskSpec(risk_kind, _u(rng, 0.01, 0.1), _u(rng, 0.05, 0.9),
                           negjump_method=method)
    return SolveSpec(kind, model, utility, risk)


def _slack_ok(strategy, model, risk) -> bool:
    return float(constrained.slack_path(strategy, model, risk).min()) >= -SLACK_TOL


def _check_power(report, d: int) -> str | None:
    diag = report.diagnostics
    if "eta_residual" in diag and diag["eta_residual"] > RESIDUAL_TOL:
        return "eta_residual"
    if "foc_residual" in diag and diag["foc_residual"] > FOC_TOL:
        if diag["boundary_clipped"] and d >= 2:
            return "foc_residual_clipped"
        return "foc_residual"
    return None


def _check_certificate(cert, model, risk) -> str | None:
    bad = _check_power(cert.report, model.d)
    if bad:
        return bad
    if not cert.active and not _slack_ok(cert.report.strategy, model, risk):
        return "certified_slack"
    return None


def _check_report(spec: SolveSpec, report) -> str | None:
    """Checks shared by every solver result; returns a failed check name."""
    model, risk = spec.model, spec.risk
    if isinstance(report, constrained.DiffGammaReport):
        if not _slack_ok(report.strategy, model, risk):
            if (risk.kind == jf.RiskKind.ES and model.jumps.has_negative_jumps()
                    and risk.negjump_method != jf.NegJumpMethod.OFF):
                return "diff_gamma_slack_es_negjump"
            return "diff_gamma_slack"
        return None
    diag = report.diagnostics
    bad = _check_power(report, model.d)
    if bad:
        return bad
    if "rho_residual" in diag:
        if abs(diag["rho_residual"]) > RESIDUAL_TOL:
            return "rho_residual"
        if not _slack_ok(report.strategy, model, risk):
            return "gamma1_slack"
    cert = diag.get("certificate")
    if cert is not None:
        return _check_certificate(cert, model, risk)
    return None


def solve_op(spec: SolveSpec):
    """The op for one SolveSpec: solve, touch the market layer directly,
    evaluate the exact cost and check the result."""
    model, utility, risk = spec.model, spec.utility, spec.risk

    def op():
        market.theta_hat_path(model)
        kind = spec.kind
        if kind == "linear":
            result = unconstrained.solve_linear(model, 1.0)
        elif kind == "power_1d":
            result = unconstrained.solve_power_1d(model, utility, 1.0)
        elif kind == "power_equal":
            result = unconstrained.solve_power_equal(model, utility, 1.0)
        elif kind == "gamma1_var":
            result = constrained.solve_var_gamma1(model, risk, 1.0)
        elif kind == "gamma1_es":
            result = constrained.solve_es_gamma1(model, risk, 1.0)
        elif kind == "certify_var":
            result = constrained.certify_var_gamma(model, utility, risk, 1.0)
        elif kind == "certify_es":
            result = constrained.certify_es_gamma(model, utility, risk, 1.0)
        elif kind == "diff_gamma":
            result = constrained.solve_diff_gamma(model, utility, risk, 1.0)
        elif kind == "no_consumption":
            result = constrained.solve_no_consumption(model, utility, risk, 1.0)
        else:
            result = negjumps.adjusted_solve(model, risk, utility, 1.0)
        if isinstance(result, constrained.ConstraintCertificate):
            bad = _check_certificate(result, model, risk)
            strategy = result.report.strategy
        else:
            bad = _check_report(spec, result)
            strategy = result.strategy
        market.K_transform_path(model.jumps, strategy.pi, utility.gamma1)
        cost = unconstrained.cost_function(model, utility, strategy, 1.0)
        if bad:
            return _check_failed(bad, 1)
        if not math.isfinite(cost):
            return _check_failed("cost_finite", 1)
        return Outcome(work=1)

    return op


def solve_mix_inputs(rng, sizes: dict) -> Inputs:
    # Stratified draws: every solver gets the same share of the pool, and
    # d and the first asset's parameters are spread evenly over their
    # ranges, so that the share of slow markets (the NoConvergence ones cost
    # 30 times a typical solve), and with it the run time, swings little
    # from seed to seed.
    pool = sizes["pool"]
    kinds = [SOLVE_KINDS[k] for k in rng.permutation(pool) % len(SOLVE_KINDS)]
    strata = {name: (rng.permutation(pool) + rng.random(pool)) / pool
              for name in STRATA}
    specs = [random_solve_spec(rng, sizes["nodes"], kind,
                               {name: float(strata[name][k])
                                for name in STRATA})
             for k, kind in enumerate(kinds)]
    counts = {k: sum(s.kind == k for s in specs) for k in SOLVE_KINDS}
    ops = [solve_op(s) for s in specs]
    return Inputs(ops=ops, warmup=ops[0], work_unit=None,
                  sizes=dict(sizes),
                  fingerprint=_digest([(s.kind, _model_key(s.model), s.utility,
                                        s.risk) for s in specs]),
                  description={"kinds": counts})


# ---------------------------------------------------------------------------
# oracle_grid
# ---------------------------------------------------------------------------

def oracle_inputs(rng, sizes: dict) -> Inputs:
    """One op per market: solve it, sweep the grid without and with the
    risk spec, cost the random candidates, and check that J_star dominates
    all three.

    The risk sweep costs only the feasible candidates, so its time follows
    the risk spec.  The markets alternate VaR and ES and spread beta and
    kappa evenly over their ranges, so that the run time swings little from
    seed to seed.
    """
    n = sizes["nodes"]
    pi_grid = np.linspace(0.0, 1.0, sizes["pi"])
    v_grid = np.linspace(0.0, 2.0, sizes["v"])
    n_random = sizes["random"]
    keys = []

    def make_op(kind, u_beta, u_kappa):
        r = _u(rng, 0.0, 0.04)
        model = _model(n, r, [r + _u(rng, 0.01, 0.06)],
                       [[_u(rng, 0.15, 0.35)]], [_u(rng, 0.2, 1.5)],
                       [(list(rng.uniform(0.01, 0.15, 2)),
                         list(rng.dirichlet(np.ones(2))))])
        utility = jf.UtilitySpec.equal(_u(rng, 0.3, 0.8))
        risk = jf.RiskSpec(kind, 0.01 + 0.09 * u_beta, 0.1 + 0.4 * u_kappa)
        # random candidates as in acceptance criterion 8: a constant or a
        # two-piece allocation and a scaled consumption shape; every one is
        # costed, so the loop's work does not depend on how many are feasible
        pi_lo = rng.uniform(0.0, 1.0, n_random)
        pi_hi = np.where(rng.random(n_random) < 0.5, pi_lo,
                         rng.uniform(0.0, 1.0, n_random))
        scales = rng.uniform(0.0, 2.0, n_random)
        keys.append((_model_key(model), utility, risk, pi_lo.tolist(),
                     pi_hi.tolist(), scales.tolist()))

        def random_candidates(v_shape):
            best = -math.inf
            for a, b, s in zip(pi_lo, pi_hi, scales):
                pi = np.full((n, 1), a)
                pi[n // 2:] = b
                cand = unconstrained.Strategy.from_pi(model, pi, s * v_shape)
                slack = constrained.slack_path(cand, model, risk).min()
                cost = unconstrained.cost_function(model, utility, cand, 1.0)
                if slack >= -SLACK_TOL:
                    best = max(best, cost)
            return best

        def op():
            market.theta_hat_path(model)
            rep = unconstrained.solve_power_1d(model, utility, 1.0)
            v_shape = rep.strategy.v
            market.K_transform_path(model.jumps, rep.strategy.pi, utility.gamma)
            free = simulate.grid_oracle(model, utility, None, 1.0, pi_grid,
                                        v_grid, v_shape=v_shape)
            held = simulate.grid_oracle(model, utility, risk, 1.0, pi_grid,
                                        v_grid, v_shape=v_shape)
            best = random_candidates(v_shape)
            work = 2 * pi_grid.size * v_grid.size + n_random
            for name, J in (("oracle_free", free.J), ("oracle_risk", held.J),
                            ("random_candidates", best)):
                if rep.J_star < J - ORACLE_TOL:
                    return _check_failed(name, work)
            return Outcome(work=work)

        return op

    m = sizes["models"]
    u_beta = (rng.permutation(m) + rng.random(m)) / m
    u_kappa = (rng.permutation(m) + rng.random(m)) / m
    ops = [make_op(("var", "es")[k % 2], float(u_beta[k]), float(u_kappa[k]))
           for k in range(m)]
    return Inputs(ops=ops, warmup=ops[0], work_unit="candidates",
                  sizes=dict(sizes), fingerprint=_digest(keys))


# ---------------------------------------------------------------------------
# cli_reference
# ---------------------------------------------------------------------------

def cli_commands() -> list:
    """(command, config) pairs: solve, simulate and verify on both reference
    configs, certify on the equal-gamma one only."""
    pairs = [(c, REFERENCE_CONFIGS[0]) for c in ("solve", "simulate", "verify")]
    pairs += [(c, REFERENCE_CONFIGS[1])
              for c in ("solve", "simulate", "verify", "certify")]
    return pairs


def _verify_rows_pass(path: Path) -> bool:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return bool(rows) and all(row["pass"] == "1" for row in rows)


def cli_inputs(rng, sizes: dict, out_dir: Path) -> Inputs:
    """Cycle the commands in a seeded order; the configs are read as
    committed apart from --paths, which is recorded."""
    paths = sizes["paths"]
    pairs = cli_commands()
    order = [pairs[i] for i in rng.permutation(len(pairs))]

    def make_op(command, config):
        target = out_dir / f"{Path(config).stem}-{command}"
        argv = [command, "--config", str(CONFIG_DIR / config),
                "--out", str(target), "--paths", str(paths)]

        def op():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
            if rc != 0:
                return _check_failed(f"exit_{rc}:{command}", 1)
            if command == "verify" and not _verify_rows_pass(target / "verify.csv"):
                return _check_failed("verify_rows", 1)
            return Outcome(work=1)

        return op

    ops = [make_op(c, cfg) for c, cfg in order]
    return Inputs(ops=ops,
                  warmup=make_op("verify", REFERENCE_CONFIGS[0]),
                  work_unit=None, sizes=dict(sizes), calibration="stream",
                  fingerprint=_digest((order, paths)),
                  description={"order": [f"{c}:{cfg}" for c, cfg in order]})


WORKLOADS = ("mc_tail", "solve_mix", "oracle_grid", "cli_reference")


def make_inputs(workload: str, seed: int, size: str, out_dir: Path) -> Inputs:
    rng = _rng(seed, workload)
    sizes = SIZES[size][workload]
    if workload == "mc_tail":
        return mc_tail_inputs(rng, sizes)
    if workload == "solve_mix":
        return solve_mix_inputs(rng, sizes)
    if workload == "oracle_grid":
        return oracle_inputs(rng, sizes)
    if workload == "cli_reference":
        return cli_inputs(rng, sizes, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
