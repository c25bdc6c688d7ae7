"""Command-line driver: parse a market config, solve, certify, simulate,
verify, compare.

Config files are flat key-value sections (INI syntax).  Schema:

    [grid]
    horizon = 1.0          # years
    nodes = 512            # uniform grid; or  times = 0,0.25,0.5,...

    [coefficients]
    dimension = 1
    r = 0.02               # scalar, or comma list with one value per node
    mu = 0.10              # per-asset entries separated by ';', each scalar
                           # or a comma list per node
    sigma = 0.25           # d x d constant matrix, rows separated by ';'

    [jump.1]               # one section per asset, 1-based
    lambda = 1.0           # jumps per year; 0 or kind = none disables
    kind = points          # points | uniform | none
    points = 0.05:0.5, 0.15:0.5    # size:probability pairs
    # kind = uniform uses: support = -0.1, 0.2

    [utility]
    gamma1 = 0.5
    gamma2 = 0.5

    [risk]                 # optional; kind = none for the unconstrained run
    kind = var             # var | es | none
    beta = 0.05
    kappa = 0.2
    negjump_method = off   # off | paper | thinning

    [run]
    paths = 100000
    seed = 20240811
    out = out

Commands exit 0 on success, 1 on config/parse errors, 2 when a solver
precondition fails or a computation overflows (machine-readable reason on
stderr), 3 when cmd_verify finds a failing check.  All numeric CSV output
carries 17 significant digits.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.stats import binom

from . import constrained, negjumps, unconstrained
from .simulate import (
    estimate_cost,
    grid_oracle,
    simulate,
    simulate_node_stats,
)
from .errors import (
    ConditionViolated,
    ConfigError,
    InvalidStrategy,
    JumpfolioError,
    OutOfRange,
)
from .market import (
    CoefficientPath,
    JumpDist,
    JumpSpec,
    MarketModel,
    R_path,
    TimeGrid,
    UtilitySpec,
    inner_product_path,
    theta_path,
)
from .riskmetrics import NegJumpMethod, RiskKind, RiskSpec
from .unconstrained import SolveReport, Strategy, cost_function

# Paths of the stored ensemble that verify's terminal-mean and cost checks
# use.  Up to the cap it holds every path and the profile check counts from
# it too; above, the profile check streams all the paths.
_FULL_ENSEMBLE_CAP = 20_000


@dataclass
class RunConfig:
    model: MarketModel
    utility: UtilitySpec
    risk: RiskSpec | None
    n_paths: int
    seed: int
    out_dir: Path


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _coefficient_path(text: str, n: int) -> np.ndarray:
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if len(vals) == 1:
        return np.full(n, vals[0])
    if len(vals) != n:
        raise ConfigError(f"path has {len(vals)} samples, grid has {n} nodes")
    return np.asarray(vals)


def _parse_jump_section(section) -> tuple:
    lam = section.getfloat("lambda", fallback=0.0)
    kind = section.get("kind", fallback="none").strip().lower()
    if kind == "none" or lam == 0.0:
        return 0.0, JumpDist.degenerate()
    if kind == "points":
        pairs = [tok for tok in section.get("points", "").split(",") if tok.strip()]
        if not pairs:
            raise ConfigError("points jump law needs 'points = z:p, ...'")
        z, p = [], []
        for pair in pairs:
            left, _, right = pair.partition(":")
            z.append(float(left))
            p.append(float(right))
        return lam, JumpDist.point_masses(z, p)
    if kind == "uniform":
        bounds = _floats(section.get("support", ""))
        if len(bounds) != 2:
            raise ConfigError("uniform jump law needs 'support = lo, hi'")
        lo, hi = bounds
        if not lo < hi:
            raise ConfigError(f"uniform jump law needs lo < hi, got {lo}, {hi}")
        density = 1.0 / (hi - lo)
        return lam, JumpDist.from_density(
            lambda zz: np.full_like(zz, density), lo, hi)
    raise ConfigError(f"unknown jump kind '{kind}'")


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a config file into a validated RunConfig."""
    overrides = overrides or {}
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    try:
        grid_sec = parser["grid"]
        if "times" in grid_sec:
            grid = TimeGrid(np.asarray(_floats(grid_sec["times"])))
        else:
            grid = TimeGrid.uniform(grid_sec.getfloat("horizon"),
                                    grid_sec.getint("nodes"))
        coeff_sec = parser["coefficients"]
        d = coeff_sec.getint("dimension", fallback=1)
        r = _coefficient_path(coeff_sec["r"], grid.n)
        mu_parts = [p for p in coeff_sec["mu"].split(";") if p.strip()]
        if len(mu_parts) != d:
            raise ConfigError(f"mu has {len(mu_parts)} assets, expected {d}")
        mu = np.column_stack([_coefficient_path(p, grid.n) for p in mu_parts])
        sig_rows = [_floats(row) for row in coeff_sec["sigma"].split(";")]
        sigma = np.asarray(sig_rows, dtype=float)
        if sigma.shape != (d, d):
            raise ConfigError(f"sigma must be {d}x{d}")
        coeffs = CoefficientPath(r=r, mu=mu,
                                 sigma=np.tile(sigma, (grid.n, 1, 1)))
        lams, dists = [], []
        for j in range(1, d + 1):
            name = f"jump.{j}"
            if parser.has_section(name):
                lam, dist = _parse_jump_section(parser[name])
            else:
                lam, dist = 0.0, JumpDist.degenerate()
            lams.append(lam)
            dists.append(dist)
        model = MarketModel(grid, coeffs, JumpSpec(np.asarray(lams), tuple(dists)))

        util_sec = parser["utility"]
        utility = UtilitySpec(util_sec.getfloat("gamma1"),
                              util_sec.getfloat("gamma2"))

        risk = None
        if parser.has_section("risk"):
            kind = parser["risk"].get("kind", "none").strip().lower()
            if kind != "none":
                method = overrides.get(
                    "negjump_method",
                    parser["risk"].get("negjump_method", "off"))
                risk = RiskSpec(kind=RiskKind(kind),
                                beta=parser["risk"].getfloat("beta"),
                                kappa=parser["risk"].getfloat("kappa"),
                                negjump_method=NegJumpMethod(method))

        run_sec = parser["run"] if parser.has_section("run") else {}
        n_paths = int(overrides.get("paths", run_sec.get("paths", 100_000)))
        seed = int(overrides.get("seed", run_sec.get("seed", 1)))
        if n_paths < 1:
            raise ConfigError(f"paths must be at least 1, got {n_paths}")
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        out_dir = Path(overrides.get("out") or run_sec.get("out", "out"))
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError, JumpfolioError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    return RunConfig(model=model, utility=utility, risk=risk,
                     n_paths=n_paths, seed=seed, out_dir=out_dir)


def _points_line(dist: JumpDist) -> str:
    """A jump law as the `z:w, ...` list of `points`, 17 significant digits.

    A tabulated density goes out as its weighted atoms, the law that every
    computation uses, so it reloads as the same atoms and weights.  A zero
    weight, which `points` refuses, raises ConfigError.
    """
    if np.any(dist.w <= 0.0):
        raise ConfigError("a jump law with a zero-weight atom cannot be "
                          "dumped as points")
    return ", ".join(f"{z:.17g}:{w:.17g}" for z, w in zip(dist.z, dist.w))


def config_text(config: RunConfig) -> str:
    """The canonical config text that `solve --dump-config` writes."""
    model, risk = config.model, config.risk
    c, jumps = model.coeffs, model.jumps

    def joined(values):
        return ",".join(_fmt(v) for v in values)

    sections = [
        ("grid", [("times", joined(model.grid.nodes))]),
        ("coefficients", [
            ("dimension", model.d), ("r", joined(c.r)),
            ("mu", "; ".join(joined(col) for col in c.mu.T)),
            ("sigma", "; ".join(joined(row) for row in c.sigma[0]))]),
    ]
    for j, (lam, dist) in enumerate(zip(jumps.lambdas, jumps.dists)):
        law = ([("kind", "none")] if lam == 0.0 else
               [("kind", "points"), ("points", _points_line(dist))])
        sections.append((f"jump.{j + 1}", [("lambda", lam)] + law))
    sections.append(("utility", [("gamma1", config.utility.gamma1),
                                 ("gamma2", config.utility.gamma2)]))
    sections.append(("risk", [("kind", "none")] if risk is None else [
        ("kind", risk.kind.value), ("beta", risk.beta),
        ("kappa", risk.kappa), ("negjump_method", risk.negjump_method.value)]))
    sections.append(("run", [("paths", config.n_paths), ("seed", config.seed),
                             ("out", config.out_dir)]))
    return "\n".join(f"[{name}]\n" + "".join(f"{key} = {_fmt(value)}\n"
                                             for key, value in rows)
                     for name, rows in sections)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _csv_text(path: Path, header: str, rows) -> str:
    """The text of a CSV at `path`; a NaN cell raises OutOfRange."""
    lines = [header]
    for i, row in enumerate(rows, start=1):
        cells = [_fmt(v) for v in row]
        lines.append(",".join(cells))
        if "nan" in cells:
            raise OutOfRange(f"{path}: row {i} has a NaN cell: {lines[-1]}")
    return "\n".join(lines) + "\n"


def _write_rows(path: Path, header: str, rows) -> None:
    """Write a CSV, creating its directory.  A NaN cell raises OutOfRange
    before the directory is made or the file opened."""
    text = _csv_text(path, header, rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_strategy_csv(path: Path, strategy: Strategy) -> None:
    d = strategy.d
    header = ("t," + ",".join(f"y{j + 1}" for j in range(d)) + ","
              + ",".join(f"pi{j + 1}" for j in range(d)) + ",v")
    rows = np.column_stack([strategy.grid.nodes, strategy.y, strategy.pi,
                            strategy.v])
    _write_rows(path, header, rows)


def load_strategy_csv(path, model: MarketModel) -> Strategy:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:  # missing file, non-numeric cell
        raise ConfigError(f"cannot read strategy file {path}: {exc}") from exc
    d = model.d
    if data.shape[1] != 2 * d + 2:
        raise ConfigError(f"strategy file needs {2 * d + 2} columns")
    if data.shape[0] != model.grid.n:
        raise ConfigError("strategy file rows do not match the grid")
    return Strategy(model.grid, data[:, 1:1 + d], data[:, 1 + d:1 + 2 * d],
                    data[:, -1])


def _report_rows(report: SolveReport) -> list:
    """The scalar fields that are set (J_star first, in declaration order),
    then the scalar diagnostics and the certificate rows by key."""
    items = [(f.name, getattr(report, f.name)) for f in fields(report)]
    rows = []
    for key, value in items + sorted(report.diagnostics.items()):
        if isinstance(value, (bool, int, float, np.integer, np.floating, str)):
            rows.append((key, value))
        elif isinstance(value, constrained.ConstraintCertificate):
            rows.extend(_certificate_rows(value, prefix="certificate_"))
    return rows


def _certificate_rows(cert, prefix: str = "") -> list:
    rows = [
        (prefix + "kind", cert.kind.value),
        (prefix + "active", cert.active),
        (prefix + "condition_lhs", cert.condition_lhs),
        (prefix + "condition_rhs", cert.condition_rhs),
        (prefix + "kappa_lo", cert.kappa_range[0]),
        (prefix + "kappa_hi", cert.kappa_range[1]),
    ]
    for key, value in sorted(cert.diagnostics.items()):
        if isinstance(value, (bool, int, float, np.integer, np.floating)):
            rows.append((prefix + key, value))
    return rows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_solve(config: RunConfig, args) -> int:
    # a config that cannot be dumped fails before any file is written
    dumped = config_text(config) if getattr(args, "dump_config", False) else None
    report = negjumps.adjusted_solve(config.model, config.risk, config.utility,
                                     x=1.0, force=args.force)
    out = config.out_dir
    # every file is formatted and checked before the first one is written,
    # the strategy by write_strategy_csv, which also makes the directory
    report_text = _csv_text(out / "report.csv", "key,value",
                            _report_rows(report))
    write_strategy_csv(out / "strategy.csv", report.strategy)
    (out / "report.csv").write_text(report_text, encoding="utf-8")
    if dumped is not None:
        (out / "config_dump.ini").write_text(dumped, encoding="utf-8")
    print(f"wrote {out / 'strategy.csv'} and {out / 'report.csv'}")
    return 0


def cmd_certify(config: RunConfig, args) -> int:
    if config.risk is None:
        raise ConditionViolated("certify needs a risk section")
    cert = constrained.certify(config.model, config.utility, config.risk)
    out = config.out_dir
    _write_rows(out / "report.csv", "key,value", _certificate_rows(cert))
    print(f"constraint {'ACTIVE (not certified)' if cert.active else 'inactive'}; "
          f"wrote {out / 'report.csv'}")
    return 0


def cmd_simulate(config: RunConfig, args) -> int:
    report = negjumps.adjusted_solve(config.model, config.risk, config.utility,
                                     x=1.0, force=args.force)
    beta = config.risk.beta if config.risk is not None else 0.05
    stats = simulate_node_stats(config.model, report.strategy, 1.0, beta,
                                    config.n_paths, config.seed)
    out = config.out_dir
    rows = [
        (k, t, stats.mean[k], stats.q_beta[k], stats.tail_mean[k])
        for k, t in enumerate(config.model.grid.nodes)
    ]
    _write_rows(out / "ensemble.csv", "node,t,mean,q_beta,es_beta", rows)
    print(f"wrote {out / 'ensemble.csv'} ({config.n_paths} paths)")
    return 0


def cmd_compare(config: RunConfig, args) -> int:
    model = config.model
    jump, diffusion = (unconstrained.solve_power_1d(m, config.utility).strategy
                       for m in (model, model.without_jumps()))
    out = config.out_dir
    rows = np.column_stack([model.grid.nodes, jump.pi[:, 0],
                            diffusion.pi[:, 0], jump.v, diffusion.v])
    _write_rows(out / "compare.csv",
                "t,pi_jump,pi_diffusion,v_jump,v_diffusion", rows)
    print(f"wrote {out / 'compare.csv'}")
    return 0


def _verify_checks(config: RunConfig, args) -> list:
    """Build the verification battery; each row is (name, lhs, rhs, tol, ok)."""
    model, risk = config.model, config.risk
    if config.n_paths < 2:
        raise OutOfRange("verify needs at least 2 paths for its standard "
                         f"errors, got {config.n_paths}")
    checks = []

    if args.strategy is not None:
        strategy = load_strategy_csv(args.strategy, model)
        try:
            strategy.validate(model)
            admissible = True
        except InvalidStrategy:
            admissible = False
        checks.append(("admissible", float(admissible), 1.0, 0.0,
                       admissible))
        if not admissible:
            return checks
        report = None
    else:
        report = negjumps.adjusted_solve(model, risk, config.utility, x=1.0,
                                         force=args.force)
        strategy = report.strategy

    x = 1.0
    n_full = min(config.n_paths, _FULL_ENSEMBLE_CAP)
    ensemble = simulate(model, strategy, x, n_full, config.seed)

    # mean of terminal wealth against the closed form
    drift = inner_product_path(model.grid, strategy.y, theta_path(model))
    closed_mean = x * np.exp(R_path(model)[-1] - strategy.V[-1] + drift[-1])
    sample = ensemble.wealth[:, -1]
    se = float(sample.std(ddof=1) / np.sqrt(n_full))
    lhs = float(sample.mean())
    tol = 3 * se + 1e-12 * abs(closed_mean)   # floor for zero-variance runs
    checks.append(("terminal_mean_mc", lhs, float(closed_mean), tol,
                   abs(lhs - closed_mean) <= tol))

    # Monte Carlo cost against the exact cost
    mc_cost, cost_se = estimate_cost(ensemble, strategy, config.utility)
    exact = cost_function(model, config.utility, strategy, x)
    tol = 3 * cost_se + 1e-12 * abs(exact)
    checks.append(("cost_mc_match", mc_cost, exact, tol,
                   abs(mc_cost - exact) <= tol))

    if risk is not None:
        thresholds = (1.0 - risk.kappa) * x * np.exp(R_path(model))
        if n_full == config.n_paths:
            # the streamed run would draw this same ensemble
            below = np.count_nonzero(ensemble.wealth < thresholds, axis=0)
        else:
            below = simulate_node_stats(model, strategy, x, risk.beta,
                                        config.n_paths, config.seed,
                                        thresholds=thresholds).below
        band = float(binom.ppf(1.0 - 1e-3 / model.grid.n, config.n_paths,
                               risk.beta))
        worst = float(below.max())
        checks.append(("profile_within_level", worst, band, 0.0,
                       worst <= band))

    if report is not None and "rho_residual" in report.diagnostics:
        resid = abs(report.diagnostics["rho_residual"])
        checks.append(("rho_residual", resid, 0.0, 1e-12, resid <= 1e-12))

    if (report is not None and risk is None and model.d == 1
            and config.utility.is_equal and config.utility.gamma1 < 1.0):
        oracle = grid_oracle(model, config.utility, None, x,
                             np.linspace(0, 1, 21),
                             np.linspace(0, 2, 11),
                             v_shape=strategy.v)
        checks.append(("grid_dominance", report.J_star, oracle.J, 1e-6,
                       report.J_star >= oracle.J - 1e-6))
    return checks


def cmd_verify(config: RunConfig, args) -> int:
    checks = _verify_checks(config, args)
    out = config.out_dir
    _write_rows(out / "verify.csv", "name,lhs,rhs,tolerance,pass",
                [(n, l, r, t, ok) for n, l, r, t, ok in checks])
    failed = [name for name, *_rest, ok in checks if not ok]
    for name, lhs, rhs, tol, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: lhs={lhs:.6g} "
              f"rhs={rhs:.6g} tol={tol:.3g}")
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpfolio",
        description="optimal investment and consumption under downside-risk "
                    "limits in jump-diffusion markets")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="market config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--paths", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--negjump-method", dest="negjump_method",
                       choices=["off", "paper", "thinning"], default=None)
        p.add_argument("--force", action="store_true",
                       help="evaluate formulas even when conditions fail")
        if name == "solve":
            p.add_argument("--dump-config", action="store_true")
        if name == "verify":
            p.add_argument("--strategy", default=None,
                           help="verify this strategy.csv instead of solving")
        p.set_defaults(func=fn)
    return parser


COMMANDS = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "compare": cmd_compare,
}


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "type": type(exc).__name__,
                      "message": str(exc)}), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in (
        ("out", args.out), ("paths", args.paths), ("seed", args.seed),
        ("negjump_method", args.negjump_method)) if v is not None}
    try:
        config = load_config(args.config, overrides)
    except ConfigError as exc:
        _emit_error("parse_error", exc)
        return 1
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(config, args)
    except ConfigError as exc:
        _emit_error("parse_error", exc)
        return 1
    except JumpfolioError as exc:
        _emit_error("condition_violation", exc)
        return 2
    except (FloatingPointError, OverflowError) as exc:
        _emit_error("condition_violation",
                    OutOfRange(f"input out of floating-point range: {exc}"))
        return 2


if __name__ == "__main__":
    sys.exit(main())
