import dataclasses
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import jumpfolio as jf
from jumpfolio.cli import _write_rows, config_text, load_config, main
from jumpfolio.errors import ConditionViolated, OutOfRange
from jumpfolio.market import GL_NODES_DEFAULT, R_path

from conftest import make_model, make_model_2d

BASE_CONFIG = """
[grid]
horizon = 1.0
nodes = 129

[coefficients]
dimension = 1
r = 0.02
mu = {mu}
sigma = 0.3

[jump.1]
lambda = {lam}
kind = points
points = 0.04:1.0

[utility]
gamma1 = {g1}
gamma2 = {g2}

[risk]
kind = {kind}
beta = 0.05
kappa = {kappa}
negjump_method = off

[run]
paths = 5000
seed = 11
out = {out}
"""


def write_config(tmp_path, mu=0.07, lam=0.5, g1=1.0, g2=1.0, kind="var",
                 kappa=0.1, name="market.ini"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(BASE_CONFIG.format(mu=mu, lam=lam, g1=g1, g2=g2,
                                       kind=kind, kappa=kappa, out=out))
    return path, out


def test_solve_writes_strategy_and_report(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    strategy = (out / "strategy.csv").read_text().splitlines()
    assert strategy[0] == "t,y1,pi1,v"
    assert len(strategy) == 130
    report = dict(line.split(",") for line in
                  (out / "report.csv").read_text().splitlines()[1:])
    assert "J_star" in report
    # full-precision round trip against the library closed forms
    model_cfg = load_config(cfg)
    rep = jf.solve_var_gamma1(model_cfg.model, model_cfg.risk)
    assert float(report["J_star"]) == rep.J_star
    radius = jf.rho_var_gamma1(model_cfg.model, model_cfg.risk)
    assert float(report["rho_star"]) == radius.rho_star


def test_solve_diffusion_strategy_matches_merton(tmp_path):
    cfg, out = write_config(tmp_path, mu=0.047, lam=0.0, g1=0.5, g2=0.5,
                            kind="none")
    assert main(["solve", "--config", str(cfg)]) == 0
    data = np.loadtxt(out / "strategy.csv", delimiter=",", skiprows=1)
    merton = (0.047 - 0.02) / (0.5 * 0.3**2)
    assert np.max(np.abs(data[:, 2] - merton)) < 1e-12


def test_explicit_times_grid(tmp_path):
    cfg, out = write_config(tmp_path)
    text = cfg.read_text().replace("horizon = 1.0\nnodes = 129",
                                   "times = 0.0, 0.3, 0.7, 1.0")
    cfg.write_text(text)
    config = load_config(cfg)
    assert np.array_equal(config.model.grid.nodes,
                          np.array([0.0, 0.3, 0.7, 1.0]))
    assert main(["solve", "--config", str(cfg)]) == 0


def test_solve_unconstrained_dispatch(tmp_path):
    cfg, out = write_config(tmp_path, g1=0.5, g2=0.5, kind="none")
    assert main(["solve", "--config", str(cfg)]) == 0
    report = dict(line.split(",") for line in
                  (out / "report.csv").read_text().splitlines()[1:])
    assert "chi" in report


def test_dump_config_round_trip(tmp_path):
    cfg, out = write_config(tmp_path, g1=0.5, g2=0.5, kind="var", kappa=0.8)
    assert main(["solve", "--config", str(cfg), "--dump-config"]) == 0
    dumped = out / "config_dump.ini"
    a = load_config(cfg)
    b = load_config(dumped)
    assert np.array_equal(a.model.grid.nodes, b.model.grid.nodes)
    assert np.array_equal(a.model.coeffs.mu, b.model.coeffs.mu)
    assert np.array_equal(a.model.coeffs.sigma, b.model.coeffs.sigma)
    assert np.array_equal(a.model.jumps.lambdas, b.model.jumps.lambdas)
    assert np.array_equal(a.model.jumps.dists[0].z, b.model.jumps.dists[0].z)
    assert a.utility == b.utility
    assert a.risk == b.risk
    assert (a.n_paths, a.seed) == (b.n_paths, b.seed)


def test_dump_config_keeps_point_mass_weights(tmp_path):
    # 3-decimal weights whose float sum can miss 1 by an ulp reload as given
    rng = np.random.default_rng(2024)
    base = load_config(write_config(tmp_path)[0])
    path = tmp_path / "dump.ini"
    for _ in range(500):
        m = int(rng.integers(2, 6))
        cuts = np.sort(rng.choice(np.arange(1, 1000), m - 1, replace=False))
        p = np.diff(np.concatenate(([0], cuts, [1000]))) / 1000.0
        law = jf.JumpDist.point_masses(np.round(rng.uniform(-0.5, 1.0, m), 3),
                                       p)
        model = jf.MarketModel(base.model.grid, base.model.coeffs,
                               jf.JumpSpec(np.array([0.5]), (law,)))
        path.write_text(config_text(dataclasses.replace(base, model=model)))
        reloaded = load_config(path).model.jumps.dists[0]
        assert np.array_equal(reloaded.z, law.z)
        assert np.array_equal(reloaded.w, law.w)


def test_malformed_config_exits_1_without_output(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\nhorizon = nonsense\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(bad), "--out", str(out)]) == 1
    assert not out.exists()


def test_seed_zero_override_is_honoured(tmp_path):
    cfg, _ = write_config(tmp_path)
    assert load_config(cfg, {"seed": 0}).seed == 0
    assert load_config(cfg).seed == 11


@pytest.mark.parametrize("flag, value", [("--paths", "0"), ("--paths", "-5"),
                                         ("--seed", "-1")])
def test_bad_run_override_exits_1(tmp_path, capsys, flag, value):
    cfg, out = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), flag, value]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "parse_error"
    assert error["type"] == "ConfigError"
    assert not out.exists()


def test_missing_config_exits_1(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 1


def test_condition_violation_exits_2(tmp_path):
    # distinct gammas without a risk section have no provided solution
    cfg, _ = write_config(tmp_path, g1=0.3, g2=0.7, kind="none")
    assert main(["solve", "--config", str(cfg)]) == 2


def test_negative_jump_market_needs_method(tmp_path):
    cfg, out = write_config(tmp_path)
    text = cfg.read_text().replace("points = 0.04:1.0",
                                   "points = -0.05:0.25, 0.08:0.75")
    text = text.replace("beta = 0.05", "beta = 0.25")
    cfg.write_text(text)
    assert main(["solve", "--config", str(cfg)]) == 2
    assert main(["solve", "--config", str(cfg),
                 "--negjump-method", "thinning"]) == 0


def test_certify_command(tmp_path):
    cfg, out = write_config(tmp_path, mu=0.055, g1=0.5, g2=0.5, kappa=0.8)
    assert main(["certify", "--config", str(cfg)]) == 0
    rows = dict(line.split(",") for line in
                (out / "report.csv").read_text().splitlines()[1:])
    assert rows["kind"] == "var"
    assert rows["active"] == "0"


def test_simulate_command(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--paths", "2000"]) == 0
    lines = (out / "ensemble.csv").read_text().splitlines()
    assert lines[0] == "node,t,mean,q_beta,es_beta"
    assert len(lines) == 130


def test_verify_pass_and_report(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["verify", "--config", str(cfg), "--paths", "20000"]) == 0
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,tolerance,pass"
    names = [line.split(",")[0] for line in lines[1:]]
    assert "terminal_mean_mc" in names
    assert "profile_within_level" in names


def test_verify_bank_account_all_checks_pass(tmp_path):
    cfg, out = write_config(tmp_path, mu=0.02, lam=0.0)
    assert main(["verify", "--config", str(cfg), "--paths", "2000"]) == 0
    lines = (out / "verify.csv").read_text().splitlines()[1:]
    assert lines
    assert all(line.rsplit(",", 1)[1] == "1" for line in lines)


def test_verify_infeasible_strategy_exits_3(tmp_path):
    cfg, out = write_config(tmp_path, kappa=0.02)
    config = load_config(cfg)
    n = config.model.grid.n
    risky = jf.Strategy.from_pi(config.model, np.full((n, 1), 1.0))
    out.mkdir(parents=True, exist_ok=True)
    from jumpfolio.cli import write_strategy_csv
    write_strategy_csv(out / "strategy.csv", risky)
    code = main(["verify", "--config", str(cfg),
                 "--strategy", str(out / "strategy.csv")])
    assert code == 3


def test_verify_inadmissible_strategy_exits_3(tmp_path):
    cfg, out = write_config(tmp_path)
    config = load_config(cfg)
    n = config.model.grid.n
    bad = jf.Strategy(config.model.grid, np.full((n, 1), 2.0),
                      np.full((n, 1), 2.0), np.zeros(n))
    out.mkdir(parents=True, exist_ok=True)
    from jumpfolio.cli import write_strategy_csv
    write_strategy_csv(out / "strategy.csv", bad)
    assert main(["verify", "--config", str(cfg),
                 "--strategy", str(out / "strategy.csv")]) == 3


def test_verify_strategy_with_nan_row_is_inadmissible(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    lines = (out / "strategy.csv").read_text().splitlines()
    t, *cells = lines[40].split(",")
    lines[40] = ",".join([t] + ["nan"] * (len(cells) - 1) + [cells[-1]])
    (out / "strategy.csv").write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(cfg),
                 "--strategy", str(out / "strategy.csv")]) == 3
    rows = (out / "verify.csv").read_text().splitlines()[1:]
    assert len(rows) == 1
    name, *_values, passed = rows[0].split(",")
    assert (name, passed) == ("admissible", "0")


def test_verify_one_path_is_a_condition_violation(tmp_path, capsys):
    # one path has no standard error: the tolerances used to be NaN
    cfg, out = write_config(tmp_path)
    assert main(["verify", "--config", str(cfg), "--paths", "1"]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (error["error"], error["type"]) == ("condition_violation",
                                               "OutOfRange")
    assert not (out / "verify.csv").exists()


def _count_marches(monkeypatch):
    """Record the path count of every march through the grid."""
    simulate_module = importlib.import_module("jumpfolio.simulate")
    march, calls = simulate_module._march, []

    def counted(model, strategy, x, n_paths, *rest):
        calls.append(n_paths)
        return march(model, strategy, x, n_paths, *rest)

    monkeypatch.setattr(simulate_module, "_march", counted)
    return calls


def _verify_lhs(out):
    rows = (out / "verify.csv").read_text().splitlines()[1:]
    return {row.split(",")[0]: float(row.split(",")[1]) for row in rows}


def test_verify_marches_once_up_to_the_cap(tmp_path, monkeypatch):
    cfg, out = write_config(tmp_path)
    calls = _count_marches(monkeypatch)
    assert main(["verify", "--config", str(cfg), "--paths", "2000"]) == 0
    assert calls == [2000]
    assert "profile_within_level" in _verify_lhs(out)


def test_verify_streams_the_profile_above_the_cap(tmp_path, monkeypatch):
    cfg, out = write_config(tmp_path)
    monkeypatch.setattr(importlib.import_module("jumpfolio.cli"),
                        "_FULL_ENSEMBLE_CAP", 500)
    calls = _count_marches(monkeypatch)
    assert main(["verify", "--config", str(cfg), "--paths", "1000"]) == 0
    assert calls == [500, 1000]
    config = load_config(cfg)
    strategy = jf.adjusted_solve(config.model, config.risk, config.utility,
                                 x=1.0).strategy
    thresholds = (1.0 - config.risk.kappa) * np.exp(R_path(config.model))
    stats = jf.simulate_node_stats(config.model, strategy, 1.0,
                                   config.risk.beta, 1000, config.seed,
                                   thresholds=thresholds)
    assert _verify_lhs(out)["profile_within_level"] == stats.below.max()


def test_compare_command_schema_and_orderings(tmp_path):
    cfg, out = write_config(tmp_path, mu=0.055, lam=0.8, g1=0.5, g2=0.5,
                            kind="none")
    assert main(["compare", "--config", str(cfg)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "t,pi_jump,pi_diffusion,v_jump,v_diffusion"
    assert len(lines) == load_config(cfg).model.grid.n + 1
    data = np.loadtxt(out / "compare.csv", delimiter=",", skiprows=1)
    assert np.all(data[:, 1] <= data[:, 2] + 1e-12)
    assert np.all(data[:, 3] >= data[:, 4] - 1e-12)


def test_compare_no_jumps_coincide(tmp_path):
    cfg, out = write_config(tmp_path, mu=0.047, lam=0.0, g1=0.5, g2=0.5,
                            kind="none")
    assert main(["compare", "--config", str(cfg)]) == 0
    data = np.loadtxt(out / "compare.csv", delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], data[:, 2])
    assert np.array_equal(data[:, 3], data[:, 4])


def test_write_rows_refuses_a_nan_cell_before_making_anything(tmp_path):
    path = tmp_path / "out" / "table.csv"
    with pytest.raises(OutOfRange, match=r"table\.csv: row 2 .*: 3,nan"):
        _write_rows(path, "a,b", [(1.0, 2.0), (3.0, math.nan)])
    assert not path.parent.exists()
    # inf is a value, not a defect: a forced solve writes it on purpose
    _write_rows(path, "a,b", [(1.0, math.inf), (True, "x")])
    assert path.read_text() == "a,b\n1,inf\n1,x\n"


def test_nan_result_exits_2_without_writing_a_csv(tmp_path, capsys,
                                                  monkeypatch):
    cfg, out = write_config(tmp_path, mu=0.055, g1=0.5, g2=0.5, kappa=0.8)
    certify = jf.certify

    def nan_certificate(*args, **kwargs):
        cert = certify(*args, **kwargs)
        cert.condition_lhs = math.nan
        return cert

    monkeypatch.setattr("jumpfolio.constrained.certify", nan_certificate)
    assert main(["certify", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "condition_violation"
    assert err["type"] == "OutOfRange"
    assert "condition_lhs,nan" in err["message"]
    assert not out.exists()


def test_solve_checks_every_file_before_writing_any(tmp_path, capsys,
                                                    monkeypatch):
    cfg, out = write_config(tmp_path)
    cli = importlib.import_module("jumpfolio.cli")
    report_rows = cli._report_rows

    def nan_rows(report):
        return report_rows(report) + [("residual", math.nan)]

    monkeypatch.setattr(cli, "_report_rows", nan_rows)
    assert main(["solve", "--config", str(cfg), "--dump-config"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["type"] == "OutOfRange"
    assert not (out / "strategy.csv").exists()
    assert not out.exists()


REF_ES = (Path(__file__).resolve().parents[1] / "bench" / "configs"
          / "ref_es_equal2.ini")


@pytest.mark.parametrize("old, new", [
    ("points = 0.03:1.0", "points = 1e300:1.0"),
    ("r = 0.02", "r = 1e300"),
    ("sigma = 0.3, 0.05", "sigma = 1e200, 0.05"),
])
def test_overflow_is_out_of_range_without_a_warning(tmp_path, capsys, old,
                                                    new):
    # finite inputs whose formulas overflow: exit 2 with one JSON line and
    # no numpy RuntimeWarning on stderr
    text = REF_ES.read_text()
    assert old in text
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(text.replace(old, new, 1))
    out = tmp_path / "out"
    for command in ("solve", "certify", "simulate", "verify"):
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--paths", "200"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert json.loads(err[0])["type"] == "OutOfRange"
        assert not out.exists()


def test_python_float_overflow_is_out_of_range(tmp_path, capsys):
    # r = 1100 overflows math.exp in the consume-all bound, not in numpy
    cfg, out = write_config(tmp_path, mu=1100.02, g1=0.3, g2=0.7, kappa=0.15)
    cfg.write_text(cfg.read_text().replace("r = 0.02", "r = 1100"))
    assert main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1])["type"] == "OutOfRange"
    assert not out.exists()


def test_uniform_density_jump_config(tmp_path):
    cfg, out = write_config(tmp_path, g1=0.5, g2=0.5, kind="none")
    text = cfg.read_text().replace(
        "kind = points\npoints = 0.04:1.0",
        "kind = uniform\nsupport = 0.0, 0.1")
    cfg.write_text(text)
    config = load_config(cfg)
    assert config.model.jumps.dists[0].z.size == GL_NODES_DEFAULT
    assert config.model.jumps.dists[0].mean == pytest.approx(0.05, abs=1e-12)
    assert main(["solve", "--config", str(cfg)]) == 0


def test_uniform_support_of_zero_width_exits_1(tmp_path, capsys):
    cfg, out = write_config(tmp_path, g1=0.5, g2=0.5, kind="none")
    cfg.write_text(cfg.read_text().replace(
        "kind = points\npoints = 0.04:1.0",
        "kind = uniform\nsupport = 0.05, 0.05"))
    assert main(["solve", "--config", str(cfg)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "parse_error"
    assert error["type"] == "ConfigError"
    assert not out.exists()


UNIFORM_JUMPS = """
[jump.1]
lambda = 0.7
kind = uniform
support = -0.1, 0.25
"""


def test_dump_config_round_trips_a_density_law(tmp_path):
    cfg, out = write_config(tmp_path, g1=0.5, g2=0.5, kind="none")
    text = cfg.read_text()
    start = text.index("[jump.1]")
    cfg.write_text(text[:start] + UNIFORM_JUMPS.lstrip()
                   + text[text.index("[utility]"):])
    assert main(["solve", "--config", str(cfg), "--dump-config"]) == 0
    a = load_config(cfg)
    b = load_config(out / "config_dump.ini")
    assert a.model.jumps.dists[0].z.size == 129
    assert np.array_equal(a.model.jumps.dists[0].z, b.model.jumps.dists[0].z)
    assert np.array_equal(a.model.jumps.dists[0].w, b.model.jumps.dists[0].w)
    assert np.array_equal(a.model.jumps.lambdas, b.model.jumps.lambdas)


def test_undumpable_law_fails_before_any_file_is_written(tmp_path, capsys,
                                                         monkeypatch):
    cfg, out = write_config(tmp_path, g1=0.5, g2=0.5, kind="none")
    config = load_config(cfg)
    law = jf.JumpDist(z=[0.04, 0.1], w=[1.0, 0.0])
    model = jf.MarketModel(config.model.grid, config.model.coeffs,
                           jf.JumpSpec(np.array([0.5]), (law,)))
    config.model = model
    monkeypatch.setattr("jumpfolio.cli.load_config",
                        lambda path, overrides=None: config)
    assert main(["solve", "--config", str(cfg), "--dump-config"]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "parse_error"
    assert err["type"] == "ConfigError"
    assert not out.exists() or not any(out.iterdir())


def test_out_of_box_gamma1_optimum_is_a_condition_violation(tmp_path,
                                                             capsys):
    # pi = 1 breaks the limit, and the ray at rho* climbs above 1 where mu
    # peaks
    cfg, out = write_config(tmp_path, kappa=0.2)
    cfg.write_text(cfg.read_text()
                   .replace("nodes = 129", "nodes = 5")
                   .replace("mu = 0.07",
                            "mu = 0.03, 0.0975, 0.165, 0.2325, 0.3")
                   .replace("lambda = 0.5", "lambda = 0.0"))
    for command in ("solve", "simulate", "verify"):
        assert main([command, "--config", str(cfg)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "condition_violation"
        assert error["type"] == "ConditionViolated"
    assert not out.exists()


def test_gamma1_box_optimum_is_solved(tmp_path):
    # the ray at rho* would put pi at 6.9, but pi = 1 meets the limit
    cfg, out = write_config(tmp_path, mu=0.25, kappa=0.9)
    cfg.write_text(cfg.read_text()
                   .replace("horizon = 1.0\nnodes = 129",
                            "horizon = 2.0\nnodes = 65")
                   .replace("sigma = 0.3", "sigma = 0.2")
                   .replace("points = 0.04:1.0", "points = 0.05:1.0"))
    assert main(["solve", "--config", str(cfg)]) == 0
    data = np.loadtxt(out / "strategy.csv", delimiter=",", skiprows=1)
    assert np.all(data[:, 2] == 1.0)
    report = dict(line.split(",") for line in
                  (out / "report.csv").read_text().splitlines()[1:])
    assert report["case"] == "box"


# gamma1 = 1 with gamma2 < 1 fits no solver
_HALF_LINEAR = jf.UtilitySpec(1.0, 0.5)
_VAR, _ES = jf.RiskSpec("var", 0.05, 0.1), jf.RiskSpec("es", 0.05, 0.1)
_PRECONDITIONS = {
    "certify_var_gamma": lambda: jf.certify_var_gamma(
        make_model(), _HALF_LINEAR, _VAR),
    "certify_es_gamma": lambda: jf.certify_es_gamma(
        make_model(), _HALF_LINEAR, _ES),
    "solve_diff_gamma": lambda: jf.solve_diff_gamma(
        make_model(), _HALF_LINEAR, _VAR),
    "solve_no_consumption": lambda: jf.solve_no_consumption(
        make_model(), _HALF_LINEAR),
    "solve_power_1d": lambda: jf.solve_power_1d(
        make_model_2d(), jf.UtilitySpec.equal(0.5)),
    "solve_power_equal": lambda: jf.solve_power_equal(
        make_model(), _HALF_LINEAR),
}


@pytest.mark.parametrize("case", ["cli_solve", *sorted(_PRECONDITIONS)])
def test_solver_precondition_is_a_condition_violation(tmp_path, capsys, case):
    if case == "cli_solve":
        cfg, out = write_config(tmp_path, g1=1.0, g2=0.5, kind="var")
        assert main(["solve", "--config", str(cfg)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "condition_violation"
        assert error["type"] == "ConditionViolated"
        assert not out.exists()
        return
    with pytest.raises(ConditionViolated):
        _PRECONDITIONS[case]()


@pytest.mark.parametrize("body", [None, "t,y1,pi1,v\n0,0,0,zero\n"],
                         ids=["missing", "non_numeric"])
def test_unreadable_strategy_file_exits_1(tmp_path, capsys, body):
    cfg, out = write_config(tmp_path)
    strategy = tmp_path / "strategy.csv"
    if body is not None:
        strategy.write_text(body)
    assert main(["verify", "--config", str(cfg),
                 "--strategy", str(strategy)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "parse_error"
    assert error["type"] == "ConfigError"
    assert not out.exists()
