import json

import numpy as np
import pytest

import jumpfolio as jf
from jumpfolio.cli import dump_config, load_config, main

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
    assert float(report["rho_bar"]) == radius.rho_bar


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


def test_compare_command_schema_and_orderings(tmp_path):
    cfg, out = write_config(tmp_path, mu=0.055, lam=0.8, g1=0.5, g2=0.5,
                            kind="none")
    assert main(["compare", "--config", str(cfg)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "t,pi_jump,pi_diffusion,v_jump,v_diffusion"
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


def test_uniform_density_jump_config(tmp_path):
    cfg, out = write_config(tmp_path, g1=0.5, g2=0.5, kind="none")
    text = cfg.read_text().replace(
        "kind = points\npoints = 0.04:1.0",
        "kind = uniform\nsupport = 0.0, 0.1")
    cfg.write_text(text)
    config = load_config(cfg)
    assert config.model.jumps.dists[0].kind == "density"
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
    law = jf.JumpDist(z=[0.04, 0.1], w=[1.0, 0.0], kind="density")
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
