"""Bit-identity of the CLI output files.

Each case runs one command through `cli.main` on one config and records
the sha256 of every file the command writes, or, where the command refuses
the config, the exit code and the `type` of the JSON error line.  The
configs are the two committed reference configs in `bench/configs/`, an
unconstrained equal-gamma one-asset market, the same market under a VaR
limit its certificate clears, a distinct-gamma VaR market in the
consume-all regime, and a linear-utility ES market whose box optimum
breaks the limit, so the answer is the ray at the binding radius.  `verify`
and `simulate` run with 2000 paths at the config's seed.  The digests hold
for the numpy version and CPU the suite runs on.
"""

import hashlib
import json
from pathlib import Path

import pytest

from jumpfolio.cli import main

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"

MARKET = """
[grid]
horizon = 1.0
nodes = {nodes}

[coefficients]
dimension = 1
r = 0.02
mu = {mu}
sigma = 0.3

[jump.1]
lambda = 0.5
kind = points
points = {points}

[utility]
gamma1 = {g1}
gamma2 = {g2}

[risk]
{risk}

[run]
paths = 5000
seed = 17
"""

INLINE_CONFIGS = {
    "power_equal_1d": MARKET.format(
        nodes=129, mu=0.055, points="0.03:0.6, 0.1:0.4", g1=0.5, g2=0.5,
        risk="kind = none"),
    "power_equal_var": MARKET.format(
        nodes=129, mu=0.055, points="0.03:0.6, 0.1:0.4", g1=0.5, g2=0.5,
        risk="kind = var\nbeta = 0.05\nkappa = 0.7\nnegjump_method = off"),
    "diff_gamma_var": MARKET.format(
        nodes=257, mu=0.04, points="0.02:1.0", g1=0.3, g2=0.7,
        risk="kind = var\nbeta = 0.01\nkappa = 0.15\nnegjump_method = off"),
    "es_gamma1": MARKET.format(
        nodes=129, mu=0.07, points="0.03:0.6, 0.1:0.4", g1=1.0, g2=1.0,
        risk="kind = es\nbeta = 0.05\nkappa = 0.1"),
}

COMMANDS = {
    "solve": [],
    "certify": [],
    "compare": [],
    "verify": ["--paths", "2000"],
    "simulate": ["--paths", "2000"],
}

GOLDEN = {
    ("ref_var_gamma1", "solve"): {"exit": 0, "files": {
        "report.csv":
            "8d68c7ad3d719250d6ae425dceff23ec79abe759c19e101aa8fd33da034d6cdc",
        "strategy.csv":
            "54dcb648c33097955c6047c2a2e6d3179e5fd4fee35d0209feda07e1d2506a73"}},
    ("ref_var_gamma1", "certify"): {"exit": 2, "error": "ConditionViolated"},
    ("ref_var_gamma1", "compare"): {"exit": 2, "error": "ConditionViolated"},
    ("ref_var_gamma1", "verify"): {"exit": 0, "files": {
        "verify.csv":
            "4977f909b0deb969cf01d24d5702a770b2e8af439dde9b53e5ad47610826266b"}},
    ("ref_var_gamma1", "simulate"): {"exit": 0, "files": {
        "ensemble.csv":
            "beb53c704777a3a782bee98c6e9ff957a3ee37acd803cc0cbbcc8dc61c3bae35"}},
    ("ref_es_equal2", "solve"): {"exit": 0, "files": {
        "report.csv":
            "8341782ebf0d5ba71ff001e07ad583662ad79624f3417eb5b73b715c25cc24d6",
        "strategy.csv":
            "ce274bdfa4fb683b8f4e800d19cfa5960554418d0c6008e35f2dfc81d446ca02"}},
    ("ref_es_equal2", "certify"): {"exit": 0, "files": {
        "report.csv":
            "0d8ec50130466210cf9012dbb1200b5c42e44c345e0fe4e17e5ade2bb8147b26"}},
    ("ref_es_equal2", "compare"): {"exit": 2, "error": "ConditionViolated"},
    ("ref_es_equal2", "verify"): {"exit": 0, "files": {
        "verify.csv":
            "0634744645762fd9224b4171e2d10a553a2bde9229e9c3955cbc3cc10a54b46e"}},
    ("ref_es_equal2", "simulate"): {"exit": 0, "files": {
        "ensemble.csv":
            "e5da8d03b4def095cc313e9e303b2929e1b5eccb83818eebbd9ca58c73fa75b0"}},
    ("power_equal_1d", "solve"): {"exit": 0, "files": {
        "report.csv":
            "63f41abd09791ea30d8c425023d3153d9992e94dbb914da8b2c84fb424c759a7",
        "strategy.csv":
            "47cd4ad62a60b8b69c7bd0fab12ce3e73a9e8184e3918cd9b622408e74da20b0"}},
    ("power_equal_1d", "certify"): {"exit": 2, "error": "ConditionViolated"},
    ("power_equal_1d", "compare"): {"exit": 0, "files": {
        "compare.csv":
            "4c69c1fa62b4abc31de3b70083be46e8bfa899fb0ad93a5c9671a091f41161e7"}},
    ("power_equal_1d", "verify"): {"exit": 0, "files": {
        "verify.csv":
            "a5e40db1b1c97fcf7092cc4d4b95b94a7e9e6eba7a60cccb3b63cffbc0ee8b58"}},
    ("power_equal_1d", "simulate"): {"exit": 0, "files": {
        "ensemble.csv":
            "ce695a9e900dbabf9d4be429fc36fb7ae6e5214f956c1e9c1d44ae10d05ef15e"}},
    ("power_equal_var", "solve"): {"exit": 0, "files": {
        "report.csv":
            "5657faaeb2819071a2ff8df81e83c007cd681ff96244ccad80ff15d8238a3d81",
        "strategy.csv":
            "47cd4ad62a60b8b69c7bd0fab12ce3e73a9e8184e3918cd9b622408e74da20b0"}},
    ("power_equal_var", "certify"): {"exit": 0, "files": {
        "report.csv":
            "d5f5714037419529a00b049eb8b9db12886733d17845e785ae641738b24834df"}},
    ("power_equal_var", "compare"): {"exit": 0, "files": {
        "compare.csv":
            "4c69c1fa62b4abc31de3b70083be46e8bfa899fb0ad93a5c9671a091f41161e7"}},
    ("power_equal_var", "verify"): {"exit": 0, "files": {
        "verify.csv":
            "073a599f8c36c87a38b0b28cb74b1637f96dfd8d6e33e9153a526d3d14db9d39"}},
    ("power_equal_var", "simulate"): {"exit": 0, "files": {
        "ensemble.csv":
            "ce695a9e900dbabf9d4be429fc36fb7ae6e5214f956c1e9c1d44ae10d05ef15e"}},
    ("diff_gamma_var", "solve"): {"exit": 0, "files": {
        "report.csv":
            "bb2b9237cdc8e34866e4ff37933ecbb3f5bb9683fafc96acb1bbddf9e006cd6b",
        "strategy.csv":
            "33392da5c59356db8af8bba27b29e0724fb65a6b37551c03ba0bd74e74688e6a"}},
    ("diff_gamma_var", "certify"): {"exit": 2, "error": "ConditionViolated"},
    ("diff_gamma_var", "compare"): {"exit": 2, "error": "ConditionViolated"},
    ("diff_gamma_var", "verify"): {"exit": 0, "files": {
        "verify.csv":
            "96cfe4113a94677dc9753e2169f117cd8dbe89950f315810c2d286c37932675c"}},
    ("diff_gamma_var", "simulate"): {"exit": 0, "files": {
        "ensemble.csv":
            "56137ce0ca7819548b594908ebbae8a052d143f5fd29b42d9a171d5666599a18"}},
    ("es_gamma1", "solve"): {"exit": 0, "files": {
        "report.csv":
            "c46f41e847569af3a69fdd5400c1409666f5bee6f290e02bba20c6e4e73cb602",
        "strategy.csv":
            "98a3ebd9231f30cb6d9c64893bbd34202ce82e64c3562fdd2e626928a11aad7d"}},
    ("es_gamma1", "certify"): {"exit": 2, "error": "ConditionViolated"},
    ("es_gamma1", "compare"): {"exit": 2, "error": "ConditionViolated"},
    ("es_gamma1", "verify"): {"exit": 0, "files": {
        "verify.csv":
            "aa389ffeb0fca9e1a780979c0eb84fd38c94d35ba4e2bfd65a05b0329f31c3b6"}},
    ("es_gamma1", "simulate"): {"exit": 0, "files": {
        "ensemble.csv":
            "1dd3e7594d5914ed3df60945d9945d8a46d5b38dd1953924e79eed72700a6966"}},
}


def _config_path(name: str, tmp_path: Path) -> Path:
    if name in INLINE_CONFIGS:
        path = tmp_path / f"{name}.ini"
        path.write_text(INLINE_CONFIGS[name], encoding="utf-8")
        return path
    return BENCH_CONFIGS / f"{name}.ini"


def run_case(config: str, command: str, tmp_path: Path, capsys) -> dict:
    """Run one command and return its exit code and its file digests, or
    the error type when it refuses."""
    out = tmp_path / "out"
    code = main([command, "--config", str(_config_path(config, tmp_path)),
                 "--out", str(out), *COMMANDS[command]])
    err = capsys.readouterr().err.strip().splitlines()
    if code in (1, 2):
        return {"exit": code, "error": json.loads(err[-1])["type"]}
    files = sorted(out.iterdir()) if out.exists() else []
    return {"exit": code,
            "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                      for f in files}}


CASES = [(config, command)
         for config in ("ref_var_gamma1", "ref_es_equal2", *INLINE_CONFIGS)
         for command in COMMANDS]


@pytest.mark.parametrize("config, command", CASES)
def test_cli_output_is_bit_identical(config, command, tmp_path, capsys):
    assert run_case(config, command, tmp_path, capsys) == GOLDEN[config, command]
