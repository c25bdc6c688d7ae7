"""Bit-identity of the CLI output files.

Each case runs one command through `cli.main` on one config and records
the sha256 of every file the command writes, or, where the command refuses
the config, the exit code and the `type` of the JSON error line.  The
configs are the two committed reference configs in `bench/configs/`, an
unconstrained equal-gamma one-asset market, the same market under a VaR
limit its certificate clears, and a distinct-gamma VaR market in the
consume-all regime.  `verify` runs with 2000 paths at the config's
seed.  The digests hold for the numpy version and CPU the suite runs on.
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
}

COMMANDS = {
    "solve": [],
    "certify": [],
    "compare": [],
    "verify": ["--paths", "2000"],
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
            "752b9b72a479303535e5bb0adada38f05fbe57511bca1e50b9e688c1e19dbccf"}},
    ("ref_es_equal2", "solve"): {"exit": 0, "files": {
        "report.csv":
            "0dd4fe58cd3c244f623eb7fa07b6344992887150f62c2c995b4c214fa90918c4",
        "strategy.csv":
            "001412bf6fb13e71ed3249633f862df79899d23e7b99444efbfdfe37940671f6"}},
    ("ref_es_equal2", "certify"): {"exit": 0, "files": {
        "report.csv":
            "49dbb5b6b9c050e9c63efc34b0741bc1eca0804d5bf32c32352402e637c882dc"}},
    ("ref_es_equal2", "compare"): {"exit": 2, "error": "ConditionViolated"},
    ("ref_es_equal2", "verify"): {"exit": 0, "files": {
        "verify.csv":
            "f1ab9721f383ad9aa4ce052a4ca057513040d0c100f0919a201dd93fa4aefb58"}},
    ("power_equal_1d", "solve"): {"exit": 0, "files": {
        "report.csv":
            "dfa4a3bc56c9aee6cb9ea35c90903067fa09da942479e5f59156078cd78c2a8f",
        "strategy.csv":
            "58e5452e292b4e2749529427f2a426b38962d5d58f0886cbcc5de6642a9a26e7"}},
    ("power_equal_1d", "certify"): {"exit": 2, "error": "ConditionViolated"},
    ("power_equal_1d", "compare"): {"exit": 0, "files": {
        "compare.csv":
            "c94298d43d4ddf66687170c5043ab92050fc17bec6933d9902cb6f6da8a08f52"}},
    ("power_equal_1d", "verify"): {"exit": 0, "files": {
        "verify.csv":
            "62550d564a374ecc02012f78967f19175515f0e5eb01139ff7c35e1925563aeb"}},
    ("power_equal_var", "solve"): {"exit": 0, "files": {
        "report.csv":
            "766dd29572b98ed677727f9e710f3b7e2f797680c85706e1dfe4120d383be7eb",
        "strategy.csv":
            "58e5452e292b4e2749529427f2a426b38962d5d58f0886cbcc5de6642a9a26e7"}},
    ("power_equal_var", "certify"): {"exit": 0, "files": {
        "report.csv":
            "dc61c8ad637ceb551627fc4d4853c7fa1b1d26c21c68857425e5872c676f398b"}},
    ("power_equal_var", "compare"): {"exit": 0, "files": {
        "compare.csv":
            "c94298d43d4ddf66687170c5043ab92050fc17bec6933d9902cb6f6da8a08f52"}},
    ("power_equal_var", "verify"): {"exit": 0, "files": {
        "verify.csv":
            "534798ee4bf46707b39b12187704e3be9e0108e17f1537dc0ad41e98527989e8"}},
    ("diff_gamma_var", "solve"): {"exit": 0, "files": {
        "report.csv":
            "097582890562e2c422ce1ab1f67f3edfa6dddb5d63c15386f04f92aa917869ed",
        "strategy.csv":
            "a2f7b9d9d769bd0ff1bdff3ad57cdd44ddb91a3c7c704e9074cbc18966c426bc"}},
    ("diff_gamma_var", "certify"): {"exit": 2, "error": "ConditionViolated"},
    ("diff_gamma_var", "compare"): {"exit": 2, "error": "ConditionViolated"},
    ("diff_gamma_var", "verify"): {"exit": 0, "files": {
        "verify.csv":
            "f1652c290b03a88377779660bf5d1c4972242597731dafc27151ceeab1a3982b"}},
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
