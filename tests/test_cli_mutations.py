"""Finite in, finite out at the CLI and the library, on configs mutated
one key at a time.

Each example takes a valid config, replaces the value of one key with a
zero, negative, tiny, huge, non-finite or malformed value, and runs one
command through `cli.main` in-process at 200 paths.  Whatever the input,
the command must exit 0, 1, 2 or 3; exits 1 and 2 print exactly one JSON
line on stderr; nothing prints a traceback or a warning; and every number
the command writes is finite.  The library table runs every such mutation
through `cli.load_config` and the public solvers.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from jumpfolio import adjusted_solve, certify, solve_power_equal
from jumpfolio.cli import load_config, main
from jumpfolio.errors import JumpfolioError

# small versions of the two reference configs and a consume-all market
CONFIGS = {
    "var_gamma1": {
        "grid": {"horizon": "1.0", "nodes": "33"},
        "coefficients": {"dimension": "1", "r": "0.02", "mu": "0.07",
                         "sigma": "0.3"},
        "jump.1": {"lambda": "0.5", "kind": "points", "points": "0.04:1.0"},
        "utility": {"gamma1": "1.0", "gamma2": "1.0"},
        "risk": {"kind": "var", "beta": "0.05", "kappa": "0.1",
                 "negjump_method": "off"},
        "run": {"paths": "1000", "seed": "20240811"},
    },
    "es_equal2": {
        "grid": {"horizon": "1.0", "nodes": "33"},
        "coefficients": {"dimension": "2", "r": "0.02", "mu": "0.05; 0.055",
                         "sigma": "0.3, 0.05; 0.0, 0.35"},
        "jump.1": {"lambda": "0.4", "kind": "points", "points": "0.03:1.0"},
        "jump.2": {"lambda": "0.3", "kind": "points", "points": "0.05:1.0"},
        "utility": {"gamma1": "0.5", "gamma2": "0.5"},
        "risk": {"kind": "es", "beta": "0.05", "kappa": "0.85",
                 "negjump_method": "off"},
        "run": {"paths": "1000", "seed": "20240812"},
    },
    "diff_gamma_var": {
        "grid": {"horizon": "1.0", "nodes": "33"},
        "coefficients": {"dimension": "1", "r": "0.02", "mu": "0.04",
                         "sigma": "0.3"},
        "jump.1": {"lambda": "0.5", "kind": "points", "points": "0.02:1.0"},
        "utility": {"gamma1": "0.3", "gamma2": "0.7"},
        "risk": {"kind": "var", "beta": "0.01", "kappa": "0.15",
                 "negjump_method": "off"},
        "run": {"paths": "1000", "seed": "17"},
    },
}
KEYS = sorted({(name, section, key) for name, config in CONFIGS.items()
               for section, values in config.items() for key in values})
FORMS = ("0", "-1", "1e-300", "1e300", "-1e300", "1e308", "nan", "inf",
         "1100", "0.999999", "abc", "")
NUMBER = re.compile(r"[-+]?\d+(\.\d*)?(e[-+]?\d+)?")


def mutated_value(value: str, form: str, end: int) -> str:
    """value with its first (end 0) or last (end -1) number replaced by
    form, or form itself where value holds no number."""
    spans = [m.span() for m in NUMBER.finditer(value)]
    if not spans:
        return form
    lo, hi = spans[end]
    return value[:lo] + form + value[hi:]


@st.composite
def mutations(draw):
    """A config name, section and key, and the key's new value: its first
    or last number replaced by one of FORMS, or the whole value where it
    holds no number."""
    name, section, key = draw(st.sampled_from(KEYS))
    form = draw(st.sampled_from(FORMS))
    value = CONFIGS[name][section][key]
    end = draw(st.sampled_from((0, -1))) if NUMBER.search(value) else 0
    return name, section, key, mutated_value(value, form, end)


# every mutation the strategy can draw, once each
TABLE = sorted({(name, section, key,
                 mutated_value(CONFIGS[name][section][key], form, end))
                for name, section, key in KEYS
                for form in FORMS for end in (0, -1)})


COMMANDS = ("solve", "certify", "simulate", "verify", "compare")


def _mutated_config(name: str, section: str, key: str, value: str) -> dict:
    config = {s: dict(v) for s, v in CONFIGS[name].items()}
    config[section][key] = value
    return config


def _config_text(config: dict) -> str:
    return "\n".join(f"[{section}]\n" + "".join(f"{k} = {v}\n"
                                                for k, v in values.items())
                     for section, values in config.items())


def _written_numbers(out: Path):
    """Every cell of every file the command wrote that parses as a float."""
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        for line in path.read_text().splitlines():
            for cell in line.split(","):
                try:
                    yield path.name, float(cell)
                except ValueError:
                    pass


@given(mutations(), st.sampled_from(COMMANDS))
# ghat2(T) = exp(gamma2 R_T) underflows to 0.0; an infinite horizon
@example(("diff_gamma_var", "coefficients", "r", "-1e300"), "solve")
@example(("var_gamma1", "grid", "horizon", "inf"), "solve")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_a_mutated_config_exits_with_a_contract_code(mutation, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "market.ini"
        path.write_text(_config_text(_mutated_config(*mutation)))
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--out", str(out),
                         "--paths", "200"])
        text = stderr.getvalue()
        assert code in (0, 1, 2, 3), (code, text)
        assert not caught, [str(w.message) for w in caught]
        for stream in (text, stdout.getvalue()):
            assert "Traceback" not in stream and "Warning" not in stream
        if code in (1, 2):
            lines = text.splitlines()
            assert len(lines) == 1, text
            assert {"error", "type", "message"} <= json.loads(lines[0]).keys()
        for file, number in _written_numbers(out):
            assert math.isfinite(number), (file, number)


LIBRARY_CALLS = {
    "adjusted_solve": lambda run: adjusted_solve(run.model, run.risk,
                                                 run.utility),
    "certify": lambda run: certify(run.model, run.utility, run.risk).report,
    "solve_power_equal": lambda run: solve_power_equal(run.model, run.utility),
}


def test_every_mutated_market_is_refused_or_finite_at_the_library(tmp_path):
    # each mutation of TABLE that cli.load_config accepts, through each
    # public solver with warnings as errors: a typed refusal or a finite
    # J_star, pi, y and v
    path = tmp_path / "market.ini"
    faults = []
    for mutation in TABLE:
        path.write_text(_config_text(_mutated_config(*mutation)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                run = load_config(path)
            except JumpfolioError:
                continue
            for solver, call in LIBRARY_CALLS.items():
                try:
                    report = call(run)
                except JumpfolioError:
                    continue
                except Exception as exc:  # noqa: BLE001 - recorded below
                    faults.append((*mutation, solver, repr(exc)))
                    continue
                s = report.strategy
                if not all(np.all(np.isfinite(a))
                           for a in (report.J_star, s.pi, s.y, s.v)):
                    faults.append((*mutation, solver, "not finite"))
    assert not faults, (len(faults), faults[:5])
