"""Finite in, finite out at the CLI, on configs mutated one key at a time.

Each example takes a valid config, replaces the value of one key with a
zero, negative, tiny, huge, non-finite or malformed value, and runs one
command through `cli.main` in-process at 200 paths.  Whatever the input,
the command must exit 0, 1, 2 or 3; exits 1 and 2 print exactly one JSON
line on stderr; nothing prints a traceback or a warning; and every number
the command writes is finite.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from jumpfolio.cli import main

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


@st.composite
def mutations(draw):
    """A config name, section and key, and the key's new value: its first
    or last number replaced by one of FORMS, or the whole value where it
    holds no number."""
    name, section, key = draw(st.sampled_from(KEYS))
    form = draw(st.sampled_from(FORMS))
    value = CONFIGS[name][section][key]
    spans = [m.span() for m in NUMBER.finditer(value)]
    if spans:
        lo, hi = spans[draw(st.sampled_from((0, -1)))]
        value = value[:lo] + form + value[hi:]
    else:
        value = form
    return name, section, key, value


COMMANDS = ("solve", "certify", "simulate", "verify", "compare")


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
    name, section, option, value = mutation
    config = {s: dict(v) for s, v in CONFIGS[name].items()}
    config[section][option] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "market.ini"
        path.write_text(_config_text(config))
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
