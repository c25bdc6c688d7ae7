"""Every package name the benchmark reads still resolves.

The benchmark under bench/ traces the functions listed in
`bench/tracing.py::TRACED` and calls into the package through the module
aliases of `bench/workloads.py`.  A rename in the package would break it
without failing any other test, so both files are parsed here (not
imported, so nothing under bench/ is written) and each name is looked up.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# module aliases of bench/workloads.py
ALIASES = {"jf": "jumpfolio"}
ALIASES.update({name: f"jumpfolio.{name}" for name in (
    "market", "unconstrained", "constrained", "negjumps", "simulate", "cli")})


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _traced():
    """(module, attribute) of each TRACED entry."""
    for node in ast.walk(_tree("tracing.py")):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets)):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("bench/tracing.py defines no TRACED")


def _dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and parts:
        return ".".join([node.id] + parts[::-1])
    return None


def _workload_reads():
    """Every dotted name read from a package alias in bench/workloads.py;
    a chain a.b.c also yields its prefix a.b."""
    names = set()
    for node in ast.walk(_tree("workloads.py")):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        if dotted and dotted.split(".")[0] in ALIASES:
            names.add(dotted)
    return sorted(names)


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_name_resolves(module, attr):
    home = importlib.import_module(f"jumpfolio.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer rewraps the classmethod found in the class dict
        assert isinstance(getattr(home, cls_name).__dict__[meth], classmethod)
    else:
        assert callable(getattr(home, attr))


def test_workloads_read_names_that_resolve():
    reads = _workload_reads()
    assert "unconstrained.Strategy.from_pi" in reads
    absent, missing = object(), []
    for dotted in reads:
        alias, *path = dotted.split(".")
        obj = importlib.import_module(ALIASES[alias])
        for attr in path:
            obj = getattr(obj, attr, absent)
        if obj is absent:
            missing.append(dotted)
    assert not missing, missing
