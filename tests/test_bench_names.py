"""Every package name the benchmark reads still resolves, and every call
it makes still binds.

The benchmark under bench/ traces the functions listed in
`bench/tracing.py::TRACED` and calls into the package through the module
aliases of `bench/workloads.py`.  A rename in the package, of a function
or of one of its parameters, would break it without failing any other
test, so both files are parsed here (not imported, so nothing under
bench/ is written), each name is looked up and each call's positional
count and keyword names are bound to today's signature.  The same holds
for the diagnostics keys the benchmark's checks read: a renamed key would
turn its check off, so each is pinned to a solve that emits it.  And the
tracer's work and extra functions read attributes off a traced call's
result, so each traced function they read is pinned to a call whose
result has them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import jumpfolio as jf

from conftest import make_model
from test_unused_imports import PACKAGE, read_names

BENCH = Path(__file__).resolve().parent.parent / "bench"

# module aliases of bench/workloads.py
ALIASES = {"jf": "jumpfolio"}
ALIASES.update({name: f"jumpfolio.{name}" for name in (
    "market", "unconstrained", "constrained", "negjumps", "simulate", "cli")})


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _traced_entries():
    """The tuple nodes of TRACED."""
    for node in ast.walk(_tree("tracing.py")):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets)):
            return node.value.elts
    raise AssertionError("bench/tracing.py defines no TRACED")


def _traced():
    """(module, attribute) of each TRACED entry."""
    return [(entry.elts[0].value, entry.elts[1].value)
            for entry in _traced_entries()]


def _traced_with_result_readers():
    """The attribute of each TRACED entry whose work or extra function
    reads its `result` argument."""
    readers = {node.name for node in ast.walk(_tree("tracing.py"))
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(n, ast.Name) and n.id == "result"
                       for n in ast.walk(ast.Module(node.body, [])))}
    return {entry.elts[1].value for entry in _traced_entries()
            if any(getattr(f, "id", None) in readers
                   for f in entry.elts[3:5])}


def _dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and parts:
        return ".".join([node.id] + parts[::-1])
    return None


def _resolve(dotted, absent=None):
    """The package object a dotted name on a module alias reads, or absent
    when some attribute on the chain is missing."""
    alias, *path = dotted.split(".")
    obj = importlib.import_module(ALIASES[alias])
    for attr in path:
        obj = getattr(obj, attr, absent)
    return obj


def _workload_calls(source):
    """(dotted name, positional count, keyword names) of each call whose
    function is a package name; starred arguments are not counted."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        dotted = _dotted(node.func) if isinstance(node, ast.Call) else None
        if dotted and dotted.split(".")[0] in ALIASES:
            calls.append((dotted,
                          sum(not isinstance(a, ast.Starred)
                              for a in node.args),
                          [k.arg for k in node.keywords if k.arg]))
    return calls


def _unbound_calls(source):
    """The calls of source that today's signatures refuse, with the
    reason."""
    refused = []
    for dotted, n_args, keywords in _workload_calls(source):
        try:
            inspect.signature(_resolve(dotted)).bind(
                *range(n_args), **dict.fromkeys(keywords))
        except TypeError as exc:
            refused.append(f"{dotted}: {exc}")
    return refused


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
    absent = object()
    missing = [name for name in reads if _resolve(name, absent) is absent]
    assert not missing, missing


def test_workload_calls_bind_to_todays_signatures():
    source = (BENCH / "workloads.py").read_text(encoding="utf-8")
    assert len(_workload_calls(source)) > 20
    refused = _unbound_calls(source)
    assert not refused, refused


def test_a_renamed_keyword_fails_to_bind():
    ok = "constrained.solve_es_gamma1(model, risk, 1.0, force=True)\n"
    assert _unbound_calls(ok) == []
    [refused] = _unbound_calls(ok.replace("force=", "forced="))
    assert refused.startswith("constrained.solve_es_gamma1:")
    assert "forced" in refused
    assert _unbound_calls("jf.UtilitySpec(0.5, 0.5, 0.5)\n")


# module aliases that only the benchmark reads, with the one function
# each names; when bench/ stops reading an alias, this fails, and the
# alias goes (ROADMAP item 10)
BENCH_ONLY_ALIASES = {
    ("constrained", "solve_var_gamma1"): "solve_gamma1",
    ("constrained", "solve_es_gamma1"): "solve_gamma1",
    ("constrained", "certify_var_gamma"): "certify",
    ("constrained", "certify_es_gamma"): "certify",
    ("unconstrained", "solve_power_1d"): "solve_power_equal",
}


@pytest.mark.parametrize("module, alias", sorted(BENCH_ONLY_ALIASES))
def test_an_alias_kept_for_the_benchmark_is_read_only_there(module, alias):
    home = importlib.import_module(f"jumpfolio.{module}")
    assert getattr(home, alias) is getattr(home,
                                           BENCH_ONLY_ALIASES[module, alias])
    assert (f"{module}.{alias}" in _workload_reads()
            or (module, alias) in _traced())
    assert not hasattr(jf, alias)
    readers = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if alias in read_names(path.read_text(encoding="utf-8"))]
    assert not readers, readers


def _is_diag(node):
    return isinstance(node, ast.Name) and node.id == "diag"


def _diagnostic_reads():
    """The string keys bench/workloads.py reads off a dict named diag, by
    subscript, `in` or `.get`."""
    keys = set()
    for node in ast.walk(_tree("workloads.py")):
        if isinstance(node, ast.Subscript) and _is_diag(node.value):
            key = node.slice
        elif isinstance(node, ast.Compare) and any(
                _is_diag(c) for c in node.comparators):
            key = node.left
        elif isinstance(node, ast.Call) and _dotted(node.func) == "diag.get":
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


# each key the benchmark reads, and a solve that emits it; the gamma = 1
# VaR solve is a directional one, as pi = 1 breaks a 10% limit
EMITTED_BY = {
    "rho_residual": lambda: jf.solve_gamma1(
        make_model(), jf.RiskSpec("var", 0.05, 0.1)),
    "foc_residual": lambda: jf.solve_power_equal(
        make_model(), jf.UtilitySpec.equal(0.5)),
    "boundary_clipped": lambda: jf.solve_power_equal(
        make_model(), jf.UtilitySpec.equal(0.5)),
    "certificate": lambda: jf.adjusted_solve(
        make_model(mu=0.047), jf.RiskSpec("var", 0.05, 0.7),
        jf.UtilitySpec.equal(0.5)),
}
# read by the benchmark's power check, emitted by no solver
NOT_EMITTED = {"eta_residual"}


def test_bench_reads_only_pinned_diagnostic_keys():
    assert _diagnostic_reads() == set(EMITTED_BY) | NOT_EMITTED


@pytest.mark.parametrize("key", sorted(EMITTED_BY))
def test_a_diagnostic_key_the_bench_reads_is_emitted(key):
    assert key in EMITTED_BY[key]().diagnostics


def _tiny_results():
    model = make_model(n=5)
    strategy = jf.Strategy.from_pi(model, np.full((5, 1), 0.5))
    utility = jf.UtilitySpec.equal(0.5)
    return {
        "simulate": lambda: jf.simulate(model, strategy, 1.0, 4, 1),
        "simulate_node_stats": lambda: jf.simulate_node_stats(
            model, strategy, 1.0, None, 4, 1),
        "grid_oracle": lambda: jf.grid_oracle(model, utility, None, 1.0,
                                              [0.0, 0.5], [0.0, 1.0]),
        "solve_power_equal": lambda: jf.solve_power_equal(model, utility),
        "solve_no_consumption": lambda: jf.solve_no_consumption(model,
                                                                utility),
    }


# what the tracer's work and extra functions read off each traced result
TRACER_READS = {
    "simulate": lambda result: result.n_paths == 4,
    "simulate_node_stats": lambda result: result.n_paths == 4,
    "grid_oracle": lambda result: result.n_feasible == 4,
    "solve_power_equal":
        lambda result: int(result.diagnostics["iterations"]) >= 0,
    "solve_no_consumption":
        lambda result: int(result.diagnostics["iterations"]) >= 0,
}


def test_tracer_reads_only_pinned_results():
    assert _traced_with_result_readers() == set(TRACER_READS)


@pytest.mark.parametrize("attr", sorted(TRACER_READS))
def test_a_result_the_tracer_reads_carries_its_attributes(attr):
    assert TRACER_READS[attr](_tiny_results()[attr]())
