"""In-memory spans around calls into the jumpfolio modules.

A traced run wraps a fixed list of public functions (TRACED below) for the
duration of the run.  Each wrapper replaces the function object in every
jumpfolio module namespace that binds it, so a call made by the benchmark
and a call made by one module into another (for example `cli.main` into
`simulate.simulate`) both open a span.  The program source is unchanged and
the wrappers are removed when the run ends.

A span records its name, start and end (ns), its parent span, the op it
belongs to, an optional work count and the exception class it raised.
Spans stay in memory until `Tracer.write` dumps them when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from contextlib import contextmanager

MODULES = ("market", "unconstrained", "constrained", "negjumps", "simulate",
           "cli")


def _n_paths_times_nodes(args, kwargs, result):
    # simulate(model, strategy, x, n_paths, seed)
    # simulate_node_stats(model, strategy, x, beta, n_paths, seed, ...)
    model = args[0]
    n_paths = result.n_paths
    return n_paths * model.grid.n


def _oracle_candidates(args, kwargs, result):
    pi_grid, v_grid = args[4], args[5]
    return len(pi_grid) * len(v_grid)


def _oracle_extra(args, kwargs, result):
    return {"n_feasible": int(result.n_feasible),
            "with_risk": args[2] is not None}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.diagnostics["iterations"])}


def _cli_command(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0]}


# (module, attribute, span name, work(args, kwargs, result) or None,
#  extra(args, kwargs, result) or None).  "Strategy.from_pi" names a
#  classmethod.
TRACED = (
    ("market", "theta_hat_path", "market.theta_hat_path", None, None),
    ("market", "K_transform_path", "market.K_transform_path", None, None),
    ("unconstrained", "Strategy.from_pi", "unconstrained.from_pi", None, None),
    ("unconstrained", "cost_function", "unconstrained.cost_function",
     None, None),
    ("unconstrained", "solve_linear", "unconstrained.solve_linear",
     None, None),
    ("unconstrained", "solve_power_1d", "unconstrained.solve_power_1d",
     None, None),
    ("unconstrained", "solve_power_equal", "unconstrained.solve_power_equal",
     None, _iterations),
    ("constrained", "slack_path", "constrained.slack_path", None, None),
    ("constrained", "solve_var_gamma1", "constrained.solve_gamma1",
     None, None),
    ("constrained", "solve_es_gamma1", "constrained.solve_gamma1",
     None, None),
    ("constrained", "certify_var_gamma", "constrained.certify", None, None),
    ("constrained", "certify_es_gamma", "constrained.certify", None, None),
    ("constrained", "solve_diff_gamma", "constrained.solve_diff_gamma",
     None, None),
    ("constrained", "solve_no_consumption",
     "constrained.solve_no_consumption", None, _iterations),
    ("negjumps", "adjusted_solve", "negjumps.adjusted_solve", None, None),
    ("negjumps", "epsilon_t", "negjumps.epsilon_t", None, None),
    ("simulate", "simulate_node_stats", "simulate.node_stats",
     _n_paths_times_nodes, None),
    ("simulate", "simulate", "simulate.ensemble", _n_paths_times_nodes, None),
    ("simulate", "estimate_cost", "simulate.estimate_cost", None, None),
    ("simulate", "grid_oracle", "simulate.grid_oracle", _oracle_candidates,
     _oracle_extra),
    ("cli", "load_config", "cli.load_config", None, None),
    ("cli", "write_strategy_csv", "cli.write_csv", None, None),
    ("cli", "main", "cli.main", None, _cli_command),
)


class Tracer:
    """Span store with a stack of open spans; one instance per traced run."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.work = []
        self.extra = []
        self.errors = []
        self._stack = []
        self.op_id = -1
        self._undo = []

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.work.append(None)
        self.extra.append(None)
        self.errors.append(None)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        except BaseException as exc:
            self.errors[idx] = type(exc).__name__
            raise
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, work=None, extra=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if work is not None:
                self.work[idx] = work(args, kwargs, result)
            if extra is not None:
                self.extra[idx] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function in every jumpfolio namespace."""
        modules = [importlib.import_module("jumpfolio")]
        modules += [importlib.import_module(f"jumpfolio.{m}") for m in MODULES]
        for mod_name, attr, name, work, extra in TRACED:
            home = importlib.import_module(f"jumpfolio.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapped = self.wrap(name, original.__func__, work, extra)
                setattr(cls, meth, classmethod(wrapped))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, work, extra)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summaries ----------------------------------------------------------

    def self_times_ns(self) -> list:
        """Duration of every span minus the durations of its children."""
        self_ns = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                self_ns[parent] -= self.ends[idx] - self.starts[idx]
        return self_ns

    def by_name(self) -> dict:
        """Per span name: call count, total and self time in ns, errors."""
        self_ns = self.self_times_ns()
        out = {}
        for idx, name in enumerate(self.names):
            row = out.setdefault(name, {"count": 0, "total_ns": 0,
                                        "self_ns": 0, "errors": 0})
            row["count"] += 1
            row["total_ns"] += self.ends[idx] - self.starts[idx]
            row["self_ns"] += self_ns[idx]
            row["errors"] += self.errors[idx] is not None
        return out

    def innermost_errors(self, error: str) -> list:
        """Indices of spans that raised `error` while no child span did."""
        raised_below = set()
        for idx, parent in enumerate(self.parents):
            if parent >= 0 and self.errors[idx] == error:
                raised_below.add(parent)
        return [i for i, e in enumerate(self.errors)
                if e == error and i not in raised_below]

    def write(self, path) -> None:
        """Dump all spans as gzip-compressed JSON, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op", "work", "extra", "error"],
                       "spans": list(zip(self.names, self.starts, self.ends,
                                         self.parents, self.ops, self.work,
                                         self.extra, self.errors))}, fh)
