"""Closed-loop runner, metric definitions and the machine record."""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import BASELINE_DEFECTS, Inputs, classify

# Metrics of BENCHMARK.json, with their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

REFUSAL_CLASSES = ("AssumptionJViolated", "ConditionViolated",
                   "EpsilonTooLarge", "KappaOutOfRange", "ThetaHatNegative")

PER_LAYER = {
    "simulate.node_stats_ns_per_path_node": "ns",
    "simulate.ensemble_ns_per_path_node": "ns",
    "simulate.estimate_cost_ms": "ms",
    "simulate.ref_normal_ns": "ns",
    "simulate.ref_partition_ns": "ns",
    "simulate.bytes_per_path_node": "B",
    "simulate.grid_oracle_us_per_candidate": "us",
    "simulate.oracle_feasible_ratio": "ratio",
    "unconstrained.cost_function_us": "us",
    "unconstrained.from_pi_us": "us",
    "unconstrained.solve_power_equal_ms": "ms",
    "unconstrained.solve_power_1d_ms": "ms",
    "unconstrained.iterations_p50": "count",
    "unconstrained.iterations_max": "count",
    "unconstrained.no_convergence": "count",
    "constrained.certify_ms": "ms",
    "constrained.solve_gamma1_ms": "ms",
    "constrained.solve_diff_gamma_ms": "ms",
    "constrained.slack_path_us": "us",
    "constrained.refused": "count",
    **{f"constrained.refused.{name}": "count" for name in REFUSAL_CLASSES},
    "negjumps.adjusted_solve_ms": "ms",
    "negjumps.epsilon_t_us": "us",
    "market.theta_hat_path_us": "us",
    "market.K_transform_path_us": "us",
    "cli.load_config_ms": "ms",
    "cli.write_csv_ms": "ms",
    **{f"cli.main_ms.{c}": "ms" for c in ("solve", "simulate", "verify",
                                          "certify")},
    "trace.uncovered_share": "ratio",
    "trace.overhead_pct": "%",
    "trace.spans_per_op": "count",
}

SETUP_REPEATS = 3
REF_VECTOR = 10**6
REF_BETA = 0.05


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------
#
# The machine is shared.  Other tenants slow it down in spells of seconds
# to minutes, by up to a factor of two, while the program's work stays the
# same: one set of 300 solve_mix ops took 1.2 s in a quiet spell and 2.3 s
# in a busy one.  The benchmark therefore times a fixed calibration kernel,
# which does not touch jumpfolio, between the ops, and scales each op's
# latency by the ratio of the kernel's quiet-machine time to its time next
# to the op.  The scaled latency is what the op would take on the quiet
# machine.  A program change moves it as much as it moves the raw latency;
# a busy spell moves it far less.  Busy spells slow interpreted code and
# long-vector code by different factors, so each workload names the kernel
# in the style of its own work (Inputs.calibration).

CAL_EVERY_NS = 100_000_000  # op time between two calibration points
CAL_REPEATS = 2             # kernel runs per calibration point
_CAL_GRID = np.linspace(0.0, 1.0, 257)


def _interp_kernel() -> float:
    """Interpreted bookkeeping and many numpy calls on 257-node arrays, as
    in the solvers."""
    acc = {}
    for i in range(6000):
        acc[i % 61] = acc.get(i % 61, 0) + i
    total = 0.0
    for k in range(400):
        b = np.exp(_CAL_GRID * (0.0025 * k))
        total += float(np.cumsum(b)[-1]) + float(np.maximum(b, 1.2).sum())
    return total + len(acc)


def _stream_kernel() -> float:
    """Philox normals and exp over a 2^20 vector (8 MiB), as in the
    simulator."""
    x = np.random.Generator(np.random.Philox(7)).standard_normal(1 << 20)
    return float(np.exp(0.1 * x).sum())


# kernel and its time in ns on a quiet machine (2 vCPUs, Python 3.11,
# numpy 2.4)
CALIBRATION = {
    "interp": (_interp_kernel, 3.3e6),
    "stream": (_stream_kernel, 27.0e6),
}


def calibration_point(kind: str) -> list:
    """Kernel times in ns of one calibration point."""
    kernel = CALIBRATION[kind][0]
    out = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter_ns()
        kernel()
        out.append(time.perf_counter_ns() - t0)
    return out


def speed_factor(kind: str, *points: list) -> float:
    """Quiet-machine time over measured time, from calibration points."""
    return CALIBRATION[kind][1] / statistics.median(
        [t for p in points for t in p])


@dataclass
class LoopResult:
    inputs: list        # index into Inputs.ops of every op run
    latencies_ns: list
    outcomes: list
    wall_ns: int
    n_inputs: int
    speed: list         # speed_factor next to every op; 1.0 if not measured

    def per_input_ns(self) -> list:
        """Median over its repeats of each input's latency at quiet-machine
        speed."""
        scaled = [[] for _ in range(self.n_inputs)]
        for k, lat, f in zip(self.inputs, self.latencies_ns, self.speed):
            scaled[k].append(lat * f)
        return [statistics.median(v) for v in scaled]


def closed_loop(inputs: Inputs, seconds: float | None = None,
                n_ops: int | None = None, tracer: Tracer | None = None,
                calibrate: bool = False) -> LoopResult:
    """One caller; each op starts when the previous one returns.

    Cycles through the inputs' ops, once all have run, until the next op
    would end after `seconds` (judged by its last latency), or runs exactly
    `n_ops` ops.  With a tracer,
    each op is an "op" span whose op id is its position in the run.  With
    `calibrate`, a calibration point runs before the first op, after the
    last, and between ops whenever CAL_EVERY_NS of op time has passed; an
    op's speed factor comes from the points just before and after it.
    """
    ops = inputs.ops
    index, latencies, outcomes, before = [], [], [], []
    cal = inputs.calibration
    points = [calibration_point(cal)] if calibrate else []
    start = time.perf_counter_ns()
    limit = None if seconds is None else start + int(seconds * 1e9)
    since_point = 0
    last = [0] * len(ops)
    i = 0
    while True:
        k = i % len(ops)
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i >= len(ops) and time.perf_counter_ns() + last[k] >= limit:
            break
        op = ops[k]
        if tracer is not None:
            tracer.op_id = i
            with tracer.span("op"):
                t0 = time.perf_counter_ns()
                outcome = classify(op)
                t1 = time.perf_counter_ns()
        else:
            t0 = time.perf_counter_ns()
            outcome = classify(op)
            t1 = time.perf_counter_ns()
        index.append(k)
        latencies.append(t1 - t0)
        last[k] = t1 - t0
        outcomes.append(outcome)
        before.append(len(points) - 1)
        since_point += t1 - t0
        if calibrate and since_point >= CAL_EVERY_NS:
            points.append(calibration_point(cal))
            since_point = 0
        i += 1
    if calibrate and since_point:
        points.append(calibration_point(cal))
    end = time.perf_counter_ns()
    speed = ([speed_factor(cal, points[p], points[p + 1]) for p in before]
             if calibrate else [1.0] * len(index))
    return LoopResult(index, latencies, outcomes, end - start,
                      len(ops), speed)


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def outcome_counts(result: LoopResult) -> dict:
    """Attempted, failed and refused inputs, failures by detail and the
    correctness verdict.

    Counts are of distinct inputs, so they depend on the seed only and not
    on how many repeats fitted in the run.  An input fails when any of its
    repeats failed.  An input whose repeats disagree fails as "unstable";
    that, and any failure outside BASELINE_DEFECTS, makes the run incorrect.
    """
    first = {}
    unstable = set()
    for k, outcome in zip(result.inputs, result.outcomes):
        seen = first.setdefault(k, outcome)
        if (seen.status, seen.detail) != (outcome.status, outcome.detail):
            unstable.add(k)
    failures, refusals = {}, {}
    for k, outcome in first.items():
        if k in unstable:
            detail = f"unstable:{outcome.detail or outcome.status}"
            failures[detail] = failures.get(detail, 0) + 1
        elif outcome.status == "failed":
            failures[outcome.detail] = failures.get(outcome.detail, 0) + 1
        elif outcome.status == "refused":
            refusals[outcome.detail] = refusals.get(outcome.detail, 0) + 1
    return {
        "attempted": len(first),
        "failed": sum(failures.values()),
        "refused": sum(refusals.values()),
        "failures": failures,
        "refusals": refusals,
        "correct": all(d in BASELINE_DEFECTS for d in failures),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result: LoopResult, inputs: Inputs, setup_s: float) -> tuple:
    """BENCHMARK.json end-to-end metrics plus the workload's own extras.

    ops_per_s and op_ms_p50 are at quiet-machine speed (see "Machine
    speed" above), from each input's median latency over its repeats
    (LoopResult.per_input_ns): ops_per_s is the number of inputs over the
    sum of those latencies, op_ms_p50 their median.  The extras keep the
    raw figures: ops per second and the median over every op as timed,
    op_ms_p99 over every op (printed, not bounded: below 1000 ops it is
    close to the maximum), and the machine speed factor.
    """
    per_input = result.per_input_ns()
    raw_ms = sorted(x / 1e6 for x in result.latencies_ns)
    counts = outcome_counts(result)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(per_input) / (sum(per_input) / 1e9),
        "op_ms_p50": statistics.median(per_input) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    extras = {
        "fail_frac": (counts["failed"] / counts["attempted"], "ratio"),
        "op_ms_p99": (nearest_rank(raw_ms, 0.99), "ms"),
        "samples": (len(raw_ms), "count"),
        "repeats_per_input": (len(raw_ms) / len(per_input), "count"),
        "ops_per_s_raw": (len(raw_ms) / (sum(raw_ms) / 1e3), "1/s"),
        "op_ms_p50_raw": (statistics.median(raw_ms), "ms"),
        "speed_factor_p50": (statistics.median(result.speed), "ratio"),
        "timed_s": (result.wall_ns / 1e9, "s"),
    }
    if inputs.work_unit:
        work = [0] * len(per_input)
        for k, outcome in zip(result.inputs, result.outcomes):
            work[k] = outcome.work
        extras[f"{inputs.work_unit}_per_s"] = (
            sum(work) / (sum(per_input) / 1e9), "1/s")
    return metrics, extras, counts


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------

def bytes_per_path_node(beta: float) -> float:
    """Computed bytes moved per path and node by simulate_node_stats.

    Counts the whole-vector float64 passes of one node: the normal draw
    (write), the drift and diffusion updates of log wealth (read and write
    each, plus the scaled-normal temporary), exp, the partition copy plus
    one select pass, the mean, and the threshold comparison with its count;
    the tail slice adds its mean and spread over beta n values.  Cache hits
    and the sparse jump updates are ignored, so this is a computed lower
    bound, not a measurement.
    """
    f8 = 8
    draw = f8
    drift = 2 * f8
    diffusion = 2 * f8 + 3 * f8
    compensator = 2 * f8
    exp = 2 * f8
    partition = 2 * f8 + 2 * f8
    mean = f8
    below = f8 + 1 + 1
    tail = beta * 4 * f8
    return float(draw + drift + diffusion + compensator + exp + partition
                 + mean + below + tail)


def reference_floors() -> dict:
    """Philox standard_normal and np.partition on a 10^6 vector, ns per
    element, median of five; the floor under any simulator gain."""
    rng = np.random.Generator(np.random.Philox(12345))
    k = math.ceil(REF_BETA * REF_VECTOR)
    normal, partition = [], []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        x = rng.standard_normal(REF_VECTOR)
        t1 = time.perf_counter_ns()
        np.partition(x, k - 1)
        t2 = time.perf_counter_ns()
        normal.append((t1 - t0) / REF_VECTOR)
        partition.append((t2 - t1) / REF_VECTOR)
    return {"normal": statistics.median(normal),
            "partition": statistics.median(partition)}


def layer_metrics(tracer: Tracer, traced: LoopResult, untraced: LoopResult,
                  floors: dict) -> tuple:
    """Per-layer metrics of BENCHMARK.json and the span summary."""
    table = tracer.by_name()

    def mean(name: str, scale: float) -> float:
        row = table.get(name)
        return row["total_ns"] / row["count"] / scale if row else 0.0

    def spans(name: str) -> list:
        return [i for i, n in enumerate(tracer.names) if n == name]

    def per_work(name: str) -> float:
        idx = [i for i in spans(name) if tracer.work[i]]
        work = sum(tracer.work[i] for i in idx)
        busy = sum(tracer.ends[i] - tracer.starts[i] for i in idx)
        return busy / work if work else 0.0

    oracle = [i for i in spans("simulate.grid_oracle")
              if tracer.extra[i] and tracer.extra[i]["with_risk"]]
    oracle_candidates = sum(tracer.work[i] for i in oracle)
    iterations = sorted(
        tracer.extra[i]["iterations"]
        for name in ("unconstrained.solve_power_equal",
                     "constrained.solve_no_consumption")
        for i in spans(name) if tracer.extra[i])
    counts = outcome_counts(traced)
    op_ns = [tracer.ends[i] - tracer.starts[i] for i in spans("op")]
    self_ns = tracer.self_times_ns()
    op_self = sum(self_ns[i] for i in spans("op"))

    m = {
        "simulate.node_stats_ns_per_path_node": per_work("simulate.node_stats"),
        "simulate.ensemble_ns_per_path_node": per_work("simulate.ensemble"),
        "simulate.estimate_cost_ms": mean("simulate.estimate_cost", 1e6),
        "simulate.ref_normal_ns": floors["normal"],
        "simulate.ref_partition_ns": floors["partition"],
        "simulate.bytes_per_path_node": bytes_per_path_node(REF_BETA),
        "simulate.grid_oracle_us_per_candidate":
            per_work("simulate.grid_oracle") / 1e3,
        "simulate.oracle_feasible_ratio":
            (sum(tracer.extra[i]["n_feasible"] for i in oracle)
             / oracle_candidates) if oracle_candidates else 0.0,
        "unconstrained.cost_function_us":
            mean("unconstrained.cost_function", 1e3),
        "unconstrained.from_pi_us": mean("unconstrained.from_pi", 1e3),
        "unconstrained.solve_power_equal_ms":
            mean("unconstrained.solve_power_equal", 1e6),
        "unconstrained.solve_power_1d_ms":
            mean("unconstrained.solve_power_1d", 1e6),
        "unconstrained.iterations_p50":
            float(statistics.median(iterations)) if iterations else 0.0,
        "unconstrained.iterations_max":
            float(iterations[-1]) if iterations else 0.0,
        "unconstrained.no_convergence":
            float(len({tracer.ops[i] % traced.n_inputs
                       for i in tracer.innermost_errors("NoConvergence")})),
        "constrained.certify_ms": mean("constrained.certify", 1e6),
        "constrained.solve_gamma1_ms": mean("constrained.solve_gamma1", 1e6),
        "constrained.solve_diff_gamma_ms":
            mean("constrained.solve_diff_gamma", 1e6),
        "constrained.slack_path_us": mean("constrained.slack_path", 1e3),
        "constrained.refused": float(counts["refused"]),
        **{f"constrained.refused.{name}":
           float(counts["refusals"].get(name, 0)) for name in REFUSAL_CLASSES},
        "negjumps.adjusted_solve_ms": mean("negjumps.adjusted_solve", 1e6),
        "negjumps.epsilon_t_us": mean("negjumps.epsilon_t", 1e3),
        "market.theta_hat_path_us": mean("market.theta_hat_path", 1e3),
        "market.K_transform_path_us": mean("market.K_transform_path", 1e3),
        "cli.load_config_ms": mean("cli.load_config", 1e6),
        "cli.write_csv_ms": mean("cli.write_csv", 1e6),
        "trace.uncovered_share": op_self / sum(op_ns) if op_ns else 0.0,
        "trace.overhead_pct": 100.0 * (traced.wall_ns / untraced.wall_ns - 1.0),
        "trace.spans_per_op": (len(tracer.names) - len(op_ns)) / len(op_ns),
    }
    for command in ("solve", "simulate", "verify", "certify"):
        idx = [i for i in spans("cli.main")
               if tracer.extra[i] and tracer.extra[i]["command"] == command]
        m[f"cli.main_ms.{command}"] = (
            sum(tracer.ends[i] - tracer.starts[i] for i in idx) / len(idx) / 1e6
            if idx else 0.0)
    unknown = set(counts["refusals"]) - set(REFUSAL_CLASSES)
    summary = {
        "spans": len(tracer.names),
        "layers": {name: {"count": row["count"],
                          "total_ms": row["total_ns"] / 1e6,
                          "self_ms": row["self_ns"] / 1e6,
                          "errors": row["errors"]}
                   for name, row in sorted(table.items())},
        "unlisted_refusals": sorted(unknown),
    }
    return m, summary, counts


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_kib() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            out[f"L{level}"] = int(size[:-1])
    return out


def _git_commit(root: Path):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(root: Path) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "cache_kib_per_core": _cache_kib(),
        "git_commit": _git_commit(root),
        "platform": platform.platform(),
    }
