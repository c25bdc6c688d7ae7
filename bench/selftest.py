"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit (and its own extras: fail_frac, path_nodes_per_s, candidates_per_s),
that the same seed gives the same inputs and another seed other inputs,
that a ROADMAP item-2 market counts in fail_frac and in
unconstrained.no_convergence, and that the benchmark exits non-zero
without a result when the jumpfolio sources are missing.  Exits 1 on the
first failed group of checks.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import jumpfolio as jf  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXTRAS = {"mc_tail": ("path_nodes_per_s", "1/s"),
          "oracle_grid": ("candidates_per_s", "1/s")}
PROBLEMS = []


def check(ok: bool, message: str) -> None:
    if not ok:
        PROBLEMS.append(message)


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def test_metrics_printed(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            where = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{where}: exit {proc.returncode}: "
                  f"{proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            check(set(result["metrics"]) == set(wanted),
                  f"{where}: metric names differ from BENCHMARK.json")
            printed = "\n".join(lines[:-1])
            for name, unit in wanted.items():
                got = result["metrics"].get(name, {})
                check(got.get("unit") == unit, f"{where}: {name} unit")
                check(isinstance(got.get("value"), (int, float))
                      and math.isfinite(got["value"]),
                      f"{where}: {name} value {got.get('value')}")
                check(re.search(rf"^  {re.escape(name)} = \S+ "
                                rf"{re.escape(unit)}$", printed, re.M),
                      f"{where}: {name} not printed with its unit")
            if trace == 0:
                extras = [("fail_frac", "ratio")]
                if workload in EXTRAS:
                    extras.append(EXTRAS[workload])
                for name, unit in extras:
                    check(re.search(rf"^  {name} = \S+ {re.escape(unit)}$",
                                    printed, re.M),
                          f"{where}: {name} not printed with its unit")


def test_seed_changes_inputs() -> None:
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as tmp:
        for workload in workloads.WORKLOADS:
            a = workloads.make_inputs(workload, 1, "tiny", Path(tmp))
            b = workloads.make_inputs(workload, 1, "tiny", Path(tmp))
            c = workloads.make_inputs(workload, 2, "tiny", Path(tmp))
            check(a.fingerprint == b.fingerprint,
                  f"{workload}: same seed, different inputs")
            check(a.fingerprint != c.fingerprint,
                  f"{workload}: seeds 1 and 2 give the same inputs")


def test_item2_market_counts_as_failure() -> None:
    # mu = 0.05, sigma = 0.10, lambda = 1, xi = 0.3, gamma = 0.5, r = 0.02
    model = workloads._model(17, 0.02, [0.05], [[0.10]], [1.0],
                             [([0.3], [1.0])])
    spec = workloads.SolveSpec("power_equal", model, jf.UtilitySpec.equal(0.5),
                               None)
    op = workloads.solve_op(spec)
    inputs = workloads.Inputs(ops=[op], warmup=op, work_unit=None,
                              sizes={}, fingerprint="")
    untraced = harness.closed_loop(inputs, n_ops=1)
    _, extras, counts = harness.end_to_end(untraced, inputs, 0.0)
    check(counts["failed"] == 1 and extras["fail_frac"][0] == 1.0,
          f"item-2 market not counted in fail_frac: {counts}")
    check(counts["correct"], "item-2 NoConvergence is not a baseline defect")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = harness.closed_loop(inputs, n_ops=1, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics, _, _ = harness.layer_metrics(
        tracer, traced, untraced, {"normal": 1.0, "partition": 1.0})
    check(metrics["unconstrained.no_convergence"] == 1.0,
          "item-2 market not counted in unconstrained.no_convergence: "
          f"{metrics['unconstrained.no_convergence']}")
    check(jf.solve_power_equal.__name__ == "solve_power_equal"
          and not hasattr(jf.solve_power_equal, "__wrapped__"),
          "tracer left a wrapper installed")


def test_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run_bench("solve_mix", 0, cwd=Path(tmp))
        out = proc.stdout.strip().splitlines()
        check(proc.returncode != 0, "ran without the jumpfolio sources")
        check(not out or not out[-1].startswith("{"),
              "printed a result without the jumpfolio sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]}
          == harness.END_TO_END, "BENCHMARK.json end_to_end != harness")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == harness.PER_LAYER, "BENCHMARK.json per_layer != harness")
    (BENCH / "results").mkdir(exist_ok=True)
    for test in (test_seed_changes_inputs, test_item2_market_counts_as_failure,
                 test_fails_without_sources, lambda: test_metrics_printed(spec)):
        test()
        if PROBLEMS:
            print("\n".join(PROBLEMS))
            return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
