"""Benchmark of the jumpfolio library: closed-loop workloads with checked
outputs, end-to-end metrics, and a traced run for per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload mc_tail --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: mc_tail, solve_mix, oracle_grid, cli_reference (see
workloads.py).  Each run is one process with one caller and single-threaded
BLAS.  Set-up is importing jumpfolio, generating the inputs from --seed and
one warm-up op.  It is reported as the median of three import times (this
process's own and two fresh interpreters') plus the median of three runs
of the rest.

--trace 0 times the closed loop for --seconds and prints the end-to-end
metrics.  The loop cycles through a fixed list of inputs made from --seed,
so every input runs several times, and `attempted` and `failed` count
distinct inputs.  A calibration kernel timed between the ops gives the
machine's speed next to each op; ops_per_s and op_ms_p50 are scaled to a
quiet machine, and their raw values are printed beside them (see "Machine
speed" in harness.py).

--trace 1 runs the same ops twice, first untraced for half of --seconds and
then traced, and prints the per-layer metrics; the gap between the two
passes is the tracing overhead.  The spans are written to bench/results/
when the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts the inputs whose op
failed: failed output checks, NoConvergence and untyped exceptions.  `correct` is false
when a failure is not one of the baseline defects listed in workloads.py.
--workload all runs every workload in its own process, one after another,
and prints one line per metric.
"""

import os

# one caller and no helper threads: set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("mc_tail", "solve_mix", "oracle_grid", "cli_reference")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    return parser.parse_args(argv)


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")


IMPORTS = "import harness, tracing, workloads"


def import_seconds() -> float:
    """Wall time of the benchmark's imports (numpy, scipy, jumpfolio) in a
    fresh interpreter, less the interpreter's own start-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    times = []
    for code in (IMPORTS, "pass"):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t)
    return times[0] - times[1]


def run_one(args) -> int:
    if not (SRC / "jumpfolio" / "__init__.py").is_file():
        print(f"error: no jumpfolio source tree under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import harness
    import tracing
    import workloads
    imports_s = [time.perf_counter() - t0]

    RESULTS.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        setups = []
        for _ in range(harness.SETUP_REPEATS):
            if len(imports_s) < harness.SETUP_REPEATS:
                imports_s.append(import_seconds())
            t = time.perf_counter()
            inputs = workloads.make_inputs(args.workload, args.seed, args.size,
                                           work_dir)
            workloads.classify(inputs.warmup)
            setups.append(time.perf_counter() - t)
        setup_s = statistics.median(imports_s) + statistics.median(setups)

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
            "machine": harness.machine_record(ROOT),
            "inputs": {"sizes": inputs.sizes, "work_unit": inputs.work_unit,
                       "fingerprint": inputs.fingerprint,
                       **inputs.description},
            "setup": {"import_s": imports_s, "repeats_s": setups},
        }
        print("machine: " + json.dumps(record["machine"]))
        print(f"inputs: {json.dumps(inputs.sizes)} fingerprint "
              f"{inputs.fingerprint}")
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            untraced = harness.closed_loop(inputs, seconds=args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = harness.closed_loop(
                    inputs, n_ops=len(untraced.latencies_ns), tracer=tracer)
            finally:
                tracer.uninstall()
            floors = harness.reference_floors()
            metrics, summary, counts = harness.layer_metrics(
                tracer, traced, untraced, floors)
            units = harness.PER_LAYER
            record["trace_summary"] = summary
            tracer.write(RESULTS / f"{stem}-spans.json.gz")
            print(f"{args.workload}: traced {len(traced.latencies_ns)} ops "
                  f"of {counts['attempted']} inputs, "
                  f"{summary['spans']} spans; per span name: count, "
                  f"total ms, self ms")
            for name, row in summary["layers"].items():
                print(f"    {name}: {row['count']} {row['total_ms']:.3f} "
                      f"{row['self_ms']:.3f}")
            print("  (simulate.bytes_per_path_node is computed from array "
                  "sizes, not measured)")
        else:
            result = harness.closed_loop(inputs, seconds=args.seconds,
                                         calibrate=True)
            metrics, extras, counts = harness.end_to_end(result, inputs,
                                                         setup_s)
            floors = harness.reference_floors()   # after peak_rss_mb is read
            units = harness.END_TO_END
            record["extras"] = {k: {"value": v, "unit": u}
                                for k, (v, u) in extras.items()}
            print(f"{args.workload}: {counts['attempted']} inputs, "
                  f"{len(result.latencies_ns)} ops in "
                  f"{extras['timed_s'][0]:.3f} s")
            for name, (value, unit) in extras.items():
                print(f"  {name} = {value:.6g} {unit}")
        _print_metrics(metrics, units)
        print(f"  failed = {counts['failed']} of {counts['attempted']} "
              f"{json.dumps(counts['failures'])}")
        print(f"  refused = {counts['refused']} "
              f"{json.dumps(counts['refusals'])}")
        # the same kernels in every run show how fast the machine ran, so a
        # slow run can be told apart from a slow program
        print(f"  machine speed: Philox normal {floors['normal']:.4g} ns, "
              f"partition {floors['partition']:.4g} ns per element")
        record["reference_floors_ns"] = floors
        record["counts"] = counts
        record["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in metrics.items()}
        with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({
        "correct": counts["correct"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        summary[workload] = json.loads(lines[-1])
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"all-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
