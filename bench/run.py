"""Benchmark of the dampwave solvers: one workload per run, one JSON line of results.

Usage (from the repository root):

    python3 bench/run.py --workload paper-repro --seed 1 --seconds 15 --trace 0

The bench imports dampwave from ``src/`` next to this directory and runs the
workload's CLI commands in-process through ``dampwave.cli.run_command``.

With ``--trace 0`` it reports the end-to-end metrics:

* setup_s: median over repetitions of the summed set-up time (problem load,
  ``build_grid``, ``assemble_system``, ``make_stepper``) of the workload's
  solve configurations;
* peak_mb: peak tracemalloc allocation during one pass over the commands;
* run_s: median time of one pass over the commands, repeated for
  ``--seconds``;
* passed_frac: share of command runs whose exit code and output checks passed;
* max_error.fd11 / .fd22 / .oifd: max abs error at t_final read from the
  workload's output files.

run_s and setup_s are wall times scaled by the machine's current speed, as
measured by ``calibrate`` around every timed interval.

With ``--trace 1`` it alternates untraced and traced passes for ``--seconds``
and reports the per-layer metrics of ``tracer.METRICS`` (counts from one
pass, times as medians over the traced passes) plus ``trace.overhead``, the
traced median ``run_s`` over the untraced one.

Every run writes ``bench/out/<workload>-seed<n>-trace<t>-<size>/result.json``
with the machine, seed, samples, failures and, for traced runs, the spans.
The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
import warnings
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_mb": "MB",
    "passed_frac": "1",
    "max_error.fd11": "1",
    "max_error.fd22": "1",
    "max_error.oifd": "1",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny shrinks every solve for the smoke test")
    return p.parse_args(argv)


def import_package():
    """Import dampwave from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "dampwave", "__init__.py")
    if not os.path.isfile(init):
        print(f"bench: {init} not found; run from a dampwave checkout", file=sys.stderr)
        return None
    sys.path.insert(0, SRC)
    import dampwave
    import dampwave.cli  # noqa: F401  (not imported by the package itself)

    if os.path.dirname(os.path.abspath(dampwave.__file__)) != os.path.dirname(init):
        print(f"bench: imported dampwave from {dampwave.__file__}, not {SRC}", file=sys.stderr)
        return None
    return dampwave


def machine_info():
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# The hosts this benchmark runs on are shared, and their speed drifts by up
# to 1.7x over tens of seconds: raw wall-time medians of 20-second runs
# spread by up to 28% between runs. Every timed interval is therefore scaled
# by the speed of a fixed kernel timed right before and right after it,
# scaled = wall * CAL_REFERENCE_S / mean(kernel times). The kernel is bench
# code that no change to dampwave alters. Raw wall times are kept in the
# result file.
CAL_REFERENCE_S = 0.02  # about the kernel's median on the 2-vCPU Xeon the bench was defined on


def _cal_point(x):
    return math.sin(x) * 0.5 + x


def calibrate():
    """Seconds one run of the calibration kernel (Python calls, small numpy ops) takes now."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(60_000):
        acc += _cal_point(i * 1e-3)
    v = np.arange(6400.0)
    for _ in range(600):
        v = v * 1.0001 + 1.0
    return perf_counter() - t0


def scaled(wall, before, after):
    return wall * CAL_REFERENCE_S / ((before + after) / 2)


class Runner:
    """Runs a workload's commands, checks each run and keeps the tallies."""

    def __init__(self, dampwave, workload):
        self.run_command = dampwave.cli.run_command
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.warnings = 0

    def run(self, command, tracer=None):
        """Run one command; return its wall time in seconds."""
        for path in command.outputs:
            if os.path.exists(path):
                os.remove(path)
        out = io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            t0 = perf_counter()
            try:
                if tracer is None:
                    code = self.run_command(command.argv)
                else:
                    code = tracer.call("cli", self.run_command, (command.argv,), {})
            except Exception:  # a crash is a failed command, not a failed bench
                error = traceback.format_exc()
            elapsed = perf_counter() - t0
        self.warnings += len(caught)
        self.attempted += 1
        if error is not None:
            problems = [f"{command.argv[0]} raised:\n{error}"]
        elif code != 0:  # every benchmark command is expected to succeed
            problems = [f"{command.argv[0]} exited {code}, expected 0"]
        else:
            try:
                problems = command.check(out.getvalue())
            except (OSError, ValueError, IndexError, KeyError) as exc:
                problems = [f"{command.argv[0]}: output check raised {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed

    def timed_pass(self, tracer=None):
        """Run every command once; return the pass's scaled and wall seconds."""
        before = calibrate()
        scaled_s = wall_s = 0.0
        for cmd in self.workload.commands:
            elapsed = self.run(cmd, tracer)
            after = calibrate()
            scaled_s += scaled(elapsed, before, after)
            wall_s += elapsed
            before = after
        return scaled_s, wall_s


def measure_setup(dampwave, workload, reps):
    """Summed set-up seconds (scaled) of the workload's solve configurations, per repetition."""
    samples = []
    before = calibrate()
    for _ in range(reps):
        total = 0.0
        for case in workload.setup_cases:
            config = dampwave.config_for(case.scheme, case.k, case.pade)
            t0 = perf_counter()
            problem = case.load()
            a, b = problem.domain
            grid = dampwave.build_grid(a, b, case.N)
            op = dampwave.assemble_system(grid, problem)
            dampwave.make_stepper(config, op, grid, problem)
            total += perf_counter() - t0
        after = calibrate()
        samples.append(scaled(total, before, after))
        before = after
    return samples


def measure_peak(runner):
    # argparse leaves reference cycles behind on every command; collecting
    # first makes the pass start from the same collector state every run, so
    # the peak does not depend on when earlier work last triggered a collection.
    gc.collect()
    tracemalloc.start()
    try:
        for cmd in runner.workload.commands:
            runner.run(cmd)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_end_to_end(dampwave, workload, runner, seconds):
    measure_setup(dampwave, workload, 1)  # warm-up
    peak = measure_peak(runner)  # also warms up the commands
    # Set-up repetitions are spread between the timed passes so that both
    # medians sample the whole run, not one stretch of it.
    samples, wall, setup = [], [], []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        scaled_s, wall_s = runner.timed_pass()
        samples.append(scaled_s)
        wall.append(wall_s)
        setup.extend(measure_setup(dampwave, workload, workload.setup_reps))
    for guard in workload.guards:
        runner.run(guard)
    metrics = {
        "run_s": statistics.median(samples),
        "setup_s": statistics.median(setup),
        "peak_mb": peak / 1e6,
        "passed_frac": 1.0 - runner.failed / runner.attempted,
    }
    for scheme, read in workload.errors.items():
        try:
            metrics[f"max_error.{scheme}"] = read()
        except (OSError, ValueError, IndexError) as exc:
            # the output check of the command that wrote the file has failed too
            runner.problems.append(f"max_error.{scheme}: {exc!r}")
            metrics[f"max_error.{scheme}"] = None
    details = {"run_s_samples": samples, "wall_run_s_samples": wall,
               "setup_s_samples": setup, "peak_bytes": peak}
    return metrics, details


def run_traced(dampwave, workload, runner, seconds, spans_path):
    tracer = Tracer(dampwave)
    runner.timed_pass()  # warm-up
    untraced, traced, passes = [], [], []
    first_spans = None
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        untraced.append(runner.timed_pass()[0])
        tracer.reset()
        tracer.record_spans = first_spans is None
        tracer.install()
        try:
            traced.append(runner.timed_pass(tracer)[0])
        finally:
            tracer.remove()
        if first_spans is None:
            first_spans = tracer.spans
        passes.append(tracer.layer_values(tracer.counters()))

    metrics = {}
    for name, (_bucket, _key, unit) in METRICS.items():
        values = [p[name] for p in passes]
        if values[0] is None:
            metrics[name] = None
        elif unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.overhead"] = overhead
    counts_repeat = all(
        p[n] == passes[0][n] for p in passes for n, spec in METRICS.items() if spec[2] != "s")
    tracer.spans = first_spans
    tracer.write_spans(spans_path)
    details = {
        "untraced_run_s_samples": untraced,
        "traced_run_s_samples": traced,
        "tracing_overhead": overhead,
        "counts_repeat": counts_repeat,
        "missing_patch_points": sorted(tracer.missing),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "span_count": len(first_spans),
    }
    units = {name: spec[2] for name, spec in METRICS.items()}
    units["trace.overhead"] = "ratio"
    return metrics, units, details


def main(argv=None):
    args = parse_args(argv)
    dampwave = import_package()
    if dampwave is None:
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir = os.path.join(HERE, "out", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workloads.build(args.workload, workdir, args.seed, args.size)
    runner = Runner(dampwave, workload)
    started = time.time()
    if args.trace == 0:
        metrics, details = run_end_to_end(dampwave, workload, runner, args.seconds)
        units = END_TO_END_UNITS
    else:
        metrics, units, details = run_traced(
            dampwave, workload, runner, args.seconds, os.path.join(workdir, "spans.jsonl"))

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "wall_s": time.time() - started,
        "machine": machine_info(),
        "workload_notes": workload.notes,
        "commands": [cmd.argv for cmd in workload.commands],
        "guards": [cmd.argv for cmd in workload.guards],
        "tracing_overhead": details.get("tracing_overhead"),
        "warnings_captured": runner.warnings,
        "problems": runner.problems,
        "details": details,
        "result": result,
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in runner.problems:
        print(f"check failed: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if "run_s_samples" in details:
        print(f"run_s is the median of {len(details['run_s_samples'])} passes")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
