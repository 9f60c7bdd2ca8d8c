"""Benchmark of the qumem CLI: one workload per run, closed loop.

    python3 bench/run.py --workload reservoir --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 0

One client runs cycles of `qumem` CLI commands one after another in
this process for --seconds, with BLAS pinned to one thread, checks
every output against the recorded reference, and prints its report.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics, which are the end-to-end metrics with --trace 0 and the
per-layer metrics of a separate traced pass with --trace 1.  See
README.md for the workloads, the metrics and which layer should move
which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_work"
NAMES = ("reservoir", "device")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", default="1",
                        help="BLAS threads of the workload process, or "
                             "'default' to leave the library's own choice")
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, also write every span here "
                             "as JSON lines")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_threads(value):
    """Must run before numpy is imported."""
    for var in THREAD_VARS:
        if value == "default":
            os.environ.pop(var, None)
        else:
            os.environ[var] = str(int(value))


def environment(seed):
    import numpy as np

    blas = {}
    try:  # numpy < 1.25 has no mode="dicts"
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def setup_probe(args):
    """One set-up from a fresh process: import, generate the inputs,
    build the first Reservoir; then clean up and exit."""
    import workloads

    w = workloads.WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK_ROOT))
    try:
        workloads.prepare(w, work, workloads.entry_order(w, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def setup_seconds(args, clock):
    """Median time of SETUP_REPEATS fresh-process set-ups, from process
    start until the workload is ready to run: (raw wall time, time at
    the reference host speed)."""
    words = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--blas-threads", args.blas_threads]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        _, wall, at_reference = clock.timed(lambda: subprocess.run(
            words, cwd=ROOT, check=True, stdout=subprocess.DEVNULL))
        raw.append(wall)
        scaled.append(at_reference)
    return statistics.median(raw), statistics.median(scaled)


def run_all(args):
    """Every workload in its own process; reports are passed through
    and the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--blas-threads", args.blas_threads],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def measure(args, work):
    import calibrate
    import tracing
    import workloads

    if not args.trace:
        clock = calibrate.Clock()
        setup_raw_s, setup_s = setup_seconds(args, clock)
    w = workloads.WORKLOADS[args.workload]
    references = workloads.load_references(w)
    entries = workloads.entry_order(w, args.seed)
    workloads.prepare(w, work, entries)
    report = []
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced = workloads.run_paired(w, work, entries, references,
                                             tracer)
        overhead = statistics.median(
            t.wall_s / p.wall_s for p, t in zip(plain, traced)) - 1.0
        metrics = tracing.layer_metrics(tracer, len(traced), overhead)
        if args.spans:
            tracing.write_spans(tracer, args.spans)
        cycles = plain + traced
    else:
        cycles = workloads.run_passes(w, work, entries, references,
                                      args.seconds, clock)
        times = workloads.typical(cycles)
        walls = workloads.typical(cycles, key=lambda c: c.wall_s)
        ops = w.ops * len(times)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (setup_s, "s"),
            "cycle_s": (statistics.median(times), "s"),
            "ops_per_s": (ops / sum(times), "1/s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        }
        report += [
            ("raw.setup_s", setup_raw_s, "s"),
            ("raw.cycle_s", statistics.median(walls), "s"),
            ("raw.ops_per_s", ops / sum(walls), "1/s"),
            ("host_speed", clock.speed(), "1"),
        ]
        for task in w.tasks:
            commands = [c for cycle in cycles for c in cycle.commands
                        if c.task == task.name]
            times = workloads.typical(commands)
            rate_name, per_op = task.rate
            report += [
                (f"{task.name}.command_s", statistics.median(times), "s"),
                (f"{task.name}.{rate_name}",
                 task.ops * per_op * len(times) / sum(times), "1/s"),
                (f"{task.name}.{task.quality}",
                 workloads.quality(task, commands), "1"),
            ]
        report.append(("timed_phase_s", sum(c.wall_s for c in cycles), "s"))
    attempted = w.ops * len(cycles)
    failed = sum(c.failed for c in cycles)
    report += [("cycles", len(cycles), "count"),
               ("ops_attempted", attempted, "count"),
               ("failed_fraction", failed / attempted, "1")]
    return metrics, report, attempted, failed


def main(argv=None):
    args = parse_args(argv)
    pin_threads(args.blas_threads)
    if not (ROOT / "src" / "qumem" / "__init__.py").is_file():
        print(f"qumem sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        metrics, report, attempted, failed = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # not empty: another run is using it
            pass
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {name:<40} {value:>14.6g} {unit}")
    for name, value, unit in report:
        print(f"{args.workload:<10} {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
