"""The two benchmark workloads and the closed loop that runs them.

A workload is a cycle of `qumem` CLI commands, the tasks, run again and
again in this process, each cycle on another entry of a recorded input
pool.  Entry p fixes the whole input of every command of its cycle:
`--seed p`, plus, for `digits`, an IDX dataset drawn from seed p.  A
run makes whole passes over the entries it visits, in an order drawn
from the workload seed, so every run does the same work: per-command
cost is heavy-tailed on `tomography` (some entries take 10 times the
median), and a partial pass would make its figures depend on which
entries it happened to reach.  After every command its outputs are
compared with the reference recorded for the entry
(reference/<task>.json.gz, written by record.py), and every operation
they disagree on counts as failed.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import digits  # noqa: E402
import tracing  # noqa: E402

# every entry is timed at least this often; its time is the median run
MIN_PASSES = 2

# outputs must match the reference to |got - want| <= ATOL + RTOL |want|
RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class Task:
    """One kind of CLI command and how its outputs are checked."""
    name: str
    command: tuple       # CLI words before the common flags
    config: dict         # the --config file of every command
    op: str              # what one operation is
    ops: int             # operations per command
    rows: dict = field(default_factory=dict)   # CSV output -> first op
    items: dict = field(default_factory=dict)  # JSON output -> per-op list
    rate: tuple = ()     # (name, inner steps per op) of the printed rate
    quality: str = ""    # name of the printed result-quality figure
    reservoir: bool = False   # set-up builds the first Reservoir
    dataset: bool = False     # set-up writes a digit dataset per entry

    @property
    def files(self):
        return tuple(self.rows) + tuple(self.items)


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: tuple         # the Tasks of one cycle, run in this order
    pool: int            # recorded input entries
    per_pass: int        # entries one run visits, drawn by the seed

    @property
    def ops(self):
        """Operations per cycle."""
        return sum(t.ops for t in self.tasks)


ENTANGLEMENT_CONFIG = {"d_loc": 12, "copies": 100, "window": 100,
                       "shots": None, "n_train": 2, "n_test": 2}
DIGITS_CONFIG = {"encoding": "coherent", "feedback": True, "window": 12,
                 "n_train": 6, "n_test": 6}

TASKS = {
    t.name: t for t in (
        Task(
            "entanglement", ("rc", "entanglement"), ENTANGLEMENT_CONFIG,
            op="sequence", ops=4,
            rows={"train_features.csv": 0, "test_features.csv": 2},
            items={"metrics.json": None},
            rate=("reservoir_steps_per_s", ENTANGLEMENT_CONFIG["copies"]),
            quality="test_accuracy", reservoir=True),
        Task(
            "digits", ("rc", "mnist"), DIGITS_CONFIG,
            op="sequence", ops=12,
            rows={"train_features.csv": 0, "test_features.csv": 6},
            items={"metrics.json": None},
            rate=("reservoir_steps_per_s", DIGITS_CONFIG["window"]),
            quality="test_accuracy", reservoir=True, dataset=True),
        Task(
            "tomography", ("tomography",), {"shots": 1000},
            op="reconstruction", ops=16,
            items={"tomography.json": "states"},
            rate=("reconstructions_per_s", 1), quality="mean_fidelity"),
        Task(
            "hysteresis", ("hysteresis",),
            {"law": "windowed", "noise": "poisson"},
            op="panel", ops=6,
            items={"summary.json": "panels"},
            # a panel is 2 drive periods of 1000 steps at the default dt
            rate=("loop_steps_per_s", 2000), quality="lf_limit_rms"),
    )
}

WORKLOADS = {
    w.name: w for w in (
        Workload("reservoir", (TASKS["entanglement"], TASKS["digits"]),
                 pool=12, per_pass=4),
        Workload("device", (TASKS["tomography"], TASKS["hysteresis"]),
                 pool=12, per_pass=12),
    )
}


# ---------------------------------------------------------------------------
# inputs

def entry_order(workload, seed):
    """The pool entries one run visits, in the order it visits them."""
    order = list(range(workload.pool))
    random.Random(seed).shuffle(order)
    return order[: workload.per_pass]


def prepare(workload, work, entries):
    """Write the config (and digit dataset) of every task and entry
    under `work`; if a task uses the reservoir, build the first
    Reservoir, as that task would."""
    work.mkdir(parents=True, exist_ok=True)
    for task in workload.tasks:
        for entry in entries:
            config = dict(task.config)
            if task.dataset:
                config["data_dir"] = str(digits.write_dataset(
                    work / f"digits_{entry}", config["n_train"],
                    config["n_test"], seed=entry))
            (work / f"config_{task.name}_{entry}.json").write_text(
                json.dumps(config))
    first = next((t for t in workload.tasks if t.reservoir), None)
    if first is not None:
        from qumem.reservoir import Reservoir, ReservoirConfig
        Reservoir(ReservoirConfig(window=first.config["window"]))


def argv(task, work, entry, out):
    return [*task.command,
            "--config", str(work / f"config_{task.name}_{entry}.json"),
            "--out", str(out), "--seed", str(entry)]


# ---------------------------------------------------------------------------
# references

def reference_path(task):
    return REFERENCE_DIR / f"{task.name}.json.gz"


def load_reference(task):
    with gzip.open(reference_path(task), "rt") as fh:
        return json.load(fh)["entries"]


def load_references(workload):
    return {task.name: load_reference(task) for task in workload.tasks}


def save_reference(task, entries):
    REFERENCE_DIR.mkdir(exist_ok=True)
    payload = {"task": task.name, "rtol": RTOL, "atol": ATOL,
               "entries": entries}
    text = json.dumps(payload, sort_keys=True)
    with gzip.GzipFile(reference_path(task), "wb", mtime=0) as fh:
        fh.write(text.encode())


def _close(got, want):
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return got == want
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= ATOL + RTOL * abs(want)


def _same(got, want):
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return _close(got, want)


def _csv_rows(text):
    lines = text.strip().split("\n")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def failed_ops(task, outputs, reference):
    """Operation indices whose outputs disagree with the reference.
    A missing or unreadable file, or a mismatch outside the per-op
    parts of a file, fails every operation of the command."""
    every = set(range(task.ops))
    failed = set()
    for name in task.files:
        got, want = outputs.get(name), reference[name]
        if got is None:
            return every
        try:
            if name in task.rows:
                first = task.rows[name]
                got_rows, want_rows = _csv_rows(got), _csv_rows(want)
                if len(got_rows) != len(want_rows):
                    return every
                failed |= {first + i for i, (g, w)
                           in enumerate(zip(got_rows, want_rows))
                           if len(g) != len(w)
                           or not all(map(_close, g, w))}
                continue
            got, want = json.loads(got), json.loads(want)
        except ValueError:
            return every
        if not isinstance(got, dict):
            return every
        got.pop("config", None)
        want.pop("config", None)
        key = task.items[name]
        if key is not None:
            got_items, want_items = got.pop(key, None), want.pop(key)
            if (not isinstance(got_items, list)
                    or len(got_items) != len(want_items)):
                return every
            failed |= {i for i, (g, w) in enumerate(zip(got_items, want_items))
                       if not _same(g, w)}
        if not _same(got, want):
            return every
    return failed


def read_outputs(task, out):
    outputs = {}
    for name in task.files:
        path = out / name
        if path.is_file():
            outputs[name] = path.read_text()
    return outputs


# ---------------------------------------------------------------------------
# the closed loop

@dataclass
class Command:
    task: str
    entry: int
    wall_s: float
    scaled_s: float      # wall_s at the reference host speed
    failed: int
    outputs: dict


@dataclass
class Cycle:
    entry: int
    commands: list

    @property
    def wall_s(self):
        return sum(c.wall_s for c in self.commands)

    @property
    def scaled_s(self):
        return sum(c.scaled_s for c in self.commands)

    @property
    def failed(self):
        return sum(c.failed for c in self.commands)


def _call_main(words):
    from qumem import cli

    try:
        return cli.main(words)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def run_command(task, work, entry, reference=None, clock=None):
    """Run one CLI command on `entry`, time it (with `clock`, a
    calibrate.Clock, also at the reference host speed), and check it
    against `reference` (the entry's recorded outputs) when one is
    given."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    words = argv(task, work, entry, out)
    if clock is None:
        t0 = time.perf_counter()
        code = _call_main(words)
        wall = scaled = time.perf_counter() - t0
    else:
        code, wall, scaled = clock.timed(lambda: _call_main(words))
    outputs = read_outputs(task, out)
    shutil.rmtree(out, ignore_errors=True)
    if code != 0:
        print(f"{task.name}: entry {entry} exited {code}", file=sys.stderr)
        failed = task.ops
    elif reference is None:
        failed = 0
    else:
        failed = len(failed_ops(task, outputs, reference[str(entry)]))
    return Command(task.name, entry, wall, scaled, failed, outputs)


def run_cycle(workload, work, entry, references=None, clock=None):
    """Every task of `workload` on `entry`, one after another;
    `references` maps task names to their recorded entries."""
    return Cycle(entry, [
        run_command(task, work, entry,
                    references[task.name] if references else None, clock)
        for task in workload.tasks])


def run_passes(workload, work, order, references, seconds, clock=None):
    """Whole passes over the entries in `order`, at least MIN_PASSES,
    and more while the next one is expected to end within `seconds`
    (counting the clock's kernel passes)."""
    cycles = []
    t0 = time.perf_counter()
    passes = 0
    last = 0.0
    while (passes < MIN_PASSES
           or time.perf_counter() - t0 + last <= seconds):
        start = time.perf_counter()
        cycles += [run_cycle(workload, work, e, references, clock)
                   for e in order]
        last = time.perf_counter() - start
        passes += 1
    return cycles


def typical(timed, key=lambda item: item.scaled_s):
    """Each entry's median time over `timed` (cycles or commands):
    by default their time at the reference host speed, which is
    steadier than the raw wall time (see calibrate.py)."""
    times = {}
    for item in timed:
        times.setdefault(item.entry, []).append(key(item))
    return [statistics.median(t) for t in times.values()]


def run_paired(workload, work, order, references, tracer):
    """One pass over the entries in `order`, each cycle run both
    untraced and traced, alternating which goes first.  Returns the
    (untraced, traced) cycle lists."""
    plain, traced = [], []

    def traced_cycle(i, entry):
        tracer.request_id = i
        with tracing.instrument(tracer, tracing.probes()):
            return run_cycle(workload, work, entry, references)

    for i, entry in enumerate(order):
        if i % 2:
            traced.append(traced_cycle(i, entry))
        plain.append(run_cycle(workload, work, entry, references))
        if not i % 2:
            traced.append(traced_cycle(i, entry))
    return plain, traced


# ---------------------------------------------------------------------------
# what the user sees

def quality(task, commands):
    """The task's result-quality figure, averaged over its commands:
    test accuracy, mean fidelity, or the RMS distance of the
    smallest-ratio panel from the low-frequency limit."""
    values = []
    for cmd in commands:
        for name in task.items:
            if name not in cmd.outputs:
                continue
            payload = json.loads(cmd.outputs[name])
            if name == "metrics.json":
                values.append(payload["test_accuracy"])
            elif name == "tomography.json":
                values.append(payload["mean_fidelity"])
            else:
                panel = min(payload["panels"], key=lambda p: p["ratio"])
                values.append(panel["rms_vs_lf_limit"])
    return statistics.fmean(values) if values else float("nan")
