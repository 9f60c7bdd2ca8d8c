"""Spans and counters for the benchmark's traced run.

The program is not modified.  `instrument` swaps each public function
or method named in `probes()` for a timing wrapper, under the name its
caller looks it up by (`qumem.cli.train`, `qumem.readout.coherent_encode`,
`qumem.reservoir.lift_unitary`, ...), and puts the originals back on
exit.  Spans are kept in memory as parallel arrays with a parent link
and the index of the workload cycle they belong to; `layer_metrics` turns
them into the per-layer numbers, and `write_spans` dumps them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span store.  Single-threaded: the workload runs its
    CLI commands one after another in one thread."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(float)
        self.request_id = -1
        self._stack = []

    def _name_index(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, func, name, before=None, after=None):
        """`func` recording one span named `name` per call.  `before`
        sees (counters, args, kwargs) and `after` (counters, args,
        result); they record counts where the work happens."""
        nid = self._name_index(name)
        stack = self._stack
        counters = self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before(counters, args, kwargs)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(time.perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        return traced


@contextmanager
def instrument(tracer, table):
    """Install the wrappers of `table` ((owner, attribute, span name,
    before, after) rows) for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, before, after in table:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# what is wrapped, and the counts taken at each boundary

def _count_inputs(counters, args, kwargs):
    inputs = args[1]
    counters["reservoir.steps"] += len(inputs)
    counters["reservoir.distinct_inputs"] += len({id(x) for x in inputs})
    counters["reservoir.mixed_steps"] += sum(
        not getattr(x, "state", x).is_pure for x in inputs)


def _count_fallback(counters, args, encoded):
    counters["reservoir.zero_fallbacks"] += bool(encoded.zero_fallback)


def _file_bytes(key, path_arg):
    def after(counters, args, result):
        counters[key] += os.path.getsize(args[path_arg])
    return after


def _text_bytes(counters, args, result):
    counters["cli.write.bytes"] += len(args[1])


def _mle_iterations(counters, args, report):
    iterations = report.meta.get("iterations", 0)
    counters["tomography.mle.iterations"] += iterations
    counters["tomography.mle.iterations_max"] = max(
        counters["tomography.mle.iterations_max"], iterations)


def _degenerate(counters, args, report):
    counters["tomography.degenerate"] += bool(report.meta.get("degenerate"))


def _poisson_counts(counters, args, trace):
    mean = trace.meta.get("mean_counts_per_rc_window")
    if mean is not None:
        counters["hysteresis.poisson_panels"] += 1
        counters["hysteresis.poisson_counts"] += mean


def _window_len(counters, args, state):
    counters["memristor.window_len"] += len(state.window)


def probes():
    """Rows for `instrument`: every public boundary of the seven layers
    that the four tasks cross, under the name its caller looks up
    (a `fock` function is wrapped where `reservoir` or `tomography`
    imported it)."""
    from qumem import cli, hysteresis, memristor, readout, reservoir
    from qumem import tomography

    rows = [
        (cli, "main", "cli.main", None, None),
        (cli, "write_json", "cli.write", None, None),
        (cli, "write_atomic", "cli.write", None, _text_bytes),
        (reservoir, "lift_unitary", "fock.lift_unitary", None, None),
        (tomography, "fidelity", "fock.fidelity", None, None),
        (reservoir.Reservoir, "__init__", "reservoir.init", None, None),
        (reservoir.Reservoir, "run_sequence", "reservoir.run_sequence",
         _count_inputs, None),
        (cli, "build_entanglement_dataset", "readout.dataset", None, None),
        (cli, "load_mnist", "readout.dataset", None, None),
        (cli, "state_features", "readout.features", None, None),
        (cli, "image_features", "readout.features", None, None),
        (cli, "train", "readout.train", None, None),
        (readout, "loss_and_gradients", "readout.sgd_step", None, None),
        (cli, "write_features_csv", "readout.write_features", None,
         _file_bytes("readout.write_features.bytes", 0)),
        (cli, "reconstruction_roundtrip", "tomography.roundtrip", None,
         _degenerate),
        (tomography, "simulate_counts", "tomography.simulate_counts",
         None, None),
        (tomography, "mle_reconstruct", "tomography.mle", None,
         _mle_iterations),
        (cli, "run_closed_loop", "hysteresis.run", None, _poisson_counts),
        (cli, "run_lpf_loop", "hysteresis.run", None, _poisson_counts),
        (hysteresis.DetectorModel, "estimate", "hysteresis.detector",
         None, None),
        (hysteresis.Trace, "write_csv", "hysteresis.trace_write", None,
         _file_bytes("hysteresis.trace_write.bytes", 1)),
        (hysteresis.Trace, "write_meta", "hysteresis.trace_write", None,
         _file_bytes("hysteresis.trace_write.bytes", 1)),
        (memristor.MemristorState, "advance", "memristor.advance", None,
         _window_len),
    ]
    for name in ("amplitude_encode", "coherent_encode"):
        rows.append((readout, name, "reservoir.encode", None,
                     _count_fallback))
    return rows


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("fock.lift_unitary.calls", "count", "lower"),
    ("fock.lift_unitary.s", "s", "lower"),
    ("fock.fidelity.s", "s", "lower"),
    ("reservoir.init.s", "s", "lower"),
    ("reservoir.run_sequence.calls", "count", "higher"),
    ("reservoir.run_sequence.self_s", "s", "lower"),
    ("reservoir.steps", "count", "higher"),
    ("reservoir.step_us", "us", "lower"),
    ("reservoir.distinct_input_ratio", "ratio", "lower"),
    ("reservoir.mixed_steps", "count", "lower"),
    ("reservoir.encode.calls", "count", "lower"),
    ("reservoir.encode.s", "s", "lower"),
    ("reservoir.zero_fallbacks", "count", "lower"),
    ("readout.dataset.s", "s", "lower"),
    ("readout.features.s", "s", "lower"),
    ("readout.train.s", "s", "lower"),
    ("readout.sgd_steps", "count", "lower"),
    ("readout.write_features.s", "s", "lower"),
    ("readout.write_features.bytes", "bytes", "lower"),
    ("tomography.simulate_counts.s", "s", "lower"),
    ("tomography.mle.calls", "count", "higher"),
    ("tomography.mle.self_s", "s", "lower"),
    ("tomography.mle.iterations_mean", "count", "lower"),
    ("tomography.mle.iterations_max", "count", "lower"),
    ("tomography.degenerate", "count", "lower"),
    ("hysteresis.run.calls", "count", "higher"),
    ("hysteresis.run.self_s", "s", "lower"),
    ("hysteresis.detector.calls", "count", "higher"),
    ("hysteresis.detector.s", "s", "lower"),
    ("hysteresis.poisson_counts_mean", "count", "higher"),
    ("hysteresis.trace_write.s", "s", "lower"),
    ("hysteresis.trace_write.bytes", "bytes", "lower"),
    ("memristor.advance.calls", "count", "higher"),
    ("memristor.advance.s", "s", "lower"),
    ("memristor.window_len_mean", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.write.s", "s", "lower"),
    ("cli.write.bytes", "bytes", "lower"),
    ("trace.overhead_fraction", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def span_totals(tracer):
    """Per span name: calls, total seconds of the outermost spans (a
    span nested in one of the same name is not counted twice), and self
    seconds (duration minus the time its direct children cover)."""
    n = len(tracer.start)
    duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
    children = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            children[p] += duration[i]
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                  "children_s": 0.0})
    for i in range(n):
        nid = tracer.name_id[i]
        entry = totals[tracer.names[nid]]
        entry["calls"] += 1
        entry["self_s"] += duration[i] - children[i]
        entry["children_s"] += children[i]
        p = tracer.parent[i]
        if p < 0 or tracer.name_id[p] != nid:
            entry["s"] += duration[i]
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, cycles, overhead_fraction):
    """Every LAYER_METRICS value, as a mean per traced workload cycle
    (ratios and means are taken over the whole run)."""
    t = span_totals(tracer)
    c = tracer.counters
    per = 1.0 / cycles

    def get(name, key):
        return t[name][key] if name in t else 0.0

    steps = c["reservoir.steps"]
    mle_calls = get("tomography.mle", "calls")
    values = {
        "fock.lift_unitary.calls": get("fock.lift_unitary", "calls") * per,
        "fock.lift_unitary.s": get("fock.lift_unitary", "s") * per,
        "fock.fidelity.s": get("fock.fidelity", "s") * per,
        "reservoir.init.s": get("reservoir.init", "s") * per,
        "reservoir.run_sequence.calls":
            get("reservoir.run_sequence", "calls") * per,
        "reservoir.run_sequence.self_s":
            get("reservoir.run_sequence", "self_s") * per,
        "reservoir.steps": steps * per,
        "reservoir.step_us":
            1e6 * _ratio(get("reservoir.run_sequence", "s"), steps),
        "reservoir.distinct_input_ratio":
            _ratio(c["reservoir.distinct_inputs"], steps),
        "reservoir.mixed_steps": c["reservoir.mixed_steps"] * per,
        "reservoir.encode.calls": get("reservoir.encode", "calls") * per,
        "reservoir.encode.s": get("reservoir.encode", "s") * per,
        "reservoir.zero_fallbacks": c["reservoir.zero_fallbacks"] * per,
        "readout.dataset.s": get("readout.dataset", "s") * per,
        "readout.features.s": get("readout.features", "s") * per,
        "readout.train.s": get("readout.train", "s") * per,
        "readout.sgd_steps": get("readout.sgd_step", "calls") * per,
        "readout.write_features.s": get("readout.write_features", "s") * per,
        "readout.write_features.bytes":
            c["readout.write_features.bytes"] * per,
        "tomography.simulate_counts.s":
            get("tomography.simulate_counts", "s") * per,
        "tomography.mle.calls": mle_calls * per,
        "tomography.mle.self_s": get("tomography.mle", "self_s") * per,
        "tomography.mle.iterations_mean":
            _ratio(c["tomography.mle.iterations"], mle_calls),
        "tomography.mle.iterations_max": c["tomography.mle.iterations_max"],
        "tomography.degenerate": c["tomography.degenerate"] * per,
        "hysteresis.run.calls": get("hysteresis.run", "calls") * per,
        "hysteresis.run.self_s": get("hysteresis.run", "self_s") * per,
        "hysteresis.detector.calls": get("hysteresis.detector", "calls") * per,
        "hysteresis.detector.s": get("hysteresis.detector", "s") * per,
        "hysteresis.poisson_counts_mean":
            _ratio(c["hysteresis.poisson_counts"],
                   c["hysteresis.poisson_panels"]),
        "hysteresis.trace_write.s": get("hysteresis.trace_write", "s") * per,
        "hysteresis.trace_write.bytes":
            c["hysteresis.trace_write.bytes"] * per,
        "memristor.advance.calls": get("memristor.advance", "calls") * per,
        "memristor.advance.s": get("memristor.advance", "s") * per,
        "memristor.window_len_mean":
            _ratio(c["memristor.window_len"], get("memristor.advance", "calls")),
        "cli.main.s": get("cli.main", "s") * per,
        "cli.write.s": get("cli.write", "s") * per,
        "cli.write.bytes": c["cli.write.bytes"] * per,
        "trace.overhead_fraction": overhead_fraction,
        "trace.coverage":
            _ratio(get("cli.main", "children_s"), get("cli.main", "s")),
    }
    return {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}


def write_spans(tracer, path):
    """One JSON object per line: id, parent, request, name, start, end
    (seconds on the perf_counter clock)."""
    with open(path, "w") as fh:
        for i in range(len(tracer.start)):
            fh.write(json.dumps({
                "id": i, "parent": tracer.parent[i],
                "request": tracer.request[i],
                "name": tracer.names[tracer.name_id[i]],
                "start": tracer.start[i], "end": tracer.end[i],
            }) + "\n")
