"""Checks of the benchmark harness itself: the reference comparison
catches a perturbed output, every per-layer metric is live on the
workload that exercises it, commands are scaled by the reference
kernel passes around them, and the benchmark refuses to run without
the program's sources."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent

# per-layer metrics that must be non-zero on each workload, by the
# task that exercises them
LIVE = {
    "reservoir": [
        # entanglement
        "fock.lift_unitary.calls", "fock.lift_unitary.s", "reservoir.init.s",
        "reservoir.run_sequence.calls", "reservoir.run_sequence.self_s",
        "reservoir.steps", "reservoir.step_us",
        "reservoir.distinct_input_ratio", "readout.dataset.s",
        "readout.features.s", "readout.train.s", "readout.sgd_steps",
        "readout.write_features.s", "readout.write_features.bytes",
        # digits
        "reservoir.mixed_steps", "reservoir.encode.calls",
        "reservoir.encode.s", "reservoir.zero_fallbacks",
    ],
    "device": [
        # tomography
        "fock.fidelity.s", "tomography.simulate_counts.s",
        "tomography.mle.calls", "tomography.mle.self_s",
        "tomography.mle.iterations_mean", "tomography.mle.iterations_max",
        "tomography.degenerate",
        # hysteresis
        "hysteresis.run.calls", "hysteresis.run.self_s",
        "hysteresis.detector.calls", "hysteresis.detector.s",
        "hysteresis.poisson_counts_mean", "hysteresis.trace_write.s",
        "hysteresis.trace_write.bytes", "memristor.advance.calls",
        "memristor.advance.s", "memristor.window_len_mean",
    ],
}
EVERYWHERE = ["cli.main.s", "cli.write.s", "cli.write.bytes",
              "trace.overhead_fraction", "trace.coverage"]


def test_every_layer_metric_is_covered():
    named = {m for names in LIVE.values() for m in names} | set(EVERYWHERE)
    assert named == {name for name, _, _ in tracing.LAYER_METRICS}


@pytest.mark.parametrize("name", sorted(LIVE))
def test_layer_metrics_live_on_their_workload(name, tmp_path):
    w = workloads.WORKLOADS[name]
    references = workloads.load_references(w)
    workloads.prepare(w, tmp_path, [0])
    tracer = tracing.Tracer()
    plain, traced = workloads.run_paired(w, tmp_path, [0], references,
                                         tracer)
    assert [c.failed for c in plain + traced] == [0, 0]
    overhead = traced[0].wall_s / plain[0].wall_s - 1.0
    metrics = tracing.layer_metrics(tracer, 1, overhead)
    dead = [m for m in LIVE[name] + EVERYWHERE if metrics[m][0] == 0]
    assert not dead
    assert metrics["trace.coverage"][0] > 0.9


def test_spans_are_written_with_parent_links(tmp_path):
    w = workloads.WORKLOADS["device"]
    workloads.prepare(w, tmp_path, [0])
    tracer = tracing.Tracer()
    workloads.run_paired(w, tmp_path, [0], None, tracer)
    path = tmp_path / "spans.jsonl"
    tracing.write_spans(tracer, path)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(spans) == len(tracer.start) > 0
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] < 0]
    assert [s["name"] for s in roots] == ["cli.main"] * len(w.tasks)
    for span in spans:
        if span["parent"] >= 0:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"]
            assert span["end"] <= parent["end"]


def test_instrumentation_is_removed(tmp_path):
    from qumem import cli
    from qumem.reservoir import Reservoir

    before = (cli.main, Reservoir.run_sequence)
    with tracing.instrument(tracing.Tracer(), tracing.probes()):
        assert cli.main is not before[0]
    assert (cli.main, Reservoir.run_sequence) == before


def test_perturbed_output_is_caught(tmp_path):
    w = workloads.TASKS["tomography"]
    reference = workloads.load_reference(w)
    entry = 4
    workloads.prepare(workloads.WORKLOADS["device"], tmp_path, [entry])
    cmd = workloads.run_command(w, tmp_path, entry, reference)
    assert cmd.failed == 0

    want = reference[str(entry)]
    payload = json.loads(cmd.outputs["tomography.json"])
    payload["states"][3]["fidelity"] += 1e-6
    bad = {"tomography.json": json.dumps(payload)}
    assert workloads.failed_ops(w, bad, want) == {3}

    payload = json.loads(cmd.outputs["tomography.json"])
    payload["mean_fidelity"] *= 1 + 1e-7
    bad = {"tomography.json": json.dumps(payload)}
    assert workloads.failed_ops(w, bad, want) == set(range(w.ops))
    assert workloads.failed_ops(w, {}, want) == set(range(w.ops))


def test_perturbed_feature_row_is_caught():
    w = workloads.TASKS["digits"]
    want = workloads.load_reference(w)["0"]
    assert workloads.failed_ops(w, dict(want), want) == set()

    lines = want["test_features.csv"].split("\n")
    cells = lines[3].split(",")
    cells[40] = repr(float(cells[40]) + 1e-8)
    lines[3] = ",".join(cells)
    bad = dict(want, **{"test_features.csv": "\n".join(lines)})
    first_test_op = w.rows["test_features.csv"]
    assert workloads.failed_ops(w, bad, want) == {first_test_op + 2}


def test_clock_scales_by_the_kernel_passes_around_a_call():
    clock = calibrate.Clock()
    result, raw, scaled = clock.timed(lambda: time.sleep(0.01) or 7)
    assert result == 7 and raw >= 0.01
    before, after = clock.kernel_s[-2:]
    assert scaled == pytest.approx(
        raw * calibrate.NOMINAL_S / (0.5 * (before + after)))
    assert clock.speed() > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "device",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
