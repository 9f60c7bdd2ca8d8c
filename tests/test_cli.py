import json
import os
import re
import stat
import struct
import time

import numpy as np
import pytest

from qumem import _atomic, cli
from qumem.cli import (
    COMMANDS,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    HYSTERESIS_SCHEMA,
    ConfigError,
    build_parser,
    main,
    resolve_config,
)
from qumem.hysteresis import run_closed_loop


def run_cli(*args):
    """main's return value, or the code argparse exits with."""
    try:
        return main(list(args))
    except SystemExit as exc:
        return exc.code


def fast_hysteresis_config(tmp_path, **extra):
    config = {
        "T_osc": 2.0,
        "ratios": [0.05, 1.0],
        "n_periods": 2,
        "dt": 0.002,
    }
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_resolve_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"T_osc": 5.0, "bogus": 1}))
    with pytest.raises(ConfigError):
        resolve_config("hysteresis", path)


def test_resolve_config_merges_overrides(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"T_osc": 5.0}))
    config = resolve_config("hysteresis", path, {"seed": 7})
    assert config["T_osc"] == 5.0
    assert config["seed"] == 7
    assert config["rc"] == HYSTERESIS_SCHEMA["rc"][0]


def test_resolve_config_keeps_values_as_given():
    config = resolve_config("hysteresis", overrides={"T_osc": 2, "dt": 0.01})
    assert type(config["T_osc"]) is int and config["dt"] == 0.01


def test_help_lists_every_config_key_with_default_and_rule(capsys):
    for name, (schema, relate, _, _) in COMMANDS.items():
        with pytest.raises(SystemExit):
            main([name, "--help"])
        out = capsys.readouterr().out
        for key, (default, rule) in schema.items():
            assert f"  {key} = {json.dumps(default)}: {rule.text}" in out
        if relate is not None:
            assert "cross-key rule:" in out


def test_internal_error_propagates(tmp_path, capsys, monkeypatch):
    # an engine fault is not a config error: main raises it (exit 1 with
    # its traceback from the console script)
    def broken(*args):
        raise ValueError("injected engine fault")

    monkeypatch.setattr(cli, "table_fixtures", broken)
    with pytest.raises(ValueError, match="injected engine fault"):
        main(["tomography", "--out", str(tmp_path / "o")])
    assert "config error" not in capsys.readouterr().err


def test_hysteresis_command_outputs(tmp_path):
    config = fast_hysteresis_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("hysteresis", "--config", str(config),
                   "--out", str(out), "--check") == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    by_ratio = {p["ratio"]: p for p in summary["panels"]}
    # configured panels plus the 0.01 validation panel added by --check
    assert set(by_ratio) == {0.05, 1.0, 0.01}
    assert (out / "trace_T0.05.csv").exists()
    assert (out / "trace_T1.csv").exists()
    assert (out / "trace_T0.01.csv").exists()
    assert by_ratio[0.01]["rms_vs_lf_limit"] <= 0.02
    assert by_ratio[1.0]["rms_vs_hf_limit"] <= 0.02
    assert summary["config"]["T_osc"] == 2.0


def test_hysteresis_check_with_poisson_noise_adds_no_panel(tmp_path):
    # Poisson thresholds are not checked, so --check adds no 0.01 panel,
    # whose window would not exceed rc
    config = fast_hysteresis_config(tmp_path, noise="poisson",
                                    ratios=[0.2, 1.0])
    out = tmp_path / "out"
    assert run_cli("hysteresis", "--config", str(config),
                   "--out", str(out), "--check") == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert [p["ratio"] for p in summary["panels"]] == [0.2, 1.0]
    assert not (out / "trace_T0.01.csv").exists()


def test_hysteresis_reproducible_bytes(tmp_path):
    config = fast_hysteresis_config(tmp_path, noise="poisson", seed=5,
                                    ratios=[0.2, 1.0])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("hysteresis", "--config", str(config), "--out", str(out1)) == EXIT_OK
    assert run_cli("hysteresis", "--config", str(config), "--out", str(out2)) == EXIT_OK
    for name in ("trace_T0.2.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_hysteresis_lowpass_flag(tmp_path):
    config = fast_hysteresis_config(tmp_path, ratios=[0.5], f_cut=4.62)
    out = tmp_path / "out"
    assert run_cli("hysteresis", "--config", str(config), "--out", str(out),
                   "--law", "lowpass") == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["law"] == "lowpass"


@pytest.mark.parametrize("law, ratios, runs", [
    ("lowpass", [0.05, 0.2, 1.0], 1), ("frozen", [0.05, 0.2, 1.0], 1),
    ("windowed", [0.2, 1.0, 0.2], 2),
])
def test_panels_with_equal_memristors_share_one_run(tmp_path, monkeypatch,
                                                    law, ratios, runs):
    """One loop per distinct (law, feedback window): the lowpass and
    frozen laws ignore the ratio, and a repeated ratio repeats its
    window.  Each panel's CSV is the bytes of a run of its own."""
    calls = []
    for name in ("run_closed_loop", "run_lpf_loop"):
        def counted(*args, _run=getattr(cli, name)):
            calls.append(args)
            return _run(*args)

        monkeypatch.setattr(cli, name, counted)
    path = fast_hysteresis_config(tmp_path, law=law, ratios=ratios,
                                  noise="poisson", seed=3, rc=0.01)
    out = tmp_path / "out"
    assert run_cli("hysteresis", "--config", str(path),
                   "--out", str(out)) == EXIT_OK
    assert len(calls) == runs
    config = resolve_config("hysteresis", path)
    drive, det = cli._loop_configs(config)
    for ratio in ratios:
        mem = cli._panel_memristor(config, ratio)
        run_closed_loop(drive, mem, det).write_csv(tmp_path / "own.csv")
        assert ((out / f"trace_T{ratio:g}.csv").read_bytes()
                == (tmp_path / "own.csv").read_bytes())


@pytest.mark.parametrize("ratios, check", [
    ([0.1, 0.1000001], False), ([0.0100000001], True),
], ids=["configured", "check-panel"])
def test_hysteresis_ratios_sharing_a_trace_name_exit_2(tmp_path, capsys,
                                                       ratios, check):
    # distinct ratios printed alike would write one trace file; the
    # check-panel case collides with the 0.01 panel --check adds
    path = fast_hysteresis_config(tmp_path, ratios=ratios)
    out = tmp_path / "out"
    assert run_cli("hysteresis", "--config", str(path), "--out", str(out),
                   *["--check"] * check) == EXIT_CONFIG
    assert "share the trace file" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"nope": True}))
    assert run_cli("hysteresis", "--config", str(path),
                   "--out", str(tmp_path / "o")) == EXIT_CONFIG


def test_invalid_config_value_exits_2(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"T_osc": -3.0}))
    assert run_cli("hysteresis", "--config", str(path),
                   "--out", str(tmp_path / "o")) == EXIT_CONFIG


def assert_names_key(err, command, case):
    """A config error names the key of a one-key case, and some key of
    the command's schema otherwise."""
    named = {key for key in COMMANDS[command][0]
             if re.search(rf"\b{key}\b", err)}
    assert named & set(case) if len(case) == 1 else named, err


def _exits_2_before_writing(tmp_path, capsys, command, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(path),
                   "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()
    assert_names_key(capsys.readouterr().err, command, config)


HYSTERESIS_BAD = {
    "T_osc-0": {"T_osc": 0}, "T_osc-nan": {"T_osc": float("nan")},
    "n_periods-0": {"n_periods": 0}, "n_periods-float": {"n_periods": 1.5},
    "dt-0": {"dt": 0}, "dt-neg": {"dt": -0.01}, "dt-inf": {"dt": float("inf")},
    "dt-coarse": {"dt": 1.0}, "ratio-0": {"ratios": [0]},
    "ratios-empty": {"ratios": []}, "ratios-scalar": {"ratios": 0.5},
    "rc-0": {"rc": 0}, "max_rate-nan": {"max_rate": float("nan")},
    "noise-unknown": {"noise": "gauss"}, "law-unknown": {"law": "linear"},
    "f_cut-0": {"law": "lowpass", "f_cut": 0}, "seed-neg": {"seed": -1},
    "warmup-all": {"warmup_periods": 2},
    "rc-over-window": {"noise": "poisson", "rc": 1.0, "ratios": [1.0, 0.05]},
    "rc-over-lowpass-window": {"noise": "poisson", "law": "lowpass",
                               "f_cut": 20.0},
    # a string where a number is due, f_cut even under the windowed
    # law, which never reads it
    "T_osc-str": {"T_osc": "x"}, "dt-str": {"dt": "x"},
    "max_rate-str": {"max_rate": "x"}, "f_cut-str-windowed": {"f_cut": "x"},
    # each value finite, the panel window ratio * T_osc not
    "window-overflow": {"ratios": [1e300], "T_osc": 1e10},
    # a Poisson mean max_rate * dt beyond what numpy draws from
    "poisson-mean-overflow": {"noise": "poisson", "max_rate": 1e300},
    # each value finite, the drive's sample times or pi t / T_osc not
    "T_osc-overflow": {"T_osc": 1e308},
    "drive-phase-overflow": {"T_osc": 5e307},
    "steps-overflow": {"T_osc": 1e300, "dt": 1e-10},
}

BAD_GRIDS = ["x", -3, 0, 1, 2.5, True]


@pytest.mark.parametrize("config", HYSTERESIS_BAD.values(),
                         ids=HYSTERESIS_BAD.keys())
def test_hysteresis_bad_config_exits_2_before_writing(tmp_path, capsys,
                                                      config):
    _exits_2_before_writing(tmp_path, capsys, "hysteresis", config)


def test_frozen_panels_read_no_window(tmp_path, capsys):
    """A frozen memristor has no window, so a panel whose ratio * T_osc
    overflows runs and writes every file; the windowed law, which reads
    that window, still exits 2."""
    path = fast_hysteresis_config(tmp_path, law="frozen", ratios=[1e300],
                                  T_osc=1e10, dt=None)
    out = tmp_path / "out"
    assert run_cli("hysteresis", "--config", str(path),
                   "--out", str(out)) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "summary.json", "trace_T1e+300.csv", "trace_T1e+300.json"]
    assert json.loads((out / "trace_T1e+300.json").read_text())["T"] is None
    assert run_cli("hysteresis", "--config", str(path), "--law", "windowed",
                   "--out", str(tmp_path / "windowed")) == EXIT_CONFIG
    assert "window_seconds" in capsys.readouterr().err
    assert not (tmp_path / "windowed").exists()


def test_poisson_mean_below_numpy_limit_runs(tmp_path):
    # 1e17 counts/s at dt = 0.002 s: means up to 2e14, well within numpy's
    path = fast_hysteresis_config(tmp_path, noise="poisson", max_rate=1e17,
                                  rc=0.01)
    assert run_cli("hysteresis", "--config", str(path),
                   "--out", str(tmp_path / "o")) == EXIT_OK


@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_purity_map_bad_grid_exits_2_before_writing(tmp_path, capsys, grid):
    _exits_2_before_writing(tmp_path, capsys, "purity-map", {"grid": grid})


def test_purity_map_takes_no_seed(tmp_path):
    assert run_cli("purity-map", "--out", str(tmp_path / "o"),
                   "--seed", "3") == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [("tomography",), ("rc", "entanglement")])
def test_bad_shots_flag_exits_2(tmp_path, command):
    assert run_cli(*command, "--out", str(tmp_path / "o"),
                   "--shots", "abc") == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_purity_map_command(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"grid": 21}))
    assert run_cli("purity-map", "--config", str(config),
                   "--out", str(out), "--check") == EXIT_OK
    rows = np.genfromtxt(out / "purity_map.csv", delimiter=",", names=True)
    assert rows.shape[0] == 21 * 21
    grid = rows["purity"].reshape(21, 21)
    # symmetric under R <-> 1-R
    assert np.allclose(grid, grid[:, ::-1], atol=1e-12)
    assert grid[0, 0] == pytest.approx(1.0)
    assert grid[-1, 10] == pytest.approx(0.5)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_outputs_take_their_mode_from_the_umask(tmp_path, umask, mode):
    """Outputs are created as `open` creates a file, 0666 under the
    umask, whether they are new or replace a file of another mode."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"grid": 3}))
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert run_cli("purity-map", "--config", str(config),
                       "--out", str(out)) == EXIT_OK
        replaced = tmp_path / "replaced.txt"
        replaced.write_text("old")
        replaced.chmod(0o400 if mode == 0o644 else 0o666)
        _atomic.write_atomic(replaced, "new")
    finally:
        os.umask(old)
    files = [*out.iterdir(), replaced]
    assert [stat.S_IMODE(p.stat().st_mode) for p in files] == (
        [mode] * len(files))
    assert replaced.read_text() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.json", "out", "replaced.txt"]


def test_tomography_command_exact(tmp_path):
    out = tmp_path / "out"
    assert run_cli("tomography", "--out", str(out), "--check") == EXIT_OK
    payload = json.loads((out / "tomography.json").read_text())
    assert len(payload["states"]) == 16
    assert min(s["fidelity"] for s in payload["states"]) >= 0.999
    assert payload["phi_global_fit"] == pytest.approx(5.6, abs=0.01)
    point = [s for s in payload["states"]
             if s["beta2"] == 0.3 and s["reflectivity"] == 0.7][0]
    assert point["purity"] == pytest.approx(0.67, abs=0.005)


@pytest.mark.parametrize("phi", [0.0, 7.0, -1.0])
def test_tomography_check_compares_phases_on_the_circle(tmp_path, phi):
    # the fit lies in [0, 2 pi): 0.0 fits 0.0 (its mean angle, just below
    # 0, folded back), 7.0 and -1.0 fit their values mod 2 pi
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"phi_global": phi}))
    out = tmp_path / "out"
    assert run_cli("tomography", "--config", str(config), "--out", str(out),
                   "--check") == EXIT_OK
    fit = json.loads((out / "tomography.json").read_text())["phi_global_fit"]
    assert 0.0 <= fit < 2 * np.pi
    assert abs((fit - phi + np.pi) % (2 * np.pi) - np.pi) <= 0.01
    if phi == 0.0:
        assert fit == 0.0


def test_tomography_check_catches_a_drifted_phase(tmp_path, capsys,
                                                  monkeypatch):
    fit = cli.fit_global_phase
    monkeypatch.setattr(cli, "fit_global_phase",
                        lambda samples: fit(samples) + 0.02)
    assert run_cli("tomography", "--out", str(tmp_path / "out"),
                   "--check") == EXIT_CHECK
    assert "global-phase round trip drifted" in capsys.readouterr().err


def test_tomography_sampled_embeds_seed(tmp_path):
    out = tmp_path / "out"
    assert run_cli("tomography", "--out", str(out), "--shots", "2000",
                   "--seed", "11") == EXIT_OK
    payload = json.loads((out / "tomography.json").read_text())
    assert payload["config"]["seed"] == 11
    assert payload["config"]["shots"] == 2000


def test_tomography_shots_exact_flag_overrides_config(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"shots": 50}))
    out = tmp_path / "out"
    assert run_cli("tomography", "--config", str(config), "--out", str(out),
                   "--shots", "exact") == EXIT_OK
    payload = json.loads((out / "tomography.json").read_text())
    assert payload["config"]["shots"] is None


TOMOGRAPHY_BAD = {
    "flag-shots-0": (None, ("--shots", "0")),
    "flag-shots-neg": (None, ("--shots", "-5")),
    "flag-seed-neg": (None, ("--seed", "-1")),
    "shots-0": ({"shots": 0}, ()),
    "shots-float": ({"shots": 2.5}, ()),
    "shots-bool": ({"shots": True}, ()),
    "shots-str": ({"shots": "abc"}, ()),
    # beyond the int64 counts numpy draws
    "flag-shots-1e20": (None, ("--shots", str(10**20))),
    "shots-int64-max-plus-1": ({"shots": 2**63}, ()),
    "seed-neg": ({"seed": -1}, ()),
    "seed-float": ({"seed": 1.5}, ()),
    "seed-bool": ({"seed": True}, ()),
    "phi-str": ({"phi_global": "x"}, ()),
    "phi-nan": ({"phi_global": float("nan")}, ()),
    "phi-inf": ({"phi_global": float("inf")}, ()),
}


def tomography_case_keys(config, flags):
    return set(config or ()) | {flag[2:] for flag in flags[::2]}


@pytest.mark.parametrize("config, flags", TOMOGRAPHY_BAD.values(),
                         ids=TOMOGRAPHY_BAD.keys())
def test_tomography_bad_config_exits_2_before_writing(tmp_path, capsys,
                                                      config, flags):
    args = ["tomography", "--out", str(tmp_path / "o"), *flags]
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert run_cli(*args) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()
    assert_names_key(capsys.readouterr().err, "tomography",
                     tomography_case_keys(config, flags))


def test_rc_mnist_without_data_exits_3(tmp_path, monkeypatch):
    monkeypatch.delenv("QUMEM_DATA_DIR", raising=False)
    assert run_cli("rc", "mnist", "--out", str(tmp_path / "o")) == EXIT_DATA


def write_idx(path, arr, magic):
    arr = np.asarray(arr, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">i", magic))
        fh.write(struct.pack(f">{arr.ndim}i", *arr.shape))
        fh.write(arr.tobytes())


def write_digit_dir(path, digits=(0, 3, 8), n=60):
    rng = np.random.default_rng(0)
    def make(n):
        labels = np.array([digits[i % len(digits)] for i in range(n)],
                          dtype=np.uint8)
        images = np.zeros((n, 28, 28), dtype=np.uint8)
        for i, lab in enumerate(labels):
            images[i, 6 + (lab % 16), 8:20] = 250
            images[i] += rng.integers(0, 20, size=(28, 28)).astype(np.uint8)
        return images, labels

    imgs, labels = make(n)
    write_idx(path / "train-images-idx3-ubyte", imgs, 0x00000803)
    write_idx(path / "train-labels-idx1-ubyte", labels, 0x00000801)
    imgs, labels = make(n)
    write_idx(path / "t10k-images-idx3-ubyte", imgs, 0x00000803)
    write_idx(path / "t10k-labels-idx1-ubyte", labels, 0x00000801)
    return path


@pytest.fixture
def tiny_digit_dir(tmp_path):
    return write_digit_dir(tmp_path)


def test_rc_mnist_pipeline_on_synthetic_idx(tmp_path, tiny_digit_dir, monkeypatch):
    monkeypatch.setenv("QUMEM_DATA_DIR", str(tiny_digit_dir))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "n_train": 24, "n_test": 12, "epochs": 3, "mesh_seed": 3,
    }))
    out = tmp_path / "out"
    assert run_cli("rc", "mnist", "--config", str(config),
                   "--out", str(out)) == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n_parameters"] == 1680
    assert 0.0 <= metrics["test_accuracy"] <= 1.0
    # the checkpoint is one line of canonical JSON
    text = (out / "checkpoint.json").read_text()
    assert text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    checkpoint = json.loads(text)
    assert sorted(checkpoint) == ["config", "w1", "w2"]
    assert checkpoint["config"] == metrics["config"]
    assert np.array(checkpoint["w1"]).shape == (165, 10)
    assert np.array(checkpoint["w2"]).shape == (
        10, len(metrics["config"]["digits"]))


@pytest.mark.parametrize("digits", [[0, 3], [0, 1, 3, 8]])
def test_rc_mnist_class_count_follows_digits(tmp_path, digits):
    data = tmp_path / "data"
    data.mkdir()
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "n_train": 8, "n_test": 8, "epochs": 1, "digits": digits,
        "data_dir": str(write_digit_dir(data, tuple(digits))),
    }))
    out = tmp_path / "out"
    assert run_cli("rc", "mnist", "--config", str(config),
                   "--out", str(out)) == EXIT_OK
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert np.array(checkpoint["w2"]).shape == (10, len(digits))


def test_rc_entanglement_small(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "n_train": 8, "n_test": 8, "copies": 5, "epochs": 2, "d_loc": 4,
    }))
    out = tmp_path / "out"
    assert run_cli("rc", "entanglement", "--config", str(config),
                   "--out", str(out)) == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["config"]["task"] == "entanglement"
    assert "test_accuracy" in metrics


def test_rc_decoupled_feature_stages(tmp_path):
    # stage 1: run the reservoir once, emitting feature CSVs
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "n_train": 8, "n_test": 8, "copies": 3, "epochs": 2, "d_loc": 3,
    }))
    out1 = tmp_path / "stage1"
    assert run_cli("rc", "entanglement", "--config", str(config),
                   "--out", str(out1)) == EXIT_OK
    assert (out1 / "train_features.csv").exists()
    # stage 2: retrain directly from the emitted CSVs
    config2 = tmp_path / "c2.json"
    config2.write_text(json.dumps({
        "epochs": 4,
        "train_features": str(out1 / "train_features.csv"),
        "test_features": str(out1 / "test_features.csv"),
    }))
    out2 = tmp_path / "stage2"
    assert run_cli("rc", "entanglement", "--config", str(config2),
                   "--out", str(out2)) == EXIT_OK
    metrics = json.loads((out2 / "metrics.json").read_text())
    assert metrics["config"]["train_features"].endswith("train_features.csv")


def test_rc_fed_its_own_features_rewrites_them_and_retrains_alike(tmp_path):
    """The feature hand-off: a run fed the "%.12g" CSVs of an earlier
    run writes them again byte for byte, and every number of its
    metrics.json is within 1e-10 relative of the first run's (the CSVs
    keep 12 digits, the first run trained on the full floats)."""
    base = {"n_train": 40, "n_test": 40, "copies": 30, "d_loc": 6}
    first, second = tmp_path / "first", tmp_path / "second"
    fed = {**base, "train_features": str(first / "train_features.csv"),
           "test_features": str(first / "test_features.csv")}
    for config, out in ((base, first), (fed, second)):
        path = tmp_path / f"{out.name}.json"
        path.write_text(json.dumps(config))
        assert run_cli("rc", "entanglement", "--config", str(path),
                       "--out", str(out)) == EXIT_OK
    for name in ("train_features.csv", "test_features.csv"):
        assert (second / name).read_bytes() == (first / name).read_bytes()
    want, got = (json.loads((out / "metrics.json").read_text())
                 for out in (first, second))
    assert got.pop("config") == {**want.pop("config"), **fed}
    assert got.keys() == want.keys()
    for key in want:
        assert np.allclose(got[key], want[key], rtol=1e-10, atol=0), key


def test_rc_shots_exact_flag_overrides_config(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "n_train": 2, "n_test": 2, "copies": 2, "epochs": 1, "d_loc": 3,
        "shots": 50,
    }))
    out = tmp_path / "out"
    assert run_cli("rc", "entanglement", "--config", str(config),
                   "--out", str(out), "--shots", "exact") == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["config"]["shots"] is None


RC_BAD = [
    {"modes": 4.5}, {"modes": 2}, {"photons": 0}, {"hidden": 0}, {"epochs": -1}, {"epochs": 1.5}, {"batch_size": 0},
    {"copies": 0}, {"n_train": 0}, {"n_test": True}, {"d_loc": 0},
    {"seed": -1}, {"mesh_seed": 1.5}, {"lr": "x"}, {"lr": 0},
    {"lr": float("nan")}, {"window": 0}, {"window": 2.5}, {"shots": 0},
    {"shots": "abc"}, {"shots": 10**20}, {"encoding": "gauss"},
    {"feedback": 1},
    {"feedback": "on"}, {"digits": [3]}, {"digits": [3, 3]},
    {"digits": [0, 10]}, {"digits": [0, True]}, {"digits": "038"},
    # the positional task overrides the file's, which is still checked
    {"task": "bogus"},
    {"data_dir": 7}, {"train_features": ""}, {"test_features": ["a.csv"]},
    # reservoir geometry: 13^2 and 2^2 exceed C(11, 3) = 165 and C(3, 1) = 3
    {"d_loc": 13}, {"modes": 3, "photons": 1, "d_loc": 2},
    # C(1201, 2) = 720,600 and the unformed C(1e12, 3) exceed the 5792 cap
    {"modes": 1200, "photons": 2}, {"modes": 10**12},
]


def refuse_work(monkeypatch):
    """Make every dataset and reservoir entry point of the CLI fail."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    for name in ("load_mnist", "build_entanglement_dataset", "Reservoir"):
        monkeypatch.setattr(cli, name, no_work)


@pytest.mark.parametrize(
    "bad", RC_BAD, ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_rc_bad_config_exits_2_before_writing(tmp_path, capsys, monkeypatch,
                                              bad):
    refuse_work(monkeypatch)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "n_train": 2, "n_test": 2, "copies": 2, "epochs": 1, "d_loc": 3,
        **bad,
    }))
    out = tmp_path / "o"
    assert run_cli("rc", "entanglement", "--config", str(config),
                   "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()
    assert_names_key(capsys.readouterr().err, "rc", bad)


def test_rc_oversized_reservoir_exits_2_at_once(tmp_path, capsys):
    """A reservoir past the dense engine's size cap is refused by the
    config check, before its basis is enumerated, and leaves no --out."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"modes": 1200, "photons": 2}))
    out = tmp_path / "o"
    start = time.perf_counter()
    assert run_cli("rc", "entanglement", "--config", str(config),
                   "--out", str(out)) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert not out.exists()
    assert "5792" in capsys.readouterr().err


@pytest.mark.parametrize("modes, photons, accepted", [
    (1200, 1, True), (5792, 1, True), (5793, 1, False), (31, 3, True),
    (32, 3, False),
])
def test_rc_size_cap_is_the_dimension_5792(modes, photons, accepted):
    # C(33, 3) = 5456 and C(34, 3) = 5984
    overrides = {"task": "entanglement", "modes": modes, "photons": photons}
    if accepted:
        assert resolve_config("rc", overrides=overrides)["modes"] == modes
    else:
        with pytest.raises(ConfigError, match="5792"):
            resolve_config("rc", overrides=overrides)


def test_rc_mnist_small_reservoir_exits_2_before_reading_data(
        tmp_path, capsys, monkeypatch):
    # C(3, 1) = 3 basis states cannot hold an 18-pixel digit column
    refuse_work(monkeypatch)
    data = tmp_path / "data"
    data.mkdir()
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "modes": 3, "photons": 1, "n_train": 8, "n_test": 8,
        "data_dir": str(write_digit_dir(data)),
    }))
    out = tmp_path / "o"
    assert run_cli("rc", "mnist", "--config", str(config),
                   "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "modes" in err and "photons" in err


def test_largest_int64_shot_count_runs(tmp_path):
    """2**63 - 1 shots, the largest count numpy draws, still runs."""
    small = tmp_path / "c.json"
    small.write_text(json.dumps({"n_train": 2, "n_test": 2, "copies": 2,
                                 "epochs": 1, "d_loc": 3}))
    for command in (["tomography"],
                    ["rc", "entanglement", "--config", str(small)]):
        out = tmp_path / command[0]
        assert run_cli(*command, "--shots", str(2**63 - 1),
                       "--out", str(out)) == EXIT_OK
        assert any(out.iterdir())


def test_every_schema_key_has_a_bad_value_case():
    cases = {
        "hysteresis": [set(c) for c in HYSTERESIS_BAD.values()],
        "purity-map": [{"grid"} for _ in BAD_GRIDS],
        "rc": [set(c) for c in RC_BAD],
        "tomography": [tomography_case_keys(*c)
                       for c in TOMOGRAPHY_BAD.values()],
    }
    for name, (schema, *_) in COMMANDS.items():
        assert set(schema) - set().union(*cases[name]) == set(), name


@pytest.mark.parametrize("target", ["file", "file/sub", "link/sub"])
@pytest.mark.parametrize("command", [
    ["hysteresis"], ["purity-map"], ["rc", "entanglement"], ["tomography"],
], ids=lambda command: command[0])
def test_out_not_a_directory_exits_2_before_work(tmp_path, capsys,
                                                 monkeypatch, command,
                                                 target):
    def no_work(*args):
        raise AssertionError("work started before --out was checked")

    for name, (schema, relate, _, help_text) in COMMANDS.items():
        monkeypatch.setitem(COMMANDS, name,
                            (schema, relate, no_work, help_text))
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "link").symlink_to(tmp_path / "missing")
    blocker = tmp_path / target.split("/")[0]
    assert run_cli(*command, "--out", str(tmp_path / target)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"config error: --out {tmp_path / target}: {blocker} "
                   f"is not a directory\n")
    assert (tmp_path / "file").read_text() == "kept\n"
    assert not (tmp_path / "missing").exists()


def diverging_rc_config(tmp_path, lr):
    config = tmp_path / f"lr{lr:g}.json"
    config.write_text(json.dumps({"n_train": 2, "n_test": 2, "copies": 2,
                                  "d_loc": 4, "lr": lr}))
    return config


def test_rc_diverging_readout_exits_2_without_output(tmp_path, capsys,
                                                     recwarn):
    out = tmp_path / "o"
    assert run_cli("rc", "entanglement", "--config",
                   str(diverging_rc_config(tmp_path, 1e300)),
                   "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: lr = 1e+300: the readout diverged")
    assert "Warning" not in err
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


def test_rc_large_converging_lr_still_runs(tmp_path, recwarn):
    out = tmp_path / "o"
    assert run_cli("rc", "entanglement", "--config",
                   str(diverging_rc_config(tmp_path, 50)),
                   "--out", str(out)) == EXIT_OK
    for name in ("metrics.json", "checkpoint.json"):
        assert "NaN" not in (out / name).read_text()
    assert [str(w.message) for w in recwarn] == []


def test_rc_outputs_byte_identical(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "n_train": 8, "n_test": 8, "copies": 3, "epochs": 2, "d_loc": 3,
        "shots": 200,
    }))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("rc", "entanglement", "--config", str(config),
                       "--out", str(out), "--seed", "5") == EXIT_OK
    for name in ("train_features.csv", "metrics.json", "checkpoint.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rc_missing_feature_csv_exits_3(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "train_features": str(tmp_path / "nope.csv"),
        "test_features": str(tmp_path / "nope2.csv"),
    }))
    assert run_cli("rc", "entanglement", "--config", str(config),
                   "--out", str(tmp_path / "o")) == EXIT_DATA


@pytest.mark.parametrize("key", ["train_features", "test_features"])
def test_rc_one_feature_csv_exits_2(tmp_path, key):
    features = tmp_path / "features.csv"
    features.write_text("label,p0\n0,1\n")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: str(features)}))
    out = tmp_path / "o"
    assert run_cli("rc", "entanglement", "--config", str(config),
                   "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()


def feature_csv_config(tmp_path, train_text, test_text):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text(train_text)
    test.write_text(test_text)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"train_features": str(train),
                                  "test_features": str(test)}))
    return config


@pytest.mark.parametrize("label", ["2", "-1"])
def test_rc_feature_label_out_of_range_exits_3(tmp_path, capsys, label):
    # entanglement has two classes: labels must lie in [0, 2)
    config = feature_csv_config(tmp_path, f"label,p0\n0,0.5\n{label},0.5\n",
                                "label,p0\n0,0.5\n1,0.5\n")
    out = tmp_path / "o"
    assert run_cli("rc", "entanglement", "--config", str(config),
                   "--out", str(out)) == EXIT_DATA
    assert "labels outside [0, 2)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("train_text, error", [
    ("label,p0,p1\n0,0.5,0.5\n1,0.5\n", "cannot read features"),
    ("label,p0\n0,0.5\n0.5,0.5\n", "labels must be whole numbers"),
    ("label\n0\n1\n", "malformed features file"),
    ("label,p0\n", "no feature rows"),
    ("label,p0\n0,0.5\n1,inf\n", "malformed features file"),
], ids=["ragged-row", "fractional-label", "label-only", "header-only",
        "non-finite"])
def test_rc_malformed_feature_csv_exits_3(tmp_path, capsys, recwarn,
                                          train_text, error):
    config = feature_csv_config(tmp_path, train_text,
                                "label,p0\n0,0.5\n1,0.5\n")
    out = tmp_path / "o"
    assert run_cli("rc", "entanglement", "--config", str(config),
                   "--out", str(out)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and error in err
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


@pytest.mark.parametrize("test_text", [
    "label,p0,p1\n0,0.5,0.5\n1,1,0\n",  # would not broadcast
    "label,p0\n0,1\n1,1\n",             # would broadcast silently
])
def test_rc_feature_width_mismatch_exits_3(tmp_path, capsys, test_text):
    config = feature_csv_config(
        tmp_path, "label,p0,p1,p2\n0,0.5,0.5,0\n1,1,0,0\n", test_text)
    assert run_cli("rc", "entanglement", "--config", str(config),
                   "--out", str(tmp_path / "o")) == EXIT_DATA
    assert "train features have 3 columns" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n_train", "n_test"])
def test_rc_entanglement_odd_split_exits_2(tmp_path, key):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_train": 4, "n_test": 4, key: 3}))
    out = tmp_path / "o"
    assert run_cli("rc", "entanglement", "--config", str(config),
                   "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()


def test_hysteresis_writes_meta_sidecars(tmp_path):
    config = fast_hysteresis_config(tmp_path, ratios=[0.5])
    out = tmp_path / "out"
    assert run_cli("hysteresis", "--config", str(config),
                   "--out", str(out)) == EXIT_OK
    meta = json.loads((out / "trace_T0.5.json").read_text())
    assert meta["T_osc"] == 2.0
    assert meta["law"] == "windowed"


def test_rc_feedback_flag(tmp_path, tiny_digit_dir, monkeypatch):
    monkeypatch.setenv("QUMEM_DATA_DIR", str(tiny_digit_dir))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "n_train": 12, "n_test": 6, "epochs": 1, "copies": 3,
    }))
    out = tmp_path / "out"
    assert run_cli("rc", "mnist", "--config", str(config), "--out", str(out),
                   "--feedback", "off", "--encoding", "coherent") == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["config"]["feedback"] is False
    assert metrics["config"]["encoding"] == "coherent"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _outputs(out):
    """Every file under out, by relative name, as bytes."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_repeated_main_calls_share_one_parser(tmp_path, capsys):
    """main builds its parser once per process, and a reused parser
    gives every command the outputs and exit code of a fresh one, with
    no override of one call reaching the next."""
    hysteresis = fast_hysteresis_config(tmp_path)
    rc = tmp_path / "rc.json"
    rc.write_text(json.dumps({"n_train": 2, "n_test": 2, "copies": 2,
                              "epochs": 1, "d_loc": 3}))
    calls = [
        ("purity-map", "--check"),
        ("tomography", "--shots", "50", "--seed", "3"),
        ("tomography",),
        ("hysteresis", "--config", str(hysteresis), "--seed", "2",
         "--law", "lowpass"),
        ("hysteresis", "--config", str(hysteresis)),
        ("rc", "entanglement", "--config", str(rc), "--shots", "200"),
        ("rc", "entanglement", "--config", str(rc), "--feedback", "off"),
        ("rc", "entanglement", "--config", str(rc)),
        ("tomography", "--shots", "abc"),
        ("purity-map", "--seed", "3"),
    ]
    runs = {}
    for fresh in (False, True):
        build_parser.cache_clear()
        for k, call in enumerate(calls):
            if fresh:
                build_parser.cache_clear()
            out = tmp_path / f"{fresh}_{k}"
            code = run_cli(*call, "--out", str(out))
            runs.setdefault(k, []).append(
                (code, _outputs(out) if out.exists() else None,
                 capsys.readouterr().err))
        if not fresh:
            info = build_parser.cache_info()
            assert (info.misses, info.hits) == (1, len(calls) - 1)
    for k, (cached, fresh) in runs.items():
        assert cached == fresh, calls[k]
    assert [runs[k][0][0] for k in range(len(calls))] == [
        EXIT_OK] * 8 + [EXIT_CONFIG] * 2
