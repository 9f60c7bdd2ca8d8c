import json
import struct

import numpy as np
import pytest

from qumem.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    HYSTERESIS_DEFAULTS,
    ConfigError,
    main,
    resolve_config,
)


def run_cli(*args):
    return main(list(args))


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
        resolve_config(HYSTERESIS_DEFAULTS, path)


def test_resolve_config_merges_overrides(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"T_osc": 5.0}))
    config = resolve_config(HYSTERESIS_DEFAULTS, path, {"seed": 7})
    assert config["T_osc"] == 5.0
    assert config["seed"] == 7
    assert config["rc"] == HYSTERESIS_DEFAULTS["rc"]


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
    assert by_ratio[0.01]["rms_vs_lf_limit"] <= 0.02
    assert by_ratio[1.0]["rms_vs_hf_limit"] <= 0.02
    assert summary["config"]["T_osc"] == 2.0


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


def test_tomography_sampled_embeds_seed(tmp_path):
    out = tmp_path / "out"
    assert run_cli("tomography", "--out", str(out), "--shots", "2000",
                   "--seed", "11") == EXIT_OK
    payload = json.loads((out / "tomography.json").read_text())
    assert payload["config"]["seed"] == 11
    assert payload["config"]["shots"] == 2000


def test_rc_mnist_without_data_exits_3(tmp_path, monkeypatch):
    monkeypatch.delenv("QUMEM_DATA_DIR", raising=False)
    assert run_cli("rc", "mnist", "--out", str(tmp_path / "o")) == EXIT_DATA


def write_idx(path, arr, magic):
    arr = np.asarray(arr, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">i", magic))
        fh.write(struct.pack(f">{arr.ndim}i", *arr.shape))
        fh.write(arr.tobytes())


@pytest.fixture
def tiny_digit_dir(tmp_path):
    rng = np.random.default_rng(0)
    def make(n):
        labels = np.array([(0, 3, 8)[i % 3] for i in range(n)], dtype=np.uint8)
        images = np.zeros((n, 28, 28), dtype=np.uint8)
        for i, lab in enumerate(labels):
            images[i, 6 + (lab % 16), 8:20] = 250
            images[i] += rng.integers(0, 20, size=(28, 28)).astype(np.uint8)
        return images, labels

    imgs, labels = make(60)
    write_idx(tmp_path / "train-images-idx3-ubyte", imgs, 0x00000803)
    write_idx(tmp_path / "train-labels-idx1-ubyte", labels, 0x00000801)
    imgs, labels = make(60)
    write_idx(tmp_path / "t10k-images-idx3-ubyte", imgs, 0x00000803)
    write_idx(tmp_path / "t10k-labels-idx1-ubyte", labels, 0x00000801)
    return tmp_path


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
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert np.array(checkpoint["w1"]).shape == (165, 10)


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
