"""Command-line driver: hysteresis runs, purity maps, reservoir
classification tasks and tomography round trips.

Configs are JSON documents whose defaults are the characterised device
values; unknown keys are rejected.  Every report embeds the fully
resolved config and seeds, outputs are written atomically (temp file +
rename), and identical config + seeds give byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 data error, 4 threshold
failure under --check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._atomic import write_atomic
from .hysteresis import (
    DetectionConfig,
    DriveConfig,
    classify_regime,
    hf_reference,
    lf_reference,
    rms,
    run_closed_loop,
    run_lpf_loop,
)
from .memristor import (
    FROZEN,
    LOWPASS,
    WINDOWED,
    MemristorState,
    purity_closed_form,
)
from .readout import (
    DataError,
    ReadoutModel,
    build_entanglement_dataset,
    image_features,
    load_mnist,
    read_features_csv,
    standardize,
    state_features,
    to_readout_features,
    train,
    write_features_csv,
)
from .reservoir import Reservoir, ReservoirConfig
from .tomography import (
    PHI_GLOBAL,
    fit_global_phase,
    reconstruction_roundtrip,
    table_fixtures,
)

DATA_DIR_ENV = "QUMEM_DATA_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECK = 4


class ConfigError(Exception):
    """Bad or unknown configuration."""


class CheckFailure(Exception):
    """A --check threshold was not met."""


# ---------------------------------------------------------------------------
# config plumbing

HYSTERESIS_DEFAULTS = {
    "T_osc": 10.0,
    "ratios": [0.05, 0.2, 0.4, 0.6, 0.8, 1.0],
    "n_periods": 2,
    "dt": None,            # defaults to T_osc / 1000
    "law": WINDOWED,       # or "lowpass", "frozen"
    "f_cut": 4.62,         # used by the lowpass law
    "noise": "exact",      # or "poisson"
    "max_rate": 3.0e4,
    "rc": 0.1,
    "seed": 0,
    "warmup_periods": 1,
}

PURITY_MAP_DEFAULTS = {"grid": 101}

RC_DEFAULTS = {
    "task": "mnist",           # or "entanglement"
    "encoding": "quantum",     # or "coherent"
    "feedback": True,
    "modes": 9,
    "photons": 3,
    "mesh_seed": 2021,
    "shots": None,             # None: exact distribution
    "window": None,            # defaults to the task sequence length
    "hidden": 10,
    "epochs": 15,
    "lr": 0.05,
    "batch_size": 32,
    "n_train": 1000,
    "n_test": 1000,
    "seed": 0,
    "digits": [0, 3, 8],
    "d_loc": 12,
    "copies": 100,
    "data_dir": None,          # falls back to $QUMEM_DATA_DIR
    "train_features": None,    # precomputed feature CSVs: skip the
    "test_features": None,     # reservoir stage entirely
}

TOMOGRAPHY_DEFAULTS = {
    "shots": None,             # None: exact (infinite statistics)
    "seed": 0,
    "phi_global": PHI_GLOBAL,
}


def resolve_config(defaults, path=None, overrides=None):
    config = dict(defaults)
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    for key, value in (overrides or {}).items():
        if value is not None:
            config[key] = value
    return config


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path, payload):
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True,
                                  default=_json_default) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_hysteresis(config, out_dir, check=False):
    out_dir.mkdir(parents=True, exist_ok=True)
    det = DetectionConfig(max_rate=config["max_rate"], rc=config["rc"],
                          noise=config["noise"], seed=config["seed"])
    summary = {"config": config, "panels": []}
    ratios = list(config["ratios"])
    if check and config["law"] == WINDOWED and 0.01 not in ratios:
        ratios.append(0.01)  # the true low-frequency limit panel
    for ratio in ratios:
        t_osc = config["T_osc"]
        drive = DriveConfig(T_osc=t_osc, n_periods=config["n_periods"],
                            dt=config["dt"])
        if config["law"] == LOWPASS:
            trace = run_lpf_loop(drive, config["f_cut"], det)
        else:
            mem = MemristorState(0.5, window_seconds=ratio * t_osc,
                                 law=config["law"])
            trace = run_closed_loop(drive, mem, det)
        name = f"trace_T{ratio:g}.csv"
        trace.write_csv(out_dir / name)
        trace.write_meta(out_dir / f"trace_T{ratio:g}.json")
        steady = trace.steady(config["warmup_periods"])
        panel = {
            "ratio": ratio,
            "file": name,
            "regime": classify_regime(ratio * t_osc, t_osc),
            "rms_vs_lf_limit": rms(steady.n_out, lf_reference(steady.n_in)),
            "rms_vs_hf_limit": rms(steady.n_out, hf_reference(steady.n_in)),
            "orbit_area": steady.orbit_area(),
            "mean_counts_per_rc_window":
                trace.meta["mean_counts_per_rc_window"],
        }
        summary["panels"].append(panel)
    write_json(out_dir / "summary.json", summary)
    if check and config["law"] == WINDOWED and config["noise"] == "exact":
        by_ratio = {p["ratio"]: p for p in summary["panels"]}
        if by_ratio[min(by_ratio)]["rms_vs_lf_limit"] > 0.02:
            raise CheckFailure("low-frequency panel misses the LF limit")
        if 1.0 in by_ratio and by_ratio[1.0]["rms_vs_hf_limit"] > 0.02:
            raise CheckFailure("T = T_osc panel misses the HF limit")
    return summary


def cmd_purity_map(config, out_dir, check=False):
    out_dir.mkdir(parents=True, exist_ok=True)
    n = config["grid"]
    beta2 = np.linspace(0.0, 1.0, n)
    refl = np.linspace(0.0, 1.0, n)
    lines = ["beta2,R,purity"]
    for b in beta2:
        for r in refl:
            lines.append(f"{b:.12g},{r:.12g},{purity_closed_form(b, r):.12g}")
    write_atomic(out_dir / "purity_map.csv", "\n".join(lines) + "\n")
    write_json(out_dir / "purity_map.json",
               {"config": config, "grid": n,
                "min": purity_closed_form(1.0, 0.5)})
    if check:
        if abs(purity_closed_form(0.0, 0.0) - 1.0) > 1e-12:
            raise CheckFailure("vacuum corner purity is not 1")
        if abs(purity_closed_form(1.0, 0.5) - 0.5) > 1e-12:
            raise CheckFailure("fully mixed point purity is not 0.5")
    return {"grid": n}


def _rc_mnist_features(config, reservoir):
    data_dir = config["data_dir"] or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise DataError(
            f"no dataset directory: set {DATA_DIR_ENV} or config data_dir"
        )
    subset = load_mnist(data_dir, tuple(config["digits"]),
                        config["n_train"], config["n_test"],
                        seed=config["seed"])
    x_train = image_features(reservoir, subset.train_images,
                             config["encoding"])
    x_test = image_features(reservoir, subset.test_images,
                            config["encoding"])
    return (x_train, subset.train_labels), (x_test, subset.test_labels), 3


def _rc_entanglement_features(config, reservoir):
    states_train, y_train = build_entanglement_dataset(
        config["n_train"] // 2, config["d_loc"], seed=config["seed"],
        basis=reservoir.basis)
    states_test, y_test = build_entanglement_dataset(
        config["n_test"] // 2, config["d_loc"], seed=config["seed"] + 1,
        basis=reservoir.basis)
    x_train = state_features(reservoir, states_train, config["copies"])
    x_test = state_features(reservoir, states_test, config["copies"])
    return (x_train, y_train), (x_test, y_test), 2


def _read_feature_sets(config, n_out):
    """Train and test (probs, labels) from the feature CSVs, checked
    for a common width and labels in [0, n_out)."""
    sets = []
    for key in ("train_features", "test_features"):
        probs, labels = read_features_csv(config[key])
        if np.any((labels < 0) | (labels >= n_out)):
            raise DataError(f"{config[key]}: labels outside [0, {n_out})")
        sets.append((probs, labels))
    (train_probs, _), (test_probs, _) = sets
    if train_probs.shape[1] != test_probs.shape[1]:
        raise DataError(
            f"train features have {train_probs.shape[1]} columns, "
            f"test features {test_probs.shape[1]}")
    return sets


def cmd_rc(config, out_dir, check=False):
    if bool(config["train_features"]) != bool(config["test_features"]):
        raise ConfigError(
            "train_features and test_features must be set together")
    if config["task"] == "entanglement" and not config["train_features"]:
        for key in ("n_train", "n_test"):
            if config[key] % 2:
                raise ConfigError(
                    f"{key} must be even for entanglement (balanced "
                    f"classes), got {config[key]}")
    window = config["window"]
    if window is None:
        window = 12 if config["task"] == "mnist" else config["copies"]
    n_out = 3 if config["task"] == "mnist" else 2
    if config["train_features"]:
        train_set, test_set = _read_feature_sets(config, n_out)
    else:
        features = {"mnist": _rc_mnist_features,
                    "entanglement": _rc_entanglement_features}.get(
                        config["task"])
        if features is None:
            raise ConfigError(f"unknown task {config['task']!r}")
        reservoir = Reservoir(ReservoirConfig(
            modes=config["modes"], photons=config["photons"],
            mesh_seed=config["mesh_seed"], shots=config["shots"],
            window=window, feedback=bool(config["feedback"]),
            sample_seed=config["seed"],
        ))
        train_set, test_set, n_out = features(config, reservoir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_features_csv(out_dir / "train_features.csv", *train_set)
    write_features_csv(out_dir / "test_features.csv", *test_set)
    x_train, x_test = standardize(to_readout_features(train_set[0]),
                                  to_readout_features(test_set[0]))
    train_set = (x_train, train_set[1])
    test_set = (x_test, test_set[1])
    model = ReadoutModel.initialize(x_train.shape[1], config["hidden"],
                                    n_out, seed=config["seed"])
    result = train(model, train_set, epochs=config["epochs"],
                   lr=config["lr"], seed=config["seed"],
                   batch_size=config["batch_size"], test_data=test_set)
    metrics = {
        "config": config,
        "window": window,
        "n_parameters": result.model.n_parameters,
        "train_accuracy": result.train_accuracy,
        "test_accuracy": result.test_accuracy,
        "losses": result.losses,
    }
    write_json(out_dir / "metrics.json", metrics)
    write_json(out_dir / "checkpoint.json",
               {"w1": result.model.w1, "w2": result.model.w2,
                "config": config})
    if check:
        acc = result.test_accuracy
        task, enc = config["task"], config["encoding"]
        if task == "entanglement" and acc < 0.90:
            raise CheckFailure(f"entanglement accuracy {acc:.3f} < 0.90")
        if task == "mnist" and enc == "quantum" and config["feedback"]:
            if acc < 0.90:
                raise CheckFailure(f"quantum accuracy {acc:.3f} < 0.90")
        if task == "mnist" and not config["feedback"]:
            if not 0.25 <= acc <= 0.45:
                raise CheckFailure(
                    f"feedback-off accuracy {acc:.3f} outside [0.25, 0.45]")
        if task == "mnist" and enc == "coherent":
            if not 0.55 <= acc <= 0.85:
                raise CheckFailure(
                    f"coherent accuracy {acc:.3f} outside [0.55, 0.85]")
    return metrics


def cmd_tomography(config, out_dir, check=False):
    out_dir.mkdir(parents=True, exist_ok=True)
    shots = config["shots"]
    rows = []
    for fixture in table_fixtures(config["phi_global"]):
        report = reconstruction_roundtrip(
            fixture.beta2, fixture.reflectivity, shots=shots,
            seed=config["seed"], phi_global=config["phi_global"])
        rows.append({
            "beta2": fixture.beta2,
            "reflectivity": fixture.reflectivity,
            "fidelity": report.fidelity_to_theory,
            "purity": report.purity,
        })
    samples = [
        (f.reflectivity, f.rho[1, 2])
        for f in table_fixtures(config["phi_global"])
        if abs(f.rho[1, 2]) > 1e-9
    ]
    phi_fit = fit_global_phase(samples)
    payload = {
        "config": config,
        "states": rows,
        "mean_fidelity": float(np.mean([r["fidelity"] for r in rows])),
        "phi_global_fit": phi_fit,
    }
    write_json(out_dir / "tomography.json", payload)
    if check and shots is None:
        worst = min(r["fidelity"] for r in rows)
        if worst < 0.999:
            raise CheckFailure(f"exact round-trip fidelity {worst:.5f} < 0.999")
        if abs(phi_fit - config["phi_global"]) > 0.01:
            raise CheckFailure("global-phase round trip drifted")
    return payload


# ---------------------------------------------------------------------------
# argument parsing

def build_parser():
    parser = argparse.ArgumentParser(
        prog="qumem",
        description="photonic quantum memristor simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (unknown keys rejected)")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--check", action="store_true",
                       help="exit 4 if result thresholds are not met")

    p = sub.add_parser("hysteresis", help="closed-loop hysteresis panels")
    common(p)
    p.add_argument("--law", choices=[WINDOWED, LOWPASS, FROZEN], default=None)

    p = sub.add_parser("purity-map", help="output-state purity grid")
    common(p)

    p = sub.add_parser("rc", help="reservoir-computing tasks")
    p.add_argument("task", choices=["mnist", "entanglement"])
    common(p)
    p.add_argument("--encoding", choices=["quantum", "coherent"], default=None)
    p.add_argument("--feedback", choices=["on", "off"], default=None)
    p.add_argument("--shots", default=None,
                   help="'exact' or an integer sample count per step")

    p = sub.add_parser("tomography", help="16-state reconstruction round trip")
    common(p)
    p.add_argument("--shots", default=None,
                   help="'exact' or an integer count per setting")
    return parser


def _parse_shots(value):
    if value is None or value == "exact":
        return None
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"--shots must be 'exact' or an integer, got {value!r}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "hysteresis":
            overrides = {"seed": args.seed, "law": args.law}
            config = resolve_config(HYSTERESIS_DEFAULTS, args.config, overrides)
            cmd_hysteresis(config, args.out, args.check)
        elif args.command == "purity-map":
            config = resolve_config(PURITY_MAP_DEFAULTS, args.config)
            cmd_purity_map(config, args.out, args.check)
        elif args.command == "rc":
            overrides = {
                "task": args.task,
                "seed": args.seed,
                "encoding": args.encoding,
                "shots": _parse_shots(args.shots) if args.shots else None,
            }
            if args.feedback is not None:
                overrides["feedback"] = args.feedback == "on"
            config = resolve_config(RC_DEFAULTS, args.config, overrides)
            cmd_rc(config, args.out, args.check)
        elif args.command == "tomography":
            overrides = {
                "seed": args.seed,
                "shots": _parse_shots(args.shots) if args.shots else None,
            }
            config = resolve_config(TOMOGRAPHY_DEFAULTS, args.config, overrides)
            cmd_tomography(config, args.out, args.check)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
