"""Command-line driver: hysteresis runs, purity maps, reservoir
classification tasks and tomography round trips.

Configs are JSON documents whose defaults are the characterised device
values; unknown keys are rejected.  Every report embeds the fully
resolved config and seeds, outputs are written atomically (temp file +
rename), and identical config + seeds give byte-identical outputs on
one interpreter and numpy/BLAS build.

Exit codes: 0 success, 2 config error, 3 data error, 4 threshold
failure under --check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._atomic import write_atomic
from .fock import _is_int
from .hysteresis import (
    DetectionConfig,
    DriveConfig,
    _validate_loop,
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
from .reservoir import COHERENT, QUANTUM, Reservoir, ReservoirConfig
from .tomography import (
    PHI_GLOBAL,
    fit_global_phase,
    pending_ascents,
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
    config.update(overrides or {})
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

def _is_real(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_hysteresis_config(config):
    """Type and range checks the drive and detection configs leave to
    the caller; those two check their own fields."""
    law, f_cut = config["law"], config["f_cut"]
    if law not in (WINDOWED, LOWPASS, FROZEN):
        raise ConfigError(f"unknown law {law!r}")
    if law == LOWPASS and not (_is_real(f_cut) and f_cut > 0):
        raise ConfigError(
            f"f_cut must be a finite number > 0, got {f_cut!r}")
    ratios = config["ratios"]
    if (not isinstance(ratios, list) or not ratios
            or not all(_is_real(r) and r > 0 for r in ratios)):
        raise ConfigError(
            f"ratios must be a non-empty list of finite numbers > 0, "
            f"got {ratios!r}")
    n_periods, warmup = config["n_periods"], config["warmup_periods"]
    if not (_is_int(n_periods) and n_periods >= 1):
        raise ConfigError(
            f"n_periods must be an integer >= 1, got {n_periods!r}")
    if not (_is_int(warmup) and 0 <= warmup < n_periods):
        raise ConfigError(
            f"warmup_periods must be an integer in [0, n_periods), "
            f"got {warmup!r}")
    if not (_is_int(config["seed"]) and config["seed"] >= 0):
        raise ConfigError(
            f"seed must be an integer >= 0, got {config['seed']!r}")


def cmd_hysteresis(config, out_dir, check=False):
    _check_hysteresis_config(config)
    det = DetectionConfig(max_rate=config["max_rate"], rc=config["rc"],
                          noise=config["noise"], seed=config["seed"])
    drive = DriveConfig(T_osc=config["T_osc"], n_periods=config["n_periods"],
                        dt=config["dt"])
    ratios = list(config["ratios"])
    # only the windowed law with exact noise has checked thresholds
    checked = (check and config["law"] == WINDOWED
               and config["noise"] == "exact")
    if checked and 0.01 not in ratios:
        ratios.append(0.01)  # the true low-frequency limit panel
    t_osc = config["T_osc"]
    if config["law"] == LOWPASS:
        _validate_loop(drive, det, 1.0 / config["f_cut"])
    elif config["law"] == WINDOWED:
        _validate_loop(drive, det, min(ratios) * t_osc)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"config": config, "panels": []}
    for ratio in ratios:
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
    if checked:
        by_ratio = {p["ratio"]: p for p in summary["panels"]}
        if by_ratio[min(by_ratio)]["rms_vs_lf_limit"] > 0.02:
            raise CheckFailure("low-frequency panel misses the LF limit")
        if 1.0 in by_ratio and by_ratio[1.0]["rms_vs_hf_limit"] > 0.02:
            raise CheckFailure("T = T_osc panel misses the HF limit")
    return summary


def cmd_purity_map(config, out_dir, check=False):
    n = config["grid"]
    if not (_is_int(n) and n >= 2):
        raise ConfigError(f"grid must be an integer >= 2, got {n!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
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
    return (x_train, subset.train_labels), (x_test, subset.test_labels)


def _rc_entanglement_features(config, reservoir):
    states_train, y_train = build_entanglement_dataset(
        config["n_train"] // 2, config["d_loc"], seed=config["seed"],
        basis=reservoir.basis)
    states_test, y_test = build_entanglement_dataset(
        config["n_test"] // 2, config["d_loc"], seed=config["seed"] + 1,
        basis=reservoir.basis)
    x_train = state_features(reservoir, states_train, config["copies"])
    x_test = state_features(reservoir, states_test, config["copies"])
    return (x_train, y_train), (x_test, y_test)


# task -> (feature builder, class count, sequence length: the default
# memristor window); a digit image is fed as its 12 columns
RC_TASKS = {
    "mnist": (_rc_mnist_features, lambda config: len(config["digits"]),
              lambda config: 12),
    "entanglement": (_rc_entanglement_features, lambda config: 2,
                     lambda config: config["copies"]),
}


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


def _is_digit_list(value):
    return (isinstance(value, list) and len(set(value)) == len(value) >= 2
            and all(_is_int(d) and 0 <= d <= 9 for d in value))


# (keys, test, what the test asks for) of the rc fields a run reads
_RC_CHECKS = (
    (("modes",), lambda v: _is_int(v) and v >= 3, "an integer >= 3"),
    (("photons", "hidden", "epochs", "batch_size", "copies", "n_train",
      "n_test", "d_loc"), lambda v: _is_int(v) and v >= 1,
     "an integer >= 1"),
    (("seed", "mesh_seed"), lambda v: _is_int(v) and v >= 0,
     "an integer >= 0"),
    (("lr",), lambda v: _is_real(v) and v > 0, "a finite number > 0"),
    (("window", "shots"), lambda v: v is None or (_is_int(v) and v >= 1),
     "null or an integer >= 1"),
    (("encoding",), lambda v: v in (QUANTUM, COHERENT),
     f"{QUANTUM!r} or {COHERENT!r}"),
    (("feedback",), lambda v: isinstance(v, bool), "true or false"),
    (("digits",), _is_digit_list,
     "a list of at least 2 distinct integers in 0-9"),
)


def _check_rc_config(config):
    for keys, ok, what in _RC_CHECKS:
        for key in keys:
            if not ok(config[key]):
                raise ConfigError(
                    f"{key} must be {what}, got {config[key]!r}")
    if bool(config["train_features"]) != bool(config["test_features"]):
        raise ConfigError(
            "train_features and test_features must be set together")
    if config["task"] == "entanglement" and not config["train_features"]:
        for key in ("n_train", "n_test"):
            if config[key] % 2:
                raise ConfigError(
                    f"{key} must be even for entanglement (balanced "
                    f"classes), got {config[key]}")


def cmd_rc(config, out_dir, check=False):
    _check_rc_config(config)
    features, n_classes, sequence_length = RC_TASKS[config["task"]]
    n_out = n_classes(config)
    window = config["window"] or sequence_length(config)
    if config["train_features"]:
        train_set, test_set = _read_feature_sets(config, n_out)
    else:
        reservoir = Reservoir(ReservoirConfig(
            modes=config["modes"], photons=config["photons"],
            mesh_seed=config["mesh_seed"], shots=config["shots"],
            window=window, feedback=config["feedback"],
            sample_seed=config["seed"],
        ))
        train_set, test_set = features(config, reservoir)
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


def _check_tomography_config(config):
    shots, seed, phi = config["shots"], config["seed"], config["phi_global"]
    if shots is not None and not (_is_int(shots) and shots >= 1):
        raise ConfigError(
            f"shots must be null (exact) or an integer >= 1, got {shots!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    if not _is_real(phi):
        raise ConfigError(
            f"phi_global must be a finite real number, got {phi!r}")


def cmd_tomography(config, out_dir, check=False):
    _check_tomography_config(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    shots = config["shots"]
    rows = []
    fixtures = table_fixtures(config["phi_global"])
    # one ascent per distinct count table of this command, all of them
    # in lock step at the first reconstruction
    ascents = pending_ascents(fixtures, shots, config["seed"])
    for fixture in fixtures:
        report = reconstruction_roundtrip(
            fixture.beta2, fixture.reflectivity, shots=shots,
            seed=config["seed"], phi_global=config["phi_global"],
            ascents=ascents)
        rows.append({
            "beta2": fixture.beta2,
            "reflectivity": fixture.reflectivity,
            "fidelity": report.fidelity_to_theory,
            "purity": report.purity,
        })
    samples = [(f.reflectivity, f.rho[1, 2]) for f in fixtures
               if abs(f.rho[1, 2]) > 1e-9]
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

def _shots(value):
    """--shots: 'exact' (None) or an integer count."""
    if value == "exact":
        return None
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'exact' or an integer, got {value!r}")


def _on_off(value):
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(
            f"must be 'on' or 'off', got {value!r}")
    return value == "on"


# name -> (defaults, entry point, help)
COMMANDS = {
    "hysteresis": (HYSTERESIS_DEFAULTS, cmd_hysteresis,
                   "closed-loop hysteresis panels"),
    "purity-map": (PURITY_MAP_DEFAULTS, cmd_purity_map,
                   "output-state purity grid"),
    "rc": (RC_DEFAULTS, cmd_rc, "reservoir-computing tasks"),
    "tomography": (TOMOGRAPHY_DEFAULTS, cmd_tomography,
                   "16-state reconstruction round trip"),
}

# config key -> (argument, add_argument keywords); a command takes the
# arguments of the keys its defaults hold
ARGUMENTS = {
    "task": ("task", {"choices": list(RC_TASKS)}),
    "seed": ("--seed", {"type": int}),
    "law": ("--law", {"choices": [WINDOWED, LOWPASS, FROZEN]}),
    "encoding": ("--encoding", {"choices": [QUANTUM, COHERENT]}),
    "feedback": ("--feedback", {"type": _on_off, "metavar": "{on,off}"}),
    "shots": ("--shots", {"type": _shots,
                          "help": "'exact' or an integer count"}),
}


def build_parser():
    """One subcommand per COMMANDS entry.  Its override arguments
    default to argparse.SUPPRESS, so only those given reach the
    parsed namespace."""
    parser = argparse.ArgumentParser(
        prog="qumem",
        description="photonic quantum memristor simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (defaults, _, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (unknown keys rejected)")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory")
        p.add_argument("--check", action="store_true", default=False,
                       help="exit 4 if result thresholds are not met")
        for key, (flag, options) in ARGUMENTS.items():
            if key in defaults:
                p.add_argument(flag, **options)
    return parser


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    defaults, run, _ = COMMANDS[args.pop("command")]
    path, out_dir, check = (args.pop(k) for k in ("config", "out", "check"))
    try:
        run(resolve_config(defaults, path, args), out_dir, check)
    except (ConfigError, ValueError, TypeError) as exc:
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
