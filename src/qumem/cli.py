"""Command-line driver: hysteresis runs, purity maps, reservoir
classification tasks and tomography round trips.

Configs are JSON documents checked against the command's schema (key ->
default and rule; see `qumem <command> --help`) before any work starts.
Every report embeds the fully resolved config and seeds, outputs are
written atomically (temp file + rename), and identical config + seeds
give byte-identical outputs on one numpy/BLAS build.

Exit codes: 0 success, 1 internal error (the exception propagates with
its traceback), 2 config error, 3 data error, 4 failed --check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import textwrap
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from ._atomic import write_atomic
from .fock import _is_int
from .hysteresis import (
    EXACT,
    POISSON,
    DetectionConfig,
    DriveConfig,
    _lowpass_memristor,
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
    _CROP_SHAPE,
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
    fixture_counts,
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
# config plumbing: a schema maps each key to (default, Rule), and a Rule
# is a check (value -> bool) with the text of what it asks for

Rule = namedtuple("Rule", "check text")


def integer(low, high=math.inf):
    return Rule(lambda v: _is_int(v) and low <= v <= high,
                f"an integer >= {low}" if high == math.inf
                else f"an integer in [{low}, {high}]")


def number(above=-math.inf):
    return Rule(lambda v: type(v) in (int, float) and above < v < math.inf,
                "a finite number" if above == -math.inf
                else f"a finite number > {above}")


def one_of(*values):
    return Rule(lambda v: v in values,
                "one of " + ", ".join(map(json.dumps, values)))


def null_or(rule):
    return Rule(lambda v: v is None or rule.check(v), f"null or {rule.text}")


def list_of(rule, min_len=1, distinct=False):
    return Rule(lambda v: (isinstance(v, list) and len(v) >= min_len
                           and all(map(rule.check, v))
                           and not (distinct and len(set(v)) < len(v))),
                f"a list of >= {min_len} {'distinct ' * distinct}values, "
                f"each {rule.text}")


BOOLEAN = Rule(lambda v: isinstance(v, bool), "true or false")
PATH = Rule(lambda v: isinstance(v, str) and v != "", "a non-empty string")


def resolve_config(command, path=None, overrides=None):
    """`command`'s schema defaults updated by the JSON object at `path`,
    then by `overrides`, with values kept exactly as given.  Raises
    ConfigError unless every given key is in the schema and meets its
    rule, and the result meets the command's cross-key rule."""
    schema, relate = COMMANDS[command][:2]
    loaded = {}
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON text
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
    config = {key: default for key, (default, _) in schema.items()}
    for source in (loaded, overrides or {}):
        for key, value in source.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {key!r}")
            rule = schema[key][1]
            if not rule.check(value):
                raise ConfigError(f"{key} must be {rule.text}, got {value!r}")
        config.update(source)
    if relate is not None:
        relate(config)
    return config


def write_json(path, payload):
    """Numpy scalars and arrays are written as their Python values."""
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True,
                                  default=lambda obj: obj.tolist()) + "\n")


# ---------------------------------------------------------------------------
# commands: each one's schema, cross-key rule and entry point

HYSTERESIS_SCHEMA = {
    "T_osc": (10.0, number(0)),
    "ratios": ([0.05, 0.2, 0.4, 0.6, 0.8, 1.0], list_of(number(0))),
    "n_periods": (2, integer(1)),
    "dt": (None, null_or(number(0))),        # null: T_osc / 1000
    "law": (WINDOWED, one_of(WINDOWED, LOWPASS, FROZEN)),
    "f_cut": (4.62, number(0)),              # read by the lowpass law
    "noise": (EXACT, one_of(EXACT, POISSON)),
    "max_rate": (3.0e4, number(0)),
    "rc": (0.1, number(0)),
    "seed": (0, integer(0)),
    "warmup_periods": (1, integer(0)),
}


def _loop_configs(config):
    """The drive and detection configs of a hysteresis run."""
    return (DriveConfig(T_osc=config["T_osc"], n_periods=config["n_periods"],
                        dt=config["dt"]),
            DetectionConfig(max_rate=config["max_rate"], rc=config["rc"],
                            noise=config["noise"], seed=config["seed"]))


def _panel_memristor(config, ratio):
    """The memristor of the panel at `ratio`: the lowpass law's start
    state, or R = 0.5 with the window ratio * T_osc."""
    if config["law"] == LOWPASS:
        return _lowpass_memristor(config["f_cut"])
    return MemristorState(0.5, window_seconds=ratio * config["T_osc"],
                          law=config["law"])


def _relate_hysteresis(config):
    """warmup_periods < n_periods; dt <= T_osc/200; every panel's
    memristor can be built (a windowed or frozen one needs a finite
    window ratio * T_osc) and, with poisson noise, has rc below its
    feedback window: ratio * T_osc under the windowed law, 1/f_cut under
    the lowpass law."""
    if config["warmup_periods"] >= config["n_periods"]:
        raise ConfigError("warmup_periods must be < n_periods")
    try:
        det = _loop_configs(config)[1]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for ratio in config["ratios"]:
        try:
            _validate_loop(det, _panel_memristor(config, ratio))
        except ValueError as exc:
            raise ConfigError(f"ratios: panel {ratio!r}: {exc}") from None


def cmd_hysteresis(config, out_dir, check):
    drive, det = _loop_configs(config)
    ratios = list(config["ratios"])
    # only the windowed law with exact noise has checked thresholds
    checked = (check and config["law"] == WINDOWED
               and config["noise"] == EXACT)
    if checked and 0.01 not in ratios:
        ratios.append(0.01)  # the true low-frequency limit panel
    names = {}
    for ratio in ratios:
        other = names.setdefault(f"trace_T{ratio:g}", ratio)
        if other != ratio:
            raise ConfigError(f"ratios {other!r} and {ratio!r} share the "
                              f"trace file trace_T{ratio:g}.csv")
    t_osc = config["T_osc"]
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"config": config, "panels": []}
    # panels with equal memristors share a run: under the lowpass and
    # frozen laws the ratio only labels a panel
    runs = {}
    for ratio in ratios:
        mem = _panel_memristor(config, ratio)
        key = (mem.law, mem.feedback_window)
        if key not in runs:
            runs[key] = (run_lpf_loop(drive, mem.f_cut, det)
                         if mem.law == LOWPASS
                         else run_closed_loop(drive, mem, det))
        trace = runs[key]
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


PURITY_MAP_SCHEMA = {"grid": (101, integer(2))}


def cmd_purity_map(config, out_dir, check):
    n = config["grid"]
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
# memristor window); a digit image is fed as its columns
RC_TASKS = {
    "mnist": (_rc_mnist_features, lambda config: len(config["digits"]),
              lambda config: _CROP_SHAPE[1]),
    "entanglement": (_rc_entanglement_features, lambda config: 2,
                     lambda config: config["copies"]),
}

RC_SCHEMA = {
    "task": ("mnist", one_of(*RC_TASKS)),
    "encoding": (QUANTUM, one_of(QUANTUM, COHERENT)),
    "feedback": (True, BOOLEAN),
    "modes": (9, integer(3)),
    "photons": (3, integer(1)),
    "mesh_seed": (2021, integer(0)),
    "shots": (None, null_or(integer(1))),    # null: exact distribution
    "window": (None, null_or(integer(1))),   # null: task sequence length
    "hidden": (10, integer(1)),
    "epochs": (15, integer(1)),
    "lr": (0.05, number(0)),
    "batch_size": (32, integer(1)),
    "n_train": (1000, integer(1)),
    "n_test": (1000, integer(1)),
    "seed": (0, integer(0)),
    "digits": ([0, 3, 8], list_of(integer(0, 9), 2, distinct=True)),
    "d_loc": (12, integer(1)),
    "copies": (100, integer(1)),
    "data_dir": (None, null_or(PATH)),       # null: $QUMEM_DATA_DIR
    "train_features": (None, null_or(PATH)),  # precomputed feature CSVs:
    "test_features": (None, null_or(PATH)),   # skip the reservoir stage
}


def _relate_rc(config):
    """train_features and test_features are set together.  Without
    them, entanglement needs even n_train and n_test, and the reservoir
    dimension C(modes + photons - 1, photons) must hold d_loc^2
    (entanglement) or a digit column (mnist)."""
    if (config["train_features"] is None) != (config["test_features"] is None):
        raise ConfigError(
            "train_features and test_features must be set together")
    if config["train_features"] is not None:
        return
    entanglement = config["task"] == "entanglement"
    for key in ("n_train", "n_test") if entanglement else ():
        if config[key] % 2:
            raise ConfigError(f"{key} must be even for entanglement "
                              f"(balanced classes), got {config[key]}")
    what, need = (("d_loc^2", config["d_loc"] ** 2) if entanglement
                  else ("a digit column", _CROP_SHAPE[0]))
    dim = math.comb(config["modes"] + config["photons"] - 1, config["photons"])
    if dim < need:
        raise ConfigError(
            f"the reservoir dimension C(modes + photons - 1, photons) = "
            f"{dim} is below {what} = {need}")


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


def cmd_rc(config, out_dir, check):
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


TOMOGRAPHY_SCHEMA = {
    "shots": (None, null_or(integer(1))),    # null: exact statistics
    "seed": (0, integer(0)),
    "phi_global": (PHI_GLOBAL, number()),
}


def cmd_tomography(config, out_dir, check):
    out_dir.mkdir(parents=True, exist_ok=True)
    shots = config["shots"]
    rows = []
    fixtures = table_fixtures(config["phi_global"])
    # each count table drawn once; one ascent per distinct table, all of
    # them together at the first reconstruction
    tables = fixture_counts(fixtures, shots, config["seed"])
    ascents = pending_ascents(tables)
    for fixture, counts in zip(fixtures, tables):
        report = reconstruction_roundtrip(
            fixture.beta2, fixture.reflectivity, shots=shots,
            seed=config["seed"], phi_global=config["phi_global"],
            ascents=ascents, counts=counts)
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
        if abs(math.remainder(phi_fit - config["phi_global"], math.tau)) > 0.01:
            raise CheckFailure("global-phase round trip drifted")
    return payload


# ---------------------------------------------------------------------------
# argument parsing

def _shots(value):
    return None if value == "exact" else int(value)


def _on_off(value):
    """True for 'on', False for 'off'; the schema rejects other text."""
    return {"on": True, "off": False}.get(value, value)


# name -> (schema, cross-key rule, entry point, help)
COMMANDS = {
    "hysteresis": (HYSTERESIS_SCHEMA, _relate_hysteresis, cmd_hysteresis,
                   "closed-loop hysteresis panels"),
    "purity-map": (PURITY_MAP_SCHEMA, None, cmd_purity_map,
                   "output-state purity grid"),
    "rc": (RC_SCHEMA, _relate_rc, cmd_rc, "reservoir-computing tasks"),
    "tomography": (TOMOGRAPHY_SCHEMA, None, cmd_tomography,
                   "16-state reconstruction round trip"),
}

# config key -> (argument, add_argument keywords); a command takes the
# arguments of the keys its schema holds
ARGUMENTS = {
    "task": ("task", {"choices": list(RC_TASKS)}),
    "seed": ("--seed", {"type": int}),
    "law": ("--law", {"choices": [WINDOWED, LOWPASS, FROZEN]}),
    "encoding": ("--encoding", {"choices": [QUANTUM, COHERENT]}),
    "feedback": ("--feedback", {"type": _on_off, "metavar": "{on,off}"}),
    "shots": ("--shots", {"type": _shots, "metavar": "{exact,N}"}),
}


def _config_help(schema, relate):
    """The --help epilog: each config key = its default: its rule."""
    lines = ["config keys = defaults:"] + [
        f"  {key} = {json.dumps(default)}: {rule.text}"
        for key, (default, rule) in schema.items()]
    if relate is not None:
        lines.append(textwrap.fill(
            "cross-key rule: " + " ".join(relate.__doc__.split()),
            subsequent_indent="  "))
    return "\n".join(lines)


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
    for name, (schema, relate, _, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text,
                           argument_default=argparse.SUPPRESS,
                           epilog=_config_help(schema, relate),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (unknown keys rejected)")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory")
        p.add_argument("--check", action="store_true", default=False,
                       help="exit 4 if result thresholds are not met")
        for key, (flag, options) in ARGUMENTS.items():
            if key in schema:
                p.add_argument(flag, **options)
    return parser


def main(argv=None):
    """Run one command and return its exit code.  Config, data and
    --check faults are reported on stderr; other exceptions propagate."""
    args = vars(build_parser().parse_args(argv))
    name = args.pop("command")
    path, out_dir, check = (args.pop(k) for k in ("config", "out", "check"))
    try:
        COMMANDS[name][2](resolve_config(name, path, args), out_dir, check)
    except ConfigError as exc:
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
