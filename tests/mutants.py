"""Single-line mutations of src/qumem, and the tests under tests/ that
kill each one.

Each mutation puts its text in place of a target that occurs exactly
once in src/qumem.  A test whose reference repeats the library's own
arithmetic may leave tests/ only when every mutation it kills is also
killed by a test that stays.

    python tests/mutants.py --check
    python tests/mutants.py KILLS.json [--jobs N] [--first-failure] [NAME ...]
    python tests/mutants.py --compare BEFORE.json AFTER.json

--check exits 1 unless every target occurs once; it runs no tests.
Otherwise each mutation (all unless named) is applied to a temporary
copy of src/, tests/, demos/ and pyproject.toml, which then runs
`python -m pytest tests --hypothesis-seed=0` (the unmutated copy runs
first and must pass).  KILLS.json gets each mutation's failing tests,
a timeout counting as a kill, and stdout a markdown row per mutation.
--first-failure stops each run at its first failing test (pytest -x)
and records only "killed" or "survives": enough for --compare, not
for a table of kills per test, which needs the full run.  --compare
prints both kill counts of each mutation of two such files and exits
1 if a mutation killed in BEFORE survives in AFTER (or is missing from
it).
"""

import argparse
import functools
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600.0  # seconds per run of tests/; a timeout counts as a kill

MUTATIONS = [  # (name, target, text)
    # memristor: the sliding-window law and the feedback inversion
    ("window-evicts-one-late", "while window and window[0] <= cutoff:",
     "while window and window[0] < cutoff:"),
    ("window-term-sign", "term = (n_in - 0.5)", "term = (0.5 - n_in)"),
    ("window-total-sign", "r = 0.5 + total", "r = 0.5 - total"),
    ("window-resum-late", "countdown = len(terms)",
     "countdown = len(terms) + 1"),
    ("lowpass-rate", "math.exp(-2.0 * math.pi * self.f_cut",
     "math.exp(-math.pi * self.f_cut"),
    ("clamp-floor-zero", "r = R_MIN if r < R_MIN", "r = 0.0 if r < R_MIN"),
    ("clamp-no-ceiling", "self.R = 1.0 if r > 1.0 else r", "self.R = r"),
    ("start-unclamped", "self.R = min(max(reflectivity, R_MIN), 1.0)",
     "self.R = min(max(reflectivity, 0.0), 1.0)"),
    ("estimate-times-r", "n_meas_d / r_prev", "n_meas_d * r_prev"),
    ("estimate-no-ceiling", "else 1.0 if n_in > 1.0 else n_in", "else n_in"),
    # reservoir: theta, the bank, the final step and the meshes
    ("theta-rails-swapped", "np.array(rails)[:, 1:]",
     "np.array(rails)[:, :0:-1]"),
    ("theta-conj-dropped", "lowered.conj(), lowered)", "lowered, lowered)"),
    ("theta-im-sign", "g[..., 0, 1].imag", "g[..., 1, 0].imag"),
    ("feedback-wrong-sqrt", "math.sqrt(r * (1.0 - r)) * g_tf",
     "math.sqrt(r) * g_tf"),
    ("bank-time-shifted", "for t in range(1, len(inputs) + 1)]",
     "for t in range(2, len(inputs) + 2)]"),
    ("bank-held-after-step", "held.append(last)", "held.append(r)"),
    ("layer-t-and-r-swapped", "lifts(np.sqrt(1.0 - r) + 0j, 1j * np.sqrt(r))",
     "lifts(np.sqrt(r) + 0j, 1j * np.sqrt(1.0 - r))"),
    ("layer-reflection-sign", "0j, 1j * np.sqrt(r))", "0j, -1j * np.sqrt(r))"),
    ("reinjection-overwrites", "occ[thru] += occ[fb]", "occ[thru] = occ[fb]"),
    ("output-last-branch-only", 'np.einsum("bij,bij->i", parts, parts)',
     'np.einsum("ij,ij->i", parts[-1], parts[-1])'),
    ("output-single-state-unsquared", "np.abs(self.u_out_f[:, targets]) ** 2",
     "np.abs(self.u_out_f[:, targets])"),
    ("sampling-stream-shifted", "default_rng(cfg.sample_seed)",
     "default_rng(cfg.sample_seed); self._rng.random()"),
    ("mesh-half-phase", "ph = 2.0 * math.pi *", "ph = math.pi *"),
    ("mesh-t-and-r-swapped", "math.sqrt(1.0 - r), 1j * math.sqrt(r),",
     "math.sqrt(r), 1j * math.sqrt(1.0 - r),"),
    ("mesh-cache-ignores-seed", "_meshes(cfg.modes, cfg.mesh_seed)",
     "_meshes(cfg.modes, 2021)"),
    ("coherent-ket-unnormalised", "ket / np.linalg.norm(ket)", "ket"),
    ("coherent-mesh-no-sqrt", "* np.sqrt(weights[keep]))", "* weights[keep])"),
    ("coherent-state-no-sqrt", "kets * np.sqrt(w[keep])", "kets * w[keep]"),
    ("amplitude-norm-squared", "v / norm", "v / norm ** 2"),
    # hysteresis: the closed loop, the drive cache, the detector and the
    # trace CSV
    ("drive-lead-digits", 'tuple("%.12g,', 'tuple("%.13g,'),
    ("trace-csv-digits", '%.12g\\r\\n".join', '%.11g\\r\\n".join'),
    ("trace-csv-lead-digits", 'lead = ["%.12g,%.12g"',
     'lead = ["%.12g,%.11g"'),
    ("detector-filter-sign", "self._scale - filtered)",
     "self._scale + filtered)"),
    ("detector-alpha", "self._alpha = 1.0 - math.exp",
     "self._alpha = math.exp"),
    ("loop-drops-r", "estimate(max_rate * r * n_in)",
     "estimate(max_rate * n_in)"),
    ("loop-n-out", "(1.0 - R) * n_in_arr, R, meta)",
     "R * n_in_arr, R, meta)"),
    ("drive-key-ignores-dt", "dt: float = None",
     "dt: float = field(default=None, compare=False)"),
    ("drive-key-ignores-periods", "n_periods: int = 2",
     "n_periods: int = field(default=2, compare=False)"),
    ("drive-arrays-writable",
     "t_arr.flags.writeable = n_in_arr.flags.writeable = False",
     "t_arr.flags.writeable = n_in_arr.flags.writeable = True"),
    ("loop-counts-per-window", "* det.rc / drive.dt", "* det.rc * drive.dt"),
    # readout: encodings, features, training and the feature CSV
    ("features-csv-digits", '["%.12g"] * width', '["%.13g"] * width'),
    ("features-csv-header", 'f"p{i}"', 'f"p{i + 1}"'),
    ("columns-fallback-sum", "if c.any()", "if c.sum() > 0"),
    ("features-unscaled", "probs * probs.shape[-1]", "probs"),
    ("gradient-scale", "dz /= n", "dz /= n * n"),
    ("dataset-labels", "labels.append(0)", "labels.append(1)"),
    ("copies-one-short", "[EncodedInput(state)] * copies",
     "[EncodedInput(state)] * (copies - 1)"),
    # fock: basis order, the sector recursion, couplers and functionals
    ("sector-order-step", "i = min(i + 1, modes - 2)",
     "i = min(i, modes - 2)"),
    ("lift-no-col-scale", "u[:, col_mode] * col_scale", "u[:, col_mode]"),
    ("lift-no-sqrt-occupation", "np.sqrt(np.arange(1.0, k + 1))",
     "np.arange(1.0, k + 1)"),
    ("lift-first-parent-only", "acc += term", "acc = term"),
    ("lift-key-drops-photons", "u.tobytes(), basis.modes, basis.photons)",
     "u.tobytes(), basis.modes, 1)"),
    ("lift-memo-writable", "lifted.flags.writeable = False",
     "lifted.flags.writeable = True"),
    ("coupler-reflection-sign", "[[t, 1j * r], [1j * r, t]]",
     "[[t, -1j * r], [-1j * r, t]]"),
    ("density-no-conj", "(fac @ fac.conj().T)", "(fac @ fac.T)"),
    ("partial-trace-overwrites", "out[np.ix_(ridx, ridx)] +=",
     "out[np.ix_(ridx, ridx)] ="),
    ("purity-untransposed", '"ij,ji->", rho, rho', '"ij,ij->", rho, rho'),
    ("psd-sqrt-no-sqrt", "(evecs * np.sqrt(evals))", "(evecs * evals)"),
    ("fidelity-root-unsquared", "min(root * root, 1.0)", "min(root, 1.0)"),
    # tomography: the likelihood, the ascent, the phase model and the memos
    ("stencil-sign", "[_H] * 4 + [-_H] * 4", "[-_H] * 4 + [_H] * 4"),
    ("ascent-step-growth", "best, step * 1.5", "best, step * 2.0"),
    ("ascent-tol-tenfold", "rel_change >= _REL_TOL",
     "rel_change >= 10 * _REL_TOL"),
    ("line-search-quarter", "np.array([[1.0], [0.5]])",
     "np.array([[1.0], [0.25]])"),
    ("inversion-rows", "counts[[0, 1, 3]]", "counts[[0, 1, 2]]"),
    ("cholesky-im-sign", "params[:, 1] + 1j * params[:, 2]",
     "params[:, 1] - 1j * params[:, 2]"),
    ("likelihood-clamp", "[..., None], _EPS)", "[..., None], 1e-9)"),
    ("likelihood-signed-zero", "[:, -1] + 0.0", "[:, -1]"),
    ("ascend-slice-first", "lls[end - len(asked):end]", "lls[:len(asked)]"),
    ("install-p00-unweighted", "(1.0 - p00_estimate) * block", "block"),
    ("theory-state-writable", "rho.flags.writeable = False",
     "rho.flags.writeable = True"),
    ("click-key-drops-shape", "_click_rows(rho.tobytes(), rho.shape)",
     "_click_rows(rho.tobytes(), (3, 3))"),
    ("coherence-phase-no-pi", "+ math.pi - phi_global", "- phi_global"),
]


def check():
    """Problems with the list against the source files."""
    problems = (["a name is used twice"] if len({m[0] for m in MUTATIONS})
                < len(MUTATIONS) else [])
    for name, target, text in MUTATIONS:
        count = sum(p.read_text().count(target)
                    for p in ROOT.glob("src/qumem/*.py"))
        if count != 1 or "\n" in target + text:
            problems.append(f"{name}: target occurs {count} times")
    return problems


def run_tests(mutation, first_failure=False):
    """Failing tests of tests/ ("timeout" on a timeout) on a copy of the
    tree with the mutation (None: unmutated) applied; with
    `first_failure`, pytest stops at the first."""
    with tempfile.TemporaryDirectory(prefix="qumem-mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests", "demos"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.
                            ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        if mutation is not None:
            _, target, text = mutation
            for path in (work / "src" / "qumem").glob("*.py"):
                path.write_text(path.read_text().replace(target, text))
        env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1",
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "tests", "-q", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", "--junitxml=r.xml"]
            + ["-x"] * first_failure,
            cwd=work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            code = proc.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return ["timeout"]
        report = work / "r.xml"
        cases = ET.parse(report).iter("testcase") if report.exists() else []
        failed = {f"{case.get('classname').split('.')[-1]}.py::"
                  f"{case.get('name')}" for case in cases
                  if case.find("failure") is not None
                  or case.find("error") is not None}
        return sorted(failed) or ([f"<pytest exit {code}>"] if code else [])


def kill_cell(failed):
    """A kill-table cell: how many test functions a mutation's failing
    tests belong to, "survives", "timeout", "not run" (None), or a
    first-failure run's "killed" or "survives"."""
    if failed is None:
        return "not run"
    if isinstance(failed, str):
        return failed
    if failed == ["timeout"]:
        return "timeout"
    return len({test.split("[")[0] for test in failed}) or "survives"


def killed(failed):
    """Whether a KILLS.json entry, of a full or a first-failure run,
    records a kill."""
    return failed == "killed" or isinstance(failed, list) and bool(failed)


def compare(before, after):
    """The markdown rows of two kill tables, and the mutations killed in
    `before` that survive in (or are missing from) `after`."""
    names = [m[0] for m in MUTATIONS]
    names += [n for n in {**before, **after} if n not in names]
    rows = ["| mutation | before | after |", "| --- | --- | --- |"]
    lost = []
    for name in names:
        was, now = before.get(name), after.get(name)
        if was is None and now is None:
            continue
        rows.append(f"| `{name}` | {kill_cell(was)} | {kill_cell(now)} |")
        if killed(was) and not killed(now):
            lost.append(name)
    return rows, lost


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("out", nargs="?")
    parser.add_argument("names", nargs="*")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--first-failure", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_intermixed_args(argv)
    if args.compare:
        rows, lost = compare(*(json.loads(Path(p).read_text())
                               for p in args.compare))
        print("\n".join(rows))
        for name in lost:
            print(f"killed before, not after: {name}")
        return 1 if lost else 0
    if args.check or args.out is None:
        problems = check()
        print("\n".join(problems + [f"{len(MUTATIONS)} mutations, "
                                    f"{len(problems)} problems"]))
        return 1 if problems else 0
    failed = run_tests(None, args.first_failure)
    if failed:
        sys.exit(f"the unmutated tree fails: {failed}")
    chosen = [m for m in MUTATIONS if not args.names or m[0] in args.names]
    with ThreadPoolExecutor(args.jobs) as pool:
        kills = dict(zip([m[0] for m in chosen], pool.map(
            functools.partial(run_tests, first_failure=args.first_failure),
            chosen)))
    if args.first_failure:
        kills = {name: "killed" if failed else "survives"
                 for name, failed in kills.items()}
    Path(args.out).write_text(json.dumps(kills, indent=2) + "\n")
    print("| mutation | test functions that kill it |\n| --- | --- |")
    for name, failed in kills.items():
        print(f"| `{name}` | {kill_cell(failed)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
