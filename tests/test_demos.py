"""Smoke test: every demo script runs to exit 0.

Each demo runs from a copy in a temporary directory, so the CSV and PNG
files it writes beside itself stay out of the repository.  A demo whose
optional dependency (matplotlib, scikit-learn) is missing skips that
part and still exits 0.  QUMEM_DATA_DIR is dropped so the digit demo
never starts the full-size MNIST run.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = {key: value for key, value in os.environ.items()
           if key != "QUMEM_DATA_DIR"}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, script.name], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
