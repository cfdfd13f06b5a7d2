"""Smoke tests of the sweep scripts in ``scripts/``, run in-process at small sizes,
and of the README's library tour, run in a fresh interpreter."""

import csv
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_run_clt_scan_threads_default_to_the_usable_cores():
    from projclt.cli import usable_cores

    assert _load("run_clt_scan").parse_args(["--out", "x"]).threads == usable_cores()


@pytest.mark.parametrize("l", [1, 2])
def test_run_clt_scan_writes_one_row_per_evaluation_point(tmp_path, l):
    out = tmp_path / "scan.csv"
    rc = _load("run_clt_scan").main(
        ["--bodies", "cube", "--n", "20", "--samples", "20000", "--l", str(l), "--out", str(out)]
    )
    assert rc == 0
    header, *rows = _read(out)
    assert header == ["body", "point", "ratio", "sup_abs_deviation", "shell_fraction"]
    # The default 41 grid points; for l = 2 each radius carries 16 directions.
    assert len(rows) == (41 if l == 1 else 41 * 16)
    assert all(row[0] == "cube" for row in rows)


def test_run_deconv_matrix_writes_one_row_per_body_and_parameter_set(tmp_path):
    script = _load("run_deconv_matrix")
    out = tmp_path / "matrix.csv"
    assert script.main(["--grid-points", "201", "--out", str(out)]) == 0
    header, *rows = _read(out)
    assert header == ["body", "n", "alpha", "beta", "epsilon", "R", "status",
                      "hypothesis_sup", "lower_margin_min", "upper_margin_min"]
    assert len(rows) == len(script.DEFAULT_MATRIX) * len(script.BODIES_1D)


def test_the_readme_library_tour_runs():
    # A fresh interpreter, so the tour sees only what its own imports load.
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
