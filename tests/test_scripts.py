"""Smoke tests of the sweep scripts in ``scripts/``, run in-process at small sizes."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


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
