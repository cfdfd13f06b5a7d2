"""End-to-end coverage of the command-line surface.

Most tests drive ``projclt.cli.main`` in-process for speed; one subprocess
test exercises the real ``python -m projclt`` entry point.  Artifacts must be
byte-reproducible for a given seed, independent of output directory and
thread count, so the echoed configuration embedded in each file deliberately
excludes paths and thread counts.
"""

import argparse
import filecmp
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import projclt.cli
import projclt.density
import projclt.samplers
import projclt.suite
from projclt.cli import main
from projclt.errors import InvalidSpec
from projclt.model import BodyKind, BodySpec, dumps, loads
from projclt.samplers import (
    BLOCK,
    SampleBatch,
    load_batch,
    sample_body,
    save_batch,
    save_batch_csv,
)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _child_env(**extra):
    """The environment of a ``python -m projclt`` child: this checkout's package first."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else ""), **extra}


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, columns, rows


# --------------------------------------------------------------- plumbing


def test_usage_errors_exit_with_code_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_required_parameter_exits_1(capsys):
    rc = main(["psi-scan", "--n", "100", "--l", "1", "--output", "/dev/null"])
    assert rc == 1
    assert "missing required parameter 'tmax'" in capsys.readouterr().err


def test_domain_errors_exit_1(capsys):
    rc = main(["sample", "--body", "pyramid", "--n", "4", "--samples", "10",
               "--seed", "1", "--output", "/dev/null"])
    assert rc == 1
    assert "unknown body kind" in capsys.readouterr().err


def test_a_batch_larger_than_physical_memory_exits_1(tmp_path, capsys):
    out = tmp_path / "x.bin"
    rc = main(["sample", "--body", "cube", "--n", "1000", "--samples", "100000000000",
               "--seed", "1", "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a 100000000000 x 1000 batch needs 800000000000000 bytes")
    assert "bytes of physical memory" in err
    assert not out.exists()


_RATIO = ["ratio", "--body", "cube", "--n", "20", "--samples", "20000", "--seed", "1"]
_SCAN = ["scan", "--body", "cube", "--n", "20", "--samples", "20000", "--seed", "1"]
_MTILDE = ["mtilde", "--body", "cube", "--n", "20", "--l", "2", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_RATIO + ["--l", "1", "--grid-points", "0"], "grid_points must be >= 1"),
        (_RATIO + ["--l", "2", "--grid-points", "0"], "grid_points must be >= 1"),
        (_RATIO + ["--l", "1", "--max-radius", "-1"], "max_radius must be positive"),
        (_RATIO + ["--l", "2", "--max-radius", "nan"], "max_radius must be positive"),
        (_RATIO + ["--l", "2", "--directions", "0"], "direction_count must be >= 1"),
        (_MTILDE + ["--t-points", "0"], "radii must be non-empty and nonnegative"),
        (_MTILDE + ["--t-max", "-1"], "radii must be non-empty and nonnegative"),
        (_MTILDE + ["--directions", "0"], "direction_count must be >= 1"),
    ],
    ids=["ratio_l1_no_points", "ratio_l2_no_points", "ratio_negative_radius",
         "ratio_nan_radius", "ratio_no_directions", "mtilde_no_points", "mtilde_negative_radius",
         "mtilde_no_directions"],
)
def test_a_bad_kde_grid_exits_1_before_anything_is_drawn(argv, message, tmp_path, monkeypatch,
                                                           capsys):
    def draw(*args, **kwargs):
        pytest.fail("a sample was drawn before the KDE grid was checked")

    monkeypatch.setattr(projclt.density, "project_body", draw)
    out = tmp_path / "r.json"
    assert main(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ratio", "--body", "cube", "--n", "20", "--l", "1", "--samples", "5000", "--seed", "1"],
         "density estimation needs >= 10000 samples, got 5000"),
        (_MTILDE + ["--samples-per-subspace", "5000"],
         "density estimation needs >= 10000 samples, got 5000"),
        (["ratio", "--body", "cube", "--n", "20", "--l", "4", "--samples", "20000", "--seed", "1"],
         "density estimation supports l <= 3, got l=4"),
        (["thinshell", "--body", "cube", "--n", "20", "--samples", "20000", "--seed", "1",
          "--epsilon", "0"],
         "epsilon must be positive, got 0.0"),
        (["thinshell", "--body", "cube", "--n", "20", "--samples", "20000", "--seed", "1",
          "--epsilon", "0.1", "--epsilon", "inf"],
         "epsilon must be positive, got inf"),
        (_SCAN + ["--l", "4"], "density estimation supports l <= 3, got l=4"),
        (_SCAN + ["--l", "1", "--samples", "5000"],
         "density estimation needs >= 10000 samples, got 5000"),
        (_SCAN + ["--l", "1", "--grid-points", "0"], "grid_points must be >= 1"),
        (["deconv-matrix", "--grid-points", "0"], "grid_points must be >= 1, got 0"),
        (_RATIO + ["--l", "0"], "l must be >= 1, got 0"),
        (_SCAN + ["--l", "0"], "l must be >= 1, got 0"),
    ],
    ids=["ratio_few_samples", "mtilde_few_samples", "ratio_l4", "thinshell_zero_epsilon", "thinshell_infinite_second_epsilon", "scan_l4",
         "scan_few_samples", "scan_no_points", "deconv_matrix_no_points", "ratio_l0", "scan_l0"],
)
def test_a_bad_value_exits_1_before_anything_is_drawn(argv, message, tmp_path, monkeypatch,
                                                      capsys):
    def draw(*args, **kwargs):
        pytest.fail("a sample or a basis was drawn before the arguments were checked")

    for module in (projclt.cli, projclt.density):
        monkeypatch.setattr(module, "sample_body", draw)
        monkeypatch.setattr(module, "random_subspace", draw)
    out = tmp_path / "r.json"
    assert main(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert list(tmp_path.iterdir()) == []


_THREADED = {
    "sample": ["sample", "--body", "cube", "--n", "5", "--samples", "100", "--seed", "1"],
    "project": ["project", "--input", "in.bin", "--l", "1", "--seed", "1"],
    "ratio": _RATIO + ["--l", "1"],
    "thinshell": ["thinshell", "--body", "cube", "--n", "5", "--samples", "100", "--seed", "1"],
    "mtilde": _MTILDE,
    "scan": _SCAN + ["--l", "1"],
}


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("subcommand", sorted(_THREADED))
def test_a_thread_count_below_1_exits_1_and_writes_nothing(subcommand, threads, tmp_path,
                                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_batch(sample_body(BodySpec("cube", 5), 100, seed=1), "in.bin")
    (tmp_path / "out").mkdir()
    argv = _THREADED[subcommand] + ["--threads", threads, "--output", "out/r"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: threads must be >= 1, got {threads}\n"
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("subcommand", sorted(_THREADED))
def test_a_negative_seed_exits_1_and_writes_nothing(subcommand, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_batch(sample_body(BodySpec("cube", 5), 100, seed=1), "in.bin")
    (tmp_path / "out").mkdir()
    argv = _THREADED[subcommand] + ["--seed", "-1", "--output", "out/r"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"], ids=repr)
def test_a_seed_that_is_not_a_non_negative_integer_is_refused(seed):
    with pytest.raises(InvalidSpec, match=f"seed must be a non-negative integer, got {seed!r}"):
        sample_body(BodySpec("cube", 3), 10, seed)


def test_the_default_thread_count_is_the_usable_core_count(monkeypatch):
    cores = len(os.sched_getaffinity(0))
    assert projclt.cli.usable_cores() == cores
    for name in ("sample", "ratio", "thinshell", "mtilde", "scan"):
        args = projclt.cli.build_parser().parse_args(_THREADED[name] + ["--output", "x"])
        resolved, echo = projclt.cli._resolve(args, args.params)
        assert resolved["threads"] == cores and "threads" not in echo
    monkeypatch.delattr(os, "sched_getaffinity")
    assert projclt.cli.usable_cores() == os.cpu_count()


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--body", "cube", "--n", "4", "--samples", "10"],
        ["project", "--input", "batch.bin", "--l", "1"],
        ["ratio", "--body", "cube", "--n", "4", "--l", "1", "--samples", "10"],
        ["thinshell", "--body", "cube", "--n", "4", "--samples", "10"],
        ["mtilde", "--body", "cube", "--n", "4", "--l", "1"],
        ["scan", "--n", "4", "--l", "1", "--samples", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_stochastic_commands_need_a_seed(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main(argv + ["--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: missing required parameter 'seed'\n"
    assert not out.exists()


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"n": 100, "l": 1, "points": 5}))
    out = tmp_path / "scan.csv"
    rc = main(["psi-scan", "--config", str(cfg), "--tmax", "1.5", "--output", str(out)])
    assert rc == 0
    header, _, rows = _read_csv(out)
    assert header["config"]["n"] == 100
    assert len(rows) == 5

    # explicit flags win over the config file
    out2 = tmp_path / "scan2.csv"
    rc = main(["psi-scan", "--config", str(cfg), "--tmax", "1.5", "--points", "3",
               "--output", str(out2)])
    assert rc == 0
    assert len(_read_csv(out2)[2]) == 3

    cfg.write_text(json.dumps({"n": 100, "l": 1, "bogus_knob": 7}))
    rc = main(["psi-scan", "--config", str(cfg), "--tmax", "1.5", "--output", str(out)])
    assert rc == 1
    assert "unknown parameters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        ("[1, 2]", "must hold a JSON object, got list"),
        ('{"n": 100,', "is not valid JSON"),
        (None, "cannot read config file"),
    ],
    ids=["json_list", "malformed_json", "missing_file"],
)
def test_bad_config_file_exits_1_naming_the_file(tmp_path, capsys, content, message):
    cfg = tmp_path / "bad.json"
    if content is not None:
        cfg.write_text(content)
    rc = main(["psi-scan", "--config", str(cfg), "--tmax", "1.5",
               "--output", str(tmp_path / "scan.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err and str(cfg) in err


_PSI = ["psi-scan", "--l", "1"]
_SHELL = ["thinshell", "--body", "cube", "--n", "5", "--samples", "100", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, cfg, message",
    [
        (_PSI + ["--tmax", "1"], {"n": "ten"}, "'n' must be an integer, got 'ten'"),
        (_PSI + ["--tmax", "1"], {"n": 10.7}, "'n' must be an integer, got 10.7"),
        (_PSI + ["--tmax", "1"], {"n": True}, "'n' must be an integer, got True"),
        (_PSI + ["--n", "10"], {"tmax": "1.5"}, "'tmax' must be a number, got '1.5'"),
        (_PSI + ["--n", "10"], {"tmax": False}, "'tmax' must be a number, got False"),
        (_SHELL, {"epsilon": [0.1, "0.2"]}, "'epsilon' must be a number, got '0.2'"),
        (_SHELL, {"epsilon": [0.1, None]}, "'epsilon' must be a number, got None"),
        (_SHELL, {"epsilon": "0.1"}, "'epsilon' must be a number, got '0.1'"),
        (_SHELL, {"epsilon": []}, "'epsilon' must list at least one value"),
        (["scan", *_SHELL[3:], "--l", "1"], {"body": []}, "'body' must list at least one value"),
    ],
    ids=["int_string", "int_fraction", "int_bool", "float_string", "float_bool",
         "append_string", "append_null", "append_scalar_string", "append_empty",
         "scan_append_empty"],
)
def test_config_values_must_match_the_parameter_type(tmp_path, capsys, argv, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main([*argv, "--config", str(path), "--output", str(tmp_path / "out.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config parameter ") and message in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, cfg, message",
    [
        (["suite"], {"profile": 5}, "parameter 'profile' must be one of 'desk', 'quick', got 5"),
        (["suite"], {"profile": "full"}, "'profile' must be one of 'desk', 'quick', got 'full'"),
        (_SHELL[:1] + _SHELL[3:], {"body": 5}, "config parameter 'body' must be a string, got 5"),
        (["sample", *_SHELL[1:]], {"format": "json"}, "'format' must be one of 'bin', 'csv'"),
        (["suite", "--profile", "quick"], {"only": 5}, "'only' must be comma-separated integers"),
        (["suite", "--profile", "quick"], {"only": "2,x"}, "'only' must be comma-separated"),
        (["suite", "--profile", "quick"], {"only": [2, "3"]}, "'only' must be comma-separated"),
        (["suite", "--profile", "quick"], {"only": [True]}, "'only' must be comma-separated"),
    ],
    ids=["choice_int", "choice_string", "string_int", "format_choice", "only_int",
         "only_bad_string", "only_mixed_list", "only_bool_list"],
)
def test_config_values_must_be_accepted_choices_and_strings(tmp_path, capsys, argv, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main([*argv, "--config", str(path), "--output", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_suite_only_flag_rejects_non_integers(capsys):
    assert main(["suite", "--profile", "quick", "--only", "2,x"]) == 1
    assert "'only' must be comma-separated integers" in capsys.readouterr().err


def test_suite_only_accepts_a_config_list_echoed_as_written(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": "quick", "only": [2]}))
    out = tmp_path / "suite.json"
    assert main(["suite", "--config", str(path), "--output", str(out)]) == 0
    assert re.search(r"\[PASS\] criterion\s+2 ", capsys.readouterr().out)
    assert json.loads(out.read_text())["config"] == {
        "subcommand": "suite", "profile": "quick", "only": [2]
    }


def test_accepted_config_values_are_echoed_as_written(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 40.0, "l": 1, "tmax": 1, "points": 3}))
    out = tmp_path / "scan.csv"
    assert main(["psi-scan", "--config", str(path), "--output", str(out)]) == 0
    first = out.read_text().splitlines()[0]
    assert '"n": 40.0' in first and '"tmax": 1,' in first
    rows = _read_csv(out)[2]
    assert len(rows) == 3

    shell = tmp_path / "shell.json"
    shell.write_text(json.dumps({"epsilon": [0.1, 1]}))
    out = tmp_path / "shell.csv"
    assert main([*_SHELL, "--config", str(shell), "--output", str(out)]) == 0
    assert [row[0] for row in _read_csv(out)[2]] == ["0.1", "1.0"]


# ------------------------------------------------------------ golden surface

GOLDEN_OPTIONS = {
    "sample": ["--body", "--config", "--format", "--n", "--output", "--samples", "--seed",
               "--threads"],
    "project": ["--basis-out", "--config", "--format", "--input", "--l", "--output", "--seed",
                "--threads"],
    "ratio": ["--alpha", "--body", "--config", "--csv", "--directions", "--grid-points", "--l",
              "--max-radius", "--n", "--output", "--samples", "--seed", "--threads"],
    "thinshell": ["--body", "--config", "--epsilon", "--n", "--output", "--samples", "--seed",
                  "--threads"],
    "psi-scan": ["--config", "--l", "--n", "--output", "--points", "--tmax"],
    "mtilde": ["--alpha", "--body", "--config", "--csv", "--directions", "--l", "--n", "--output",
               "--samples-per-subspace", "--seed", "--subspaces", "--t-max", "--t-points",
               "--threads"],
    "deconv": ["--R", "--alpha", "--beta", "--c0", "--config", "--epsilon", "--n", "--output"],
    "deconv-verify": ["--R", "--alpha", "--beta", "--body", "--c0", "--config", "--epsilon",
                      "--grid-points", "--json", "--n", "--output"],
    "suite": ["--config", "--only", "--output", "--profile"],
    "scan": ["--alpha", "--body", "--config", "--grid-points", "--l", "--max-radius", "--n",
             "--output", "--samples", "--seed", "--threads"],
    "deconv-matrix": ["--config", "--grid-points", "--output"],
}


def test_golden_option_strings():
    from projclt.cli import build_parser

    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(opt for action in sub._actions for opt in action.option_strings
                     if opt not in ("-h", "--help"))
        for name, sub in subparsers.choices.items()
    }
    assert options == GOLDEN_OPTIONS


# (argv at a tiny size, artifact holding the echo, exact echoed key list)
GOLDEN_ECHO = {
    "sample": (
        ["--body", "cube", "--n", "3", "--samples", "10", "--seed", "1"], "out.bin",
        ["subcommand", "body", "n", "samples", "seed", "format"],
    ),
    "project": (
        ["--l", "1", "--seed", "2"], "out.bin",
        ["subcommand", "input", "l", "seed", "format"],
    ),
    "ratio": (
        ["--body", "gaussian", "--n", "3", "--l", "1", "--samples", "10000", "--seed", "3",
         "--grid-points", "5"], "out.json",
        ["subcommand", "body", "n", "l", "samples", "seed", "alpha", "max_radius", "grid_points"],
    ),
    "thinshell": (
        ["--body", "ball", "--n", "3", "--samples", "10", "--seed", "4"], "out.csv",
        ["subcommand", "body", "n", "samples", "seed", "epsilon"],
    ),
    "psi-scan": (
        ["--n", "10", "--l", "1", "--tmax", "1.0", "--points", "3"], "out.csv",
        ["subcommand", "n", "l", "tmax", "points"],
    ),
    "mtilde": (
        ["--body", "gaussian", "--n", "4", "--l", "1", "--t-points", "2", "--subspaces", "1",
         "--samples-per-subspace", "10000", "--directions", "2", "--seed", "5"], "out.json",
        ["subcommand", "body", "n", "l", "alpha", "t_max", "t_points", "subspaces",
         "samples_per_subspace", "seed"],
    ),
    "deconv": (
        ["--n", "8", "--alpha", "1e-28", "--beta", "0.5", "--epsilon", "0.001", "--R", "10"],
        "out.json",
        ["subcommand", "n", "alpha", "beta", "epsilon", "R", "c0"],
    ),
    "deconv-verify": (
        ["--body", "gaussian", "--n", "8", "--alpha", "1e-28", "--beta", "0.5", "--epsilon",
         "0.001", "--R", "10", "--grid-points", "11"], "out.csv",
        ["subcommand", "body", "n", "alpha", "beta", "epsilon", "R", "c0", "grid_points"],
    ),
    "suite": (
        ["--only", "2"], "out.json",
        ["subcommand", "profile", "only"],
    ),
    "scan": (
        ["--body", "gaussian", "--n", "3", "--l", "1", "--samples", "10000", "--seed", "3",
         "--grid-points", "5"], "out.csv",
        ["subcommand", "body", "n", "l", "samples", "seed", "alpha", "max_radius", "grid_points"],
    ),
    "deconv-matrix": (
        ["--grid-points", "11"], "out.csv",
        ["subcommand", "grid_points"],
    ),
}


def _echoed_config(path):
    if path.suffix == ".bin":
        return json.loads(path.with_name(path.name + ".json").read_text())["config"]
    if path.suffix == ".csv":
        return _read_csv(path)[0]["config"]
    return json.loads(path.read_text())["config"]


@pytest.mark.parametrize("subcommand", sorted(GOLDEN_ECHO))
def test_golden_echoed_config_keys(subcommand, tmp_path, capsys):
    argv, artifact, keys = GOLDEN_ECHO[subcommand]
    if subcommand == "project":
        src = tmp_path / "src.bin"
        assert main(["sample", "--body", "cube", "--n", "3", "--samples", "10", "--seed", "1",
                     "--output", str(src)]) == 0
        argv = argv + ["--input", str(src)]
    out = tmp_path / artifact
    assert main([subcommand, *argv, "--output", str(out)]) == 0
    assert list(_echoed_config(out)) == keys


_L1_RUNS = {
    "ratio": ["ratio", "--body", "cube", "--n", "6", "--samples", "10000", "--seed", "3",
              "--grid-points", "5"],
    "mtilde": ["mtilde", "--body", "cube", "--n", "6", "--t-points", "3", "--subspaces", "1",
               "--samples-per-subspace", "10000", "--seed", "5"],
}


@pytest.mark.parametrize("subcommand", sorted(_L1_RUNS))
def test_directions_are_neither_checked_nor_echoed_at_l1(subcommand, tmp_path):
    # The l = 1 grid is each radius with both signs, so --directions names no
    # part of it: no value of it is refused or changes a byte.
    artifacts = set()
    for directions in ("16", "3", "0"):
        out = tmp_path / f"{directions}.json"
        assert main([*_L1_RUNS[subcommand], "--l", "1", "--directions", directions,
                     "--output", str(out)]) == 0
        artifacts.add(out.read_bytes())
    assert len(artifacts) == 1
    assert b"direction" not in artifacts.pop()
    out = tmp_path / "l2.json"
    assert main([*_L1_RUNS[subcommand], "--l", "2", "--directions", "3",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["directions"] == 3


# ------------------------------------------------------------------ sample


def test_sample_writes_loadable_batch(tmp_path):
    out = tmp_path / "cube.bin"
    rc = main(["sample", "--body", "cube", "--n", "4", "--samples", "500",
               "--seed", "7", "--output", str(out)])
    assert rc == 0
    batch = load_batch(str(out))
    assert batch.data.shape == (500, 4)
    assert np.abs(batch.data).max() <= np.sqrt(3) + 1e-12
    sidecar = json.loads((tmp_path / "cube.bin.json").read_text())
    assert sidecar["config"]["subcommand"] == "sample"
    assert sidecar["config"]["samples"] == 500
    assert "output" not in sidecar["config"]


def test_sample_is_byte_reproducible_across_dirs_and_threads(tmp_path):
    # Five full blocks and a short last one: the workers share the blocks
    # differently at each thread count.
    args = ["sample", "--body", "simplex", "--n", "6", "--samples", str(5 * BLOCK + 7),
            "--seed", "11"]
    dirs = [tmp_path / str(threads) for threads in (1, 2, 3)]
    for threads, d in enumerate(dirs, start=1):
        d.mkdir()
        assert main(args + ["--output", str(d / "x.bin"), "--threads", str(threads)]) == 0
    for d in dirs[1:]:
        assert filecmp.cmp(dirs[0] / "x.bin", d / "x.bin", shallow=False)
        assert (dirs[0] / "x.bin.json").read_text() == (d / "x.bin.json").read_text()


def test_sample_csv_format(tmp_path):
    out = tmp_path / "ball.csv"
    rc = main(["sample", "--body", "ball", "--n", "3", "--samples", "40",
               "--seed", "13", "--output", str(out), "--format", "csv"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "x0,x1,x2"
    assert len(lines) == 42
    values = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.linalg.norm(values, axis=1).max() <= np.sqrt(5) * (1 + 1e-12)


_SAMPLE = ["sample", "--body", "cube", "--n", "4", "--samples", "10", "--seed", "1"]


def test_sample_has_no_alpha_flag(tmp_path, capsys):
    # Smoothing is a library call (samplers.convolve_and_rescale); sample draws no noise.
    with pytest.raises(SystemExit) as exc:
        main(_SAMPLE + ["--alpha", "10", "--output", str(tmp_path / "s.bin")])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_config_file_that_sets_alpha_for_sample_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 10.0}))
    out = tmp_path / "s.bin"
    assert main(_SAMPLE + ["--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: config file sets unknown parameters: alpha\n"
    assert not out.exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_a_sample_failed_midway_leaves_no_batch_file_sidecar_or_temp_file(
    threads, tmp_path, monkeypatch
):
    fill = projclt.samplers._FILLS[BodyKind.CUBE]
    calls = []

    def fail_on_the_third_block(rng, out, rows):
        calls.append(rows)
        if len(calls) == 3:
            raise RuntimeError("fill failed")
        fill(rng, out, rows)

    monkeypatch.setitem(projclt.samplers._FILLS, BodyKind.CUBE, fail_on_the_third_block)
    with pytest.raises(RuntimeError, match="fill failed"):
        main(["sample", "--body", "cube", "--n", "3", "--samples", str(32 * BLOCK + 3),
              "--seed", "1", "--threads", str(threads), "--output", str(tmp_path / "x.bin")])
    assert list(tmp_path.iterdir()) == []


def test_sample_to_a_fifo_is_refused_before_anything_is_drawn(tmp_path, monkeypatch, capsys):
    def draw(*args, **kwargs):
        pytest.fail("a sample was drawn for a FIFO")

    monkeypatch.setitem(projclt.samplers._FILLS, BodyKind.CUBE, draw)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    rc = main(["sample", "--body", "cube", "--n", "3", "--samples", "10", "--seed", "1",
               "--output", str(fifo)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write batch file {fifo}: ")
    assert list(tmp_path.iterdir()) == [fifo]


def test_sample_to_dev_null_exits_0(tmp_path):
    # Through a link, so that the sidecar lands beside it and not in /dev.
    null = tmp_path / "null.bin"
    null.symlink_to(os.devnull)
    rc = main(["sample", "--body", "cube", "--n", "3", "--samples", str(BLOCK + 1), "--seed", "1",
               "--output", str(null)])
    assert rc == 0
    assert null.is_symlink() and (tmp_path / "null.bin.json").is_file()


# ----------------------------------------------------------------- project


def test_project_pipeline(tmp_path):
    src = tmp_path / "src.bin"
    assert main(["sample", "--body", "gaussian", "--n", "12", "--samples", "300",
                 "--seed", "19", "--output", str(src)]) == 0
    dst = tmp_path / "proj.bin"
    basis_path = tmp_path / "basis.json"
    rc = main(["project", "--input", str(src), "--l", "2", "--seed", "23",
               "--output", str(dst), "--basis-out", str(basis_path)])
    assert rc == 0
    payload = json.loads(basis_path.read_text())
    assert payload["config"]["subcommand"] == "project"
    basis = loads(json.dumps(payload["basis"]))
    assert basis.rows.shape == (2, 12)
    original = load_batch(str(src))
    projected = load_batch(str(dst))
    np.testing.assert_array_equal(projected.data, original.data @ basis.rows.T)


def test_project_bytes_do_not_depend_on_the_openblas_thread_count(tmp_path):
    # A one-shot l = 1 product of this batch is split between OpenBLAS's
    # threads, and the row at the split rounds by the thread count; project's
    # BLOCK-row slabs round every row alike.
    batch = sample_body(BodySpec("simplex", 20), 131_089, seed=7)
    save_batch(batch, str(tmp_path / "batch.bin"))
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "projclt", "project", "--input", str(tmp_path / "batch.bin"),
             "--l", "1", "--seed", "6", "--output", str(tmp_path / f"p{threads}.bin")],
            capture_output=True, text=True, env=_child_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "p1.bin").read_bytes() == (tmp_path / "p2.bin").read_bytes()


def test_project_of_a_missing_input_exits_1_naming_the_sidecar(tmp_path, capsys):
    missing = tmp_path / "missing.bin"
    rc = main(["project", "--input", str(missing), "--l", "1", "--seed", "1",
               "--output", str(tmp_path / "p.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read batch sidecar") and f"{missing}.json" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"count": 2.5}, "key 'count' must be a positive integer, got 2.5"),
        ({"count": "10", "dimension": "4"}, "key 'count' must be a positive integer, got '10'"),
        ({"dimension": "4"}, "key 'dimension' must be a positive integer, got '4'"),
        ({"count": 10**11, "dimension": 1000}, "a 100000000000 x 1000 batch needs"),
    ],
)
def test_project_of_a_bad_sidecar_exits_1(tmp_path, capsys, edit, message):
    src = tmp_path / "src.bin"
    save_batch(sample_body(BodySpec("cube", 4), 10, seed=1), str(src))
    sidecar = json.loads((tmp_path / "src.bin.json").read_text())
    (tmp_path / "src.bin.json").write_text(json.dumps({**sidecar, **edit}))
    rc = main(["project", "--input", str(src), "--l", "1", "--seed", "1",
               "--output", str(tmp_path / "p.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_project_of_a_batch_with_a_nan_in_its_last_row_writes_nothing(tmp_path, capsys):
    # The last row lies in the short last block, which is read into the top
    # rows of a BLOCK-row buffer, above rows of the block before it.
    data = sample_body(BodySpec("cube", 4), 3 * BLOCK + 5, seed=1).data.copy()
    data[-1, 2] = np.nan
    src = tmp_path / "src.bin"
    save_batch(SampleBatch(data=data, seed=1, source={}), str(src))
    rc = main(["project", "--input", str(src), "--l", "2", "--seed", "1", "--threads", "2",
               "--output", str(tmp_path / "p.bin"), "--basis-out", str(tmp_path / "basis.json")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: batch file {src} holds non-finite values\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["src.bin", "src.bin.json"]


_BATCH = sample_body(BodySpec("cube", 2), 10, seed=1)
_WRITERS = {
    "save_batch": lambda path: save_batch(_BATCH, path),
    "save_batch_csv": lambda path: save_batch_csv(_BATCH, path),
    "dump_json": lambda path: projclt.cli._dump_json(path, {}, x=1),
    "write_csv": lambda path: projclt.cli._write_csv(path, {}, ("x",), [(1.5,)]),
}
# The serializer each writer calls after its target's temp file is open.
_SERIALIZERS = {"save_batch": "dump", "save_batch_csv": "dumps", "write_csv": "_csv_cell"}


@pytest.mark.parametrize("writer", sorted(_SERIALIZERS))
def test_a_write_failed_midway_leaves_neither_target_nor_temp_file(tmp_path, monkeypatch, writer):
    def fail(*args, **kwargs):
        raise RuntimeError("serializer failed")

    serializer = _SERIALIZERS[writer]
    monkeypatch.setattr(projclt.samplers if serializer == "_csv_cell" else json, serializer, fail)
    with pytest.raises(RuntimeError, match="serializer failed"):
        _WRITERS[writer](str(tmp_path / "artifact"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_failed_rename_leaves_neither_target_nor_temp_file(tmp_path, monkeypatch, writer):
    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        _WRITERS[writer](str(tmp_path / "artifact"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["missing/artifact", "directory"])
@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_an_unwritable_output_is_a_named_error(tmp_path, writer, target):
    # A path in a missing directory fails to open its temp file; a directory is
    # written through and fails to open itself.
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    reason = "Is a directory" if target == "directory" else "No such file or directory"
    # save_batch opens its sidecar first, beside the data file.
    name = re.escape(str(path)) + (r"(\.json)?" if writer == "save_batch" else "")
    with pytest.raises(InvalidSpec, match=f"^cannot write {name}: {reason}$"):
        _WRITERS[writer](str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["directory"]
    assert list((tmp_path / "directory").iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["psi-scan", "--n", "10", "--l", "1", "--tmax", "1.0"],
    ["deconv", "--n", "8", "--alpha", "1e-28", "--beta", "0.5", "--epsilon", "0.001", "--R", "10"],
    ["sample", "--body", "cube", "--n", "3", "--samples", "10", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_an_output_in_a_missing_directory_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out"
    assert main([*argv, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------- ratio


def test_ratio_report_for_projected_gaussian(tmp_path):
    out = tmp_path / "ratio.json"
    csv = tmp_path / "ratio.csv"
    rc = main(["ratio", "--body", "gaussian", "--n", "6", "--l", "1",
               "--samples", "20000", "--seed", "5", "--max-radius", "2.0",
               "--grid-points", "21", "--output", str(out), "--csv", str(csv)])
    assert rc == 0
    payload = json.loads(out.read_text())
    report = loads(json.dumps(payload["report"]))
    assert report.radius_grid.shape == (21,)
    assert report.sup_abs_deviation < 0.15  # the smoothed gaussian is the reference: noise only
    _, columns, rows = _read_csv(csv)
    assert columns == ["point", "ratio", "stderr"]
    assert len(rows) == 21
    assert all(float(r[2]) > 0 for r in rows)


@pytest.mark.parametrize("extra", [[], ["--alpha", "10"]], ids=["raw", "alpha"])
def test_ratio_csv_stderr_is_relative_to_the_reports_reference(tmp_path, monkeypatch, extra):
    # The CSV's ratio and stderr columns divide by the same gaussian, the one the
    # report reads against: variance 1 + v, v = N^(-2/(l+4)), or v(n) with --alpha.
    estimates = []
    estimate = projclt.density.estimate_density

    def recording(*args, **kwargs):
        estimates.append(estimate(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(projclt.density, "estimate_density", recording)
    csv = tmp_path / "ratio.csv"
    rc = main(["ratio", "--body", "cube", "--n", "20", "--l", "1", "--samples", "20000",
               "--seed", "5", "--grid-points", "21", *extra,
               "--output", str(tmp_path / "ratio.json"), "--csv", str(csv)])
    assert rc == 0
    (est,) = estimates
    _, _, rows = _read_csv(csv)
    ratio, stderr = np.array([[float(r[1]), float(r[2])] for r in rows]).T
    np.testing.assert_allclose(stderr / ratio, est.stderr / est.values, rtol=1e-12)


@pytest.mark.parametrize("argv", [
    ["ratio", "--body", "cube", "--n", "20", "--l", "1", "--seed", "1", "--samples"],
    ["scan", "--n", "20", "--l", "1", "--seed", "1", "--samples"],
    ["mtilde", "--body", "cube", "--n", "20", "--l", "1", "--seed", "1",
     "--samples-per-subspace"],
], ids=lambda argv: argv[0])
def test_a_projection_larger_than_physical_memory_exits_1(tmp_path, capsys, argv):
    rc = main([*argv, str(10**12), "--output", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a 1000000000000 x 1 projection needs 16000000000000 bytes")
    assert err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------- thinshell


def test_thinshell_refuses_norms_larger_than_physical_memory_before_drawing(tmp_path, capsys,
                                                                             monkeypatch):
    def draw(*args, **kwargs):
        pytest.fail("thinshell drew a sample it cannot hold the norms of")

    monkeypatch.setattr(projclt.cli, "sample_body", draw)
    rc = main(["thinshell", "--body", "cube", "--n", "4", "--samples", str(10**12),
               "--seed", "1", "--output", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a column of 1000000000000 norms needs 16000000000000 bytes")
    assert err.count("\n") == 1, err


def test_thinshell_defaults_and_ordering(tmp_path):
    out = tmp_path / "shell.csv"
    rc = main(["thinshell", "--body", "ball", "--n", "32", "--samples", "20000",
               "--seed", "4", "--output", str(out)])
    assert rc == 0
    header, _, rows = _read_csv(out)
    assert header["config"]["epsilon"] == [32 ** (-1 / 15)]
    assert len(rows) == 1

    out2 = tmp_path / "shell2.csv"
    rc = main(["thinshell", "--body", "ball", "--n", "32", "--samples", "20000",
               "--seed", "4", "--epsilon", "0.05", "--epsilon", "0.2",
               "--output", str(out2)])
    assert rc == 0
    _, _, rows = _read_csv(out2)
    fractions = {float(r[0]): float(r[1]) for r in rows}
    assert fractions[0.2] <= fractions[0.05]


def test_in_process_calls_write_what_fresh_processes_write(tmp_path):
    # One argparse tree serves every call in a process; an appended --epsilon
    # list must start empty at each call, or a later call would see the earlier ones.
    base = ["thinshell", "--body", "cube", "--n", "8", "--samples", "2000", "--seed", "3"]
    runs = {"two": ["--epsilon", "0.1", "--epsilon", "0.3"], "one": ["--epsilon", "0.2"],
            "default": []}
    for name, epsilons in runs.items():
        assert main(base + epsilons + ["--output", str(tmp_path / f"{name}.csv")]) == 0
    assert projclt.cli.build_parser() is projclt.cli.build_parser()
    for name, epsilons in runs.items():
        fresh = tmp_path / f"fresh_{name}.csv"
        proc = subprocess.run([sys.executable, "-m", "projclt", *base, *epsilons,
                               "--output", str(fresh)], capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / f"{name}.csv").read_bytes() == fresh.read_bytes()


# -------------------------------------------------------------------- scan


@pytest.mark.parametrize("l", [1, 2])
def test_scan_writes_one_row_per_body_and_evaluation_point(tmp_path, l):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--body", "cube", "--body", "ball", "--n", "20", "--samples", "20000",
               "--seed", "1", "--l", str(l), "--grid-points", "9", "--output", str(out)])
    assert rc == 0
    _, columns, rows = _read_csv(out)
    assert columns == ["body", "point", "ratio", "sup_abs_deviation", "shell_fraction"]
    # For l = 2 each radius carries the 16 directions.
    per_body = 9 if l == 1 else 9 * 16
    assert [row[0] for row in rows] == ["cube"] * per_body + ["ball"] * per_body


def test_scan_with_an_unknown_second_body_exits_1_and_leaves_no_file(tmp_path, capsys):
    rc = main(["scan", "--body", "cube", "--body", "foo", "--n", "20", "--samples", "20000",
               "--seed", "1", "--l", "1", "--output", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: unknown body kind 'foo'")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- psi-scan


def test_psi_scan_columns_are_consistent(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["psi-scan", "--n", "64", "--l", "2", "--tmax", "1.4",
               "--points", "9", "--output", str(out)])
    assert rc == 0
    _, columns, rows = _read_csv(out)
    assert columns == ["t", "psi", "gaussian", "ratio"]
    for t, psi_val, gauss, ratio in ((float(v) for v in row) for row in rows):
        assert ratio == pytest.approx(psi_val / gauss, rel=1e-12)


# ------------------------------------------------------------------ mtilde


def test_mtilde_small_run(tmp_path):
    out = tmp_path / "mtilde.json"
    csv = tmp_path / "mtilde.csv"
    rc = main(["mtilde", "--body", "gaussian", "--n", "16", "--l", "1",
               "--t-max", "1.0", "--t-points", "3", "--subspaces", "2",
               "--samples-per-subspace", "10000", "--directions", "2",
               "--seed", "3", "--output", str(out), "--csv", str(csv)])
    assert rc == 0
    payload = json.loads(out.read_text())
    report = loads(json.dumps(payload["report"]))
    assert report.radius_grid.tolist() == [0.0, 0.5, 1.0]
    assert report.sup_abs_deviation < 0.2
    _, columns, rows = _read_csv(csv)
    assert columns == ["t", "profile"]
    assert len(rows) == 3


# ------------------------------------------------------------------ deconv


def test_deconv_prints_certificate_to_stdout(capsys):
    rc = main(["deconv", "--n", "8", "--alpha", "1e-28", "--beta", "0.5",
               "--epsilon", "0.001", "--R", "10"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["admissible"] is True
    assert payload["certificate"]["lower_radius"] == 4.0
    assert payload["config"]["epsilon"] == 0.001


def test_deconv_verify_verified_body(tmp_path):
    csv = tmp_path / "margins.csv"
    rep = tmp_path / "report.json"
    rc = main(["deconv-verify", "--body", "gaussian", "--n", "8", "--alpha", "1e-28",
               "--beta", "0.5", "--epsilon", "0.001", "--R", "10",
               "--grid-points", "101", "--output", str(csv), "--json", str(rep)])
    assert rc == 0
    _, columns, rows = _read_csv(csv)
    assert columns == ["region", "x", "density", "bound", "margin"]
    assert len(rows) == 202
    assert all(float(r[4]) >= -1e-9 for r in rows)
    payload = json.loads(rep.read_text())
    assert payload["report"]["status"] == "verified"


def test_deconv_verify_reports_unmet_hypothesis_without_failing(tmp_path):
    csv = tmp_path / "margins.csv"
    rep = tmp_path / "report.json"
    rc = main(["deconv-verify", "--body", "laplace", "--n", "8", "--alpha", "1e-28",
               "--beta", "0.5", "--epsilon", "0.001", "--R", "10",
               "--output", str(csv), "--json", str(rep)])
    assert rc == 0  # the run succeeded; the report carries the verdict
    _, _, rows = _read_csv(csv)
    assert rows == []
    payload = json.loads(rep.read_text())
    assert payload["report"]["status"] == "hypothesis_not_met"
    assert payload["report"]["hypothesis_sup"] > 0.001


def test_deconv_matrix_writes_one_row_per_body_and_parameter_set(tmp_path):
    from projclt.deconvolution import BODIES_1D, SANDWICH_MATRIX

    out = tmp_path / "matrix.csv"
    assert main(["deconv-matrix", "--grid-points", "201", "--output", str(out)]) == 0
    _, columns, rows = _read_csv(out)
    assert columns == ["body", "n", "alpha", "beta", "epsilon", "R", "status",
                       "hypothesis_sup", "lower_margin_min", "upper_margin_min"]
    assert len(rows) == len(SANDWICH_MATRIX) * len(BODIES_1D)
    # The last two parameter sets fail the gate, so nothing of the sandwich is measured.
    assert {tuple(row[6:]) for row in rows[-8:]} == {("inadmissible", "", "", "")}


# ------------------------------------------------------- decoded artifacts

_DECONV_ADMISSIBLE = ["--n", "8", "--alpha", "1e-28", "--beta", "0.5", "--epsilon", "0.001",
                      "--R", "10"]
_DECONV_ALL_VIOLATED = ["--n", "2", "--alpha", "1e-3", "--beta", "0.5", "--epsilon", "0.5",
                        "--R", "3"]

# name -> (argv writing {d}/a.json, the key of its codec payload)
ARTIFACT_RUNS = {
    "ratio": (["ratio", "--body", "cube", "--n", "20", "--l", "1", "--samples", "20000",
               "--seed", "7", "--output", "{d}/a.json"], "report"),
    "deconv_admissible": (["deconv", *_DECONV_ADMISSIBLE, "--output", "{d}/a.json"],
                          "certificate"),
    "deconv_inadmissible": (["deconv", *_DECONV_ALL_VIOLATED, "--output", "{d}/a.json"],
                            "certificate"),
    "deconv_verify_admissible": (
        ["deconv-verify", "--body", "gaussian_deflated", *_DECONV_ADMISSIBLE, "--grid-points",
         "201", "--output", "{d}/m.csv", "--json", "{d}/a.json"], "report"),
    "deconv_verify_inadmissible": (
        ["deconv-verify", "--body", "laplace", *_DECONV_ALL_VIOLATED, "--output", "{d}/m.csv",
         "--json", "{d}/a.json"], "report"),
}


def _artifact(run, tmp_path):
    """The text of a run's JSON artifact, its parsed form and the key of its codec payload."""
    argv, key = ARTIFACT_RUNS[run]
    assert main([a.format(d=tmp_path) for a in argv]) == 0
    text = (tmp_path / "a.json").read_text()
    return text, json.loads(text), key


@pytest.mark.parametrize("run", sorted(ARTIFACT_RUNS))
def test_artifacts_round_trip_byte_identically_through_the_codec(run, tmp_path):
    text, payload, key = _artifact(run, tmp_path)
    payload[key] = json.loads(dumps(loads(json.dumps(payload[key]))))
    assert json.dumps(payload, indent=2) + "\n" == text


def _nudge(d, key):
    d[key] = math.nextafter(d[key], math.inf)


# name -> (artifact run, tampering of its codec payload, the key the refusal names)
TAMPERINGS = {
    "ratio_sup": ("ratio", lambda d: _nudge(d, "sup_abs_deviation"), "sup_abs_deviation"),
    "admissible_flipped": (
        "deconv_admissible", lambda d: d.update(admissible=False), "admissible"),
    "inadmissible_flipped": (
        "deconv_inadmissible", lambda d: d.update(admissible=True), "admissible"),
    "lower_factor": ("deconv_admissible", lambda d: _nudge(d, "lower_factor"), "lower_factor"),
    "violation_dropped": (
        "deconv_inadmissible", lambda d: d["violated_conditions"].pop(0), "violated_conditions"),
    "nested_upper_radius": (
        "deconv_verify_admissible", lambda d: _nudge(d["certificate"], "upper_radius"),
        "upper_radius"),
    # Equal in Python but not in JSON: each would be re-encoded as true and 4.0.
    "admissible_as_1": ("deconv_admissible", lambda d: d.update(admissible=1), "admissible"),
    "lower_radius_as_int": (
        "deconv_admissible", lambda d: d.update(lower_radius=int(d["lower_radius"])),
        "lower_radius"),
}


@pytest.mark.parametrize("name", sorted(TAMPERINGS))
def test_a_tampered_artifact_is_refused_naming_the_key(name, tmp_path):
    run, tamper, key = TAMPERINGS[name]
    _, payload, payload_key = _artifact(run, tmp_path)
    tamper(payload[payload_key])
    with pytest.raises(InvalidSpec, match=f"stored {key} .* disagrees with the value rebuilt"):
        loads(json.dumps(payload[payload_key]))


# ------------------------------------------------------------------- suite


def test_suite_runs_a_single_fast_criterion(tmp_path, capsys):
    out = tmp_path / "suite.json"
    rc = main(["suite", "--only", "2", "--output", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert re.search(r"\[PASS\] criterion\s+2 ", captured)
    payload = json.loads(out.read_text())
    assert payload["results"][0]["passed"] is True


def test_a_criterion_selected_twice_runs_once(tmp_path, capsys):
    out = tmp_path / "suite.json"
    assert main(["suite", "--only", "2,2", "--output", str(out)]) == 0
    captured = capsys.readouterr().out
    assert len(re.findall(r"\[PASS\] criterion\s+2 ", captured)) == 1
    assert "1/1 criteria passed" in captured
    payload = json.loads(out.read_text())
    assert [r["index"] for r in payload["results"]] == [2]
    assert payload["config"]["only"] == "2,2"


def test_the_quick_suite_passes_at_the_catalog_samplers(tmp_path, capsys):
    out = tmp_path / "suite.json"
    rc = main(["suite", "--profile", "quick", "--output", str(out)])
    assert rc == 0, capsys.readouterr().out
    assert all(r["passed"] is True for r in json.loads(out.read_text())["results"])


def test_quick_criterion_5_fails_a_cube_scaled_by_3_percent(monkeypatch):
    # Its z-score gate must keep the power to see a 6% variance error.
    fill = projclt.samplers._FILLS[BodyKind.CUBE]

    def scaled(rng, out, rows):
        fill(rng, out, rows)
        out *= 1.03

    monkeypatch.setitem(projclt.samplers._FILLS, BodyKind.CUBE, scaled)
    result = projclt.suite.run_criterion(5, profile="quick")
    assert not result.passed, result.detail


def test_suite_propagates_failure_as_exit_2(monkeypatch, capsys):
    # A registered criterion that always fails stands in for a regression, so
    # the exit-code contract does not depend on any real criterion failing.
    monkeypatch.setitem(
        projclt.suite._CRITERIA,
        99,
        ("always fails", lambda profile: (False, "forced failure"), None),
    )
    rc = main(["suite", "--only", "99"])
    captured = capsys.readouterr().out
    assert rc == 2
    assert re.search(r"\[FAIL\] criterion\s+99 ", captured)


@pytest.mark.parametrize("only", ["99", "0", "2,99"])
def test_suite_rejects_unknown_criterion_indices_before_running_any(only, capsys):
    rc = main(["suite", "--profile", "quick", "--only", only])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    bad = only.split(",")[-1]
    assert captured.err == (
        f"error: no criterion {bad}; valid indices are 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11\n"
    )


@pytest.mark.parametrize(
    "argv, config",
    [(["--only", ","], None), (["--only", ""], None), ([], {"only": []})],
    ids=["comma", "empty_string", "empty_config_list"],
)
def test_suite_rejects_an_empty_selection_before_running_any(argv, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    rc = main(["suite", "--profile", "quick", *argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (
        "error: no criterion selected; valid indices are 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11\n"
    )


# -------------------------------------------------------------- entry point


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    out = tmp_path / "scan.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "projclt", "psi-scan", "--n", "100", "--l", "1",
         "--tmax", "1.7", "--points", "5", "--output", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    header, _, rows = _read_csv(out)
    assert header["config"]["n"] == 100
    assert len(rows) == 5


# In-process tests cannot see which modules an import loads, or miss a
# deferred import, because other test modules have loaded scipy already.


def test_the_readme_library_tour_runs():
    # A fresh interpreter, so the tour sees only what its own imports load.
    readme = (Path(SRC).parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_the_readme_shell_examples_parse():
    readme = (Path(SRC).parent / "README.md").read_text()
    block = re.search(r"^## Command line$.*?^```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("projclt ")]
    assert len(commands) >= 12
    parser = projclt.cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


def test_importing_the_cli_loads_no_scipy():
    # numpy.polynomial too: the chi mixture builds its quadrature rule on first use.
    code = (
        "import sys, projclt.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# psi-scan, the third command that loads scipy, is the entry-point test above.
@pytest.mark.parametrize(
    "argv",
    [
        ["deconv-verify", "--body", "laplace", "--n", "2", "--alpha", "1e-24", "--beta", "0.5",
         "--epsilon", "0.005", "--R", "3", "--grid-points", "201", "--output", "sandwich.csv"],
        ["suite", "--profile", "quick", "--only", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_scipy_command_runs_in_a_fresh_interpreter(tmp_path, argv):
    proc = subprocess.run([sys.executable, "-m", "projclt", *argv], capture_output=True,
                          text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_a_fresh_interpreter_decodes_every_registered_type_from_model_alone():
    from projclt.deconvolution import DeconvCertificate, DeconvParams
    from projclt.spherical import KernelParams

    values = [
        KernelParams(n=5, l=2, r=1.5),
        DeconvCertificate(DeconvParams(n=8, alpha=1e-28, beta=0.5, epsilon=0.001,
                                       hypothesis_radius=10.0)),
        SampleBatch(np.eye(3), seed=4, source={"body": "test"}),
    ]
    code = (
        "import sys\n"
        "from projclt.model import dumps, loads\n"
        "for line in sys.stdin:\n"
        "    print(dumps(loads(line)))"
    )
    text = "".join(dumps(v) + "\n" for v in values)
    proc = subprocess.run([sys.executable, "-c", code], input=text, capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == text
