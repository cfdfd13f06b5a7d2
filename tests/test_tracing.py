"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps each traced function at the module attributes
its callers look it up by.  If a refactor moves a call away from those
attributes the tracer either refuses to install or silently loses spans;
these tests catch both on small ``projclt ratio``, ``mtilde``,
``thinshell``, ``scan``, ``sample`` and ``project`` runs, and check that
every span's parent is an earlier span (a smaller id).
"""

import importlib.util
from pathlib import Path

from projclt.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_records_the_ratio_pipeline(tmp_path):
    tracing = _load_tracing()
    with tracing.Tracer("test") as tracer:
        rc = main(["ratio", "--body", "cube", "--n", "20", "--l", "1", "--samples", "20000",
                   "--seed", "7", "--alpha", "10", "--grid-points", "21",
                   "--output", str(tmp_path / "r.json")])
    assert rc == 0
    names = {span["name"] for span in tracer.spans}
    for name in ("grassmann.project", "density.estimate_density", "density.ratio_to_gaussian"):
        assert name in names, f"no span for {name}"


def _traced_spans(*argvs):
    tracing = _load_tracing()
    with tracing.Tracer("test") as tracer:
        for argv in argvs:
            assert main(argv) == 0, argv
    for span in tracer.spans:
        assert span["parent"] is None or span["parent"] < span["id"], span
    return {span["name"] for span in tracer.spans}


def test_tracer_records_the_streamed_mtilde_pipeline(tmp_path):
    names = _traced_spans(
        ["mtilde", "--body", "cube", "--n", "20", "--l", "2", "--t-points", "3",
         "--subspaces", "2", "--samples-per-subspace", "70000", "--directions", "4",
         "--seed", "7", "--output", str(tmp_path / "m.json")]
    )
    for name in ("samplers.sample_body", "grassmann.project", "density.estimate_density"):
        assert name in names, f"no span for {name}"


def test_tracer_records_the_thin_shell_fraction(tmp_path):
    names = _traced_spans(
        ["thinshell", "--body", "ball", "--n", "10", "--samples", "70000", "--seed", "3",
         "--epsilon", "0.1", "--output", str(tmp_path / "t.csv")]
    )
    assert {"samplers.sample_body", "radial.thin_shell_fraction"} <= names


def test_every_span_of_a_traced_ratio_run_follows_its_parent(tmp_path):
    names = _traced_spans(
        ["ratio", "--body", "cube", "--n", "20", "--l", "2", "--samples", "70000",
         "--seed", "7", "--alpha", "10", "--grid-points", "5", "--directions", "4",
         "--output", str(tmp_path / "r.json")]
    )
    assert {"samplers.sample_body", "grassmann.project"} <= names


def test_tracer_records_the_catalog_sample_and_project_steps(tmp_path):
    batch = str(tmp_path / "batch.bin")
    names = _traced_spans(
        ["sample", "--body", "simplex", "--n", "10", "--samples", "9000", "--seed", "5",
         "--format", "bin", "--output", batch],
        ["project", "--input", batch, "--l", "2", "--seed", "6",
         "--basis-out", str(tmp_path / "basis.json"), "--output", str(tmp_path / "proj.bin")],
    )
    expected = {"samplers.load_batch", "grassmann.random_subspace", "grassmann.project",
                "samplers.save_batch"}
    assert expected <= names


def test_tracer_records_the_scan_sweep(tmp_path):
    names = _traced_spans(
        ["scan", "--body", "cube", "--n", "20", "--l", "1", "--samples", "20000", "--seed", "7",
         "--alpha", "10", "--grid-points", "5", "--output", str(tmp_path / "s.csv")]
    )
    expected = {"samplers.sample_body", "grassmann.project", "density.estimate_density",
                "density.ratio_to_gaussian", "radial.thin_shell_fraction"}
    assert expected <= names
