"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps each traced function at the module attributes
its callers look it up by.  If a refactor moves a call away from those
attributes the tracer either refuses to install or silently loses spans;
this test catches both on a small smoothed ``projclt ratio`` run.
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
    for name in ("samplers.convolve_and_rescale", "grassmann.project",
                 "density.estimate_density", "density.ratio_to_gaussian"):
        assert name in names, f"no span for {name}"
