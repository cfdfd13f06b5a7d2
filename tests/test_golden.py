"""Golden bytes of the projected-ratio pipeline and the noise step.

Each test pins the SHA-256 of an artifact (or of an array's bytes) produced
by a fixed seed at a small size, so any refactor of the sample -> smooth ->
project -> KDE -> ratio pipeline or of the chunked noise loop must reproduce
the numbers exactly.  The ratio runs are the CLI's; the scan runs are the
``scripts/run_clt_scan.py`` script's; the criterion 7 value is the exact
l=1 sup of the quick profile.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import projclt.suite
from projclt.cli import main
from projclt.model import BodyKind, BodySpec, ConvolutionSchedule, RatioReport
from projclt.samplers import CHUNK, SampleBatch, convolve_and_rescale, sample_body

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


RATIO_RUNS = {
    "l1_alpha": (
        ["--l", "1", "--alpha", "10"],
        "e81921b60e3c12a78c79bd34490cc685d95d76e9375cce30716e202448712dc1",
        "e763db090afe27e84b79f5e7563d3f86fa1f1c07fedcead448b11212dbf08700",
    ),
    "l2_raw": (
        ["--l", "2"],
        "8e4d929aac77f33f538a3f2fe15c55582e962f0bbaff4a045fbf96b81f8636f2",
        "96ae8fcd7ccb4efe7d707e9455dde7adde2cb04a48a67803291ece869dd26464",
    ),
}


@pytest.mark.parametrize("run", sorted(RATIO_RUNS))
def test_ratio_artifacts_are_golden(run, tmp_path):
    extra, json_sha, csv_sha = RATIO_RUNS[run]
    rc = main(
        ["ratio", "--body", "cube", "--n", "20", "--samples", "20000", "--seed", "7", *extra,
         "--output", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    )
    assert rc == 0
    assert _sha((tmp_path / "r.json").read_bytes()) == json_sha
    assert _sha((tmp_path / "r.csv").read_bytes()) == csv_sha


SCAN_RUNS = {
    "l1_alpha": (
        ["--l", "1", "--alpha", "10"],
        "23ca0c2800ffafb77f48ace7eb0e8f7e3820bbdd0c0b230cbd25c798c834e187",
    ),
    "l2_raw": (
        ["--l", "2"],
        "6ce138a1b135a5f0b88767281bb31fcf7424d89fb2c996f2441fac90e3abae03",
    ),
}


@pytest.mark.parametrize("run", sorted(SCAN_RUNS))
def test_clt_scan_csv_is_golden(run, tmp_path, capsys):
    extra, sha = SCAN_RUNS[run]
    spec = importlib.util.spec_from_file_location("run_clt_scan", SCRIPTS / "run_clt_scan.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "scan.csv"
    rc = script.main(
        ["--bodies", "cube,simplex", "--n", "20", "--samples", "20000", "--seed", "5", *extra,
         "--out", str(out)]
    )
    assert rc == 0
    assert _sha(out.read_bytes()) == sha


CONVOLVE_SHA = "960f0f09d9a6a348c2e072f011dfc7781db9103dc0df0e8e58a533cccf11bad7"


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("threads", [1, 2])
def test_convolve_and_rescale_output_is_golden(threads, order):
    # Three full chunks and a partial one, so two threads split real work;
    # a column-major input is what load_batch returns.
    x = sample_body(BodySpec(BodyKind.CUBE, 5), 3 * CHUNK + 17, seed=3)
    x = SampleBatch(data=np.asarray(x.data, order=order), seed=x.seed, source=x.source)
    y = convolve_and_rescale(x, ConvolutionSchedule(10.0), seed=4, threads=threads)
    assert y.data.shape == x.data.shape
    assert _sha(np.ascontiguousarray(y.data).tobytes()) == CONVOLVE_SHA


CRITERION_7_QUICK_SUP = "0.037858576832702884"


def test_criterion_7_quick_sup_is_golden(monkeypatch):
    # Every ratio report goes through RatioReport.from_ratios; record the sups.
    sups = []
    original = RatioReport.from_ratios.__func__

    def recording(cls, *args, **kwargs):
        report = original(cls, *args, **kwargs)
        sups.append(report.sup_abs_deviation)
        return report

    monkeypatch.setattr(RatioReport, "from_ratios", classmethod(recording))
    passed, detail = projclt.suite._criterion_7("quick")
    assert passed, detail
    assert len(sups) == 1
    assert repr(sups[0]) == CRITERION_7_QUICK_SUP
    assert f"l=1 sup {sups[0]:.4f}" in detail
