"""Golden bytes of the projected-ratio pipeline and the noise step.

Each test pins the SHA-256 of an artifact (or of an array's bytes) produced
by a fixed seed at a small size, so any refactor of the sample -> smooth ->
project -> KDE -> ratio pipeline or of the chunked noise loop must reproduce
the numbers exactly.  A change that alters a random stream or the artifact
schema re-pins the moved hashes and records each old -> new pair and its
reason in CHANGES.md.  The ratio runs are the CLI's; the scan runs are the
``scripts/run_clt_scan.py`` script's; the criterion 7 value is the exact
l=1 sup of the quick profile.  The multi-chunk runs span two full chunks and
a ragged tail, at one and two threads, so a chunk loop that reorders or
splits work differently shows up as a moved hash.
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
        "af039718ef6fa5e6b1fb7cb1e363b56bd1f118247bf4c5ccb4fe703cb846998e",
        "234f650ce1097e4b791e5e44af77d0638979a51f9e2f0d5903e965e0d8fe6cfb",
    ),
    "l2_raw": (
        ["--l", "2"],
        "fc9cd42e99ed95144dffa9aa1363882cc625b5c4fea0246a4cb25752bcd6fdc0",
        "13cdcf67fe1858deb539b84ecd9359b37424b9adf6af60c1939306aba5da3762",
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
        "d54d3f299bfa08bca63a4c3973a23c5e683611d57665b9a612e9b8ca31472585",
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


MULTI_CHUNK = 2 * CHUNK + 17

MULTI_CHUNK_RUNS = {
    "ratio_l2": (
        ["ratio", "--body", "cube", "--n", "20", "--l", "2", "--samples", str(MULTI_CHUNK),
         "--seed", "7", "--output", "{d}/r.json", "--csv", "{d}/r.csv"],
        {
            "r.json": "a9ac975532d1e29c607e18fee99f49cfb6848178afa71085dd903d898db85a94",
            "r.csv": "25d668082435da46b24c7982f1a4d4b58abe3b9e036f178ae9906c2a65c41a31",
        },
    ),
    "mtilde_l2": (
        ["mtilde", "--body", "cube", "--n", "20", "--l", "2", "--subspaces", "2",
         "--samples-per-subspace", str(MULTI_CHUNK), "--seed", "8", "--output", "{d}/m.json"],
        {"m.json": "f0126a24386ee3c9a0173e72881058aa20e97b09fb1fcd18986011f03e98b841"},
    ),
    **{
        f"thinshell_{kind}": (
            ["thinshell", "--body", kind, "--n", "20", "--samples", str(MULTI_CHUNK),
             "--seed", "9", "--epsilon", "0.1", "--epsilon", "0.3", "--output", "{d}/t.csv"],
            {"t.csv": sha},
        )
        for kind, sha in {
            "cube": "732d7fa73a19026bc1c0b22b95e08e726f48a6b1e86df9a50e3bf22239409a60",
            "ball": "f1d57b5b04ece45705575f1fc2158506e7d33215dadc953c2b2f6bd69ec5cc3a",
            "simplex": "57252b5938178f2bcfb65f60ab84db8f83f0f6cbb0afe0071f10f1de42f2c767",
            "product_laplace": "ea0057f1ea2b300e885ccfe5dd6602c2ca216bb095149c5933b6306e932f7512",
            "gaussian": "55d3178e860d90908795ac1b1dba1b3a2fe56b6a8bdd0fddcfd651aef1ca567d",
        }.items()
    },
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("run", sorted(MULTI_CHUNK_RUNS))
def test_multi_chunk_artifacts_are_golden(run, threads, tmp_path):
    argv, shas = MULTI_CHUNK_RUNS[run]
    rc = main([a.format(d=tmp_path) for a in argv] + ["--threads", str(threads)])
    assert rc == 0
    for name, sha in shas.items():
        assert _sha((tmp_path / name).read_bytes()) == sha, name
