"""Golden bytes of the projected-ratio pipeline and the noise step.

Each test pins the SHA-256 of an artifact (or of an array's bytes) produced
by a fixed seed at a small size, so any refactor of the sample -> smooth ->
project -> KDE -> ratio pipeline or of the chunked noise loop must reproduce
the numbers exactly.  A change that alters a random stream or the artifact
schema re-pins the moved hashes and records each old -> new pair and its
reason in CHANGES.md.  The ratio runs are the CLI's; the scan runs are the
``scripts/run_clt_scan.py`` script's; the criterion 7 value is the exact
l=1 sup of the quick profile; the ``deconv-verify`` and
``scripts/run_deconv_matrix.py`` pins cover the sandwich pass, whose margins
are closed forms.  The multi-chunk runs span two full chunks and
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
        "035de22f8147a5a2fac1c657d0af4d78c61d7d72a688398bcf23b59cf0a17c79",
        "8b6a2005e20d3b1cf70b9ebb47d9c93e3ac99acdebd9c11390559751cee4c75c",
    ),
    "l2_raw": (
        ["--l", "2"],
        "da0118c149af247c5fdf3b29e7fb70926757abfffdce7478cd48556754315b2d",
        "5c4461ebb89d80cf279b93dc413d14de516977b5176ef276042cb74ec068755f",
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
        "2598a9c5253328b967cf966f09402e8286c7d155118f9f0feb245ad6162066e4",
    ),
    "l2_raw": (
        ["--l", "2"],
        "3626010e5e5e528158c11071a6751314dfc018e3069095fcb15d0298e5e6b9ec",
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


CRITERION_7_QUICK_SUP = "0.0376764842499433"


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
            "r.json": "84126c0d4dbb66493b999f08f6c42dc4f3b356325c7637cbea4f874badba6b53",
            "r.csv": "2fad97fe662159c32591004d456bb8e89ffb064aec038bda9714610268a0e221",
        },
    ),
    "mtilde_l2": (
        ["mtilde", "--body", "cube", "--n", "20", "--l", "2", "--subspaces", "2",
         "--samples-per-subspace", str(MULTI_CHUNK), "--seed", "8", "--output", "{d}/m.json"],
        {"m.json": "97a76fc4cf11dcc3f8f0f029ca135fb480d13682fb3b837be0fa08b40e7afaac"},
    ),
    **{
        f"thinshell_{kind}": (
            ["thinshell", "--body", kind, "--n", "20", "--samples", str(MULTI_CHUNK),
             "--seed", "9", "--epsilon", "0.1", "--epsilon", "0.3", "--output", "{d}/t.csv"],
            {"t.csv": sha},
        )
        for kind, sha in {
            "cube": "8f65cb4cdf3d546173b1e0631b0448eefe00491a674c41af0fa3e832d53b6d78",
            "ball": "7844a8a3e4db96fb964f82fff526f45bf164389efce89ffc7b720ed434e3dc92",
            "simplex": "87daeaff26deca976af2b4a68083d940a6ef50d8b1cb1c40412125269af2a580",
            "product_laplace": "3af6207ff4f41625c172dbbabcbefcfc3e89f4e699aa6496bd280d10332ab493",
            "gaussian": "b59d080e3ba3861675a4b0ba60aa316e35499eb537b1588ac41e5ff020d0816b",
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


DECONV_VERIFY_RUNS = {
    # Admissible and hypothesis-met: both margin regions carry rows.
    "admissible": (
        ["--body", "gaussian_deflated", "--n", "8", "--alpha", "1e-28", "--beta", "0.5",
         "--epsilon", "0.001", "--R", "10"],
        "98f91581fcb9701c23d46b72a1493ee478ccdcd65e4d7575ece70f5f8468114c",
        "15414cebe3cb66c38b27c94874e88e13bcd5b591e60776a39ae8075ad54e682d",
    ),
    # alpha above c0 * n^-8: no rows, only the certificate's violations.
    "inadmissible": (
        ["--body", "laplace", "--n", "2", "--alpha", "1e-3", "--beta", "0.5",
         "--epsilon", "0.005", "--R", "3"],
        "1f8ae446c88efb66f83782cf9210d391bea8a7a706069878d071e79ca196dc86",
        "c21451ce8384858d18f2b824237c2c1b8d7c52fb1a0e18eb2af4bb723e0c105d",
    ),
}


@pytest.mark.parametrize("run", sorted(DECONV_VERIFY_RUNS))
def test_deconv_verify_artifacts_are_golden(run, tmp_path):
    extra, csv_sha, json_sha = DECONV_VERIFY_RUNS[run]
    rc = main(["deconv-verify", *extra, "--output", str(tmp_path / "m.csv"),
               "--json", str(tmp_path / "m.json")])
    assert rc == 0
    assert _sha((tmp_path / "m.csv").read_bytes()) == csv_sha
    assert _sha((tmp_path / "m.json").read_bytes()) == json_sha


DECONV_MATRIX_SHA = "f868218fde190ae1eac5639283e82a57c6f1ec2ef525ddf5a5c0e5963823e16a"


def test_deconv_matrix_csv_is_golden(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_deconv_matrix", SCRIPTS / "run_deconv_matrix.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "matrix.csv"
    assert script.main(["--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == DECONV_MATRIX_SHA
