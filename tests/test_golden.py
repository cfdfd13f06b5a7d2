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
splits work differently shows up as a moved hash.  The batch files of
``sample`` (bin and CSV, with and without smoothing) and ``project --input``
are pinned at counts on both sides of a block and a chunk, at one and two
threads.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import projclt.suite
from projclt.cli import main
from projclt.model import BodyKind, BodySpec, ConvolutionSchedule, RatioReport
from projclt.samplers import BLOCK, CHUNK, SampleBatch, convolve_and_rescale, sample_body

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


# (body, count, smoothed) -> (batch file, sidecar); n = 5, seed 3.
SAMPLE_PINS = {
    ("cube", 1, False): (
        "a41f1b73cf61d7b6127b59f8502df2b2f46310968cab8d231b42ca2f6e7796d9",
        "72e07a3fe2d2ebd605d8400e638c4a4c6e015f86fcc44930a5f153cbcbb6ebaf",
    ),
    ("cube", 1, True): (
        "777c97f8ea88083e5790e46476c0d73d309df2e6729f9f08a3bc2b01de602900",
        "dffac079fd6fbfd0be9fcca24cda240d36c269b4033c8ad35e49b583a428d85a",
    ),
    ("cube", BLOCK - 1, False): (
        "4ab6caadd5f4ca0ca9d318cbb326944196bb05aec83913d7d6f55d994354c813",
        "58775ccaa92194117d59dd732aeb08b5d74770f7e052dca10c91f1944a07e4ab",
    ),
    ("cube", BLOCK - 1, True): (
        "154de557db65eccdeb10bf0bd8225d4fc2e402724d0c47e0581000ae3ae72f91",
        "40cf916e94313fc1d6056c15a27310f9c759baebf52d273cc1e29784a8e85dca",
    ),
    ("cube", BLOCK + 1, False): (
        "93173543307e5168eaf9bdb0c5457130823e16f0c716ea0b4a2cb17366b56773",
        "79bdc63a01069cf056c59789e2261333003bc6328f7abbacc824a4d6a6e70a34",
    ),
    ("cube", BLOCK + 1, True): (
        "9dc2cb61f8f0ebd71a1e75657d2bc907441934364ddfe7b510d1478c6f36e9f3",
        "ab6a403f5fda1befdda50af30151462edd5f33650972408db8ecedf345f5dcb1",
    ),
    ("cube", 2 * CHUNK + 3, False): (
        "6db904485af86c8ca5037d4b64c0fea6b5a9c7297084b05f1031fed5fa48c9cc",
        "3526a33830fcdf2536f7cfe9e147949b186d7c1d8b1c99194004393430f8ec5d",
    ),
    ("cube", 2 * CHUNK + 3, True): (
        "1758ccca4a02e8d28c25c54b8514efb53654023b6f64c47365eb514032f878be",
        "5dab5fd50893077048e7959514ba296538bf1146fdb93edf8e4e5fd145720ffc",
    ),
    ("ball", 1, False): (
        "8d2d124e4ae3744598f4063f38030d308fa20364ac0e169bfe57284207a2b999",
        "7290cb6e34f62be795368583ecf8acf0c7d1a6aee68a915a79466ce9c19ca1fa",
    ),
    ("ball", 1, True): (
        "7c8b64e406672aff3b779e4fd009bd1d8f914e566d3d4bd3bd9b94ad3fd35ce6",
        "347aab9a14b3d0a3c0ec1b324974c7f50916226ec1c275e14b3ee334df33e9de",
    ),
    ("ball", BLOCK - 1, False): (
        "0416f944ae8cd4a8a952479768af93735476d971605219e21443ea738feedd79",
        "35a8e2bae489b338cfb2918261a80a42905bf929c86a87f2edd4eb1c252107f9",
    ),
    ("ball", BLOCK - 1, True): (
        "91467e903b561f51f903d0f7799614d98735ef52b2f6b2582a9d4000892a0f31",
        "e59df24ef0c795f0d0d2f2434efc2959ab02868c61792a3e25a7014f401fc448",
    ),
    ("ball", BLOCK + 1, False): (
        "84d086d1e59d583999395ba31b89864cae608fa5fc4480bc53395d6c95c5cfc3",
        "827bd3fc55c1be6f83888fc3694f63bf5fadf5c98071a384375f44ecbc5a5fc2",
    ),
    ("ball", BLOCK + 1, True): (
        "d3d1b4ea9ec1207c5f534f4f882ada7a95683f31c18ea699d5b0f2c5f997b9e6",
        "b07e3af5d2a1c8289d324125be146e578bdb422b074f5e4868c38efd18f09ac6",
    ),
    ("ball", 2 * CHUNK + 3, False): (
        "e74c134a9e748f1baa57efb1c7ceae122fa40c296d7701b1f09614f6824f282f",
        "2435aa1451c2259d22ced89e819153b99a2d45220661589d533edeaa1eaa6a8a",
    ),
    ("ball", 2 * CHUNK + 3, True): (
        "be0560ddc62aff64bd4eacc5a389180e02cd0cbee8f0cbf19258ab5280b4fea1",
        "4d860b9918caf81a8002775530c750daa19ba3ca557b664929196b6f5226205c",
    ),
    ("simplex", 1, False): (
        "ade9bf16c55931a7aa1cbf3a8df6c68afe62a06d2e6e8b3ad1fdcdb34ad84b83",
        "a51ccbd1bf21111290f011cd44fcf50502b1b09db579ce1d372795d322e5de87",
    ),
    ("simplex", 1, True): (
        "46cddd6535055fd823163bff917f11fd348264eea0acd5809e3bec3062e0f758",
        "3cbcdd5e3b8165f392090e2aecfa0d6dfc3ad8d95903aa208cc025cb72806e70",
    ),
    ("simplex", BLOCK - 1, False): (
        "3bb9d80fcffb267cef50da52cce692360e59b74dd4bc1c722c004e1f85cfe065",
        "4995620c5a15be4920a39dcd3e3b6c0350993524fdc3b2fa3b68b3cd3987c632",
    ),
    ("simplex", BLOCK - 1, True): (
        "f534be13049c8fe0db7a192f20da19f1f4359232bbaadf075d9e5d1c746f4d56",
        "22b517f03e721f99ed39c7ec30bf568a267f2cafc2070517a384277840a88bb2",
    ),
    ("simplex", BLOCK + 1, False): (
        "a56910def0463cbbc6db54e4df34bd5f530c5f64ecfb9c85779e4eaf4f489dcc",
        "934067b12a6f2d6cae5fac46c0aac24205e9af85bbe4d0284667f160b6d12f16",
    ),
    ("simplex", BLOCK + 1, True): (
        "bcb65195ae51aa8e3341d219d0a47a82b5ecf54b16af825e51f2087444e76ac2",
        "3da4a399aebf8245423ed05310db426ca44e11305c672356a89ec9c59f1a48a7",
    ),
    ("simplex", 2 * CHUNK + 3, False): (
        "431f595eed6cf11b3f78727a86a02461569d2ff4480ae314e122cbcf760f4812",
        "e01f25472965a2d26ce985b3f56b6ddebd4cd57479bd45f033adee803870beac",
    ),
    ("simplex", 2 * CHUNK + 3, True): (
        "5f6dbf6065a471cfc55e7e170af7751ea52b58e132a1469767289cc298917e4e",
        "4c280b78a1c1b49e866a86cc5a88220ef63db563fb50b3dc6d521a6ab8ef20d1",
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "key", list(SAMPLE_PINS), ids=lambda k: f"{k[0]}-{k[1]}-{'alpha' if k[2] else 'raw'}"
)
def test_sample_batch_files_are_golden(key, threads, tmp_path):
    kind, count, smoothed = key
    out = tmp_path / "s.bin"
    rc = main(["sample", "--body", kind, "--n", "5", "--samples", str(count), "--seed", "3",
               *(["--alpha", "10"] if smoothed else []), "--threads", str(threads),
               "--output", str(out)])
    assert rc == 0
    sidecar = tmp_path / "s.bin.json"
    assert (_sha(out.read_bytes()), _sha(sidecar.read_bytes())) == SAMPLE_PINS[key]


# (count, l) -> (projection file, its sidecar, basis); a simplex batch at
# n = 20, seed 4, projected with seed 5.  The input path is echoed, so the
# runs use the same relative path.
PROJECT_PINS = {
    (1000, 1): (
        "ed63f6a0c71474b2e90392808a05fddc53639bd8c0121b63512812d8db05bde2",
        "24428f8a7578386672f01dae70b9193840e2f6cdcf33f46bcb58d2c33abf9155",
        "fc934956d7ef817c65ecfc68719c1a4a62dce44b3b5994c9e7d886fbad701a82",
    ),
    (1000, 2): (
        "c8ddac2da5a53e7b4413fef766c3e5ac5bdc0a0cef305e995853601907455efb",
        "70ea16dd3860e016200342a7167b7ce5fcabccecc631240551f744627b760e3c",
        "2ed693261cc07a17e9d897e22d526a3f9355f8d13c92dd3b478a8a1fb0fb77c7",
    ),
    (1000, 3): (
        "01af28aea3f475e8360e5268b9a84162ac7d25da6feac986b4f787061ba605b1",
        "d7de4b6b134937933b3ae57c92fdf2462b6f8294f2343a1e74ebe40ecf680047",
        "4751b1507bc1bec748b49a8181f3ef35917ba0ec32b3b123c40765df77ef86ab",
    ),
    (3 * BLOCK + 5, 1): (
        "b7cd7ffc3c2429cedfa5605156e5ac2d4f0cc33428704dff5f2a09ec071fa67f",
        "79dc282cc96e3211057cad7a93f87f0c5d820116d06680705e54670e64c20e94",
        "fc934956d7ef817c65ecfc68719c1a4a62dce44b3b5994c9e7d886fbad701a82",
    ),
    (3 * BLOCK + 5, 2): (
        "24e5ec84b5b60b0f417d53abb7f56e7457049eeb579cb6df2ac03d42d5b9f7c1",
        "b1793c215cf93da31656b6f595347b4de9fd3ca23783453a4bdc2b40c54319af",
        "2ed693261cc07a17e9d897e22d526a3f9355f8d13c92dd3b478a8a1fb0fb77c7",
    ),
    (3 * BLOCK + 5, 3): (
        "e3822bcbea88cb872cd4f14320fbc0b27665e71defe49293e4c27e66603c1e72",
        "955bed71d00f5367716089b61602abab1c2063b377ecf9a21718258455cf513c",
        "4751b1507bc1bec748b49a8181f3ef35917ba0ec32b3b123c40765df77ef86ab",
    ),
    (BLOCK + 1, 1): (
        "b2e5b60b137b4ab8c378fc62cfaed0df627ba6df96b9d0798e9555096c66ad3f",
        "bbbafc4bc737942c72cceb115e28b11acc9e42f9c8d15f72ffeaee638af6d489",
        "fc934956d7ef817c65ecfc68719c1a4a62dce44b3b5994c9e7d886fbad701a82",
    ),
    (BLOCK + 1, 2): (
        "6248900352e13130c158cdff41c54549d3cc5e9d4cd97176edb47aad47b9745a",
        "a27caa9b049cfb9e87eb7fc575f395c2dfdfb6b54473103f348c6d021b92629e",
        "2ed693261cc07a17e9d897e22d526a3f9355f8d13c92dd3b478a8a1fb0fb77c7",
    ),
    (BLOCK + 1, 3): (
        "dfe3101f4fbc1ca59578fe8b8e222bb1a360e530bd11a0e2a06f060456205d8f",
        "3f28cdb73c435d561c0c9160593a8aa1b2791bd4918070afbb4d116a64bf1ef8",
        "4751b1507bc1bec748b49a8181f3ef35917ba0ec32b3b123c40765df77ef86ab",
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("key", list(PROJECT_PINS), ids=lambda k: f"{k[0]}-l{k[1]}")
def test_project_input_artifacts_are_golden(key, threads, tmp_path, monkeypatch):
    count, l = key
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--body", "simplex", "--n", "20", "--samples", str(count),
                 "--seed", "4", "--output", "b.bin"]) == 0
    rc = main(["project", "--input", "b.bin", "--l", str(l), "--seed", "5",
               "--threads", str(threads), "--output", "p.bin", "--basis-out", "basis.json"])
    assert rc == 0
    names = ("p.bin", "p.bin.json", "basis.json")
    assert tuple(_sha((tmp_path / name).read_bytes()) for name in names) == PROJECT_PINS[key]


SAMPLE_CSV_PINS = {
    "raw": ([], "0b25bfff3b7874b2fd92016bd62dfa73bcfabae8b7a6a393e477564ae96aa91b"),
    "alpha": (
        ["--alpha", "10"], "b431104dd2bd49bd0e0babf943c25564a88ab467f2e6114e6995859b0acb4f4a"
    ),
}


@pytest.mark.parametrize("run", sorted(SAMPLE_CSV_PINS))
def test_sample_csv_is_golden(run, tmp_path):
    extra, sha = SAMPLE_CSV_PINS[run]
    out = tmp_path / "c.csv"
    rc = main(["sample", "--body", "ball", "--n", "3", "--samples", "500", "--seed", "13", *extra,
               "--format", "csv", "--output", str(out)])
    assert rc == 0
    assert _sha(out.read_bytes()) == sha
