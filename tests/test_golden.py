"""Golden bytes of the projected-ratio pipeline and the noise step.

Each test pins the SHA-256 of an artifact (or of an array's bytes) produced
by a fixed seed at a small size, so any refactor of the sample -> smooth ->
project -> KDE -> ratio pipeline or of the block loop must reproduce
the numbers exactly.  A change that alters a random stream or the artifact
schema re-pins the moved hashes and records each old -> new pair and its
reason in CHANGES.md.  The ratio and scan runs are the CLI's; the
criterion 7 value is the exact l=1 sup of the quick profile; the
``deconv-verify`` and ``deconv-matrix`` pins cover the sandwich pass, whose
margins are closed forms, and the ``deconv`` pins cover the certificate
alone.  The multi-chunk runs span 32 full blocks and a short last one, at
one and two threads and at the default (every usable core), so a block loop
that reorders or splits work differently shows up as a moved hash.  The
batch files of ``sample`` (bin and CSV, with and without smoothing) and
``project --input`` are pinned at counts on both sides of a block and of
many blocks, at one and two threads; ``sample`` also at the default.
"""

import hashlib

import numpy as np
import pytest

import projclt.cli
import projclt.suite
from projclt.cli import main
from projclt.model import BodyKind, BodySpec, ConvolutionSchedule
from projclt.samplers import BLOCK, SampleBatch, convolve_and_rescale, sample_body

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


RATIO_RUNS = {
    "l1_alpha": (
        ["--l", "1", "--alpha", "10"],
        "256f7260b4ff4330c429c01f776fa18354070315c1c4f9d562a37cb42ca9791a",
        "3376c99c3477f4654f5902bc2e9efc69b658dc3d97607bca4a9721c8c355c4b3",
    ),
    "l2_raw": (
        ["--l", "2"],
        "f5faf684ceec14735c0bd67fe752a76e60ed408484ec6a95a9d4574e6aecebda",
        "7af306e347edea5bf8d188acd7136f03a09036756722b9b4215532463b336f63",
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
        "d87073725d52477ea8b79aba92d270480deff057323b4f141e6be2044291f0c6",
    ),
    "l2_raw": (
        ["--l", "2"],
        "a5a3d493f4194c0d274176823d4b667ec46186d7077014aa38de85545c20bfcc",
    ),
}


@pytest.mark.parametrize("run", sorted(SCAN_RUNS))
def test_clt_scan_csv_is_golden(run, tmp_path):
    extra, sha = SCAN_RUNS[run]
    out = tmp_path / "scan.csv"
    rc = main(
        ["scan", "--body", "cube", "--body", "simplex", "--n", "20", "--samples", "20000",
         "--seed", "5", "--grid-points", "41", *extra, "--output", str(out)]
    )
    assert rc == 0
    assert _sha(out.read_bytes()) == sha


CONVOLVE_SHA = "d165730d95b7de8f69f74aa5c6e8bebaf201f60a43f5f01c1dfda60e083984cf"


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("threads", [1, 2])
def test_convolve_and_rescale_output_is_golden(threads, order):
    # 48 full blocks and a short one, so two threads split real work;
    # a column-major input is what load_batch returns.
    x = sample_body(BodySpec(BodyKind.CUBE, 5), 48 * BLOCK + 17, seed=3)
    x = SampleBatch(data=np.asarray(x.data, order=order), seed=x.seed, source=x.source)
    y = convolve_and_rescale(x, ConvolutionSchedule(10.0), seed=4, threads=threads)
    assert y.data.shape == x.data.shape
    assert _sha(np.ascontiguousarray(y.data).tobytes()) == CONVOLVE_SHA


CRITERION_7_QUICK_SUP = "0.024438747275267847"


def test_criterion_7_quick_sup_is_golden(monkeypatch):
    # Criterion 7's report comes from cli.ratio_to_gaussian; record the sups.
    sups = []
    original = projclt.cli.ratio_to_gaussian

    def recording(*args, **kwargs):
        report = original(*args, **kwargs)
        sups.append(report.sup_abs_deviation)
        return report

    monkeypatch.setattr(projclt.cli, "ratio_to_gaussian", recording)
    passed, detail = projclt.suite._criterion_7("quick")
    assert passed, detail
    assert len(sups) == 1
    assert repr(sups[0]) == CRITERION_7_QUICK_SUP
    assert f"l=1 sup {sups[0]:.4f}" in detail


MULTI_CHUNK = 32 * BLOCK + 17


def _threads_flag(threads) -> list:
    """``--threads`` at the given count; None leaves the flag out, for the default."""
    return [] if threads is None else ["--threads", str(threads)]


MULTI_CHUNK_RUNS = {
    "ratio_l2": (
        ["ratio", "--body", "cube", "--n", "20", "--l", "2", "--samples", str(MULTI_CHUNK),
         "--seed", "7", "--output", "{d}/r.json", "--csv", "{d}/r.csv"],
        {
            "r.json": "8123e60eeb4e6d6a6ad5c334b5ef0a214909d31d77741dd8f17463caf075aecb",
            "r.csv": "3fcf947d14a418d83002ed16f82663384e53692fb7b1b2c10a8fa2d4fbfd4f99",
        },
    ),
    "mtilde_l2": (
        ["mtilde", "--body", "cube", "--n", "20", "--l", "2", "--subspaces", "2",
         "--samples-per-subspace", str(MULTI_CHUNK), "--seed", "8", "--output", "{d}/m.json"],
        {"m.json": "73f1121965712207f6e533abb0219f144fe854f59e70f14059385a1b3880cf9d"},
    ),
    **{
        f"thinshell_{kind}": (
            ["thinshell", "--body", kind, "--n", "20", "--samples", str(MULTI_CHUNK),
             "--seed", "9", "--epsilon", "0.1", "--epsilon", "0.3", "--output", "{d}/t.csv"],
            {"t.csv": sha},
        )
        for kind, sha in {
            "cube": "e8c542c002ae3c6317c15509b7fc4a6642b92c3684575a0ab7ce6ef2f6c87fdf",
            "ball": "d714b729fb3ab5f2d410d9392dcc362e5a69e7f7fcf6e2bd185880126b93b291",
            "simplex": "7675adfa425c792dfe7be66a828da366360e586b6b00c464054136b87e0b0d67",
            "product_laplace": "8128b909d03c111c9c58499453d090119847565c42d21c80c6e953bf470eccba",
            "gaussian": "3d5ea97024fa0675318d50bad9e3f19adc961a50f503804f579c8d5b29da342c",
        }.items()
    },
}


@pytest.mark.parametrize("threads", [1, 2, None])
@pytest.mark.parametrize("run", sorted(MULTI_CHUNK_RUNS))
def test_multi_chunk_artifacts_are_golden(run, threads, tmp_path):
    argv, shas = MULTI_CHUNK_RUNS[run]
    rc = main([a.format(d=tmp_path) for a in argv] + _threads_flag(threads))
    assert rc == 0
    for name, sha in shas.items():
        assert _sha((tmp_path / name).read_bytes()) == sha, name


DECONV_VERIFY_RUNS = {
    # Admissible and hypothesis-met: both margin regions carry rows.
    "admissible": (
        ["--body", "gaussian_deflated", "--n", "8", "--alpha", "1e-28", "--beta", "0.5",
         "--epsilon", "0.001", "--R", "10"],
        "f1f79d13269dcb1774f33ed2fb5e9b9f367bb97ee33168480856e02e45ca7054",
        "213200b7f21e5f537fd60ae450a1adb74e624acc8a29bc58b620c56af5f86cd1",
    ),
    # alpha above c0 * n^-8: no rows, only the certificate's violations.
    "inadmissible": (
        ["--body", "laplace", "--n", "2", "--alpha", "1e-3", "--beta", "0.5",
         "--epsilon", "0.005", "--R", "3"],
        "0981635e1ad39db843b96ff931ce69a085eb60f0ba2613ad83192c5ad993a110",
        "fcd42cd3f3ecdeff08f24d8a4c2564b3ee8ea5ceb2f1e3a292a4e254a7c45e5b",
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


DECONV_RUNS = {
    "admissible": (
        ["--n", "8", "--alpha", "1e-28", "--beta", "0.5", "--epsilon", "0.001", "--R", "10"],
        "1eee30b1b0cad0ca721cce7e4337095ec64f725e8c4008735ae886e2a59d7105",
    ),
    # All three conditions fail: alpha, the noise floor and epsilon < 1/100.
    "inadmissible": (
        ["--n", "2", "--alpha", "1e-3", "--beta", "0.5", "--epsilon", "0.5", "--R", "3"],
        "f8563f91859754f3d81af56de7832ad6b42316c7e71ff0e4f455fe75ea4c1a55",
    ),
}


@pytest.mark.parametrize("run", sorted(DECONV_RUNS))
def test_deconv_certificate_json_is_golden(run, capsys):
    extra, sha = DECONV_RUNS[run]
    assert main(["deconv", *extra]) == 0
    assert _sha(capsys.readouterr().out.encode()) == sha


DECONV_MATRIX_SHA = "7b765196bbbff477ec20f34bc581f7a40299de15fa453a91be65f01dff030e7d"


def test_deconv_matrix_csv_is_golden(tmp_path):
    out = tmp_path / "matrix.csv"
    assert main(["deconv-matrix", "--output", str(out)]) == 0
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
        "8ed965800023a5668fc43c84577ee0f964ec9cf2ddc0d551a12208ead245bc5a",
        "79bdc63a01069cf056c59789e2261333003bc6328f7abbacc824a4d6a6e70a34",
    ),
    ("cube", BLOCK + 1, True): (
        "54a3fb835386a6ec79058ca58ac3b0be213b6047eb09506a133619038f9e810f",
        "ab6a403f5fda1befdda50af30151462edd5f33650972408db8ecedf345f5dcb1",
    ),
    ("cube", 32 * BLOCK + 3, False): (
        "94c3fd298cf5f308a57dd758e1242247754e9f4fe46924419a1ff0c5ead6dc11",
        "3526a33830fcdf2536f7cfe9e147949b186d7c1d8b1c99194004393430f8ec5d",
    ),
    ("cube", 32 * BLOCK + 3, True): (
        "b9f395099313745b7ee79965945d8b1fdb24ffe1c501777f0494a672a7bf9126",
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
        "5e50ec9c566a2aae5bb071d4aaae8c9660de2963134d89154f046e22a9e75a8e",
        "35a8e2bae489b338cfb2918261a80a42905bf929c86a87f2edd4eb1c252107f9",
    ),
    ("ball", BLOCK - 1, True): (
        "f875fe59f1e9989a8317bdd83d9eb732feeaead6d508fe02b806dbe4be0ee8ab",
        "e59df24ef0c795f0d0d2f2434efc2959ab02868c61792a3e25a7014f401fc448",
    ),
    ("ball", BLOCK + 1, False): (
        "d2ed3fe0083876f28881c8b2b344a551ef211c35c46d87faf7e25be3375001af",
        "827bd3fc55c1be6f83888fc3694f63bf5fadf5c98071a384375f44ecbc5a5fc2",
    ),
    ("ball", BLOCK + 1, True): (
        "83fa0cf0f2cea85799fb19c5d29f591c49a4b811481541044ed779200da862cf",
        "b07e3af5d2a1c8289d324125be146e578bdb422b074f5e4868c38efd18f09ac6",
    ),
    ("ball", 32 * BLOCK + 3, False): (
        "9cce2f4eda5e36fdb6e70545145a58d1b7c9abf25410f7dd6ce0fe622fe2c1e1",
        "2435aa1451c2259d22ced89e819153b99a2d45220661589d533edeaa1eaa6a8a",
    ),
    ("ball", 32 * BLOCK + 3, True): (
        "9a25d957b23dc9b1e7873d9e29bc3209f18e997b8ca1a7ec5ebfc5f990ddf6a5",
        "4d860b9918caf81a8002775530c750daa19ba3ca557b664929196b6f5226205c",
    ),
    ("simplex", 1, False): (
        "83db14bf7ebc998eb3566b3efc0d8e0b83288423d96bd5974c905a40f289a97a",
        "a51ccbd1bf21111290f011cd44fcf50502b1b09db579ce1d372795d322e5de87",
    ),
    ("simplex", 1, True): (
        "e22e97fbde6843f863f29f066906b160a28e950406be18d7b126f23cc1ff7b1b",
        "3cbcdd5e3b8165f392090e2aecfa0d6dfc3ad8d95903aa208cc025cb72806e70",
    ),
    ("simplex", BLOCK - 1, False): (
        "c4f2af2630200c5db9913cc9b34c29f0e713e810f49b581f48702a3c6ccbeae8",
        "4995620c5a15be4920a39dcd3e3b6c0350993524fdc3b2fa3b68b3cd3987c632",
    ),
    ("simplex", BLOCK - 1, True): (
        "c9c4c0aef14acf8a7e55b57aa3a75cb62dfa75ca2d9bf29b308b67dac5a216aa",
        "22b517f03e721f99ed39c7ec30bf568a267f2cafc2070517a384277840a88bb2",
    ),
    ("simplex", BLOCK + 1, False): (
        "a35a299b1acf1ba86bf7d79080890814a76d72861ec9deb35b9a3f9553313d8a",
        "934067b12a6f2d6cae5fac46c0aac24205e9af85bbe4d0284667f160b6d12f16",
    ),
    ("simplex", BLOCK + 1, True): (
        "5661c144653818d09356009adcd927f3b67ddc9ecbb442cdabc5c95ad9ca293e",
        "3da4a399aebf8245423ed05310db426ca44e11305c672356a89ec9c59f1a48a7",
    ),
    ("simplex", 32 * BLOCK + 3, False): (
        "a98ab5c4d6cc0dd82c5620f10e8ce394de87864c76e75cf6341a41b1f02e102f",
        "e01f25472965a2d26ce985b3f56b6ddebd4cd57479bd45f033adee803870beac",
    ),
    ("simplex", 32 * BLOCK + 3, True): (
        "e4fb85ca31a457c5198d1a1511faf70377bbe89c8473fd0868520ecd9b094f11",
        "4c280b78a1c1b49e866a86cc5a88220ef63db563fb50b3dc6d521a6ab8ef20d1",
    ),
}


@pytest.mark.parametrize("threads", [1, 2, None])
@pytest.mark.parametrize(
    "key", list(SAMPLE_PINS), ids=lambda k: f"{k[0]}-{k[1]}-{'alpha' if k[2] else 'raw'}"
)
def test_sample_batch_files_are_golden(key, threads, tmp_path):
    kind, count, smoothed = key
    out = tmp_path / "s.bin"
    rc = main(["sample", "--body", kind, "--n", "5", "--samples", str(count), "--seed", "3",
               *(["--alpha", "10"] if smoothed else []), *_threads_flag(threads),
               "--output", str(out)])
    assert rc == 0
    sidecar = tmp_path / "s.bin.json"
    assert (_sha(out.read_bytes()), _sha(sidecar.read_bytes())) == SAMPLE_PINS[key]


# (count, l) -> (projection file, its sidecar, basis); a simplex batch at
# n = 20, seed 4, projected with seed 5.  The input path is echoed, so the
# runs use the same relative path.  A one-row file's slab is C- and
# F-contiguous at once and must still take the column-major kernel.
PROJECT_PINS = {
    (1, 1): (
        "3aeda53a62926e46ba9a4787eacd80244a2abba665656517dabac8948c72a034",
        "16e920594bc1bf1265ad08e2d68940db8328b27aff9a292e88309ceb4f58069d",
        "ee2ac80f3479e251cc51ef46a36059631dc9e767e17edbc2ee9b52f555103949",
    ),
    (1, 2): (
        "508e2b83e04487f9511d7db256923243f2ad85bb9fd442c3487a3216421bd1fa",
        "9e6da7454deceddea37905d9eba25dda2a8e902066454d1138e62e2b33cf43c8",
        "8e884ff21b95d87036ae26ea5c27db1fcd926fa640f844a6caaeb892b4a97d4a",
    ),
    (1, 3): (
        "8d112df0e619ec4973d9aa41a0a3cce34a2b99bd1db31150b0a14b4dbab09eed",
        "0e6c4daab28906a925857d2ff16923e179d4e8ae9c8fa4862373136833c7e0dd",
        "a3d40c54f9ffb5c18611daef9d591fa1b19401c7b92c756de5e59367d28562f4",
    ),
    (1000, 1): (
        "b3c96e2efb8944e901b9ce42ca9ad1f90cf4379174b5596c5b616ce6c2a92984",
        "24428f8a7578386672f01dae70b9193840e2f6cdcf33f46bcb58d2c33abf9155",
        "ee2ac80f3479e251cc51ef46a36059631dc9e767e17edbc2ee9b52f555103949",
    ),
    (1000, 2): (
        "ddd4a35c95b636a1f7a1a69736618bc15f4dac6697aa95ce559a2389b07c62b2",
        "70ea16dd3860e016200342a7167b7ce5fcabccecc631240551f744627b760e3c",
        "8e884ff21b95d87036ae26ea5c27db1fcd926fa640f844a6caaeb892b4a97d4a",
    ),
    (1000, 3): (
        "cd25686ff87832a4f38602e83da0c2e48a8abfe4435be5d072f2bfb712b23d20",
        "d7de4b6b134937933b3ae57c92fdf2462b6f8294f2343a1e74ebe40ecf680047",
        "a3d40c54f9ffb5c18611daef9d591fa1b19401c7b92c756de5e59367d28562f4",
    ),
    (3 * BLOCK + 5, 1): (
        "df43d11237bb982711aba6fd698d42f482bb227d5f4ea68013352db4ea108e7f",
        "79dc282cc96e3211057cad7a93f87f0c5d820116d06680705e54670e64c20e94",
        "ee2ac80f3479e251cc51ef46a36059631dc9e767e17edbc2ee9b52f555103949",
    ),
    (3 * BLOCK + 5, 2): (
        "f057e4c86be15e0932b84fc47011921153e7d94e5809993d61f7deb200b25513",
        "b1793c215cf93da31656b6f595347b4de9fd3ca23783453a4bdc2b40c54319af",
        "8e884ff21b95d87036ae26ea5c27db1fcd926fa640f844a6caaeb892b4a97d4a",
    ),
    (3 * BLOCK + 5, 3): (
        "9b773853c9994d5ce7869ab5f219654aecee59eb1b64e043ff61536a216d313e",
        "955bed71d00f5367716089b61602abab1c2063b377ecf9a21718258455cf513c",
        "a3d40c54f9ffb5c18611daef9d591fa1b19401c7b92c756de5e59367d28562f4",
    ),
    (BLOCK + 1, 1): (
        "d82e892cdb9da1c24446a4dfb146bf99b0b307e553cb479863644887964368f6",
        "bbbafc4bc737942c72cceb115e28b11acc9e42f9c8d15f72ffeaee638af6d489",
        "ee2ac80f3479e251cc51ef46a36059631dc9e767e17edbc2ee9b52f555103949",
    ),
    (BLOCK + 1, 2): (
        "df4be34246aa19fb73395a87c76aec8c524c7ead41c19b94886665e1e24838f6",
        "a27caa9b049cfb9e87eb7fc575f395c2dfdfb6b54473103f348c6d021b92629e",
        "8e884ff21b95d87036ae26ea5c27db1fcd926fa640f844a6caaeb892b4a97d4a",
    ),
    (BLOCK + 1, 3): (
        "d5c9046913abc184c3248276f2a38c32de2aecaccdb8b7a19f849727918409e3",
        "3f28cdb73c435d561c0c9160593a8aa1b2791bd4918070afbb4d116a64bf1ef8",
        "a3d40c54f9ffb5c18611daef9d591fa1b19401c7b92c756de5e59367d28562f4",
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
    "raw": ([], "d37b19d3ba3d6fba1330721b2d091f972aa1bd7acfce5b32b267a33ba8992643"),
    "alpha": (
        ["--alpha", "10"], "5e193d252f830b85f33ed2757ca3b9b9565891a3800dedbe1ddefdb0f42df03c"
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
