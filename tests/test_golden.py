"""Golden bytes of the projected-ratio pipeline and the noise step.

Each test pins the SHA-256 of an artifact (or of an array's bytes) produced
by a fixed seed at a small size, so any refactor of the sample -> smooth ->
project -> KDE -> ratio pipeline or of the block loop must reproduce
the numbers exactly.  A change that alters a random stream or the artifact
schema re-pins the moved hashes and records each old -> new pair and its
reason in CHANGES.md.  The ratio and scan runs are the CLI's; the
criterion 7 value is the exact l=1 sup of the quick profile; the
``deconv-verify`` and ``deconv-matrix`` pins cover the sandwich pass, whose
margins are closed forms, the ``deconv`` pins cover the certificate alone,
and the ``psi-scan`` pins cover the sphere kernel psi.  The multi-chunk runs
span 32 full blocks and a short last one, at one and two threads and at the
default (every usable core), so a block loop that reorders or splits work
differently shows up as a moved hash.  The batch files of ``sample`` (bin
and CSV, with and without smoothing) and ``project --input`` are pinned at
counts on both sides of a block and of many blocks, at one and two threads;
``sample`` also at the default.
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
        "eb28b7fe27437ec8c6af3c22977f3c78b8b5431ce72cfefa9c67dbd8608e624d",
        "b49967c0d9e25196311ec66684132c4a5c3bab84f7170a03b9609a07dd7f45a3",
    ),
    "l2_raw": (
        ["--l", "2"],
        "0fac9a9869193ed651271c85cd61195ebdbc719bb316e446e88d5dfbc7c049fc",
        "ab500612db1438795e3c3d30eb172e6b53767617ee11ee1d4abaeacc9e31818d",
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
        "0ad4617f1531b5bf854de0df4a6c7c264347bc8cb05833bab05d8d06d06e6e8c",
    ),
    "l2_raw": (
        ["--l", "2"],
        "e3e12c585d7837063349430a125873494e0b23f2c77a3c7a3003146946abfb3c",
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


PSI_SCAN_RUNS = {
    "l1": (
        ["--n", "100", "--l", "1", "--tmax", "1.7", "--points", "200"],
        "614179fbfae3ad1251cee565ebf100fcd8fb56ddc5b4727dbcbe34ca2e99069e",
    ),
    "l2": (
        ["--n", "64", "--l", "2", "--tmax", "1.2", "--points", "55"],
        "0907a610d07338dec3d9b925358e1fd3f0aaac959103cb1d55d02ee73a7ab047",
    ),
}


@pytest.mark.parametrize("run", sorted(PSI_SCAN_RUNS))
def test_psi_scan_csv_is_golden(run, tmp_path):
    extra, sha = PSI_SCAN_RUNS[run]
    out = tmp_path / "psi.csv"
    assert main(["psi-scan", *extra, "--output", str(out)]) == 0
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
            "r.json": "be496e23be50503e4f35c90e364519860257f1479d0312ad283e89688158d715",
            "r.csv": "ddc8789b5ec43cdb0d1756ddcca0ed3a7d95a81c53bfdb26b3e643e3e1676c44",
        },
    ),
    "mtilde_l2": (
        ["mtilde", "--body", "cube", "--n", "20", "--l", "2", "--subspaces", "2",
         "--samples-per-subspace", str(MULTI_CHUNK), "--seed", "8", "--output", "{d}/m.json"],
        {"m.json": "f3f315b1b3bff09d24f94cd02b6cf852e36a6ccb477dab36b9dd66a8e7b1044c"},
    ),
    **{
        f"thinshell_{kind}": (
            ["thinshell", "--body", kind, "--n", "20", "--samples", str(MULTI_CHUNK),
             "--seed", "9", "--epsilon", "0.1", "--epsilon", "0.3", "--output", "{d}/t.csv"],
            {"t.csv": sha},
        )
        for kind, sha in {
            "cube": "6f6fbe6dacd3d1ee23b057d83f857d58eabf1719d1b897db6a8c95f47890f691",
            "ball": "2192af483e264c3eb344389a27f707f64ffb5238ec7f94068e05bd8799cd7220",
            "simplex": "10abc819cce74448bc011c89b68a7741ba8ac56a91587ff4d730ab724120697f",
            "product_laplace": "be61417f752314892695564c9e0ac4cb6b60ed54803ca867f718660d1cead5f8",
            "gaussian": "05b0ba0509deed13000614748345c87dfc15e341c45d80ba9fd9fb6c2866ef33",
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
        "5bf9608469a5cdab28a58647010123bef27fadc120816840004e052d738a3898",
        "dc34f04618c19e128e3a7e1e291490edaa5ecb2df768607c7745793ec595054a",
    ),
    # alpha above c0 * n^-8: no rows, only the certificate's violations.
    "inadmissible": (
        ["--body", "laplace", "--n", "2", "--alpha", "1e-3", "--beta", "0.5",
         "--epsilon", "0.005", "--R", "3"],
        "f885f0cc3171e3d74541c8f54c9df03127e1e80a47d26ce02595d57fefbfb24c",
        "8e2ab9ee158f6ada35be25491f29c5a57320b4812685c5c843ff0e3beca54b76",
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
        "9bde0c71a015cd1451fcb53113f9f72f6572853cd474f108bce57452ee83bf5c",
    ),
    # All three conditions fail: alpha, the noise floor and epsilon < 1/100.
    "inadmissible": (
        ["--n", "2", "--alpha", "1e-3", "--beta", "0.5", "--epsilon", "0.5", "--R", "3"],
        "43d628977b38e68e384dc6251afe3ff273170762ff311ab11388bd9041791c54",
    ),
}


@pytest.mark.parametrize("run", sorted(DECONV_RUNS))
def test_deconv_certificate_json_is_golden(run, capsys):
    extra, sha = DECONV_RUNS[run]
    assert main(["deconv", *extra]) == 0
    assert _sha(capsys.readouterr().out.encode()) == sha


DECONV_MATRIX_SHA = "90f15d2ebad1709e0500428c61984767d1a0ba17812e3348e744fc223b24ac0d"


def test_deconv_matrix_csv_is_golden(tmp_path):
    out = tmp_path / "matrix.csv"
    assert main(["deconv-matrix", "--output", str(out)]) == 0
    assert _sha(out.read_bytes()) == DECONV_MATRIX_SHA


# (body, count, smoothed) -> (batch file, sidecar); n = 5, seed 3.
SAMPLE_PINS = {
    ("cube", 1, False): (
        "a41f1b73cf61d7b6127b59f8502df2b2f46310968cab8d231b42ca2f6e7796d9",
        "d53ab3fb9beeb1c4b497bb63c7cd6f792474d7d8bab0aa494cef722b8873846c",
    ),
    ("cube", 1, True): (
        "777c97f8ea88083e5790e46476c0d73d309df2e6729f9f08a3bc2b01de602900",
        "b7b6569b658deba04fb9c00019170399de1fc609dcd080cba50572a5c84450cc",
    ),
    ("cube", BLOCK - 1, False): (
        "4ab6caadd5f4ca0ca9d318cbb326944196bb05aec83913d7d6f55d994354c813",
        "7115ba65f48462cdf703805f26750d6f30c14cac419abb36e191eaef8e9915b4",
    ),
    ("cube", BLOCK - 1, True): (
        "154de557db65eccdeb10bf0bd8225d4fc2e402724d0c47e0581000ae3ae72f91",
        "45789665b7252f5a7c04cd188c049f93f6eccf0f57cdea7782c4bf9cb2eb4ee6",
    ),
    ("cube", BLOCK + 1, False): (
        "8ed965800023a5668fc43c84577ee0f964ec9cf2ddc0d551a12208ead245bc5a",
        "46efbfafe527cbd708ff7e12a224c50d7062b70838a044b3c43228b1931adf8b",
    ),
    ("cube", BLOCK + 1, True): (
        "54a3fb835386a6ec79058ca58ac3b0be213b6047eb09506a133619038f9e810f",
        "3bb7322e250d69fa40fb857ce4cd4059c06ff831c6db05ffb1787392885c94b8",
    ),
    ("cube", 32 * BLOCK + 3, False): (
        "94c3fd298cf5f308a57dd758e1242247754e9f4fe46924419a1ff0c5ead6dc11",
        "c27b6897d5d3bd367650da8d99f93b46db1bc772694d0e1792085865e1c48f65",
    ),
    ("cube", 32 * BLOCK + 3, True): (
        "b9f395099313745b7ee79965945d8b1fdb24ffe1c501777f0494a672a7bf9126",
        "3656348231359b4e75af2fdb1dcb139a4fcb0f9f169785596f9e8ebba35dbc1b",
    ),
    ("ball", 1, False): (
        "27509e01518fcf346a1e2d3f6d3f7aa3d46716a98a5d1c41dd3ff334b3f90c47",
        "d0acf478dcf3a26e52153004e85f0c599aff74d50d58afa422aeceeefb26e728",
    ),
    ("ball", 1, True): (
        "decc22ddd74887005cdcaee7be4b94157b2a68a1b63e710b5305440de65eacc4",
        "9546f5a714dc5ca3e5e90f2659a302c2eb770bc519624336560580a1d9404382",
    ),
    ("ball", BLOCK - 1, False): (
        "6c1597581f9f674f586308ab9d23d2093bd93136529c81a448afae9d290a472d",
        "e9e1fc6b892b880e9cb8ca11482182516a222382c1b6673a37530e8cedd5e3d3",
    ),
    ("ball", BLOCK - 1, True): (
        "27742268f69997e53d6188baac42d7197574cef0f13a239e4739470e4409754f",
        "b851934ade7ebab14e477d9b4292df67daaee1a24210e36228d1da04dfa7bfa3",
    ),
    ("ball", BLOCK + 1, False): (
        "47ed89d268db40c69848958712c027287f6bfee04e7e98a8136aecb4d731169b",
        "a8b7ccb4e4d0ca49ecd28914fd7c16bab66176db7e5ed82e3b96915aabf550f5",
    ),
    ("ball", BLOCK + 1, True): (
        "0a9a2599f572f8d02188020f2594af225cb1660ce64bde6d80e80ec78d2a171b",
        "8b32ef49de576717040dcff64efbe70f99e1587aa9b787fde9c95686ca686412",
    ),
    ("ball", 32 * BLOCK + 3, False): (
        "a4a1f9dc9a2ee976d5066ab06001be52605c7d20b10c16f6111c5f3e69bf8207",
        "153b20353c897dc666b27c6daa4189ecccd8157cdbdfba2a01b41ac79b4ccc4a",
    ),
    ("ball", 32 * BLOCK + 3, True): (
        "1bde47649f7e6c14d6bf8c55b0794b740df19a2b6abee9f2e67bbf67b5540f66",
        "6242caf711692457f013721810b37cd77ef5e3058cc51a1533673b95774ee989",
    ),
    ("simplex", 1, False): (
        "83db14bf7ebc998eb3566b3efc0d8e0b83288423d96bd5974c905a40f289a97a",
        "af3d041a2fcfb8f38b926fe18fefba386a596da5dde373d788c6eff77f02b14a",
    ),
    ("simplex", 1, True): (
        "e22e97fbde6843f863f29f066906b160a28e950406be18d7b126f23cc1ff7b1b",
        "d363d2d4d5f3f21c24aff62aaaaf7333290a498feb081a500c607c8ba23adff5",
    ),
    ("simplex", BLOCK - 1, False): (
        "c4f2af2630200c5db9913cc9b34c29f0e713e810f49b581f48702a3c6ccbeae8",
        "25cf9176c27d31c515e345df5f1f0e99b52e3f8793ad5fc4c141f6cc43c5010d",
    ),
    ("simplex", BLOCK - 1, True): (
        "c9c4c0aef14acf8a7e55b57aa3a75cb62dfa75ca2d9bf29b308b67dac5a216aa",
        "836d57897ed5638cea32d86462ed8db5ed71ee858b61c609f907b32dd958d953",
    ),
    ("simplex", BLOCK + 1, False): (
        "a35a299b1acf1ba86bf7d79080890814a76d72861ec9deb35b9a3f9553313d8a",
        "aac25608a52d082624051dc481bbee09a9c8b3195bad8436a49d908d3b6c5c57",
    ),
    ("simplex", BLOCK + 1, True): (
        "5661c144653818d09356009adcd927f3b67ddc9ecbb442cdabc5c95ad9ca293e",
        "66e214ba9093c7565dbe0a4a83822dc2986615e0af4335d326aada09558dafc0",
    ),
    ("simplex", 32 * BLOCK + 3, False): (
        "a98ab5c4d6cc0dd82c5620f10e8ce394de87864c76e75cf6341a41b1f02e102f",
        "cda7649441dc43c7b82d257dece9ead91ae2b5c210dd1e3bb297b04da5d743f3",
    ),
    ("simplex", 32 * BLOCK + 3, True): (
        "e4fb85ca31a457c5198d1a1511faf70377bbe89c8473fd0868520ecd9b094f11",
        "1f3035666cd7c0618b8faf44e87d8d77da32a0055a967871e4b5c262dc6e8fe8",
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
        "ff7e916ac43a0f8140c79c13b2f96f3c2c58c75e98f0c5c98e0a2b6dd8286f3d",
        "438bc853ac3fa6027b7668eb47c8155ad20e29b68f6f78588c35da2f045b2830",
    ),
    (1, 2): (
        "508e2b83e04487f9511d7db256923243f2ad85bb9fd442c3487a3216421bd1fa",
        "071f28549e10aa3f9c2273efdd9e0cd656e793e5ebb0baae0361c256912b21e8",
        "a1724b6f3b69f0e6b8ae130a0373f69dba83d48b5efb04e50e6eade66153657d",
    ),
    (1, 3): (
        "8d112df0e619ec4973d9aa41a0a3cce34a2b99bd1db31150b0a14b4dbab09eed",
        "8ec16b13940c9fcbea755f76969b103f778d5e053fe336cf53c23696e3f1b7c0",
        "3d6979e28ec999a82d68e2098d563b0067576eee805f9a4b435ae16753910042",
    ),
    (1000, 1): (
        "b3c96e2efb8944e901b9ce42ca9ad1f90cf4379174b5596c5b616ce6c2a92984",
        "75ae6dac588735a59c790aaf2875775c40363b888e923de98c2ce6078d0cec0b",
        "438bc853ac3fa6027b7668eb47c8155ad20e29b68f6f78588c35da2f045b2830",
    ),
    (1000, 2): (
        "ddd4a35c95b636a1f7a1a69736618bc15f4dac6697aa95ce559a2389b07c62b2",
        "25770ec2979f138033a5c158a0e8c62ece51a63fd1bcb08f22dfa6cdbd758cf5",
        "a1724b6f3b69f0e6b8ae130a0373f69dba83d48b5efb04e50e6eade66153657d",
    ),
    (1000, 3): (
        "cd25686ff87832a4f38602e83da0c2e48a8abfe4435be5d072f2bfb712b23d20",
        "2aa854db77a7962444b6b75aa16ac86728ac79e0f603e295655224830e2fbcfc",
        "3d6979e28ec999a82d68e2098d563b0067576eee805f9a4b435ae16753910042",
    ),
    (3 * BLOCK + 5, 1): (
        "df43d11237bb982711aba6fd698d42f482bb227d5f4ea68013352db4ea108e7f",
        "8946f05307571843ae150904693aac14c3b134d79eb029cfed847dd3f2233539",
        "438bc853ac3fa6027b7668eb47c8155ad20e29b68f6f78588c35da2f045b2830",
    ),
    (3 * BLOCK + 5, 2): (
        "f057e4c86be15e0932b84fc47011921153e7d94e5809993d61f7deb200b25513",
        "8ea6a38dcf21a8bf51bff98edf008ace3e51e2d3a469eaf0b8ff2e4b92c1c4e2",
        "a1724b6f3b69f0e6b8ae130a0373f69dba83d48b5efb04e50e6eade66153657d",
    ),
    (3 * BLOCK + 5, 3): (
        "9b773853c9994d5ce7869ab5f219654aecee59eb1b64e043ff61536a216d313e",
        "99f36e9ac9c0341680ea2ae7d577e448452777a32d997b2feca635fa1028e264",
        "3d6979e28ec999a82d68e2098d563b0067576eee805f9a4b435ae16753910042",
    ),
    (BLOCK + 1, 1): (
        "d82e892cdb9da1c24446a4dfb146bf99b0b307e553cb479863644887964368f6",
        "b6e106e15e46ebbccad803945332d543665cdb2f1d0c80d53fa3a83fbbd25737",
        "438bc853ac3fa6027b7668eb47c8155ad20e29b68f6f78588c35da2f045b2830",
    ),
    (BLOCK + 1, 2): (
        "df4be34246aa19fb73395a87c76aec8c524c7ead41c19b94886665e1e24838f6",
        "1724bf19a9d0a1179d31d867015e210dcb42e2712401e2bfafa518603a25508d",
        "a1724b6f3b69f0e6b8ae130a0373f69dba83d48b5efb04e50e6eade66153657d",
    ),
    (BLOCK + 1, 3): (
        "d5c9046913abc184c3248276f2a38c32de2aecaccdb8b7a19f849727918409e3",
        "320b0b3d09186bc8d97a285d5ca96e61d33e58a8605fdf5754bea69950b9bae7",
        "3d6979e28ec999a82d68e2098d563b0067576eee805f9a4b435ae16753910042",
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
    "raw": ([], "83669a63ea2a6187c85a67fc72475e5c544121578934ee8f1d56d24e4ce1a4ed"),
    "alpha": (
        ["--alpha", "10"], "6736b582ca1475ba4dad60a0b81c34c9a08f68f8ecd45b2fb7df851b944019cf"
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
