"""Golden bytes of the projected-ratio pipeline and the library's noise step.

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
and CSV; ``sample`` draws no noise) and ``project --input`` are pinned at
counts on both sides of a block and of many blocks, at one and two threads;
``sample`` also at the default.  The noise step, ``convolve_and_rescale``,
is a library call only, pinned by its output bytes (``CONVOLVE_SHA``) and,
at the counts and thread counts above, by the data bytes that the retired
``sample --alpha`` wrote.
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
        "4295205513273dd224fe40f9b3457e198a878533892dc2b64ece98c9e7eea892",
        "6db3adb61775627feef763b1055f8d9ed9ddd927c362e433f7abca8bb356776e",
    ),
    "l2_raw": (
        ["--l", "2"],
        "899f60ff6db4ac5e09b4c129c212fb0f7f2bcfc3d06bda9c9c182ae184677b15",
        "d67ef4bb1115197f1dc3f7f48b8ffed3814086c6cbdb937d4cfb27146dfedb5e",
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
        "211b9a43b98687130afcab830606014a316aa57c3096800db7b02474f29c9bf5",
    ),
    "l2_raw": (
        ["--l", "2"],
        "e0b5b69f3066281e95b9214d0cad615b4de2445fa660394af315210cae17b049",
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
        "d526d7a8c2486e986c484aea016bdbc5772cddc63c8d1c0b31078533d1e52f92",
    ),
    "l2": (
        ["--n", "64", "--l", "2", "--tmax", "1.2", "--points", "55"],
        "7b94a7f2a84fbbc35e94e584c4029aaf16722e42ff5947b5bb52159d3fb4f5ec",
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
            "r.json": "46c887fb4d9884b5389e56dcedca82e3786681c3e5ec1b7df1407f0d79fd6048",
            "r.csv": "0696078c2a0befdad089e755bbbbc7f0ad168d4d8445a2067f21ee977ffcecc9",
        },
    ),
    "mtilde_l2": (
        ["mtilde", "--body", "cube", "--n", "20", "--l", "2", "--subspaces", "2",
         "--samples-per-subspace", str(MULTI_CHUNK), "--seed", "8", "--output", "{d}/m.json"],
        {"m.json": "1e5b51c88cb34b0ac1a802a6eeb19f8b9a61b56dcca88e12fc8ebd8bdbacaabf"},
    ),
    **{
        f"thinshell_{kind}": (
            ["thinshell", "--body", kind, "--n", "20", "--samples", str(MULTI_CHUNK),
             "--seed", "9", "--epsilon", "0.1", "--epsilon", "0.3", "--output", "{d}/t.csv"],
            {"t.csv": sha},
        )
        for kind, sha in {
            "cube": "1a7ddcb84898d3e268373ea6225538a0a29be9d86658ac65563f225637b7c792",
            "ball": "2be404b89b98a1e6355c427767d8fc2d26936091034c454ae9abe7a5dd881a83",
            "simplex": "0fa5c8a4de9762e6965ce1ad1b4903f940485f2a7d7ec813e33e6b1a84ed1ba6",
            "product_laplace": "1a98be666d5d8c7f74934bea118135386f57a71adf6099fcb5213acc64b9d001",
            "gaussian": "b57c5814551c84fd9a43b0e08f8c38c0504a231b6aef6b0bb094b512205e5428",
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
        "4de241437b514e940627920f5bbf7f91d858dc480d53b8548c6c246af2b5a791",
        "782afc7c47684d9257955034f2aa15c20e76d8f33fd03563fddc2897b0f7a040",
    ),
    # alpha above c0 * n^-8: no rows, only the certificate's violations.
    "inadmissible": (
        ["--body", "laplace", "--n", "2", "--alpha", "1e-3", "--beta", "0.5",
         "--epsilon", "0.005", "--R", "3"],
        "f7299ae5320e463c52961a7f21ce80d7221440edbd7d609df48664b23dad7d9a",
        "b2b0bfbc2414ea9a8c1d0ca465029cfeb23a2add61289576be89ea9ff2e9d813",
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
        "e697b9e4d53d3aca14e96da6e7e990179b37ff143451d50b9b6febdfa1bad265",
    ),
    # All three conditions fail: alpha, the noise floor and epsilon < 1/100.
    "inadmissible": (
        ["--n", "2", "--alpha", "1e-3", "--beta", "0.5", "--epsilon", "0.5", "--R", "3"],
        "b90744827ec26ac0d5d4aa47aab1ea3f5131a5590792a6d62411d6e942c4b32c",
    ),
}


@pytest.mark.parametrize("run", sorted(DECONV_RUNS))
def test_deconv_certificate_json_is_golden(run, capsys):
    extra, sha = DECONV_RUNS[run]
    assert main(["deconv", *extra]) == 0
    assert _sha(capsys.readouterr().out.encode()) == sha


DECONV_MATRIX_SHA = "a8d4ba00aec5f8ad56c992eb5bdf7a1daabda7a353d8740a96507c39310831d9"


def test_deconv_matrix_csv_is_golden(tmp_path):
    out = tmp_path / "matrix.csv"
    assert main(["deconv-matrix", "--output", str(out)]) == 0
    assert _sha(out.read_bytes()) == DECONV_MATRIX_SHA


# (body, count) -> (batch file, sidecar); n = 5, seed 3.
SAMPLE_PINS = {
    ("cube", 1): (
        "a41f1b73cf61d7b6127b59f8502df2b2f46310968cab8d231b42ca2f6e7796d9",
        "dd121636bca98ed23c56b4ee96d33a8f0b7c0cd4fe46ffc460ad902281e12161",
    ),
    ("cube", BLOCK - 1): (
        "4ab6caadd5f4ca0ca9d318cbb326944196bb05aec83913d7d6f55d994354c813",
        "8d7a1c45312475e98094701868d723b42f6e169c070c4e105df1781c9c1dd4ca",
    ),
    ("cube", BLOCK + 1): (
        "8ed965800023a5668fc43c84577ee0f964ec9cf2ddc0d551a12208ead245bc5a",
        "41d4709f4070e3a19d0f2a8a79fba0165cf7a6451783cb132e2f34c5b5b159e8",
    ),
    ("cube", 32 * BLOCK + 3): (
        "94c3fd298cf5f308a57dd758e1242247754e9f4fe46924419a1ff0c5ead6dc11",
        "c71a6c3aa6308b8b20397ae861172409c34ec53083eccffa6f4361abddc312e7",
    ),
    ("ball", 1): (
        "27509e01518fcf346a1e2d3f6d3f7aa3d46716a98a5d1c41dd3ff334b3f90c47",
        "229ae0f96e9e5bdfc1e2e74632cb79746ee52dbf41fa2f800b8e05579a2b0f3d",
    ),
    ("ball", BLOCK - 1): (
        "6c1597581f9f674f586308ab9d23d2093bd93136529c81a448afae9d290a472d",
        "8c031f1b6cc7f12dd6363d13d96af15d65579f1f4e0263afcefca9f29e9d1863",
    ),
    ("ball", BLOCK + 1): (
        "47ed89d268db40c69848958712c027287f6bfee04e7e98a8136aecb4d731169b",
        "206e07af7549d013f7c8528853a4d5e58114e8fa3b8dfc34081afb80ab49fba4",
    ),
    ("ball", 32 * BLOCK + 3): (
        "a4a1f9dc9a2ee976d5066ab06001be52605c7d20b10c16f6111c5f3e69bf8207",
        "61a5ebb4ac39a199294e952af215d853d1db5bb1d54f1b9e41877040d75709b5",
    ),
    ("simplex", 1): (
        "83db14bf7ebc998eb3566b3efc0d8e0b83288423d96bd5974c905a40f289a97a",
        "11a2f5b385e57e7c930eea6fe2e5b4bca0f5cdfe2090fbf71604e880fe2093fc",
    ),
    ("simplex", BLOCK - 1): (
        "c4f2af2630200c5db9913cc9b34c29f0e713e810f49b581f48702a3c6ccbeae8",
        "869e9d07194b48151ae1077899b8534d55f88036f28309b650e64ab1d4cc163a",
    ),
    ("simplex", BLOCK + 1): (
        "a35a299b1acf1ba86bf7d79080890814a76d72861ec9deb35b9a3f9553313d8a",
        "ec917e3d8b7d0f318ce85f16994712c7765adbdb83a08fb6433c9d6c7dcaf837",
    ),
    ("simplex", 32 * BLOCK + 3): (
        "a98ab5c4d6cc0dd82c5620f10e8ce394de87864c76e75cf6341a41b1f02e102f",
        "09a1d48d00e96891391c74abe40587b97f112521218f5ad2d2a67d8809da2997",
    ),
}


@pytest.mark.parametrize("threads", [1, 2, None])
@pytest.mark.parametrize("key", list(SAMPLE_PINS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_sample_batch_files_are_golden(key, threads, tmp_path):
    kind, count = key
    out = tmp_path / "s.bin"
    rc = main(["sample", "--body", kind, "--n", "5", "--samples", str(count), "--seed", "3",
               *_threads_flag(threads), "--output", str(out)])
    assert rc == 0
    sidecar = tmp_path / "s.bin.json"
    assert (_sha(out.read_bytes()), _sha(sidecar.read_bytes())) == SAMPLE_PINS[key]


# (body, count) -> column-major data bytes of the smoothed batch that
# ``sample --alpha 10 --seed 3`` wrote at n = 5 (schema 9): body seed child 0,
# noise seed child 1 of SeedSequence(3).
SMOOTHED_SAMPLE_PINS = {
    ("cube", 1): "777c97f8ea88083e5790e46476c0d73d309df2e6729f9f08a3bc2b01de602900",
    ("cube", BLOCK - 1): "154de557db65eccdeb10bf0bd8225d4fc2e402724d0c47e0581000ae3ae72f91",
    ("cube", BLOCK + 1): "54a3fb835386a6ec79058ca58ac3b0be213b6047eb09506a133619038f9e810f",
    ("cube", 32 * BLOCK + 3): "b9f395099313745b7ee79965945d8b1fdb24ffe1c501777f0494a672a7bf9126",
    ("ball", 1): "decc22ddd74887005cdcaee7be4b94157b2a68a1b63e710b5305440de65eacc4",
    ("ball", BLOCK - 1): "27742268f69997e53d6188baac42d7197574cef0f13a239e4739470e4409754f",
    ("ball", BLOCK + 1): "0a9a2599f572f8d02188020f2594af225cb1660ce64bde6d80e80ec78d2a171b",
    ("ball", 32 * BLOCK + 3): "1bde47649f7e6c14d6bf8c55b0794b740df19a2b6abee9f2e67bbf67b5540f66",
    ("simplex", 1): "e22e97fbde6843f863f29f066906b160a28e950406be18d7b126f23cc1ff7b1b",
    ("simplex", BLOCK - 1): "c9c4c0aef14acf8a7e55b57aa3a75cb62dfa75ca2d9bf29b308b67dac5a216aa",
    ("simplex", BLOCK + 1): "5661c144653818d09356009adcd927f3b67ddc9ecbb442cdabc5c95ad9ca293e",
    ("simplex", 32 * BLOCK + 3): "e4fb85ca31a457c5198d1a1511faf70377bbe89c8473fd0868520ecd9b094f11",
}


@pytest.mark.parametrize("threads", [1, 2, None])
@pytest.mark.parametrize("key", list(SMOOTHED_SAMPLE_PINS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_the_library_noise_step_keeps_the_smoothed_sample_bytes(key, threads):
    # The noise step is a library call now; at the block edges and thread
    # counts that ``sample --alpha`` was pinned at, it draws the same bits.
    kind, count = key
    threads = threads or projclt.cli.usable_cores()
    body_seed, noise_seed = np.random.SeedSequence(3).spawn(2)
    x = sample_body(BodySpec(kind, 5), count, body_seed, threads=threads)
    y = convolve_and_rescale(x, ConvolutionSchedule(10.0), noise_seed, threads=threads)
    assert _sha(np.asfortranarray(y.data).tobytes(order="F")) == SMOOTHED_SAMPLE_PINS[key]


# (count, l) -> (projection file, its sidecar, basis); a simplex batch at
# n = 20, seed 4, projected with seed 5.  The input path is echoed, so the
# runs use the same relative path.  A one-row file's slab is C- and
# F-contiguous at once and must still take the column-major kernel.
PROJECT_PINS = {
    (1, 1): (
        "3aeda53a62926e46ba9a4787eacd80244a2abba665656517dabac8948c72a034",
        "304b63469f1897af0bba2385659ae362654cd1eebcaa82adfa7bdf6ba70fa79d",
        "02fe7ff1ddc839f5a85b9fdf1c501f8fe879d432abb23a7771089a90faab9944",
    ),
    (1, 2): (
        "508e2b83e04487f9511d7db256923243f2ad85bb9fd442c3487a3216421bd1fa",
        "7944f8d1bd6c07d67288bdc426d6fd333bfa280e637798996ad2a7b040fda521",
        "8283379446a08d853a574cce04849a88f8b20247bb4588109a803474c1615c80",
    ),
    (1, 3): (
        "8d112df0e619ec4973d9aa41a0a3cce34a2b99bd1db31150b0a14b4dbab09eed",
        "306c644497f439c1d28194d3181d612594eafbddb2800afe9289b14426c7941b",
        "4749dbe712a1f5337415b4046e375059b6ac5fb1417dc625736c9cd932bbad2b",
    ),
    (1000, 1): (
        "b3c96e2efb8944e901b9ce42ca9ad1f90cf4379174b5596c5b616ce6c2a92984",
        "de11a01c6eb50b5cb89b3c74fc8f3aec0cecbf9465069996e23efe67c2a8a4dd",
        "02fe7ff1ddc839f5a85b9fdf1c501f8fe879d432abb23a7771089a90faab9944",
    ),
    (1000, 2): (
        "ddd4a35c95b636a1f7a1a69736618bc15f4dac6697aa95ce559a2389b07c62b2",
        "ff5b6acc025df9db28af2d9754a9eb7ce0f3b98e10a96a71f2585309fab4ee16",
        "8283379446a08d853a574cce04849a88f8b20247bb4588109a803474c1615c80",
    ),
    (1000, 3): (
        "cd25686ff87832a4f38602e83da0c2e48a8abfe4435be5d072f2bfb712b23d20",
        "5b293a501693b743ed8f1039055db8969d854e3dc2d2a103d882ec3168da1a6a",
        "4749dbe712a1f5337415b4046e375059b6ac5fb1417dc625736c9cd932bbad2b",
    ),
    (3 * BLOCK + 5, 1): (
        "df43d11237bb982711aba6fd698d42f482bb227d5f4ea68013352db4ea108e7f",
        "10a61288bbfd317a3aa03c662ac349e183763490a023f5c25416b6d00a356e33",
        "02fe7ff1ddc839f5a85b9fdf1c501f8fe879d432abb23a7771089a90faab9944",
    ),
    (3 * BLOCK + 5, 2): (
        "f057e4c86be15e0932b84fc47011921153e7d94e5809993d61f7deb200b25513",
        "e2b01c3d14d5afc5ae0e46ea7e2f190c5d7fec0ddc5162e8c3d783731f7ce24f",
        "8283379446a08d853a574cce04849a88f8b20247bb4588109a803474c1615c80",
    ),
    (3 * BLOCK + 5, 3): (
        "9b773853c9994d5ce7869ab5f219654aecee59eb1b64e043ff61536a216d313e",
        "2c999411da41565325450c20d57f8f59be19502147cddf1094d457f1e34da882",
        "4749dbe712a1f5337415b4046e375059b6ac5fb1417dc625736c9cd932bbad2b",
    ),
    (BLOCK + 1, 1): (
        "d82e892cdb9da1c24446a4dfb146bf99b0b307e553cb479863644887964368f6",
        "7c442e01c012b98fb7c80ae90f99a2dcd9feb5959a6ec771ce615efe2cd507c0",
        "02fe7ff1ddc839f5a85b9fdf1c501f8fe879d432abb23a7771089a90faab9944",
    ),
    (BLOCK + 1, 2): (
        "df4be34246aa19fb73395a87c76aec8c524c7ead41c19b94886665e1e24838f6",
        "7ab5df6eb30f421b92a5f854319f934892da1360a0a04a9e06e25958e33885e3",
        "8283379446a08d853a574cce04849a88f8b20247bb4588109a803474c1615c80",
    ),
    (BLOCK + 1, 3): (
        "d5c9046913abc184c3248276f2a38c32de2aecaccdb8b7a19f849727918409e3",
        "7170e9bb0710519c62027011d36de106c443389e517c83deb50f2905401d0a45",
        "4749dbe712a1f5337415b4046e375059b6ac5fb1417dc625736c9cd932bbad2b",
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


SAMPLE_CSV_SHA = "59c8a8a1e173438271ee52ae0187130d49b7c15efeabbd35ca45e092d46321f7"


def test_sample_csv_is_golden(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["sample", "--body", "ball", "--n", "3", "--samples", "500", "--seed", "13",
               "--format", "csv", "--output", str(out)])
    assert rc == 0
    assert _sha(out.read_bytes()) == SAMPLE_CSV_SHA
