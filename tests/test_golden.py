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
        "312218bac05bd433870d76234eecf4840f5ce82b5792a0fbc33a87fcb7d8a6a2",
        "3d694d5b39c22f7230c0eaaebb2b74f43ed180745d0c354f34ad1a8eb7edd3db",
    ),
    "l2_raw": (
        ["--l", "2"],
        "a6cc111339dc48f97aa18dc68785ff09ed280363b779415751707c0b41ee92e2",
        "92a52baae6b254f827ef00670d9b48d4e6de00dfa8ac8e7a263d30f1c0fa8474",
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
        "9a16bae429bd0fc92ac551dfe0fdcbda73e9c82cd9715bdd8e494e58c25571e8",
    ),
    "l2_raw": (
        ["--l", "2"],
        "0d085a340082ab6a1abf568ad69d50c790093c5ca3d8924521f2699349dcb13b",
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
        "a9210d8bd0b2e2ea832819b8bb5255b88a9cbbb19060e7b07e6c513285b0c261",
    ),
    "l2": (
        ["--n", "64", "--l", "2", "--tmax", "1.2", "--points", "55"],
        "48327e3ad892e079bd44bed771cc73681647ebdc72d7089f153cf804e93bc2cf",
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


CRITERION_7_QUICK_SUP = "0.020233022729186922"


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
            "r.json": "b51cf9b2ac666166418a609578eec31b8a495338b5daf1da68bde59c46650664",
            "r.csv": "eac14ffc12e6cf7582b5321d8b89acab5d76e5e8d18fe39fd47f84a2f7118db0",
        },
    ),
    "mtilde_l2": (
        ["mtilde", "--body", "cube", "--n", "20", "--l", "2", "--subspaces", "2",
         "--samples-per-subspace", str(MULTI_CHUNK), "--seed", "8", "--output", "{d}/m.json"],
        {"m.json": "72198fae9043be94843cbc2c48ddff4cd1ba54fb1709cef859247935b5bd8ba6"},
    ),
    **{
        f"thinshell_{kind}": (
            ["thinshell", "--body", kind, "--n", "20", "--samples", str(MULTI_CHUNK),
             "--seed", "9", "--epsilon", "0.1", "--epsilon", "0.3", "--output", "{d}/t.csv"],
            {"t.csv": sha},
        )
        for kind, sha in {
            "cube": "8526f3dc07f83465ddcebbffe4663feb98deb6d86bcf85bb7d2371153b607a43",
            "ball": "44f27b6555daaa9bbaf879d0b7ae0f0d1bb5525a0232aae6dc85320967f3c60c",
            "simplex": "730d50216ed22177edd7afac67ceeeca33f48fe293c63d7bcd3537e3a2777906",
            "product_laplace": "385efac1bd75b093811f54cc9fe6374fe3b112a3f015c227be9a076e80156b7b",
            "gaussian": "e14dcd481674db2e2aee3106f189f82d6843a6966925c4ee8e1624ca5bf1e17f",
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
        "8e56fd46fd43ee0478f1e811354053b53e352863eba341d878ce0c30d5986852",
        "c2fb0a7ec233247b6db1b2691a8ead01406688473e5593c5f3e1e724494bd3a8",
    ),
    # alpha above c0 * n^-8: no rows, only the certificate's violations.
    "inadmissible": (
        ["--body", "laplace", "--n", "2", "--alpha", "1e-3", "--beta", "0.5",
         "--epsilon", "0.005", "--R", "3"],
        "5a33981d1d905c1afcd0b7b301a5f8cbf256888c68b90c32df5273482dee9221",
        "841749ccb49246238c257a0899ebd341dfbece5799246e12c520f22791a80228",
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
        "f7623271b9c9dfb3dd062bbea31272172adff78f1ab1f4fa4c4cbe6e452f5b25",
    ),
    # All three conditions fail: alpha, the noise floor and epsilon < 1/100.
    "inadmissible": (
        ["--n", "2", "--alpha", "1e-3", "--beta", "0.5", "--epsilon", "0.5", "--R", "3"],
        "3571715a9d1db81170eb4f5904907e9cc79c3b2738efc4fbfb1de8240eeb990a",
    ),
}


@pytest.mark.parametrize("run", sorted(DECONV_RUNS))
def test_deconv_certificate_json_is_golden(run, capsys):
    extra, sha = DECONV_RUNS[run]
    assert main(["deconv", *extra]) == 0
    assert _sha(capsys.readouterr().out.encode()) == sha


DECONV_MATRIX_SHA = "349b5af7a1e4a1a50fcb970f0907186a027b61d0c592b359cbd569cceb872bd8"


def test_deconv_matrix_csv_is_golden(tmp_path):
    out = tmp_path / "matrix.csv"
    assert main(["deconv-matrix", "--output", str(out)]) == 0
    assert _sha(out.read_bytes()) == DECONV_MATRIX_SHA


# (body, count) -> (batch file, sidecar); n = 5, seed 3.
SAMPLE_PINS = {
    ("cube", 1): (
        "a41f1b73cf61d7b6127b59f8502df2b2f46310968cab8d231b42ca2f6e7796d9",
        "505fe36c5128c62ed69de6ffe33f069cc31e16ae7a3a70cccba9509f4dd078ec",
    ),
    ("cube", BLOCK - 1): (
        "4ab6caadd5f4ca0ca9d318cbb326944196bb05aec83913d7d6f55d994354c813",
        "42d024bc5c59fae5423c1000419a5c4f4124f65ea2c0a0d31aa17286c31dd9a0",
    ),
    ("cube", BLOCK + 1): (
        "8ed965800023a5668fc43c84577ee0f964ec9cf2ddc0d551a12208ead245bc5a",
        "382f0ac50445e9c42fd4cdcef50947fce35209615cbaef2bfac9e811801aadb9",
    ),
    ("cube", 32 * BLOCK + 3): (
        "94c3fd298cf5f308a57dd758e1242247754e9f4fe46924419a1ff0c5ead6dc11",
        "f146285a83f96f41d9951ce6b5f30a98831291abfbe9198214667ece73f061b0",
    ),
    ("ball", 1): (
        "27509e01518fcf346a1e2d3f6d3f7aa3d46716a98a5d1c41dd3ff334b3f90c47",
        "084b4932b5fd86c0d3fdaa5cad92a8572cd2c53cf2a7483ac795881e7ac10111",
    ),
    ("ball", BLOCK - 1): (
        "6c1597581f9f674f586308ab9d23d2093bd93136529c81a448afae9d290a472d",
        "8620efb39ece3e84677076c50470aa33af771d51d6c369576e808209dd017f3e",
    ),
    ("ball", BLOCK + 1): (
        "47ed89d268db40c69848958712c027287f6bfee04e7e98a8136aecb4d731169b",
        "d4bafa8b58d5de31f9c21312079e1cdd3c726201ce0e67c4f314bb8e155096b9",
    ),
    ("ball", 32 * BLOCK + 3): (
        "a4a1f9dc9a2ee976d5066ab06001be52605c7d20b10c16f6111c5f3e69bf8207",
        "a60e448d3fbd129f8c11176e77d238f0a80ca0e39382b08323da2ec4b8b20c6c",
    ),
    ("simplex", 1): (
        "83db14bf7ebc998eb3566b3efc0d8e0b83288423d96bd5974c905a40f289a97a",
        "8a6553136435b257a9dbadb913f89da4bd981834f43cec5be03b9134a45e4b41",
    ),
    ("simplex", BLOCK - 1): (
        "c4f2af2630200c5db9913cc9b34c29f0e713e810f49b581f48702a3c6ccbeae8",
        "cc1f8264b4fd53da2f6e2005e62c6c9aa6b1f3b10bfcfebee8efbb56e2eabb20",
    ),
    ("simplex", BLOCK + 1): (
        "a35a299b1acf1ba86bf7d79080890814a76d72861ec9deb35b9a3f9553313d8a",
        "5ea0f0bc169aac8a32f8d7f196454e42fa582c8868f87e5655df7d1537de686a",
    ),
    ("simplex", 32 * BLOCK + 3): (
        "a98ab5c4d6cc0dd82c5620f10e8ce394de87864c76e75cf6341a41b1f02e102f",
        "59f20cc0187f7d87f52c3feeebf68e301cde9248720e1eb205a326762b58b387",
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
        "2d332dfaff4a4e815a4862cf5780559cb6619f53bc04868a63c3e9662f0e0220",
        "3ecb69110b6b59132288b967415d5d1c5109f77f9abc41424231be096fcc4ed8",
    ),
    (1, 2): (
        "508e2b83e04487f9511d7db256923243f2ad85bb9fd442c3487a3216421bd1fa",
        "826bda38a81fdca0d69c06aebabfa5266a6fe2720bb735fcd73e5bd442b90e39",
        "5dcf39095d44e285a3521f8a30063b49e6ae4a3676642a40403e47945179a2d6",
    ),
    (1, 3): (
        "8d112df0e619ec4973d9aa41a0a3cce34a2b99bd1db31150b0a14b4dbab09eed",
        "476c675b80de055a312bf6f700b8b276f67510651c125d0ad823a069890c1768",
        "0e9345124464d6b81bc11252f70f2619a35360b09c55eb21dcc1a8e77c8382b5",
    ),
    (1000, 1): (
        "b3c96e2efb8944e901b9ce42ca9ad1f90cf4379174b5596c5b616ce6c2a92984",
        "5fdf65b2db8e416831d085dc79fdd7193c6ae41f0cc5b0b6b358dce4d8091651",
        "3ecb69110b6b59132288b967415d5d1c5109f77f9abc41424231be096fcc4ed8",
    ),
    (1000, 2): (
        "ddd4a35c95b636a1f7a1a69736618bc15f4dac6697aa95ce559a2389b07c62b2",
        "8d1e801518e056005a1a5aaecc35f1066c09bc3bd1d0fdb6f2ec1fd408d15dcc",
        "5dcf39095d44e285a3521f8a30063b49e6ae4a3676642a40403e47945179a2d6",
    ),
    (1000, 3): (
        "cd25686ff87832a4f38602e83da0c2e48a8abfe4435be5d072f2bfb712b23d20",
        "8b832fc6c7dfed7e38c96d4c6f5efc4d4e4062680b218c21c2c5516148c9aeeb",
        "0e9345124464d6b81bc11252f70f2619a35360b09c55eb21dcc1a8e77c8382b5",
    ),
    (3 * BLOCK + 5, 1): (
        "df43d11237bb982711aba6fd698d42f482bb227d5f4ea68013352db4ea108e7f",
        "476e8e27a6ff55bd8c5f847dcac0f9222ba3c220ac81f0048c686ea39a0e1839",
        "3ecb69110b6b59132288b967415d5d1c5109f77f9abc41424231be096fcc4ed8",
    ),
    (3 * BLOCK + 5, 2): (
        "f057e4c86be15e0932b84fc47011921153e7d94e5809993d61f7deb200b25513",
        "2e324bd044c899d2aff4d52fd20c3bb3c5336e1b2105d2473879aaf395be4479",
        "5dcf39095d44e285a3521f8a30063b49e6ae4a3676642a40403e47945179a2d6",
    ),
    (3 * BLOCK + 5, 3): (
        "9b773853c9994d5ce7869ab5f219654aecee59eb1b64e043ff61536a216d313e",
        "0799122d0c8bc0edc35c1a742949f75c2b153f2b75b0a35f9d8940da1697425a",
        "0e9345124464d6b81bc11252f70f2619a35360b09c55eb21dcc1a8e77c8382b5",
    ),
    (BLOCK + 1, 1): (
        "d82e892cdb9da1c24446a4dfb146bf99b0b307e553cb479863644887964368f6",
        "f86982c7e20b7fe4a3ebf00e84c39274c99f884ff2bbca5f76ab2b48f5ba1874",
        "3ecb69110b6b59132288b967415d5d1c5109f77f9abc41424231be096fcc4ed8",
    ),
    (BLOCK + 1, 2): (
        "df4be34246aa19fb73395a87c76aec8c524c7ead41c19b94886665e1e24838f6",
        "185ebc37d91d5c3ee8b33c6708467d47ccb5af8d58ade24f08815196687e47b9",
        "5dcf39095d44e285a3521f8a30063b49e6ae4a3676642a40403e47945179a2d6",
    ),
    (BLOCK + 1, 3): (
        "d5c9046913abc184c3248276f2a38c32de2aecaccdb8b7a19f849727918409e3",
        "c0755ba418410cdf4325c5732964836fecdffb33405524113c6f77361b020a3d",
        "0e9345124464d6b81bc11252f70f2619a35360b09c55eb21dcc1a8e77c8382b5",
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


SAMPLE_CSV_SHA = "4c26e46f4e5642ce588d9c773ec67407d0b84bfe2accd940453fb86944c43546"


def test_sample_csv_is_golden(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["sample", "--body", "ball", "--n", "3", "--samples", "500", "--seed", "13",
               "--format", "csv", "--output", str(out)])
    assert rc == 0
    assert _sha(out.read_bytes()) == SAMPLE_CSV_SHA
