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
        "406eed319d8dd218cfb8bf0cce110f986112e9a217561ede4d996a974aa73d2a",
        "2ba71c61745db47b60679d1a8033e4d28ac128cf32ccd001c7656c8d2ca16b11",
    ),
    "l2_raw": (
        ["--l", "2"],
        "da5dad40c073165df39bc5767f9ddbf8c29cbd6b06e901f9324e419f9cb72ce9",
        "7c93e911359af304023bd8e681528fdec0aaa4f72797d9a15453e6b4f8874735",
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
        "d0a469cc38512c2fb9ceae5506fca25480052a3a4592c5a8e3345d84799db528",
    ),
    "l2_raw": (
        ["--l", "2"],
        "b204c46ff9672068ee2c40e889b8614384a23013ffbdefdde8033c903946bdb3",
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
        "584a2ff00b722f272ffbbb0f42cf99b4d1a51d02de6b894e85988e69cadb726f",
    ),
    "l2": (
        ["--n", "64", "--l", "2", "--tmax", "1.2", "--points", "55"],
        "716bdd238de7ebfd944b2319087285da6cff8837b25a546d90d588daa0e98ec1",
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
            "r.json": "613985753b09805306ed1e372057cfce24f946990fc5415fe8f6d59055f18f06",
            "r.csv": "ba5ae662730885ad3b70ed66022358ef22670f1f614651ea0e5f1444d2cd6aa0",
        },
    ),
    "mtilde_l2": (
        ["mtilde", "--body", "cube", "--n", "20", "--l", "2", "--subspaces", "2",
         "--samples-per-subspace", str(MULTI_CHUNK), "--seed", "8", "--output", "{d}/m.json"],
        {"m.json": "ebd7160b1742aa3590cd60aa4c7f47202af141cf0c1293e682436927da753dd7"},
    ),
    **{
        f"thinshell_{kind}": (
            ["thinshell", "--body", kind, "--n", "20", "--samples", str(MULTI_CHUNK),
             "--seed", "9", "--epsilon", "0.1", "--epsilon", "0.3", "--output", "{d}/t.csv"],
            {"t.csv": sha},
        )
        for kind, sha in {
            "cube": "1c2108ce1d97304cf9f4638513b5bb34a4de423bf5981f82bb451bad482ce6bc",
            "ball": "d9cd44222a73fee4710a60e1f470420077531a90fc2638249e72adaafa5ed627",
            "simplex": "d02baf66c5ee1522e2e3e8b9fd9c1aef9458a3236b8f2fa178d36b262b4c4dcd",
            "product_laplace": "79ac92ed927db6c10b986d8c83776c4c91dd97a14405ace1c39421d6deda5fbd",
            "gaussian": "6356b99ae68405dc299ffb36abd688b08eba8f5e36bc562be191087ccbe97c49",
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
        "60cc94d09e8eaf0ee5595a96b1d7a8692ee9c560c2a2b9593d344b0a1237174b",
        "ac0c5d29ea255493135392036f292912e08c18c90a6115bf62148a02d05aba18",
    ),
    # alpha above c0 * n^-8: no rows, only the certificate's violations.
    "inadmissible": (
        ["--body", "laplace", "--n", "2", "--alpha", "1e-3", "--beta", "0.5",
         "--epsilon", "0.005", "--R", "3"],
        "39f1deb8a43fc241b65df7353544d9064d802e61d1aaec874f404e01c266cb8b",
        "eadaadbb185e984b3f5297084fb9ea4af9241160f3df9990342b1e0ed4641893",
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
        "842fd5b7a542b9fc8f5ee660eda557106ab63ff60ff9c9dd8a2eaa30a1c74b13",
    ),
    # All three conditions fail: alpha, the noise floor and epsilon < 1/100.
    "inadmissible": (
        ["--n", "2", "--alpha", "1e-3", "--beta", "0.5", "--epsilon", "0.5", "--R", "3"],
        "24730176764cba3d793533dfd812de806ef54d84be666d20a5f08c2daac635c8",
    ),
}


@pytest.mark.parametrize("run", sorted(DECONV_RUNS))
def test_deconv_certificate_json_is_golden(run, capsys):
    extra, sha = DECONV_RUNS[run]
    assert main(["deconv", *extra]) == 0
    assert _sha(capsys.readouterr().out.encode()) == sha


DECONV_MATRIX_SHA = "9beea47d33ffe2ccefcf5e7680a18228e3011bfd6255acaeedff15f585608e23"


def test_deconv_matrix_csv_is_golden(tmp_path):
    out = tmp_path / "matrix.csv"
    assert main(["deconv-matrix", "--output", str(out)]) == 0
    assert _sha(out.read_bytes()) == DECONV_MATRIX_SHA


# (body, count) -> (batch file, sidecar); n = 5, seed 3.
SAMPLE_PINS = {
    ("cube", 1): (
        "a41f1b73cf61d7b6127b59f8502df2b2f46310968cab8d231b42ca2f6e7796d9",
        "c746d3d55fe6e56fa3fd822a960b5161a27b961af70a97be0e49e2adad9f049a",
    ),
    ("cube", BLOCK - 1): (
        "4ab6caadd5f4ca0ca9d318cbb326944196bb05aec83913d7d6f55d994354c813",
        "4a3c19ae9b87f1f00c526797fda8d4854c7089d101c8ee71707d7e98c61dae70",
    ),
    ("cube", BLOCK + 1): (
        "8ed965800023a5668fc43c84577ee0f964ec9cf2ddc0d551a12208ead245bc5a",
        "ed9bb4644b850432e3402eb0e0141472e1db4c5837d7c695aa0473d02c45f5cf",
    ),
    ("cube", 32 * BLOCK + 3): (
        "94c3fd298cf5f308a57dd758e1242247754e9f4fe46924419a1ff0c5ead6dc11",
        "9e991da168b58e7f3dcb19d8a74db5793dd88d36ad6696ef197ab14ac77995da",
    ),
    ("ball", 1): (
        "27509e01518fcf346a1e2d3f6d3f7aa3d46716a98a5d1c41dd3ff334b3f90c47",
        "bced511cdf529e0a0639e4d61cb0b5ba1783325c495da917b3581c0d23eb11bb",
    ),
    ("ball", BLOCK - 1): (
        "6c1597581f9f674f586308ab9d23d2093bd93136529c81a448afae9d290a472d",
        "534bf1fbf51ad7248b05630e258150cf39236a0ffedfaab810c95f5c77ecc307",
    ),
    ("ball", BLOCK + 1): (
        "47ed89d268db40c69848958712c027287f6bfee04e7e98a8136aecb4d731169b",
        "fdd1e66da8ac87b191fc0862d307a0abb6914cac0575720203a384852e4d0f12",
    ),
    ("ball", 32 * BLOCK + 3): (
        "a4a1f9dc9a2ee976d5066ab06001be52605c7d20b10c16f6111c5f3e69bf8207",
        "c10450551556e3ca6137944e6884a1539a00f14a2c8cf60b3db15d88f7019d0b",
    ),
    ("simplex", 1): (
        "83db14bf7ebc998eb3566b3efc0d8e0b83288423d96bd5974c905a40f289a97a",
        "27b9aa6b86aaf268fd837c60a9a5b216c1462ec8e43bfa8312dcfd72b0b1c2eb",
    ),
    ("simplex", BLOCK - 1): (
        "c4f2af2630200c5db9913cc9b34c29f0e713e810f49b581f48702a3c6ccbeae8",
        "d8a58b45e748ad04d10897f790fcc63d4423bca7c147443a71194a15f3743082",
    ),
    ("simplex", BLOCK + 1): (
        "a35a299b1acf1ba86bf7d79080890814a76d72861ec9deb35b9a3f9553313d8a",
        "a3991d14b7e006b844d06e28199abdb0ad08e80de63dc68f2584b3406bd7e14a",
    ),
    ("simplex", 32 * BLOCK + 3): (
        "a98ab5c4d6cc0dd82c5620f10e8ce394de87864c76e75cf6341a41b1f02e102f",
        "084e4d1974c2f065e45c1877595ab67ab322c62a13c3d3b0812ea5cb6e63e29a",
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
        "88e591fe047544bb6eabbc263edad96fab53fcc1e831a76152dbf7f89c85856a",
        "db987499ab9de3eb49b02603fbe0f75b89a0ca7733cea336a394eacfbf7dece3",
    ),
    (1, 2): (
        "508e2b83e04487f9511d7db256923243f2ad85bb9fd442c3487a3216421bd1fa",
        "27d3b757fe8c00cbd106ac51d926b4b8633ab7760964987a278ad8a289013fdc",
        "27a3922967c542735ff548f78c2a73b71bafc3e104215739e1aa21d705b3a641",
    ),
    (1, 3): (
        "8d112df0e619ec4973d9aa41a0a3cce34a2b99bd1db31150b0a14b4dbab09eed",
        "a124688ca6ee64e3511fc9bb5d64deb98a028143960b7759b64dd506428cf01c",
        "d10f45e3a90e53dc24a66d56d2e0a253ebdbb5cb3b67361f4cfc8c9ac171522e",
    ),
    (1000, 1): (
        "b3c96e2efb8944e901b9ce42ca9ad1f90cf4379174b5596c5b616ce6c2a92984",
        "8a96bee29195832ad94cf1b601430e525d1abcab80a893b8fa6e4179c4848033",
        "db987499ab9de3eb49b02603fbe0f75b89a0ca7733cea336a394eacfbf7dece3",
    ),
    (1000, 2): (
        "ddd4a35c95b636a1f7a1a69736618bc15f4dac6697aa95ce559a2389b07c62b2",
        "485dd118423474df4ac7d03324141f644d73444de43a03fef4e53a6da76b2332",
        "27a3922967c542735ff548f78c2a73b71bafc3e104215739e1aa21d705b3a641",
    ),
    (1000, 3): (
        "cd25686ff87832a4f38602e83da0c2e48a8abfe4435be5d072f2bfb712b23d20",
        "6e8622c0ba080bf2321b212824a913745ceb2b9466bd8341ee8997a62abd5637",
        "d10f45e3a90e53dc24a66d56d2e0a253ebdbb5cb3b67361f4cfc8c9ac171522e",
    ),
    (3 * BLOCK + 5, 1): (
        "df43d11237bb982711aba6fd698d42f482bb227d5f4ea68013352db4ea108e7f",
        "7e4393ff223680953a1efcbda99712dabc8e35af13e0052687ddc1cfa559f030",
        "db987499ab9de3eb49b02603fbe0f75b89a0ca7733cea336a394eacfbf7dece3",
    ),
    (3 * BLOCK + 5, 2): (
        "f057e4c86be15e0932b84fc47011921153e7d94e5809993d61f7deb200b25513",
        "b0f7a7d55404aa7a8241f44681fac8727b4810d3e9736af4e554fffaa1607667",
        "27a3922967c542735ff548f78c2a73b71bafc3e104215739e1aa21d705b3a641",
    ),
    (3 * BLOCK + 5, 3): (
        "9b773853c9994d5ce7869ab5f219654aecee59eb1b64e043ff61536a216d313e",
        "86c04dfc6af7d31be4acdf5a4c3b314ea200d9facac4b8f8ae00c703c04f4eec",
        "d10f45e3a90e53dc24a66d56d2e0a253ebdbb5cb3b67361f4cfc8c9ac171522e",
    ),
    (BLOCK + 1, 1): (
        "d82e892cdb9da1c24446a4dfb146bf99b0b307e553cb479863644887964368f6",
        "a2ca8cb786b2e2c7975bbd448cf97a96d2c82a1968fa9b5e8b53ad312cb79674",
        "db987499ab9de3eb49b02603fbe0f75b89a0ca7733cea336a394eacfbf7dece3",
    ),
    (BLOCK + 1, 2): (
        "df4be34246aa19fb73395a87c76aec8c524c7ead41c19b94886665e1e24838f6",
        "5ed2a646d7bc454b65149eaeba5ccb6de00b00c092815d78150d8e5da9e48890",
        "27a3922967c542735ff548f78c2a73b71bafc3e104215739e1aa21d705b3a641",
    ),
    (BLOCK + 1, 3): (
        "d5c9046913abc184c3248276f2a38c32de2aecaccdb8b7a19f849727918409e3",
        "db32e06ba706c624cbf6432c867ec37aed93c7673e1d44810d8d7876fa717a8f",
        "d10f45e3a90e53dc24a66d56d2e0a253ebdbb5cb3b67361f4cfc8c9ac171522e",
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


SAMPLE_CSV_SHA = "b18369004ebc53ff37429cb811bf7caa91ba5a89901bbf33cf6c071b9fd91e4a"


def test_sample_csv_is_golden(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["sample", "--body", "ball", "--n", "3", "--samples", "500", "--seed", "13",
               "--format", "csv", "--output", str(out)])
    assert rc == 0
    assert _sha(out.read_bytes()) == SAMPLE_CSV_SHA
