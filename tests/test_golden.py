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
        "44b8318da9a8dd161bdee6ff5619db995876b99aa699bafd19daf917c7c4fc15",
        "dd208492e3dfab729c3e2dbfaf5c3cb48e6f43f575bfac97143c397fb7d6ba3a",
    ),
    "l2_raw": (
        ["--l", "2"],
        "3392c1559b8dcf4a942a180c7532ebfaf8e07bf2f6b18e0e4207924f090c4bb3",
        "ed01a2bf6de8d21c67fb0e27bc00ee746763669671552c52a7d70a0c9205c6fa",
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
        "ee046b27a1aeefdda9b7916dda4bd94dbbe2abbc0d2e3ee53de4d974465e2bef",
    ),
    "l2_raw": (
        ["--l", "2"],
        "d1d179ee06c554f3e0752cd18b42e9f7b5fd09b174a90f9b44df30652a1a23f2",
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
        "bba2d95275b6cc7fa5bc650c914c10a3c41c0a96d1a3f4d19b04b7ab5e5de729",
    ),
    "l2": (
        ["--n", "64", "--l", "2", "--tmax", "1.2", "--points", "55"],
        "32633a4923c3eee013e217117f381ec7edef373a0cfd764750114b0537b30126",
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
            "r.json": "b6b86d29dc2bb2f0698efd567c396cf9e8d86777e0b37d192a57ab2bb6079c4f",
            "r.csv": "25bbe52036b8beff2e34fa7bb57a6b00e42c56f29f908370053cf50896e2dd45",
        },
    ),
    "mtilde_l2": (
        ["mtilde", "--body", "cube", "--n", "20", "--l", "2", "--subspaces", "2",
         "--samples-per-subspace", str(MULTI_CHUNK), "--seed", "8", "--output", "{d}/m.json"],
        {"m.json": "6ab3f227928b38cd1fcc911267c20815c0cf27bd34365801c2c86d2f2debd5f1"},
    ),
    **{
        f"thinshell_{kind}": (
            ["thinshell", "--body", kind, "--n", "20", "--samples", str(MULTI_CHUNK),
             "--seed", "9", "--epsilon", "0.1", "--epsilon", "0.3", "--output", "{d}/t.csv"],
            {"t.csv": sha},
        )
        for kind, sha in {
            "cube": "7b9f22ebf8c95489dc6c4e5e29a3965d8d6d511beff989b8dd5eab65d4edbd93",
            "ball": "04cf739ee4ab98fb5b391f8bc5e130d3e245e6d8dfba8790119a66d0b988b48d",
            "simplex": "932350f91f81d394256da074079c3b9c74a13b3ddfc17649129314ec62050d5b",
            "product_laplace": "1f18f699dd2222c6395f3ebee081e7354d989cdf963dad20d239428b4195a967",
            "gaussian": "5199e31f7d22576662ce1d546237b443d249e9ff62e470bfab29f8fddf0ce654",
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
        "ff8dd6396a13ad7ad003f2c0d2e4393cfe1d06ddc1220d5535d11a53744b9aa7",
        "e08477309e0b57b604ef54daaa8536afb4d3b3695f4adbd3532bc21e7c514d95",
    ),
    # alpha above c0 * n^-8: no rows, only the certificate's violations.
    "inadmissible": (
        ["--body", "laplace", "--n", "2", "--alpha", "1e-3", "--beta", "0.5",
         "--epsilon", "0.005", "--R", "3"],
        "65d45f71de956cf14f1fa089f9e82e9e8b0e6b0e97dcafe636b8a6117e3bf66e",
        "a14f4803d8af0b1a88a91dca6c31b2674e0b91d317492b147ac97432ef30b8de",
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
        "0b4985d232c8747ffce25e7e235fa69c06dfa876e3cfab4330d5f1869f6b33d1",
    ),
    # All three conditions fail: alpha, the noise floor and epsilon < 1/100.
    "inadmissible": (
        ["--n", "2", "--alpha", "1e-3", "--beta", "0.5", "--epsilon", "0.5", "--R", "3"],
        "f36369754035ca79f994b6f0faae779815f654a56d85fa3474416513e3eac12e",
    ),
}


@pytest.mark.parametrize("run", sorted(DECONV_RUNS))
def test_deconv_certificate_json_is_golden(run, capsys):
    extra, sha = DECONV_RUNS[run]
    assert main(["deconv", *extra]) == 0
    assert _sha(capsys.readouterr().out.encode()) == sha


DECONV_MATRIX_SHA = "693f66c02b15c0139bf3c693d000c91d6b66a0294df0fb5cc18a9da045885d76"


def test_deconv_matrix_csv_is_golden(tmp_path):
    out = tmp_path / "matrix.csv"
    assert main(["deconv-matrix", "--output", str(out)]) == 0
    assert _sha(out.read_bytes()) == DECONV_MATRIX_SHA


# (body, count) -> (batch file, sidecar); n = 5, seed 3.
SAMPLE_PINS = {
    ("cube", 1): (
        "a41f1b73cf61d7b6127b59f8502df2b2f46310968cab8d231b42ca2f6e7796d9",
        "8f7efc7cb85f85277541243acc2adbf69c3c783b7ae2599ef332869ae764e5f0",
    ),
    ("cube", BLOCK - 1): (
        "4ab6caadd5f4ca0ca9d318cbb326944196bb05aec83913d7d6f55d994354c813",
        "2a96a52f1a38475157d4e386be1f41453824ddce3695009a853cb8b271c6899d",
    ),
    ("cube", BLOCK + 1): (
        "8ed965800023a5668fc43c84577ee0f964ec9cf2ddc0d551a12208ead245bc5a",
        "847788087a2c114645b0e0404baddb7e99dc1617b1268c2932e9cbba62e39271",
    ),
    ("cube", 32 * BLOCK + 3): (
        "94c3fd298cf5f308a57dd758e1242247754e9f4fe46924419a1ff0c5ead6dc11",
        "b6deddb26bf136f14cad6cde47df29d4b7d24b9a7906948a0c862a31bbf41710",
    ),
    ("ball", 1): (
        "27509e01518fcf346a1e2d3f6d3f7aa3d46716a98a5d1c41dd3ff334b3f90c47",
        "2b6c26a3654b4ee325fe77132d8508738e6a21fee2aa36cdf0c59a3a44cbe90b",
    ),
    ("ball", BLOCK - 1): (
        "6c1597581f9f674f586308ab9d23d2093bd93136529c81a448afae9d290a472d",
        "58f3d7791738ef19c1f1cda9272865d3714bfae9c3136c2d6822950c4354687c",
    ),
    ("ball", BLOCK + 1): (
        "47ed89d268db40c69848958712c027287f6bfee04e7e98a8136aecb4d731169b",
        "f2a372d26e1e75df16acb4ee149059824fe21c391eb3cc1e6b92bd0702218ed4",
    ),
    ("ball", 32 * BLOCK + 3): (
        "a4a1f9dc9a2ee976d5066ab06001be52605c7d20b10c16f6111c5f3e69bf8207",
        "5a3ed12d27e40a8e388ee1e1bf476d6b9ae7f389dd711648a3ffeb96ac7e25d4",
    ),
    ("simplex", 1): (
        "83db14bf7ebc998eb3566b3efc0d8e0b83288423d96bd5974c905a40f289a97a",
        "eb1849e588df5c53b61537f1993072ecb78eaa2408af33341dab9135de591fb0",
    ),
    ("simplex", BLOCK - 1): (
        "c4f2af2630200c5db9913cc9b34c29f0e713e810f49b581f48702a3c6ccbeae8",
        "e1f104bbc8e784e3d526beb4ef7a9ebd1275c339fe95d4dfea0a754474a2bbf4",
    ),
    ("simplex", BLOCK + 1): (
        "a35a299b1acf1ba86bf7d79080890814a76d72861ec9deb35b9a3f9553313d8a",
        "69c7cff888ce88dc4d0a9933488601941076b657c6466f8af5e51f4c0d0902eb",
    ),
    ("simplex", 32 * BLOCK + 3): (
        "a98ab5c4d6cc0dd82c5620f10e8ce394de87864c76e75cf6341a41b1f02e102f",
        "87a8d5be07c349c7ff8e6a08832e19598786175cadcf1a4fab9e595d3745a6c0",
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
        "0ce0d540dc30db8b4117279f99be3a9c34f89c13b303fbfc046bfbe1d67221d1",
        "5e0b2322fd89735fad2fc7950347abcc6892d974afe54bbf1101c1d8226f81c4",
        "d39f7c54d38470553ff29d3b67cb9909007f396e57172d82124030c8efac65a1",
    ),
    (1, 2): (
        "ee79a0f8f92bcb07f983a05247cb8bf256d716952ea523222ab5acc683759693",
        "e7cd991e5cceb03d4b8d134115ecdcffbe05558e1d6113c110637d36942ad523",
        "5d380f839f1de62b0f405d93911409906d3fb5216243ee3a89938d530d14beef",
    ),
    (1, 3): (
        "8037cf03b6035a8cc5797dc0d46213bd857494379019b7154ea0bb6fd4a90617",
        "a3eb25aae9b452576295d603d9a9123d4a0b327a4c9a8f76d195650d7489b3c9",
        "a20636462f40eb4c3bccb33acaaaff0ad2a6bfb5112bff52097e76c4eb2b0561",
    ),
    (1000, 1): (
        "0fde7f717a656be6423cf722cdb816393b8062c8a8831b21daa13294e60c9943",
        "2c7bd0cd925ac56c77a809c08dfb49ca73a5603e2e456f4c5129f4c012d37295",
        "d39f7c54d38470553ff29d3b67cb9909007f396e57172d82124030c8efac65a1",
    ),
    (1000, 2): (
        "7fc519d1815fd4d8d447e2c412bf2f700cd5aa571f03092b5386c4c9ba8e2b65",
        "c7fb2540c7762ebc28408b13cc259c78fd968f38955dc45cd481f3a37f990aa1",
        "5d380f839f1de62b0f405d93911409906d3fb5216243ee3a89938d530d14beef",
    ),
    (1000, 3): (
        "483c704ebb9f7768d533e8a1d45e83f9b3a2c73ee3a4a7e85ce44e3e1c91bcdb",
        "7c5013277df1fb6846f6cecf38dbf38e2f7fe6c1147c456ace35d2820424b7f1",
        "a20636462f40eb4c3bccb33acaaaff0ad2a6bfb5112bff52097e76c4eb2b0561",
    ),
    (3 * BLOCK + 5, 1): (
        "7f4aadacb9acf4877ee2705ca73cf295f9e21e82f3175dc7422ec64aae348eca",
        "3fc81d367680a9adf241a96c05b915c59601daefcb4f6a900b98bb121f9ef502",
        "d39f7c54d38470553ff29d3b67cb9909007f396e57172d82124030c8efac65a1",
    ),
    (3 * BLOCK + 5, 2): (
        "0c13f55f48f7b5417c5584240935e1cb4e5e1dfe10fc37d25e8c78ac02949760",
        "881c8ed24c795b38ec6065efbfc40d4e591af80d245f938a60a26285c3fea2e1",
        "5d380f839f1de62b0f405d93911409906d3fb5216243ee3a89938d530d14beef",
    ),
    (3 * BLOCK + 5, 3): (
        "9af93f2282bcc9b79b4ea380b14d96be7a0e43ca1a532d2975bb7284161de30f",
        "745ffdc49460e332887d8bd17c0119b61f018b69bf9a634600190758ef4b4c42",
        "a20636462f40eb4c3bccb33acaaaff0ad2a6bfb5112bff52097e76c4eb2b0561",
    ),
    (BLOCK + 1, 1): (
        "cea1f3a7dd86e925050af082f6b20223bf89d8d6b9a733d9d42d06a724f435a2",
        "3faa1a5c947788111d0c00da025fcf3fa10d24725859a48453c264aa4df5cdc1",
        "d39f7c54d38470553ff29d3b67cb9909007f396e57172d82124030c8efac65a1",
    ),
    (BLOCK + 1, 2): (
        "aab290a53cb2dea6210bc32650b06ec53cbea5305e5a294206b5f63726e109db",
        "a919d370e41ae3a5aa6d262e9e08132c4104863f159c60fb24012e730087d2f1",
        "5d380f839f1de62b0f405d93911409906d3fb5216243ee3a89938d530d14beef",
    ),
    (BLOCK + 1, 3): (
        "aca3e417d04df342961928cc92b20d075197ae3c7583416209dac98e08f1fed5",
        "1c565bcf0539788c87fb538963a802b92758a2d0cc970c7fca33d55976905d4f",
        "a20636462f40eb4c3bccb33acaaaff0ad2a6bfb5112bff52097e76c4eb2b0561",
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


SAMPLE_CSV_SHA = "15e04216dec6c1da7fb95b8fbadc67736d7b09b7725d68f010f03954fb6bbce9"


def test_sample_csv_is_golden(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["sample", "--body", "ball", "--n", "3", "--samples", "500", "--seed", "13",
               "--format", "csv", "--output", str(out)])
    assert rc == 0
    assert _sha(out.read_bytes()) == SAMPLE_CSV_SHA
