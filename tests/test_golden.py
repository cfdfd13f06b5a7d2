"""Golden bytes of the projected-ratio pipeline and the noise step.

Each test pins the SHA-256 of an artifact (or of an array's bytes) produced
by a fixed seed at a small size, so any refactor of the sample -> smooth ->
project -> KDE -> ratio pipeline or of the chunked noise loop must reproduce
the numbers exactly.  A change that alters a random stream or the artifact
schema re-pins the moved hashes and records each old -> new pair and its
reason in CHANGES.md.  The ratio and scan runs are the CLI's; the
criterion 7 value is the exact l=1 sup of the quick profile; the
``deconv-verify`` and ``deconv-matrix`` pins cover the sandwich pass, whose
margins are closed forms.  The multi-chunk runs span two full chunks and
a ragged tail, at one and two threads and at the default (every usable
core), so a chunk loop that reorders or splits work differently shows up as
a moved hash.  The batch files of ``sample`` (bin and CSV, with and without
smoothing) and ``project --input`` are pinned at counts on both sides of a
block and a chunk, at one and two threads; ``sample`` also at the default.
"""

import hashlib

import numpy as np
import pytest

import projclt.suite
from projclt.cli import main
from projclt.model import BodyKind, BodySpec, ConvolutionSchedule, RatioReport
from projclt.samplers import BLOCK, CHUNK, SampleBatch, convolve_and_rescale, sample_body

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


RATIO_RUNS = {
    "l1_alpha": (
        ["--l", "1", "--alpha", "10"],
        "46f9bf65a4155049fc29b0f7b87ea9a442ff9d9426915432a5d6d296b837910e",
        "299e991acec8d59942ed0d281443f5f616969d5d4d19422a1dd72c39e3249fad",
    ),
    "l2_raw": (
        ["--l", "2"],
        "b34195deca01ef4e1358791371365be5ea5c6248bbe7d15778b4543e9b0e7597",
        "d3e2b84cae470ffefe5c524fe46eee70ee466cea5f0f9d420480d4f33bca0415",
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
        "661cf4f1e5fc83fb5087379f8938b2dd2fac4c941c9e1c9eb3ea73c45a8e518c",
    ),
    "l2_raw": (
        ["--l", "2"],
        "b3f6962750ed9b557ddbb039232e6b81347684e886699de2dfc34bd1a5680752",
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


def _threads_flag(threads) -> list:
    """``--threads`` at the given count; None leaves the flag out, for the default."""
    return [] if threads is None else ["--threads", str(threads)]


MULTI_CHUNK_RUNS = {
    "ratio_l2": (
        ["ratio", "--body", "cube", "--n", "20", "--l", "2", "--samples", str(MULTI_CHUNK),
         "--seed", "7", "--output", "{d}/r.json", "--csv", "{d}/r.csv"],
        {
            "r.json": "d29cd2a7cb311803aefece4b92b58e5fb9eb64ba59022140863d9c7209d220a3",
            "r.csv": "da916fbf6e36d2ac071a936a40bcd84bbaf125bc9aa35597a96609f5ba3cfb7a",
        },
    ),
    "mtilde_l2": (
        ["mtilde", "--body", "cube", "--n", "20", "--l", "2", "--subspaces", "2",
         "--samples-per-subspace", str(MULTI_CHUNK), "--seed", "8", "--output", "{d}/m.json"],
        {"m.json": "48ab28415effab4255a9771be5ca09b4f68d5c0b7327d41fc7b39ca5803c0a50"},
    ),
    **{
        f"thinshell_{kind}": (
            ["thinshell", "--body", kind, "--n", "20", "--samples", str(MULTI_CHUNK),
             "--seed", "9", "--epsilon", "0.1", "--epsilon", "0.3", "--output", "{d}/t.csv"],
            {"t.csv": sha},
        )
        for kind, sha in {
            "cube": "879a9bcf976339e1aa1b497be4f2b08e0c0322085a855bf0b86200bde68c1e54",
            "ball": "2145ae413a0e7d3b7489db08e4a514f4f1147c0e281f7fdeca984ef29e7968fa",
            "simplex": "af70df4b8254e4270e89b3b6d953e406caebe06cf6768dbeb8e0465faa601d78",
            "product_laplace": "9388a152650c7dc96d47e87db5bb5a9a2e4237a06e17356a0c9c35599af5a81c",
            "gaussian": "9f2635d4da92a390676c81147cbb404ed086e1f03daffada35a0586ae184e517",
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
        "7f18455c9d2e6bd4ecca29fc756ace8fa23c2a06bdaf5b1a7e17ec8e46a2c911",
        "b3a00d6823aada85123523db1cad164542f7b7df5a61cf2c50ec19aa52c0ee58",
    ),
    # alpha above c0 * n^-8: no rows, only the certificate's violations.
    "inadmissible": (
        ["--body", "laplace", "--n", "2", "--alpha", "1e-3", "--beta", "0.5",
         "--epsilon", "0.005", "--R", "3"],
        "a8f8c0d929e87ae7bbaa1b3cdcff5fb9af0366136e8eeb6fe7950ddeb68cf77f",
        "4b8959c97e8cd92016f357c3f4c35378e30aae4eb78b9a1f2cafefa4e4c47e28",
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


DECONV_MATRIX_SHA = "90f0ea639ba5fce56ec2e5e9d595d5c98a25ecc77a058bec81de67bdc4f0c20e"


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
        "5e50ec9c566a2aae5bb071d4aaae8c9660de2963134d89154f046e22a9e75a8e",
        "35a8e2bae489b338cfb2918261a80a42905bf929c86a87f2edd4eb1c252107f9",
    ),
    ("ball", BLOCK - 1, True): (
        "f875fe59f1e9989a8317bdd83d9eb732feeaead6d508fe02b806dbe4be0ee8ab",
        "e59df24ef0c795f0d0d2f2434efc2959ab02868c61792a3e25a7014f401fc448",
    ),
    ("ball", BLOCK + 1, False): (
        "270abd5b7fa9cf9f757c7a601f7052f1e5e86e64ec8a8b766148fadde4a5a673",
        "827bd3fc55c1be6f83888fc3694f63bf5fadf5c98071a384375f44ecbc5a5fc2",
    ),
    ("ball", BLOCK + 1, True): (
        "bbfa5ede24ad012520232e0481aa6b87247e10722ffc058aea2c28b94ae5df78",
        "b07e3af5d2a1c8289d324125be146e578bdb422b074f5e4868c38efd18f09ac6",
    ),
    ("ball", 2 * CHUNK + 3, False): (
        "ed316f470f2a06df9fce90ed0f90545d6d0f90b5cde1450937a715deb5bffa09",
        "2435aa1451c2259d22ced89e819153b99a2d45220661589d533edeaa1eaa6a8a",
    ),
    ("ball", 2 * CHUNK + 3, True): (
        "010cf619dfa31105c48aa5617e6057abb15e94f568fcee7b021c734dceff767a",
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
        "b070efd094cbd5049e1a5648ebe4b75d0e8ec4ef34be4e393701cf18b6ed89d8",
        "934067b12a6f2d6cae5fac46c0aac24205e9af85bbe4d0284667f160b6d12f16",
    ),
    ("simplex", BLOCK + 1, True): (
        "1f77789ec9e5681a3e5f04f70cc85ad33f128539c84afa2fe147eb113b77600f",
        "3da4a399aebf8245423ed05310db426ca44e11305c672356a89ec9c59f1a48a7",
    ),
    ("simplex", 2 * CHUNK + 3, False): (
        "3b6d25f833d206c3362d8c6394e4c04d2934980763d6d8ce1f25acd0b1f74e64",
        "e01f25472965a2d26ce985b3f56b6ddebd4cd57479bd45f033adee803870beac",
    ),
    ("simplex", 2 * CHUNK + 3, True): (
        "a50cd40b30e9c7983abe07c95a54ab4f538f20fc71bbb32c25d474580d35349e",
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
        "a3bbcf3ec09a2fabba876e7eb7017bad36f071f83910118de27517c32b045979",
    ),
    (1, 2): (
        "508e2b83e04487f9511d7db256923243f2ad85bb9fd442c3487a3216421bd1fa",
        "9e6da7454deceddea37905d9eba25dda2a8e902066454d1138e62e2b33cf43c8",
        "1f39fcef2bb2f941d24994aa29fbb63496043b2b623f230fd374406ab8920c22",
    ),
    (1, 3): (
        "8d112df0e619ec4973d9aa41a0a3cce34a2b99bd1db31150b0a14b4dbab09eed",
        "0e6c4daab28906a925857d2ff16923e179d4e8ae9c8fa4862373136833c7e0dd",
        "5c30e18cce9b9b66a2e939e6ee6add9668078bdcd8b2798e40582f7478a2701a",
    ),
    (1000, 1): (
        "b3c96e2efb8944e901b9ce42ca9ad1f90cf4379174b5596c5b616ce6c2a92984",
        "24428f8a7578386672f01dae70b9193840e2f6cdcf33f46bcb58d2c33abf9155",
        "a3bbcf3ec09a2fabba876e7eb7017bad36f071f83910118de27517c32b045979",
    ),
    (1000, 2): (
        "ddd4a35c95b636a1f7a1a69736618bc15f4dac6697aa95ce559a2389b07c62b2",
        "70ea16dd3860e016200342a7167b7ce5fcabccecc631240551f744627b760e3c",
        "1f39fcef2bb2f941d24994aa29fbb63496043b2b623f230fd374406ab8920c22",
    ),
    (1000, 3): (
        "cd25686ff87832a4f38602e83da0c2e48a8abfe4435be5d072f2bfb712b23d20",
        "d7de4b6b134937933b3ae57c92fdf2462b6f8294f2343a1e74ebe40ecf680047",
        "5c30e18cce9b9b66a2e939e6ee6add9668078bdcd8b2798e40582f7478a2701a",
    ),
    (3 * BLOCK + 5, 1): (
        "afd9b5209ed711a0d91c293d7163baa683100e817ebe8ccc8f8905d377e5f83f",
        "79dc282cc96e3211057cad7a93f87f0c5d820116d06680705e54670e64c20e94",
        "a3bbcf3ec09a2fabba876e7eb7017bad36f071f83910118de27517c32b045979",
    ),
    (3 * BLOCK + 5, 2): (
        "4a3746060424e99a6e80fadb8c53fea2ee37d147b939c1423c9816f25401c784",
        "b1793c215cf93da31656b6f595347b4de9fd3ca23783453a4bdc2b40c54319af",
        "1f39fcef2bb2f941d24994aa29fbb63496043b2b623f230fd374406ab8920c22",
    ),
    (3 * BLOCK + 5, 3): (
        "f63d6f3627152253534d6ff7e1213c3ae5a4889a7b5db0311a3e9403beb4729b",
        "955bed71d00f5367716089b61602abab1c2063b377ecf9a21718258455cf513c",
        "5c30e18cce9b9b66a2e939e6ee6add9668078bdcd8b2798e40582f7478a2701a",
    ),
    (BLOCK + 1, 1): (
        "23be1c3742b55964fc36417e4fa1a2fdc31c96e52643ae2701f9eb9b16b525a6",
        "bbbafc4bc737942c72cceb115e28b11acc9e42f9c8d15f72ffeaee638af6d489",
        "a3bbcf3ec09a2fabba876e7eb7017bad36f071f83910118de27517c32b045979",
    ),
    (BLOCK + 1, 2): (
        "3ab27ba5aaf36ba7bfecbfa8cbca6aad89652d80602f3874790afdccd6ca5d07",
        "a27caa9b049cfb9e87eb7fc575f395c2dfdfb6b54473103f348c6d021b92629e",
        "1f39fcef2bb2f941d24994aa29fbb63496043b2b623f230fd374406ab8920c22",
    ),
    (BLOCK + 1, 3): (
        "040244ffd676efb0e91dc30091aa2af8d335b1b4ad19a77ffa642eccc3ae09d1",
        "3f28cdb73c435d561c0c9160593a8aa1b2791bd4918070afbb4d116a64bf1ef8",
        "5c30e18cce9b9b66a2e939e6ee6add9668078bdcd8b2798e40582f7478a2701a",
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
