"""The three workloads: inputs made from the seed, timed steps, correctness gates.

A workload iteration is a list of steps.  A step runs its operations back to
back inside the timed region, then its gate runs outside it.  One operation
is one CLI invocation or one kernel case, and each gate reports the
operations whose outputs were wrong; that count over the operations attempted
is the run's failure fraction.

Every stochastic gate states its false-failure rate; see ``Z_FAMILY_RATE``
and the README in this directory for the ratio and m-tilde gates.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri
from scipy.stats import beta as beta_law
from scipy.stats import chi2

from projclt import cli, deconvolution, samplers, spherical
from projclt.deconvolution import DeconvParams
from projclt.model import BodyKind, BodySpec, RadialDensity
from projclt.spherical import KernelParams

# Tolerances of the acceptance suite (criteria 1, 3, 7, 8).
RATIO_TOL = 0.05
CHI_MIXTURE_REL_TOL = 1e-3
BALL_MASS_TOL = 1e-6
CONV_IDENTITY_TOL = 1e-6
CONV_DOUBLE_TOL = 2e-6
# Closed forms evaluated two ways (log-space kernel vs scipy's beta law).
SCAN_REL_TOL = 1e-9
# Family-wise false-failure rate of each z-score gate (one batch, or one
# thin-shell table), under the normal approximation of the sample moments.
Z_FAMILY_RATE = 1e-6

SIZES = {
    "full": {
        "ratio": {"n": 300, "samples": 200_000, "max_radius": 1.5, "grid_points": 81},
        "mtilde": {"n": 300, "subspaces": 4, "per_subspace": 125_000},
        "catalog": {"n": 50, "samples": 200_000, "l": 2, "threads": 2},
        "mixture": {"ns": (16, 64, 256, 1024), "ls": (1, 2, 3), "points": 21},
        "ball_ns": (3, 4, 5, 6, 8, 10, 16, 25, 50, 100, 200),
        "scan_ns": (100, 400, 1600),
        "conv_spacing": 0.001,
        "sandwich_points": 20001,
    },
    "smoke": {
        "ratio": {"n": 20, "samples": 50_000, "max_radius": 1.0, "grid_points": 21},
        "mtilde": {"n": 20, "subspaces": 4, "per_subspace": 100_000},
        "catalog": {"n": 5, "samples": 20_000, "l": 2, "threads": 2},
        "mixture": {"ns": (16,), "ls": (1, 2), "points": 5},
        "ball_ns": (3, 25),
        "scan_ns": (100,),
        "conv_spacing": 0.004,
        "sandwich_points": 2001,
    },
}


@dataclass
class Step:
    name: str
    ops: list[tuple[str, Callable[[], object]]]
    # (results by op name, step directory) -> failure messages by op name
    check: Callable[[dict, str], dict[str, list[str]]]


def derive_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _cli_op(argv):
    return lambda: cli.main([str(a) for a in argv])


def _z_crit(statistics_count: int) -> float:
    """Two-sided Bonferroni threshold for Z_FAMILY_RATE over that many z-scores."""
    return float(-ndtri(Z_FAMILY_RATE / (2.0 * statistics_count)))


def _exit_ok(results, names):
    return {name: ([] if results[name] == 0 else [f"exit code {results[name]!r}"]) for name in names}


def _sup_step(name, argv, report):
    """One CLI invocation gated on the sup deviation of the report it writes."""

    def check(results, d):
        failures = _exit_ok(results, [name])
        if not failures[name]:
            with open(report) as f:
                sup = json.load(f)["report"]["sup_abs_deviation"]
            if sup > RATIO_TOL:
                failures[name] = [f"sup |ratio - 1| = {sup:.4f} > {RATIO_TOL}"]
        return failures

    return Step(name, [(name, _cli_op(argv))], check)


# --- clt_pipeline --------------------------------------------------------


def clt_pipeline(seed: int, size: str):
    ratio, mt = SIZES[size]["ratio"], SIZES[size]["mtilde"]

    def iteration(i, workdir):
        def ratio_step(d):
            out = os.path.join(d, "ratio.json")
            return _sup_step("ratio", [
                "ratio", "--body", "cube", "--n", ratio["n"], "--l", 1, "--alpha", 10,
                "--samples", ratio["samples"], "--max-radius", ratio["max_radius"],
                "--grid-points", ratio["grid_points"], "--seed", derive_seed(seed, i, 0),
                "--output", out, "--csv", os.path.join(d, "ratio.csv"),
            ], out)

        def mtilde_step(d):
            out = os.path.join(d, "mtilde.json")
            return _sup_step("mtilde", [
                "mtilde", "--body", "cube", "--n", mt["n"], "--l", 2,
                "--subspaces", mt["subspaces"], "--samples-per-subspace", mt["per_subspace"],
                "--seed", derive_seed(seed, i, 1), "--output", out,
            ], out)

        return [ratio_step, mtilde_step]

    return iteration


# --- catalog_io ----------------------------------------------------------


def isotropy_max_z(data: np.ndarray, chunk: int = 1 << 16) -> tuple[float, int]:
    """Largest |z| of the sample mean and raw second moments against 0 and I.

    Each z divides the deviation by its standard error estimated from the
    same sample (second and fourth moments), so no body-specific constant is
    needed.  Returns (max |z|, number of z-scores).
    """
    count, n = data.shape
    s1 = np.zeros(n)
    s2 = np.zeros((n, n))
    s4 = np.zeros((n, n))
    for lo in range(0, count, chunk):
        block = data[lo : lo + chunk]
        s1 += block.sum(axis=0)
        s2 += block.T @ block
        sq = block * block
        s4 += sq.T @ sq
    m2, m4 = s2 / count, s4 / count
    z_mean = (s1 / count) / np.sqrt(np.diag(m2) / count)
    z_cov = (m2 - np.eye(n)) / np.sqrt((m4 - m2 * m2) / count)
    upper = np.triu_indices(n)
    z = np.concatenate([np.abs(z_mean), np.abs(z_cov[upper])])
    return float(z.max()), z.size


def _shell_oracle(n, eps):
    lo, hi = n * (1.0 - eps) ** 2, n * (1.0 + eps) ** 2
    return float(chi2.sf(hi, n) + chi2.cdf(lo, n))


CATALOG_EPSILONS = (0.1, 0.2)


def catalog_io(seed: int, size: str):
    cat = SIZES[size]["catalog"]
    n, count = cat["n"], cat["samples"]

    def body_step(i, k, kind):
        def make(d):
            batch = os.path.join(d, "batch.bin")
            proj = os.path.join(d, "proj.bin")
            basis = os.path.join(d, "basis.json")
            shell = os.path.join(d, "shell.csv")
            common = ["--threads", cat["threads"]]
            ops = [
                ("sample", _cli_op(
                    ["sample", "--body", kind.value, "--n", n, "--samples", count,
                     "--seed", derive_seed(seed, i, k, 0), "--format", "bin", "--output", batch]
                    + common)),
                ("project", _cli_op(
                    ["project", "--input", batch, "--l", cat["l"], "--seed", derive_seed(seed, i, k, 1),
                     "--basis-out", basis, "--output", proj] + common)),
                ("thinshell", _cli_op(
                    ["thinshell", "--body", kind.value, "--n", n, "--samples", count,
                     "--seed", derive_seed(seed, i, k, 2), "--output", shell]
                    + [a for e in CATALOG_EPSILONS for a in ("--epsilon", e)] + common)),
            ]

            def check(results, d):
                failures = _exit_ok(results, ["sample", "project", "thinshell"])
                loaded = None
                if not failures["sample"]:
                    loaded, failures["sample"] = _check_saved_batch(batch, count, n)
                if not failures["project"]:
                    failures["project"] = _check_projection(loaded, basis, proj, count, cat["l"])
                if not failures["thinshell"]:
                    failures["thinshell"] = _check_shell(shell, kind, n, count)
                return failures

            return Step(kind.value, ops, check)

        return make

    def iteration(i, workdir):
        return [body_step(i, k, kind) for k, kind in enumerate(BodyKind)]

    return iteration


def _check_saved_batch(path, count, n, chunk=1 << 20):
    """Load the batch back; its bytes must equal the file's, its moments isotropy's."""
    if os.path.getsize(path) != count * n * 8:
        return None, [f"{path} holds {os.path.getsize(path)} bytes, expected {count}x{n} doubles"]
    loaded = samplers.load_batch(path)
    if loaded.data.shape != (count, n):
        return None, [f"loaded shape {loaded.data.shape}, expected {(count, n)}"]
    flat = loaded.data.ravel(order="F").view(np.uint64)
    with open(path, "rb") as f:
        for lo in range(0, flat.size, chunk):
            saved = np.frombuffer(f.read(8 * chunk), dtype=np.uint64)
            if not np.array_equal(saved, flat[lo : lo + chunk]):
                return None, ["loaded batch bytes differ from the saved bytes"]
    if not np.all(np.isfinite(loaded.data)):
        return None, ["batch holds non-finite values"]
    z, m = isotropy_max_z(loaded.data)
    if z > _z_crit(m):
        return loaded, [f"isotropy max |z| = {z:.2f} > {_z_crit(m):.2f} over {m} moments"]
    return loaded, []


def _check_projection(loaded, basis_path, proj_path, count, l):
    if loaded is None:
        return ["not checked: the saved batch is unreadable"]
    with open(basis_path) as f:
        rows = np.asarray(json.load(f)["basis"]["rows"])
    if rows.shape[0] != l or np.max(np.abs(rows @ rows.T - np.eye(l))) > 1e-12:
        return [f"basis rows of shape {rows.shape} are not an orthonormal {l}-frame"]
    proj = np.fromfile(proj_path, dtype=np.float64)
    if proj.size != count * l:
        return [f"{proj_path} holds {proj.size} doubles, expected {count}x{l}"]
    expected = loaded.data @ rows.T
    if not np.allclose(proj.reshape((count, l), order="F"), expected, rtol=1e-12, atol=1e-12):
        return ["projection differs from saved batch @ basis^T"]
    return []


def _check_shell(path, kind, n, count):
    with open(path) as f:
        lines = f.read().splitlines()
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[2:]]
    if [r[0] for r in rows] != list(CATALOG_EPSILONS):
        return [f"thin-shell rows {rows} do not follow epsilons {CATALOG_EPSILONS}"]
    bad = []
    z_crit = _z_crit(len(rows))
    for eps, frac, stderr in rows:
        if not 0.0 <= frac <= 1.0 or abs(stderr - math.sqrt(frac * (1 - frac) / count)) > 1e-12:
            bad.append(f"eps={eps}: fraction {frac} / stderr {stderr} inconsistent")
        elif kind is BodyKind.STANDARD_GAUSSIAN:
            oracle = _shell_oracle(n, eps)
            z = abs(frac - oracle) / math.sqrt(oracle * (1 - oracle) / count)
            if z > z_crit:
                bad.append(f"eps={eps}: fraction {frac:.5f} vs chi-square {oracle:.5f}, |z| = {z:.2f}")
    return bad


# --- kernels -------------------------------------------------------------

# Criterion 10's admissible parameter matrix.
SANDWICH_MATRIX = (
    DeconvParams(n=2, alpha=1e-24, beta=0.5, epsilon=0.005, hypothesis_radius=3.0),
    DeconvParams(n=8, alpha=1e-28, beta=0.5, epsilon=0.001, hypothesis_radius=10.0),
    DeconvParams(n=2, alpha=1e-30, beta=1.0, epsilon=0.008, hypothesis_radius=4.0),
    DeconvParams(n=3, alpha=1e-26, beta=0.5, epsilon=0.002, hypothesis_radius=5.0),
)
MUST_VERIFY = ("gaussian", "gaussian_deflated")


def _gauss(l, v, r):
    return np.exp(-0.5 * l * math.log(2.0 * math.pi * v) - r * r / (2.0 * v))


def kernels(seed: int, size: str):
    """Deterministic closed-form machinery; the seed only shifts the t-grid."""
    cfg = SIZES[size]
    mix = cfg["mixture"]
    shift = np.random.default_rng(derive_seed(seed, 0)).random()
    ts = 3.0 * (np.arange(mix["points"]) + shift) / mix["points"]
    chi = {n: RadialDensity.closed_form_chi(n) for n in mix["ns"]}
    ball_cases = [
        KernelParams(n=n, l=l, r=r)
        for n in cfg["ball_ns"]
        for l in range(1, min(5, n - 1) + 1)
        for r in (0.5, 1.0, math.sqrt(n))
    ]
    h = cfg["conv_spacing"]
    xs = np.arange(-12.0, 12.0 + h / 2.0, h)
    g05 = _gauss(1, 0.5, xs)
    points = cfg["sandwich_points"]

    def mixture_step(d):
        ops = [
            (f"n{n}_l{l}", lambda n=n, l=l: spherical.radial_mixture_marginal(chi[n], n, l, ts))
            for n in mix["ns"]
            for l in mix["ls"]
        ]

        def check(results, d):
            out = {}
            for name, val in results.items():
                l = int(name.split("_l")[1])
                rel = float(np.max(np.abs(val / _gauss(l, 1.0, ts) - 1.0)))
                out[name] = [] if rel <= CHI_MIXTURE_REL_TOL else [f"relative error {rel:.3e}"]
            return out

        return Step("mixture", ops, check)

    def ball_step(d):
        ops = [(f"case{j}", lambda p=p: spherical.psi_ball_mass(p)) for j, p in enumerate(ball_cases)]

        def check(results, d):
            return {
                name: [] if abs(m - 1.0) <= BALL_MASS_TOL else [f"{ball_cases[int(name[4:])]}: mass {m!r}"]
                for name, m in results.items()
            }

        return Step("ball_mass", ops, check)

    def scan_step(d):
        ops = [
            (f"n{n}", lambda n=n: spherical.psi_gaussian_ratio_scan(n, 1, 0.999 * n ** 0.125, 2001))
            for n in cfg["scan_ns"]
        ]

        def check(results, d):
            out = {}
            for name, rep in results.items():
                n = int(name[1:])
                r = math.sqrt(n)
                a = 0.5 * (n - 1)
                t = rep.radius_grid
                oracle = beta_law.pdf(0.5 * (t / r + 1.0), a, a) / (2.0 * r) / _gauss(1, 1.0, t)
                rel = float(np.max(np.abs(rep.per_point_ratios / oracle - 1.0)))
                out[name] = [] if rel <= SCAN_REL_TOL else [f"ratio differs from beta law by {rel:.3e}"]
            return out

        return Step("ratio_scan", ops, check)

    def conv_step(d):
        def double():
            conv = deconvolution.grid_convolve
            return conv(conv(g05, h, 0.2), h, 0.3), conv(g05, h, 0.5)

        ops = [("identity", lambda: deconvolution.grid_convolve(g05, h, 0.3)), ("double", double)]

        def check(results, d):
            dev_sum = float(np.max(np.abs(results["identity"] - _gauss(1, 0.8, xs))))
            twice, once = results["double"]
            dev_add = float(np.max(np.abs(twice - once)))
            return {
                "identity": [] if dev_sum <= CONV_IDENTITY_TOL else [f"identity sup {dev_sum:.3e}"],
                "double": [] if dev_add <= CONV_DOUBLE_TOL else [f"double sup {dev_add:.3e}"],
            }

        return Step("grid_convolve", ops, check)

    def sandwich_step(d):
        ops = [
            (f"{body}_{j}", lambda body=body, p=p: deconvolution.verify_sandwich(body, p, grid_points=points))
            for j, p in enumerate(SANDWICH_MATRIX)
            for body in deconvolution.BODIES_1D
        ]

        def check(results, d):
            out = {}
            for name, rep in results.items():
                ok = rep.status != "sandwich_violated" and (
                    rep.body not in MUST_VERIFY or rep.status == "verified"
                )
                out[name] = [] if ok else [f"status {rep.status}"]
            return out

        return Step("sandwich", ops, check)

    steps = [mixture_step, ball_step, scan_step, conv_step, sandwich_step]
    return lambda i, workdir: steps


WORKLOADS = {"clt_pipeline": clt_pipeline, "catalog_io": catalog_io, "kernels": kernels}


def thread_scaling(seed: int, size: str, repeats: int = 3) -> tuple[dict, dict]:
    """sample_body at threads=1 and threads=2 on identical inputs, per kind.

    Returns (speedup of the median times by kind, failure messages by kind);
    a kind fails when the two thread counts give different bytes.
    """
    cat = SIZES[size]["catalog"]
    speedup, failures = {}, {}
    for k, kind in enumerate(BodyKind):
        spec = BodySpec(kind, cat["n"])
        body_seed = derive_seed(seed, 1 << 20, k)
        times = {1: [], 2: []}
        data, same = {}, True
        for rep in range(repeats):
            for threads in ((1, 2) if rep % 2 == 0 else (2, 1)):
                t0 = time.perf_counter()
                batch = samplers.sample_body(spec, cat["samples"], body_seed, threads=threads)
                times[threads].append(time.perf_counter() - t0)
                data[threads] = batch.data
            same = same and np.array_equal(data[1].view(np.uint64), data[2].view(np.uint64))
            data.clear()
        speedup[kind.value] = float(np.median(times[1]) / np.median(times[2]))
        failures[kind.value] = [] if same else ["threads=1 and threads=2 batches differ"]
    return speedup, failures
