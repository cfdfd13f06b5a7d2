"""The numeric acceptance suite: eleven oracle-backed criteria.

Each criterion is a self-contained experiment with fixed seeds and sizes; the
"desk" profile runs the full sizes the criteria are stated at, the "quick"
profile shrinks the stochastic ones to smoke-test scale (same code paths, not
the acceptance gate; criterion 5 gates its smaller sample by z-score).
Criteria return a result record, never raise on a failed threshold — the
caller decides what a failure means.
"""

from __future__ import annotations

import filecmp
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2, norm

from . import cli
from .errors import InvalidSpec
from .model import BodyKind, BodySpec, ConvolutionSchedule, RadialDensity
from .samplers import sample_body
from .spherical import (
    KernelParams,
    gaussian_density,
    psi,
    psi_ball_mass,
    psi_gaussian_ratio_scan,
    radial_mixture_marginal,
)
from .radial import norm_column, thin_shell_fraction
from .density import m_tilde_profile
from .deconvolution import (
    BODIES_1D, SANDWICH_MATRIX, DeconvCertificate, DeconvParams, grid_convolve, verify_sandwich,
)


@dataclass
class CriterionResult:
    index: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.index:2d} ({self.seconds:6.1f}s) {self.title}: {self.detail}"


def _criterion_1(profile):
    """Chi radial mixture reproduces the standard gaussian to 1e-3 relative."""
    ns = (16, 64, 256) if profile == "desk" else (16, 64)
    ls = (1, 2, 3) if profile == "desk" else (1, 2)
    ts = np.linspace(0.0, 3.0, 13 if profile == "desk" else 7)
    worst = 0.0
    where = ""
    for n in ns:
        g = RadialDensity.closed_form_chi(n)
        for l in ls:
            mix = radial_mixture_marginal(g, n, l, ts)
            ref = gaussian_density(l, 1.0, ts)
            rel = float(np.max(np.abs(mix / ref - 1.0)))
            if rel > worst:
                worst, where = rel, f"n={n}, l={l}"
    return worst <= 1e-3, f"worst relative error {worst:.3e} (at {where}), tolerance 1e-3"


def _criterion_2(profile):
    """The 1-d marginal of the unit sphere in R^3 is flat: psi = 1/2 on [0, 1)."""
    params = KernelParams(n=3, l=1, r=1.0)
    ts = np.linspace(0.0, 0.999, 500)
    dev = float(np.max(np.abs(psi(params, ts) - 0.5)))
    return dev <= 1e-12, f"max |psi - 0.5| = {dev:.3e} over t in [0, 0.999], tolerance 1e-12"


def _criterion_3(profile):
    """Kernel mass over the supporting ball is 1 within 1e-6 across the grid."""
    ns = (3, 4, 5, 6, 8, 10, 16, 25, 50, 100, 200) if profile == "desk" else (3, 6, 25, 200)
    worst = 0.0
    where = ""
    cases = 0
    for n in ns:
        for l in range(1, min(5, n - 1) + 1):
            for r in (0.5, 1.0, math.sqrt(n)):
                dev = abs(psi_ball_mass(KernelParams(n=n, l=l, r=r)) - 1.0)
                cases += 1
                if dev > worst:
                    worst, where = dev, f"n={n}, l={l}, r={r:.3g}"
    return worst <= 1e-6, f"worst |mass - 1| = {worst:.3e} over {cases} cases (at {where}), tolerance 1e-6"


_C4_REL_GAP = 3.0  # relative sup tolerance, as a multiple of 1/n
_C4_SLOPE_BAND = 0.02


def _criterion_4(profile):
    """sup|psi/gaussian - 1| follows the closed-form law (6t^2 - t^4 - 3)/(4n).

    For l = 1 at radius sqrt(n), with q(t) = 6t^2 - t^4 - 3, the exact kernel
    expands as

        psi/gaussian - 1 = q/(4n) + (q^2/32 + 3t^4/4 - t^6/6 - 1/2)/n^2 + O(n^-3),

    the -1/2 coming from the Gamma-ratio normalising constant.  On the window
    t in [0, n^(1/8)) the law's sup is its interior extremum 1.5/n at t^2 = 3
    for every n in {100, 400, 1600}; the endpoint term, which decays like
    n^(-1/2), overtakes it only beyond n ~ 1700.  At t^2 = 3 the second-order
    coefficient is 23/8, so the measured sup exceeds the law's by the relative
    gap (23/12)/n + O(n^-2) (measured 1.959/n, 1.927/n, 1.919/n).  The paper
    bounds the deviation only from above, with an unspecified constant, so it
    does not fix the slope on a finite grid; this criterion checks the exact
    law instead.

    At each n the scan's sup must match the law's sup over the same grid to a
    relative 3/n, 1.5x headroom over the remainder; and the log-log slope of
    the sups must match the law's slope (-1.0000; measured -1.0066) within
    +/- 0.02.  An O(1/n) error in the exponent or the normalising constant of
    psi moves the sup by O(1/n), a relative error of O(1), and fails both.  The
    criterion is deterministic: its false-failure rate is zero.
    """
    ns = (100, 400, 1600)
    sups, laws, gaps = [], [], []
    for n in ns:
        t_max = n ** 0.125 * (1.0 - 1e-12)
        rep = psi_gaussian_ratio_scan(n, 1, t_max, grid_points=2001)
        t2 = rep.radius_grid ** 2
        law = float(np.max(np.abs((6.0 * t2 - t2 * t2 - 3.0) / (4.0 * n))))
        sups.append(rep.sup_abs_deviation)
        laws.append(law)
        gaps.append(n * abs(rep.sup_abs_deviation / law - 1.0))
    slope = float(np.polyfit(np.log(ns), np.log(sups), 1)[0])
    law_slope = float(np.polyfit(np.log(ns), np.log(laws), 1)[0])
    ok = max(gaps) <= _C4_REL_GAP and abs(slope - law_slope) <= _C4_SLOPE_BAND
    sup_txt = ", ".join(f"{s:.6g}" for s in sups)
    law_txt = ", ".join(f"{s:.6g}" for s in laws)
    return ok, (
        f"sups = [{sup_txt}] vs law [{law_txt}], worst relative gap {max(gaps):.3f}/n "
        f"(tol {_C4_REL_GAP:g}/n); log-log slope {slope:.4f} vs law {law_slope:.4f} "
        f"(tol +/- {_C4_SLOPE_BAND:g})"
    )


def _moment_sums(block):
    """One row per tile: its column sums, raw second-moment sums and sums of x_i^2 x_j^2."""
    squares = block * block
    return np.concatenate(
        [block.sum(axis=0), (block.T @ block).ravel(), (squares.T @ squares).ravel()]
    )[None, :]


def _criterion_5(profile):
    """Empirical mean within 0.01 and covariance within 0.02 of identity (desk, N = 10^6).

    At the quick profile's N = 10^5 the covariance noise alone reaches 0.02
    (simplex, n = 50: 0.0235), so there each mean and covariance entry is
    gated by its z-score, with standard errors sqrt(cov_ii / N) and
    sqrt((E x_i^2 x_j^2 - (E x_i x_j)^2) / N) from the same sample: Bonferroni
    over the M = 6975 distinct entries at a family false-failure rate of 1e-6,
    |z| <= Phi^-1(1 - 1e-6 / 2M) = 6.41.
    """
    ns = (2, 10, 50)
    count = 1_000_000 if profile == "desk" else 100_000
    entries = len(BodyKind) * sum(n + n * (n + 1) // 2 for n in ns)
    z_gate = float(norm.isf(1e-6 / (2 * entries)))  # Bonferroni at a family rate of 1e-6
    threads = cli.usable_cores()  # the drawn rows and their sums do not depend on it
    stats = []  # (worst |mean|, worst |cov - I|, worst |z|, where) per body and n
    for bi, kind in enumerate(BodyKind):
        for ni, n in enumerate(ns):
            sums = sample_body(
                BodySpec(kind, n), count, seed=5_000 + 10 * bi + ni, threads=threads,
                reduce=_moment_sums,
            ).data.sum(axis=0)
            mean = sums[:n] / count
            second, fourth = sums[n:].reshape(2, n, n) / count
            cov = second - np.outer(mean, mean)
            cov_dev = np.abs(cov - np.eye(n))
            z = max(np.max(np.abs(mean) / np.sqrt(np.diag(cov) / count)),
                    np.max(cov_dev / np.sqrt((fourth - second * second) / count)))
            stats.append((float(np.max(np.abs(mean))), float(np.max(cov_dev)), float(z),
                          f"{kind.value}, n={n}"))
    worst_mean = max(s[0] for s in stats)
    _, worst_cov, _, where = max(stats, key=lambda s: s[1])
    worst_z = max(s[2] for s in stats)
    ok = worst_mean <= 0.01 and worst_cov <= 0.02 if profile == "desk" else worst_z <= z_gate
    detail = (f"N={count}: worst |mean| = {worst_mean:.4f} (tol 0.01), "
              f"worst |cov - I| = {worst_cov:.4f} (tol 0.02, at {where})")
    if profile != "desk":
        detail += f"; quick gates by z instead: worst |z| = {worst_z:.2f} (tol {z_gate:.2f})"
    return ok, detail


_C6_EPS_SCALE = 0.1  # eps_n = _C6_EPS_SCALE * n^(-1/15)
_C6_DECREASE_Z = 5.0
_C6_ORACLE_Z = 3.29


def _criterion_6(profile):
    """Cube off-shell fraction strictly shrinks from n=100 to n=400; gaussian
    fractions match the chi-square oracle.

    The shell half-width is eps_n = n^(-1/15)/10 (0.0736 at n=100, 0.0671 at
    n=400).  The paper's thin-shell scale fixes the power n^(-1/15) but not
    the constant in front of it.  At constant 1 every event is unresolvable:
    the cube's lower event sits 16+ standard deviations out, its upper event
    at n=100 lies beyond the corner |x| = sqrt(3n), and all four fractions are
    exactly 0 at N = 10^6.  At constant 1/10 the shell sits 1.65 and 3.0
    standard deviations of |x|/sqrt(n) out for the cube (sd ~ sqrt(0.2/n)) and
    1.04 and 1.9 for the gaussian (sd ~ 1/sqrt(2n)), so every fraction is
    measurable.

    * Strict decrease: f_100 - f_400 > 5 sqrt(se_100^2 + se_400^2), with the
      binomial stderrs ``thin_shell_fraction`` reports.  A flat or rising
      trend passes with probability at most Phi(-5) = 2.9e-7; a correct
      sampler fails with probability Phi(5 - Delta/sigma) < 1e-300, since
      Delta/sigma is about 320 at N = 10^6 and 100 at N = 10^5.
    * Oracle: |f - p| <= 3.29 sqrt(p (1 - p) / N) at each n, where p is the
      exact chi-square off-shell probability (0.2984, 0.0577).  The
      false-failure rate is 1e-3 per check and 2e-3 for the pair.  The widest
      tolerance is 0.0048 at N = 10^5 and 0.0015 at N = 10^6, both inside
      the former absolute 0.005.

    Measured at N = 10^6: cube 0.1001 and 0.00277 (decrease at z = 319),
    gaussian oracle z-scores -1.46 and +0.46.
    """
    count = 1_000_000 if profile == "desk" else 100_000
    threads = cli.usable_cores()
    shells = {}
    details = []
    for n in (100, 400):
        eps = _C6_EPS_SCALE * n ** (-1.0 / 15.0)
        norms = sample_body(
            BodySpec(BodyKind.CUBE, n), count, seed=6_100 + n, threads=threads, reduce=norm_column
        )
        shells[n] = thin_shell_fraction(norms, eps, dimension=n)
        details.append(f"cube n={n}: {shells[n].fraction:.4g} +/- {shells[n].stderr:.2g}")
    drop = shells[100].fraction - shells[400].fraction
    sigma = math.hypot(shells[100].stderr, shells[400].stderr)
    # sigma is 0 when both fractions are 0 or 1; the z-score is then undefined.
    drop_z = drop / sigma if sigma > 0 else math.nan
    strict = drop > _C6_DECREASE_Z * sigma

    gauss_ok = True
    for n in (100, 400):
        eps = _C6_EPS_SCALE * n ** (-1.0 / 15.0)
        norms = sample_body(
            BodySpec(BodyKind.STANDARD_GAUSSIAN, n), count, seed=6_200 + n, threads=threads,
            reduce=norm_column,
        )
        frac = thin_shell_fraction(norms, eps, dimension=n).fraction
        lo, hi = n * (1.0 - eps) ** 2, n * (1.0 + eps) ** 2
        oracle = float(1.0 - (chi2.cdf(hi, n) - chi2.cdf(lo, n)))
        z = (frac - oracle) / math.sqrt(oracle * (1.0 - oracle) / count)
        details.append(f"gaussian n={n}: {frac:.4g} vs oracle {oracle:.4g} (z {z:+.2f})")
        if abs(z) > _C6_ORACLE_Z:
            gauss_ok = False
    verdict = (
        f"cube decrease {drop:.4g} at z {drop_z:.1f} (gate z > {_C6_DECREASE_Z:g}) "
        + ("holds" if strict else "FAILS")
    )
    return strict and gauss_ok, (
        f"N={count}, eps = {_C6_EPS_SCALE:g} n^(-1/15): {'; '.join(details)} "
        f"(oracle gate |z| <= {_C6_ORACLE_Z:g}); {verdict}"
    )


def _criterion_7(profile):
    """Projected densities stay within 5% of the gaussian at desk scale."""
    if profile == "desk":
        bodies = (BodyKind.CUBE, BodyKind.SIMPLEX)
        n, count = 300, 1_000_000
        run_l2 = True
    else:
        # The normal tails past 0.05 around the cube's -1.2 sum(theta^4) He4(x)/24, summed
        # over the 81 points at the per-point stderr (at most 0.0091), give a false-failure
        # rate of 5.6e-6 over Haar bases at N = 10^6.  Of 40 seed pairs none fails, the
        # worst reading 0.029, and their z-scores about that term have sd 1.00.
        bodies = (BodyKind.CUBE,)
        n, count = 100, 1_000_000
        run_l2 = False
    sched = ConvolutionSchedule(alpha=10.0)
    threads = cli.usable_cores()
    details = []
    ok = True
    for bi, kind in enumerate(bodies):
        t0 = time.perf_counter()
        spec = BodySpec(kind, n)
        _, report1 = cli.projected_ratio(
            spec, count, 7_000 + bi, 1, 7_100 + bi, 2.0, 81, threads=threads
        )
        sup1 = report1.sup_abs_deviation
        body_ok = sup1 <= 0.05
        txt = f"{kind.value}: l=1 sup {sup1:.4f}"
        if run_l2:
            mt = m_tilde_profile(
                spec,
                sched,
                l=2,
                radii=np.linspace(0.0, 2.0, 9),
                subspace_count=32,
                samples_per_subspace=125_000,
                seed=7_200 + bi,
                threads=threads,
            )
            sup2 = mt.sup_abs_deviation
            body_ok = body_ok and sup2 <= 0.05
            txt += f", l=2 profile sup {sup2:.4f}"
        elapsed = time.perf_counter() - t0
        body_ok = body_ok and elapsed < 300.0
        txt += f" ({elapsed:.0f}s)"
        details.append(txt)
        ok = ok and body_ok
    return ok, "; ".join(details) + "; tolerance 0.05, budget 300s/body"


def _criterion_8(profile):
    """Discrete gaussian convolution matches the closed-form variance sum."""
    spacing = 0.002
    xs = np.arange(-12.0, 12.0 + spacing / 2.0, spacing)
    g05 = gaussian_density(1, 0.5, np.abs(xs))
    conv = grid_convolve(g05, spacing, 0.3)
    dev_sum = float(np.max(np.abs(conv - gaussian_density(1, 0.8, np.abs(xs)))))
    twice = grid_convolve(grid_convolve(g05, spacing, 0.2), spacing, 0.3)
    once = grid_convolve(g05, spacing, 0.5)
    dev_add = float(np.max(np.abs(twice - once)))
    ok = dev_sum <= 1e-6 and dev_add <= 2e-6
    return ok, (
        f"identity sup {dev_sum:.3e} (tol 1e-6), double-convolution sup {dev_add:.3e} (tol 2e-6)"
    )


def _criterion_9(profile):
    """Three hand-computed certificate examples reproduce exactly."""
    checks = []

    c1 = DeconvCertificate(DeconvParams(n=2, alpha=1e-12, beta=0.5, epsilon=0.005, hypothesis_radius=3.0))
    checks.append(("example 1 inadmissible (noise floor 0.8 > 0.005)", not c1.admissible))

    c2 = DeconvCertificate(DeconvParams(n=2, alpha=1e-24, beta=0.5, epsilon=0.005, hypothesis_radius=3.0, c0=1e-2))
    checks.append(("example 2 admissible", c2.admissible))

    c3 = DeconvCertificate(DeconvParams(n=8, alpha=1e-28, beta=0.5, epsilon=0.001, hypothesis_radius=10.0))
    checks.append(("example 3 admissible", c3.admissible))
    checks.append(("lower radius min{9, 4} = 4", c3.lower_radius == 4.0))
    checks.append(("upper radius min{4, 10} - 3 = 1", c3.upper_radius == 1.0))
    checks.append(("lower factor 0.994", abs(c3.lower_factor - 0.994) <= 1e-15))
    checks.append(("upper factor 1.008", abs(c3.upper_factor - 1.008) <= 1e-15))

    bad = [name for name, good in checks if not good]
    ok = not bad
    return ok, "all seven equalities hold" if ok else "failed: " + "; ".join(bad)


def _criterion_10(profile):
    """Every hypothesis-met admissible case satisfies the sandwich pointwise."""
    admissible = [p for p in SANDWICH_MATRIX if DeconvCertificate(p).admissible]
    runs = [(body, p, verify_sandwich(body, p).status) for p in admissible for body in BODIES_1D]
    violated = [f"{body} at n={p.n}, alpha={p.alpha:.0e}" for body, p, status in runs
                if status == "sandwich_violated"]
    verified = sum(status == "verified" for *_, status in runs)
    not_met = sum(status == "hypothesis_not_met" for *_, status in runs)
    ok = not violated and verified >= 2 * len(admissible)
    detail = (
        f"{verified} verified, {not_met} hypothesis-not-met (uniform/laplace are never "
        f"epsilon-close to gaussian), {len(violated)} violated"
    )
    if violated:
        detail += ": " + "; ".join(violated)
    return ok, detail


def _criterion_11(profile):
    """Stochastic subcommands re-run byte-identically, whatever --threads is."""
    runs = {
        "ratio": lambda out, threads: [
            "ratio", "--body", "cube", "--n", "20", "--l", "1",
            "--samples", "20000", "--seed", "7", "--max-radius", "2",
            "--grid-points", "41", "--threads", str(threads),
            "--output", os.path.join(out, "report.json"),
            "--csv", os.path.join(out, "report.csv"),
        ],
        "thinshell": lambda out, threads: [
            "thinshell", "--body", "ball", "--n", "30", "--samples", "100000",
            "--seed", "3", "--threads", str(threads),
            "--output", os.path.join(out, "shell.csv"),
        ],
        "sample": lambda out, threads: [
            "sample", "--body", "simplex", "--n", "5", "--samples", "70000",
            "--seed", "11", "--format", "bin", "--threads", str(threads),
            "--output", os.path.join(out, "batch.bin"),
        ],
    }
    mismatches = []
    for name, argv_for in runs.items():
        with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
            code1 = cli.main(argv_for(d1, 1))
            code2 = cli.main(argv_for(d2, 2))
            if code1 != 0 or code2 != 0:
                mismatches.append(f"{name}: nonzero exit ({code1}, {code2})")
                continue
            for fname in sorted(os.listdir(d1)):
                if not filecmp.cmp(os.path.join(d1, fname), os.path.join(d2, fname), shallow=False):
                    mismatches.append(f"{name}: {fname} differs between thread counts")
    ok = not mismatches
    return ok, "ratio, thinshell, sample byte-identical across --threads 1/2" if ok else "; ".join(mismatches)


_CRITERIA = {
    1: ("gaussian fixed point of the chi radial mixture", _criterion_1, 10.0),
    2: ("flat 1-d marginal of the sphere in R^3", _criterion_2, None),
    3: ("kernel normalization across the (n, l, r) grid", _criterion_3, None),
    4: ("gaussian-limit rate of the sphere marginal", _criterion_4, 10.0),
    5: ("isotropy of the body catalog", _criterion_5, 120.0),
    6: ("thin-shell trend and chi-square oracle", _criterion_6, None),
    7: ("desk-scale pointwise CLT for cube and simplex", _criterion_7, None),
    8: ("discrete gaussian convolution identities", _criterion_8, None),
    9: ("deconvolution certificate arithmetic", _criterion_9, None),
    10: ("deconvolution sandwich on the 1-d catalog", _criterion_10, None),
    11: ("byte-identical reruns across thread counts", _criterion_11, None),
}


def run_criterion(index: int, profile: str = "desk") -> CriterionResult:
    title, fn, budget = _CRITERIA[index]
    t0 = time.perf_counter()
    passed, detail = fn(profile)
    seconds = time.perf_counter() - t0
    if budget is not None and profile == "desk" and seconds >= budget:
        passed = False
        detail += f"; runtime {seconds:.1f}s exceeded the {budget:.0f}s budget"
    return CriterionResult(index=index, title=title, passed=passed, detail=detail, seconds=seconds)


def run_all(profile: str = "desk", only=None) -> list[CriterionResult]:
    """Run every criterion, or those in ``only``, each once and in index order.

    An empty ``only`` or an unknown index is an ``InvalidSpec``.
    """
    indices = sorted(_CRITERIA) if only is None else sorted(set(only))
    unknown = [i for i in indices if i not in _CRITERIA]
    if unknown or not indices:
        named = ", ".join(map(str, unknown)) if unknown else "selected"
        valid = ", ".join(map(str, sorted(_CRITERIA)))
        raise InvalidSpec(f"no criterion {named}; valid indices are {valid}")
    return [run_criterion(i, profile) for i in indices]
