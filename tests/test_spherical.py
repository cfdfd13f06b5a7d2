"""Exact sphere-marginal kernels, their normalization, and the gaussian scans.

The numeric goldens in this file were computed once with this implementation
(quad tolerances 1e-12, log-gamma arithmetic throughout) and then frozen;
regressions beyond honest floating-point noise indicate a real change in the
numerics.
"""

import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.special import gammaln

import projclt.spherical
from projclt.errors import DomainError, InvalidSpec, RangeError
from projclt.model import RadialDensity
from projclt.spherical import (
    KernelParams,
    gaussian_density,
    log_gamma_nl,
    psi,
    psi_ball_mass,
    psi_gaussian_ratio_scan,
    radial_mixture_marginal,
)

# sup |ratio - 1| of the kernel-to-gaussian scan at radius sqrt(n), l = 1,
# over 2001 points of [0, n^(1/8)); frozen from this implementation.
SCAN_SUP_GOLDEN = {
    100: 0.01529383120824579,
    400: 0.003768065936429865,
    1600: 0.0009386239589628254,
}
RATIO_AT_ZERO_N100 = 0.9924780549814026


# ----------------------------------------------------------- normalization


def test_log_gamma_nl_closed_forms():
    # n=3, l=1: pi^(-1/2) Gamma(3/2)/Gamma(1) = 1/2.
    assert math.isclose(math.exp(log_gamma_nl(3, 1)), 0.5, rel_tol=1e-14)
    # n=100, l=2: pi^(-1) Gamma(50)/Gamma(49) = 49/pi.
    assert math.isclose(math.exp(log_gamma_nl(100, 2)), 49.0 / math.pi, rel_tol=1e-12)
    # equivalently Gamma_{n,2} * 2 pi / n = (n-2)/n
    assert math.isclose(
        math.exp(log_gamma_nl(100, 2)) * 2.0 * math.pi / 100.0, 0.98, rel_tol=1e-12
    )


def test_log_gamma_nl_rejects_full_codimension():
    with pytest.raises(DomainError):
        log_gamma_nl(5, 5)
    with pytest.raises(DomainError):
        log_gamma_nl(5, 6)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 10, 25])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_kernel_has_unit_ball_mass(n, l):
    if l >= n:
        pytest.skip("kernel needs l < n")
    mass = psi_ball_mass(KernelParams(n=n, l=l, r=1.0))
    assert abs(mass - 1.0) < 1e-9


@pytest.mark.parametrize("n", [1000, 10000])
@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_kernel_has_unit_ball_mass_in_high_dimension(n, l):
    assert abs(psi_ball_mass(KernelParams(n=n, l=l, r=1.0)) - 1.0) <= 1e-10


def test_ball_mass_is_scale_free():
    a = psi_ball_mass(KernelParams(n=7, l=2, r=0.25))
    b = psi_ball_mass(KernelParams(n=7, l=2, r=40.0))
    assert abs(a - 1.0) < 1e-9 and abs(b - 1.0) < 1e-9


# ------------------------------------------------------------ kernel values


def test_archimedes_plateau():
    # n=3, l=1: the marginal of the unit-sphere surface measure onto a line is
    # flat (Archimedes): psi = 1/2 on [-1, 1], dropping to 0 outside.
    p = KernelParams(n=3, l=1, r=1.0)
    for t in (0.0, 0.5, 0.999, 1.0):
        assert abs(psi(p, t) - 0.5) < 1e-12
    assert psi(p, 1.0000001) == 0.0


def test_kernel_treats_t_as_a_radius():
    # t is the norm of the evaluation point, so negative inputs are a usage
    # error rather than a reflection.
    p = KernelParams(n=9, l=2, r=1.5)
    with pytest.raises(DomainError):
        psi(p, -0.3)
    with pytest.raises(DomainError):
        psi(p, np.array([0.1, -0.7]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_chi_mixture_refuses_a_radius_the_kernel_refuses(bad):
    p, g = KernelParams(n=16, l=2, r=4.0), RadialDensity.closed_form_chi(16)
    with pytest.raises(DomainError):
        psi(p, [bad])
    with pytest.raises(DomainError):
        radial_mixture_marginal(g, 16, 2, [bad])


def test_kernel_edge_values_by_exponent_sign():
    # exponent (n - l - 2)/2 positive: vanishes at the rim
    assert psi(KernelParams(n=6, l=1, r=1.0), 1.0) == 0.0
    # exponent zero (n = l + 2): the plateau value Gamma_{n,l} r^(-l) survives
    # at the rim
    plateau = psi(KernelParams(n=4, l=2, r=1.0), 1.0)
    assert math.isclose(plateau, math.exp(log_gamma_nl(4, 2)), rel_tol=1e-12)
    # exponent negative: the density blows up at the rim
    assert psi(KernelParams(n=3, l=2, r=1.0), 1.0) == math.inf
    assert psi(KernelParams(n=3, l=2, r=1.0), 1.1) == 0.0


@pytest.mark.parametrize(
    "kernel",
    [
        lambda t: psi(KernelParams(n=10, l=2, r=2.0), t),
        lambda t: radial_mixture_marginal(RadialDensity.closed_form_chi(10), 10, 2, t),
        lambda t: gaussian_density(2, 1.0, t),
    ],
    ids=["psi", "mixture", "gaussian"],
)
def test_every_kernel_returns_an_array_of_the_input_shape(kernel):
    # A number, a vector and a matrix of radii give one array form, each value
    # bit for bit the one the same radius gives in any other shape.
    radii = np.array([[0.3, 0.4], [2.5, 0.0]])
    matrix = kernel(radii)
    assert isinstance(matrix, np.ndarray) and matrix.shape == (2, 2)
    assert kernel(radii.ravel()).tobytes() == matrix.tobytes()
    for t, want in zip(radii.ravel().tolist(), matrix.ravel()):
        got = kernel(t)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got.tobytes() == want.tobytes()


def test_kernel_params_validation():
    with pytest.raises(InvalidSpec):
        KernelParams(n=5, l=0, r=1.0)
    with pytest.raises(InvalidSpec):
        KernelParams(n=5, l=2, r=0.0)
    with pytest.raises(InvalidSpec):
        KernelParams(n=5, l=2, r=-1.0)
    with pytest.raises(DomainError):
        psi(KernelParams(n=5, l=5, r=1.0), 0.1)


@pytest.mark.parametrize("bad", [{"n": 5, "l": 2, "r": 1.0}, (5, 2, 1.0), None])
def test_ball_mass_refuses_anything_but_kernel_params(bad):
    with pytest.raises(DomainError, match="params must be KernelParams"):
        psi_ball_mass(bad)


@pytest.mark.parametrize("t", [[2.0, 1.0], [0.5], 1.0, 0.0], ids=["past_r", "inside", "at_r", "0"])
@pytest.mark.parametrize("l", [5, 6])
def test_a_kernel_with_l_at_least_n_is_refused_before_any_radius_is_read(l, t):
    # Past r, at r and inside it: no radius may decide whether l = n is refused.
    with pytest.raises(DomainError, match="the sphere kernel needs l < n"):
        psi(KernelParams(n=5, l=l, r=1.0), t)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=60),
    data=st.data(),
    r=st.floats(min_value=0.5, max_value=4.0),
    c=st.floats(min_value=0.25, max_value=4.0),
    u=st.floats(min_value=0.0, max_value=0.999),
)
def test_kernel_scaling_identity(n, data, r, c, u):
    # psi_{n,l,cr}(ct) = c^(-l) psi_{n,l,r}(t): rescaling the sphere radius
    # rescales the marginal like any l-dimensional density.
    l = data.draw(st.integers(min_value=1, max_value=min(3, n - 1)))
    t = u * r
    lhs = psi(KernelParams(n=n, l=l, r=c * r), c * t)
    rhs = psi(KernelParams(n=n, l=l, r=r), t) / c**l
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-300)


# ------------------------------------------------------- reference densities


def test_gaussian_density_closed_forms():
    assert math.isclose(gaussian_density(1, 1.0, 0.0), 1.0 / math.sqrt(2 * math.pi), rel_tol=1e-15)
    assert math.isclose(
        gaussian_density(2, 1.0, 1.3), math.exp(-1.3**2 / 2) / (2 * math.pi), rel_tol=1e-14
    )
    # variance scaling
    assert math.isclose(
        gaussian_density(3, 2.0, 0.7),
        gaussian_density(3, 1.0, 0.7 / math.sqrt(2.0)) / 2.0**1.5,
        rel_tol=1e-13,
    )
    with pytest.raises(RangeError):
        gaussian_density(1, 0.0, 0.5)


@pytest.mark.parametrize("shape", [(), (1,), (2001,), (13, 17), "transposed"])
@pytest.mark.parametrize("l, v", [(1, 1.0), (1, 1.0 + 1e-24), (2, 0.5), (3, 17.0)])
def test_gaussian_density_has_the_bits_of_the_written_out_formula(l, v, shape):
    # The array path works in one buffer, in place; each value must keep the bits
    # of the formula written as one expression, and a read-only input is untouched.
    rng = np.random.default_rng(4)
    x = rng.normal(scale=4.0, size=(17, 13)).T if shape == "transposed" else rng.normal(
        scale=4.0, size=shape)
    x = np.asarray(x)
    x.flags.writeable = False
    before = x.copy()
    got = gaussian_density(l, v, x)
    want = np.exp(-0.5 * l * math.log(2.0 * math.pi * v) - x * x / (2.0 * v))
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert x.tobytes() == before.tobytes() and not x.flags.writeable


def chi_log_pdf(n: int, t: float) -> float:
    """log density of the norm of a standard n-dimensional gaussian (chi law).

    The oracle of the quadrature checks below, itself checked against scipy.
    """
    if t <= 0.0:
        # chi_1 has a positive limit sqrt(2/pi) at the origin; the others vanish.
        return 0.5 * math.log(2.0 / math.pi) if n == 1 and t == 0.0 else -math.inf
    return (
        (1.0 - 0.5 * n) * math.log(2.0)
        + (n - 1) * math.log(t)
        - 0.5 * t * t
        - float(gammaln(0.5 * n))
    )


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_chi_log_pdf_matches_scipy(n):
    ts = [0.3, 1.0, math.sqrt(n), math.sqrt(n) + 2.0]
    for t in ts:
        assert math.isclose(chi_log_pdf(n, t), stats.chi.logpdf(t, n), rel_tol=1e-11)


def test_chi_log_pdf_normalizes(n=5):
    total, _ = integrate.quad(lambda t: math.exp(chi_log_pdf(n, t)), 0, 60, limit=200)
    assert abs(total - 1.0) < 1e-9


def test_chi_log_pdf_origin_special_case():
    # n=1 has a positive density at the origin: sqrt(2/pi).
    assert math.isclose(math.exp(chi_log_pdf(1, 0.0)), math.sqrt(2 / math.pi), rel_tol=1e-14)


# ------------------------------------------------------------ radial mixture


@pytest.mark.parametrize("n, l", [(10, 1), (30, 2), (50, 1)])
def test_chi_mixture_reproduces_the_gaussian(n, l):
    # Mixing the sphere kernels over the chi radial law recovers the standard
    # l-dimensional gaussian marginal exactly; the quadrature should be at
    # least 8 digits everywhere we evaluate.
    g = RadialDensity.closed_form_chi(n)
    for t in (0.0, 0.7, 1.5, 2.5):
        mix = radial_mixture_marginal(g, n, l, t)
        ref = gaussian_density(l, 1.0, t)
        assert abs(mix / ref - 1.0) < 1e-8


def _quad_mixture(n_chi, n, l, t):
    """The mixture by adaptive quadrature of the r-form integrand over [t, sqrt(n_chi) + 26].

    For n - l = 1 the rim factor (1 - t^2/r^2)^(-1/2) is singular at r = t,
    so the first unit of r is integrated against the weight (r - t)^(-1/2).
    """
    upper = math.sqrt(n_chi) + 26.0
    if t >= upper:
        return 0.0
    expo = 0.5 * (n - l - 2)
    log_c = log_gamma_nl(n, l)

    def integrand(r):
        if r <= t:
            return 0.0
        return math.exp(
            log_c - l * math.log(r) + expo * math.log1p(-((t / r) ** 2)) + chi_log_pdf(n_chi, r)
        )

    lo, total = t, 0.0
    if expo < 0:
        lo = min(t + 1.0, upper)

        def without_weight(r):
            if r <= 0.0:  # t = 0: the weighted-out integrand vanishes like sqrt(r)
                return 0.0
            return math.exp(
                log_c - (l + 2 * expo) * math.log(r) + expo * math.log(r + t)
                + chi_log_pdf(n_chi, r)
            )

        total, _ = integrate.quad(without_weight, t, lo, weight="alg", wvar=(expo, 0.0),
                                  epsabs=0.0, epsrel=1e-13, limit=200)
    if lo < upper:
        peak = [math.sqrt(n_chi)] if lo < math.sqrt(n_chi) < upper else None
        rest, _ = integrate.quad(integrand, lo, upper, points=peak, epsabs=0.0, epsrel=1e-13,
                                 limit=400)
        total += rest
    return total


# SHA-256 of the chi mixture's float64 bytes at n in {2, 16, 64, 256, 1024},
# l in {1, 2, 3} (l < n), on 20 points of [0, 6] and one past sqrt(n) + 26;
# frozen from the implementation that rebuilt its Gauss–Legendre rule per call.
CHI_MIXTURE_DIGEST = "b65643366522bb5df5d5a5f1775daa836bb6362b0d2e8441301d863646bb5025"


def test_chi_mixture_bits_are_pinned():
    digest = hashlib.sha256()
    for n in (2, 16, 64, 256, 1024):
        g = RadialDensity.closed_form_chi(n)
        t = np.append(np.linspace(0.0, 6.0, 20), math.sqrt(n) + 27.0)
        for l in (1, 2, 3):
            if l < n:
                digest.update(radial_mixture_marginal(g, n, l, t).tobytes())
    assert digest.hexdigest() == CHI_MIXTURE_DIGEST


@pytest.mark.parametrize("n, l", [(2, 1), (4, 3), (5, 3), (16, 1), (1024, 3)])
@pytest.mark.parametrize("extra_dims", [0, 3])
def test_chi_mixture_matches_quadrature_of_the_r_integral(n, l, extra_dims):
    # chi_dim = n + 3 mixes over a law whose mixture is not the gaussian.
    n_chi = n + extra_dims
    root = math.sqrt(n_chi)
    ts = np.array([0.0, 0.7, 2.5, root, root + 10.0, root + 25.5, root + 26.0, root + 30.0])
    g = RadialDensity(form="chi", chi_dim=n_chi)
    mix = radial_mixture_marginal(g, n, l, ts)
    oracle = np.array([_quad_mixture(n_chi, n, l, t) for t in ts])
    np.testing.assert_allclose(mix, oracle, rtol=1e-10, atol=0.0)
    assert np.all(mix[ts >= root + 26.0] == 0.0)
    if extra_dims:
        assert abs(mix[0] / gaussian_density(l, 1.0, 0.0) - 1.0) > 1e-3


# -------------------------------------------------------------------- scans


def test_scan_sup_goldens():
    for n, golden in SCAN_SUP_GOLDEN.items():
        rep = psi_gaussian_ratio_scan(n, 1, n**0.125 * (1 - 1e-12), grid_points=2001)
        assert math.isclose(rep.sup_abs_deviation, golden, rel_tol=1e-9)
        assert rep.meta["radius"] == math.sqrt(n)
        assert rep.meta["grid_points"] == 2001


def test_scan_ratio_at_origin_golden():
    rep = psi_gaussian_ratio_scan(100, 1, 1.0, grid_points=3)
    assert math.isclose(rep.per_point_ratios[0], RATIO_AT_ZERO_N100, rel_tol=1e-12)


def test_scan_deviation_follows_the_interior_extremum_law():
    # To second order, the radius-sqrt(n) kernel-to-gaussian ratio deviates by
    # (6 t^2 - t^4 - 3)/(4 n); over [0, n^(1/8)) the interior extremum at
    # t^2 = 3 dominates for these n, so sup * n -> 3/2 and the log-log slope
    # is -1, not -1/2.
    sups = {n: psi_gaussian_ratio_scan(n, 1, n**0.125 * (1 - 1e-12)).sup_abs_deviation
            for n in (400, 1600)}
    for n, sup in sups.items():
        assert abs(sup * n / 1.5 - 1.0) < 0.02
    slope = (math.log(sups[1600]) - math.log(sups[400])) / (math.log(1600) - math.log(400))
    assert -1.1 < slope < -0.9


def test_scan_domain_guard():
    with pytest.raises(RangeError):
        psi_gaussian_ratio_scan(100, 1, 100**0.125)  # endpoint excluded
    with pytest.raises(RangeError):
        psi_gaussian_ratio_scan(100, 1, 0.0)


def test_scan_report_is_self_consistent():
    rep = psi_gaussian_ratio_scan(64, 2, 1.2, grid_points=55)
    assert rep.radius_grid.shape == (55,)
    assert rep.radius_grid[0] == 0.0 and rep.radius_grid[-1] == 1.2
    assert rep.sup_abs_deviation == np.max(np.abs(rep.per_point_ratios - 1.0))


def test_a_scan_grid_past_physical_memory_is_refused_before_it_is_built(monkeypatch):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(RangeError, match="a psi scan of grid_points=100000 needs 4800000 bytes"):
        psi_gaussian_ratio_scan(100, 1, 1.5, grid_points=100_000)


@pytest.mark.parametrize("n, l", [(100, 1), (64, 2), (10_000, 3)])
def test_the_scan_guard_counts_at_least_the_measured_peak(n, l, monkeypatch):
    points = 20001
    psi_gaussian_ratio_scan(n, l, 0.9 * n**0.125, points)
    counted = []
    guard = projclt.spherical._require_memory
    monkeypatch.setattr(projclt.spherical, "_require_memory",
                        lambda what, need: (counted.append(need), guard(what, need)))
    tracemalloc.start()
    try:
        psi_gaussian_ratio_scan(n, l, 0.9 * n**0.125, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted and counted[0] >= peak, (counted, peak)
