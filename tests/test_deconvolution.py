"""The admissibility gate, closed-form smoothed densities, and the sandwich.

At admissible noise levels (alpha ~ 1e-24 and far below) no grid can resolve
the kernel, so the smoothed densities of the four 1-d catalog bodies are
closed forms; the tests cross-check them against direct quadrature at a
resolvable alpha and against their exact limits at tiny alpha.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import erfc, ndtr

import projclt.deconvolution
from projclt.deconvolution import (
    BODIES_1D,
    SANDWICH_MATRIX,
    SANDWICH_SLACK,
    DeconvCertificate,
    DeconvParams,
    SandwichReport,
    body_convolved_density_1d,
    body_density_1d,
    grid_convolve,
    sandwich_margins,
    verify_sandwich,
)
from projclt.errors import GridTooCoarse, InvalidSpec, RangeError
from projclt.model import dumps, loads
from projclt.spherical import gaussian_density

SQRT3 = math.sqrt(3.0)

# parameter sets that pass the gate (n, alpha, beta, epsilon, R)
ADMISSIBLE = [
    (2, 1e-24, 0.5, 0.005, 3.0),
    (8, 1e-28, 0.5, 0.001, 10.0),
    (2, 1e-30, 1.0, 0.008, 4.0),
    (3, 1e-26, 0.5, 0.002, 5.0),
]


def _params(n, alpha, beta, epsilon, R, **kw):
    return DeconvParams(n=n, alpha=alpha, beta=beta, epsilon=epsilon, hypothesis_radius=R, **kw)


# ------------------------------------------------------------------- gate


def test_gate_certifies_the_hand_worked_example():
    cert = DeconvCertificate(_params(8, 1e-28, 0.5, 0.001, 10.0))
    assert cert.admissible
    assert cert.violated_conditions == ()
    # reach (2n)^beta = 4; lower = min(R - 1, 4) = 4, upper = min(4, R) - 3 = 1
    assert cert.lower_radius == 4.0
    assert cert.upper_radius == 1.0
    assert cert.lower_factor == 1.0 - 6e-3
    assert cert.upper_factor == 1.0 + 8e-3


def test_gate_radii_can_be_vacuous():
    cert = DeconvCertificate(_params(2, 1e-24, 0.5, 0.005, 3.0))
    assert cert.admissible
    assert cert.lower_radius == 2.0
    assert cert.upper_radius == -1.0  # min(2, 3) - 3: nothing to check up high


def test_gate_beta_shapes_the_reach():
    cert = DeconvCertificate(_params(2, 1e-30, 1.0, 0.008, 4.0))
    assert cert.lower_radius == 3.0  # min(R - 1, (2n)^1) = min(3, 4)
    assert cert.upper_radius == 1.0  # min(4, 4) - 3


def test_gate_rejects_large_alpha():
    cert = DeconvCertificate(_params(2, 1e-3, 0.5, 0.005, 3.0))
    assert not cert.admissible
    assert any("n^-8" in v for v in cert.violated_conditions)


def test_gate_rejects_epsilon_outside_its_window():
    too_big = DeconvCertificate(_params(2, 1e-24, 0.5, 0.02, 3.0))
    assert not too_big.admissible
    assert any("1/100" in v for v in too_big.violated_conditions)

    # noise floor 100 * (2n)^1.5 * alpha^(1/4) = 8e-2 at alpha = 1e-8 ...
    too_small = DeconvCertificate(_params(2, 1e-8, 0.5, 0.005, 3.0))
    assert not too_small.admissible
    assert any("does not exceed" in v for v in too_small.violated_conditions)


def test_gate_violations_accumulate():
    cert = DeconvCertificate(_params(2, 1e-3, 0.5, 0.5, 3.0))
    assert len(cert.violated_conditions) >= 2


def test_the_sandwich_matrix_admits_exactly_its_first_four_rows():
    admitted = [p for p in SANDWICH_MATRIX if DeconvCertificate(p).admissible]
    assert admitted == [_params(*case) for case in ADMISSIBLE] == list(SANDWICH_MATRIX[:4])


@pytest.mark.parametrize("case", ADMISSIBLE)
def test_gate_certificates_round_trip(case):
    cert = DeconvCertificate(_params(*case))
    back = loads(dumps(cert))
    assert back.admissible == cert.admissible
    assert back.lower_radius == cert.lower_radius
    assert back.params.alpha == cert.params.alpha


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(ADMISSIBLE), shrink=st.floats(min_value=1.0, max_value=1e6))
def test_gate_is_monotone_in_alpha(case, shrink):
    n, alpha, beta, epsilon, R = case
    assert DeconvCertificate(_params(n, alpha / shrink, beta, epsilon, R)).admissible


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(ADMISSIBLE), data=st.data())
def test_gate_is_monotone_in_epsilon(case, data):
    n, alpha, beta, epsilon, R = case
    bigger = data.draw(st.floats(min_value=epsilon, max_value=0.0099))
    assert DeconvCertificate(_params(n, alpha, beta, bigger, R)).admissible


def test_params_validation():
    with pytest.raises(InvalidSpec):
        _params(0, 1e-24, 0.5, 0.005, 3.0)
    with pytest.raises(InvalidSpec):
        _params(2, -1e-24, 0.5, 0.005, 3.0)
    with pytest.raises(InvalidSpec):
        _params(2, 1e-24, 0.5, 0.005, 3.0, c0=1.0)
    with pytest.raises(InvalidSpec):
        _params(2, 1e-24, 0.5, 0.005, 3.0, c0=-0.1)


# --------------------------------------------------------------- grid conv


def test_grid_convolution_adds_gaussian_variances():
    xs = np.arange(-10.0, 10.0, 0.005)
    density = gaussian_density(1, 0.5, np.abs(xs))
    out = grid_convolve(density, 0.005, 0.3)
    expected = gaussian_density(1, 0.8, np.abs(xs))
    assert np.abs(out - expected).max() < 2e-5


def test_grid_convolution_is_associative_in_variance():
    xs = np.arange(-10.0, 10.0, 0.005)
    density = gaussian_density(1, 0.5, np.abs(xs))
    two_step = grid_convolve(grid_convolve(density, 0.005, 0.2), 0.005, 0.3)
    one_step = grid_convolve(density, 0.005, 0.5)
    assert np.abs(two_step - one_step).max() < 2e-5


def test_grid_convolution_refuses_a_grid_that_is_not_1_d():
    gx = gaussian_density(1, 0.5, np.abs(np.arange(-6.0, 6.0, 0.02)))
    for density in (np.outer(gx, gx) * 0.02, np.array(1.0 / 0.02)):
        with pytest.raises(InvalidSpec, match="density must be a 1-d grid, got ndim="):
            grid_convolve(density, 0.02, 0.2)


def _direct_convolution(density, spacing, variance):
    """grid_convolve's truncated, renormalized kernel, summed directly."""
    half = math.ceil(8.0 * math.sqrt(variance) / spacing)
    offsets = np.arange(-half, half + 1) * spacing
    kernel = np.exp(-offsets * offsets / (2.0 * variance))
    kernel /= kernel.sum()
    return np.convolve(density, kernel, mode="full")[half:half + density.size]


def _uniform_grid(xs, spacing):
    # a density with jumps and exact zeros, normalized to unit discrete mass
    density = np.where(np.abs(xs) <= SQRT3, 1.0, 0.0)
    return density / (density.sum() * spacing)


def test_grid_convolution_matches_the_direct_sum_in_one_dimension():
    spacing = 0.01
    xs = np.arange(-4.0, 4.0, spacing)
    for density, variance in (
        (_uniform_grid(xs, spacing), 0.05),
        (body_density_1d("laplace", xs, 0.0), 0.3),
        (_uniform_grid(xs, spacing), 0.4),  # kernel wider than half the grid
    ):
        density = density / (density.sum() * spacing)
        out = grid_convolve(density, spacing, variance)
        assert np.abs(out - _direct_convolution(density, spacing, variance)).max() <= 1e-14


@pytest.mark.parametrize("count, spacing, variance", [
    (4001, 0.001, 0.3),
    (401, 0.01, 0.4),  # half = 253: the kernel is wider than half the grid
    (10, 0.1, 0.25),  # half = 40 > count: the kernel is longer than the transform
])
@pytest.mark.parametrize("shape", ["uniform", "random"])
def test_grid_convolution_keeps_the_linear_window_exactly(count, spacing, variance, shape):
    # Mass at both edges puts the linear convolution's wrapped terms, if any
    # reached the window, where they would show.
    if shape == "uniform":
        density = np.ones(count)
    else:
        density = np.random.default_rng(5).uniform(0.5, 1.5, count)
    density /= density.sum() * spacing
    out = grid_convolve(density, spacing, variance)
    np.testing.assert_allclose(out, _direct_convolution(density, spacing, variance), rtol=1e-12)


def test_grid_convolution_output_is_a_valid_input_again():
    # Far from the jumps the convolution underflows to 0; FFT roundoff must
    # not leave negative values there, or the next pass refuses its input.
    spacing = 0.001
    xs = np.arange(-12.0, 12.0 + spacing / 2.0, spacing)
    once = grid_convolve(_uniform_grid(xs, spacing), spacing, 0.01)
    assert once.min() >= 0.0
    assert np.any(once == 0.0)
    twice = grid_convolve(once, spacing, 0.3)
    assert twice.min() >= 0.0
    assert abs(twice.sum() * spacing - 1.0) < 1e-9


def _is_5_smooth(size):
    for p in (2, 3, 5):
        while size % p == 0:
            size //= p
    return size == 1


@pytest.mark.parametrize("shape, variance", [((24001,), 0.5)])
def test_grid_convolution_pads_each_axis_to_a_5_smooth_length(monkeypatch, shape, variance):
    spacing = 0.001
    (count,) = shape
    density = np.ones(count) / (count * spacing)
    half = math.ceil(8.0 * math.sqrt(variance) / spacing)
    sizes = []
    rfft = np.fft.rfft

    def spy(a, n=None, *args, **kwargs):
        sizes.append(n)
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    grid_convolve(density, spacing, variance)
    # one transform of the grid and one of the kernel, both at one 5-smooth length
    rows, kernel = sizes
    assert rows == kernel >= count + half
    assert _is_5_smooth(rows)
    assert rows == 30000  # the full linear length would take 36000, a power of two 32768


def test_grid_convolution_guards():
    xs = np.arange(-10.0, 10.0, 0.05)
    density = gaussian_density(1, 0.5, np.abs(xs))
    with pytest.raises(GridTooCoarse):
        grid_convolve(density, 0.05, 0.001)  # kernel std 0.032 < 2 * spacing
    with pytest.raises(InvalidSpec):
        grid_convolve(0.5 * density, 0.05, 0.3)  # mass far from 1
    with pytest.raises(InvalidSpec):
        grid_convolve(-density, 0.05, 0.3)
    with pytest.raises(RangeError):
        grid_convolve(density, -0.05, 0.3)


# ------------------------------------------------------- closed-form bodies


def test_body_densities_at_zero():
    assert math.isclose(body_density_1d("gaussian", 0.0, 1e-24)[()], 1 / math.sqrt(2 * math.pi))
    assert math.isclose(body_density_1d("uniform", 0.0, 1e-24)[()], 1 / (2 * SQRT3))
    assert math.isclose(body_density_1d("laplace", 0.0, 1e-24)[()], math.sqrt(2) / 2)
    deflated = body_density_1d("gaussian_deflated", 0.0, 0.5)[()]
    assert math.isclose(deflated, gaussian_density(1, 0.5, 0.0), rel_tol=1e-14)


def test_body_density_edge_and_errors():
    assert body_density_1d("uniform", SQRT3 + 1e-9, 1e-24)[()] == 0.0
    with pytest.raises(InvalidSpec):
        body_density_1d("triangle", 0.0, 1e-24)
    with pytest.raises(RangeError):
        body_density_1d("gaussian_deflated", 0.0, 1.5)
    with pytest.raises(RangeError):
        body_convolved_density_1d("gaussian", 0.0, 0.0)


@pytest.mark.parametrize("body", ["uniform", "laplace"])
@pytest.mark.parametrize("x", [0.0, 1.0, 2.0])
def test_closed_form_convolutions_match_quadrature(body, x):
    alpha = 0.01
    kernel = lambda y: math.exp(-((x - y) ** 2) / (2 * alpha)) / math.sqrt(2 * math.pi * alpha)
    integrand = lambda y: float(body_density_1d(body, np.array([y]), alpha)[0]) * kernel(y)
    quad_points = [-SQRT3, 0.0, SQRT3] if body == "uniform" else [0.0]
    ref, _ = integrate.quad(integrand, x - 12, x + 12, points=quad_points, limit=400)
    val = float(body_convolved_density_1d(body, np.array([x]), alpha)[0])
    assert math.isclose(val, ref, rel_tol=1e-9)


def test_the_skipped_special_function_values_are_exact_limits():
    # The closed forms write these limits instead of calling scipy beyond the
    # cut-offs; a scipy that moves them must fail here, not change bits.
    assert ndtr(-40.0) == 0.0 and ndtr(40.0) == 1.0
    assert erfc(-7.0) == 2.0 and erfc(30.0) == 0.0


def _unmasked_convolved_density_1d(body, x, alpha):
    # The closed forms with every point passed to scipy.
    if body == "uniform":
        s = math.sqrt(alpha)
        return (ndtr((x + SQRT3) / s) - ndtr((x - SQRT3) / s)) / (2.0 * SQRT3)
    b = 1.0 / math.sqrt(2.0)
    s = math.sqrt(2.0 * alpha)
    prefactor = math.exp(alpha / (2.0 * b * b)) / (4.0 * b)
    left = np.exp(-x / b) * erfc((alpha / b - x) / s)
    right = np.exp(x / b) * erfc((alpha / b + x) / s)
    return prefactor * (left + right)


@pytest.mark.parametrize("body", ["uniform", "laplace"])
@pytest.mark.parametrize("alpha", [1e-3, 1e-24, 1e-30])
@pytest.mark.parametrize("radius", [3.0, 10.0])
def test_closed_forms_equal_the_unmasked_formula_bit_for_bit(body, alpha, radius):
    xs = np.linspace(-radius, radius, 20001)
    expected = _unmasked_convolved_density_1d(body, xs, alpha)
    assert np.array_equal(body_convolved_density_1d(body, xs, alpha), expected)


@pytest.mark.parametrize("body", ["uniform", "laplace"])
def test_a_nan_point_gives_nan(body):
    out = body_convolved_density_1d(body, np.array([0.0, math.nan, 1.0]), 1e-24)
    assert np.isnan(out[1]) and np.all(np.isfinite(out[[0, 2]]))


def test_deflated_convolution_is_exactly_standard_gaussian():
    xs = np.linspace(-5.0, 5.0, 21)
    out = body_convolved_density_1d("gaussian_deflated", xs, 1e-24)
    np.testing.assert_allclose(out, gaussian_density(1, 1.0, np.abs(xs)), rtol=1e-14)


def test_tiny_alpha_convolutions_approach_the_raw_densities():
    alpha = 1e-24
    xs = np.array([0.0, 0.5, 1.0, 1.5])
    for body in ("laplace", "uniform"):
        conv = body_convolved_density_1d(body, xs, alpha)
        raw = body_density_1d(body, xs, alpha)
        np.testing.assert_allclose(conv, raw, rtol=1e-10)


def test_gaussian_convolution_adds_variance():
    xs = np.linspace(-3.0, 3.0, 13)
    out = body_convolved_density_1d("gaussian", xs, 0.25)
    np.testing.assert_allclose(out, gaussian_density(1, 1.25, np.abs(xs)), rtol=1e-14)


def test_convolved_densities_normalize():
    for body in BODIES_1D:
        total, _ = integrate.quad(
            lambda y: float(body_convolved_density_1d(body, np.array([y]), 0.01)[0]),
            -14,
            14,
            limit=400,
        )
        assert abs(total - 1.0) < 1e-8, body


# ----------------------------------------------------------------- sandwich


@pytest.mark.parametrize("case", ADMISSIBLE)
@pytest.mark.parametrize("body", ["gaussian", "gaussian_deflated"])
def test_gaussian_family_verifies_everywhere(case, body):
    report = verify_sandwich(body, _params(*case))
    assert report.status == "verified"
    assert report.hypothesis_sup <= _params(*case).epsilon
    for margin in (report.lower_margin_min, report.upper_margin_min):
        assert margin is None or margin >= -SANDWICH_SLACK


def test_gaussian_hypothesis_sup_is_exactly_zero():
    # The convolved gaussian *is* the reference gaussian.
    report = verify_sandwich("gaussian", _params(*ADMISSIBLE[0]))
    assert report.hypothesis_sup == 0.0


@pytest.mark.parametrize(
    "body, sup_golden",
    [("uniform", 2.237060640475569), ("laplace", 1.2926864581132924)],
)
def test_heavy_bodies_fail_the_closeness_hypothesis(body, sup_golden):
    report = verify_sandwich(body, _params(2, 1e-24, 0.5, 0.005, 3.0))
    assert report.status == "hypothesis_not_met"
    assert math.isclose(report.hypothesis_sup, sup_golden, rel_tol=1e-9)
    assert report.lower_margin_min is None and report.upper_margin_min is None


def test_inadmissible_params_short_circuit():
    report, rows = sandwich_margins("gaussian", _params(2, 1e-3, 0.5, 0.005, 3.0))
    assert report.status == "inadmissible"
    assert rows == []
    assert report.hypothesis_sup is None


def test_margin_rows_are_consistent():
    p = _params(8, 1e-28, 0.5, 0.001, 10.0)
    report, rows = sandwich_margins("gaussian", p, grid_points=101)
    assert report.status == "verified"
    lower = [r for r in rows if r[0] == "lower"]
    upper = [r for r in rows if r[0] == "upper"]
    assert len(lower) == 101 and len(upper) == 101
    assert max(abs(r[1]) for r in lower) == pytest.approx(4.0)
    assert max(abs(r[1]) for r in upper) == pytest.approx(1.0)
    for region, x, density, bound, margin in rows[:: len(rows) // 17]:
        sign = 1.0 if region == "lower" else -1.0
        assert margin == pytest.approx(sign * (density - bound), rel=1e-12)
        assert margin >= -SANDWICH_SLACK


def test_vacuous_side_produces_no_rows():
    report, rows = sandwich_margins("gaussian", _params(2, 1e-24, 0.5, 0.005, 3.0), grid_points=51)
    assert report.status == "verified"
    assert report.upper_margin_min is None
    assert {r[0] for r in rows} == {"lower"}


@pytest.mark.parametrize("case", SANDWICH_MATRIX)
@pytest.mark.parametrize("body", BODIES_1D)
def test_verify_sandwich_reports_what_sandwich_margins_reports(case, body):
    report, rows = sandwich_margins(body, case, grid_points=301)
    assert dumps(verify_sandwich(body, case, grid_points=301)) == dumps(report)
    assert bool(rows) == (report.status in ("verified", "sandwich_violated"))


@pytest.mark.parametrize("case", [SANDWICH_MATRIX[0], SANDWICH_MATRIX[4]],
                         ids=["admissible", "inadmissible"])
@pytest.mark.parametrize("grid_points", ["x", 0, 2.0])
def test_grid_points_are_checked_before_the_gate(case, grid_points):
    with pytest.raises(InvalidSpec, match="grid_points must be "):
        verify_sandwich("uniform", case, grid_points=grid_points)
    with pytest.raises(InvalidSpec, match="grid_points must be "):
        sandwich_margins("uniform", case, grid_points=grid_points)


# Admissible, with both regions non-vacuous: reach (2n)^beta = 4, lower radius 4, upper 1.
_TWO_REGIONS = _params(8, 1e-24, 0.5, 0.008, 10.0)


def _count_gaussians(monkeypatch) -> list:
    # Grid evaluations only: the scalar check of the reference at R is not one.
    variances = []

    def counting(l, v, x):
        if np.ndim(x):
            variances.append(v)
        return gaussian_density(l, v, x)

    monkeypatch.setattr(projclt.deconvolution, "gaussian_density", counting)
    return variances


@pytest.mark.parametrize("body", ["gaussian", "gaussian_deflated"])
def test_a_verified_gaussian_op_evaluates_one_gaussian_per_grid(body, monkeypatch):
    # 1 + alpha and 1 - alpha round to 1 here: the hypothesis grid's density is
    # its reference and each region's density is its bound's base.
    variances = _count_gaussians(monkeypatch)
    report, rows = sandwich_margins(body, _TWO_REGIONS, 201)
    assert report.status == "verified"
    assert {row[0] for row in rows} == {"lower", "upper"}
    assert variances == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("body", ["uniform", "laplace"])
def test_a_body_that_fails_the_hypothesis_evaluates_one_gaussian(body, monkeypatch):
    variances = _count_gaussians(monkeypatch)
    assert verify_sandwich(body, _TWO_REGIONS, 201).status == "hypothesis_not_met"
    assert variances == [1.0]


@pytest.mark.parametrize("case", SANDWICH_MATRIX)
@pytest.mark.parametrize("body", BODIES_1D)
def test_the_sandwich_peaks_at_one_grid_of_arrays(case, body):
    # The hypothesis grid is released before the first region grid, and each
    # region's before the next: the peak is that of one grid, not of three.
    points = 20001
    verify_sandwich(body, case, points)
    tracemalloc.start()
    try:
        verify_sandwich(body, case, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * points * 8


def test_an_R_past_the_reference_underflow_is_refused_before_any_grid(monkeypatch):
    # N(0, 1 + alpha) is 0 at |x| >= 38.6; the ratio conv / ref would be 0/0 or x/0.
    variances = _count_gaussians(monkeypatch)
    for body in BODIES_1D:
        with pytest.raises(RangeError, match="R = 40 is too large"):
            verify_sandwich(body, _params(8, 1e-28, 0.5, 0.001, 40.0))
    assert variances == []
    assert verify_sandwich("gaussian", _params(8, 1e-28, 0.5, 0.001, 38.0)).status == "verified"
    # an inadmissible parameter set is reported as such first
    assert verify_sandwich("gaussian", _params(2, 1e-3, 0.5, 0.005, 40.0)).status == "inadmissible"


@pytest.mark.parametrize("name", ["hypothesis_sup", "lower_margin_min", "upper_margin_min"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_sandwich_report_refuses_a_non_finite_number(name, value):
    cert = DeconvCertificate(_params(*ADMISSIBLE[0]))
    with pytest.raises(InvalidSpec, match=f"{name} must be a finite float or None"):
        SandwichReport(body="gaussian", status="verified", certificate=cert, **{name: value})


@pytest.mark.parametrize("alpha", [1.0, 1.5, 0.0, -0.5])
def test_the_deflated_gaussian_refuses_alpha_outside_0_1_on_every_path(alpha):
    for density in (body_density_1d, body_convolved_density_1d):
        for x in (0.0, np.linspace(-1.0, 1.0, 5)):
            with pytest.raises(RangeError):
                density("gaussian_deflated", x, alpha)


def test_sandwich_report_round_trip():
    report = verify_sandwich("uniform", _params(2, 1e-24, 0.5, 0.005, 3.0))
    back = loads(dumps(report))
    assert isinstance(back, SandwichReport)
    assert back.status == report.status
    assert back.hypothesis_sup == report.hypothesis_sup
    assert back.certificate.lower_radius == report.certificate.lower_radius


@pytest.mark.parametrize("body", BODIES_1D)
def test_the_sandwich_reads_every_body_through_the_1d_densities(body, monkeypatch):
    calls = []
    for name in ("body_density_1d", "body_convolved_density_1d"):
        real = getattr(projclt.deconvolution, name)

        def counting(b, x, alpha, name=name, real=real):
            calls.append((name, b))
            return real(b, x, alpha)

        monkeypatch.setattr(projclt.deconvolution, name, counting)
    report = verify_sandwich(body, _TWO_REGIONS, 201)
    regions = 2 if report.status in ("verified", "sandwich_violated") else 0
    assert calls == [("body_convolved_density_1d", body)] + [("body_density_1d", body)] * regions


def _counted_needs(monkeypatch) -> list:
    counted = []
    guard = projclt.deconvolution._require_memory
    monkeypatch.setattr(projclt.deconvolution, "_require_memory",
                        lambda what, need: (counted.append(need), guard(what, need)))
    return counted


@pytest.mark.parametrize("margins", [False, True], ids=["verify", "margins"])
@pytest.mark.parametrize("case", [SANDWICH_MATRIX[0], SANDWICH_MATRIX[4]],
                         ids=["admissible", "inadmissible"])
def test_a_sandwich_grid_past_physical_memory_is_refused_before_the_gate(case, margins,
                                                                         monkeypatch):
    monkeypatch.setattr(projclt.deconvolution, "body_convolved_density_1d",
                        lambda *args: pytest.fail("a grid was evaluated"))
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    run = sandwich_margins if margins else verify_sandwich
    need = 100_000 * (448 if margins else 48)
    with pytest.raises(RangeError, match=f"a sandwich of grid_points=100000 needs {need} bytes"):
        run("uniform", case, grid_points=100_000)


@pytest.mark.parametrize("margins", [False, True], ids=["verify", "margins"])
@pytest.mark.parametrize("case", SANDWICH_MATRIX[:4])
@pytest.mark.parametrize("body", BODIES_1D)
def test_the_sandwich_guard_counts_at_least_the_measured_peak(body, case, margins, monkeypatch):
    run = sandwich_margins if margins else verify_sandwich
    points = 20001
    run(body, case, points)
    counted = _counted_needs(monkeypatch)
    tracemalloc.start()
    try:
        run(body, case, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted and counted[0] >= peak, (counted, peak)
