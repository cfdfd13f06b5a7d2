"""The admissibility gate, closed-form smoothed densities, and the sandwich.

At admissible noise levels (alpha ~ 1e-24 and far below) no grid can resolve
the kernel, so the smoothed densities of the four 1-d catalog bodies are
closed forms; the tests cross-check them against direct quadrature at a
resolvable alpha and against their exact limits at tiny alpha.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from projclt.deconvolution import (
    BODIES_1D,
    SANDWICH_MATRIX,
    SANDWICH_SLACK,
    DeconvParams,
    SandwichReport,
    body_convolved_density_1d,
    body_density_1d,
    check_conditions,
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
    cert = check_conditions(_params(8, 1e-28, 0.5, 0.001, 10.0))
    assert cert.admissible
    assert cert.violated_conditions == ()
    # reach (2n)^beta = 4; lower = min(R - 1, 4) = 4, upper = min(4, R) - 3 = 1
    assert cert.lower_radius == 4.0
    assert cert.upper_radius == 1.0
    assert cert.lower_factor == 1.0 - 6e-3
    assert cert.upper_factor == 1.0 + 8e-3


def test_gate_radii_can_be_vacuous():
    cert = check_conditions(_params(2, 1e-24, 0.5, 0.005, 3.0))
    assert cert.admissible
    assert cert.lower_radius == 2.0
    assert cert.upper_radius == -1.0  # min(2, 3) - 3: nothing to check up high


def test_gate_beta_shapes_the_reach():
    cert = check_conditions(_params(2, 1e-30, 1.0, 0.008, 4.0))
    assert cert.lower_radius == 3.0  # min(R - 1, (2n)^1) = min(3, 4)
    assert cert.upper_radius == 1.0  # min(4, 4) - 3


def test_gate_rejects_large_alpha():
    cert = check_conditions(_params(2, 1e-3, 0.5, 0.005, 3.0))
    assert not cert.admissible
    assert any("n^-8" in v for v in cert.violated_conditions)


def test_gate_rejects_epsilon_outside_its_window():
    too_big = check_conditions(_params(2, 1e-24, 0.5, 0.02, 3.0))
    assert not too_big.admissible
    assert any("1/100" in v for v in too_big.violated_conditions)

    # noise floor 100 * (2n)^1.5 * alpha^(1/4) = 8e-2 at alpha = 1e-8 ...
    too_small = check_conditions(_params(2, 1e-8, 0.5, 0.005, 3.0))
    assert not too_small.admissible
    assert any("does not exceed" in v for v in too_small.violated_conditions)


def test_gate_violations_accumulate():
    cert = check_conditions(_params(2, 1e-3, 0.5, 0.5, 3.0))
    assert len(cert.violated_conditions) >= 2


def test_the_sandwich_matrix_admits_exactly_its_first_four_rows():
    admitted = [p for p in SANDWICH_MATRIX if check_conditions(p).admissible]
    assert admitted == [_params(*case) for case in ADMISSIBLE] == list(SANDWICH_MATRIX[:4])


@pytest.mark.parametrize("case", ADMISSIBLE)
def test_gate_certificates_round_trip(case):
    cert = check_conditions(_params(*case))
    back = loads(dumps(cert))
    assert back.admissible == cert.admissible
    assert back.lower_radius == cert.lower_radius
    assert back.params.alpha == cert.params.alpha


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(ADMISSIBLE), shrink=st.floats(min_value=1.0, max_value=1e6))
def test_gate_is_monotone_in_alpha(case, shrink):
    n, alpha, beta, epsilon, R = case
    assert check_conditions(_params(n, alpha / shrink, beta, epsilon, R)).admissible


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(ADMISSIBLE), data=st.data())
def test_gate_is_monotone_in_epsilon(case, data):
    n, alpha, beta, epsilon, R = case
    bigger = data.draw(st.floats(min_value=epsilon, max_value=0.0099))
    assert check_conditions(_params(n, alpha, beta, bigger, R)).admissible


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


def test_grid_convolution_handles_two_dimensions():
    xs = np.arange(-6.0, 6.0, 0.02)
    gx = gaussian_density(1, 0.5, np.abs(xs))
    density = np.outer(gx, gx)
    out = grid_convolve(density, 0.02, 0.2)
    r = np.hypot(xs[:, None], xs[None, :])
    expected = gaussian_density(2, 0.7, r)
    assert np.abs(out - expected).max() < 1e-4
    # discrete mass is conserved up to boundary truncation
    assert abs(out.sum() * 0.02**2 - 1.0) < 1e-8


def _direct_convolution(density, spacing, variance):
    """grid_convolve's truncated, renormalized kernel, summed directly per axis."""
    half = math.ceil(8.0 * math.sqrt(variance) / spacing)
    offsets = np.arange(-half, half + 1) * spacing
    kernel = np.exp(-offsets * offsets / (2.0 * variance))
    kernel /= kernel.sum()
    out = density
    for axis in range(density.ndim):
        out = np.apply_along_axis(
            lambda row: np.convolve(row, kernel, mode="full")[half:half + row.size], axis, out
        )
    return out


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


def test_grid_convolution_matches_the_direct_sum_in_two_dimensions():
    spacing = 0.02
    xs = np.arange(-3.0, 3.0, spacing)
    ys = np.arange(-2.5, 2.5, spacing)
    density = np.outer(_uniform_grid(xs, spacing), body_density_1d("laplace", ys, 0.0))
    density /= density.sum() * spacing**2
    out = grid_convolve(density, spacing, 0.04)
    assert out.shape == density.shape
    assert np.abs(out - _direct_convolution(density, spacing, 0.04)).max() <= 1e-14


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


def test_sandwich_report_round_trip():
    report = verify_sandwich("uniform", _params(2, 1e-24, 0.5, 0.005, 3.0))
    back = loads(dumps(report))
    assert isinstance(back, SandwichReport)
    assert back.status == report.status
    assert back.hypothesis_sup == report.hypothesis_sup
    assert back.certificate.lower_radius == report.certificate.lower_radius
