"""Kernel density estimation, gaussian ratio reports, and smoothed profiles.

The gaussian-kernel estimator has an exactly known expectation on gaussian
input: smoothing the l-dimensional standard gaussian with bandwidth h gives
the gaussian of per-coordinate variance 1 + h^2.  The accuracy tests compare
against that expectation, which separates Monte Carlo noise (covered by the
reported standard errors) from smoothing bias.  The binned estimator is also
compared with the direct kernel sum over every sample-point pair, kept here
as its oracle.
"""

import math

import numpy as np
import pytest

import projclt.cli
import projclt.density
from projclt.cli import projected_ratio
from projclt.deconvolution import body_convolved_density_1d
from projclt.density import (
    MAX_KDE_DIM,
    MIN_KDE_SAMPLES,
    estimate_density,
    m_tilde_profile,
    project_body,
    radial_points,
    ratio_to_gaussian,
    scott_bandwidth,
)
from projclt.errors import DimensionTooHigh, InvalidSpec, RangeError, TooFewSamples
from projclt.grassmann import random_subspace
from projclt.model import BodySpec, ConvolutionSchedule, GaussianSpec, SubspaceBasis
from projclt.samplers import SampleBatch, sample_gaussian
from projclt.spherical import gaussian_density


# ------------------------------------------------------------- directions


def test_line_directions_are_the_two_signs():
    np.testing.assert_array_equal(radial_points([1.0], 1, 7), [[1.0], [-1.0]])


@pytest.mark.parametrize("direction_count", [0, -3])
def test_line_directions_ignore_the_direction_count(direction_count):
    # Only l >= 2 grids have a direction count to check.
    np.testing.assert_array_equal(
        radial_points([0.0, 2.0], 1, direction_count), [[0.0], [-0.0], [2.0], [-2.0]]
    )


def test_circle_directions_are_evenly_spaced():
    dirs = radial_points([1.0], 2, 8)
    assert dirs.shape == (8, 2)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose(dirs.sum(axis=0), 0.0, atol=1e-13)
    # adjacent angle gaps are all 2 pi / 8
    angles = np.sort(np.arctan2(dirs[:, 1], dirs[:, 0]))
    np.testing.assert_allclose(np.diff(angles), 2 * math.pi / 8, atol=1e-12)


def test_sphere_directions_cover_both_hemispheres():
    dirs = radial_points([1.0], 3, 64)
    assert dirs.shape == (64, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # the z lattice is symmetric by construction, x/y nearly balance
    assert abs(dirs[:, 2].sum()) < 1e-12
    assert np.abs(dirs.mean(axis=0)).max() < 0.02


def test_directions_reject_high_dimension():
    with pytest.raises(DimensionTooHigh):
        radial_points([1.0], 4, 16)


# -------------------------------------------------------------- bandwidth


def test_scott_bandwidth_formula():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((4000, 2)) * np.array([1.0, 2.0])
    expected = math.sqrt(float(np.mean(np.var(data, axis=0)))) * 4000 ** (-1.0 / 6.0)
    assert scott_bandwidth(data) == expected


@pytest.mark.parametrize(
    "radii, direction_count",
    [([], 16), ([[0.5]], 16), ([-0.5, 1.0], 16), ([0.5, math.nan], 16), ([0.5], 0)],
    ids=["empty", "two_dimensional", "negative", "nan", "no_directions"],
)
def test_radial_points_reject_bad_grids(radii, direction_count):
    with pytest.raises(InvalidSpec):
        radial_points(radii, 2, direction_count)


@pytest.mark.parametrize(
    "points, bandwidth",
    [
        (np.zeros((0, 1)), None),  # no points
        (np.zeros(3), None),  # a flat list is not a k x 1 array
        (np.zeros((3, 2)), None),  # dimension mismatch
        ([[math.inf]], None),
        ([[0.0]], 0.0),
        ([[0.0]], -0.3),
        ([[0.0]], math.nan),
        ([[0.0]], math.inf),
    ],
    ids=["empty", "flat", "dim_mismatch", "inf_point", "zero_h", "negative_h", "nan_h", "inf_h"],
)
def test_estimate_density_rejects_bad_arguments(points, bandwidth):
    batch = sample_gaussian(GaussianSpec(dimension=1, variance=1.0), MIN_KDE_SAMPLES, seed=20)
    with pytest.raises(InvalidSpec):
        estimate_density(batch, points, bandwidth)


# ---------------------------------------------------------------- estimates


def test_estimator_matches_its_exact_expectation_per_dimension():
    cases = {
        1: (20_000, np.linspace(-2.0, 2.0, 41).reshape(-1, 1), 0.012),
        2: (40_000, None, 0.008),
        3: (60_000, None, 0.005),
    }
    for l, (count, pts, tol) in cases.items():
        if pts is None:
            g = np.linspace(-1.5, 1.5, 5)
            pts = np.stack(np.meshgrid(*([g] * l)), axis=-1).reshape(-1, l)
        batch = sample_gaussian(GaussianSpec(dimension=l, variance=1.0), count, seed=21)
        est = estimate_density(batch, pts)
        truth = gaussian_density(l, 1.0 + est.bandwidth**2, np.linalg.norm(pts, axis=1))
        dev = np.abs(est.values - truth)
        assert dev.max() < tol
        # the reported standard errors explain the remaining noise
        assert (dev / np.maximum(est.stderr, 1e-300)).max() < 4.0


def test_fixed_bandwidth_is_used_verbatim():
    batch = sample_gaussian(GaussianSpec(dimension=1, variance=1.0), 20_000, seed=22)
    est = estimate_density(batch, np.zeros((1, 1)), bandwidth=0.25)
    assert est.bandwidth == 0.25
    truth = gaussian_density(1, 1.0 + 0.25**2, 0.0)
    assert abs(est.values[0] - truth) < 4.0 * est.stderr[0] + 1e-4


def direct_kernel_sum(data, pts, h):
    """The KDE and its per-point stderr from every sample-point pair, chunk by chunk."""
    count, l = data.shape
    chunk = 16_384
    pts_sq = np.einsum("ij,ij->i", pts, pts)
    norm_const = math.exp(-0.5 * l * math.log(2.0 * math.pi) - l * math.log(h))
    acc = np.zeros(pts.shape[0])
    acc_sq = np.zeros(pts.shape[0])
    for lo in range(0, count, chunk):
        block = data[lo : lo + chunk]
        sq = np.einsum("ij,ij->i", block, block)[:, None] + pts_sq[None, :]
        sq -= 2.0 * (block @ pts.T)
        np.clip(sq, 0.0, None, out=sq)
        w = np.exp(sq * (-0.5 / (h * h))) * norm_const
        acc += w.sum(axis=0)
        acc_sq += np.einsum("ij,ij->j", w, w)
    values = acc / count
    var = np.clip(acc_sq / count - values * values, 0.0, None)
    return values, np.sqrt(var / count)


@pytest.mark.parametrize(
    "l, body, points, bandwidth",
    [
        (1, "gaussian", np.linspace(-2.0, 2.0, 41)[:, None], None),
        (2, "cube", radial_points(np.linspace(0.0, 2.0, 9), 2, 8), None),
        (3, "simplex", radial_points(np.linspace(0.0, 1.5, 7), 3, 16), None),
        (2, "gaussian", [[0.3, -0.2]], 0.1),
    ],
    ids=["l1_scott", "l2_scott", "l3_scott", "l2_fixed"],
)
def test_binned_estimate_matches_the_direct_kernel_sum(l, body, points, bandwidth):
    # Projections of 20-dimensional bodies, as the pipelines estimate them.  Their
    # tails reach past the grid's 8h margin, so dropped rows are covered too.
    basis = random_subspace(20, l, seed=22)
    batch = project_body(BodySpec(body, 20), 60_000, 23, basis)
    est = estimate_density(batch, points, bandwidth)
    values, stderr = direct_kernel_sum(batch.data, est.points, est.bandwidth)
    assert np.all(np.abs(est.values - values) <= 0.1 * stderr)
    np.testing.assert_allclose(est.stderr, stderr, rtol=0.02)


def test_radial_grid_is_radius_major():
    batch = sample_gaussian(GaussianSpec(dimension=2, variance=1.0), 10_000, seed=24)
    est = estimate_density(batch, radial_points([0.0, 1.0], 2, 4))
    assert est.points.shape == (8, 2)
    np.testing.assert_array_equal(est.points[:4], np.zeros((4, 2)))
    np.testing.assert_allclose(np.linalg.norm(est.points[4:], axis=1), 1.0, atol=1e-14)
    # all four copies of radius 0 see the same kernel sum
    assert np.ptp(est.values[:4]) == 0.0


def test_estimator_guards():
    small = sample_gaussian(GaussianSpec(dimension=1, variance=1.0), MIN_KDE_SAMPLES - 1, seed=25)
    with pytest.raises(TooFewSamples):
        estimate_density(small, [[0.0]])

    wide = sample_gaussian(GaussianSpec(dimension=MAX_KDE_DIM + 1, variance=1.0), 20_000, seed=26)
    with pytest.raises(DimensionTooHigh):
        estimate_density(wide, np.zeros((1, MAX_KDE_DIM + 1)))

    batch = sample_gaussian(GaussianSpec(dimension=2, variance=1.0), 20_000, seed=27)
    with pytest.raises(InvalidSpec):
        estimate_density(batch, np.zeros((3, 1)))  # dim mismatch


@pytest.mark.parametrize(
    "bad",
    [{57: math.nan}, {19_999: -math.inf}, {57: math.nan, 19_999: math.inf}],
    ids=["nan", "inf", "nan_and_inf"],
)
def test_estimator_rejects_non_finite_data(bad):
    data = sample_gaussian(GaussianSpec(dimension=2, variance=1.0), 20_000, seed=30).data.copy()
    for row, value in bad.items():
        data[row, 1] = value
    batch = SampleBatch(data=data, seed=30, source={})
    with pytest.raises(InvalidSpec, match="20000 x 2 batch to estimate holds non-finite values"):
        estimate_density(batch, [[0.0, 0.0]])


def test_estimator_refuses_a_grid_larger_than_physical_memory():
    # About 1.6e5 nodes per axis; the check runs before anything grid-sized is allocated.
    batch = sample_gaussian(GaussianSpec(dimension=3, variance=1.0), MIN_KDE_SAMPLES, seed=31)
    points = radial_points(np.linspace(0.0, 2.0, 5), 3, 16)
    with pytest.raises(RangeError, match="KDE grid at 80 points needs .* bytes of physical memory"):
        estimate_density(batch, points, bandwidth=1e-4)


# ------------------------------------------------------------- exact oracle

# Bonferroni over the 31 points at a family false-failure rate of 1e-6.
_ORACLE_Z = 5.53


def test_a_cube_coordinate_projection_matches_its_exact_kde_expectation():
    # Onto e1 the isotropic cube projects to the uniform law on [-sqrt(3), sqrt(3)],
    # so the fixed-h estimate has the exact expectation uniform * N(0, h^2).  Over
    # seeds 0-7 the worst |z| is 3.43; a cube sample scaled by 1 +/- 3% reaches
    # |z| >= 5.8 at every one of those seeds, so a scale error of 3% fails here.
    n, h = 50, 0.05
    e1 = np.zeros((1, n))
    e1[0, 0] = 1.0
    batch = project_body(BodySpec("cube", n), 400_000, 0, SubspaceBasis(rows=e1))
    x = np.linspace(-1.5, 1.5, 31)
    est = estimate_density(batch, x[:, None], bandwidth=h)
    z = (est.values - body_convolved_density_1d("uniform", x, h * h)) / est.stderr
    assert np.abs(z).max() <= _ORACLE_Z


# -------------------------------------------------------------- ratio report


def test_ratio_to_gaussian_divides_by_the_reference():
    batch = sample_gaussian(GaussianSpec(dimension=1, variance=1.0), 20_000, seed=28)
    est = estimate_density(batch, np.linspace(-1.0, 1.0, 9).reshape(-1, 1))
    rep = ratio_to_gaussian(est, 1.0, 1.0)
    ref = gaussian_density(1, 1.0, np.abs(np.linspace(-1.0, 1.0, 9)))
    np.testing.assert_allclose(rep.per_point_ratios, est.values / ref, rtol=1e-14)
    assert rep.meta["sample_count"] == 20_000
    assert rep.meta["bandwidth"] == est.bandwidth
    assert rep.meta["variance"] == 1.0


def test_ratio_to_gaussian_rejects_points_beyond_the_radius():
    batch = sample_gaussian(GaussianSpec(dimension=1, variance=1.0), 20_000, seed=29)
    est = estimate_density(batch, [[0.0], [1.5]])
    with pytest.raises(RangeError):
        ratio_to_gaussian(est, 1.0, 1.0)
    with pytest.raises(RangeError):
        ratio_to_gaussian(est, 1.0, -2.0)


# ------------------------------------------------------------ m-tilde profile


def test_m_tilde_profile_of_smoothed_gaussian_is_flat():
    # Gaussian body: the smoothed projection is exactly the reference gaussian
    # of variance 1 + v, so the profile deviates only by estimator noise.
    rep = m_tilde_profile(
        BodySpec("gaussian", 50),
        ConvolutionSchedule(alpha=10.0),
        l=2,
        radii=np.linspace(0.0, 2.0, 5),
        subspace_count=6,
        samples_per_subspace=30_000,
        seed=909,
    )
    assert rep.sup_abs_deviation < 0.06
    assert rep.meta["noise_variance"] == 50.0 ** (-1.0 / 7.0)
    assert rep.meta["subspace_count"] == 6


def test_m_tilde_profile_of_cube_is_near_gaussian():
    rep = m_tilde_profile(
        BodySpec("cube", 40),
        ConvolutionSchedule(alpha=10.0),
        l=1,
        radii=np.linspace(0.0, 2.0, 5),
        subspace_count=6,
        samples_per_subspace=30_000,
        seed=909,
    )
    assert rep.sup_abs_deviation < 0.06


def test_m_tilde_profile_is_deterministic():
    kwargs = dict(
        body=BodySpec("ball", 20),
        schedule=ConvolutionSchedule(alpha=10.0),
        l=1,
        radii=np.linspace(0.0, 1.0, 3),
        subspace_count=2,
        samples_per_subspace=10_000,
        seed=5,
    )
    a = m_tilde_profile(**kwargs)
    b = m_tilde_profile(**kwargs)
    np.testing.assert_array_equal(a.per_point_ratios, b.per_point_ratios)


def test_m_tilde_profile_rejects_high_dimension():
    with pytest.raises(DimensionTooHigh):
        m_tilde_profile(
            BodySpec("cube", 30),
            ConvolutionSchedule(alpha=10.0),
            l=4,
            radii=np.array([0.5]),
            subspace_count=1,
            samples_per_subspace=10_000,
            seed=1,
        )


# ------------------------------------------------- noise after projecting
#
# Both smoothed pipelines project first and then add l-dim noise of the
# ambient variance v(n).  A moment test cannot tell v(n) from v(l): both
# rescale to unit variance, and at small n the fourth-moment gap is about one
# standard error.  So the calls themselves are recorded.

_NOISE_N = 8


@pytest.mark.parametrize("l", [1, 2])
def test_projected_ratio_adds_l_dim_noise_of_the_ambient_variance(monkeypatch, l):
    calls = []
    original = projclt.cli.convolve_and_rescale

    def recording(x, *args, **kwargs):
        out = original(x, *args, **kwargs)
        calls.append((x.dimension, out.source["noise_variance"]))
        return out

    monkeypatch.setattr(projclt.cli, "convolve_and_rescale", recording)
    schedule = ConvolutionSchedule(alpha=10.0)
    projected_ratio(
        BodySpec("cube", _NOISE_N), MIN_KDE_SAMPLES, 11, l, 12, 2.0, 5, direction_count=4,
        schedule=schedule, noise_seed=13,
    )
    assert schedule.noise_variance(_NOISE_N) != schedule.noise_variance(l)
    assert calls == [(l, schedule.noise_variance(_NOISE_N))]


def test_m_tilde_profile_adds_l_dim_noise_of_the_ambient_variance(monkeypatch):
    calls = []
    original = projclt.density.sample_gaussian

    def recording(spec, *args, **kwargs):
        calls.append((spec.dimension, spec.variance))
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(projclt.density, "sample_gaussian", recording)
    schedule = ConvolutionSchedule(alpha=10.0)
    m_tilde_profile(
        BodySpec("cube", _NOISE_N), schedule, l=2, radii=np.array([0.0, 1.0]),
        subspace_count=3, samples_per_subspace=MIN_KDE_SAMPLES, seed=14, direction_count=4,
    )
    assert calls == [(2, schedule.noise_variance(_NOISE_N))] * 3
