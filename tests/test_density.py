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
import os
import tracemalloc

import numpy as np
import pytest

import projclt.density
from projclt.cli import projected_ratio
from projclt.deconvolution import body_convolved_density_1d
from projclt.density import (
    DIRECTIONS,
    MAX_KDE_DIM,
    MIN_KDE_SAMPLES,
    body_and_basis_seeds,
    estimate_density,
    m_tilde_profile,
    project_body,
    radial_points,
    ratio_to_gaussian,
    smoothed_marginal,
    smoothing_bandwidth,
)
from projclt.errors import DimensionTooHigh, InvalidSpec, RangeError, TooFewSamples
from projclt.grassmann import random_subspace
from projclt.model import BodySpec, ConvolutionSchedule, GaussianSpec, SubspaceBasis
from projclt.samplers import (
    BLOCK, SampleBatch, _seed_seq, norm_column, sample_body, sample_gaussian,
)
from projclt.spherical import gaussian_density


# ------------------------------------------------------------- directions


def test_line_directions_are_the_two_signs():
    np.testing.assert_array_equal(radial_points([1.0], 1), [[1.0], [-1.0]])
    np.testing.assert_array_equal(radial_points([0.0, 2.0], 1), [[0.0], [-0.0], [2.0], [-2.0]])


@pytest.mark.parametrize("l", [2, 3])
def test_each_radius_carries_the_fixed_directions(l):
    radii = [0.0, 0.5, 2.0]
    points = radial_points(radii, l)
    assert points.shape == (len(radii) * DIRECTIONS, l)
    norms = np.linalg.norm(points, axis=1).reshape(len(radii), DIRECTIONS)
    np.testing.assert_allclose(norms, np.repeat([radii], DIRECTIONS, axis=0).T, atol=1e-14)
    np.testing.assert_array_equal(points[2 * DIRECTIONS:], 4.0 * points[DIRECTIONS:2 * DIRECTIONS])


def test_circle_directions_are_evenly_spaced():
    dirs = radial_points([1.0], 2)
    assert dirs.shape == (DIRECTIONS, 2)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose(dirs.sum(axis=0), 0.0, atol=1e-13)
    # adjacent angle gaps are all 2 pi / DIRECTIONS
    angles = np.sort(np.arctan2(dirs[:, 1], dirs[:, 0]))
    np.testing.assert_allclose(np.diff(angles), 2 * math.pi / DIRECTIONS, atol=1e-12)


def test_sphere_directions_cover_both_hemispheres():
    dirs = radial_points([1.0], 3)
    assert dirs.shape == (DIRECTIONS, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # the z lattice is symmetric by construction, x/y nearly balance
    assert abs(dirs[:, 2].sum()) < 1e-12
    assert np.abs(dirs.mean(axis=0)).max() < 0.02


def test_directions_reject_a_dimension_below_1():
    with pytest.raises(InvalidSpec, match="l must be >= 1, got 0"):
        radial_points([1.0], 0)


def test_directions_reject_high_dimension():
    with pytest.raises(DimensionTooHigh, match="density estimation supports l <= 3, got l=4"):
        radial_points([1.0], 4)


@pytest.mark.parametrize(
    "radii",
    [[], [[0.5]], [-0.5, 1.0], [0.5, math.nan]],
    ids=["empty", "two_dimensional", "negative", "nan"],
)
def test_radial_points_reject_bad_grids(radii):
    with pytest.raises(InvalidSpec):
        radial_points(radii, 2)


@pytest.mark.parametrize(
    "points, bandwidth",
    [
        (np.zeros((0, 1)), 0.1),  # no points
        (np.zeros(3), 0.1),  # a flat list is not a k x 1 array
        (np.zeros((3, 2)), 0.1),  # dimension mismatch
        ([[math.inf]], 0.1),
        ([[0.0]], 0.0),
        ([[0.0]], -0.3),
        ([[0.0]], math.nan),
        ([[0.0]], math.inf),
        ([[0.0]], None),  # the bandwidth has no default
    ],
    ids=["empty", "flat", "dim_mismatch", "inf_point", "zero_h", "negative_h", "nan_h", "inf_h",
         "no_h"],
)
def test_estimate_density_rejects_bad_arguments(points, bandwidth):
    batch = sample_gaussian(GaussianSpec(dimension=1, variance=1.0), MIN_KDE_SAMPLES, seed=20)
    with pytest.raises(InvalidSpec):
        estimate_density(batch, points, bandwidth)


# ---------------------------------------------------------------- estimates


# Each count is sized so that its tolerance is at least 5.84 times the largest
# reported stderr: 5.84 is the two-sided Bonferroni z over the test's
# 41 + 25 + 125 points at a family false-failure rate of 1e-6.  At 20k, 40k
# and 60k rows the tolerances were 2.1, 2.4 and 3.0 stderrs, and 7, 2 and 0
# of seeds 1,000-1,039 failed them at l = 1, 2, 3.
def test_estimator_matches_its_exact_expectation_per_dimension():
    cases = {
        1: (320_000, np.linspace(-2.0, 2.0, 41).reshape(-1, 1), 0.012),
        2: (580_000, None, 0.008),
        3: (600_000, None, 0.005),
    }
    for l, (count, pts, tol) in cases.items():
        if pts is None:
            g = np.linspace(-1.5, 1.5, 5)
            pts = np.stack(np.meshgrid(*([g] * l)), axis=-1).reshape(-1, l)
        batch = sample_gaussian(GaussianSpec(dimension=l, variance=1.0), count, seed=21)
        est = estimate_density(batch, pts, bandwidth=count ** (-1 / (l + 4)))
        assert tol >= 5.84 * est.stderr.max()
        truth = gaussian_density(l, 1.0 + est.bandwidth**2, np.linalg.norm(pts, axis=1))
        dev = np.abs(est.values - truth)
        assert dev.max() < tol
        # The reported standard errors explain the remaining noise.  Each point
        # exceeds z = 4 with probability 6.3e-5, so by the union bound over the
        # 191 points this check fails a correct estimator at most 1.2% of seeds.
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


# The ambient variance that smooths a 20-dimensional body at alpha = 10.
_V20 = ConvolutionSchedule(alpha=10.0).noise_variance(20)


@pytest.mark.parametrize(
    "l, body, points, bandwidth, kernel_variance",
    [
        (1, "gaussian", np.linspace(-2.0, 2.0, 41)[:, None], 60_000 ** (-1 / 5), None),
        (2, "cube", radial_points(np.linspace(0.0, 2.0, 9), 2), 60_000 ** (-1 / 6), None),
        (3, "simplex", radial_points(np.linspace(0.0, 1.5, 7), 3), 60_000 ** (-1 / 7), None),
        (2, "gaussian", [[0.3, -0.2]], 0.1, None),
        (1, "cube", np.linspace(-2.0, 2.0, 41)[:, None], smoothing_bandwidth(_V20), _V20),
        (2, "cube", radial_points(np.linspace(0.0, 2.0, 9), 2), smoothing_bandwidth(_V20), _V20),
    ],
    ids=["l1_scott", "l2_scott", "l3_scott", "l2_fixed", "l1_smoothed", "l2_smoothed"],
)
def test_binned_estimate_matches_the_direct_kernel_sum(l, body, points, bandwidth,
                                                        kernel_variance):
    # Projections of 20-dimensional bodies, as the pipelines estimate them.  Their
    # tails reach past the grid's 8h margin, so dropped rows are covered too.  A
    # smoothed estimate, binned at smoothing_bandwidth(v), is the kernel sum at
    # sqrt(v) to 0.006 of its stderr; binned at sqrt(v) itself it is up to 0.97
    # (l = 1) and 1.25 (l = 2) stderr off.
    basis = random_subspace(20, l, seed=22)
    batch = project_body(BodySpec(body, 20), 60_000, 23, basis)
    est = estimate_density(batch, points, bandwidth)
    h = est.bandwidth if kernel_variance is None else math.sqrt(kernel_variance)
    values, stderr = direct_kernel_sum(batch.data, est.points, h)
    assert np.all(np.abs(est.values - values) <= 0.1 * stderr)
    np.testing.assert_allclose(est.stderr, stderr, rtol=0.02)


def test_radial_grid_is_radius_major():
    batch = sample_gaussian(GaussianSpec(dimension=2, variance=1.0), 10_000, seed=24)
    est = estimate_density(batch, radial_points([0.0, 1.0], 2), bandwidth=10_000 ** (-1 / 6))
    assert est.points.shape == (2 * DIRECTIONS, 2)
    np.testing.assert_array_equal(est.points[:DIRECTIONS], np.zeros((DIRECTIONS, 2)))
    np.testing.assert_allclose(np.linalg.norm(est.points[DIRECTIONS:], axis=1), 1.0, atol=1e-14)
    # every copy of radius 0 sees the same kernel sum
    assert np.ptp(est.values[:DIRECTIONS]) == 0.0


def test_estimator_guards():
    small = sample_gaussian(GaussianSpec(dimension=1, variance=1.0), MIN_KDE_SAMPLES - 1, seed=25)
    with pytest.raises(TooFewSamples):
        estimate_density(small, [[0.0]], bandwidth=(MIN_KDE_SAMPLES - 1) ** (-1 / 5))

    wide = sample_gaussian(GaussianSpec(dimension=MAX_KDE_DIM + 1, variance=1.0), 20_000, seed=26)
    with pytest.raises(DimensionTooHigh):
        estimate_density(wide, np.zeros((1, MAX_KDE_DIM + 1)),
                         bandwidth=20_000 ** (-1 / (MAX_KDE_DIM + 5)))

    batch = sample_gaussian(GaussianSpec(dimension=2, variance=1.0), 20_000, seed=27)
    with pytest.raises(InvalidSpec):
        estimate_density(batch, np.zeros((3, 1)), bandwidth=20_000 ** (-1 / 6))  # dim mismatch


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
        estimate_density(batch, [[0.0, 0.0]], bandwidth=20_000 ** (-1 / 6))


def test_estimator_refuses_a_grid_larger_than_physical_memory():
    # About 1.6e5 nodes per axis; the check runs before anything grid-sized is allocated.
    batch = sample_gaussian(GaussianSpec(dimension=3, variance=1.0), MIN_KDE_SAMPLES, seed=31)
    points = radial_points(np.linspace(0.0, 2.0, 5), 3)
    with pytest.raises(RangeError, match="KDE grid at 80 points needs .* bytes of physical memory"):
        estimate_density(batch, points, bandwidth=1e-4)


def test_the_grid_guard_counts_the_kernel_factors(monkeypatch):
    # 2,000 points on [-1.5, 1.5] at h = 0.087 make a 203-node grid.  The grid and the
    # first contraction take 8 (203 + 2 * 2,000) = 33,624 bytes, under the 1 MiB of
    # memory patched in below; the stacked kernel factors and the three arrays that
    # build them take 8 * 5 * 2,000 * 203 = 16,240,000 bytes more, and are refused.
    batch = sample_gaussian(GaussianSpec(dimension=1, variance=1.0), MIN_KDE_SAMPLES, seed=32)
    points = np.linspace(-1.5, 1.5, 2_000)[:, None]
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(RangeError, match="a 203 KDE grid at 2000 points needs 16273624 bytes"):
        estimate_density(batch, points, bandwidth=0.087)


@pytest.mark.parametrize(
    "points, h, count",
    [(np.zeros((1, 3)), 0.01, MIN_KDE_SAMPLES),
     (radial_points(np.linspace(0.0, 0.1, 9), 3), 0.1, 200_000)],
    ids=["one_point", "radial_grid"],
)
def test_the_grid_guard_counts_at_least_the_measured_peak(points, h, count, monkeypatch):
    # Every row inside the grid, so each one is binned.  At the parent the guard
    # counted 2.27 and 16.7 MB here, where tracemalloc reads 5.60 and 30.3 MB.
    counted = []
    guard = projclt.density._require_memory
    monkeypatch.setattr(projclt.density, "_require_memory",
                        lambda what, need: (counted.append(need), guard(what, need)))
    lo, hi = points.min(axis=0) - 7 * h, points.max(axis=0) + 7 * h
    data = lo + (hi - lo) * np.random.default_rng(33).random((count, 3))
    batch = SampleBatch(data=data, seed=None, source={})
    tracemalloc.start()
    try:
        estimate_density(batch, points, bandwidth=h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted and counted[0] >= peak


def test_the_grid_guard_counts_the_binning_before_drawing(monkeypatch):
    # One l = 3 point at h = 0.01 makes a 65^3 grid: the contractions count about
    # 2.3 MB, the binning of 10,000 rows 5.8 MB; 4 MiB of memory lies between.
    def draw(*args, **kwargs):
        pytest.fail("a basis was drawn before the binning's memory was checked")

    monkeypatch.setattr(projclt.density, "random_subspace", draw)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1024}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    v = 1e-4 * (1.0 + projclt.density.BIN_SPACING**2 / 6.0)
    with pytest.raises(RangeError, match=r"KDE grid at 1 points needs 5\d{6} bytes"):
        smoothed_marginal(BodySpec("cube", _NOISE_N), MIN_KDE_SAMPLES, 1, 2, np.zeros((1, 3)), v)


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


def test_a_smoothed_cube_coordinate_projection_matches_its_exact_density():
    # Smoothed by N(0, v I_n) and projected onto e1, the isotropic cube at n = 8
    # is uniform * N(0, v) with v = v(8), in closed form; the estimate at
    # smoothing_bandwidth(v) has that expectation to its binning remainder.  Over
    # seeds 0-7 the worst |z| is 2.77, and the mean z lies in [-0.09, 0.07]
    # (in [-0.43, -0.26] binned at sqrt(v), whose worst |z| is 4.97).
    n, schedule = 8, ConvolutionSchedule(alpha=10.0)
    v = schedule.noise_variance(n)
    e1 = np.zeros((1, n))
    e1[0, 0] = 1.0
    batch = project_body(BodySpec("cube", n), 400_000, 1, SubspaceBasis(rows=e1))
    x = np.linspace(-2.5, 2.5, 31)
    est = estimate_density(batch, x[:, None], bandwidth=smoothing_bandwidth(v))
    z = (est.values - body_convolved_density_1d("uniform", x, v)) / est.stderr
    assert np.abs(z).max() <= _ORACLE_Z


# -------------------------------------------------------------- ratio report


@pytest.mark.parametrize(
    "count, message",
    [(-1, "count must be >= 1, got -1"), (0, "count must be >= 1, got 0"),
     (2.5, "count must be an integer, got 2.5"), (True, "count must be an integer, got True")],
)
def test_project_body_refuses_a_count_that_is_not_a_positive_integer(count, message):
    basis = random_subspace(4, 1, 2)
    with pytest.raises(InvalidSpec, match=message):
        project_body(BodySpec("cube", 4), count, 1, basis)


@pytest.mark.parametrize("threads", [1, 2])
def test_project_body_with_norms_reads_both_columns_from_one_draw(threads):
    # Several blocks, so the tiles' columns are stacked in order on both threads.
    spec, count = BodySpec("ball", 30), 3 * BLOCK + 17
    basis = random_subspace(30, 2, seed=40)
    projected, norms = project_body(spec, count, 41, basis, threads, with_norms=True)
    plain = project_body(spec, count, 41, basis, threads)
    assert projected.data.flags.c_contiguous
    assert projected.data.tobytes() == plain.data.tobytes()
    alone = sample_body(spec, count, 41, reduce=norm_column).data
    assert norms.data.shape == (count, 1)
    assert np.array_equal(norms.data, alone)


def test_project_body_with_norms_counts_the_norm_column(monkeypatch):
    # 1 MiB of memory holds the 15,000 x 4 projection (16 bytes a value, 960,000
    # bytes) but not the projection with its norm column (1,200,000 bytes).
    def draw(*args, **kwargs):
        pytest.fail("a sample was drawn before its memory was checked")

    monkeypatch.setattr(projclt.density, "sample_body", draw)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    basis = random_subspace(6, 4, seed=42)
    with pytest.raises(RangeError, match="a 15000 x 4 projection with its norms needs 1200000 "):
        project_body(BodySpec("cube", 6), 15_000, 1, basis, with_norms=True)


def test_ratio_to_gaussian_divides_by_the_reference():
    batch = sample_gaussian(GaussianSpec(dimension=1, variance=1.0), 20_000, seed=28)
    est = estimate_density(batch, np.linspace(-1.0, 1.0, 9).reshape(-1, 1),
                           bandwidth=20_000 ** (-1 / 5))
    rep = ratio_to_gaussian(est, 1.0, 1.0)
    ref = gaussian_density(1, 1.0, np.abs(np.linspace(-1.0, 1.0, 9)))
    np.testing.assert_allclose(rep.per_point_ratios, est.values / ref, rtol=1e-14)
    assert rep.meta["sample_count"] == 20_000
    assert rep.meta["bandwidth"] == est.bandwidth
    assert rep.meta["variance"] == 1.0


def test_ratio_to_gaussian_rejects_points_beyond_the_radius():
    batch = sample_gaussian(GaussianSpec(dimension=1, variance=1.0), 20_000, seed=29)
    est = estimate_density(batch, [[0.0], [1.5]], bandwidth=20_000 ** (-1 / 5))
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


# ----------------------------------------------- smoothing at the ambient variance
#
# Both smoothed pipelines estimate the projection smoothed in n dimensions,
# at the ambient variance v(n), not at v(l).  A moment test cannot tell the
# two apart at small n, so the reported variance and bandwidth are checked.

_NOISE_N = 8


@pytest.mark.parametrize("l", [1, 2])
def test_the_smoothed_pipelines_read_the_ambient_variance(l):
    schedule = ConvolutionSchedule(alpha=10.0)
    v = schedule.noise_variance(_NOISE_N)
    assert v != schedule.noise_variance(l)
    est, rep = projected_ratio(
        BodySpec("cube", _NOISE_N), MIN_KDE_SAMPLES, 11, l, 12, 2.0, 5, schedule=schedule,
    )
    assert (rep.meta["variance"], rep.meta["bandwidth"]) == (1.0 + v, smoothing_bandwidth(v))
    assert est.bandwidth == smoothing_bandwidth(v)
    mt = m_tilde_profile(
        BodySpec("cube", _NOISE_N), schedule, l=l, radii=np.array([0.0, 1.0]),
        subspace_count=2, samples_per_subspace=MIN_KDE_SAMPLES, seed=14,
    )
    assert (mt.meta["variance"], mt.meta["bandwidth"]) == (1.0 + v, smoothing_bandwidth(v))
    assert mt.meta["noise_variance"] == v


@pytest.mark.parametrize("l", [1, 2])
def test_the_unsmoothed_ratio_is_the_kernel_average_at_the_sample_size_variance(l):
    # Without a schedule, projected_ratio reads the projection smoothed at
    # v = N^(-2/(l+4)), Scott's h^2 at unit variance, against gamma_{l,1+v}.
    spec, count, max_radius = BodySpec("cube", _NOISE_N), MIN_KDE_SAMPLES, 2.0
    v = count ** (-2 / (l + 4))
    est, rep = projected_ratio(spec, count, 11, l, 12, max_radius, 5)
    assert rep.meta["variance"] == 1.0 + v
    assert est.bandwidth == smoothing_bandwidth(v)
    if l == 1:
        points = np.linspace(-max_radius, max_radius, 5)[:, None]
    else:
        points = radial_points(np.linspace(0.0, max_radius, 5), l)
    projected = project_body(spec, count, 11, random_subspace(_NOISE_N, l, 12))
    expected = ratio_to_gaussian(
        estimate_density(projected, points, smoothing_bandwidth(v)), 1.0 + v, max_radius
    )
    np.testing.assert_array_equal(rep.radius_grid, expected.radius_grid)
    np.testing.assert_array_equal(rep.per_point_ratios, expected.per_point_ratios)
    assert rep.meta == expected.meta


# ------------------------------------------------- the one smoothed-marginal step


@pytest.mark.parametrize("l", [1, 2])
def test_the_ratio_estimate_is_the_smoothed_marginal(l):
    spec, count, max_radius = BodySpec("simplex", _NOISE_N), MIN_KDE_SAMPLES + 7, 1.5
    schedule = ConvolutionSchedule(alpha=10.0)
    est, _ = projected_ratio(spec, count, 21, l, 22, max_radius, 5, schedule=schedule, threads=2)
    points = (np.linspace(-max_radius, max_radius, 5)[:, None] if l == 1
              else radial_points(np.linspace(0.0, max_radius, 5), l))
    expected = smoothed_marginal(spec, count, 21, 22, points, schedule.noise_variance(_NOISE_N))
    np.testing.assert_array_equal(est.points, expected.points)
    np.testing.assert_array_equal(est.values, expected.values)
    np.testing.assert_array_equal(est.stderr, expected.stderr)
    assert (est.bandwidth, est.sample_count) == (expected.bandwidth, expected.sample_count)


@pytest.mark.parametrize("l", [1, 2])
def test_one_subspace_m_tilde_is_the_direction_mean_of_the_smoothed_marginal(l):
    spec, schedule, radii = BodySpec("cube", _NOISE_N), ConvolutionSchedule(alpha=10.0), [0.0, 1.0]
    v = schedule.noise_variance(_NOISE_N)
    mt = m_tilde_profile(spec, schedule, l=l, radii=radii, subspace_count=1,
                         samples_per_subspace=MIN_KDE_SAMPLES, seed=31)
    (child,) = _seed_seq(31).spawn(1)
    est = smoothed_marginal(spec, MIN_KDE_SAMPLES, *body_and_basis_seeds(child),
                            radial_points(radii, l), v)
    expected = est.values.reshape(2, -1).mean(axis=1) / gaussian_density(l, 1.0 + v,
                                                                         np.array(radii))
    np.testing.assert_array_equal(mt.per_point_ratios, expected)
    assert mt.meta["bandwidth"] == est.bandwidth


@pytest.mark.parametrize(
    "points, count, v, error, message",
    [(np.zeros((3, 4)), MIN_KDE_SAMPLES, 0.5, DimensionTooHigh, "supports l <= 3, got l=4"),
     (np.zeros((3, 1)), MIN_KDE_SAMPLES - 1, 0.5, TooFewSamples, "needs >= 10000 samples"),
     (np.zeros((0, 1)), MIN_KDE_SAMPLES, 0.5, InvalidSpec, "must be a non-empty k x 1 array"),
     (np.zeros((3, 1)), MIN_KDE_SAMPLES, 0.0, InvalidSpec, "bandwidth must be positive"),
     (radial_points([0.0, 1e4], 3), MIN_KDE_SAMPLES, 0.5, RangeError,
      "KDE grid at 32 points needs .* bytes of physical memory"),
     ([[0.0], [1e300]], MIN_KDE_SAMPLES, 0.5, RangeError, "KDE grid at 2 points needs .* nodes")],
    ids=["l4", "few_samples", "no_points", "zero_bandwidth", "grid_memory", "grid_nodes"],
)
def test_the_smoothed_marginal_checks_its_size_before_drawing(points, count, v, error, message,
                                                              monkeypatch):
    def draw(*args, **kwargs):
        pytest.fail("a sample or a basis was drawn before the size was checked")

    monkeypatch.setattr(projclt.density, "random_subspace", draw)
    monkeypatch.setattr(projclt.density, "project_body", draw)
    with pytest.raises(error, match=message):
        smoothed_marginal(BodySpec("cube", _NOISE_N), count, 1, 2, points, v)
