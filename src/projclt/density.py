"""Pointwise density estimation of projected samples and gaussian comparison.

The estimator is a gaussian-product-kernel KDE evaluated by linear binning
(Silverman 1982, AS 176; Wand 1994).  The sample is binned onto a tensor grid
of spacing h/4 that covers the evaluation points' bounding box widened by 8h
on each side: each row splits its unit weight among the 2^l nodes of its
cell, linearly in each coordinate.  The kernel sum at a point is then the
grid counts contracted with the separable kernel, one axis at a time, and
the same contractions with the squared kernel give the per-point second
moment and so the standard error.  Rows outside the grid still count in N;
each would add less than e^(-32) of the peak kernel value.  Every
contraction is numpy's own loop (``einsum``), never a BLAS call, so the
estimate wakes no BLAS thread beside the samplers' worker threads.
Dimension is capped at 3 and the sample floor is 10^4 — beyond that the KDE
bias/variance would no longer sit below the tolerances the experiment suite
asserts.

Every pipeline reads a smoothed density and draws no noise: for an
orthonormal l x n frame P and Y ~ N(0, v I_n) the density of P(X + Y) at x is
exactly E gamma_{l,v}(x - PX), a kernel average of PX at sqrt(v)
(:func:`smoothing_bandwidth` corrects it for binning), read against
gamma_{l,1+v} at unrescaled points.  :func:`smoothed_marginal` is the one
sample -> project -> kernel-average step: ``ratio``, ``scan`` and ``mtilde``
all read their estimates from it, and ``cli.projected_ratio`` without a
schedule takes v = N^(-2/(l+4)).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionTooHigh, InvalidSpec, RangeError, TooFewSamples
from .model import (
    BodySpec,
    ConvolutionSchedule,
    DensityEstimate,
    RatioReport,
    _as_float_array,
    _as_nonnegative_array,
    _as_positive_float,
    _as_positive_int,
    _require_finite,
)
from .grassmann import project, random_subspace
from .samplers import (
    BLOCK,
    SampleBatch,
    _require_memory,
    _seed_jsonable,
    _seed_seq,
    sample_body,
    sample_gaussian,  # no caller here; the benchmark's tracer looks it up at this module
)
from .spherical import gaussian_density

MAX_KDE_DIM = 3
MIN_KDE_SAMPLES = 10_000
# Binning grid: node spacing, and reach past the evaluation points, in bandwidths.
BIN_SPACING = 0.25
GRID_MARGIN = 8.0


def radial_points(radii, l: int, direction_count: int = 16) -> np.ndarray:
    """The points t*u over ``radii`` and a fixed set of unit directions u in R^l.

    Radius-major: all directions of radii[0], then radii[1], ...  The
    directions are, for l=1, the two signs; for l=2, ``direction_count``
    equally spaced points on the circle; for l=3, a Fibonacci-lattice
    covering of the sphere with ``direction_count`` points.  At l=1
    ``direction_count`` is neither used nor checked.
    """
    radii = _as_nonnegative_array(_as_float_array(radii, "radii", 1), "radii")
    l = _as_positive_int(l, "l")
    if l != 1:
        count = _as_positive_int(direction_count, "direction_count")
    if l == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif l == 2:
        angles = 2.0 * math.pi * np.arange(count) / count
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    elif l == 3:
        k = np.arange(count)
        z = 1.0 - (2.0 * k + 1.0) / count
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        golden = math.pi * (3.0 - math.sqrt(5.0))
        dirs = np.column_stack([rho * np.cos(golden * k), rho * np.sin(golden * k), z])
    else:
        raise DimensionTooHigh(f"radial points are defined for l <= 3, got l={l}")
    return (radii[:, None, None] * dirs[None, :, :]).reshape(-1, l)


def smoothing_bandwidth(v: float) -> float:
    """The binned estimate's bandwidth h for a kernel average at variance v.

    Linear binning keeps each row's mean and adds f(1 - f) delta^2 of variance
    per axis at fraction f of a cell, delta^2 / 6 on average; with delta =
    BIN_SPACING * h that is h^2 / 96, so h^2 (1 + 1/96) = v.
    """
    return math.sqrt(v / (1.0 + BIN_SPACING**2 / 6.0))


def _linear_bin(data: np.ndarray, lo: np.ndarray, delta: float, shape: tuple) -> np.ndarray:
    """Linear-binning counts of ``data`` on the nodes ``lo + delta * j``, ``j < shape``.

    Each row inside the grid splits its unit weight among the 2^l nodes of its
    cell, linearly in each coordinate; rows outside the grid are dropped.
    The rows are binned in blocks of ``BLOCK`` rows, or of as many rows as
    the grid has cells if that is more, so the per-row temporaries stay
    within the larger of a block and the grid while each block's counts
    cost no more than its rows.
    """
    l = data.shape[1]
    strides = np.array([math.prod(shape[a + 1 :]) for a in range(l)], dtype=np.intp)
    top = np.array(shape) - 1
    counts = np.zeros(math.prod(shape))
    height = max(BLOCK, counts.size)
    for start in range(0, data.shape[0], height):
        u = (data[start : start + height] - lo) / delta
        u = u[np.all((u >= 0.0) & (u < top), axis=1)]
        cell = np.floor(u).astype(np.intp)
        frac = u - cell
        sides = (1.0 - frac, frac)
        base = cell @ strides
        for corner in itertools.product((0, 1), repeat=l):
            weight = math.prod(sides[c][:, a] for a, c in enumerate(corner))
            index = base + np.dot(corner, strides)
            counts += np.bincount(index, weights=weight, minlength=counts.size)
    return counts.reshape(shape)


def check_kde_size(count: int, l: int) -> None:
    """Refuse a count x l batch that ``estimate_density`` cannot take.

    Callers that draw their own sample check its size here first, so a bad
    size fails before anything is drawn.
    """
    if l > MAX_KDE_DIM:
        raise DimensionTooHigh(f"density estimation supports l <= {MAX_KDE_DIM}, got l={l}")
    if count < MIN_KDE_SAMPLES:
        raise TooFewSamples(f"density estimation needs >= {MIN_KDE_SAMPLES} samples, got {count}")


def estimate_density(projected: SampleBatch, points, bandwidth: float) -> DensityEstimate:
    """Gaussian-kernel density estimate of a batch at the (k, l) ``points``, by linear binning.

    ``bandwidth`` is the kernel bandwidth h > 0.  On projected samples the
    binned values stay within 0.04 of the stderr of the direct pair sum.  A
    density with a jump bins worse: at l = n (the raw square, ``ratio --n 2
    --l 2``) the gap reaches 0.36 of the stderr at the square's edges.
    """
    l = projected.dimension
    count = projected.count
    check_kde_size(count, l)
    pts = _as_float_array(points, "points", 2)
    if pts.shape[0] == 0 or pts.shape[1] != l:
        raise InvalidSpec(f"evaluation points must be a non-empty k x {l} array, got {pts.shape}")
    h = _as_positive_float(bandwidth, "bandwidth")
    data = projected.data
    _require_finite(data, f"the {count} x {l} batch to estimate")

    delta = BIN_SPACING * h
    lo = pts.min(axis=0) - GRID_MARGIN * h
    span = pts.max(axis=0) + GRID_MARGIN * h - lo
    shape = tuple(math.ceil(w / delta) + 1 for w in span)
    k = pts.shape[0]
    # The grid and the first contraction, 2k x (cells / M_1), are the largest arrays.
    cells = math.prod(shape)
    _require_memory(
        f"a {' x '.join(map(str, shape))} KDE grid at {k} points",
        8 * (cells + 2 * k * (cells // shape[0])),
    )
    counts = _linear_bin(data, lo, delta, shape)

    # Per axis, the 1-d kernel and its square at every (point, node) pair, stacked
    # so that one chain of contractions yields both sums.
    factors = []
    for a, m in enumerate(shape):
        z = (pts[:, a, None] - (lo[a] + delta * np.arange(m))) / h
        kernel = np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * h)
        factors.append(np.vstack([kernel, kernel * kernel]))
    sums = np.einsum("ij,jr->ir", factors[0], counts.reshape(shape[0], -1))
    for a in range(1, l):
        sums = np.einsum("ij,ijr->ir", factors[a], sums.reshape(2 * k, shape[a], -1))
    sums = sums.ravel()

    values = sums[:k] / count
    var = np.clip(sums[k:] / count - values * values, 0.0, None)
    stderr = np.sqrt(var / count)
    return DensityEstimate(
        points=pts, values=values, stderr=stderr, sample_count=count, bandwidth=h
    )


def ratio_to_gaussian(estimate: DensityEstimate, v: float, max_radius: float) -> RatioReport:
    """Per-point estimate / gaussian_l[v] ratios over |x| <= max_radius."""
    max_radius = _as_positive_float(max_radius, "max_radius", RangeError)
    norms = np.linalg.norm(estimate.points, axis=1)
    if np.any(norms > max_radius * (1.0 + 1e-12)):
        raise RangeError(
            f"evaluation points reach radius {norms.max():.6g} > max_radius {max_radius:.6g}"
        )
    ref = gaussian_density(estimate.dim, v, norms)
    return RatioReport(
        radius_grid=norms,
        per_point_ratios=estimate.values / ref,
        meta={
            "variance": float(v),
            "max_radius": max_radius,
            "bandwidth": estimate.bandwidth,
            "sample_count": estimate.sample_count,
        },
    )


def project_body(spec: BodySpec, count: int, seed, basis, threads: int = 1) -> SampleBatch:
    """Draw ``count`` body samples and project them onto ``basis`` tile by tile.

    The (count, l) result holds the values of
    ``project(sample_body(spec, count, seed), basis)`` bit for bit while only
    one tile of the batch per thread is held, at most ``samplers.TILE_BYTES``:
    ``project`` rounds each row of a row-major batch alike at any height.
    The tiles' projections are stacked into the result, 16 count l bytes
    at once.  Each tile goes through this module's ``project``, where the
    benchmark's tracer finds it.  A ``count`` that is not a positive integer
    is refused with ``InvalidSpec``, and projections larger than physical
    memory with ``RangeError``, before anything is drawn.
    """
    count, l = _as_positive_int(count, "count"), basis.subspace_dim
    _require_memory(f"a {count} x {l} projection", 16 * count * l)
    return sample_body(spec, count, seed, threads=threads, reduce=lambda tile: project(
        SampleBatch(data=tile, seed=None, source={}), basis).data)


def smoothed_marginal(spec: BodySpec, count: int, body_seed, basis_seed, points, v: float,
                      threads: int = 1) -> DensityEstimate:
    """The density of a body, smoothed at variance v and projected on a Haar subspace, at ``points``.

    The subspace, of the dimension l of the (k, l) ``points``, is drawn from
    ``basis_seed``; ``count`` samples of ``spec`` from ``body_seed`` are
    projected onto it tile by tile (:func:`project_body`) and
    kernel-averaged at ``smoothing_bandwidth(v)``: the density of P(X + Y),
    Y ~ N(0, v I_n), with no noise drawn.  The size is checked first.
    """
    pts = _as_float_array(points, "points", 2)
    check_kde_size(count, pts.shape[1])
    basis = random_subspace(spec.dimension, pts.shape[1], basis_seed)
    return estimate_density(project_body(spec, count, body_seed, basis, threads), pts,
                            smoothing_bandwidth(v))


def body_and_basis_seeds(seed) -> tuple:
    """The first and third of three children of ``seed``, for a body sample and its basis.

    The middle child, schema 6's noise seed, stays unused to keep schema 6's samples and bases.
    """
    body_seed, _, basis_seed = _seed_seq(seed).spawn(3)
    return body_seed, basis_seed


def m_tilde_profile(
    body: BodySpec,
    schedule: ConvolutionSchedule,
    l: int,
    radii,
    subspace_count: int,
    samples_per_subspace: int,
    seed,
    direction_count: int = 16,
    threads: int = 1,
) -> RatioReport:
    """Rotation-averaged radial profile of the smoothed projected density.

    For each of ``subspace_count`` children of ``seed``, the
    :func:`smoothed_marginal` of a fresh body sample on a fresh Haar subspace
    (seeded by :func:`body_and_basis_seeds` of the child), at v = v(n) the
    schedule's ambient variance, is averaged over a fixed set of unit
    directions at every radius.  The subspace-averaged values are divided by
    the gaussian density of variance 1 + v, the exact law the smoothed
    projection approaches.
    """
    l = _as_positive_int(l, "l")
    subspace_count = _as_positive_int(subspace_count, "subspace_count")
    check_kde_size(samples_per_subspace, l)
    points = radial_points(radii, l, direction_count)
    radii = np.asarray(radii, dtype=np.float64)
    v = schedule.noise_variance(body.dimension)

    accum = np.zeros(radii.size)
    for child in _seed_seq(seed).spawn(subspace_count):
        # The projection is released before the next subspace draws its own.
        est = smoothed_marginal(body, samples_per_subspace, *body_and_basis_seeds(child), points,
                                v, threads)
        accum += est.values.reshape(radii.size, -1).mean(axis=1)

    profile = (accum / subspace_count) / gaussian_density(l, 1.0 + v, radii)
    return RatioReport(
        radius_grid=radii,
        per_point_ratios=profile,
        meta={
            "body": body.to_jsonable(),
            "schedule": schedule.to_jsonable(),
            "l": l,
            "noise_variance": v,
            "variance": 1.0 + v,
            "bandwidth": est.bandwidth,
            "subspace_count": subspace_count,
            "samples_per_subspace": samples_per_subspace,
            **({"direction_count": direction_count} if l > 1 else {}),
            "seed": _seed_jsonable(seed),
        },
    )
