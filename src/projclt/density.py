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
    norm_column,
    sample_body,
    sample_gaussian,  # no caller here; the benchmark's tracer looks it up at this module
)
from .spherical import gaussian_density

MAX_KDE_DIM = 3
MIN_KDE_SAMPLES = 10_000
# Unit directions per radius of an l >= 2 evaluation grid (radial_points).
DIRECTIONS = 16
# Binning grid: node spacing, and reach past the evaluation points, in bandwidths.
BIN_SPACING = 0.25
GRID_MARGIN = 8.0


def radial_points(radii, l: int) -> np.ndarray:
    """The points t*u over ``radii`` and a fixed set of unit directions u in R^l.

    Radius-major: all directions of radii[0], then radii[1], ...  The
    directions are, for l=1, the two signs; for l=2, ``DIRECTIONS`` equally
    spaced points on the circle; for l=3, a Fibonacci-lattice covering of
    the sphere with ``DIRECTIONS`` points; l > ``MAX_KDE_DIM`` is refused.
    """
    radii = _as_nonnegative_array(_as_float_array(radii, "radii", 1), "radii")
    l = _as_positive_int(l, "l")
    k = np.arange(DIRECTIONS)
    if l == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif l == 2:
        angles = 2.0 * math.pi * k / DIRECTIONS
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    elif l == 3:
        z = 1.0 - (2.0 * k + 1.0) / DIRECTIONS
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        golden = math.pi * (3.0 - math.sqrt(5.0))
        dirs = np.column_stack([rho * np.cos(golden * k), rho * np.sin(golden * k), z])
    else:
        raise DimensionTooHigh(f"density estimation supports l <= {MAX_KDE_DIM}, got l={l}")
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


def _kde_grid(count: int, points: np.ndarray, bandwidth) -> tuple:
    """The bandwidth and binning grid ``(h, lo, delta, shape)`` of ``count`` rows at ``points``.

    It checks every size rule of an estimate at the (k, l) ``points``: l <= ``MAX_KDE_DIM``,
    ``count`` >= ``MIN_KDE_SAMPLES``, k >= 1, h > 0 and the memory of the binning and the
    contractions.
    """
    k, l = points.shape
    if l > MAX_KDE_DIM:
        raise DimensionTooHigh(f"density estimation supports l <= {MAX_KDE_DIM}, got l={l}")
    if count < MIN_KDE_SAMPLES:
        raise TooFewSamples(f"density estimation needs >= {MIN_KDE_SAMPLES} samples, got {count}")
    if points.size == 0:
        raise InvalidSpec(f"evaluation points must be a non-empty k x {l} array, got {points.shape}")
    h = _as_positive_float(bandwidth, "bandwidth")
    delta = BIN_SPACING * h
    lo = points.min(axis=0) - GRID_MARGIN * h
    span = points.max(axis=0) + GRID_MARGIN * h - lo
    if not np.all(span / delta < 2.0**53):
        raise RangeError(f"a KDE grid at {k} points needs {np.max(span / delta):.3g} nodes on an axis")
    shape = tuple(math.ceil(w / delta) + 1 for w in span)
    # The counts, and beside them first the binning (one np.bincount output and 4l + 5
    # doubles per row of a _linear_bin block), then the contractions: the first (2k x
    # cells / M_1), and per axis the stacked 2k x M_a kernel factors and their 3 k x M_a inputs.
    cells = math.prod(shape)
    binning = cells + (4 * l + 5) * min(count, max(BLOCK, cells))
    _require_memory(
        f"a {' x '.join(map(str, shape))} KDE grid at {k} points",
        8 * (cells + max(binning, 2 * k * (cells // shape[0]) + 5 * k * sum(shape))),
    )
    return h, lo, delta, shape


def estimate_density(projected: SampleBatch, points, bandwidth: float) -> DensityEstimate:
    """Gaussian-kernel density estimate of a batch at the (k, l) ``points``, by linear binning.

    ``bandwidth`` is the kernel bandwidth h > 0.  On projected samples the
    binned values stay within 0.04 of the stderr of the direct pair sum.  A
    density with a jump bins worse: at l = n (the raw square, ``ratio --n 2
    --l 2``) the gap reaches 0.36 of the stderr at the square's edges.
    """
    l = projected.dimension
    count = projected.count
    pts = _as_float_array(points, "points", 2)
    if pts.shape[1] != l:
        raise InvalidSpec(f"evaluation points must be a non-empty k x {l} array, got {pts.shape}")
    h, lo, delta, shape = _kde_grid(count, pts, bandwidth)
    data = projected.data
    _require_finite(data, f"the {count} x {l} batch to estimate")
    counts = _linear_bin(data, lo, delta, shape)

    # Per axis, the 1-d kernel and its square at every (point, node) pair, stacked
    # so that one chain of contractions yields both sums.
    factors = []
    for a, m in enumerate(shape):
        z = (pts[:, a, None] - (lo[a] + delta * np.arange(m))) / h
        kernel = np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * h)
        factors.append(np.vstack([kernel, kernel * kernel]))
    sums = np.einsum("ij,jr->ir", factors[0], counts.reshape(shape[0], -1))
    k = pts.shape[0]
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


def project_body(spec: BodySpec, count: int, seed, basis, threads: int = 1,
                 with_norms: bool = False):
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

    ``with_norms`` returns ``(projection, norms)``, where ``norms`` is the
    (count, 1) column of the sample's euclidean norms (``norm_column``),
    which each tile's reducer appends to its projection: one draw serves
    the projection and the thin-shell fraction.  The memory check then
    counts l + 1 columns.
    """
    count, l = _as_positive_int(count, "count"), basis.subspace_dim
    what = f"a {count} x {l} projection" + (" with its norms" if with_norms else "")
    _require_memory(what, 16 * count * (l + 1 if with_norms else l))

    def reduce(tile):
        coords = project(SampleBatch(data=tile, seed=None, source={}), basis).data
        return np.hstack((coords, norm_column(tile))) if with_norms else coords

    batch = sample_body(spec, count, seed, threads=threads, reduce=reduce)
    if not with_norms:
        return batch
    coords, norms = np.ascontiguousarray(batch.data[:, :l]), batch.data[:, l:]
    return (SampleBatch(data=coords, seed=batch.seed, source=batch.source),
            SampleBatch(data=norms, seed=batch.seed, source=batch.source))


def smoothed_marginal(spec: BodySpec, count: int, body_seed, basis_seed, points, v: float,
                      threads: int = 1, with_norms: bool = False):
    """The density of a body, smoothed at variance v and projected on a Haar subspace, at ``points``.

    The subspace, of the dimension l of the (k, l) ``points``, is drawn from
    ``basis_seed``; ``count`` samples of ``spec`` from ``body_seed`` are
    projected onto it tile by tile (:func:`project_body`) and
    kernel-averaged at ``smoothing_bandwidth(v)``: the density of P(X + Y),
    Y ~ N(0, v I_n), with no noise drawn.  Every size rule of the estimate is
    checked before the subspace or the sample is drawn.  ``with_norms``
    returns ``(estimate, norms)``, the norms of the same sample
    (:func:`project_body`).
    """
    pts, h = _as_float_array(points, "points", 2), smoothing_bandwidth(v)
    _kde_grid(count, pts, h)
    basis = random_subspace(spec.dimension, pts.shape[1], basis_seed)
    if not with_norms:
        return estimate_density(project_body(spec, count, body_seed, basis, threads), pts, h)
    projected, norms = project_body(spec, count, body_seed, basis, threads, with_norms=True)
    return estimate_density(projected, pts, h), norms


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
    subspace_count = _as_positive_int(subspace_count, "subspace_count")
    points = radial_points(radii, l)
    l = points.shape[1]
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
            "seed": _seed_jsonable(seed),
        },
    )
