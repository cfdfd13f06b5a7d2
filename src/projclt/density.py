"""Pointwise density estimation of projected samples and gaussian comparison.

The estimator is a gaussian-product-kernel KDE evaluated by linear binning
(Silverman 1982, AS 176; Wand 1994).  The sample is binned onto a tensor grid
of spacing h/4 that covers the evaluation points' bounding box widened by 8h
on each side: each row splits its unit weight among the 2^l nodes of its
cell, linearly in each coordinate.  The kernel sum at a point is then the
grid counts contracted with the separable kernel, one axis at a time, and
the same contractions with the squared kernel give the per-point second
moment and so the standard error.  Rows outside the grid still count in N;
each would add less than e^(-32) of the peak kernel value.  Dimension is
capped at 3 and the sample floor is 10^4 — beyond that the KDE
bias/variance would no longer sit below the tolerances the experiment suite
asserts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooHigh, InvalidSpec, RangeError, TooFewSamples
from .model import (
    BodySpec,
    ConvolutionSchedule,
    DensityEstimate,
    GaussianSpec,
    RatioReport,
    _as_float_array,
    _as_positive_int,
    _freeze,
    register,
)
from .grassmann import project, random_subspace
from .samplers import (
    SampleBatch,
    _require_memory,
    _seed_jsonable,
    _seed_seq,
    sample_body,
    sample_gaussian,
)
from .spherical import gaussian_density

MAX_KDE_DIM = 3
MIN_KDE_SAMPLES = 10_000
# Binning grid: node spacing, and reach past the evaluation points, in bandwidths.
BIN_SPACING = 0.25
GRID_MARGIN = 8.0


@register("kde_config")
@dataclass(frozen=True, eq=False)
class KdeConfig:
    """Bandwidth rule and evaluation grid for the density estimator.

    Exactly one grid style must be given: explicit ``points`` (k x l), or a
    radial grid (``radii`` plus ``direction_count`` unit directions per
    radius).  ``bandwidth_rule`` is "scott" (bandwidth sigma_hat * N^(-1/(l+4)))
    or "fixed" (bandwidth given explicitly).
    """

    bandwidth_rule: str = "scott"
    bandwidth: float | None = None
    points: np.ndarray | None = None
    radii: np.ndarray | None = None
    direction_count: int = 16

    def __post_init__(self):
        if self.bandwidth_rule not in ("scott", "fixed"):
            raise InvalidSpec(f"bandwidth_rule must be 'scott' or 'fixed', got {self.bandwidth_rule!r}")
        if self.bandwidth_rule == "fixed":
            if self.bandwidth is None or not (float(self.bandwidth) > 0):
                raise InvalidSpec("fixed bandwidth_rule needs bandwidth > 0")
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
        elif self.bandwidth is not None:
            raise InvalidSpec("bandwidth is only meaningful with bandwidth_rule='fixed'")
        if (self.points is None) == (self.radii is None):
            raise InvalidSpec("exactly one of points / radii must be given")
        if self.points is not None:
            pts = np.asarray(self.points, dtype=np.float64)
            if pts.ndim == 1:
                pts = pts[:, None]
            object.__setattr__(self, "points", _freeze(_as_float_array(pts, "points", 2)))
        else:
            radii = _freeze(_as_float_array(self.radii, "radii", 1))
            if np.any(radii < 0):
                raise InvalidSpec("radii must be nonnegative")
            object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "direction_count", _as_positive_int(self.direction_count, "direction_count"))


def unit_directions(l: int, count: int) -> np.ndarray:
    """A fixed, deterministic set of unit vectors in R^l for radial averaging.

    l=1: the two signs.  l=2: equally spaced points on the circle.  l=3: a
    Fibonacci-lattice covering of the sphere.
    """
    if l == 1:
        return np.array([[1.0], [-1.0]])
    if l == 2:
        angles = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if l == 3:
        k = np.arange(count)
        z = 1.0 - (2.0 * k + 1.0) / count
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        golden = math.pi * (3.0 - math.sqrt(5.0))
        return np.column_stack([rho * np.cos(golden * k), rho * np.sin(golden * k), z])
    raise DimensionTooHigh(f"radial direction sets are defined for l <= 3, got l={l}")


def _radial_points(radii: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Points t*u laid out radius-major: all directions of radii[0], then radii[1], ..."""
    return (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dirs.shape[1])


def scott_bandwidth(data: np.ndarray) -> float:
    """Scott's rule: sqrt(mean per-coordinate variance) * N^(-1/(l+4))."""
    count, l = data.shape
    sigma = math.sqrt(float(np.mean(np.var(data, axis=0))))
    if sigma == 0.0:
        sigma = 1.0  # degenerate sample; any positive bandwidth is as good as another
    return sigma * count ** (-1.0 / (l + 4))


def _linear_bin(data: np.ndarray, lo: np.ndarray, delta: float, shape: tuple) -> np.ndarray:
    """Linear-binning counts of ``data`` on the nodes ``lo + delta * j``, ``j < shape``.

    Each row inside the grid splits its unit weight among the 2^l nodes of its
    cell, linearly in each coordinate; rows outside the grid are dropped.
    """
    l = data.shape[1]
    u = (data - lo) / delta
    inside = np.all((u >= 0.0) & (u < np.array(shape) - 1), axis=1)
    u = u[inside]
    cell = np.floor(u).astype(np.intp)
    frac = u - cell
    sides = (1.0 - frac, frac)
    strides = np.array([math.prod(shape[a + 1 :]) for a in range(l)], dtype=np.intp)
    base = cell @ strides
    counts = np.zeros(math.prod(shape))
    for corner in itertools.product((0, 1), repeat=l):
        weight = math.prod(sides[c][:, a] for a, c in enumerate(corner))
        index = base + np.dot(corner, strides)
        counts += np.bincount(index, weights=weight, minlength=counts.size)
    return counts.reshape(shape)


def estimate_density(projected: SampleBatch, config: KdeConfig) -> DensityEstimate:
    """Gaussian-kernel density estimate of a batch at the configured grid, by linear binning."""
    l = projected.dimension
    if l > MAX_KDE_DIM:
        raise DimensionTooHigh(f"density estimation supports l <= {MAX_KDE_DIM}, got l={l}")
    count = projected.count
    if count < MIN_KDE_SAMPLES:
        raise TooFewSamples(f"density estimation needs >= {MIN_KDE_SAMPLES} samples, got {count}")
    data = projected.data
    # min and max propagate NaN and reach any infinity with no full-size temporary.
    if not (math.isfinite(data.min()) and math.isfinite(data.max())):
        raise InvalidSpec(f"the {count} x {l} batch to estimate holds non-finite values")

    if config.points is not None:
        pts = config.points
        if pts.shape[1] != l:
            raise InvalidSpec(f"evaluation points have dimension {pts.shape[1]}, batch has {l}")
    else:
        pts = _radial_points(config.radii, unit_directions(l, config.direction_count))

    h = config.bandwidth if config.bandwidth_rule == "fixed" else scott_bandwidth(data)
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
    sums = factors[0] @ counts.reshape(shape[0], -1)
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
    max_radius = float(max_radius)
    if not (max_radius > 0 and math.isfinite(max_radius)):
        raise RangeError(f"max_radius must be positive, got {max_radius!r}")
    norms = np.linalg.norm(estimate.points, axis=1)
    if np.any(norms > max_radius * (1.0 + 1e-12)):
        raise RangeError(
            f"evaluation points reach radius {norms.max():.6g} > max_radius {max_radius:.6g}"
        )
    ref = gaussian_density(estimate.dim, v, norms)
    return RatioReport.from_ratios(
        norms,
        estimate.values / ref,
        meta={
            "variance": float(v),
            "max_radius": max_radius,
            "bandwidth": estimate.bandwidth,
            "sample_count": estimate.sample_count,
        },
    )


def project_body(spec: BodySpec, count: int, seed, basis, threads: int = 1) -> SampleBatch:
    """Draw ``count`` body samples and project them onto ``basis`` block by block.

    The (count, l) result holds the values of
    ``project(sample_body(spec, count, seed), basis)`` bit for bit while only
    one (BLOCK, n) block of the batch per thread is held.  ``project`` takes
    every product at the block height, and the projection here is row-wise,
    so each block, a short last one too, is projected at the full block
    height.  Each block goes through this module's ``project``, where the
    benchmark's tracer finds it, so the tracer counts one projection per
    block.
    """
    return sample_body(
        spec, count, seed, threads=threads, rowwise=True,
        reduce=lambda block: project(SampleBatch(data=block, seed=None, source={}), basis).data,
    )


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

    For each of ``subspace_count`` independent Haar subspaces: draw a fresh
    body sample and project it block by block (:func:`project_body`), add
    unrescaled l-dim gaussian noise of the schedule's variance v(n), and
    KDE-evaluate at every radius (averaged over a fixed set of unit
    directions).  This equals in law adding n-dim noise before projecting,
    because for an orthonormal l x n frame P the projected noise P y is
    exactly N(0, v I_l).  The subspace-averaged values are
    divided by the gaussian density of variance 1 + v, which is the exact law
    the smoothed projection approaches; the profile is reported as ratios
    against radius.
    """
    l = _as_positive_int(l, "l")
    if l > MAX_KDE_DIM:
        raise DimensionTooHigh(f"m_tilde_profile supports l <= {MAX_KDE_DIM}, got l={l}")
    subspace_count = _as_positive_int(subspace_count, "subspace_count")
    radii = _as_float_array(radii, "radii", 1)
    if np.any(radii < 0):
        raise InvalidSpec("radii must be nonnegative")
    n = body.dimension
    v = schedule.noise_variance(n)
    noise = GaussianSpec(dimension=l, variance=v)
    dirs = unit_directions(l, direction_count)
    cfg = KdeConfig(radii=radii, direction_count=direction_count)

    root = _seed_seq(seed)
    accum = np.zeros(radii.size)
    for child in root.spawn(subspace_count):
        body_seed, noise_seed, basis_seed = child.spawn(3)
        basis = random_subspace(n, l, basis_seed)
        projected = project_body(body, samples_per_subspace, body_seed, basis, threads)
        y = sample_gaussian(noise, samples_per_subspace, noise_seed, threads=threads)
        smoothed = SampleBatch(
            data=projected.data + y.data,
            seed=_seed_jsonable(child),
            source={"draw": "smoothed", "of": projected.source, "noise_variance": v},
        )
        del projected, y
        est = estimate_density(smoothed, cfg)
        del smoothed
        accum += est.values.reshape(radii.size, dirs.shape[0]).mean(axis=1)

    profile = (accum / subspace_count) / gaussian_density(l, 1.0 + v, radii)
    return RatioReport.from_ratios(
        radii,
        profile,
        meta={
            "body": body.to_jsonable(),
            "schedule": schedule.to_jsonable(),
            "l": l,
            "noise_variance": v,
            "subspace_count": subspace_count,
            "samples_per_subspace": samples_per_subspace,
            "direction_count": direction_count,
            "seed": _seed_jsonable(seed),
        },
    )
