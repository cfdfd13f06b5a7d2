"""Certificate arithmetic and empirical checks for the deconvolution sandwich.

The sandwich statement: if a 1-d density f, convolved with gaussian noise of
variance alpha, stays within a factor 1 +/- epsilon of the gaussian of
variance 1 + alpha out to radius R, then f itself is pinched between
(1 - 6 epsilon) and (1 + 8 epsilon) times the standard gaussian on certified
(smaller) radii — provided the parameters pass an admissibility gate tying
alpha, epsilon, beta and n together.

``check_conditions`` is the gate; ``grid_convolve`` is a mass-preserving
discrete gaussian convolution for moderate alpha, done per axis with real
FFTs; ``verify_sandwich`` runs the full implication on a catalog of
closed-form 1-d log-concave densities, as whole-array margins.
At admissible noise levels (alpha around 1e-21 and below) no affordable grid
can resolve the kernel, so the convolved densities come from closed forms:
the gaussian family is closed under convolution, the uniform convolution is a
difference of normal CDFs, and the two-sided exponential has an exact
erfc-based formula.  ``grid_convolve`` cross-validates those closed forms at
moderate alpha, where both routes are available.  scipy is imported only
inside ``body_convolved_density_1d``, so importing this module loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, InvalidSpec, RangeError
from .model import NESTED, DeconvCertificate, _as_positive_int, register
from .spherical import gaussian_density

_LAPLACE_SCALE = 1.0 / math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

BODIES_1D = ("gaussian", "gaussian_deflated", "uniform", "laplace")


@register("deconv_params")
@dataclass(frozen=True)
class DeconvParams:
    """Inputs to the sandwich gate.

    ``alpha`` is the gaussian noise variance, ``epsilon`` the allowed relative
    deviation of the convolved density from its gaussian, ``hypothesis_radius``
    (R) the radius out to which that deviation is hypothesized, ``beta`` the
    exponent shaping the certified radius (2n)^beta, and ``c0`` the free gate
    constant in (0, 1) bounding alpha by c0 * n^-8.
    """

    n: int
    alpha: float
    beta: float
    epsilon: float
    hypothesis_radius: float
    c0: float = 1e-2

    def __post_init__(self):
        object.__setattr__(self, "n", _as_positive_int(self.n, "n"))
        for name in ("alpha", "beta", "epsilon", "hypothesis_radius", "c0"):
            val = float(getattr(self, name))
            if not (val > 0 and math.isfinite(val)):
                raise InvalidSpec(f"{name} must be positive and finite, got {val!r}")
            object.__setattr__(self, name, val)
        if not self.c0 < 1.0:
            raise InvalidSpec(f"c0 must lie in (0, 1), got {self.c0!r}")


# The sandwich matrix: the first four rows pass the gate, the last two exercise
# the inadmissible paths (alpha too large, epsilon out of its window).
SANDWICH_MATRIX = (
    DeconvParams(n=2, alpha=1e-24, beta=0.5, epsilon=0.005, hypothesis_radius=3.0),
    DeconvParams(n=8, alpha=1e-28, beta=0.5, epsilon=0.001, hypothesis_radius=10.0),
    DeconvParams(n=2, alpha=1e-30, beta=1.0, epsilon=0.008, hypothesis_radius=4.0),
    DeconvParams(n=3, alpha=1e-26, beta=0.5, epsilon=0.002, hypothesis_radius=5.0),
    DeconvParams(n=2, alpha=1e-3, beta=0.5, epsilon=0.005, hypothesis_radius=3.0),
    DeconvParams(n=2, alpha=1e-24, beta=0.5, epsilon=0.5, hypothesis_radius=3.0),
)


def check_conditions(p: DeconvParams) -> DeconvCertificate:
    """Evaluate the admissibility gate and compute certified radii and factors.

    Admissible iff alpha <= c0 * n^-8 and
    100 * (2n)^max(3*beta, 3/2) * alpha^(1/4) < epsilon < 1/100.
    Inadmissibility is a result carried by the certificate, not an error.
    """
    violated = []
    alpha_cap = p.c0 * p.n ** -8.0
    if p.alpha > alpha_cap:
        violated.append(
            f"alpha = {p.alpha:.6g} exceeds c0 * n^-8 = {alpha_cap:.6g}"
        )
    noise_floor = 100.0 * (2.0 * p.n) ** max(3.0 * p.beta, 1.5) * p.alpha ** 0.25
    if not noise_floor < p.epsilon:
        violated.append(
            f"epsilon = {p.epsilon:.6g} does not exceed "
            f"100 * (2n)^max(3*beta, 3/2) * alpha^(1/4) = {noise_floor:.6g}"
        )
    if not p.epsilon < 0.01:
        violated.append(f"epsilon = {p.epsilon:.6g} is not below 1/100")
    reach = (2.0 * p.n) ** p.beta
    return DeconvCertificate(
        admissible=not violated,
        violated_conditions=tuple(violated),
        lower_radius=min(p.hypothesis_radius - 1.0, reach),
        upper_radius=min(reach, p.hypothesis_radius) - 3.0,
        lower_factor=1.0 - 6.0 * p.epsilon,
        upper_factor=1.0 + 8.0 * p.epsilon,
        params=p,
    )


def grid_convolve(density: np.ndarray, spacing: float, variance: float) -> np.ndarray:
    """Convolve a 1-d or 2-d grid density with gaussian noise of the given variance.

    The kernel is sampled on the grid, truncated at 8 standard deviations and
    renormalized to unit discrete mass, so the discrete total mass is
    preserved exactly up to boundary truncation.  Separability handles the
    2-d case as two 1-d passes.  Each pass is the full linear convolution,
    computed with ``np.fft.rfft``/``irfft`` zero-padded to a power of two,
    cut to the input's extent: the grid is taken as zero outside itself.
    FFT roundoff can leave values a few ulps below 0 where the density is
    0; they are set to 0, so the output is a valid input again.
    """
    density = np.asarray(density, dtype=np.float64)
    if density.ndim not in (1, 2):
        raise InvalidSpec(f"density must be a 1-d or 2-d grid, got ndim={density.ndim}")
    if np.any(density < 0) or not np.all(np.isfinite(density)):
        raise InvalidSpec("density values must be finite and nonnegative")
    spacing = float(spacing)
    variance = float(variance)
    if not (spacing > 0 and math.isfinite(spacing)):
        raise RangeError(f"spacing must be positive, got {spacing!r}")
    if not (variance > 0 and math.isfinite(variance)):
        raise RangeError(f"variance must be positive, got {variance!r}")
    sigma = math.sqrt(variance)
    if spacing > sigma / 2.0:
        raise GridTooCoarse(
            f"grid spacing {spacing:.6g} cannot resolve a kernel of std {sigma:.6g}; "
            "need spacing <= sqrt(variance)/2"
        )
    mass = float(density.sum()) * spacing ** density.ndim
    if abs(mass - 1.0) > 1e-6:
        raise InvalidSpec(f"grid mass must be 1 within 1e-6, got {mass!r}")
    half = int(math.ceil(8.0 * sigma / spacing))
    offsets = np.arange(-half, half + 1) * spacing
    kernel = np.exp(-offsets * offsets / (2.0 * variance))
    kernel /= kernel.sum()
    out = density
    for axis in range(density.ndim):
        rows = np.moveaxis(out, axis, -1)
        count = rows.shape[-1]
        size = 1 << (count + 2 * half - 1).bit_length()
        full = np.fft.irfft(np.fft.rfft(rows, size) * np.fft.rfft(kernel, size), size)
        out = np.moveaxis(full[..., half:half + count], -1, axis)
    return np.maximum(out, 0.0)


def body_density_1d(body: str, x, alpha: float) -> np.ndarray:
    """Closed-form density f of a catalog 1-d body (alpha only shapes 'gaussian_deflated')."""
    x = np.asarray(x, dtype=np.float64)
    if body == "gaussian":
        return np.asarray(gaussian_density(1, 1.0, x))
    if body == "gaussian_deflated":
        if not 0.0 < alpha < 1.0:
            raise RangeError("gaussian_deflated needs 0 < alpha < 1")
        return np.asarray(gaussian_density(1, 1.0 - alpha, x))
    if body == "uniform":
        return np.where(np.abs(x) <= _SQRT3, 1.0 / (2.0 * _SQRT3), 0.0)
    if body == "laplace":
        b = _LAPLACE_SCALE
        return np.asarray(np.exp(-np.abs(x) / b) / (2.0 * b))
    raise InvalidSpec(f"unknown 1-d body {body!r}; known: {', '.join(BODIES_1D)}")


def body_convolved_density_1d(body: str, x, alpha: float) -> np.ndarray:
    """Closed-form density of (body sample + gaussian noise of variance alpha).

    gaussian: variances add.  gaussian_deflated (variance 1 - alpha): the
    convolution is exactly the standard gaussian.  uniform: a difference of
    normal CDFs.  laplace(b): the classical erfc formula
        e^(alpha/(2 b^2))/(4 b) * [ e^(-x/b) erfc((alpha/b - x)/sqrt(2 alpha))
                                  + e^(+x/b) erfc((alpha/b + x)/sqrt(2 alpha)) ],
    which is stable down to extremely small alpha because erfc saturates at 2
    on one side and underflows to 0 against a bounded exponential on the other.
    """
    from scipy.special import erfc, ndtr

    x = np.asarray(x, dtype=np.float64)
    alpha = float(alpha)
    if not (alpha > 0 and math.isfinite(alpha)):
        raise RangeError(f"alpha must be positive, got {alpha!r}")
    if body == "gaussian":
        return np.asarray(gaussian_density(1, 1.0 + alpha, x))
    if body == "gaussian_deflated":
        if not alpha < 1.0:
            raise RangeError("gaussian_deflated needs 0 < alpha < 1")
        return np.asarray(gaussian_density(1, 1.0, x))
    if body == "uniform":
        s = math.sqrt(alpha)
        return np.asarray((ndtr((x + _SQRT3) / s) - ndtr((x - _SQRT3) / s)) / (2.0 * _SQRT3))
    if body == "laplace":
        b = _LAPLACE_SCALE
        s = math.sqrt(2.0 * alpha)
        prefactor = math.exp(alpha / (2.0 * b * b)) / (4.0 * b)
        left = np.exp(-x / b) * erfc((alpha / b - x) / s)
        right = np.exp(x / b) * erfc((alpha / b + x) / s)
        return np.asarray(prefactor * (left + right))
    raise InvalidSpec(f"unknown 1-d body {body!r}; known: {', '.join(BODIES_1D)}")


@register("sandwich_report")
@dataclass(frozen=True, eq=False)
class SandwichReport:
    """Outcome of one sandwich verification run.

    ``status`` is one of "verified", "inadmissible", "hypothesis_not_met", or
    "sandwich_violated".  Margins are signed distances to the bounds (>= 0
    means the bound holds at that point); a certified radius <= 0 makes that
    side vacuous and its margin None.
    """

    body: str
    status: str
    certificate: DeconvCertificate = field(metadata=NESTED)
    hypothesis_sup: float | None = None
    lower_margin_min: float | None = None
    upper_margin_min: float | None = None


SANDWICH_SLACK = 1e-9


def _sandwich(body: str, p: DeconvParams, grid_points: int):
    """The report and, per non-vacuous region, (region, x, density, bound, margin) arrays."""
    cert = check_conditions(p)
    if not cert.admissible:
        return SandwichReport(body=body, status="inadmissible", certificate=cert), []

    grid_points = _as_positive_int(grid_points, "grid_points")
    xs = np.linspace(-p.hypothesis_radius, p.hypothesis_radius, grid_points)
    conv = body_convolved_density_1d(body, xs, p.alpha)
    ref = gaussian_density(1, 1.0 + p.alpha, xs)
    hyp_sup = float(np.max(np.abs(conv / ref - 1.0)))
    if hyp_sup > p.epsilon:
        return (
            SandwichReport(
                body=body, status="hypothesis_not_met", certificate=cert, hypothesis_sup=hyp_sup
            ),
            [],
        )

    regions = []
    mins = {}
    for region, radius, factor, sign in (
        ("lower", cert.lower_radius, cert.lower_factor, 1.0),
        ("upper", cert.upper_radius, cert.upper_factor, -1.0),
    ):
        if radius <= 0:
            mins[region] = None
            continue
        xs_r = np.linspace(-radius, radius, grid_points)
        f = body_density_1d(body, xs_r, p.alpha)
        bound = factor * gaussian_density(1, 1.0, xs_r)
        margin = sign * (f - bound)
        mins[region] = float(margin.min())
        regions.append((region, xs_r, f, bound, margin))
    ok = all(m is None or m >= -SANDWICH_SLACK for m in mins.values())
    report = SandwichReport(
        body=body,
        status="verified" if ok else "sandwich_violated",
        certificate=cert,
        hypothesis_sup=hyp_sup,
        lower_margin_min=mins["lower"],
        upper_margin_min=mins["upper"],
    )
    return report, regions


def sandwich_margins(body: str, p: DeconvParams, grid_points: int = 2001):
    """Detailed margin arrays for one body/parameter pair (for CSV emission).

    Returns (report, rows) where rows are (region, x, density, bound, margin)
    tuples; rows are empty unless the hypothesis gate passes.
    """
    report, regions = _sandwich(body, p, grid_points)
    rows = []
    for region, *columns in regions:
        rows.extend((region, *values) for values in zip(*(c.tolist() for c in columns)))
    return report, rows


def verify_sandwich(body: str, p: DeconvParams, grid_points: int = 2001) -> SandwichReport:
    """Run the sandwich implication for one catalog body and parameter set.

    The closeness hypothesis is checked numerically first; if it fails the
    report's status says so rather than asserting the implication.  No margin
    rows are built.
    """
    return _sandwich(body, p, grid_points)[0]
