"""Certificate arithmetic and empirical checks for the deconvolution sandwich.

The sandwich statement: if a 1-d density f, convolved with gaussian noise of
variance alpha, stays within a factor 1 +/- epsilon of the gaussian of
variance 1 + alpha out to radius R, then f itself is pinched between
(1 - 6 epsilon) and (1 + 8 epsilon) times the standard gaussian on certified
(smaller) radii — provided the parameters pass an admissibility gate tying
alpha, epsilon, beta and n together.

``DeconvCertificate(params)`` is the gate, its verdict, radii and factors
all derived from the parameters; ``grid_convolve`` is a mass-preserving
discrete gaussian convolution of a 1-d grid for moderate alpha, done with
real FFTs; ``verify_sandwich`` runs the full implication on a catalog of
closed-form 1-d log-concave densities, as whole-array margins.
At admissible noise levels (alpha around 1e-21 and below) no affordable grid
can resolve the kernel, so the convolved densities come from closed forms:
the gaussian family is closed under convolution, the uniform convolution is a
difference of normal CDFs, and the two-sided exponential has an exact
erfc-based formula.  ``grid_convolve`` cross-validates those closed forms at
moderate alpha, where both routes are available.  The two gaussian bodies
read their raw and convolved variances from one rule: 'gaussian' has 1 and
1 + alpha, 'gaussian_deflated' has 1 - alpha and 1.  The sandwich reads
every body through ``body_density_1d`` and ``body_convolved_density_1d``
and evaluates each gaussian once per grid: a body density whose variance
equals, as a float, that of the reference gaussian on the same grid (1 +
alpha on the hypothesis grid, 1 on each region's) is that array.  At
every admissible alpha (below 1e-16) 1 + alpha and 1 - alpha round to 1, so
a verified gaussian op costs three evaluations.  One grid's arrays are
live at a time: the hypothesis grid's are released before the first region
grid is made, and each region's before the next; a grid too large for
physical memory, with its margin rows, is a ``RangeError`` before the gate.  A hypothesis radius past
about 38.6, where N(0, 1 + alpha) underflows to 0, is a ``RangeError``.
scipy is imported only inside ``grid_convolve`` and
``body_convolved_density_1d``, so importing this module loads none of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, InvalidSpec, RangeError
from .model import NESTED, _as_nonnegative_array, _as_positive_float, _as_positive_int, register
from .samplers import _LAPLACE_SCALE, _SQRT3, _require_memory
from .spherical import gaussian_density

BODIES_1D = ("gaussian", "gaussian_deflated", "uniform", "laplace")
SANDWICH_STATUSES = ("verified", "inadmissible", "hypothesis_not_met", "sandwich_violated")


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
            object.__setattr__(self, name, _as_positive_float(getattr(self, name), name))
        if not self.c0 < 1.0:
            raise InvalidSpec(f"c0 must lie in (0, 1), got {self.c0!r}")


@register("deconv_certificate", keys=(
    "admissible", "violated_conditions", "lower_radius", "upper_radius", "lower_factor",
    "upper_factor", "params",
))
@dataclass(frozen=True)
class DeconvCertificate:
    """The sandwich gate on one parameter set: its verdict, certified radii and factors.

    Admissible iff alpha <= c0 * n^-8 and
    100 * (2n)^max(3*beta, 3/2) * alpha^(1/4) < epsilon < 1/100.
    Inadmissibility is a result carried by the certificate, not an error.
    Every value is a property of ``params``, so a decoded certificate whose
    stored values disagree with its parameters is refused.
    """

    params: DeconvParams = field(metadata=NESTED)

    def __post_init__(self):
        if not isinstance(self.params, DeconvParams):
            raise InvalidSpec(f"params must be a DeconvParams, got {self.params!r}")

    @property
    def violated_conditions(self) -> tuple:
        p = self.params
        violated = []
        alpha_cap = p.c0 * p.n ** -8.0
        if p.alpha > alpha_cap:
            violated.append(f"alpha = {p.alpha:.6g} exceeds c0 * n^-8 = {alpha_cap:.6g}")
        noise_floor = 100.0 * (2.0 * p.n) ** max(3.0 * p.beta, 1.5) * p.alpha ** 0.25
        if not noise_floor < p.epsilon:
            violated.append(
                f"epsilon = {p.epsilon:.6g} does not exceed "
                f"100 * (2n)^max(3*beta, 3/2) * alpha^(1/4) = {noise_floor:.6g}"
            )
        if not p.epsilon < 0.01:
            violated.append(f"epsilon = {p.epsilon:.6g} is not below 1/100")
        return tuple(violated)

    @property
    def admissible(self) -> bool:
        return not self.violated_conditions

    @property
    def _reach(self) -> float:
        return (2.0 * self.params.n) ** self.params.beta

    @property
    def lower_radius(self) -> float:
        return min(self.params.hypothesis_radius - 1.0, self._reach)

    @property
    def upper_radius(self) -> float:
        return min(self._reach, self.params.hypothesis_radius) - 3.0

    @property
    def lower_factor(self) -> float:
        return 1.0 - 6.0 * self.params.epsilon

    @property
    def upper_factor(self) -> float:
        return 1.0 + 8.0 * self.params.epsilon


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


def grid_convolve(density: np.ndarray, spacing: float, variance: float) -> np.ndarray:
    """Convolve a 1-d grid density with gaussian noise of the given variance.

    The kernel is sampled on the grid, truncated at 8 standard deviations
    (``half`` points each side) and renormalized to unit discrete mass, so the
    discrete total mass is preserved exactly up to boundary truncation.  The
    grid is taken as zero outside itself and the result is the linear
    convolution cut to the input's extent, the samples ``half`` to
    ``half + count - 1`` of the full one.  It is computed as a circular
    convolution with ``np.fft.rfft``/``irfft`` at the next 5-smooth length
    (``scipy.fft.next_fast_len``) of at least ``count + half`` points: the
    terms that wrap round land below index ``half``, so the kept window is
    exact, with no need to pad to the full length ``count + 2 half - 1``; a
    kernel longer than the transform is cut, which drops only terms past
    the window.
    FFT roundoff can leave values a few ulps below 0 where the density is
    0; they are set to 0, so the output is a valid input again.
    """
    from scipy.fft import next_fast_len

    density = _as_nonnegative_array(density, "density values")
    if density.ndim != 1:
        raise InvalidSpec(f"density must be a 1-d grid, got ndim={density.ndim}")
    spacing = _as_positive_float(spacing, "spacing", RangeError)
    variance = _as_positive_float(variance, "variance", RangeError)
    sigma = math.sqrt(variance)
    if spacing > sigma / 2.0:
        raise GridTooCoarse(
            f"grid spacing {spacing:.6g} cannot resolve a kernel of std {sigma:.6g}; "
            "need spacing <= sqrt(variance)/2"
        )
    mass = float(density.sum()) * spacing
    if abs(mass - 1.0) > 1e-6:
        raise InvalidSpec(f"grid mass must be 1 within 1e-6, got {mass!r}")
    half = int(math.ceil(8.0 * sigma / spacing))
    offsets = np.arange(-half, half + 1) * spacing
    kernel = np.exp(-offsets * offsets / (2.0 * variance))
    kernel /= kernel.sum()
    count = density.size
    size = next_fast_len(count + half, real=True)
    circular = np.fft.irfft(np.fft.rfft(density, size) * np.fft.rfft(kernel, size), size)
    return np.maximum(circular[half:half + count], 0.0)


def _gaussian_variances(body: str, alpha) -> tuple[float, float] | None:
    """(raw, convolved) variance of a gaussian catalog body at noise variance alpha, else None.

    'gaussian' has variance 1 and its convolution 1 + alpha; 'gaussian_deflated'
    has 1 - alpha, so its convolution is the standard gaussian, and it needs
    0 < alpha < 1.
    """
    if body == "gaussian":
        return 1.0, 1.0 + alpha
    if body == "gaussian_deflated":
        alpha = _as_positive_float(alpha, "alpha", RangeError)
        if not alpha < 1.0:
            raise RangeError("gaussian_deflated needs 0 < alpha < 1")
        return 1.0 - alpha, 1.0
    return None


def body_density_1d(body: str, x, alpha: float) -> np.ndarray:
    """Closed-form density f of a catalog 1-d body (alpha only shapes 'gaussian_deflated')."""
    x = np.asarray(x, dtype=np.float64)
    variances = _gaussian_variances(body, alpha)
    if variances:
        return gaussian_density(1, variances[0], x)
    if body == "uniform":
        return np.where(np.abs(x) <= _SQRT3, 1.0 / (2.0 * _SQRT3), 0.0)
    if body == "laplace":
        b = _LAPLACE_SCALE
        return np.asarray(np.exp(-np.abs(x) / b) / (2.0 * b))
    raise InvalidSpec(f"unknown 1-d body {body!r}; known: {', '.join(BODIES_1D)}")


def _unless_saturated(fn, z, lo: float, hi: float, below: float, above: float) -> np.ndarray:
    """fn(z), writing fn's exact limit ``below`` where z <= lo and ``above`` where z >= hi.

    Only points not provably saturated are passed to fn, so a NaN reaches fn
    and stays NaN.
    """
    z = np.asarray(z)
    high = z >= hi
    out = np.where(high, above, below)
    live = ~((z <= lo) | high)
    out[live] = fn(z[live])
    return out


def body_convolved_density_1d(body: str, x, alpha: float) -> np.ndarray:
    """Closed-form density of (body sample + gaussian noise of variance alpha).

    gaussian: variances add.  gaussian_deflated (variance 1 - alpha): the
    convolution is exactly the standard gaussian.  uniform: a difference of
    normal CDFs.  laplace(b): the classical erfc formula
        e^(alpha/(2 b^2))/(4 b) * [ e^(-x/b) erfc((alpha/b - x)/sqrt(2 alpha))
                                  + e^(+x/b) erfc((alpha/b + x)/sqrt(2 alpha)) ],
    which is stable down to extremely small alpha because erfc saturates at 2
    on one side and underflows to 0 against a bounded exponential on the other.
    Where ndtr or erfc is exactly its limit in double precision (ndtr beyond
    |z| >= 40, erfc at z <= -7 or z >= 30), that limit is written without a
    call; at admissible alpha this is all but at most one grid point.  A NaN
    point stays NaN.
    """
    from scipy.special import erfc, ndtr

    x = np.asarray(x, dtype=np.float64)
    alpha = _as_positive_float(alpha, "alpha", RangeError)
    variances = _gaussian_variances(body, alpha)
    if variances:
        return gaussian_density(1, variances[1], x)
    if body == "uniform":
        s = math.sqrt(alpha)

        def cdf(z):
            return _unless_saturated(ndtr, z, -40.0, 40.0, 0.0, 1.0)

        return np.asarray((cdf((x + _SQRT3) / s) - cdf((x - _SQRT3) / s)) / (2.0 * _SQRT3))
    if body == "laplace":
        b = _LAPLACE_SCALE
        s = math.sqrt(2.0 * alpha)
        prefactor = math.exp(alpha / (2.0 * b * b)) / (4.0 * b)

        def tail(z):
            return _unless_saturated(erfc, z, -7.0, 30.0, 2.0, 0.0)

        left = np.exp(-x / b) * tail((alpha / b - x) / s)
        right = np.exp(x / b) * tail((alpha / b + x) / s)
        return np.asarray(prefactor * (left + right))
    raise InvalidSpec(f"unknown 1-d body {body!r}; known: {', '.join(BODIES_1D)}")


@register("sandwich_report")
@dataclass(frozen=True, eq=False)
class SandwichReport:
    """Outcome of one sandwich verification run.

    ``status`` is one of ``SANDWICH_STATUSES``: "verified", "inadmissible",
    "hypothesis_not_met", or "sandwich_violated"; ``body`` is one of
    ``BODIES_1D``.  Margins are signed distances to the bounds (>= 0 means
    the bound holds at that point); a certified radius <= 0 makes that side
    vacuous and its margin None.
    """

    body: str
    status: str
    certificate: DeconvCertificate = field(metadata=NESTED)
    hypothesis_sup: float | None = None
    lower_margin_min: float | None = None
    upper_margin_min: float | None = None

    def __post_init__(self):
        for name, allowed in (("body", BODIES_1D), ("status", SANDWICH_STATUSES)):
            v = getattr(self, name)
            if not (isinstance(v, str) and v in allowed):
                raise InvalidSpec(f"{name} must be one of {', '.join(allowed)}, got {v!r}")
        if not isinstance(self.certificate, DeconvCertificate):
            raise InvalidSpec(f"certificate must be a DeconvCertificate, got {self.certificate!r}")
        for name in ("hypothesis_sup", "lower_margin_min", "upper_margin_min"):
            v = getattr(self, name)
            if not (v is None or (isinstance(v, float) and math.isfinite(v))):
                raise InvalidSpec(f"{name} must be a finite float or None, got {v!r}")


SANDWICH_SLACK = 1e-9
# Bytes per grid point: 6 grid arrays (5.39 measured), and for margin rows, per region a
# list slot, a 5-tuple and 4 floats, with one region's 4 column lists of floats.
_GRID_BYTES, _ROWS_BYTES = 6 * 8, 2 * (8 + 80 + 4 * 24) + 4 * 8


def _with_reference(xs, body_density, variance, reference_variance: float):
    """(``body_density(xs)``, the gaussian density of ``reference_variance`` on xs).

    ``variance`` is the body's if it is gaussian, else None.  The body's
    density is the reference too when the two variances are equal floats
    (they give equal bits), so no gaussian is evaluated twice on one grid.
    It is evaluated first: made after the reference, the laplace closed
    form's grid-sized temporaries page-faulted anew on each call and took
    1.6 times as long.
    """
    density = body_density(xs)
    if variance == reference_variance:
        return density, density
    return density, gaussian_density(1, reference_variance, xs)


def _hypothesis_sup(body: str, p: DeconvParams, grid_points: int, variance) -> float:
    """sup |convolved density / N(0, 1 + alpha) - 1| over the hypothesis grid [-R, R].

    ``variance`` is the convolved body's if it is gaussian, else None.  Every
    grid-sized array is released on return.
    """
    xs = np.linspace(-p.hypothesis_radius, p.hypothesis_radius, grid_points)
    conv, ref = _with_reference(
        xs, lambda x: body_convolved_density_1d(body, x, p.alpha), variance, 1.0 + p.alpha
    )
    del xs
    deviation = conv / ref
    del conv, ref
    deviation -= 1.0
    return float(np.max(np.abs(deviation, out=deviation)))


def _region_margin_min(body: str, p: DeconvParams, grid_points: int, variance, radius: float,
                       factor: float, sign: float, emit=None) -> float:
    """The least signed margin of one certified region [-radius, radius].

    The margin is sign * (f - factor * N(0, 1)), with ``variance`` the raw
    body's if it is gaussian, else None.  ``emit``, if given, is passed the
    region's x, density, bound and margin arrays before they are released.
    """
    xs = np.linspace(-radius, radius, grid_points)
    f, base = _with_reference(xs, lambda x: body_density_1d(body, x, p.alpha), variance, 1.0)
    bound = factor * base
    del base
    margin = f - bound
    margin *= sign
    if emit is not None:
        emit(xs, f, bound, margin)
    return float(margin.min())


def _sandwich(body: str, p: DeconvParams, grid_points: int, emit=None) -> SandwichReport:
    """The report; ``emit(region, x, density, bound, margin)`` sees each non-vacuous region."""
    grid_points = _as_positive_int(grid_points, "grid_points")
    per_point = _GRID_BYTES + (_ROWS_BYTES if emit else 0)
    _require_memory(f"a sandwich of grid_points={grid_points}", per_point * grid_points)
    cert = DeconvCertificate(p)
    if not cert.admissible:
        return SandwichReport(body=body, status="inadmissible", certificate=cert)
    if gaussian_density(1, 1.0 + p.alpha, p.hypothesis_radius) == 0.0:
        raise RangeError(
            f"R = {p.hypothesis_radius:.6g} is too large: N(0, 1 + alpha) underflows to 0 at R, "
            "so the hypothesis ratio is undefined there; keep R below about 38.6"
        )

    raw_variance, conv_variance = _gaussian_variances(body, p.alpha) or (None, None)
    hyp_sup = _hypothesis_sup(body, p, grid_points, conv_variance)
    if hyp_sup > p.epsilon:
        return SandwichReport(
            body=body, status="hypothesis_not_met", certificate=cert, hypothesis_sup=hyp_sup
        )

    mins = {}
    for region, radius, factor, sign in (
        ("lower", cert.lower_radius, cert.lower_factor, 1.0),
        ("upper", cert.upper_radius, cert.upper_factor, -1.0),
    ):
        if radius <= 0:
            mins[region] = None
            continue
        region_emit = None if emit is None else functools.partial(emit, region)
        mins[region] = _region_margin_min(
            body, p, grid_points, raw_variance, radius, factor, sign, region_emit
        )
    ok = all(m is None or m >= -SANDWICH_SLACK for m in mins.values())
    return SandwichReport(
        body=body,
        status="verified" if ok else "sandwich_violated",
        certificate=cert,
        hypothesis_sup=hyp_sup,
        lower_margin_min=mins["lower"],
        upper_margin_min=mins["upper"],
    )


def sandwich_margins(body: str, p: DeconvParams, grid_points: int = 2001):
    """Detailed margin arrays for one body/parameter pair (for CSV emission).

    Returns (report, rows) where rows are (region, x, density, bound, margin)
    tuples, built one region at a time; rows are empty unless the hypothesis
    gate passes.
    """
    rows = []

    def emit(region, *columns):
        rows.extend((region, *values) for values in zip(*(c.tolist() for c in columns)))

    return _sandwich(body, p, grid_points, emit), rows


def verify_sandwich(body: str, p: DeconvParams, grid_points: int = 2001) -> SandwichReport:
    """Run the sandwich implication for one catalog body and parameter set.

    The closeness hypothesis is checked numerically first; if it fails the
    report's status says so rather than asserting the implication.  No margin
    rows are built.
    """
    return _sandwich(body, p, grid_points)
