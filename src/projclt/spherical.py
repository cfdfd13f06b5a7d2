"""Exact sphere-marginal kernels, gaussian densities, and radial mixtures.

``psi(params, t)`` evaluates the density at radius t of the l-dimensional
marginal of the uniform probability measure on the sphere of radius r in R^n:

    psi_{n,l,r}(t) = Gamma_nl * r^(-l) * (1 - t^2/r^2)^((n-l-2)/2)   for t <= r,
    Gamma_nl      = pi^(-l/2) * Gamma(n/2) / Gamma((n-l)/2),

and 0 beyond r.  The exponent (n-l-2)/2 reaches the hundreds in the regimes of
interest, so every evaluation happens in natural logs — via ``gammaln`` and
``log1p(-t^2/r^2)`` — and is exponentiated at the very end.  ``psi``,
``gaussian_density`` and ``radial_mixture_marginal`` each return an ndarray
of their radii's shape, 0-d for a number.

Averaging psi over a radial distribution g gives the marginal of the
spherically symmetrized vector:  ``radial_mixture_marginal`` computes
integral of psi_{n,l,r}(t) g(r) dr for the closed-form chi radial law with
one composite Gauss–Legendre rule, evaluated for every t at once after the
substitution r = sqrt(t^2 + s^2) removes the rim factor's endpoint
behaviour; the rule's nodes and weights are built on first use and kept.
With chi_dim = n the mixture collapses to the standard gaussian density
exactly — the fixed point the test-suite pins down.  Only the ball mass,
``psi_ball_mass``, keeps adaptive quadrature.  scipy is imported inside the
functions that call it, and ``numpy.polynomial`` is first reached by the
mixture rule, so importing this module loads neither.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .model import (
    RadialDensity, RatioReport, _as_nonnegative_array, _as_positive_float, _as_positive_int,
    register,
)
from .samplers import _require_memory


@register("kernel_params")
@dataclass(frozen=True)
class KernelParams:
    """Kernel parameters: ambient dimension n, marginal dimension l < n, radius r."""

    n: int
    l: int
    r: float

    def __post_init__(self):
        object.__setattr__(self, "n", _as_positive_int(self.n, "n"))
        object.__setattr__(self, "l", _as_positive_int(self.l, "l"))
        log_gamma_nl(self.n, self.l)  # refuses l >= n, which no sphere kernel can take
        object.__setattr__(self, "r", _as_positive_float(self.r, "radius"))


def log_gamma_nl(n: int, l: int) -> float:
    """log of Gamma_nl = pi^(-l/2) Gamma(n/2) / Gamma((n-l)/2), for 1 <= l < n."""
    from scipy.special import gammaln

    n = _as_positive_int(n, "n")
    l = _as_positive_int(l, "l")
    if l >= n:
        raise DomainError(f"the sphere kernel needs l < n, got l={l}, n={n}")
    return -0.5 * l * math.log(math.pi) + float(gammaln(0.5 * n) - gammaln(0.5 * (n - l)))


def psi(params: KernelParams, t) -> np.ndarray:
    """Marginal density psi_{n,l,r} at radii t >= 0, an array of t's shape (0-d for a number).

    At t = r the closed form continues naturally: 0 for positive exponent,
    the finite plateau value for exponent 0 (n = l + 2), +inf for the
    integrable edge singularity (n = l + 1).
    """
    if not isinstance(params, KernelParams):
        raise DomainError(f"params must be KernelParams, got {type(params).__name__}")
    n, l, r = params.n, params.l, params.r
    t_arr = _as_nonnegative_array(t, "t", DomainError)
    log_scale = log_gamma_nl(n, l) - l * math.log(r)
    expo = 0.5 * (n - l - 2)
    out = np.zeros_like(t_arr)
    inside = t_arr < r
    u = t_arr[inside] / r
    out[inside] = np.exp(log_scale + expo * np.log1p(-u * u))
    if expo == 0:
        out[t_arr == r] = math.exp(log_scale)
    elif expo < 0:
        out[t_arr == r] = np.inf
    return out


def gaussian_density(l: int, v: float, x_norm) -> np.ndarray:
    """Isotropic gaussian density in R^l with variance v, at radius x_norm.

    Returns an array of x_norm's shape (0-d for a number), evaluated in one
    new buffer, in place, in the order of the formula exp(c - x*x / (2v)), so
    each value has that expression's bits.
    """
    l = _as_positive_int(l, "l")
    v = _as_positive_float(v, "variance", RangeError)
    x = np.asarray(x_norm, dtype=np.float64)
    log_scale = -0.5 * l * math.log(2.0 * math.pi * v)
    out = np.multiply(x, x, out=np.empty_like(x))
    out /= 2.0 * v
    np.subtract(log_scale, out, out=out)
    return np.exp(out, out=out)


def _log_sphere_surface(l: int) -> float:
    """log surface area of the unit sphere S^(l-1) in R^l."""
    from scipy.special import gammaln

    return math.log(2.0) + 0.5 * l * math.log(math.pi) - float(gammaln(0.5 * l))


def psi_ball_mass(params: KernelParams) -> float:
    """The l-dimensional integral of psi over its supporting ball |x| <= r.

    Radially, mass = S_{l-1} * integral_0^r psi(t) t^(l-1) dt.  Substituting
    t = r sin(phi) turns the integrand into
    S_{l-1} * Gamma_nl * sin(phi)^(l-1) * cos(phi)^(n-l-1), which is smooth and
    bounded on [0, pi/2] for every l <= n-1 — including the edge cases
    n - l in {1, 2} whose integrand in t blows up or jumps at t = r — so plain
    adaptive quadrature resolves the integral to near machine precision.  The
    constant S_{l-1} * Gamma_nl is exponentiated once, from its logs, and each
    node evaluates the product of powers directly.
    Analytically the value is exactly 1; this function exists to measure how
    far the numerics drift from that.
    """
    from scipy.integrate import quad

    if not isinstance(params, KernelParams):
        raise DomainError(f"params must be KernelParams, got {type(params).__name__}")
    n, l = params.n, params.l
    scale = math.exp(_log_sphere_surface(l) + log_gamma_nl(n, l))
    expo_sin = l - 1.0
    expo_cos = n - l - 1.0

    def integrand(phi):
        return scale * math.sin(phi) ** expo_sin * math.cos(phi) ** expo_cos

    mass, _ = quad(integrand, 0.0, 0.5 * math.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return mass


# Gauss–Legendre nodes per unit panel of the chi-mixture rule, and the most
# nodes evaluated in one array (as many t-points as fit share it).
MIXTURE_NODES = 20
_MIXTURE_BLOCK = 1 << 20


@functools.cache
def _mixture_rule() -> tuple[np.ndarray, np.ndarray]:
    """The ``MIXTURE_NODES``-point Gauss–Legendre nodes and weights on [-1, 1].

    Built on first use, not at import, so importing this module loads no
    ``numpy.polynomial``; read-only, since every caller shares them.
    """
    rule = np.polynomial.legendre.leggauss(MIXTURE_NODES)
    for a in rule:
        a.flags.writeable = False
    return rule


def radial_mixture_marginal(g: RadialDensity, n: int, l: int, t) -> np.ndarray:
    """integral of psi_{n,l,r}(t) g(r) dr — the marginal of the symmetrized vector.

    The chi law with chi_dim = m puts its mass within sqrt(m) +/- 26 (below
    1e-100 of its peak outside), so r runs over [t, sqrt(m) + 26] with the
    part below sqrt(m) - 26 dropped.  Substituting r = sqrt(t^2 + s^2) turns
    r^(-l) (1 - t^2/r^2)^((n-l-2)/2) dr into s^(n-l-1) r^(-(n-1)) ds, which is
    smooth in s for every l < n, the rim cases n - l in {1, 2} included.
    Each t's s-range is cut into unit panels from its lower end, each with
    ``MIXTURE_NODES`` Gauss–Legendre nodes; one fixed panel count covers the
    widest range, and panels past a point's range have zero width, so all t
    share one (points, nodes) array and t >= sqrt(m) + 26 gives 0.  Nodes
    lie inside their panel, so s > 0 wherever log s is used.  With the chi
    log density written out, the integrand's log is
    const + (n-l-1) log s + (m - n) log r - r^2/2.  The result has t's shape.
    """
    from scipy.special import gammaln

    if not isinstance(g, RadialDensity):
        raise DomainError(f"g must be a RadialDensity, got {type(g).__name__}")
    n = _as_positive_int(n, "n")
    l = _as_positive_int(l, "l")
    t_arr = _as_nonnegative_array(t, "t", DomainError)

    n_chi = g.chi_dim
    upper = math.sqrt(n_chi) + 26.0
    lower = max(math.sqrt(n_chi) - 26.0, 0.0)
    log_const = (
        log_gamma_nl(n, l)
        + (1.0 - 0.5 * n_chi) * math.log(2.0)
        - float(gammaln(0.5 * n_chi))
    )
    x, w = _mixture_rule()
    panels = np.arange(math.ceil(math.sqrt(upper * upper - lower * lower)) + 1.0)
    rows = max(1, _MIXTURE_BLOCK // (panels.size * MIXTURE_NODES))
    flat = t_arr.ravel()
    out = np.empty_like(flat)
    for lo in range(0, flat.size, rows):
        t2 = flat[lo:lo + rows, None] ** 2
        s_lo = np.sqrt(np.maximum(lower * lower - t2, 0.0))
        s_hi = np.sqrt(np.maximum(upper * upper - t2, 0.0))
        edges = np.minimum(s_lo + panels, s_hi)
        half = 0.5 * np.diff(edges, axis=1)[..., None]
        # In place: s = edges + half + half x, r2 = t2 + s s and
        # log_f = const + (n-l-1) log s + (m-n)/2 log r2 - r2/2, each summed left
        # to right; float + and * commute, so swapped operands keep every bit.
        s = np.multiply(half, x)
        s += edges[:, :-1, None] + half
        s = s.reshape(len(t2), -1)
        weights = (half * w).reshape(len(t2), -1)
        outside = ~(s > 0.0)  # all nodes of a t >= upper sit at s = 0, with weight 0
        s[outside] = 1.0
        r2 = s * s
        r2 += t2
        log_f = np.log(s, out=s)
        log_f *= n - l - 1
        log_f += log_const
        log_r2 = np.log(r2)
        log_r2 *= 0.5 * (n_chi - n)
        log_f += log_r2
        r2 *= 0.5
        log_f -= r2
        integrand = np.exp(log_f, out=log_f)
        integrand *= weights
        integrand[outside] = 0.0
        out[lo:lo + len(t2)] = np.sum(integrand, axis=1)
    return out.reshape(t_arr.shape)


def psi_gaussian_ratio_scan(n: int, l: int, t_max: float, grid_points: int = 2001) -> RatioReport:
    """Scan psi_{n,l,sqrt(n)} / gaussian over t in [0, t_max], t_max < n^(1/8).

    Returns the per-point ratios and the sup of |ratio - 1| over the grid.
    A grid past physical memory (6 arrays counted, 5.1 measured) is a ``RangeError``.
    """
    n = _as_positive_int(n, "n")
    l = _as_positive_int(l, "l")
    grid_points = _as_positive_int(grid_points, "grid_points")
    t_max = _as_positive_float(t_max, "t_max", RangeError)
    limit = n ** 0.125
    if not t_max < limit:
        raise RangeError(f"t_max must lie in (0, n^(1/8)) = (0, {limit:.6g}), got {t_max!r}")
    _require_memory(f"a psi scan of grid_points={grid_points}", 6 * 8 * grid_points)
    grid = np.linspace(0.0, t_max, grid_points)
    vals = psi(KernelParams(n=n, l=l, r=math.sqrt(n)), grid)
    ratios = vals / gaussian_density(l, 1.0, grid)
    return RatioReport(
        radius_grid=grid,
        per_point_ratios=ratios,
        meta={
            "n": n,
            "l": l,
            "radius": math.sqrt(n),
            "t_max": t_max,
            "grid_points": grid_points,
        },
    )
