"""Exact sphere-marginal kernels, gaussian densities, and radial mixtures.

``psi(params, t)`` evaluates the density at radius t of the l-dimensional
marginal of the uniform probability measure on the sphere of radius r in R^n:

    psi_{n,l,r}(t) = Gamma_nl * r^(-l) * (1 - t^2/r^2)^((n-l-2)/2)   for t <= r,
    Gamma_nl      = pi^(-l/2) * Gamma(n/2) / Gamma((n-l)/2),

and 0 beyond r.  The exponent (n-l-2)/2 reaches the hundreds in the regimes of
interest, so every evaluation happens in natural logs — via ``gammaln`` and
``log1p(-t^2/r^2)`` — and is exponentiated at the very end.

Averaging psi over a radial distribution g gives the marginal of the
spherically symmetrized vector:  ``radial_mixture_marginal`` computes
integral of psi_{n,l,r}(t) g(r) dr for the closed-form chi radial law with
one composite Gauss–Legendre rule, evaluated for every t at once after the
substitution r = sqrt(t^2 + s^2) removes the rim factor's endpoint
behaviour.  With chi_dim = n the mixture collapses to the standard gaussian
density exactly — the fixed point the test-suite pins down.  Only the ball
mass, ``psi_ball_mass``, keeps adaptive quadrature.  scipy is imported inside
the functions that call it, so importing this module loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .model import (
    RadialDensity, RatioReport, _as_nonnegative_array, _as_positive_float, _as_positive_int,
    register,
)


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


def _log_psi(n: int, l: int, r: float, t: np.ndarray) -> np.ndarray:
    """log psi on 0 <= t < r (callers handle t >= r); t is a clean float array."""
    base = log_gamma_nl(n, l) - l * math.log(r)
    expo = 0.5 * (n - l - 2)
    u = t / r
    return base + expo * np.log1p(-u * u)


def psi(params: KernelParams, t) -> float | np.ndarray:
    """Marginal density psi_{n,l,r} at radius t (scalar or array, t >= 0).

    At t = r the closed form continues naturally: 0 for positive exponent,
    the finite plateau value for exponent 0 (n = l + 2), +inf for the
    integrable edge singularity (n = l + 1).
    """
    if not isinstance(params, KernelParams):
        raise DomainError(f"params must be KernelParams, got {type(params).__name__}")
    n, l, r = params.n, params.l, params.r
    t_arr = np.atleast_1d(_as_nonnegative_array(t, "t", DomainError))
    scalar = np.ndim(t) == 0
    expo = 0.5 * (n - l - 2)
    out = np.zeros_like(t_arr)
    inside = t_arr < r
    if np.any(inside):
        out[inside] = np.exp(_log_psi(n, l, r, t_arr[inside]))
    edge = t_arr == r
    if np.any(edge):
        if expo == 0:
            out[edge] = math.exp(log_gamma_nl(n, l) - l * math.log(r))
        elif expo < 0:
            out[edge] = np.inf
    return float(out[0]) if scalar else out


def gaussian_density(l: int, v: float, x_norm) -> float | np.ndarray:
    """Isotropic gaussian density in R^l with variance v, at radius x_norm."""
    l = _as_positive_int(l, "l")
    v = _as_positive_float(v, "variance", RangeError)
    x = np.asarray(x_norm, dtype=np.float64)
    out = np.exp(-0.5 * l * math.log(2.0 * math.pi * v) - x * x / (2.0 * v))
    return float(out) if np.ndim(x_norm) == 0 else out


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
    adaptive quadrature resolves the integral to near machine precision.
    Analytically the value is exactly 1; this function exists to measure how
    far the numerics drift from that.
    """
    from scipy.integrate import quad

    n, l = params.n, params.l
    log_c = _log_sphere_surface(l) + log_gamma_nl(n, l)
    expo_sin = l - 1.0
    expo_cos = n - l - 1.0

    def integrand(phi):
        s, c = math.sin(phi), math.cos(phi)
        val = log_c
        if expo_sin > 0:
            if s == 0.0:
                return 0.0
            val += expo_sin * math.log(s)
        if expo_cos > 0:
            if c == 0.0:
                return 0.0
            val += expo_cos * math.log(c)
        return math.exp(val)

    mass, _ = quad(integrand, 0.0, 0.5 * math.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return mass


# Gauss–Legendre nodes per unit panel of the chi-mixture rule, and the most
# nodes evaluated in one array (as many t-points as fit share it).
MIXTURE_NODES = 20
_MIXTURE_BLOCK = 1 << 20


def radial_mixture_marginal(g: RadialDensity, n: int, l: int, t) -> float | np.ndarray:
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
    const + (n-l-1) log s + (m - n) log r - r^2/2.
    """
    from scipy.special import gammaln

    if not isinstance(g, RadialDensity):
        raise DomainError(f"g must be a RadialDensity, got {type(g).__name__}")
    n = _as_positive_int(n, "n")
    l = _as_positive_int(l, "l")
    t_arr = np.atleast_1d(_as_nonnegative_array(t, "t", DomainError))
    scalar = np.ndim(t) == 0

    n_chi = g.chi_dim
    upper = math.sqrt(n_chi) + 26.0
    lower = max(math.sqrt(n_chi) - 26.0, 0.0)
    log_const = (
        log_gamma_nl(n, l)
        + (1.0 - 0.5 * n_chi) * math.log(2.0)
        - float(gammaln(0.5 * n_chi))
    )
    x, w = np.polynomial.legendre.leggauss(MIXTURE_NODES)
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
        s = (edges[:, :-1, None] + half + half * x).reshape(len(t2), -1)
        weights = (half * w).reshape(len(t2), -1)
        inside = s > 0.0  # all nodes of a t >= upper sit at s = 0, with weight 0
        s = np.where(inside, s, 1.0)
        r2 = t2 + s * s
        log_f = log_const + (n - l - 1) * np.log(s) + 0.5 * (n_chi - n) * np.log(r2) - 0.5 * r2
        out[lo:lo + len(t2)] = np.sum(np.where(inside, weights * np.exp(log_f), 0.0), axis=1)
    out = out.reshape(t_arr.shape)
    return float(out[0]) if scalar else out


def psi_gaussian_ratio_scan(n: int, l: int, t_max: float, grid_points: int = 2001) -> RatioReport:
    """Scan psi_{n,l,sqrt(n)} / gaussian over t in [0, t_max], t_max < n^(1/8).

    Returns the per-point ratios and the sup of |ratio - 1| over the grid.
    """
    n = _as_positive_int(n, "n")
    l = _as_positive_int(l, "l")
    grid_points = _as_positive_int(grid_points, "grid_points")
    t_max = float(t_max)
    limit = n ** 0.125
    if not (0 < t_max < limit):
        raise RangeError(f"t_max must lie in (0, n^(1/8)) = (0, {limit:.6g}), got {t_max!r}")
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
