"""Thin-shell statistics and radial-density estimation from samples."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EmptyBatch, InvalidSpec, RangeError, TooFewSamples
from .model import RadialDensity, _as_positive_int
from .samplers import SampleBatch


class ThinShellFraction(NamedTuple):
    fraction: float
    stderr: float


class TruncatedMoment(NamedTuple):
    """Inverse-power moment off the shell, split at the origin guard t = n^-2."""

    total: float
    guard_part: float
    shell_part: float


def norm_column(data: np.ndarray) -> np.ndarray:
    """The euclidean norm of each row of ``data`` as a (count, 1) column.

    A row-wise reduction instead of np.linalg.norm(..., axis=1), which
    materializes a squared copy of its input.  It also serves as the
    ``reduce`` of ``sample_body``, so thin-shell statistics never need the
    (count, n) batch.
    """
    return np.sqrt(np.einsum("ij,ij->i", data, data))[:, None]


def _norms(batch: SampleBatch) -> np.ndarray:
    if batch.count == 0:
        raise EmptyBatch("batch holds no samples")
    return norm_column(batch.data)[:, 0]


def radial_histogram(batch: SampleBatch, bin_count: int) -> RadialDensity:
    """Histogram of sample norms on [0, max |x_i|]; bin masses sum to 1."""
    bin_count = _as_positive_int(bin_count, "bin_count")
    norms = _norms(batch)
    if batch.count < 10 * bin_count:
        raise TooFewSamples(
            f"need at least 10 samples per bin: {batch.count} samples for {bin_count} bins"
        )
    hi = float(norms.max())
    if hi == 0.0:
        hi = 1.0
    edges = np.linspace(0.0, hi, bin_count + 1)
    counts, _ = np.histogram(norms, bins=edges)
    return RadialDensity.binned(edges, counts / batch.count)


def thin_shell_fraction(
    batch: SampleBatch, epsilon: float, dimension: int | None = None
) -> ThinShellFraction:
    """Fraction of samples with | |x|/sqrt(n) - 1 | >= epsilon, with binomial stderr.

    ``batch`` holds the samples, or, when ``dimension`` gives their n, one
    column of their norms as ``sample_body(..., reduce=norm_column)`` returns.
    """
    epsilon = float(epsilon)
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise RangeError(f"epsilon must be positive, got {epsilon!r}")
    if dimension is None:
        norms, n = _norms(batch), batch.dimension
    else:
        if batch.dimension != 1:
            raise InvalidSpec(f"a norms batch has one column, got {batch.dimension}")
        if batch.count == 0:
            raise EmptyBatch("batch holds no samples")
        norms, n = batch.data[:, 0], _as_positive_int(dimension, "dimension")
    dev = np.abs(norms / math.sqrt(n) - 1.0)
    p = float(np.count_nonzero(dev >= epsilon)) / batch.count
    return ThinShellFraction(p, math.sqrt(p * (1.0 - p) / batch.count))


def truncated_moment(
    g: RadialDensity, l: int, shell_epsilon: float, n: int
) -> TruncatedMoment:
    """Sum of mass_j * midpoint_j^(-l) over bins outside the thin shell.

    "Outside" means midpoint < (1-eps)sqrt(n) or > (1+eps)sqrt(n).  The report
    separates the contribution of bins at or below the origin guard t = n^-2
    (where the inverse power is largest) from the rest of the off-shell range.
    ``l = 0`` turns the moment into plain off-shell mass.
    """
    if not isinstance(g, RadialDensity):
        raise DomainError(f"g must be a RadialDensity, got {type(g).__name__}")
    if g.form != "binned":
        raise InvalidSpec("truncated_moment needs the binned form")
    if isinstance(l, bool) or not isinstance(l, (int, np.integer)) or l < 0:
        raise InvalidSpec(f"l must be a nonnegative integer, got {l!r}")
    n = _as_positive_int(n, "n")
    shell_epsilon = float(shell_epsilon)
    if not (shell_epsilon > 0 and math.isfinite(shell_epsilon)):
        raise RangeError(f"shell_epsilon must be positive, got {shell_epsilon!r}")

    mid = g.midpoints
    if np.any(mid == 0.0):
        raise DomainError("a bin midpoint sits exactly at 0; the inverse power is undefined there")
    root_n = math.sqrt(n)
    off_shell = (mid < (1.0 - shell_epsilon) * root_n) | (mid > (1.0 + shell_epsilon) * root_n)
    weights = np.zeros_like(mid)
    weights[off_shell] = g.mass[off_shell] * mid[off_shell] ** (-float(l))
    in_guard = off_shell & (mid <= n ** -2.0)
    guard = float(weights[in_guard].sum())
    shell = float(weights[~in_guard].sum())
    return TruncatedMoment(guard + shell, guard, shell)
