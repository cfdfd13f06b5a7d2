"""Thin-shell statistics from sample norms."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import EmptyBatch, InvalidSpec, RangeError
from .model import _as_positive_float, _as_positive_int, _require_finite
from .samplers import SampleBatch


class ThinShellFraction(NamedTuple):
    fraction: float
    stderr: float


def norm_column(data: np.ndarray) -> np.ndarray:
    """The euclidean norm of each row of ``data`` as a (count, 1) column.

    A row-wise reduction instead of np.linalg.norm(..., axis=1), which
    materializes a squared copy of its input.  It also serves as the
    ``reduce`` of ``sample_body``, so thin-shell statistics never need the
    (count, n) batch.
    """
    return np.sqrt(np.einsum("ij,ij->i", data, data))[:, None]


def thin_shell_fraction(batch: SampleBatch, epsilon: float, dimension: int) -> ThinShellFraction:
    """Fraction of samples with | |x|/sqrt(n) - 1 | >= epsilon, with binomial stderr.

    ``batch`` is one column of sample norms, as ``sample_body(...,
    reduce=norm_column)`` returns, and ``dimension`` is the samples' n.  A
    NaN or infinite norm is refused.
    """
    epsilon = _as_positive_float(epsilon, "epsilon", RangeError)
    if batch.dimension != 1:
        raise InvalidSpec(f"a norms batch has one column, got {batch.dimension}")
    if batch.count == 0:
        raise EmptyBatch("batch holds no samples")
    n = _as_positive_int(dimension, "dimension")
    _require_finite(batch.data, f"the {batch.count}-row norms batch")
    dev = np.abs(batch.data[:, 0] / math.sqrt(n) - 1.0)
    p = float(np.count_nonzero(dev >= epsilon)) / batch.count
    return ThinShellFraction(p, math.sqrt(p * (1.0 - p) / batch.count))
