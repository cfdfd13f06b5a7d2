"""Core configuration and report types shared by every module.

All types are immutable dataclasses whose invariants are checked on
construction, so a deserialized value is checked as it is rebuilt.  A value
a type can compute from its fields (a ratio report's sup, a certificate's
verdict) is a property, never a stored field: the codec writes it as a
derived key for readers.

Decoding has one rule: a payload is accepted only as the encoding of the
value rebuilt from it.  Every key the encoder writes must be present and
hold, as JSON text, what the rebuilt value encodes there, and a key it does
not write is refused.  A derived key that
disagrees, an int where a float is written, an alias such as ``"laplace"``
for ``"product_laplace"`` and an unknown key are each an ``InvalidSpec``
naming the key.

Every type serializes to plain JSON with snake_case keys through
:func:`to_jsonable` / :func:`from_jsonable` (dispatch on a ``"type"`` tag).
One field-driven codec, attached by :func:`register`, serves every type.
Floats survive the round trip exactly because ``json`` emits shortest-repr
doubles; arrays are stored as nested lists.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import InvalidSpec

_GRAM_TOL = 1e-10

_REGISTRY: dict[str, type] = {}

# Field metadata read by the codec.  NESTED: the field holds a registered value
# that is decoded from its own tagged dict (other dicts stay plain, even tagged ones).
NESTED = {"nested": True}


def register(tag: str, keys: tuple = ()):
    """Class decorator: make a dataclass round-trippable under the given JSON tag.

    The JSON object is the ``"type"`` tag followed by one key per name in
    ``keys`` (default: the dataclass fields, in order), which names every
    field.  A name that is not a field is a derived attribute, written for
    readers.  A trailing underscore is dropped from the key (``lambda_`` is
    written as ``lambda``).  Decoding refuses a payload that lacks a key,
    rebuilds the value from the field keys and accepts the payload only if
    the value encodes to it: each key equal as JSON text, and no other key.
    """

    def deco(cls):
        cls.json_tag = tag
        cls.json_keys = keys or tuple(f.name for f in fields(cls))
        cls.to_jsonable = _encode_fields
        cls.from_jsonable = classmethod(_decode_fields)
        _REGISTRY[tag] = cls
        return cls

    return deco


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    if hasattr(value, "json_tag"):
        return value.to_jsonable()
    return value


def _encode_fields(self) -> dict:
    d = {"type": self.json_tag}
    for name in self.json_keys:
        d[name.rstrip("_")] = _plain(getattr(self, name))
    return d


def _decode_fields(cls, d: dict):
    for name in ("type", *cls.json_keys):
        if name.rstrip("_") not in d:
            raise InvalidSpec(f"serialized {cls.json_tag} is missing key {name.rstrip('_')!r}")
    kwargs = {}
    for f in fields(cls):
        v = d[f.name.rstrip("_")]
        kwargs[f.name] = from_jsonable(v) if f.metadata.get("nested") and v is not None else v
    value = cls(**kwargs)
    encoded = value.to_jsonable()
    for key, v in d.items():
        if key not in encoded:
            raise InvalidSpec(f"serialized {cls.json_tag} has unknown key {key!r}")
        # As JSON text, so a value that only compares equal (1 for 1.0 or true) is refused.
        if json.dumps(v, sort_keys=True) != json.dumps(encoded[key], sort_keys=True):
            raise InvalidSpec(
                f"stored {key} {reprlib.repr(v)} disagrees with the value rebuilt from the "
                f"{cls.json_tag} payload, which encodes it as {reprlib.repr(encoded[key])}"
            )
    return value


def to_jsonable(value):
    """Convert a registered value to a plain JSON-ready dict."""
    conv = getattr(value, "to_jsonable", None)
    if conv is None:
        raise TypeError(f"{type(value).__name__} is not a serializable model type")
    return conv()


def _reject_non_finite(value, key: str) -> None:
    """Refuse a NaN or infinite float anywhere in a payload, naming its key path."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidSpec(f"serialized key {key!r} holds the non-finite number {float(value)!r}")
    elif isinstance(value, dict):
        for k, v in value.items():
            _reject_non_finite(v, f"{key}.{k}" if key else str(k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _reject_non_finite(v, f"{key}[{i}]")


def from_jsonable(payload: dict):
    """Rebuild a registered value from its JSON dict (inverse of to_jsonable).

    A NaN or infinite float anywhere in the payload, free-form fields such
    as ``RatioReport.meta`` included, is an ``InvalidSpec`` naming its key.
    """
    # Importing these registers the codec types defined outside this module.
    from . import deconvolution, samplers, spherical  # noqa: F401

    _reject_non_finite(payload, "")
    if not isinstance(payload, dict) or "type" not in payload:
        raise InvalidSpec("serialized value must be a dict with a 'type' tag")
    cls = _REGISTRY.get(payload["type"])
    if cls is None:
        raise InvalidSpec(f"unknown serialized type tag {payload['type']!r}")
    return cls.from_jsonable(payload)


def dumps(value, indent=None) -> str:
    return json.dumps(to_jsonable(value), indent=indent)


def _reject_json_constant(name: str):
    """``parse_constant`` hook for ``json``: refuse ``NaN``, ``Infinity`` and ``-Infinity``.

    ``json`` accepts these non-standard constants by default, which would let
    a non-finite float into any field.
    """
    raise InvalidSpec(f"JSON constant {name} is not a finite number")


def loads(text: str):
    return from_jsonable(json.loads(text, parse_constant=_reject_json_constant))


def _as_float_array(x, name: str, ndim: int) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != ndim:
        raise InvalidSpec(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidSpec(f"{name} contains non-finite entries")
    return a


def _require_finite(a: np.ndarray, what: str) -> None:
    """Refuse an array holding a NaN or an infinity, as ``InvalidSpec`` naming ``what``."""
    # min and max propagate NaN and reach any infinity with no full-size temporary.
    if not (math.isfinite(a.min()) and math.isfinite(a.max())):
        raise InvalidSpec(f"{what} holds non-finite values")


def _as_nonnegative_array(x, name: str, error=InvalidSpec) -> np.ndarray:
    """``x`` as a float64 array, refused unless non-empty, nonnegative and finite."""
    a = np.asarray(x, dtype=np.float64)
    if a.size == 0 or not np.all((a >= 0.0) & (a < math.inf)):
        raise error(f"{name} must be non-empty and nonnegative, with no NaN or infinity")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_int(x, name: str) -> int:
    """``x`` as an int, refused with ``InvalidSpec`` if it is a bool or not an integer."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise InvalidSpec(f"{name} must be an integer, got {x!r}")
    return int(x)


def _as_positive_int(x, name: str) -> int:
    x = _as_int(x, name)
    if x < 1:
        raise InvalidSpec(f"{name} must be >= 1, got {x}")
    return x


def _as_positive_float(x, name: str, error=InvalidSpec) -> float:
    """``x`` as a float, refused with ``error`` unless positive and finite.

    A bool or a string, which ``float`` would take, and None are refused with ``InvalidSpec``.
    """
    if isinstance(x, (bool, np.bool_, str, type(None))):
        raise InvalidSpec(f"{name} must be a number, got {x!r}")
    v = float(x)
    if not (v > 0.0 and math.isfinite(v)):
        raise error(f"{name} must be positive, got {v!r}")
    return v


class BodyKind(str, Enum):
    """The closed catalog of isotropically normalized source distributions."""

    CUBE = "cube"
    BALL = "ball"
    SIMPLEX = "simplex"
    PRODUCT_LAPLACE = "product_laplace"
    STANDARD_GAUSSIAN = "gaussian"

    @classmethod
    def parse(cls, value) -> "BodyKind":
        if isinstance(value, cls):
            return value
        aliases = {"laplace": "product_laplace", "standard_gaussian": "gaussian"}
        key = str(value).lower()
        key = aliases.get(key, key)
        try:
            return cls(key)
        except ValueError:
            known = ", ".join(k.value for k in cls)
            raise InvalidSpec(f"unknown body kind {value!r}; known kinds: {known}") from None


@register("body_spec")
@dataclass(frozen=True)
class BodySpec:
    """A named source distribution together with its ambient dimension.

    Every kind is normalized to mean zero and identity covariance, either in
    closed form (cube, ball, product_laplace, gaussian) or by the exact
    whitening map of the regular simplex.
    """

    kind: BodyKind
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "kind", BodyKind.parse(self.kind))
        object.__setattr__(self, "dimension", _as_positive_int(self.dimension, "dimension"))


@register("convolution_schedule", keys=("alpha", "lambda_"))
@dataclass(frozen=True)
class ConvolutionSchedule:
    """Smoothing schedule: one knob ``alpha`` fixes the derived rate and the
    dimension-dependent noise variance.

    ``lambda_`` is always exactly ``1 / (5*alpha + 20)`` and the gaussian noise
    added to an n-dimensional sample has variance ``n ** (-alpha * lambda_)``.
    """

    alpha: float

    def __post_init__(self):
        a = _as_positive_float(self.alpha, "alpha")
        if a >= 1e5:
            raise InvalidSpec(f"alpha must lie in (0, 1e5), got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)

    @property
    def lambda_(self) -> float:
        return 1.0 / (5.0 * self.alpha + 20.0)

    def noise_variance(self, n: int) -> float:
        n = _as_positive_int(n, "n")
        return float(n) ** (-self.alpha * self.lambda_)


@register("subspace_basis", keys=("ambient_dim", "subspace_dim", "rows"))
@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """An orthonormal frame whose rows span an l-dimensional subspace of R^n.

    ``rows`` is stored C-contiguous, whatever order it is given in, because
    the bits of a projection depend on it: OpenBLAS picks the kernel of a
    product with ``rows.T`` by the memory order of ``rows``, and the row-dot
    loop of ``grassmann.project`` reads each basis row as one run.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = _freeze(np.ascontiguousarray(_as_float_array(self.rows, "rows", 2)))
        object.__setattr__(self, "rows", rows)
        l, n = rows.shape
        if not 1 <= l <= n:
            raise InvalidSpec(f"need 1 <= subspace_dim <= ambient_dim, got shape {rows.shape}")
        gram = rows @ rows.T
        dev = float(np.max(np.abs(gram - np.eye(l))))
        if dev > _GRAM_TOL:
            raise InvalidSpec(f"rows are not orthonormal: max Gram deviation {dev:.3e} > {_GRAM_TOL}")

    @property
    def ambient_dim(self) -> int:
        return self.rows.shape[1]

    @property
    def subspace_dim(self) -> int:
        return self.rows.shape[0]


@register("radial_density")
@dataclass(frozen=True, eq=False)
class RadialDensity:
    """Distribution of the euclidean norm in closed form.

    ``form`` is always "chi": the norm of a standard n-dimensional gaussian,
    a chi law with ``chi_dim`` degrees of freedom.  The field stays so that
    the JSON names the law.
    """

    form: str
    chi_dim: int

    def __post_init__(self):
        if self.form != "chi":
            raise InvalidSpec(f"form must be 'chi', got {self.form!r}")
        object.__setattr__(self, "chi_dim", _as_positive_int(self.chi_dim, "chi_dim"))

    @classmethod
    def closed_form_chi(cls, n: int) -> "RadialDensity":
        return cls(form="chi", chi_dim=n)


@register("density_estimate")
@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Pointwise density values of a projected sample with per-point uncertainty."""

    points: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    sample_count: int
    bandwidth: float

    def __post_init__(self):
        points = _freeze(_as_float_array(self.points, "points", 2))
        values = _freeze(_as_float_array(self.values, "values", 1))
        stderr = _freeze(_as_float_array(self.stderr, "stderr", 1))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "stderr", stderr)
        k = points.shape[0]
        if values.size != k or stderr.size != k:
            raise InvalidSpec("points, values and stderr must have matching lengths")
        if np.any(values < 0):
            raise InvalidSpec("density values must be nonnegative")
        if np.any(stderr < 0):
            raise InvalidSpec("standard errors must be nonnegative")
        object.__setattr__(self, "sample_count", _as_positive_int(self.sample_count, "sample_count"))
        object.__setattr__(self, "bandwidth", _as_positive_float(self.bandwidth, "bandwidth"))

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@register("ratio_report", keys=("radius_grid", "per_point_ratios", "sup_abs_deviation", "meta"))
@dataclass(frozen=True, eq=False)
class RatioReport:
    """Per-point density-to-gaussian ratios and their worst deviation from 1."""

    radius_grid: np.ndarray
    per_point_ratios: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = _freeze(_as_float_array(self.radius_grid, "radius_grid", 1))
        ratios = _freeze(_as_float_array(self.per_point_ratios, "per_point_ratios", 1))
        object.__setattr__(self, "radius_grid", grid)
        object.__setattr__(self, "per_point_ratios", ratios)
        if grid.size != ratios.size or grid.size == 0:
            raise InvalidSpec("radius_grid and per_point_ratios must be nonempty and equal-length")
        if not isinstance(self.meta, dict):
            raise InvalidSpec("meta must be a JSON-ready dict")

    @property
    def sup_abs_deviation(self) -> float:
        return float(np.max(np.abs(self.per_point_ratios - 1.0)))
