"""Samplers for the isotropic body catalog, gaussian noise, and smoothed vectors.

Normalizations (all kinds have mean 0 and identity covariance):

* cube — i.i.d. coordinates uniform on [-sqrt(3), sqrt(3)], variance (2*sqrt(3))^2/12 = 1.
* ball — uniform on the centered euclidean ball of radius sqrt(n+2); drawn as
  (gaussian direction) x (radius with CDF (r/R)^n), which is exact and
  rejection-free in every dimension, and gives E|X|^2 = n R^2/(n+2) = n.
* simplex — uniform on the regular n-simplex via normalized exponential
  spacings (the first n coordinates of a flat Dirichlet), centered at its
  known mean 1/(n+1) and whitened with the closed-form inverse square root of
  the simplex covariance.  With a = 1/((n+1)(n+2)) the covariance is
  a*(I - J/(n+1)), whose inverse square root acts as 1/sqrt(a) orthogonal to
  the all-ones direction and sqrt((n+1)/a) along it — so whitening is two
  rank-one updates per sample, no n x n matrix.
* product_laplace — i.i.d. two-sided exponential with scale 1/sqrt(2), since
  Var(Laplace(b)) = 2 b^2.
* gaussian — standard normal coordinates.

Generation is chunked: the root ``SeedSequence`` is split into one child per
``CHUNK`` rows, and each chunk is drawn by its own generator.  Results are
therefore bit-identical for a given (spec, count, seed) no matter how many
worker threads are used.  Within a chunk the generator fills the rows
``BLOCK`` at a time, in order; for every kind but the ball this draws the
same stream as one fill of the whole chunk.  ``CHUNK`` and ``BLOCK`` are both
part of the stream.  There are two forms:

* full — each block is written into its rows of one preallocated (count, n)
  array, which is returned; the whole batch is held in memory, so a batch
  larger than physical memory is refused with ``RangeError`` before any
  allocation.
* reduce (``sample_body`` only) — each block is drawn into a (BLOCK, n)
  scratch buffer its worker thread reuses, passed at once to a ``reduce``
  function (a projection, the norms, moment sums) while it is still in
  cache, and then overwritten, so memory is one block buffer per thread
  plus the reduced outputs.  The per-block results come back in block order.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, RangeError
from .model import (
    BodyKind,
    BodySpec,
    ConvolutionSchedule,
    GaussianSpec,
    _as_positive_int,
    _freeze,
    _reject_json_constant,
    register,
)

CHUNK = 1 << 16
BLOCK = 1 << 12

_SQRT3 = math.sqrt(3.0)
_LAPLACE_SCALE = 1.0 / math.sqrt(2.0)


@register("sample_batch", keys=("dimension", "count", "seed", "source", "data"))
@dataclass(frozen=True, eq=False)
class SampleBatch:
    """An immutable (count, dimension) block of samples with its provenance."""

    data: np.ndarray
    seed: object
    source: dict

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim != 2:
            raise InvalidSpec(f"data must be a (count, dimension) array, got shape {a.shape}")
        object.__setattr__(self, "data", _freeze(a))
        if not isinstance(self.source, dict):
            raise InvalidSpec("source must be a JSON-ready dict")

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dimension(self) -> int:
        return self.data.shape[1]


def _seed_seq(seed) -> np.random.SeedSequence:
    """A fresh ``SeedSequence`` for ``seed``.

    A given sequence is copied, because spawning advances the sequence it is
    called on: the copy leaves the caller's sequence as it was, so the same
    seed draws the same sample however often it is used.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    return np.random.SeedSequence(int(seed))


def _seed_jsonable(seed):
    """A JSON-ready description of a seed (int or spawned SeedSequence)."""
    if isinstance(seed, np.random.SeedSequence):
        return {"entropy": seed.entropy, "spawn_key": list(seed.spawn_key)}
    return int(seed)


def _require_memory(what: str, need: int) -> None:
    """Raise ``RangeError`` if ``need`` bytes for ``what`` exceed physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise RangeError(
            f"{what} needs {need} bytes, more than the {have} bytes of physical memory"
        )


def _generate(count: int, dim: int, seed, fill, threads: int = 1, reduce=None, rowwise=False):
    """Draw ``count`` rows of width ``dim`` block by block with ``fill(rng, out, rows)``.

    Each chunk's generator fills its rows ``BLOCK`` at a time, in order.
    Without ``reduce`` the blocks are slices of one (count, dim) array, which
    is returned.  With ``reduce`` each block is filled into its worker's
    scratch buffer and passed to ``reduce(block)``, and the list of results
    is returned in block order.  The buffer is refilled with the worker's
    next block, so ``reduce`` must return new arrays and keep no view of its
    input.

    ``rowwise`` declares that ``reduce`` maps each row to one output row.  It
    is then given the whole buffer for every block, a short last block
    followed by finite leftover rows, and the output rows past the block are
    dropped.  A matrix product's rounding can depend on its row count
    (OpenBLAS takes another kernel for small products), so this way each
    block's product rounds as a full block's does.
    """
    if reduce is None:
        _require_memory(f"a {count} x {dim} batch", count * dim * 8)
        out = np.empty((count, dim), dtype=np.float64)
    else:
        scratch = threading.local()
        height = min(BLOCK, count)
    chunks = range(0, count, CHUNK)
    children = _seed_seq(seed).spawn(len(chunks))

    def work(i):
        rng = np.random.default_rng(children[i])
        stop = min(chunks[i] + CHUNK, count)
        results = []
        for lo in range(chunks[i], stop, BLOCK):
            rows = slice(lo, min(lo + BLOCK, stop))
            if reduce is None:
                fill(rng, out[rows], rows)
                continue
            if not hasattr(scratch, "buf"):
                scratch.buf = np.zeros((height, dim), dtype=np.float64)
            m = rows.stop - rows.start
            fill(rng, scratch.buf[:m], rows)
            if rowwise:
                results.append(reduce(scratch.buf[:height])[:m])
            else:
                results.append(reduce(scratch.buf[:m]))
        return results

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_chunk = list(pool.map(work, range(len(chunks))))
    else:
        per_chunk = [work(i) for i in range(len(chunks))]
    return out if reduce is None else [r for results in per_chunk for r in results]


def _fill_cube(rng, out, _rows):
    # In place, with the bits of rng.uniform(-_SQRT3, _SQRT3): low + (high - low) * u.
    rng.random(out=out)
    out *= _SQRT3 - (-_SQRT3)
    out += -_SQRT3


def _fill_ball(rng, out, _rows):
    m, n = out.shape
    rng.standard_normal(out=out)
    norms = np.linalg.norm(out, axis=1)
    norms[norms == 0.0] = 1.0
    radii = math.sqrt(n + 2.0) * rng.random(m) ** (1.0 / n)
    out *= (radii / norms)[:, None]


def _fill_simplex(rng, out, _rows):
    m, n = out.shape
    spacings = rng.standard_exponential(size=(m, n + 1))
    np.divide(spacings[:, :n], spacings.sum(axis=1, keepdims=True), out=out)
    del spacings
    out -= 1.0 / (n + 1.0)
    a = 1.0 / ((n + 1.0) * (n + 2.0))
    row_mean = out.mean(axis=1, keepdims=True)
    out -= row_mean
    out /= math.sqrt(a)
    out += row_mean * math.sqrt((n + 1.0) / a)


def _fill_laplace(rng, out, _rows):
    out[...] = rng.laplace(0.0, _LAPLACE_SCALE, size=out.shape)


def _fill_gaussian(rng, out, _rows):
    rng.standard_normal(out=out)


_FILLS = {
    BodyKind.CUBE: _fill_cube,
    BodyKind.BALL: _fill_ball,
    BodyKind.SIMPLEX: _fill_simplex,
    BodyKind.PRODUCT_LAPLACE: _fill_laplace,
    BodyKind.STANDARD_GAUSSIAN: _fill_gaussian,
}


def sample_body(
    spec: BodySpec, count: int, seed, threads: int = 1, reduce=None, rowwise: bool = False
) -> SampleBatch:
    """Draw i.i.d. samples from the isotropically normalized body.

    With ``reduce`` the (count, n) batch is never held: each block of rows is
    mapped by ``reduce`` to a new 2-D array, and the returned batch stacks
    those arrays in block order.  ``rowwise`` is as in :func:`_generate`.
    """
    if not isinstance(spec, BodySpec):
        raise InvalidSpec(f"spec must be a BodySpec, got {type(spec).__name__}")
    count = _as_positive_int(count, "count")
    source = {"draw": "body", "spec": spec.to_jsonable()}
    data = _generate(count, spec.dimension, seed, _FILLS[spec.kind], threads, reduce, rowwise)
    if reduce is not None:
        data = np.concatenate(data)
        source = {"draw": "reduced", "of": source}
    return SampleBatch(data=data, seed=_seed_jsonable(seed), source=source)


def sample_gaussian(spec: GaussianSpec, count: int, seed, threads: int = 1) -> SampleBatch:
    """Draw i.i.d. samples from the isotropic gaussian with the given variance."""
    if not isinstance(spec, GaussianSpec):
        raise InvalidSpec(f"spec must be a GaussianSpec, got {type(spec).__name__}")
    count = _as_positive_int(count, "count")
    sigma = math.sqrt(spec.variance)

    def fill(rng, out, _rows):
        rng.standard_normal(out=out)
        if sigma != 1.0:
            out *= sigma

    data = _generate(count, spec.dimension, seed, fill, threads)
    source = {"draw": "gaussian", "spec": spec.to_jsonable()}
    return SampleBatch(data=data, seed=_seed_jsonable(seed), source=source)


def convolve_and_rescale(
    x: SampleBatch,
    schedule: ConvolutionSchedule,
    seed,
    noise_variance: float | None = None,
    threads: int = 1,
) -> SampleBatch:
    """Return (x + y) / sqrt(1 + v) with y fresh gaussian noise of variance v.

    v defaults to ``schedule.noise_variance(x.dimension)``; passing
    ``noise_variance=0.0`` makes the operation the identity on the data.
    The rescaling keeps an isotropic input isotropic.
    """
    v = schedule.noise_variance(x.dimension) if noise_variance is None else float(noise_variance)
    if not (v >= 0.0 and math.isfinite(v)):
        raise InvalidSpec(f"noise variance must be finite and >= 0, got {noise_variance!r}")
    source = {
        "draw": "convolved_rescaled",
        "of": x.source,
        "schedule": schedule.to_jsonable(),
        "noise_variance": v,
        "noise_seed": _seed_jsonable(seed),
    }
    if v == 0.0:
        return SampleBatch(data=x.data, seed=x.seed, source=source)

    sigma = math.sqrt(v)
    scale = 1.0 / math.sqrt(1.0 + v)

    def fill(rng, out, rows):
        rng.standard_normal(out=out)
        out *= sigma
        out += x.data[rows]
        out *= scale

    data = _generate(x.count, x.dimension, seed, fill, threads)
    return SampleBatch(data=data, seed=x.seed, source=source)


@contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Open a fresh temp file beside ``path`` for writing; it replaces ``path`` on success.

    ``mode`` is "w" or "wb".  If the body raises, the temp file is removed and
    ``path`` is left as it was, so a reader never sees a half-written artifact.
    Only a new path or a regular file is replaced; anything else, such as a
    symlink, a FIFO or ``/dev/null``, is written through as ``open`` would.
    """
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, mode) as f:
            yield f
        return
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, mode.replace("w", "x")) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_json_object(path: str, what: str) -> dict:
    """Load a JSON object from ``path``; any failure is an ``InvalidSpec`` naming the file.

    The non-finite constants ``NaN``, ``Infinity`` and ``-Infinity`` are refused.
    """
    try:
        with open(path) as f:
            obj = json.load(f, parse_constant=_reject_json_constant)
    except OSError as exc:
        raise InvalidSpec(f"cannot read {what} {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{what} {path} is not valid JSON: {exc}") from None
    except InvalidSpec as exc:
        raise InvalidSpec(f"{what} {path} is not valid: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidSpec(f"{what} {path} must hold a JSON object, got {type(obj).__name__}")
    return obj


def save_batch(batch: SampleBatch, path: str, config: dict | None = None) -> None:
    """Write the batch as column-major float64 binary plus a JSON sidecar, each atomically."""
    sidecar = {
        "schema_version": 1,
        "dimension": batch.dimension,
        "count": batch.count,
        "seed": batch.seed,
        "source": batch.source,
        "dtype": "float64",
        "order": "column_major",
    }
    if config is not None:
        sidecar["config"] = config
    # The sidecar, which readers trust, is renamed into place after the data.
    with atomic_open(path + ".json") as f, atomic_open(path, "wb") as data_file:
        batch.data.ravel(order="F").tofile(data_file)
        json.dump(sidecar, f, indent=2)
        f.write("\n")


def load_batch(path: str) -> SampleBatch:
    """Inverse of :func:`save_batch`.

    An unreadable or incomplete sidecar, a ``count`` or ``dimension`` that is
    not a positive integer, a data file of the wrong size, a missing data file
    and non-finite data each raise ``InvalidSpec`` naming the file; a batch
    larger than physical memory raises ``RangeError`` before it is read.
    """
    sidecar_path = path + ".json"
    sidecar = read_json_object(sidecar_path, "batch sidecar")
    if sidecar.get("dtype") != "float64" or sidecar.get("order") != "column_major":
        raise InvalidSpec(f"unsupported batch layout in sidecar {sidecar_path}")
    for key in ("count", "dimension", "seed", "source"):
        if key not in sidecar:
            raise InvalidSpec(f"sidecar {sidecar_path} is missing key '{key}'")
    count, dim = sidecar["count"], sidecar["dimension"]
    for key, value in (("count", count), ("dimension", dim)):
        if type(value) is not int or value < 1:
            raise InvalidSpec(
                f"sidecar {sidecar_path} key '{key}' must be a positive integer, got {value!r}"
            )
    need = count * dim * 8
    _require_memory(f"a {count} x {dim} batch", need)
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size != need:
                raise InvalidSpec(
                    f"batch file {path} holds {size} bytes, sidecar promises {count}x{dim} "
                    f"doubles ({need} bytes)"
                )
            flat = np.fromfile(f, dtype=np.float64)
    except OSError as exc:
        raise InvalidSpec(f"cannot read batch file {path}: {exc.strerror}") from None
    # min and max propagate NaN and reach any infinity with no full-size temporary.
    if not (math.isfinite(flat.min()) and math.isfinite(flat.max())):
        raise InvalidSpec(f"batch file {path} holds non-finite values")
    data = flat.reshape((count, dim), order="F")
    return SampleBatch(data=data, seed=sidecar["seed"], source=sidecar["source"])


def save_batch_csv(batch: SampleBatch, path: str, config: dict | None = None) -> None:
    """Write the batch as CSV: '#'-prefixed provenance lines, header, rows."""
    header = {
        "schema_version": 1,
        "dimension": batch.dimension,
        "count": batch.count,
        "seed": batch.seed,
        "source": batch.source,
    }
    if config is not None:
        header["config"] = config
    with atomic_open(path) as f:
        f.write("# " + json.dumps(header) + "\n")
        f.write(",".join(f"x{i}" for i in range(batch.dimension)) + "\n")
        for row in batch.data:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
