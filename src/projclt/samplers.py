"""Samplers for the isotropic body catalog, gaussian noise, and smoothed vectors.

Normalizations (all kinds have mean 0 and identity covariance):

* cube — i.i.d. coordinates uniform on [-sqrt(3), sqrt(3)], variance (2*sqrt(3))^2/12 = 1.
* ball — uniform on the centered euclidean ball of radius sqrt(n+2); drawn as
  sqrt(n+2) Z_1..Z_n / |Z| from n + 2 standard normals Z, which is exact and
  rejection-free in every dimension (Barthe, Guedon, Mendelson and Naor,
  Ann. Probab. 2005, at p = 2), and gives E|X|^2 = (n+2) n/(n+2) = n.
* simplex — uniform on the regular n-simplex via normalized exponential
  spacings (the first n coordinates of a flat Dirichlet), centered at its
  known mean 1/(n+1) and whitened with the closed-form inverse square root of
  the simplex covariance.  With a = 1/((n+1)(n+2)) the covariance is
  a*(I - J/(n+1)), whose inverse square root acts as 1/sqrt(a) orthogonal to
  the all-ones direction and sqrt((n+1)/a) along it — so whitening is two
  rank-one updates per sample, no n x n matrix.  Both fold into one scale and
  one shift per row: with E_0..E_n the spacings, T their sum and
  mu = ((T - E_n)/T - n/(n+1))/n the row mean of the centred coordinates,
  x_i = E_i / (T sqrt(a)) + (-1/(n+1) - mu)/sqrt(a) + mu sqrt((n+1)/a).
* product_laplace — i.i.d. two-sided exponential with scale b = 1/sqrt(2),
  since Var(Laplace(b)) = 2 b^2, drawn by inverse CDF from one uniform u per
  value as numpy's ``Generator.laplace`` draws it: b log(2u) for u < 1/2,
  -b log(2 - 2u) otherwise.
* gaussian — standard normal coordinates.

Generation is by block: block i, ``BLOCK`` rows (a short last block fewer),
is drawn by its own generator, seeded with the i-th child of the root
``SeedSequence``.  Results are therefore bit-identical for a given (spec,
count, seed) however many worker threads share the blocks, and a longer draw
begins with the blocks of a shorter one; ``BLOCK`` is part of the stream.
Within a block, rows are drawn and reduced a tile at a time: a tile is the
most rows that ``TILE_BYTES``, a 2 MiB per-core L2 cache, holds, at most
``BLOCK`` (873 rows at n = 300).  Every fill draws its rows in order from
the block's generator, so the tiles of a block have the block's bits.
Every tile takes one path: it is drawn into a buffer of its worker thread,
passed at once to a reducer while it is still in cache, and then
overwritten, and the reducer sees the tiles of each block in row order.
A reducer is a projection, the norms, moment sums or the batch-file writer
of :func:`save_sample`, and memory is then one tile buffer per thread plus
the reduced outputs, which :func:`sample_body` stacks into one more copy.
Without one, each tile is
copied into its rows of a (count, n) array that holds the whole batch, so a
batch larger than physical memory is refused with ``RangeError`` before any
allocation; only library callers and the CSV writer draw a whole batch.
Smoothing by gaussian noise is a library call only: :func:`convolve_and_rescale`
smooths a batch held in memory, and no artifact writer draws noise.

A batch file is column-major float64 with a JSON sidecar.  Its writer places
each block's column segments by offset, so blocks may arrive in any order,
and its reader (:func:`load_batch`) reads a block at a time as well.
"""

from __future__ import annotations

import json
import math
import os
import stat
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
    _require_finite,
    register,
)

# The artifact schema, ``schema_version`` in every batch sidecar, CSV header and CLI
# JSON: it moves whenever the same inputs give an artifact other bytes.
SCHEMA_VERSION = 11
BLOCK = 1 << 12
# Bytes of one tile, the rows drawn and reduced at once: a 2 MiB per-core L2.  At 1 MiB
# an n = 50 block splits in two, which doubles the batch writer's positioned writes.
TILE_BYTES = 1 << 21

# Unit-variance scales, shared with ``deconvolution``: the uniform's half-width, Laplace's b.
_SQRT3 = math.sqrt(3.0)
_LAPLACE_SCALE = 1.0 / math.sqrt(2.0)
_LAPLACE_FLOOR = 2.0**-53


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
    """A fresh ``SeedSequence`` for ``seed``, a ``SeedSequence`` or a non-negative integer.

    A given sequence is copied, because spawning advances the sequence it is
    called on: the copy leaves the caller's sequence as it was, so the same
    seed draws the same sample however often it is used.  Any other seed,
    a negative one, a float or a bool among them, is refused with
    ``InvalidSpec`` naming it.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidSpec(f"seed must be a non-negative integer, got {seed!r}")
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


def _block_rng(root: np.random.SeedSequence, i: int) -> np.random.Generator:
    """Block ``i``'s generator, seeded with ``root.spawn(i + 1)[i]`` of a fresh ``root``."""
    key = (*root.spawn_key, i)
    child = np.random.SeedSequence(root.entropy, spawn_key=key, pool_size=root.pool_size)
    return np.random.default_rng(child)


def _generate(count: int, dim: int, seed, fill, threads: int = 1, reduce=None):
    """Draw ``count`` rows of width ``dim`` block by block with ``fill(rng, out, rows)``.

    Block i, rows ``i*BLOCK`` up to ``(i+1)*BLOCK`` or ``count``, is drawn
    by ``_block_rng(seed, i)``, one tile at a time: a tile is the most rows
    of width ``dim`` that ``TILE_BYTES`` holds, at most ``BLOCK``.  The
    workers take block indices from one shared iterator, fill each tile of
    the block into a buffer of their own and pass it to ``reduce(tile,
    rows)``, a block's tiles in row order; the results are returned in row
    order, one per tile.  The buffer is refilled with the worker's next
    tile, so ``reduce`` must return new arrays or write its output
    elsewhere, and keep no view of its input.  Without ``reduce`` each tile
    is copied into its rows of one (count, dim) array, which is returned.
    A worker that raises empties the iterator, so the others stop after
    their current block.
    """
    threads = _as_positive_int(threads, "threads")
    whole = reduce is None
    if whole:
        _require_memory(f"a {count} x {dim} batch", count * dim * 8)
        out = np.empty((count, dim), dtype=np.float64)

        def reduce(tile, rows):
            out[rows] = tile

    tile = max(1, min(BLOCK, TILE_BYTES // (8 * dim)))
    height = min(tile, count)
    blocks = range(0, count, BLOCK)
    # Each worker's buffer is made by the calling thread: it comes from its
    # allocator arena and is reused run after run, where a buffer made in each
    # run's fresh worker threads could each stay resident in another arena.
    # Each worker also holds, inside ``fill``, at most one height x (dim + 2) temporary.
    workers = min(threads, len(blocks))
    need = 8 * workers * height * (2 * dim + 2)
    _require_memory(f"{workers} worker threads' {height} x {dim} blocks", need)
    root = _seed_seq(seed)
    results = [None] * len(blocks)
    todo, lock = iter(range(len(blocks))), threading.Lock()

    def work(buf):
        try:
            while True:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                rng, stop = _block_rng(root, i), min(blocks[i] + BLOCK, count)
                results[i] = []
                for lo in range(blocks[i], stop, tile):
                    rows = slice(lo, min(lo + tile, stop))
                    part = buf[: rows.stop - lo]
                    fill(rng, part, rows)
                    results[i].append(reduce(part, rows))
        except BaseException:
            with lock:
                for _ in todo:
                    pass
            raise

    bufs = [np.empty((height, dim)) for _ in range(workers)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, bufs))
    else:
        work(bufs[0])
    return out if whole else [r for parts in results for r in parts]


def norm_column(data: np.ndarray) -> np.ndarray:
    """The euclidean norm of each row of ``data`` as a (count, 1) column.

    A row-wise reduction instead of np.linalg.norm(..., axis=1), which
    materializes a squared copy of its input.  It scales the ball's normals,
    and it also serves as the ``reduce`` of ``sample_body``, so thin-shell
    statistics (``radial``) never need the (count, n) batch.
    """
    return np.sqrt(np.einsum("ij,ij->i", data, data))[:, None]


def _fill_cube(rng, out, _rows):
    # In place, with the bits of rng.uniform(-_SQRT3, _SQRT3): low + (high - low) * u.
    rng.random(out=out)
    out *= _SQRT3 - (-_SQRT3)
    out += -_SQRT3


def _fill_ball(rng, out, _rows):
    # The module docstring's sqrt(n+2) Z_1..Z_n / |Z|.
    m, n = out.shape
    z = rng.standard_normal(size=(m, n + 2))
    np.multiply(z[:, :n], math.sqrt(n + 2.0) / norm_column(z), out=out)


def _fill_simplex(rng, out, _rows):
    # The closed form of the module docstring: a pass for T and two over the block.
    m, n = out.shape
    spacings = rng.standard_exponential(size=(m, n + 1))
    total = spacings.sum(axis=1)
    a = 1.0 / ((n + 1.0) * (n + 2.0))
    root_a = math.sqrt(a)
    mu = ((total - spacings[:, n]) / total - n / (n + 1.0)) / n
    shift = (-1.0 / (n + 1.0) - mu) / root_a + mu * math.sqrt((n + 1.0) / a)
    np.multiply(spacings[:, :n], (1.0 / (total * root_a))[:, None], out=out)
    out += shift[:, None]


def _fill_laplace(rng, out, _rows):
    """numpy's Laplace inverse CDF, in place, from one uniform u per value.

    The value is copysign(-b log(min(2u, 2 - 2u)), 2u - 1), with 2u, 2 - 2u
    and 2u - 1 each exact: b log(2u) for u < 1/2 and -b log(2 - 2u)
    otherwise, as ``Generator.laplace`` computes it from the same u, but
    with one vectorised logarithm in place of a scalar call per value.
    numpy rounds 2 - u - u, so for u >= 1/2 the two may differ by that
    rounding.  numpy draws again at u = 0 (probability 2^-53); this fill
    clamps the logarithm's argument to 2^-53 there and gives the finite
    b log(2^-53) = -53 b ln 2 instead.
    """
    rng.random(out=out)
    out += out
    mag = np.subtract(2.0, out)
    np.minimum(mag, out, out=mag)
    np.maximum(mag, _LAPLACE_FLOOR, out=mag)
    np.log(mag, out=mag)
    mag *= -_LAPLACE_SCALE
    out -= 1.0
    np.copysign(mag, out, out=out)


def _fill_gaussian(rng, out, _rows):
    rng.standard_normal(out=out)


_FILLS = {
    BodyKind.CUBE: _fill_cube,
    BodyKind.BALL: _fill_ball,
    BodyKind.SIMPLEX: _fill_simplex,
    BodyKind.PRODUCT_LAPLACE: _fill_laplace,
    BodyKind.STANDARD_GAUSSIAN: _fill_gaussian,
}


def _body_source(spec: BodySpec) -> dict:
    if not isinstance(spec, BodySpec):
        raise InvalidSpec(f"spec must be a BodySpec, got {type(spec).__name__}")
    return {"draw": "body", "spec": spec.to_jsonable()}


def sample_body(spec: BodySpec, count: int, seed, threads: int = 1, reduce=None) -> SampleBatch:
    """Draw i.i.d. samples from the isotropically normalized body.

    With ``reduce`` the (count, n) batch is never held: each tile of rows
    (see :func:`_generate`) is mapped by ``reduce(tile)`` to a new 2-D array
    of one row per row, and the returned batch stacks those arrays in row
    order, so the per-tile outputs and their stacked copy are held at once.
    """
    source = _body_source(spec)
    count = _as_positive_int(count, "count")
    fill = _FILLS[spec.kind]
    if reduce is None:
        data = _generate(count, spec.dimension, seed, fill, threads)
    else:
        data = np.concatenate(_generate(
            count, spec.dimension, seed, fill, threads, lambda tile, _rows: reduce(tile)
        ))
        source = {"draw": "reduced", "of": source}
    return SampleBatch(data=data, seed=_seed_jsonable(seed), source=source)


def sample_gaussian(spec: GaussianSpec, count: int, seed, threads: int = 1) -> SampleBatch:
    """Draw i.i.d. samples from the isotropic gaussian with the given variance."""
    if not isinstance(spec, GaussianSpec):
        raise InvalidSpec(f"spec must be a GaussianSpec, got {type(spec).__name__}")
    count = _as_positive_int(count, "count")
    data = _generate(count, spec.dimension, seed, _fill_gaussian, threads)
    data *= math.sqrt(spec.variance)
    source = {"draw": "gaussian", "spec": spec.to_jsonable()}
    return SampleBatch(data=data, seed=_seed_jsonable(seed), source=source)


def convolve_and_rescale(
    x: SampleBatch, schedule: ConvolutionSchedule, seed, threads: int = 1
) -> SampleBatch:
    """Return (x + y) / sqrt(1 + v) with y fresh gaussian noise of variance v.

    v is ``schedule.noise_variance(x.dimension)``.  The rescaling keeps an
    isotropic input isotropic.
    """
    v = schedule.noise_variance(x.dimension)
    source = {
        "draw": "convolved_rescaled",
        "of": x.source,
        "schedule": schedule.to_jsonable(),
        "noise_variance": v,
        "noise_seed": _seed_jsonable(seed),
    }
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
    A file that cannot be opened, the temp file or the one written through,
    is an ``InvalidSpec`` naming ``path``.
    """
    through = os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path))
    tmp = path if through else f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        f = open(tmp, mode if through else mode.replace("w", "x"))
    except OSError as exc:
        raise InvalidSpec(f"cannot write {path}: {exc.strerror}") from None
    try:
        with f:
            yield f
        if not through:
            os.replace(tmp, path)
    except BaseException:
        if not through and os.path.exists(tmp):
            os.remove(tmp)
        raise


def _csv_cell(v) -> str:
    return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)


def write_csv(path: str, header: dict, columns, rows) -> None:
    """Write a '# {header JSON}' line, the column names and the rows to ``path`` atomically.

    A float cell is written as its ``repr``, so it reads back exactly, ``None`` as an empty
    cell and any other value as its ``str``.
    """
    with atomic_open(path) as f:
        f.write("# " + json.dumps(header) + "\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_csv_cell(v) for v in row) + "\n")


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


def _batch_header(dim: int, count: int, seed, source: dict) -> dict:
    """The keys that a batch file's sidecar and a CSV batch's header share, in their order."""
    return {"schema_version": SCHEMA_VERSION, "dimension": dim, "count": count, "seed": seed,
            "source": source}


@contextmanager
def _batch_file(path: str, count: int, dim: int, seed, source: dict, config: dict | None):
    """Yield the descriptor that a batch's data is written to by offset, then write its sidecar.

    Data and sidecar each go into place atomically; the sidecar, which
    readers trust, after the data.  A FIFO or socket at ``path`` cannot take
    positioned writes and is refused with ``InvalidSpec`` before anything is
    opened.
    """
    try:
        mode = os.stat(path).st_mode
    except OSError:
        mode = 0
    if stat.S_ISFIFO(mode) or stat.S_ISSOCK(mode):
        raise InvalidSpec(f"cannot write batch file {path}: it is a FIFO or socket, not seekable")
    sidecar = _batch_header(dim, count, seed, source)
    sidecar.update(dtype="float64", order="column_major")
    if config is not None:
        sidecar["config"] = config
    with atomic_open(path + ".json") as f, atomic_open(path, "wb") as data_file:
        yield data_file.fileno()
        json.dump(sidecar, f, indent=2)
        f.write("\n")


def _write_rows(fd: int, count: int, lo: int, block: np.ndarray) -> None:
    """Write ``block`` as rows ``lo``.. of a column-major file of ``count`` rows.

    The block is transposed once, in cache, and each of its columns is one
    positioned write at its column-major offset.
    """
    for j, column in enumerate(np.ascontiguousarray(block.T)):
        view, offset = memoryview(column).cast("B"), (j * count + lo) * 8
        while view:
            done = os.pwrite(fd, view, offset)
            view, offset = view[done:], offset + done


def _read_rows(fd: int, count: int, lo: int, out: np.ndarray, path: str) -> None:
    """Fill the column-major ``out`` with rows ``lo``.. of a file of ``count`` rows.

    Each column of ``out`` is one positioned read; the rows are then checked
    for non-finite values.
    """
    for j in range(out.shape[1]):
        view, offset = memoryview(out[:, j]).cast("B"), (j * count + lo) * 8
        while view:
            done = os.preadv(fd, [view], offset)
            if done == 0:
                raise InvalidSpec(f"batch file {path} ended before its sidecar's size")
            view, offset = view[done:], offset + done
    _require_finite(out, f"batch file {path}")


def save_sample(
    spec: BodySpec,
    count: int,
    seed,
    path: str,
    config: dict | None = None,
    threads: int = 1,
) -> None:
    """Draw ``sample_body(spec, count, seed)`` straight into the batch file ``path``.

    The data file and sidecar are, byte for byte, what :func:`save_batch`
    writes of that batch, but each tile is written from its worker's
    buffer, so each thread holds two tile-sized arrays, the buffer and its
    transpose.  A batch larger than physical memory, which
    :func:`load_batch` could not hold, is refused with ``RangeError`` before
    anything is drawn or opened; the CSV form has rows of varying length, so
    it is written from a batch in memory (:func:`save_batch_csv`).
    """
    source = _body_source(spec)
    count = _as_positive_int(count, "count")
    dim = spec.dimension
    _require_memory(f"a {count} x {dim} batch", count * dim * 8)
    with _batch_file(path, count, dim, _seed_jsonable(seed), source, config) as fd:
        _generate(
            count, dim, seed, _FILLS[spec.kind], threads,
            lambda block, rows: _write_rows(fd, count, rows.start, block),
        )


def save_batch(batch: SampleBatch, path: str, config: dict | None = None) -> None:
    """Write the batch as column-major float64 binary plus a JSON sidecar, each atomically."""
    count = batch.count
    with _batch_file(path, count, batch.dimension, batch.seed, batch.source, config) as fd:
        for lo in range(0, count, BLOCK):
            _write_rows(fd, count, lo, batch.data[lo : lo + BLOCK])


def read_batch_sidecar(path: str) -> dict:
    """The checked sidecar of the batch file ``path``.

    An unreadable or incomplete sidecar, or a ``count`` or ``dimension`` that
    is not a positive integer, raises ``InvalidSpec`` naming the file; a
    batch larger than physical memory raises ``RangeError``.
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
    _require_memory(f"a {count} x {dim} batch", count * dim * 8)
    return sidecar


def load_batch(path: str, reduce=None) -> SampleBatch:
    """Inverse of :func:`save_batch`, whole or one block of rows at a time.

    The sidecar is checked by :func:`read_batch_sidecar`; a data file of the
    wrong size, a missing data file and non-finite data each raise
    ``InvalidSpec`` naming the file.

    With ``reduce`` the (count, n) batch is never held.  Each block of
    ``BLOCK`` rows is read into one reused column-major buffer, and
    ``reduce`` maps it to a new array of one output row per row.  A short
    last block of m rows is read into the buffer's top rows, above rows of
    the block before it, the reducer is given the whole buffer and its first
    m output rows are kept: a BLAS product of a column-major slab can round
    by its row count (OpenBLAS takes another kernel for small products), so
    every slab is reduced at the full block height.  The returned batch
    stacks the outputs in row order.
    """
    sidecar = read_batch_sidecar(path)
    count, dim = sidecar["count"], sidecar["dimension"]
    need = count * dim * 8
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size != need:
                raise InvalidSpec(
                    f"batch file {path} holds {size} bytes, sidecar promises {count}x{dim} "
                    f"doubles ({need} bytes)"
                )
            if reduce is None:
                data = np.empty((count, dim), dtype=np.float64, order="F")
                _read_rows(f.fileno(), count, 0, data, path)
                return SampleBatch(data=data, seed=sidecar["seed"], source=sidecar["source"])
            height = min(BLOCK, count)
            buf = np.empty((height, dim), dtype=np.float64, order="F")
            outputs = []
            for lo in range(0, count, BLOCK):
                m = min(BLOCK, count - lo)
                _read_rows(f.fileno(), count, lo, buf[:m], path)
                # A view, so a reducer that freezes its input leaves the buffer writable.
                outputs.append(reduce(buf[:])[:m])
    except OSError as exc:
        raise InvalidSpec(f"cannot read batch file {path}: {exc.strerror}") from None
    source = {"draw": "reduced", "of": sidecar["source"]}
    return SampleBatch(data=np.concatenate(outputs), seed=sidecar["seed"], source=source)


def save_batch_csv(batch: SampleBatch, path: str, config: dict | None = None) -> None:
    """Write the batch as CSV (:func:`write_csv`): its provenance header, one row per sample."""
    header = _batch_header(batch.dimension, batch.count, batch.seed, batch.source)
    if config is not None:
        header["config"] = config
    columns = [f"x{i}" for i in range(batch.dimension)]
    write_csv(path, header, columns, (row.tolist() for row in batch.data))
