"""Haar-random subspaces and orthogonal projection onto them.

A subspace is drawn by orthonormalizing the rows of an l x n matrix of i.i.d.
standard gaussians; rotational invariance of the gaussian makes the induced
law the unique rotation-invariant measure on l-dimensional subspaces.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .model import SubspaceBasis
from .samplers import BLOCK, SampleBatch, _seed_seq


def random_subspace(n: int, l: int, seed) -> SubspaceBasis:
    """Draw a Haar-random l-dimensional subspace of R^n as an orthonormal frame.

    The QR factorization's sign ambiguity is fixed so that every basis row has
    nonnegative inner product with the raw gaussian row it came from; the
    result is then a deterministic function of (n, l, seed).
    """
    if not 1 <= l <= n:
        raise DimensionError(f"need 1 <= l <= n, got l={l}, n={n}")
    rng = np.random.default_rng(_seed_seq(seed))
    raw = rng.standard_normal((l, n))
    q, r = np.linalg.qr(raw.T)
    signs = np.sign(np.diag(r).copy())
    signs[signs == 0.0] = 1.0
    return SubspaceBasis(rows=(q * signs).T)


def project(batch: SampleBatch, basis: SubspaceBasis) -> SampleBatch:
    """Express the orthogonal projection of each sample in the basis rows.

    The output has dimension ``basis.subspace_dim``; with orthonormal rows the
    coordinate vector has euclidean norm at most that of the input sample.

    The kernel follows the batch's memory order, read from its strides (a
    one-row batch is C- and F-contiguous at once, but its row stride still
    tells a row-major block's row from a batch file's one-row slab).  A
    row-major batch, which is what the samplers' tiles and every batch
    drawn in memory are, takes numpy's single-threaded row-dot loop
    (``einsum``): each row is rounded alike at any row count and offset, so
    a tile's projection has the bits of the whole batch's, and no BLAS
    thread competes with the samplers' worker threads.  A column-major
    batch (a batch file's slabs) is multiplied by BLAS ``BLOCK`` rows at a
    time, a short last slab as the batch's last ``BLOCK`` rows, so in a
    batch of at least ``BLOCK`` rows every row is rounded in a product of
    ``BLOCK`` rows.  A one-shot product would be rounded as OpenBLAS splits
    it between its threads, so its bytes would depend on the thread count.
    """
    if batch.dimension != basis.ambient_dim:
        raise DimensionError(
            f"batch dimension {batch.dimension} != basis ambient dimension {basis.ambient_dim}"
        )
    data = batch.data
    if data.strides[1] == data.itemsize and data.strides[0] > data.itemsize:
        out = np.einsum("ij,kj->ik", data, basis.rows)
    else:
        count = batch.count
        out = np.empty((count, basis.subspace_dim), dtype=np.float64)
        for lo in range(0, count, BLOCK):
            hi = min(lo + BLOCK, count)
            start = max(0, hi - BLOCK)
            out[lo:hi] = (data[start:hi] @ basis.rows.T)[lo - start:]
    return SampleBatch(
        data=out,
        seed=batch.seed,
        source={
            "draw": "projected",
            "of": batch.source,
            "subspace_dim": basis.subspace_dim,
        },
    )
