"""The reduce form of the samplers: sample a block, reduce it, drop it.

The reduced results must equal reducing the full batch, come back in block
order at every thread count, and never need the (count, n) batch in memory.
Memory is read with ``tracemalloc``, which sees numpy's allocations.
"""

import math
import tracemalloc

import numpy as np
import pytest

from projclt.cli import projected_ratio
from projclt.density import m_tilde_profile, project_body
from projclt.grassmann import project, random_subspace
from projclt.model import BodySpec, ConvolutionSchedule, GaussianSpec
from projclt.radial import norm_column, thin_shell_fraction
from projclt.samplers import (
    BLOCK,
    CHUNK,
    _SQRT3,
    _fill_cube,
    _fill_simplex,
    sample_body,
    sample_gaussian,
)

ALL_KINDS = ["cube", "ball", "simplex", "product_laplace", "gaussian"]
COUNT = 2 * CHUNK + 17  # two full chunks and a ragged tail


# ------------------------------------------------------------ equal values


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_streamed_norms_equal_the_norms_of_the_full_batch(kind, threads):
    spec = BodySpec(kind, 6)
    full = sample_body(spec, COUNT, seed=3)
    streamed = sample_body(spec, COUNT, seed=3, threads=threads, reduce=norm_column)
    assert streamed.data.shape == (COUNT, 1)
    np.testing.assert_array_equal(streamed.data, norm_column(full.data))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_streamed_blocks_equal_the_full_batch(kind, threads):
    # The block loop draws the same rows in both forms, the ball's too.
    spec = BodySpec(kind, 6)
    full = sample_body(spec, COUNT, seed=3)
    streamed = sample_body(spec, COUNT, seed=3, threads=threads, reduce=lambda b: b.copy())
    np.testing.assert_array_equal(streamed.data, full.data)


@pytest.mark.parametrize("threads", [1, 3])
def test_streamed_gaussian_norms_equal_the_norms_of_the_full_batch(threads):
    spec = GaussianSpec(dimension=4, variance=2.0)
    full = sample_gaussian(spec, COUNT, seed=4)
    streamed = sample_gaussian(spec, COUNT, seed=4, threads=threads, reduce=norm_column)
    np.testing.assert_array_equal(streamed.data, norm_column(full.data))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_per_chunk_results_come_back_in_chunk_order(threads):
    # The first row of each block identifies it.
    spec = BodySpec("ball", 3)
    full = sample_body(spec, 3 * CHUNK + 5, seed=8)
    firsts = sample_body(
        spec, 3 * CHUNK + 5, seed=8, threads=threads, reduce=lambda block: block[:1].copy()
    )
    np.testing.assert_array_equal(firsts.data, full.data[::BLOCK])


@pytest.mark.parametrize("threads", [1, 2])
def test_rowwise_reduce_sees_full_height_chunks_and_keeps_the_chunk_rows(threads):
    heights = []

    def reduce(block):
        heights.append(block.shape[0])
        return block[:, :1].copy()

    spec = BodySpec("cube", 4)
    full = sample_body(spec, COUNT, seed=5)
    first_column = sample_body(spec, COUNT, seed=5, threads=threads, reduce=reduce, rowwise=True)
    assert heights == [BLOCK] * -(-COUNT // BLOCK)
    np.testing.assert_array_equal(first_column.data, full.data[:, :1])


@pytest.mark.parametrize("l", [1, 2, 3])
def test_project_body_equals_projecting_the_full_batch(l):
    spec = BodySpec("simplex", 20)
    basis = random_subspace(20, l, 6)
    full = project(sample_body(spec, COUNT, seed=7), basis)
    for threads in (1, 2):
        streamed = project_body(spec, COUNT, 7, basis, threads)
        np.testing.assert_array_equal(streamed.data, full.data)


def test_cube_fill_in_place_has_the_bits_of_uniform():
    out = np.empty((1000, 300))
    _fill_cube(np.random.default_rng(1), out, None)
    expected = np.random.default_rng(1).uniform(-_SQRT3, _SQRT3, size=(1000, 300))
    np.testing.assert_array_equal(out, expected)


def test_simplex_fill_in_place_has_the_bits_of_the_out_of_place_formula():
    m, n = 1000, 30
    out = np.empty((m, n))
    _fill_simplex(np.random.default_rng(2), out, None)
    spacings = np.random.default_rng(2).standard_exponential(size=(m, n + 1))
    s = spacings[:, :n] / spacings.sum(axis=1, keepdims=True)
    s -= 1.0 / (n + 1.0)
    a = 1.0 / ((n + 1.0) * (n + 2.0))
    row_mean = s.mean(axis=1, keepdims=True)
    expected = (s - row_mean) / math.sqrt(a) + row_mean * math.sqrt((n + 1.0) / a)
    np.testing.assert_array_equal(out, expected)


# ------------------------------------------------------------------ memory
#
# At n = 64 one block buffer is BLOCK * 64 * 8 bytes (2 MiB), one chunk is
# 32 MiB and the full batch of 4 chunks is 128 MiB.  A streamed path holds
# one buffer (one thread) plus its outputs, first as per-block pieces and
# then concatenated: the norms path must stay below two buffers plus two
# copies of its (count, 1) output (8 MiB).  In a KDE pipeline the estimator
# is the larger step: its linear binning holds the (count, l) projection and
# fewer than seven (count, l) temporaries at once (26.4 MiB here), so the
# peak must stay below one buffer plus eight copies of the projection
# (34 MiB, about a fourth of the batch).

_N, _L = 64, 2
_COUNT = 4 * CHUNK
_BUFFER = BLOCK * _N * 8


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_projected_ratio_never_holds_the_batch():
    peak = _peak_bytes(lambda: projected_ratio(
        BodySpec("cube", _N), _COUNT, 3, _L, 1, 2.0, 5, direction_count=4,
        schedule=ConvolutionSchedule(10.0), noise_seed=2,
    ))
    assert peak < _BUFFER + 8 * _COUNT * _L * 8, peak


def test_streamed_m_tilde_profile_never_holds_the_batch():
    peak = _peak_bytes(lambda: m_tilde_profile(
        BodySpec("cube", _N), ConvolutionSchedule(10.0), l=_L, radii=np.array([0.0, 1.0]),
        subspace_count=1, samples_per_subspace=_COUNT, seed=4, direction_count=4,
    ))
    assert peak < _BUFFER + 8 * _COUNT * _L * 8, peak


def test_streamed_norms_never_hold_the_batch():
    def run():
        norms = sample_body(BodySpec("cube", _N), _COUNT, seed=5, reduce=norm_column)
        thin_shell_fraction(norms, 0.1, dimension=_N)

    peak = _peak_bytes(run)
    assert peak < 2 * _BUFFER + 2 * _COUNT * 8, peak
