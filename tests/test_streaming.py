"""The reduce form of the samplers: sample a block, reduce it, drop it.

The reduced results must equal reducing the full batch, come back in block
order at every thread count, and never need the (count, n) batch in memory;
nor may ``sample`` writing a batch file or ``project --input`` reading one.
Memory is read with ``tracemalloc``, which sees numpy's allocations.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from projclt import samplers
from projclt.cli import main, projected_ratio
from projclt.density import estimate_density, m_tilde_profile, project_body, radial_points
from projclt.grassmann import project, random_subspace
from projclt.model import BodySpec, ConvolutionSchedule, GaussianSpec
from projclt.radial import norm_column, thin_shell_fraction
from projclt.samplers import (
    BLOCK,
    _LAPLACE_SCALE,
    _SQRT3,
    SampleBatch,
    _fill_ball,
    _fill_cube,
    _fill_laplace,
    _fill_simplex,
    convolve_and_rescale,
    load_batch,
    sample_body,
    sample_gaussian,
    save_batch,
    save_sample,
)

ALL_KINDS = ["cube", "ball", "simplex", "product_laplace", "gaussian"]
COUNT = 32 * BLOCK + 17  # 32 full blocks and a short last one


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
    # The standard gaussian body streams the bits of the unit-variance noise
    # sampler, so its reduce form stands in for a gaussian norms stream.
    full = sample_gaussian(GaussianSpec(dimension=4, variance=1.0), COUNT, seed=4)
    streamed = sample_body(
        BodySpec("gaussian", 4), COUNT, seed=4, threads=threads, reduce=norm_column
    )
    np.testing.assert_array_equal(streamed.data, norm_column(full.data))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_per_chunk_results_come_back_in_chunk_order(threads):
    # The first row of each block identifies it.
    spec = BodySpec("ball", 3)
    full = sample_body(spec, 48 * BLOCK + 5, seed=8)
    firsts = sample_body(
        spec, 48 * BLOCK + 5, seed=8, threads=threads, reduce=lambda block: block[:1].copy()
    )
    np.testing.assert_array_equal(firsts.data, full.data[::BLOCK])


@pytest.mark.parametrize("threads", [1, 2])
def test_a_reducer_sees_each_block_at_its_own_height(threads):
    heights = []

    def reduce(block):
        heights.append(block.shape[0])
        return block[:, :1].copy()

    spec = BodySpec("cube", 4)
    full = sample_body(spec, COUNT, seed=5)
    first_column = sample_body(spec, COUNT, seed=5, threads=threads, reduce=reduce)
    assert sorted(heights) == [COUNT % BLOCK] + [BLOCK] * (COUNT // BLOCK)
    np.testing.assert_array_equal(first_column.data, full.data[:, :1])


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK + 1, 32 * BLOCK + 1])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_project_body_equals_projecting_the_full_batch(l, count):
    spec = BodySpec("simplex", 20)
    basis = random_subspace(20, l, 6)
    full = project(sample_body(spec, count, seed=7), basis)
    for threads in (1, 2):
        streamed = project_body(spec, count, 7, basis, threads)
        np.testing.assert_array_equal(streamed.data, full.data)


# ------------------------------------------------------------ tiles

# With the budget patched down to 1,000 rows of width 6, each full block is
# drawn as four 1,000-row tiles and one of 96.  A budget of one block's bytes
# gives the whole-block draw.
_TILE_N, _TILE_ROWS, _TILE_COUNT = 6, 1000, 3 * BLOCK + 17


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_block_drawn_in_tiles_has_the_bits_of_the_whole_block(kind, threads, monkeypatch,
                                                                 tmp_path):
    spec, basis = BodySpec(kind, _TILE_N), random_subspace(_TILE_N, 2, 6)

    def draw(rows):
        monkeypatch.setattr(samplers, "TILE_BYTES", rows * _TILE_N * 8)
        heights = []

        def reduce(tile):
            heights.append(len(tile))
            return tile.copy()

        path = tmp_path / f"{rows}.bin"
        save_sample(spec, _TILE_COUNT, 1, str(path), threads=threads)
        batch = sample_body(spec, _TILE_COUNT, 1, threads)
        return (batch.data,
                sample_body(spec, _TILE_COUNT, 1, threads, reduce=reduce).data,
                project_body(spec, _TILE_COUNT, 1, basis, threads).data,
                convolve_and_rescale(batch, ConvolutionSchedule(10.0), 2, threads).data,
                path.read_bytes(), sorted(heights))

    whole, tiled = draw(BLOCK), draw(_TILE_ROWS)
    for reference, value in zip(whole[:4], tiled[:4]):
        np.testing.assert_array_equal(value, reference)
    assert tiled[4] == whole[4]
    batch = SampleBatch(data=tiled[0], seed=None, source={})
    np.testing.assert_array_equal(tiled[2], project(batch, basis).data)
    assert whole[5] == [17, BLOCK, BLOCK, BLOCK]
    assert tiled[5] == [17] + [96] * 3 + [_TILE_ROWS] * 12


@pytest.mark.parametrize("kind", list(samplers._FILLS))
def test_every_fill_draws_its_rows_in_row_order(kind):
    # The tiles of a block have the block's bits only if each fill draws its
    # rows in row order: two calls on one generator give the bits of one.
    fill = samplers._FILLS[kind]
    whole, parts = np.empty((1000, 7)), np.empty((1000, 7))
    fill(np.random.default_rng(5), whole, slice(0, 1000))
    rng = np.random.default_rng(5)
    fill(rng, parts[:300], slice(0, 300))
    fill(rng, parts[300:], slice(300, 1000))
    np.testing.assert_array_equal(parts, whole)


@pytest.mark.parametrize("kind", ["cube", "ball"])
def test_a_wide_block_is_held_one_tile_at_a_time(kind):
    # At n = 1,000 a block holds 32.8 MB and a tile 262 rows (2.1 MB); the
    # ball's fill holds one more tile's worth of normals.
    n, count = 1_000, 2 * BLOCK
    basis = random_subspace(n, 1, 2)
    peak = _peak_bytes(lambda: project_body(BodySpec(kind, n), count, 1, basis))
    assert peak < 3 * samplers.TILE_BYTES + count * 8, peak


@pytest.mark.parametrize("threads", [1, 4])
def test_save_sample_writes_the_bytes_of_save_batch(threads, tmp_path):
    # More threads than cores and a short switch interval interleave the
    # positioned writes of many blocks; each must still land in place.
    spec, count = BodySpec("ball", 3), 80 * BLOCK + 7
    batch = sample_body(spec, count, seed=1)
    save_batch(batch, str(tmp_path / "full.bin"), config={"x": 1})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        save_sample(spec, count, 1, str(tmp_path / "streamed.bin"), config={"x": 1},
                    threads=threads)
    finally:
        sys.setswitchinterval(interval)
    for suffix in ("", ".json"):
        full = (tmp_path / f"full.bin{suffix}").read_bytes()
        assert (tmp_path / f"streamed.bin{suffix}").read_bytes() == full
    np.testing.assert_array_equal(load_batch(str(tmp_path / "streamed.bin")).data, batch.data)


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_block_reads_equal_the_rows_of_the_whole_batch(count, tmp_path):
    batch = sample_body(BodySpec("simplex", 4), count, seed=3)
    path = str(tmp_path / "b.bin")
    save_batch(batch, path)
    heights = []

    def first_column(block):
        heights.append(block.shape[0])
        return block[:, :1].copy()

    reduced = load_batch(path, reduce=first_column)
    assert heights == [min(BLOCK, count)] * -(-count // BLOCK)
    np.testing.assert_array_equal(reduced.data, batch.data[:, :1])
    assert reduced.source == {"draw": "reduced", "of": batch.source}


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
    total = spacings.sum(axis=1, keepdims=True)
    a = 1.0 / ((n + 1.0) * (n + 2.0))
    mu = ((total - spacings[:, n:]) / total - n / (n + 1.0)) / n
    shift = (-1.0 / (n + 1.0) - mu) / math.sqrt(a) + mu * math.sqrt((n + 1.0) / a)
    np.testing.assert_array_equal(out, spacings[:, :n] * (1.0 / (total * math.sqrt(a))) + shift)
    # The centre-then-whiten form it folds: equal up to the rounding of the
    # O(1) terms that cancel, a few ulp of 1 for coordinates near 0.
    s = spacings[:, :n] / total - 1.0 / (n + 1.0)
    row_mean = s.mean(axis=1, keepdims=True)
    unfolded = (s - row_mean) / math.sqrt(a) + row_mean * math.sqrt((n + 1.0) / a)
    np.testing.assert_allclose(out, unfolded, rtol=1e-13, atol=1e-14)


def test_ball_fill_scales_by_the_norms_of_np_linalg_norm():
    m, n = 1000, 30
    out = np.empty((m, n))
    _fill_ball(np.random.default_rng(3), out, None)
    z = np.random.default_rng(3).standard_normal((m, n + 2))
    expected = z[:, :n] * (math.sqrt(n + 2.0) / np.linalg.norm(z, axis=1))[:, None]
    np.testing.assert_allclose(out, expected, rtol=1e-15)


class _Uniforms:
    """A generator stub whose ``random(out=)`` writes the given u's, one per column."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[...] = self.u


def test_laplace_fill_is_the_inverse_cdf_at_the_edges_of_the_unit_interval():
    half_ulp = 2.0**-53
    u = np.array([0.0, half_ulp, 0.5 - half_ulp, 0.5, 1.0 - half_ulp])
    out = np.empty((3, u.size))
    _fill_laplace(_Uniforms(u), out, None)
    assert np.isfinite(out).all()
    # u = 0, which numpy draws again, takes the documented b log(2^-53).
    assert out[0, 0] == _LAPLACE_SCALE * math.log(2.0**-53)
    for j, uj in enumerate(u[1:], 1):
        expected = _LAPLACE_SCALE * np.sign(0.5 - uj) * math.log(1.0 - abs(1.0 - 2.0 * uj))
        assert (np.abs(out[:, j] - expected) <= 2 * np.spacing(abs(expected))).all(), uj


def test_laplace_fill_draws_what_numpy_draws_from_the_same_uniforms():
    m, n = 1000, 30
    out = np.empty((m, n))
    _fill_laplace(np.random.default_rng(4), out, None)
    expected = np.random.default_rng(4).laplace(0.0, _LAPLACE_SCALE, size=(m, n))
    u = np.random.default_rng(4).random((m, n))
    np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))
    # numpy's 2 - u - u may be off the exact 2 - 2u by 2^-53, which moves its
    # log by up to 2^-53 / (2 - 2u); past that, two ulp of the logarithm.
    slack = _LAPLACE_SCALE * 2.0**-53 / (1.0 - np.abs(1.0 - 2.0 * u))
    assert (np.abs(out - expected) <= slack + 2 * np.spacing(np.abs(expected))).all()


# ------------------------------------------------------------------ memory
#
# At n = 64 one block buffer is BLOCK * 64 * 8 bytes (2 MiB) and the full
# batch of 64 blocks is 128 MiB.  A streamed path holds
# one buffer (one thread) plus its outputs, first as per-block pieces and
# then concatenated: the norms path must stay below two buffers plus two
# copies of its (count, 1) output (8 MiB).  In a KDE pipeline the estimator
# is the larger step: its linear binning holds the (count, l) projection and
# fewer than seven (count, l) temporaries at once (26.4 MiB here), so the
# peak must stay below one buffer plus eight copies of the projection
# (34 MiB, about a fourth of the batch).

_N, _L = 64, 2
_COUNT = 64 * BLOCK
_BUFFER = BLOCK * _N * 8


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Past the block buffer, a streamed smoothed KDE pipeline holds at most two
# (N, l) arrays at once: the projection written block by block, and the
# estimator's temporaries, which stay below one (N, l) array because it bins
# in row blocks.  No noise is drawn, and the fixed bandwidth needs no
# variance temporary (measured: 1.20 arrays for projected_ratio, 1.02 for
# m_tilde_profile).


def test_streamed_projected_ratio_never_holds_the_batch():
    peak = _peak_bytes(lambda: projected_ratio(
        BodySpec("cube", _N), _COUNT, 3, _L, 1, 2.0, 5, direction_count=4,
        schedule=ConvolutionSchedule(10.0),
    ))
    assert peak < _BUFFER + 2 * _COUNT * _L * 8, peak


def test_streamed_m_tilde_profile_never_holds_the_batch():
    peak = _peak_bytes(lambda: m_tilde_profile(
        BodySpec("cube", _N), ConvolutionSchedule(10.0), l=_L, radii=np.array([0.0, 1.0]),
        subspace_count=1, samples_per_subspace=_COUNT, seed=4, direction_count=4,
    ))
    assert peak < _BUFFER + 2 * _COUNT * _L * 8, peak


def test_the_estimator_bins_its_sample_in_row_blocks():
    batch = sample_gaussian(GaussianSpec(dimension=_L, variance=1.0), _COUNT, seed=6)
    points = radial_points(np.linspace(0.0, 2.0, 9), _L, 16)
    peak = _peak_bytes(lambda: estimate_density(batch, points, _COUNT ** (-1 / (_L + 4))))
    assert peak < 1.5 * batch.data.nbytes, peak


def test_streamed_norms_never_hold_the_batch():
    def run():
        norms = sample_body(BodySpec("cube", _N), _COUNT, seed=5, reduce=norm_column)
        thin_shell_fraction(norms, 0.1, dimension=_N)

    peak = _peak_bytes(run)
    assert peak < 2 * _BUFFER + 2 * _COUNT * 8, peak


# A batch file of 200,000 x 50 holds 76.3 MiB; one block buffer is 1.6 MiB.
# `sample` holds, per thread, the block buffer and its transpose for the
# positioned writes; `project --input`
# holds one column-major block buffer plus the (N, l) projection, first as
# per-block pieces and then concatenated.  A first small run of each command
# warms argparse's and numpy's one-time caches, which are not the batch.

_FILE_N, _FILE_COUNT, _FILE_L = 50, 200_000, 2
_FILE_BUFFER = BLOCK * _FILE_N * 8
_MIB = 1 << 20


def _sample_argv(out, count, extra=()):
    return ["sample", "--n", str(_FILE_N), "--samples", str(count), "--seed", "1",
            "--output", str(out), *extra]


@pytest.mark.parametrize("body", ["cube", "simplex"])
def test_sample_writes_its_batch_file_without_holding_the_batch(body, tmp_path):
    threads = 2
    out = tmp_path / "b.bin"
    argv = ["--body", body, "--threads", str(threads)]
    assert main(_sample_argv(out, 10, argv)) == 0
    peak = _peak_bytes(lambda: main(_sample_argv(out, _FILE_COUNT, argv)))
    assert out.stat().st_size == _FILE_COUNT * _FILE_N * 8
    assert peak < 2 * threads * _FILE_BUFFER + _MIB, peak


def test_project_input_reads_its_batch_file_a_block_at_a_time(tmp_path):
    src, dst = tmp_path / "b.bin", tmp_path / "p.bin"
    project = ["project", "--input", str(src), "--l", str(_FILE_L), "--seed", "2",
               "--output", str(dst), "--basis-out", str(tmp_path / "basis.json")]
    assert main(_sample_argv(src, 10, ["--body", "cube"])) == 0
    assert main(project) == 0
    assert main(_sample_argv(src, _FILE_COUNT, ["--body", "cube", "--threads", "2"])) == 0
    peak = _peak_bytes(lambda: main(project))
    assert dst.stat().st_size == _FILE_COUNT * _FILE_L * 8
    assert peak < _FILE_BUFFER + 2 * _FILE_COUNT * _FILE_L * 8 + _MIB, peak
