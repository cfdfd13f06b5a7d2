"""Sampling correctness: determinism, moments, supports, IO round trips."""

import json
import math
import os
import stat
import threading
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import projclt.samplers
from projclt.errors import InvalidSpec, RangeError
from projclt.model import BodyKind, BodySpec, ConvolutionSchedule
from projclt.radial import norm_column
from projclt.samplers import (
    BLOCK,
    TILE_BYTES,
    SampleBatch,
    _block_rng,
    _generate,
    _seed_seq,
    atomic_open,
    convolve_and_rescale,
    load_batch,
    read_json_object,
    sample_body,
    sample_gaussian,
    save_batch,
    save_batch_csv,
)

ALL_KINDS = ["cube", "ball", "simplex", "product_laplace", "gaussian"]


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_same_seed_reproduces_exactly(kind):
    spec = BodySpec(kind, 5)
    a = sample_body(spec, 400, seed=123)
    b = sample_body(spec, 400, seed=123)
    np.testing.assert_array_equal(a.data, b.data)
    assert np.any(sample_body(spec, 400, seed=124).data != a.data)


def test_thread_count_does_not_change_the_stream():
    # The generator seeds per block, so sharing blocks among threads must be
    # bit-identical to the serial order.
    spec = BodySpec("ball", 3)
    count = 24 * BLOCK + 17  # many blocks and a short last one
    serial = sample_body(spec, count, seed=9, threads=1)
    threaded = sample_body(spec, count, seed=9, threads=2)
    np.testing.assert_array_equal(serial.data, threaded.data)
    np.testing.assert_array_equal(sample_body(spec, count, seed=9, threads=3).data, serial.data)

    np.testing.assert_array_equal(
        sample_gaussian(4, 2.0, count, seed=9, threads=1).data,
        sample_gaussian(4, 2.0, count, seed=9, threads=3).data,
    )


@pytest.mark.parametrize(
    "threads, message",
    [(0, "threads must be >= 1, got 0"), (2.5, "threads must be an integer, got 2.5")],
)
def test_a_thread_count_that_is_not_a_positive_integer_is_refused(threads, message):
    with pytest.raises(InvalidSpec, match=message):
        sample_body(BodySpec("cube", 3), 10, seed=1, threads=threads)


def test_a_seed_sequence_draws_the_same_sample_each_time_it_is_used():
    # Spawning advances a SeedSequence; the samplers must leave it as it was.
    seed = np.random.SeedSequence(21).spawn(1)[0]
    spec = BodySpec("cube", 3)
    first = sample_body(spec, 16 * BLOCK + 5, seed)
    np.testing.assert_array_equal(sample_body(spec, 16 * BLOCK + 5, seed).data, first.data)
    assert seed.n_children_spawned == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_prefix_stability_across_block_boundaries(kind):
    # Growing the batch never rewrites the blocks already drawn, the ball's
    # included, whether the shorter draw ends on a block boundary or not.
    spec = BodySpec(kind, 4)
    large = sample_body(spec, 5 * BLOCK + 7, seed=5, threads=2)
    for k in (1, 3):
        small = sample_body(spec, k * BLOCK, seed=5, threads=2)
        np.testing.assert_array_equal(large.data[: k * BLOCK], small.data)
    short = sample_body(spec, 3 * BLOCK + 7, seed=5)
    np.testing.assert_array_equal(large.data[: 3 * BLOCK], short.data[: 3 * BLOCK])


@pytest.mark.parametrize("seed", [5, np.random.SeedSequence(21).spawn(2)[1]], ids=["int", "spawned"])
def test_each_block_seed_is_the_root_sequences_spawned_child(seed):
    # Block i is seeded by the i-th child that spawn() would give, built alone.
    root = _seed_seq(seed)
    children = _seed_seq(seed).spawn(40)
    for i in (0, 1, 17, 39):
        child = _block_rng(root, i).bit_generator.seed_seq
        assert child.spawn_key == children[i].spawn_key
        np.testing.assert_array_equal(child.generate_state(8), children[i].generate_state(8))
    assert root.n_children_spawned == 0
    third = sample_body(BodySpec("cube", 3), 3 * BLOCK, seed, threads=2).data[2 * BLOCK :]
    expected = np.random.default_rng(children[2]).uniform(-math.sqrt(3.0), math.sqrt(3.0), (BLOCK, 3))
    np.testing.assert_array_equal(third, expected)


# ----------------------------------------------------------------- moments


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_isotropic_normalization(kind):
    batch = sample_body(BodySpec(kind, 6), 200_000, seed=77)
    mean = batch.data.mean(axis=0)
    cov = np.cov(batch.data, rowvar=False)
    assert np.abs(mean).max() < 0.01
    assert np.abs(cov - np.eye(6)).max() < 0.015


def test_cube_support_is_sqrt3_box():
    batch = sample_body(BodySpec("cube", 8), 50_000, seed=3)
    assert np.abs(batch.data).max() <= math.sqrt(3.0) + 1e-12
    # the box is actually filled out to its corners
    assert np.abs(batch.data).max() > math.sqrt(3.0) - 0.01


def test_ball_support_and_radial_law():
    n = 5
    batch = sample_body(BodySpec("ball", n), 100_000, seed=11)
    norms = np.linalg.norm(batch.data, axis=1)
    assert norms.max() <= math.sqrt(n + 2) * (1 + 1e-12)
    # E|X|^2 = n for the isotropic radius sqrt(n+2) * U^(1/n)
    assert abs(np.mean(norms**2) - n) < 0.05


# Each cell is a two-sided binomial z-test of the share below one decile of
# a uniform law: 9 deciles at each of n = 1, 3, 50 and 9 for the n = 1
# coordinate, at a family false-failure rate of 1e-6 (Bonferroni).
_DECILES = np.arange(1, 10) / 10
_DECILE_Z = NormalDist().inv_cdf(1 - 1e-6 / (2 * 36))


def _decile_z(u):
    """The z-scores of the shares of ``u`` at or below each decile, if ``u`` is uniform on (0, 1)."""
    below = np.searchsorted(np.sort(u), _DECILES, side="right")
    return (below - u.size * _DECILES) / np.sqrt(u.size * _DECILES * (1 - _DECILES))


@pytest.mark.parametrize("n", [1, 3, 50])
def test_the_ball_is_exactly_uniform(n):
    # Uniform on the ball of radius sqrt(n+2): (|X| / sqrt(n+2))^n is uniform
    # on (0, 1), and at n = 1, X itself is uniform on [-sqrt(3), sqrt(3)].
    batch = sample_body(BodySpec("ball", n), 100_000, seed=23, reduce=norm_column)
    z = _decile_z((batch.data[:, 0] / math.sqrt(n + 2)) ** n)
    assert np.abs(z).max() < _DECILE_Z, z
    if n == 1:
        x = sample_body(BodySpec("ball", 1), 100_000, seed=23).data[:, 0]
        z = _decile_z((x + math.sqrt(3.0)) / (2 * math.sqrt(3.0)))
        assert np.abs(z).max() < _DECILE_Z, z


def test_simplex_rows_satisfy_the_affine_support_bound():
    # The whitening map is affine, so the image of the simplex keeps linear
    # constraints.  Row sums rescale the pre-whitening coordinate sum, which
    # lives in (0, 1): they must lie strictly in (-n sqrt(n+2), sqrt(n+2)),
    # and the upper edge is approached because the last spacing is often small.
    n = 6
    batch = sample_body(BodySpec("simplex", n), 50_000, seed=13)
    sums = batch.data.sum(axis=1)
    assert sums.min() > -n * math.sqrt(n + 2)
    assert sums.max() < math.sqrt(n + 2)
    assert sums.max() > math.sqrt(n + 2) - 0.1


def test_laplace_tail_weight():
    batch = sample_body(BodySpec("product_laplace", 2), 200_000, seed=17)
    frac = np.mean(np.abs(batch.data) > 2.0)
    oracle = math.exp(-2.0 * math.sqrt(2.0))  # P(|X| > 2) at scale 1/sqrt(2)
    assert abs(frac - oracle) < 0.003


def test_sample_gaussian_respects_its_variance():
    batch = sample_gaussian(3, 2.5, 100_000, seed=19)
    np.testing.assert_allclose(batch.data.var(axis=0), 2.5, rtol=0.03)
    assert batch.source == {"draw": "gaussian", "dimension": 3, "variance": 2.5}


def test_sample_gaussian_refuses_a_dimension_below_1():
    with pytest.raises(InvalidSpec, match="dimension must be >= 1, got 0"):
        sample_gaussian(0, 1.0, 10, seed=1)


@pytest.mark.parametrize(
    "variance, message",
    [
        (0.0, "variance must be positive, got 0.0"),
        (-1.0, "variance must be positive, got -1.0"),
        (math.nan, "variance must be positive, got nan"),
        (math.inf, "variance must be positive, got inf"),
        (True, "variance must be a number, got True"),
        ("1", "variance must be a number, got '1'"),
    ],
    ids=["0", "-1", "nan", "inf", "bool", "str"],
)
def test_sample_gaussian_refuses_a_variance_that_is_not_a_positive_number(variance, message):
    with pytest.raises(InvalidSpec, match=message):
        sample_gaussian(3, variance, 10, seed=1)


def test_sample_gaussian_accepts_a_tiny_variance():
    batch = sample_gaussian(1, 1e-300, 10, seed=1)
    assert batch.source["variance"] == 1e-300
    np.testing.assert_array_equal(
        batch.data, sample_body(BodySpec("gaussian", 1), 10, seed=1).data * math.sqrt(1e-300)
    )


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("variance", [1.0, 2.5])
def test_gaussian_noise_is_the_gaussian_body_scaled(variance, threads):
    count = 32 * BLOCK + 17
    noise = sample_gaussian(4, variance, count, seed=7, threads=threads)
    body = sample_body(BodySpec("gaussian", 4), count, seed=7, threads=threads)
    np.testing.assert_array_equal(noise.data, body.data * math.sqrt(variance))


# ------------------------------------------------------ convolve and rescale


def test_convolve_and_rescale_is_deterministic():
    x = sample_body(BodySpec("cube", 10), 5_000, seed=21)
    s = ConvolutionSchedule(alpha=10.0)
    a = convolve_and_rescale(x, s, seed=22)
    b = convolve_and_rescale(x, s, seed=22)
    np.testing.assert_array_equal(a.data, b.data)
    assert np.any(convolve_and_rescale(x, s, seed=23).data != a.data)


def test_convolve_and_rescale_restores_unit_variance():
    x = sample_body(BodySpec("cube", 100), 100_000, seed=41)
    z = convolve_and_rescale(x, ConvolutionSchedule(alpha=10.0), seed=42)
    assert abs(z.data.var(axis=0).mean() - 1.0) < 0.005
    assert np.abs(z.data.mean(axis=0)).max() < 0.02


def test_convolve_threads_match_serial():
    x = sample_body(BodySpec("gaussian", 3), 16 * BLOCK + 500, seed=27)
    s = ConvolutionSchedule(alpha=5.0)
    np.testing.assert_array_equal(
        convolve_and_rescale(x, s, seed=28, threads=1).data,
        convolve_and_rescale(x, s, seed=28, threads=2).data,
    )


def test_the_noise_step_holds_one_batch_beside_the_worker_buffers():
    # The noise is drawn into the output and smoothed there in place: no
    # second (count, n) array and no tile-sized temporary.
    n, count = 20, 8 * BLOCK + 5
    x = sample_body(BodySpec("cube", n), count, seed=29)
    s = ConvolutionSchedule(alpha=10.0)
    for threads in (1, 2):
        convolve_and_rescale(x, s, seed=30, threads=threads)
        tracemalloc.start()
        try:
            convolve_and_rescale(x, s, seed=30, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = threads * min(BLOCK, TILE_BYTES // (8 * n)) * n * 8
        assert peak <= x.data.nbytes + buffers + (1 << 16), (threads, peak)


@pytest.mark.parametrize(
    "threads, cores, blocks, workers",
    [(64, 3, 10, 3), (64, 1, 10, 2), (64, 8, 5, 5), (2, 8, 10, 2), (3, 1, 10, 2)],
)
def test_the_worker_count_is_capped_at_the_usable_cores_but_never_below_2(
    threads, cores, blocks, workers, monkeypatch
):
    # A stand-in pool records max_workers and runs the workers in turn: no thread starts.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(projclt.samplers, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(projclt.samplers, "usable_cores", lambda: cores)
    spec = BodySpec("cube", 2)
    batch = sample_body(spec, blocks * BLOCK, seed=31, threads=threads)
    assert sizes == [workers]
    np.testing.assert_array_equal(batch.data, sample_body(spec, blocks * BLOCK, seed=31).data)


def test_a_full_batch_larger_than_physical_memory_is_refused():
    # The check runs before any allocation or seed spawning, so this is instant.
    with pytest.raises(RangeError, match=r"a 100000000000 x 1000 batch needs 800000000000000 bytes"):
        sample_body(BodySpec("cube", 1000), 10**11, seed=1)


def test_a_failing_block_stops_the_other_worker_at_its_current_block():
    # Block 3 fails only once the second worker has begun a block, so both
    # workers run; the second worker's blocks past 3 wait for the failure,
    # so it holds exactly one block when block 3 raises.
    began, failed = threading.Event(), threading.Event()
    filled, workers = [], set()

    def reduce(block, rows):
        i = rows.start // BLOCK
        filled.append(i)
        workers.add(threading.get_ident())
        if len(workers) == 2:
            began.set()
        if i == 3:
            assert began.wait(10)
            failed.set()
            raise RuntimeError("block 3")
        if i > 3:
            assert failed.wait(10)

    with pytest.raises(RuntimeError, match="block 3"):
        _generate(80 * BLOCK, 3, 1, lambda rng, out: out.fill(0.0), threads=2, reduce=reduce)
    assert len(filled) <= 3 + 2, sorted(filled)


def test_the_worker_threads_blocks_are_counted_against_physical_memory():
    # Each of the two workers holds a one-row tile, the most rows of this width
    # that fit the tile budget, and a fill temporary.
    with pytest.raises(RangeError, match=r"2 worker threads' 1 x 1000000000000 blocks needs"):
        sample_body(BodySpec("cube", 10**12), 32 * BLOCK, seed=1, threads=2, reduce=np.sum)


# ---------------------------------------------------------------- batch IO


def test_save_load_round_trip_is_bit_exact(tmp_path):
    batch = sample_body(BodySpec("simplex", 3), 1_000, seed=31)
    path = str(tmp_path / "batch.bin")
    save_batch(batch, path, config={"note": "round trip"})
    again = load_batch(path)
    np.testing.assert_array_equal(again.data, batch.data)
    assert again.seed == batch.seed
    assert again.source == batch.source
    assert (tmp_path / "batch.bin").stat().st_size == 1_000 * 3 * 8


def test_load_rejects_truncated_payload(tmp_path):
    batch = sample_body(BodySpec("cube", 2), 100, seed=33)
    path = str(tmp_path / "batch.bin")
    save_batch(batch, path)
    raw = (tmp_path / "batch.bin").read_bytes()
    (tmp_path / "batch.bin").write_bytes(raw[:-8])
    with pytest.raises(InvalidSpec, match="sidecar promises"):
        load_batch(path)


def test_load_rejects_foreign_layout(tmp_path):
    batch = sample_body(BodySpec("cube", 2), 100, seed=34)
    path = str(tmp_path / "batch.bin")
    save_batch(batch, path)
    sidecar = tmp_path / "batch.bin.json"
    sidecar.write_text(sidecar.read_text().replace("column_major", "row_major"))
    with pytest.raises(InvalidSpec, match="layout"):
        load_batch(path)


@pytest.mark.parametrize("key", ["count", "dimension", "seed", "source"])
def test_load_rejects_sidecar_missing_a_key(tmp_path, key):
    path = str(tmp_path / "batch.bin")
    save_batch(sample_body(BodySpec("cube", 2), 100, seed=36), path)
    sidecar = tmp_path / "batch.bin.json"
    content = json.loads(sidecar.read_text())
    del content[key]
    sidecar.write_text(json.dumps(content))
    with pytest.raises(InvalidSpec, match=f"batch.bin.json is missing key '{key}'"):
        load_batch(path)


@pytest.mark.parametrize("key", ["count", "dimension"])
@pytest.mark.parametrize("bad", [2.5, 100.0, "100", True, 0, -1, None, [100]])
def test_load_rejects_a_size_that_is_not_a_positive_integer(tmp_path, key, bad):
    path = str(tmp_path / "batch.bin")
    save_batch(sample_body(BodySpec("cube", 1), 100, seed=38), path)
    sidecar = tmp_path / "batch.bin.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: bad}))
    with pytest.raises(InvalidSpec, match=f"key '{key}' must be a positive integer"):
        load_batch(path)


def test_load_refuses_a_batch_larger_than_physical_memory_before_reading(tmp_path):
    path = str(tmp_path / "batch.bin")
    save_batch(sample_body(BodySpec("cube", 2), 100, seed=40), path)
    sidecar = tmp_path / "batch.bin.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "count": 10**11}))
    with pytest.raises(RangeError, match=r"a 100000000000 x 2 batch needs 1600000000000 bytes"):
        load_batch(path)


@pytest.mark.parametrize(
    "damage, message",
    [
        ("no_data", "cannot read batch file"),
        ("no_sidecar", "cannot read batch sidecar"),
        ("malformed", "is not valid JSON"),
        ("not_object", "must hold a JSON object, got list"),
    ],
)
def test_load_names_the_unreadable_file(tmp_path, damage, message):
    path = tmp_path / "batch.bin"
    save_batch(sample_body(BodySpec("cube", 2), 100, seed=39), str(path))
    sidecar = tmp_path / "batch.bin.json"
    if damage == "no_data":
        path.unlink()
    elif damage == "no_sidecar":
        sidecar.unlink()
    else:
        sidecar.write_text('{"count": 100,' if damage == "malformed" else "[1, 2]")
    with pytest.raises(InvalidSpec, match=message) as info:
        load_batch(str(path))
    assert str(path if damage == "no_data" else sidecar) in str(info.value)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_read_json_object_rejects_non_finite_json_constants(tmp_path, constant):
    path = tmp_path / "config.json"
    path.write_text(f'{{"alpha": {constant}}}')
    with pytest.raises(
        InvalidSpec, match=f"config file .*config.json is not valid: JSON constant {constant}"
    ):
        read_json_object(str(path), "config file")


def test_load_rejects_a_non_finite_constant_in_the_sidecar(tmp_path):
    path = str(tmp_path / "batch.bin")
    save_batch(sample_body(BodySpec("cube", 2), 100, seed=41), path)
    sidecar = tmp_path / "batch.bin.json"
    sidecar.write_text(sidecar.read_text().replace('"seed": 41', '"seed": NaN'))
    with pytest.raises(InvalidSpec, match="batch sidecar .*batch.bin.json is not valid: JSON con"):
        load_batch(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_load_rejects_non_finite_data(tmp_path, bad):
    data = sample_body(BodySpec("cube", 3), 100, seed=37).data.copy()
    data[57, 1] = bad
    path = str(tmp_path / "batch.bin")
    save_batch(SampleBatch(data=data, seed=37, source={}), path)
    with pytest.raises(InvalidSpec, match="batch.bin holds non-finite values"):
        load_batch(path)


def test_atomic_open_replaces_a_regular_file_without_leaving_a_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    with atomic_open(str(target)) as f:
        f.write("new")
    assert target.read_text() == "new"
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_open_writes_through_a_symlink(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    with atomic_open(str(link)) as f:
        f.write("new")
    assert link.is_symlink() and real.read_text() == "new"
    assert sorted(tmp_path.iterdir()) == [link, real]


def test_atomic_open_writes_through_a_fifo(tmp_path):
    # A special file such as /dev/null must be written to, never renamed over.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with atomic_open(str(fifo), "wb") as f:
            f.write(b"bytes")
        assert os.read(reader, 64) == b"bytes"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_csv_export_round_trips_floats_exactly(tmp_path):
    import json

    batch = sample_body(BodySpec("gaussian", 3), 50, seed=35)
    path = tmp_path / "batch.csv"
    save_batch_csv(batch, str(path), config={"x": 1})
    lines = path.read_text().splitlines()
    header = json.loads(lines[0][2:])
    assert header["count"] == 50 and header["dimension"] == 3
    assert header["config"] == {"x": 1}
    assert lines[1] == "x0,x1,x2"
    parsed = np.array([[float(cell) for cell in line.split(",")] for line in lines[2:]])
    np.testing.assert_array_equal(parsed, batch.data)


# ------------------------------------------------------------- SampleBatch


def test_batch_data_is_read_only():
    batch = sample_body(BodySpec("cube", 2), 10, seed=37)
    with pytest.raises(ValueError):
        batch.data[0, 0] = 0.0


def test_batch_rejects_non_matrix_data():
    with pytest.raises(InvalidSpec):
        SampleBatch(data=np.zeros(5), seed=None, source={})


def test_batch_jsonable_round_trip_checks_shape():
    batch = sample_body(BodySpec("ball", 2), 5, seed=38)
    payload = batch.to_jsonable()
    restored = SampleBatch.from_jsonable(payload)
    np.testing.assert_array_equal(restored.data, batch.data)
    payload["count"] = 6
    with pytest.raises(InvalidSpec):
        SampleBatch.from_jsonable(payload)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    n=st.integers(min_value=1, max_value=6),
    count=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_sampling_always_yields_finite_well_shaped_batches(kind, n, count, seed):
    batch = sample_body(BodySpec(kind, n), count, seed=seed)
    assert batch.data.shape == (count, n)
    assert np.all(np.isfinite(batch.data))
    again = sample_body(BodySpec(kind, n), count, seed=seed)
    np.testing.assert_array_equal(batch.data, again.data)
