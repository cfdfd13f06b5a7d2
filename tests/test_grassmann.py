"""Haar subspace generation and orthogonal projection of batches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projclt.errors import DimensionError, InvalidSpec
from projclt.grassmann import project, random_subspace
from projclt.model import BodySpec, SubspaceBasis, loads, dumps
from projclt.samplers import BLOCK, SampleBatch, sample_body, sample_gaussian


def test_basis_shape_and_orthonormality():
    basis = random_subspace(10, 3, seed=0)
    assert basis.subspace_dim == 3
    assert basis.ambient_dim == 10
    np.testing.assert_allclose(basis.rows @ basis.rows.T, np.eye(3), atol=1e-12)


def test_basis_is_deterministic_in_the_seed():
    a = random_subspace(7, 2, seed=42)
    b = random_subspace(7, 2, seed=42)
    np.testing.assert_array_equal(a.rows, b.rows)
    assert np.any(random_subspace(7, 2, seed=43).rows != a.rows)


def test_full_dimensional_subspace_is_orthogonal_matrix():
    basis = random_subspace(5, 5, seed=1)
    assert abs(abs(np.linalg.det(basis.rows)) - 1.0) < 1e-10


@pytest.mark.parametrize("n, l", [(4, 0), (4, -1), (4, 5), (0, 1)])
def test_dimension_guardrails(n, l):
    with pytest.raises(DimensionError):
        random_subspace(n, l, seed=0)


@pytest.mark.parametrize("n, l", [(10, 2.0), (10.0, 2), (10, True), ("10", 2), (10, "2")],
                         ids=["float_l", "float_n", "bool_l", "str_n", "str_l"])
def test_a_dimension_that_is_not_an_integer_is_refused_by_name(n, l):
    name = "l" if isinstance(n, int) else "n"
    with pytest.raises(InvalidSpec, match=f"^{name} must be an integer, got "):
        random_subspace(n, l, seed=0)


def test_one_dimensional_directions_cover_the_sphere_evenly():
    # For Haar-random unit vectors u in R^n, E[n * <u, e1>^2] = 1.
    n = 8
    stat = np.mean([n * random_subspace(n, 1, seed=s).rows[0, 0] ** 2 for s in range(3000)])
    assert abs(stat - 1.0) < 0.1


def test_projection_is_the_matrix_product():
    # A row-major batch takes the row-dot loop and a column-major one the BLAS
    # product: both are the matrix product to within the rounding of two dot
    # products of n terms, and the column-major one is it bit for bit.
    n = 6
    batch = sample_body(BodySpec("cube", n), 100, seed=2)
    basis = random_subspace(n, 2, seed=3)
    out = project(batch, basis)
    assert out.dimension == 2
    assert out.count == 100
    product = batch.data @ basis.rows.T
    bound = 2 * n * np.finfo(float).eps * (np.abs(batch.data) @ np.abs(basis.rows.T))
    assert np.all(np.abs(out.data - product) <= bound)
    column_major = np.asfortranarray(batch.data)
    np.testing.assert_array_equal(
        project(SampleBatch(data=column_major, seed=None, source={}), basis).data,
        column_major @ basis.rows.T,
    )
    assert out.source["draw"] == "projected"


def test_projection_checks_ambient_dimension():
    batch = sample_body(BodySpec("cube", 6), 10, seed=4)
    with pytest.raises(DimensionError):
        project(batch, random_subspace(5, 2, seed=5))


def test_full_projection_preserves_norms():
    batch = sample_body(BodySpec("ball", 4), 500, seed=6)
    rotated = project(batch, random_subspace(4, 4, seed=7))
    np.testing.assert_allclose(
        np.linalg.norm(rotated.data, axis=1),
        np.linalg.norm(batch.data, axis=1),
        rtol=1e-12,
    )


def test_projected_gaussian_stays_standard():
    # Orthogonal projection of a standard gaussian is a standard gaussian.
    batch = sample_gaussian(30, 1.0, 50_000, seed=8)
    out = project(batch, random_subspace(30, 2, seed=9))
    cov = np.cov(out.data, rowvar=False)
    assert np.abs(cov - np.eye(2)).max() < 0.03


def test_basis_serialization_round_trip():
    basis = random_subspace(9, 3, seed=10)
    back = loads(dumps(basis))
    np.testing.assert_array_equal(back.rows, basis.rows)


def test_basis_rows_are_c_contiguous():
    # The rounding of every projection product rests on the memory order of rows.
    basis = random_subspace(30, 3, seed=11)
    assert basis.rows.flags.c_contiguous
    assert loads(dumps(basis)).rows.flags.c_contiguous
    assert SubspaceBasis(rows=np.asfortranarray(basis.rows)).rows.flags.c_contiguous


@pytest.mark.parametrize("n", [20, 64, 300])
def test_block_row_products_round_as_the_full_chunk_product(n):
    # Sampled blocks are BLOCK rows high, a short last one fewer; a row-major
    # batch is projected row by row, so each row of a block, at any height
    # and offset, has the bits it has in the projection of 16 blocks at once.
    rows = 16 * BLOCK
    data = np.random.default_rng(n).standard_normal((rows, n))
    for l in (1, 2, 3):
        basis = random_subspace(n, l, seed=l)
        full = project(SampleBatch(data=data, seed=None, source={}), basis).data
        for lo, height in ((0, BLOCK), (17, BLOCK), (rows // 2 + 5, BLOCK - 1),
                           (rows - BLOCK, BLOCK), (5, 3), (rows - 1, 1)):
            block = SampleBatch(data=data[lo:lo + height], seed=None, source={})
            np.testing.assert_array_equal(project(block, basis).data, full[lo:lo + height])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_random_subspace_always_orthonormal(n, seed, data):
    l = data.draw(st.integers(min_value=1, max_value=n))
    basis = random_subspace(n, l, seed=seed)
    gram = basis.rows @ basis.rows.T
    assert np.abs(gram - np.eye(l)).max() < 1e-10
