"""Thin-shell fractions from sample norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from projclt.errors import EmptyBatch, InvalidSpec, RangeError
from projclt.model import BodySpec
from projclt.radial import norm_column, thin_shell_fraction
from projclt.samplers import SampleBatch, sample_body


def _norms_batch(norms):
    """A one-column norms batch holding exactly the given values."""
    return SampleBatch(data=np.array(norms, dtype=float)[:, None], seed=None, source={})


# ------------------------------------------------------------- thin shell


def test_thin_shell_fraction_counts_by_hand():
    # sqrt(n) = 2; norms 2.5 and 1.0 deviate by 0.25 and 0.5, the others less.
    res = thin_shell_fraction(_norms_batch([2.0, 2.1, 2.5, 1.0]), 0.2, 4)
    assert res.fraction == 0.5
    assert math.isclose(res.stderr, math.sqrt(0.25 / 4))


def test_thin_shell_boundary_is_inclusive():
    # 2.5/2 and 1.5/2 are exactly representable, so both rows deviate by
    # exactly 0.25 and the >= cut must count them.
    assert thin_shell_fraction(_norms_batch([2.5, 1.5]), 0.25, 4).fraction == 1.0


def test_thin_shell_rejects_bad_epsilon():
    for eps in (0.0, -0.1, math.nan):
        with pytest.raises(RangeError):
            thin_shell_fraction(_norms_batch([1.0]), eps, 4)


def test_a_nan_norm_is_refused_not_counted_on_shell():
    with pytest.raises(InvalidSpec, match="holds non-finite values"):
        thin_shell_fraction(_norms_batch([2.0, math.nan, 2.1]), 0.2, 4)


def test_empty_batch_is_an_error():
    with pytest.raises(EmptyBatch):
        thin_shell_fraction(_norms_batch([]), 0.1, 3)


def test_thin_shell_needs_one_column_of_norms():
    samples = SampleBatch(data=np.ones((4, 3)), seed=None, source={})
    with pytest.raises(InvalidSpec, match="one column"):
        thin_shell_fraction(samples, 0.1, 3)


def test_gaussian_thin_shell_matches_the_chi_square_oracle():
    norms = sample_body(BodySpec("gaussian", 100), 100_000, seed=31, reduce=norm_column)
    res = thin_shell_fraction(norms, 0.2, 100)
    oracle = stats.chi2.cdf(100 * 0.8**2, df=100) + stats.chi2.sf(100 * 1.2**2, df=100)
    assert abs(res.fraction - oracle) < 0.0015


def test_concentration_improves_with_dimension():
    # At fixed epsilon the off-shell mass of the cube drops fast in n.
    fracs = []
    for n in (10, 40, 160):
        norms = sample_body(BodySpec("cube", n), 50_000, seed=61, reduce=norm_column)
        fracs.append(thin_shell_fraction(norms, 0.1, n).fraction)
    assert fracs[0] > fracs[1] >= fracs[2]


@settings(max_examples=30, deadline=None)
@given(
    eps_a=st.floats(min_value=0.01, max_value=2.0),
    eps_b=st.floats(min_value=0.01, max_value=2.0),
)
def test_fraction_is_monotone_in_epsilon(eps_a, eps_b):
    norms = sample_body(BodySpec("ball", 6), 500, seed=71, reduce=norm_column)
    lo, hi = sorted((eps_a, eps_b))
    assert thin_shell_fraction(norms, hi, 6).fraction <= thin_shell_fraction(norms, lo, 6).fraction
