"""The numpy/stdlib replacements of the scipy functions librotor once
imported, checked against scipy itself (a test-only dependency)."""

import math

import numpy as np
import pytest
import scipy.constants
from hypothesis import given, settings, strategies as st
from scipy.ndimage import median_filter
from scipy.special import chdtrc, chdtri, ndtr

from librotor.geometry import _normal_cdf
from librotor.physics import EPSILON_0, HBAR, K_B
from librotor.thermometry import _chi2_sf, _median5, calibrate_c


def test_constants_equal_scipy():
    assert HBAR == scipy.constants.hbar
    assert K_B == scipy.constants.k
    assert EPSILON_0 == scipy.constants.epsilon_0


# ---------------------------------------------------------------------------
# 5-bin running median

@settings(max_examples=60, deadline=None)
@given(n=st.integers(16, 20000),
       pool=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8),
       plateau=st.integers(1, 40),
       distinct_share=st.sampled_from([0.0, 0.1, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_median5_matches_median_filter(n, pool, plateau, distinct_share, seed):
    """Plateaus of `plateau` equal bins drawn from a small pool (ties), with
    a share of bins replaced by distinct values."""
    rng = np.random.default_rng(seed)
    runs = rng.integers(0, len(pool), size=-(-n // plateau))
    # + 0.0 turns -0.0 into 0.0: of equal values a median may pick either
    values = np.asarray(pool)[runs].repeat(plateau)[:n] + 0.0
    distinct = rng.random(n) < distinct_share
    values[distinct] = rng.gamma(2.0, 1.0, np.count_nonzero(distinct))
    expect = median_filter(values, size=5, mode="nearest")
    assert _median5(values).tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# chi-square survival function

def test_chi2_sf_matches_chdtrc():
    xs = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 400),
                         np.linspace(0.0, 1e3, 2001)])
    for dof in range(1, 101):
        got = np.array([_chi2_sf(dof, float(x)) for x in xs])
        np.testing.assert_allclose(got, chdtrc(dof, xs), rtol=1e-12, atol=0,
                                   err_msg=f"dof={dof}")


@settings(max_examples=300, deadline=None)
@given(dof=st.integers(1, 100), x=st.floats(0.0, 1e3))
def test_chi2_sf_matches_chdtrc_anywhere(dof, x):
    assert _chi2_sf(dof, x) == pytest.approx(float(chdtrc(dof, x)),
                                             rel=1e-12, abs=0)


def test_chi2_sf_vanishes_at_infinity():
    for dof in (1, 2, 3, 50, 99, 100):
        assert _chi2_sf(dof, math.inf) == 0.0


@pytest.mark.parametrize("dof", [1, 2, 3, 7, 20])
def test_consistency_flag_flips_at_p_1e_3(dof):
    """calibrate_c's `consistent` is p >= 1e-3: records whose chi-square
    lies just below the critical value pass, just above it fail."""
    x_crit = float(chdtri(dof, 1e-3))
    z = np.arange(dof + 1.0) - dof / 2.0  # mean zero, so c = 0
    err = math.sqrt(0.5)  # each record has variance 1
    for scale, consistent in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        diffs = z * math.sqrt(scale * x_crit / np.sum(z ** 2))
        records = [(d + 10.0, err, 10.0, err) for d in diffs]
        assert calibrate_c(records).consistent is consistent


# ---------------------------------------------------------------------------
# normal CDF

# Two units in the last place of values in [0.5, 1).  ndtr is itself 2 ulp
# from the exact value at some points there, where erfc is within 1 ulp.
NDTR_TOL = 2.0 * np.spacing(0.5)


def test_normal_cdf_matches_ndtr():
    xs = np.linspace(-40.0, 40.0, 160001)
    got = np.array([_normal_cdf(float(x)) for x in xs])
    assert np.max(np.abs(got - ndtr(xs))) <= NDTR_TOL


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-40.0, 40.0))
def test_normal_cdf_matches_ndtr_anywhere(x):
    assert abs(_normal_cdf(x) - float(ndtr(x))) <= NDTR_TOL
