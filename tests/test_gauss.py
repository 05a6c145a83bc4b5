import warnings

import mpmath
import numpy as np
from hypothesis import given, strategies as st
from scipy.stats import norm

from onebit_mimo.gauss import (MILLS_LOGCDF_CUT, mills_from_logcdf, mills_ratio, norm_logcdf,
                               norm_logcdf_pair)


def test_mills_matches_naive_ratio_midrange():
    t = np.linspace(-6.0, 6.0, 241)
    naive = norm.pdf(t) / norm.cdf(t)
    assert np.allclose(mills_ratio(t), naive, rtol=1e-12)


def test_mills_deep_tail_stable():
    # naive phi/Phi is 0/0 out here; the stable form grows like |t|
    t = np.array([-20.0, -50.0, -100.0, -300.0])
    lam = mills_ratio(t)
    assert np.all(np.isfinite(lam))
    assert np.allclose(lam, -t, rtol=0.01)
    # right tail underflows gracefully to zero
    assert mills_ratio(50.0) == 0.0


def test_logcdf_deep_tail_value():
    # frozen against mpmath: log Phi(-10)
    assert abs(norm_logcdf(-10.0) - (-53.231285150512565)) < 1e-9


@given(st.floats(min_value=-40.0, max_value=8.0))
def test_mills_positive_and_decreasing(t):
    lam = float(mills_ratio(t))
    assert lam > 0.0
    # d/dt phi/Phi = -lam (t + lam) < 0
    assert float(mills_ratio(t + 1e-3)) < lam


def test_mills_from_logcdf_agrees_with_mills_ratio_and_mpmath():
    t = np.linspace(-40.0, 40.0, 1601)
    lam = mills_from_logcdf(t, norm_logcdf(t))
    # past t ~ 19 the ratio is below 1e-80 and erfcx's own form is only good
    # to ~t^2 eps (2e-13 at t = 36 against mpmath), hence the atol
    assert np.allclose(lam, mills_ratio(t), rtol=1e-13, atol=1e-80)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.npdf(x) / mpmath.ncdf(x)) for x in t[::4]])
    # below 1e-250 (t > 33.8) rounding t^2/2 costs both forms more than 1e-13
    assert np.allclose(lam[::4], ref, rtol=1e-13, atol=1e-250)


def test_mills_from_logcdf_deep_tail_uses_erfcx_and_never_warns():
    t = np.array([1e3, -1e3, -1e12, MILLS_LOGCDF_CUT - 1e-9, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = mills_from_logcdf(t, norm_logcdf(t))
        scalar = mills_from_logcdf(-1e12, norm_logcdf(-1e12))
    assert lam[0] == 0.0
    assert np.array_equal(lam[1:4], mills_ratio(t[1:4]))
    assert scalar == mills_ratio(-1e12)
    assert abs(lam[4] - np.sqrt(2.0 / np.pi)) < 1e-15


def test_logcdf_pair_matches_mpmath():
    # a linear grid over |t| <= 40, geometric points down to 1e-8 on both
    # sides, and the far tails
    geo = np.geomspace(1e-8, 40.0, 600)
    t = np.concatenate([np.linspace(-40.0, 40.0, 4001), geo, -geo,
                        [1e3, -1e3, 1e5, -1e5, 0.0, -0.0]])
    log_pos, log_neg = norm_logcdf_pair(t)
    with mpmath.workdps(40):
        ref_pos = np.array([float(mpmath.log(mpmath.ncdf(x))) for x in t])
        ref_neg = np.array([float(mpmath.log(mpmath.ncdf(-x))) for x in t])
    small = np.where(t < 0, log_pos, log_neg)  # the side <= 1/2
    ref_small = np.where(t < 0, ref_pos, ref_neg)
    other, ref_other = np.where(t < 0, log_neg, log_pos), np.where(t < 0, ref_neg, ref_pos)
    assert np.all(np.abs(small - ref_small) <= 4 * np.spacing(np.abs(ref_small)))
    assert np.all(np.abs(other - ref_other) <= 2 * 2.0 ** -53)
    # scalars keep their shape; +-0 give log(1/2) on both sides
    for zero in (0.0, -0.0):
        pos, neg = norm_logcdf_pair(zero)
        assert pos.shape == () and pos == neg == np.log(0.5)


def test_logcdf_pair_reaches_log_ndtr_limits_without_warnings():
    t = np.array([np.inf, -np.inf, 1e300, -1e300, -1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_pos, log_neg = norm_logcdf_pair(t)
    assert np.array_equal(log_pos, [0.0, -np.inf, 0.0, -np.inf, -np.inf])
    assert np.array_equal(log_neg, [-np.inf, 0.0, -np.inf, 0.0, 0.0])
    assert np.array_equal(log_pos, norm_logcdf(t)) and np.array_equal(log_neg, norm_logcdf(-t))
    # below the overflow, large finite inputs keep log_ndtr's tail to 4 ulp
    big = np.geomspace(1e10, 1e150, 15)
    t = np.concatenate([big, -big])
    log_pos, log_neg = norm_logcdf_pair(t)
    small, ref = np.where(t < 0, log_pos, log_neg), norm_logcdf(-np.abs(t))
    assert np.all(np.abs(small - ref) <= 4 * np.spacing(np.abs(ref)))
    assert np.all(np.where(t < 0, log_neg, log_pos) == 0.0)
