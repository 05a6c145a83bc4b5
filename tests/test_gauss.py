import warnings

import mpmath
import numpy as np
from hypothesis import given, strategies as st
from scipy.stats import norm

from onebit_mimo.gauss import MILLS_LOGCDF_CUT, mills_from_logcdf, mills_ratio, norm_logcdf


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
