import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import onebit_mimo as om


def small_model(M=2, K=2, L=4, seed=0, snr_db=10.0):
    return om.pilot_model(M, K, L, snr_db, seed)


def test_quantize_basic():
    tau = np.zeros(2)
    out = om.quantize(np.array([0.5, -0.5]), tau)
    assert np.array_equal(out.b, [1, -1])
    # the batch holds read-only copies; the caller's thresholds stay writable
    assert not out.b.flags.writeable and not out.tau.flags.writeable
    assert tau.flags.writeable


def test_quantize_tie_is_plus_one():
    tau = np.array([1.0, -2.0, 0.0])
    out = om.quantize(tau.copy(), tau)
    assert np.array_equal(out.b, [1, 1, 1])


def test_quantize_complex_view():
    # complex sample 1 - 2j against zero threshold -> quantized symbol 1 - j
    out = om.quantize(np.array([1.0, -2.0]), np.zeros(2))
    symbol = out.b[0] + 1j * out.b[1]
    assert symbol == 1 - 1j
    assert symbol in {1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j}


def test_quantize_length_mismatch():
    with pytest.raises(ValueError):
        om.quantize(np.zeros(3), np.zeros(4))


def test_thresholds_fixed():
    assert np.array_equal(om.thresholds_fixed(4), np.zeros(4))


def test_thresholds_oracle_zero_channel():
    model = small_model()
    assert np.array_equal(om.thresholds_oracle(model, np.zeros(2 * model.M * model.K)), np.zeros(model.N))


def test_thresholds_oracle_single_antenna_complex_arithmetic():
    # K = 1: thresholds must equal Re/Im of x_l * h for each pilot symbol
    rng = np.random.default_rng(3)
    X = rng.normal(size=(1, 5)) + 1j * rng.normal(size=(1, 5))
    model = om.realify(X, 1)
    ch = om.generate_channel(1, 1, rng)
    tau = om.thresholds_oracle(model, ch.h)
    prod = X[0] * ch.H[0, 0]
    assert np.allclose(tau, np.concatenate([prod.real, prod.imag]), atol=1e-12)


def test_oracle_thresholds_noiseless_all_plus_one():
    model = small_model(seed=5)
    ch = om.generate_channel(model.M, model.K, 5)
    y = model.apply(ch.h)  # no noise
    out = om.quantize(y, om.thresholds_oracle(model, ch.h))
    assert np.all(out.b == 1)


def test_oracle_thresholds_noisy_signs_symmetric():
    model = small_model(M=50, K=2, L=50, seed=6)
    ch = om.generate_channel(model.M, model.K, 6)
    tau = om.thresholds_oracle(model, ch.h)
    rng = np.random.default_rng(0)
    means = []
    for _ in range(20):
        y = om.generate_noisy_observation(model, ch.h, rng)
        means.append(om.quantize(y, tau).b.mean())
    n = 20 * model.N
    assert abs(np.mean(means)) < 4 / np.sqrt(n)


def test_thresholds_random_variance():
    model = small_model(M=100, K=2, L=125, seed=2)  # N = 25000
    taus = np.concatenate([om.thresholds_random(model, rng_seed=s) for s in range(4)])
    scaled = taus / np.sqrt(np.tile((model.A_tilde ** 2).sum(axis=1), 4 * model.M))
    n = scaled.size
    target = 0.5  # unit complex prior: 1/2 per real part
    assert abs(np.var(scaled) - target) < 4 * target * np.sqrt(2.0 / n)


def test_thresholds_random_deterministic():
    model = small_model()
    a = om.thresholds_random(model, rng_seed=9)
    b = om.thresholds_random(model, rng_seed=9)
    assert np.array_equal(a, b)


@given(st.integers(0, 2**32 - 1))
def test_quantize_shift_equivariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    y = rng.normal(size=n)
    tau = rng.normal(size=n)
    assert np.array_equal(om.quantize(y, tau).b, om.quantize(y - tau, np.zeros(n)).b)


@given(st.integers(0, 2**32 - 1), st.integers(-8, 8))
def test_quantize_positive_scale_invariance(seed, log2_alpha):
    # powers of two scale exactly in binary floating point
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    y = rng.normal(size=n)
    tau = rng.normal(size=n)
    alpha = 2.0 ** log2_alpha
    assert np.array_equal(om.quantize(alpha * y, alpha * tau).b, om.quantize(y, tau).b)


@given(st.integers(0, 2**32 - 1),
       st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
def test_quantize_scale_invariance_generic_alpha(seed, alpha):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    y = rng.normal(size=n)
    tau = rng.normal(size=n)
    # rounding can flip exact ties; keep a margin around y == tau
    assume(np.abs(y - tau).min() > 1e-6)
    assert np.array_equal(om.quantize(alpha * y, alpha * tau).b, om.quantize(y, tau).b)
