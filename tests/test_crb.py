import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

import onebit_mimo as om
from onebit_mimo.crb import COND_LIMIT

mp.mp.dps = 40


def mp_g(u):
    """High-precision oracle for f^2/(F(1-F)) with unit variance."""
    f = mp.exp(-u ** 2 / 2) / mp.sqrt(2 * mp.pi)
    F = (1 + mp.erf(u / mp.sqrt(2))) / 2
    return f ** 2 / (F * (1 - F))


def make_model(M=3, K=2, L=6, snr_db=10.0, seed=0):
    return om.pilot_model(M, K, L, snr_db, seed)


def test_g_weight_peak_value():
    assert abs(om.g_weight(0.0) - 2.0 / np.pi) < 1e-15


def test_g_weight_matches_high_precision_oracle():
    for u in (1.0, 3.0):
        expect = float(mp_g(u))
        assert abs(om.g_weight(u) - expect) < 1e-12 * expect
    # frozen value from the oracle
    assert abs(om.g_weight(1.0) - 0.4386288611022141) < 1e-14


@given(st.floats(-30.0, 30.0))
def test_g_weight_positive_bounded_symmetric(u):
    g = float(om.g_weight(u))
    assert 0.0 < g <= 2.0 / np.pi + 1e-15
    assert abs(g - float(om.g_weight(-u))) <= 1e-12 * g
    if abs(u) > 1e-3:
        assert g < 2.0 / np.pi


def test_fim_with_oracle_thresholds_is_scaled_gram():
    model = make_model(seed=1)
    ch = om.generate_channel(model.M, model.K, 1)
    J = om.fim(model, om.thresholds_oracle(model, ch.h), ch.h)
    assert isinstance(J, np.ndarray) and J.shape == (model.M, 2 * model.K, 2 * model.K)
    expected = (2.0 / np.pi) * model.gram()
    for blk in J:
        assert np.allclose(blk, expected, rtol=1e-12)
    # h = 0 with zero thresholds is the same stationary case
    J0 = om.fim(model, om.thresholds_fixed(model.N), np.zeros(ch.h.size))
    assert np.allclose(J0, J, rtol=1e-12)


@pytest.mark.parametrize("M, K, L", [(1, 1, 1), (3, 2, 6), (16, 8, 32)])
def test_fim_matches_reference_contraction(M, K, L):
    model = make_model(M, K, L, seed=M + L)
    ch = om.generate_channel(M, K, M + L)
    tau = om.thresholds_random(model, rng_seed=L)
    J = om.fim(model, tau, ch.h)
    A = model.A_tilde
    g = om.g_weight((model.apply(ch.h) - tau).reshape(M, 2 * L))
    ref = np.einsum("ar,ri,rj->aij", g, A, A)
    # g > 0, so the summed terms' size is the reference's own |entries| with |A|
    scale = np.einsum("ar,ri,rj->aij", g, np.abs(A), np.abs(A))
    assert J.shape == (M, 2 * K, 2 * K)
    assert np.all(np.abs(J - ref) <= 1e-12 * scale)
    assert np.array_equal(J, J.transpose(0, 2, 1))


def test_fim_dominance_of_oracle_thresholds():
    model = make_model(seed=2)
    ch = om.generate_channel(model.M, model.K, 2)
    J_star = om.fim(model, om.thresholds_oracle(model, ch.h), ch.h)
    for seed in range(5):
        tau = om.thresholds_random(model, rng_seed=seed)
        J = om.fim(model, tau, ch.h)
        for d in J_star - J:
            assert np.linalg.eigvalsh(d).min() >= -1e-9


def test_crb_trace_optimal_design_value():
    model = make_model(M=4, K=3, L=8, snr_db=12.0, seed=3)
    ch = om.generate_channel(4, 3, 3)
    tr = om.crb_trace(model, om.thresholds_oracle(model, ch.h), ch.h)
    P = om.power_for_snr(12.0, 3, 8)
    expected = np.pi * model.M * model.K ** 2 / P
    assert abs(tr - expected) < 1e-10 * expected


def test_pi_half_ratio_exact():
    for seed, (M, K, L, snr) in enumerate([(2, 2, 4, 5.0), (4, 3, 7, 12.0), (1, 1, 2, 0.0)]):
        model = make_model(M, K, L, snr, seed=seed)
        ch = om.generate_channel(M, K, seed)
        ratio = om.crb_trace(model, om.thresholds_oracle(model, ch.h), ch.h) / om.crb_nq_trace(model)
        assert abs(ratio - np.pi / 2) < 1e-12 * (np.pi / 2)


def test_crb_trace_uniform_offset_formula_and_monotonicity():
    model = make_model(M=2, K=2, L=5, seed=4)
    ch = om.generate_channel(2, 2, 4)
    gram_inv_tr = model.M * np.trace(np.linalg.inv(model.gram()))
    prev = None
    for delta in [0.0, 0.4, 0.8, 1.6, 2.4]:
        tau = model.apply(ch.h) + delta
        tr = om.crb_trace(model, tau, ch.h)
        expected = gram_inv_tr / om.g_weight(delta)
        assert abs(tr - expected) < 1e-9 * expected
        if prev is not None:
            assert tr > prev
        prev = tr


def test_crb_nq_trace_values():
    model = make_model(M=5, K=2, L=6, snr_db=7.0, seed=5)
    expected = 2.0 * model.M * model.K ** 2 / om.power_for_snr(7.0, 2, 6)
    assert abs(om.crb_nq_trace(model) - expected) < 1e-10 * expected
    # identity operator: trace is 2MK
    ident = om.realify(np.array([[1.0 + 0j]]), 3)
    assert abs(om.crb_nq_trace(ident) - 2 * 3 * 1) < 1e-12


def test_quantization_never_beats_unquantized():
    model = make_model(seed=6)
    ch = om.generate_channel(model.M, model.K, 6)
    nq = om.crb_nq_trace(model)
    for seed in range(4):
        tau = om.thresholds_random(model, rng_seed=seed)
        assert om.crb_trace(model, tau, ch.h) >= nq * (1.0 - 1e-12)


def test_ill_conditioned_fim_raises_with_block_index():
    model = make_model(M=2, K=2, L=5, seed=7)
    ch = om.generate_channel(2, 2, 7)
    # push one antenna's thresholds far away: its block weights vanish
    tau = model.apply(ch.h)
    tau[:2 * model.L] += 200.0
    with pytest.raises(om.NumericalError) as err:
        om.crb_trace(model, tau, ch.h)
    assert "block 0" in str(err.value)
    conds = np.linalg.cond(om.fim(model, tau, ch.h))
    assert np.argmax(conds) == 0
    assert conds[0] > COND_LIMIT


def test_trace_inverse_monotone_under_loewner_order():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = int(rng.integers(2, 7))
        A = rng.normal(size=(p, p))
        Q = A @ A.T + 0.1 * np.eye(p)
        B = rng.normal(size=(p, p))
        P_mat = Q + B @ B.T  # P - Q is PSD
        assert np.trace(np.linalg.inv(P_mat)) <= np.trace(np.linalg.inv(Q)) + 1e-12


def test_trace_inverse_lower_bound_under_trace_budget():
    rng = np.random.default_rng(9)
    P0 = 7.3
    for _ in range(100):
        p = int(rng.integers(1, 9))
        A = rng.normal(size=(p, p))
        Z = A @ A.T + 0.05 * np.eye(p)
        Z *= P0 / np.trace(Z)
        val = np.trace(np.linalg.inv(Z))
        assert val >= p ** 2 / P0 - 1e-9
        if val <= p ** 2 / P0 + 1e-6:
            assert np.linalg.norm(Z - (P0 / p) * np.eye(p)) < 1e-2 * np.linalg.norm(Z)


def test_gaussian_cdf_bound_values():
    fbar0, bound0 = om.gaussian_cdf_bound(0.0)
    assert fbar0 == 0.0 and bound0 == 0.0
    fbar1, bound1 = om.gaussian_cdf_bound(1.0)
    assert abs(fbar1 - 0.3413447460685429) < 1e-14
    assert abs(bound1 - 0.34311885394578095) < 1e-14
    assert fbar1 <= bound1
    fbar_inf, bound_inf = om.gaussian_cdf_bound(40.0)
    assert abs(fbar_inf - 0.5) < 1e-12 and abs(bound_inf - 0.5) < 1e-12
    with pytest.raises(ValueError):
        om.gaussian_cdf_bound(np.array([-0.1, 1.0]))


def test_gaussian_cdf_bound_against_oracle():
    for x in [0.2, 1.0, 2.7, 5.0]:
        fbar, bound = om.gaussian_cdf_bound(x)
        assert abs(fbar - float(mp.erf(x / mp.sqrt(2)) / 2)) < 1e-14
        assert abs(bound - float(mp.sqrt(1 - mp.exp(-2 * x ** 2 / mp.pi)) / 2)) < 1e-14


def test_g_bar_bound_equality_only_at_zero():
    g0, b0 = om.g_bar_bound(0.0)
    assert abs(g0 - 2.0 / np.pi) < 1e-15
    assert abs(b0 - 2.0 / np.pi) < 1e-15
    g2, b2 = om.g_bar_bound(2.0)
    assert g2 <= b2
    assert abs(g2 - float(mp_g(2.0))) < 1e-13
    ga, _ = om.g_bar_bound(-1.3)
    gb, _ = om.g_bar_bound(1.3)
    assert abs(ga - gb) < 1e-14
