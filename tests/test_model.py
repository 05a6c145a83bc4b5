import numpy as np
import pytest
from hypothesis import given, strategies as st

import onebit_mimo as om
from onebit_mimo.model import complex_block


def random_system(M, K, L, seed, snr_db=10.0):
    rng = np.random.default_rng(seed)
    return om.pilot_model(M, K, L, snr_db, rng), om.generate_channel(M, K, rng)


def test_realify_real_scalar_pilot():
    assert np.array_equal(om.realify(np.array([[1.0 + 0j]]), 1).A_tilde, np.eye(2))


def test_realify_imaginary_scalar_pilot():
    # X = [j]: y = j*h maps (a, b) -> (-b, a); verified against the complex product
    A = om.realify(np.array([[1j]]), 1).A_tilde
    assert np.array_equal(A, np.array([[0.0, -1.0], [1.0, 0.0]]))
    h = np.array([0.3, -0.7])
    y_complex = 1j * (0.3 - 0.7j)
    assert np.allclose(A @ h, [y_complex.real, y_complex.imag])


def test_realify_matches_explicit_kronecker_and_complex_product():
    rng = np.random.default_rng(7)
    M, K, L = 3, 2, 4
    X = rng.normal(size=(K, L)) + 1j * rng.normal(size=(K, L))
    model = om.realify(X, M)
    ch = om.generate_channel(M, K, rng)

    A_full = np.kron(np.eye(M), model.A_tilde)
    assert np.allclose(A_full @ ch.h, model.apply(ch.h), atol=1e-12)

    Y = ch.H @ X
    y_from_complex = np.hstack([Y.real, Y.imag]).reshape(-1)
    assert np.allclose(y_from_complex, model.apply(ch.h), atol=1e-12)


@pytest.mark.parametrize("K, L", [(1, 1), (2, 5), (8, 32)])
def test_complex_block_is_realify_operator(K, L):
    rng = np.random.default_rng(K * L)
    X = rng.normal(size=(K, L)) + 1j * rng.normal(size=(K, L))
    B = complex_block(X)
    assert np.array_equal(B.T, om.realify(X, 3).A_tilde)
    # entry by entry: [[Re X, Im X], [-Im X, Re X]]
    for i in range(K):
        for j in range(L):
            x = X[i, j]
            assert [B[i, j], B[i, L + j], B[K + i, j], B[K + i, L + j]] == [
                x.real, x.imag, -x.imag, x.real]


@given(st.integers(0, 2**32 - 1))
def test_realification_preserves_energy(seed):
    # ||A_tilde g_real|| == ||X^T g_complex|| for any complex vector g
    rng = np.random.default_rng(seed)
    K, L = int(rng.integers(1, 5)), int(rng.integers(1, 7))
    L = max(K, L)
    X = rng.normal(size=(K, L)) + 1j * rng.normal(size=(K, L))
    model = om.realify(X, 1)
    g = rng.normal(size=K) + 1j * rng.normal(size=K)
    g_real = np.concatenate([g.real, g.imag])
    lhs = np.linalg.norm(model.A_tilde @ g_real) ** 2
    rhs = np.linalg.norm(X.T @ g) ** 2
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_block_application_equals_per_antenna():
    model, ch = random_system(4, 2, 5, seed=3)
    y = model.apply(ch.h)
    for m in range(model.M):
        block = ch.h[m * 2 * model.K:(m + 1) * 2 * model.K]
        # identical up to summation order inside the matmul kernels
        assert np.allclose(y[m * 2 * model.L:(m + 1) * 2 * model.L],
                           model.A_tilde @ block, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("M_blocks", [1, 16])
@pytest.mark.parametrize("K,L", [(1, 1), (8, 32)])
def test_block_gram_matches_reference_contraction(M_blocks, K, L):
    rng = np.random.default_rng(100 * M_blocks + L)
    model = om.RealModel(A_tilde=rng.normal(size=(2 * L, 2 * K)), M=M_blocks)
    A_tilde = model.A_tilde
    w = rng.normal(size=(M_blocks, 2 * L))   # mixed signs: the contraction must not assume w >= 0
    assert (w > 0).any() and (w < 0).any()
    ref = np.einsum("ar,ri,rj->aij", w, A_tilde, A_tilde)
    got = model.block_gram(w)
    assert got.shape == (M_blocks, 2 * K, 2 * K)
    # rtol 1e-12 against the size of the summed terms, so cancelling entries are judged fairly
    scale = np.einsum("ar,ri,rj->aij", np.abs(w), np.abs(A_tilde), np.abs(A_tilde))
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)
    # both triangles are read from one packed entry, so the blocks are symmetric bit for bit
    assert np.array_equal(got, got.transpose(0, 2, 1))


@pytest.mark.parametrize("K,L", [(1, 1), (3, 5), (8, 256)])
def test_outer_table_is_packed_read_only_and_built_once(K, L):
    model = om.pilot_model(2, K, L, 10.0, rng=K + L)
    K2 = 2 * K
    assert "outer_table" not in vars(model)   # built on first use, not with the model
    Q = model.outer_table
    assert Q.shape == (2 * L, K2 * (K2 + 1) // 2)   # K = L = 1: 3 packed columns
    assert not Q.flags.writeable
    with pytest.raises(ValueError):
        Q[0, 0] = 1.0
    i, j = np.triu_indices(K2)   # packed order: row i's run (i, i), (i, i + 1), ..., (i, 2K - 1)
    assert np.array_equal(Q, model.A_tilde[:, i] * model.A_tilde[:, j])
    w = np.random.default_rng(L).normal(size=(3, 2 * L))
    blocks = model.block_gram(w)
    assert model.outer_table is Q
    assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
    assert np.array_equal(blocks[:, i, j], w @ Q)


def test_channel_round_trip_exact():
    ch = om.generate_channel(5, 3, rng_seed=11)
    assert np.array_equal(om.channel_to_real(ch.H), ch.h)
    assert np.array_equal(om.real_to_channel(ch.h, 5, 3), ch.H)


def test_channel_statistics():
    ch = om.generate_channel(250, 200, rng_seed=0)
    power = np.abs(ch.H) ** 2  # 5e4 draws
    n = power.size
    # |H|^2 has mean 1 and std 1 (exponential)
    assert abs(power.mean() - 1.0) < 3 / np.sqrt(n)
    re, im = ch.H.real.ravel(), ch.H.imag.ravel()
    assert abs(np.var(re) - 0.5) < 4 * 0.5 * np.sqrt(2.0 / n)
    assert abs(np.var(im) - 0.5) < 4 * 0.5 * np.sqrt(2.0 / n)
    assert abs(np.mean(re * im)) < 4 * 0.5 / np.sqrt(n)


def test_channel_deterministic_under_seed():
    a = om.generate_channel(4, 3, rng_seed=42)
    b = om.generate_channel(4, 3, rng_seed=42)
    assert np.array_equal(a.H, b.H)


def test_orthogonal_pilots():
    K, L, P = 8, 32, 57.5
    X = om.generate_pilots_orthogonal(K, L, P, rng_seed=1)
    G = X @ X.conj().T
    assert np.abs(G - (P / K) * np.eye(K)).max() <= 1e-10 * (P / K)
    assert abs(np.sum(np.abs(X) ** 2) - P) <= 1e-9 * P


def test_orthogonal_pilots_square_case():
    # K = L with P = K makes X unitary
    X = om.generate_pilots_orthogonal(2, 2, 2.0, rng_seed=5)
    assert np.allclose(X @ X.conj().T, np.eye(2), atol=1e-12)


def test_orthogonal_pilots_need_enough_symbols():
    with pytest.raises(ValueError):
        om.generate_pilots_orthogonal(4, 3, 1.0, rng_seed=0)


def test_noisy_observation_noiseless_limit_and_variance():
    model, ch = random_system(3, 2, 6, seed=9)
    y0 = om.generate_noisy_observation(model, ch.h, rng_seed=4)
    resid = y0 - model.apply(ch.h)
    # empirical noise variance over many draws
    draws = np.array([om.generate_noisy_observation(model, ch.h, rng_seed=s) - model.apply(ch.h)
                      for s in range(300)])
    n = draws.size
    assert abs(np.var(draws) - 1.0) < 4 * np.sqrt(2.0 / n)
    assert resid.shape == (model.N,)
    # determinism
    y1 = om.generate_noisy_observation(model, ch.h, rng_seed=4)
    assert np.array_equal(y0, y1)


def test_snr_definition():
    assert abs(om.power_for_snr(15.0, 8, 32) - 8 * 32 * 10 ** 1.5) < 1e-6
    # P = K L gives 0 dB
    assert om.power_for_snr(0.0, 4, 16) == 4 * 16


def test_realify_rejects_bad_antenna_count():
    with pytest.raises(ValueError):
        om.realify(np.ones((2, 3), dtype=complex), 0)


def test_real_model_rejects_odd_operator():
    with pytest.raises(ValueError):
        om.RealModel(A_tilde=np.ones((3, 2)), M=1)


def test_users_and_pilots_come_from_operator():
    model = om.realify(np.ones((2, 5), dtype=complex), 3)
    assert model.A_tilde.shape == (10, 4)
    assert (model.K, model.L, model.N) == (2, 5, 30)


def test_channel_realization_derives_read_only_h():
    H = np.array([[1.0 + 2j, -3.0j], [0.5, 4.0 - 1j]])
    ch = om.ChannelRealization(H)
    assert np.array_equal(ch.h, om.channel_to_real(H))
    assert not ch.H.flags.writeable and not ch.h.flags.writeable


def test_pilot_model_spends_its_budget():
    # A_tilde stacks Re X and Im X twice, so ||A_tilde||_F^2 = 2 ||X||_F^2 = 2 P
    model = om.pilot_model(4, 3, 7, 12.0, rng=5)
    P = om.power_for_snr(12.0, 3, 7)
    assert abs(np.sum(model.A_tilde ** 2) - 2.0 * P) <= 1e-9 * P


def test_channel_mse_divides_by_antennas_times_users():
    # 12 real coordinates are M K = 6 complex entries, each off by |1 + 1j|^2 = 2
    assert om.channel_mse(np.ones(12), np.zeros(12)) == 2.0
