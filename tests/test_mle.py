import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import onebit_mimo as om
from onebit_mimo import gauss, mle
from onebit_mimo.mle import LikelihoodProblem, SEPARABLE_LL_TOL

LOG_HALF = np.log(0.5)


def identity_pilot_model():
    # X = [1] gives A_tilde = I_2: measurements read the channel coordinates directly
    return om.realify(np.array([[1.0 + 0j]]), 1)


def make_problem(M=2, K=2, L=6, seed=0, snr_db=8.0, n_batches=1, policy="random"):
    rng = np.random.default_rng(seed)
    model = om.pilot_model(M, K, L, snr_db, rng)
    ch = om.generate_channel(M, K, rng)
    batches = []
    for _ in range(n_batches):
        if policy == "random":
            tau = om.thresholds_random(model, rng)
        else:
            tau = om.thresholds_fixed(model.N)
        y = om.generate_noisy_observation(model, ch.h, rng)
        batches.append(om.quantize(y, tau))
    return model, ch, LikelihoodProblem(batches, model)


def test_log_likelihood_at_threshold_is_log_half():
    model = identity_pilot_model()
    batch = om.quantize(np.zeros(2), om.thresholds_fixed(2))
    prob = LikelihoodProblem([batch], model)
    assert abs(om.log_likelihood(prob, np.zeros(2)) - 2 * LOG_HALF) < 1e-12


def test_log_likelihood_additive_over_batches():
    model, ch, prob = make_problem(n_batches=3, seed=4)
    h = np.random.default_rng(1).normal(size=ch.h.size)
    total = om.log_likelihood(prob, h)
    parts = sum(om.log_likelihood(LikelihoodProblem([b], model), h) for b in prob.batches)
    assert abs(total - parts) < 1e-9 * abs(total)


def test_log_likelihood_deep_tail_no_underflow():
    # b = +1 with the signal 10 noise deviations below threshold: log Phi(-10) per measurement
    model = identity_pilot_model()
    batch = om.quantize(np.zeros(2) + 1e-9, om.thresholds_fixed(2))
    prob = LikelihoodProblem([batch], model)
    val = om.log_likelihood(prob, np.array([-10.0, -10.0]))
    assert abs(val - 2 * (-53.231285150512565)) < 1e-8
    assert np.isfinite(om.log_likelihood(prob, np.array([-300.0, 300.0])))


def test_gradient_value_at_threshold():
    model = identity_pilot_model()
    batch = om.quantize(np.ones(2), om.thresholds_fixed(2))  # b = +1
    prob = LikelihoodProblem([batch], model)
    g = om.gradient(prob, np.zeros(2))
    assert np.allclose(g, np.sqrt(2.0 / np.pi), rtol=1e-12)


def test_curvature_value_at_threshold():
    model = identity_pilot_model()
    batch = om.quantize(np.ones(2), om.thresholds_fixed(2))
    prob = LikelihoodProblem([batch], model)
    hv = om.hessian_action(prob, np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(hv, [-2.0 / np.pi, 0.0], atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gradient_matches_central_differences(seed):
    model, ch, prob = make_problem(seed=seed, n_batches=2)
    rng = np.random.default_rng(100 + seed)
    h = rng.normal(0.0, 0.7, size=ch.h.size)
    g = om.gradient(prob, h)
    fd = np.zeros_like(g)
    for i in range(len(h)):
        step = 1e-5 * (1.0 + abs(h[i]))
        e = np.zeros_like(h)
        e[i] = step
        fd[i] = (om.log_likelihood(prob, h + e) - om.log_likelihood(prob, h - e)) / (2 * step)
    assert np.linalg.norm(g - fd) < 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hessian_action_matches_gradient_differences(seed):
    model, ch, prob = make_problem(seed=seed)
    rng = np.random.default_rng(200 + seed)
    h = rng.normal(0.0, 0.7, size=ch.h.size)
    v = rng.normal(size=ch.h.size)
    hv = om.hessian_action(prob, h, v)
    step = 1e-6
    fd = (om.gradient(prob, h + step * v) - om.gradient(prob, h - step * v)) / (2 * step)
    assert np.linalg.norm(hv - fd) < 1e-5 * np.linalg.norm(fd)


@given(st.integers(0, 2**32 - 1))
def test_hessian_negative_semidefinite(seed):
    rng = np.random.default_rng(seed)
    model, ch, prob = make_problem(seed=int(rng.integers(0, 1000)))
    h = rng.normal(0.0, 1.0, size=ch.h.size)
    v = rng.normal(size=ch.h.size)
    quad = float(v @ om.hessian_action(prob, h, v))
    assert quad <= 1e-8 * float(v @ v)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=40)
def test_log_likelihood_concave_along_segments(seed, lam):
    rng = np.random.default_rng(seed)
    model, ch, prob = make_problem(seed=int(rng.integers(0, 1000)))
    h1 = rng.normal(0.0, 1.0, size=ch.h.size)
    h2 = rng.normal(0.0, 1.0, size=ch.h.size)
    mid = lam * h1 + (1 - lam) * h2
    lhs = om.log_likelihood(prob, mid)
    rhs = lam * om.log_likelihood(prob, h1) + (1 - lam) * om.log_likelihood(prob, h2)
    assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


def test_score_identity_mean_and_covariance():
    # sample score statistics at the true channel against the Fisher blocks
    rng = np.random.default_rng(0)
    model = om.pilot_model(1, 1, 4, 3.0, rng)
    ch = om.generate_channel(1, 1, rng)
    tau = om.thresholds_random(model, rng)
    u = model.apply(ch.h) - tau
    n_draws = 30_000
    w = rng.standard_normal((n_draws, model.N))
    b = np.where(u[None, :] + w >= 0.0, 1.0, -1.0)
    from onebit_mimo.gauss import mills_ratio
    s = b * u[None, :]
    weights = b * mills_ratio(s)
    scores = weights @ model.A_tilde
    J = om.fim(model, tau, ch.h)[0]
    assert np.linalg.norm(scores.mean(0)) < 4 * np.sqrt(np.trace(J) / n_draws)
    S = np.cov(scores.T)
    assert np.linalg.norm(S - J) < 0.10 * np.linalg.norm(J)


def test_solver_reaches_stated_tolerance():
    model, ch, prob = make_problem(M=3, K=2, L=8, seed=6)
    est = om.solve_ml(prob)
    assert est.converged
    n_meas = len(prob.batches) * model.N
    assert est.grad_norm <= 1e-8 * n_meas
    assert est.antenna_converged.all()


def test_solver_matches_grid_on_tiny_instance():
    rng = np.random.default_rng(14)
    model = om.pilot_model(1, 1, 4, 0.0, rng)
    ch = om.generate_channel(1, 1, rng)
    tau = om.thresholds_random(model, rng)
    y = om.generate_noisy_observation(model, ch.h, rng)
    prob = LikelihoodProblem([om.quantize(y, tau)], model)
    est = om.solve_ml(prob)
    assert est.converged
    from onebit_mimo.gauss import norm_logcdf
    g = np.arange(-4.0, 4.0 + 5e-3, 0.01)
    G1, G2 = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([G1.ravel(), G2.ravel()], axis=1)
    S = prob.batches[0].b[None, :] * (pts @ model.A_tilde.T - tau[None, :])
    best = pts[np.argmax(norm_logcdf(S).sum(axis=1))]
    assert np.abs(est.h_hat - best).max() < 0.02


def test_joint_solve_equals_independent_antenna_solves():
    model, ch, prob = make_problem(M=3, K=2, L=8, seed=8)
    est = om.solve_ml(prob)
    K2, L2 = 2 * model.K, 2 * model.L
    sub_model = om.RealModel(A_tilde=model.A_tilde, M=1)
    for m in range(model.M):
        sub_batches = [
            om.QuantizedBatch(b=b.b[m * L2:(m + 1) * L2], tau=b.tau[m * L2:(m + 1) * L2])
            for b in prob.batches
        ]
        sub = om.solve_ml(LikelihoodProblem(sub_batches, sub_model))
        assert np.allclose(sub.h_hat, est.h_hat[m * K2:(m + 1) * K2], atol=1e-10)


def test_separable_data_flagged_not_converged():
    # signs generated noiselessly from a channel are consistent with an
    # entire ray: the likelihood supremum is at infinity
    rng = np.random.default_rng(21)
    model = om.pilot_model(1, 2, 8, 10.0, rng)
    ch = om.generate_channel(1, 2, rng)
    b = om.quantize(model.apply(ch.h), om.thresholds_fixed(model.N))
    est = om.solve_ml(LikelihoodProblem([b], model))
    assert not est.converged
    assert not est.antenna_converged.any()
    assert est.objective > SEPARABLE_LL_TOL


def test_solve_nq_identity_pilot_returns_observation():
    model = identity_pilot_model()
    y = np.array([0.3, -1.2])
    est = om.solve_nq(model, y)
    assert np.allclose(est.h_hat, y, atol=1e-14)


def test_solve_nq_noiseless_exact():
    model = om.pilot_model(3, 2, 5, 10.0, 2)
    ch = om.generate_channel(3, 2, 2)
    est = om.solve_nq(model, model.apply(ch.h))
    assert np.allclose(est.h_hat, ch.h, atol=1e-10)
    assert est.converged


def test_solve_nq_mse_matches_closed_form():
    rng = np.random.default_rng(3)
    M, K, L = 4, 2, 6
    model = om.pilot_model(M, K, L, 5.0, rng)
    # hat(h) - h = (A^T A)^{-1} A^T w per antenna; 10^4 trials vectorized
    AtA = model.gram()
    Q = model.A_tilde @ np.linalg.inv(AtA)
    trials = 10_000
    w = rng.standard_normal((trials, M, 2 * L))
    err = np.einsum("tml,lk->tmk", w, Q)
    mse = (err ** 2).sum(axis=(1, 2)).mean() / (M * K)
    predicted = M * np.trace(np.linalg.inv(AtA)) / (M * K)
    assert abs(mse - predicted) < 0.05 * predicted


def test_solve_nq_singular_model_raises():
    # L >= K but duplicated pilot rows make the Gram singular
    X = np.ones((2, 4)) + 0j
    model = om.realify(X, 1)
    with pytest.raises(om.NumericalError):
        om.solve_nq(model, np.zeros(model.N))


def test_problem_validation():
    model = identity_pilot_model()
    good = om.quantize(np.zeros(2), om.thresholds_fixed(2))
    with pytest.raises(ValueError):
        LikelihoodProblem([], model)
    other = om.quantize(np.zeros(4), om.thresholds_fixed(4))
    with pytest.raises(ValueError):
        LikelihoodProblem([other], model)


def test_newton_stops_at_rounding_floor():
    # one antenna's gradient stays just above GRAD_TOL * measurements while its
    # Newton decrement (1.6e-15) is below one ulp of its log-likelihood (-33.7),
    # so no Armijo test can see a step's gain; it once spun to MAX_ITER
    r = om.run_trial("OQ", 16, 8, 32, 15.0, 20, 99)
    assert r.converged
    assert r.iters <= 20
    assert abs(r.mse / 0.0061638987 - 1.0) < 1e-6


def test_step_that_rounds_back_to_its_row_is_stalled():
    model, ch, prob = make_problem(M=2, K=2, L=6, seed=5)
    B, T = mle._stacked(prob)
    Hs = np.ones((model.M, 2 * model.K))
    ll0 = mle.norm_logcdf(mle._margins(Hs, B, T, model.A_tilde)).sum(axis=(0, 2))
    # slope 0 lets Armijo pass on equality, which an unmoved row always meets
    step, slope = np.full_like(Hs, 1e-20), np.zeros(model.M)
    Hnew, _, _, accepted = mle._line_search(Hs, step, slope, ll0, B, T, model.A_tilde)
    assert not accepted.any()
    assert np.array_equal(Hnew, Hs)


# criterion-09 shape: random thresholds at seed 4 leave margins below the
# Mills cut; fixed zero thresholds give separable antennas that hit the norm cap
@pytest.mark.parametrize("policy, seed, deep_tail", [("random", 4, True), ("fixed", 9, False)])
def test_newton_loop_evaluates_special_functions_once_per_point(policy, seed, deep_tail,
                                                                monkeypatch):
    model, ch, prob = make_problem(M=16, K=8, L=32, seed=seed, snr_db=15.0, policy=policy)
    margins, logcdf, mills, fallback = [], [], [], []

    def recorded(original, log, record_result):
        def call(*args):
            out = original(*args)
            log.append(out if record_result else args[0])
            return out
        return call

    monkeypatch.setattr(mle, "_margins", recorded(mle._margins, margins, True))
    monkeypatch.setattr(mle, "norm_logcdf", recorded(mle.norm_logcdf, logcdf, False))
    monkeypatch.setattr(mle, "mills_ratio", recorded(mle.mills_ratio, mills, False))
    monkeypatch.setattr(gauss, "mills_ratio", recorded(gauss.mills_ratio, fallback, False))
    mle.solve_ml(prob)
    # log Phi runs once per margin evaluation: the start, each line-search
    # trial and the final check, and on nothing else
    assert len(logcdf) == len(margins)
    assert all(arg is S for arg, S in zip(logcdf, margins))
    # Mills comes from log Phi inside the loop: erfcx runs for the final
    # check and for deep-tail margins only
    assert len(mills) == 1 and mills[0] is margins[-1]
    assert all((t < gauss.MILLS_LOGCDF_CUT).all() for t in fallback)
    assert bool(fallback) == deep_tail


def test_curvature_keeps_precision_for_far_negative_margins():
    # lam (s + lam) = 1 - t^2 + 6t^4 - ... with t = 1/s as s -> -inf; the
    # direct s + lam cancels to a few ulp of |s| there (2% off at s = -1e7,
    # no digit left at -1e9)
    S = np.array([-2e3, -1e4, -1e7, -1e9, -1e12])[None, None, :]
    t2 = 1.0 / S[0, 0] ** 2
    curv = mle._curvature(S, gauss.mills_ratio(S))[0]
    assert np.allclose(curv, 1.0 - t2 + 6.0 * t2 * t2, rtol=1e-14, atol=0)
    # ordinary margins keep the direct form bit for bit
    S = np.linspace(-999.0, 30.0, 7)[None, None, :]
    lam = gauss.mills_ratio(S)
    assert np.array_equal(mle._curvature(S, lam), (lam * (S + lam)).sum(axis=0))
