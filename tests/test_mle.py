import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import onebit_mimo as om
from onebit_mimo import gauss, mle, schemes
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
    B, T = prob.signs, prob.thresholds
    Hs = np.ones((model.M, 2 * model.K))
    S0 = mle._margins(Hs, B, T, model.A_tilde)
    LP0 = mle.norm_logcdf(S0)
    ll0 = LP0.sum(axis=(0, 2))
    # slope 0 lets Armijo pass on equality, which an unmoved row always meets
    step, slope = np.full_like(Hs, 1e-20), np.zeros(model.M)
    Hnew, S, LP, accepted, ll = mle._line_search(Hs, step, slope, ll0, B, T, model.A_tilde,
                                                 S0, LP0)
    assert not accepted.any()
    assert np.array_equal(Hnew, Hs)
    assert ll is None  # no row took the full step, so no sum is carried
    # a row that did not accept hands back its start's margins and log Phi
    assert np.array_equal(_bits(S), _bits(S0)) and np.array_equal(_bits(LP), _bits(LP0))


def test_line_search_hands_back_the_start_of_every_row_it_does_not_accept():
    # row 0 steps eight Newton steps' length, which Armijo rejects until it has
    # backtracked; row 1's ll0 of 0 is above any log-likelihood, so no trial is
    # accepted and it backtracks until its trial rounds back to its row
    model, ch, prob = make_problem(M=2, K=2, L=6, seed=5)
    B, T, At = prob.signs, prob.thresholds, model.A_tilde
    Hs = np.full((model.M, 2 * model.K), 0.5)
    S0 = mle._margins(Hs, B, T, At)
    LP0 = mle.norm_logcdf(S0)
    lam = gauss.mills_from_logcdf(S0, LP0)
    G = mle._score(B, lam, At)
    step = 8.0 * mle._newton_direction(model.block_gram(mle._curvature(S0, lam)), G)
    slope = (G * step).sum(axis=1)
    ll0 = LP0.sum(axis=(0, 2))
    ll0[1] = 0.0
    Hnew, S, LP, accepted, ll = mle._line_search(Hs, step, slope, ll0, B, T, At, S0, LP0)
    assert accepted.tolist() == [True, False] and ll is None
    assert (Hnew[0] != Hs[0]).any() and (Hnew[0] != Hs[0] + step[0]).any()
    assert np.array_equal(Hnew[1], Hs[1])
    assert np.array_equal(_bits(S[:, 1]), _bits(S0[:, 1]))
    assert np.array_equal(_bits(LP[:, 1]), _bits(LP0[:, 1]))
    assert np.array_equal(_bits(S[:, 0]), _bits(mle._margins(Hnew, B, T, At)[:, 0]))
    assert np.array_equal(_bits(LP[:, 0]), _bits(mle.norm_logcdf(S[:, 0])))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _stalling(line_search, M):
    """line_search, except that a search over all M antennas from rows that
    are all nonzero steps its last row by 2^-60 times the row: the trial
    rounds back to the row, as in test_step_that_rounds_back_to_its_row_is_stalled,
    so that row stalls on any host.  Without it a stall hinges on the last
    bit of the host's products."""
    def call(Hs, step, *args):
        if Hs.shape[0] == M and Hs.any(axis=1).all():
            step = step.copy()
            step[-1] = Hs[-1] * 2.0 ** -60
        return line_search(Hs, step, *args)
    return call


@pytest.mark.parametrize("prefix", [False, True])
def test_kept_record_recomputes_exactly_the_entries_it_does_not_match(prefix, monkeypatch):
    # a record of 4 antennas: antenna 1 was never written (capped), a kept -0.0
    # meets a final +0.0, and two of antenna 2's margins rounded otherwise;
    # AQ's start reads a record of all batches but the new last one, and the
    # final check one as long as S, which it fills in place.  An entry the
    # record does not match holds +1.0, which no log Phi is.
    S = np.random.default_rng(0).normal(scale=3.0, size=(3, 4, 6))
    S[0, 3, 2] = 0.0
    n = 2 if prefix else 3
    S_k, LP_k = S[:n].copy(), gauss.norm_logcdf(S[:n])
    S_k[:, 1] = np.nan
    S_k[0, 3, 2] = -0.0
    S_k[1, 2, [0, 4]] = np.nextafter(S_k[1, 2, [0, 4]], np.inf)
    fresh = np.zeros(S.shape, dtype=bool)
    fresh[n:] = True
    fresh[:n, 1] = True
    fresh[0, 3, 2] = fresh[1, 2, 0] = fresh[1, 2, 4] = True
    LP_k[fresh[:n]] = 1.0
    LP_k[:, 1] = np.nan
    seen = []

    def recorded(t):
        seen.append(t.copy())
        return gauss.norm_logcdf(t)

    monkeypatch.setattr(mle, "norm_logcdf", recorded)
    LP = mle._logcdf_reusing(S, (S_k, LP_k))
    assert np.array_equal(_bits(LP), _bits(gauss.norm_logcdf(S)))
    assert len(seen) == 1 and np.array_equal(_bits(seen[0]), _bits(S[fresh]))
    assert (LP is LP_k) == (not prefix)
    # a record that matches every entry runs no log Phi, and no record runs it on S
    seen.clear()
    LP_all = gauss.norm_logcdf(S[:n])
    assert np.array_equal(_bits(mle._logcdf_reusing(S[:n], (S[:n].copy(), LP_all))),
                          _bits(LP_all))
    assert not seen
    mle._logcdf_reusing(S, None)
    assert len(seen) == 1 and np.array_equal(_bits(seen[0]), _bits(S))


# criterion-09 shape: random thresholds at seed 4 leave margins below the
# Mills cut; fixed zero thresholds give separable antennas that hit the norm
# cap; OQ's trial 3 at L=16 gets a stalled line search built in (_stalling),
# and its trial 20 under master seed 99 stops one at the rounding floor
@pytest.mark.parametrize("policy, seed, deep_tail", [("random", 4, True), ("fixed", 9, False),
                                                     ("stalled", 3, True), ("floor", 20, True),
                                                     ("max_iter", 4, True)])
def test_newton_loop_evaluates_special_functions_once_per_point(policy, seed, deep_tail,
                                                                monkeypatch):
    if policy in ("stalled", "floor"):  # seed is the trial
        L, master = (16, 7) if policy == "stalled" else (32, 99)
        (prob, _, _), = _solves(monkeypatch, [("OQ", 16, 8, L, 15.0, seed, master)])
        model = prob.model
    else:
        model, ch, prob = make_problem(M=16, K=8, L=32, seed=seed, snr_db=15.0,
                                       policy="fixed" if policy == "fixed" else "random")
    if policy == "max_iter":
        monkeypatch.setattr(mle, "MAX_ITER", 2)
    if policy == "stalled":
        monkeypatch.setattr(mle, "_line_search", _stalling(mle._line_search, model.M))
    B, T = prob.signs, prob.thresholds
    margins, logcdf, mills, fallback, searches = [], [], [], [], []

    def recorded(original, log, record_result):
        def call(*args):
            out = original(*args)
            log.append((args, out) if record_result else args[0])
            return out
        return call

    def margins_at(H, *args):  # _line_search edits its trial rows in place later
        return original_margins(H.copy(), *args)

    original_margins = recorded(mle._margins, margins, True)
    monkeypatch.setattr(mle, "_margins", margins_at)
    monkeypatch.setattr(mle, "norm_logcdf", recorded(mle.norm_logcdf, logcdf, False))
    monkeypatch.setattr(mle, "mills_ratio", recorded(mle.mills_ratio, mills, False))
    monkeypatch.setattr(gauss, "mills_ratio", recorded(gauss.mills_ratio, fallback, False))
    monkeypatch.setattr(mle, "_line_search", recorded(mle._line_search, searches, True))
    est = mle.solve_ml(prob)
    assert (policy == "stalled") == any(not out[3].all() for _, out in searches)
    # log Phi runs once per margin evaluation of the loop (the start and each
    # line-search trial), on the margins array itself
    *loop, (_, S_final) = margins
    assert len(logcdf) in (len(loop), len(loop) + 1)
    assert all(arg is S for arg, (_, S) in zip(logcdf, loop))
    # the final check recomputes the margins and runs log Phi only on those
    # whose bits differ from the evaluation that took the antenna to its
    # final row (every margin of a row the loop never evaluated, as a capped
    # one; a stalled row's unmoved trial evaluates that row again)
    antenna = {(B[:, a].tobytes(), T[:, a].tobytes()): a for a in range(model.M)}
    assert len(antenna) == model.M
    H = est.h_hat.reshape(model.M, -1)
    kept = np.full(S_final.shape, np.nan)
    seen = np.zeros(model.M, dtype=bool)
    for (Hs, Bs, Ts, _), S in loop:
        for j in range(Hs.shape[0]):
            a = antenna[Bs[:, j].tobytes(), Ts[:, j].tobytes()]
            if not seen[a] and np.array_equal(Hs[j], H[a]):
                kept[:, a], seen[a] = S[:, j], True
    fresh = _bits(S_final) != _bits(kept)
    assert not fresh.all()
    assert len(logcdf) == len(loop) + bool(fresh.any())
    if fresh.any():
        assert np.array_equal(_bits(logcdf[-1]), _bits(S_final[fresh]))
    # Mills comes from log Phi, in the loop and in the final check: erfcx
    # runs for deep-tail margins only
    assert not mills
    assert all((t < gauss.MILLS_LOGCDF_CUT).all() for t in fallback)
    assert bool(fallback) == deep_tail


def _solves(monkeypatch, cases):
    """(problem, h0, estimate) of every solve_ml call that run_trial makes in cases."""
    solves, solve = [], schemes.solve_ml

    def recorded(prob, h0=None, memo=None):
        est = solve(prob, h0, memo)
        solves.append((prob, h0, est))
        return est

    monkeypatch.setattr(schemes, "solve_ml", recorded)
    for case in cases:
        om.run_trial(*case)
    monkeypatch.setattr(schemes, "solve_ml", solve)
    return solves


def _no_reuse(S, known):
    return gauss.norm_logcdf(S)


def test_final_check_record_is_unwritten_exactly_for_capped_antennas(monkeypatch):
    # a cap near the channels' typical norm clamps some antennas; the record
    # the final check reads holds NaN for them and margins for the rest
    monkeypatch.setattr(mle, "NORM_CAP", 3.0)
    model, ch, prob = make_problem(M=16, K=8, L=32, seed=4, snr_db=15.0)
    records, reusing = [], mle._logcdf_reusing

    def recorded(S, known):
        records.append(None if known is None else [a.copy() for a in known])
        return reusing(S, known)

    monkeypatch.setattr(mle, "_logcdf_reusing", recorded)
    est = mle.solve_ml(prob)
    S_k, LP_k = records[-1]
    capped = np.isclose(np.linalg.norm(est.h_hat.reshape(model.M, -1), axis=1), 3.0,
                        rtol=1e-12)
    assert capped.any() and not capped.all()
    for kept in (S_k, LP_k):
        assert np.isnan(kept[:, capped]).all() and np.isfinite(kept[:, ~capped]).all()


EXACT_CASES = {
    "16-8": [(s, 16, 8, L, 15.0, t, 7) for s in ("FQ", "RQ", "OQ", "AQ")
             for L in (32, 256) for t in (0, 1)],
    # each solve's second line search stalls one row (_stalling)
    "stalled": [("OQ", 16, 8, 16, 15.0, 3, 7), ("OQ", 16, 8, 32, 30.0, 1, 7)],
    "capped": [(s, 16, 8, L, 15.0, 0, 7) for s in ("FQ", "AQ") for L in (32, 256)],
    "max_iter": [(s, 16, 8, L, 15.0, 0, 7) for s in ("RQ", "AQ") for L in (32, 256)],
}


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_final_check_reuses_log_phi_bit_for_bit(case, monkeypatch):
    if case == "capped":
        monkeypatch.setattr(mle, "NORM_CAP", 3.0)
    if case == "max_iter":
        monkeypatch.setattr(mle, "MAX_ITER", 2)
    searches, line_search = [], mle._line_search
    if case == "stalled":
        line_search = _stalling(line_search, 16)

    def recorded(*args):
        out = line_search(*args)
        searches.append(out[3])
        return out

    monkeypatch.setattr(mle, "_line_search", recorded)
    solves = _solves(monkeypatch, EXACT_CASES[case])
    # the oracle is the final check without reuse: margins from the full
    # product, log_ndtr, Mills from log Phi, the score
    monkeypatch.setattr(mle, "_logcdf_reusing", _no_reuse)
    for prob, h0, est in solves:
        m = prob.model
        H = est.h_hat.reshape(m.M, 2 * m.K)
        S = mle._margins(H, prob.signs, prob.thresholds, m.A_tilde)
        LP = gauss.norm_logcdf(S)
        g = mle._score(prob.signs, gauss.mills_from_logcdf(S, LP), m.A_tilde)
        assert est.grad_norm == float(np.linalg.norm(g))
        assert est.objective == float(LP.sum(axis=(0, 2)).sum())
        ref = mle.solve_ml(prob, h0)
        assert np.array_equal(est.antenna_converged, ref.antenna_converged)
        assert np.array_equal(_bits(est.h_hat), _bits(ref.h_hat))
        assert (est.grad_norm, est.objective, est.iterations) == \
            (ref.grad_norm, ref.objective, ref.iterations)
    converged = np.concatenate([est.antenna_converged for _, _, est in solves])
    if case == "stalled":
        assert any(not accepted.all() for accepted in searches)
    if case == "capped":
        assert any((np.linalg.norm(est.h_hat.reshape(16, -1), axis=1) > 2.99).any()
                   for _, _, est in solves)
        assert not converged.all()
    if case == "max_iter":
        assert max(est.iterations for _, _, est in solves) == 2
        assert not converged.all()


def test_aq_start_evaluates_only_the_new_batch_and_changed_rows(monkeypatch):
    # round 1 of AQ (zero thresholds) leaves separable antennas, which run_aq
    # shrinks to radius sqrt(K); only their rows, and the new batch, need log Phi
    logcdf, norm_logcdf = [], mle.norm_logcdf

    def recorded(t):
        logcdf.append(t)
        return norm_logcdf(t)

    starts, solve = [], mle.solve_ml

    def first_call(prob, h0=None, memo=None):
        starts.append(len(logcdf))
        return solve(prob, h0, memo)

    monkeypatch.setattr(mle, "norm_logcdf", recorded)
    monkeypatch.setattr(schemes, "solve_ml", first_call)
    solves = _solves(monkeypatch, [("AQ", 16, 8, 32, 15.0, 0, 7)])
    assert len(solves) == 5
    changed_rounds = 0
    for (prev, _, before), (prob, h0, _), start in zip(solves, solves[1:], starts[1:]):
        m, k = prob.model, len(prob.batches)
        At = m.A_tilde
        S_prev = mle._margins(before.h_hat.reshape(m.M, -1), prev.signs, prev.thresholds, At)
        S = mle._margins(h0.reshape(m.M, -1), prob.signs, prob.thresholds, At)
        fresh = np.ones(S.shape, dtype=bool)
        fresh[:k - 1] = _bits(S[:k - 1]) != _bits(S_prev)
        assert np.array_equal(_bits(logcdf[start]), _bits(S[fresh]))
        changed = fresh[:k - 1].any(axis=(0, 2))
        assert not (changed & (h0 == before.h_hat).reshape(m.M, -1).all(axis=1)).any()
        changed_rounds += changed.any()
    assert changed_rounds > 0


@pytest.mark.parametrize("norm_cap", [mle.NORM_CAP, 3.0])
def test_carried_log_likelihoods_equal_fresh_sums(norm_cap, monkeypatch):
    # the oracle hands no sum on, so every ll0 is LP.sum(axis=(0, 2)) of the
    # working set; AQ's many-batch sums include the fixed config's
    # (M=8, K=4, L=16, seed 3, trial 3), whose verdict a sum carried across a
    # compaction to one row flipped; a low cap makes rows leave after full steps
    monkeypatch.setattr(mle, "NORM_CAP", norm_cap)
    cases = [("AQ", 8, 4, 16, 10.0, 3, 3), ("AQ", 16, 8, 32, 15.0, 1, 7),
             ("AQ", 16, 8, 256, 15.0, 1, 7), ("RQ", 16, 8, 256, 15.0, 0, 7)]
    line_search = mle._line_search

    def run(carry):
        sums, carried, last = [], [0], [None]

        def recorded(*args):
            sums.append(_bits(args[3]))
            carried[0] += args[3] is last[0]
            out = line_search(*args)
            last[0] = out[4] if carry else None
            return out if carry else (*out[:4], None)

        monkeypatch.setattr(mle, "_line_search", recorded)
        _solves(monkeypatch, cases)
        return sums, carried[0]

    sums, carried = run(True)
    fresh_sums, _ = run(False)
    assert carried > 0
    assert len(sums) == len(fresh_sums)
    assert all(np.array_equal(a, b) for a, b in zip(sums, fresh_sums))


def test_newton_blocks_are_exactly_symmetric(monkeypatch):
    model, ch, prob = make_problem(M=16, K=8, L=32, seed=4, snr_db=15.0, n_batches=2)
    blocks = []

    def recorded(Hneg, G):
        blocks.append(Hneg)
        return newton_direction(Hneg, G)

    newton_direction = mle._newton_direction
    monkeypatch.setattr(mle, "_newton_direction", recorded)
    mle.solve_ml(prob)
    assert blocks and all(np.array_equal(b, b.transpose(0, 2, 1)) for b in blocks)


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


def _ulps_around(x, n=2):
    """x and the n floats on either side of it, ascending."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def _cap_whose_square_rounds(up):
    """The first float above 3 whose square, in floating point, rounds up (or down)."""
    c = 3.0
    while True:
        c = math.nextafter(c, math.inf)
        exact, rounded = Fraction(c) ** 2, Fraction(c * c)
        if (rounded > exact) if up else (rounded < exact):
            return c


def _rows_with_squares(squares, width):
    """Rows whose np.add.reduce(x * x) is exactly each of squares: a leading
    entry whose square is just below the target, and a second that fills the gap."""
    rows = np.zeros((len(squares), width))
    for row, q in zip(rows, squares):
        a = np.sqrt(q)
        while a * a > q:
            a = np.nextafter(a, 0.0)
        row[0], row[1] = a, np.sqrt(q - a * a)
    assert np.array_equal(np.add.reduce(rows * rows, axis=1), np.asarray(squares))
    return rows


def _largest_square_within(r):
    """The largest float q whose rounded sqrt(q) is at most r >= 0: a row
    norm exceeds r exactly when its sum of squares exceeds q, since sqrt
    rounds correctly and so is monotone.  r * r is within an ulp or two of
    q, which the two walks settle."""
    if r == math.inf:
        return r
    q = r * r
    while math.sqrt(q) > r:
        q = math.nextafter(q, -math.inf)
    while math.sqrt(math.nextafter(q, math.inf)) <= r:
        q = math.nextafter(q, math.inf)
    return q


def _first_with_threshold_above_square(x, scale=1.0):
    """The first float from x up whose x * scale has its threshold above (x * scale)^2."""
    while _largest_square_within(x * scale) == (x * scale) ** 2:
        x = math.nextafter(x, math.inf)
    return x


ROUNDS_UP, ROUNDS_DOWN = _cap_whose_square_rounds(True), _cap_whose_square_rounds(False)
ABOVE_SQUARE = _first_with_threshold_above_square(1.05)


@pytest.mark.parametrize("r", [mle.GRAD_TOL * n for n in (4, 64, 192, 512, 1000)]
                         + [mle.NORM_CAP, 3.0, ROUNDS_UP, ROUNDS_DOWN, ABOVE_SQUARE,
                            0.0, 1e-300, 1e200, np.inf])
def test_squared_norm_threshold_decides_as_the_root_does(r):
    # the loop's row-norm test, _row_norms(X) > r, flips exactly above the
    # largest square t whose root is at most r: rows whose sums of squares
    # are t and a few ulp either side, where r * r underflows at 1e-300 and
    # overflows at 1e200; the norms are np.linalg.norm's bit for bit
    t = _largest_square_within(r)
    squares = [q for q in _ulps_around(t) if 0 <= q < math.inf]
    rows = _rows_with_squares(squares, 4)
    norms = mle._row_norms(rows)
    assert np.array_equal(norms, np.linalg.norm(rows, axis=1))
    assert np.array_equal(norms > r, np.array(squares) > t)
    if np.isfinite(r):
        assert np.sqrt(t) <= r < np.sqrt(math.nextafter(t, math.inf))


@pytest.mark.parametrize("grad_tol", [0.5, 2.0, _first_with_threshold_above_square(0.088, 12)])
def test_gradient_test_in_the_loop_at_its_threshold(grad_tol, monkeypatch):
    # after one full step, the gradient rows have squared norms at the
    # threshold t and an ulp or two either side, and at the rounded tol * tol
    # and an ulp either side; only the rows that today's test, sqrt(q) > tol,
    # keeps reach the next line search, where every row stalls, and each row
    # leaves at its stepped value (a large tol keeps every slope far above the
    # decrement test's floor; the last one has t above tol * tol)
    monkeypatch.setattr(mle, "GRAD_TOL", grad_tol)
    tol = grad_tol * 12  # one batch at L=6
    t = _largest_square_within(tol)
    squares = sorted(set(_ulps_around(t)) | set(_ulps_around(tol * tol, 1)))
    model, ch, prob = make_problem(M=len(squares), K=2, L=6, seed=3, snr_db=5.0)
    G = _rows_with_squares(squares, 2 * model.K)
    h0 = np.random.default_rng(0).normal(scale=0.1, size=G.shape)
    h1 = h0 + 0.01
    score, scores, seen = mle._score, [], []

    def scripted_score(*args):  # far from converged, then G, then the final check's own
        scores.append(None)
        if len(scores) > 2:
            return score(*args)
        return np.full_like(G, 100.0) if len(scores) == 1 else G.copy()

    def line_search(Hs, step, slope, ll0, Bs, Ts, At, S0, LP0):
        seen.append(Hs.copy())
        Hnew = h1.copy() if len(seen) == 1 else Hs.copy()
        S = mle._margins(Hnew, Bs, Ts, At)
        return Hnew, S, mle.norm_logcdf(S), np.full(len(Hs), len(seen) == 1), None

    monkeypatch.setattr(mle, "_score", scripted_score)
    monkeypatch.setattr(mle, "_line_search", line_search)
    est = mle.solve_ml(prob, h0.reshape(-1))
    keep = mle._row_norms(G) > tol
    assert keep.any() and not keep.all()
    assert len(seen) == 2 and np.array_equal(seen[1], h1[keep])
    assert np.array_equal(est.h_hat.reshape(G.shape), h1)


def test_decrement_guard_reaches_the_exact_test_whenever_a_row_is_flat():
    # _flat_rows is the row-by-row test, or None when no row passes, at
    # slopes an ulp or two around its edge and around 2^-49 |ll0|, for
    # zero, subnormal, normal and huge log-likelihoods
    tiny, sub = np.finfo(float).tiny, 5e-324
    lls = [0.0, -0.0, -sub, -1e-310, -tiny, -1.0, -33.7, -1e300]
    slopes = {0.0, -0.0, sub, 2 * sub, 4 * sub, 5 * sub, tiny / 2, tiny, 1e-3,
              -sub, -tiny, -1e-3}
    for ll in lls:
        for edge in (mle.DECREMENT_ULPS * np.spacing(abs(ll)), 2.0 ** -49 * abs(ll)):
            slopes.update(_ulps_around(edge))
    slopes = np.array(sorted(slopes))
    for ll in lls:
        ll0 = np.full(slopes.size, ll)
        for rows in [np.arange(slopes.size)] + [[i] for i in range(slopes.size)]:
            today = np.abs(slopes[rows]) <= mle.DECREMENT_ULPS * np.spacing(np.abs(ll0[rows]))
            flat = mle._flat_rows(slopes[rows], ll0[rows])
            if flat is None:
                assert not today.any(), (ll, slopes[rows])
            else:
                assert np.array_equal(flat, today)
    # an ll0 of +-0 with a subnormal slope is flat
    for ll in (0.0, -0.0):
        assert mle._flat_rows(np.array([2 * sub, 1.0]), np.array([ll, -1.0])).tolist() == \
            [True, False]
    assert mle._flat_rows(np.array([1e-3, 2e-3]), np.array([-30.0, -0.0])) is None


@pytest.mark.parametrize("cap", [ROUNDS_UP, ROUNDS_DOWN, ABOVE_SQUARE])
@pytest.mark.parametrize("full_step", [True, False])
@pytest.mark.parametrize("near", ["threshold", "within", "square"])
def test_norm_cap_decided_on_squared_norms_at_its_boundary(cap, full_step, near, monkeypatch):
    # one line search takes every row to a squared norm at the cap's boundary
    # (the threshold t and an ulp either side, or t and the ulp below, or the
    # rounded cap * cap and an ulp either side); the next sees only the rows
    # that today's test, sqrt(q) > NORM_CAP, keeps, and a capped row is scaled
    monkeypatch.setattr(mle, "NORM_CAP", cap)
    t = _largest_square_within(cap)
    squares = {"threshold": _ulps_around(t, 1), "within": _ulps_around(t, 1)[:2],
               "square": _ulps_around(cap * cap, 1)}[near]
    model, ch, prob = make_problem(M=len(squares), K=2, L=6, seed=3, snr_db=5.0)
    targets = _rows_with_squares(squares, 2 * model.K)
    seen = []

    def line_search(Hs, step, slope, ll0, Bs, Ts, At, S0, LP0):
        if not seen:
            assert Hs.shape == targets.shape
            Hnew = targets.copy()
            accepted = np.ones(len(Hnew), dtype=bool)
        else:  # every row stalls, and leaves
            Hnew = Hs.copy()
            accepted = np.zeros(len(Hnew), dtype=bool)
        seen.append(Hs.copy())
        S = mle._margins(Hnew, Bs, Ts, At)
        LP = mle.norm_logcdf(S)
        return Hnew, S, LP, accepted, LP.sum(axis=(0, 2)) if full_step and len(seen) == 1 else None

    monkeypatch.setattr(mle, "_line_search", line_search)
    est = mle.solve_ml(prob)
    norms = mle._row_norms(targets)
    blown = norms > cap
    assert {"threshold": blown.any(), "within": not blown.any(), "square": not blown.all()}[near]
    assert len(seen) == 2 and np.array_equal(seen[1], targets[~blown])
    H = est.h_hat.reshape(targets.shape)
    assert np.array_equal(H[~blown], targets[~blown])
    assert np.array_equal(H[blown], targets[blown] * (cap / norms[blown])[:, None])
    assert not est.antenna_converged[blown].any()
