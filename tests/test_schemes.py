import numpy as np
import pytest

import onebit_mimo as om
from onebit_mimo import schemes


def setup(M, K, L, snr_db, seed, sigma2=1.0):
    model = om.pilot_model(M, K, L, snr_db, seed, sigma2=sigma2)
    ch = om.generate_channel(M, K, 1.0, seed + 10_000)
    return model, ch


def recorded_batches(monkeypatch):
    """Every QuantizedBatch that schemes.quantize returns from now on, in call order."""
    batches = []

    def recording(y, tau):
        batches.append(om.quantize(y, tau))
        return batches[-1]

    monkeypatch.setattr(schemes, "quantize", recording)
    return batches


@pytest.mark.parametrize("name", ["FQ", "RQ", "OQ", "NQ"])
def test_schemes_deterministic_under_seed(name):
    model, ch = setup(2, 2, 8, 8.0, 1)
    runner = {
        "FQ": lambda s: om.run_fq(model, ch.h, s),
        "RQ": lambda s: om.run_rq(model, ch.h, 1.0, s),
        "OQ": lambda s: om.run_oq(model, ch.h, s),
        "NQ": lambda s: om.run_nq(model, ch.h, s),
    }[name]
    a, b = runner(33), runner(33)
    assert np.array_equal(a.h_hat, b.h_hat)
    assert a.converged == b.converged


def test_aq_deterministic_under_seed():
    model, ch = setup(2, 2, 8, 8.0, 2)
    e1, r1 = om.run_aq(model, ch.h, 3, 7)
    e2, r2 = om.run_aq(model, ch.h, 3, 7)
    assert np.array_equal(e1.h_hat, e2.h_hat)
    assert [it.mse for it in r1] == [it.mse for it in r2]


def test_aq_single_round_is_fixed_quantization(monkeypatch):
    # benign regime so the round converges and no fallback edits the estimate
    model, ch = setup(3, 2, 16, 0.0, 3)
    fq = om.run_fq(model, ch.h, 55)
    batches = recorded_batches(monkeypatch)
    aq, _ = om.run_aq(model, ch.h, 1, 55)
    assert fq.converged
    assert np.array_equal(aq.h_hat, fq.h_hat)
    assert len(batches) == 1
    assert np.array_equal(batches[0].tau, np.zeros(model.N))


def test_rq_zero_prior_variance_reduces_to_fixed_thresholds():
    model, ch = setup(2, 2, 8, 5.0, 4)
    rng = np.random.default_rng(9)
    tau = om.thresholds_random(model, 0.0, rng)
    assert np.array_equal(tau, np.zeros(model.N))
    y = om.generate_noisy_observation(model, ch.h, rng)
    est_rq_path = om.solve_ml(om.LikelihoodProblem([om.quantize(y, tau)], model))
    est_fq_path = om.solve_ml(om.LikelihoodProblem(
        [om.quantize(y, om.thresholds_fixed(model.N, 0.0))], model))
    assert np.array_equal(est_rq_path.h_hat, est_fq_path.h_hat)


def test_aq_state_invariants(monkeypatch):
    model, ch = setup(2, 2, 12, 8.0, 5)
    batches = recorded_batches(monkeypatch)
    est, rounds = om.run_aq(model, ch.h, 4, 11)
    assert len(batches) == 4
    assert len(rounds) == 4
    assert [it.index for it in rounds] == [1, 2, 3, 4]
    assert sum(b.b.size for b in batches) == 4 * model.N
    # the returned estimate is the last round's working estimate
    assert rounds[-1].mse == om.channel_mse(est.h_hat, ch.h)
    # batch j was produced with round j-1's thresholds A h_hat
    assert np.array_equal(batches[0].tau, np.zeros(model.N))
    ah = model.apply(ch.h)
    for j in range(1, 4):
        rel = np.linalg.norm(batches[j].tau - ah) / np.linalg.norm(ah)
        assert rel == rounds[j - 1].threshold_rel_err


def test_aq_converges_toward_oracle_thresholds():
    rel_err = []
    mse = []
    for t in range(25):
        model, ch = setup(8, 4, 16, 12.0, 600 + t)
        _, rounds = om.run_aq(model, ch.h, 5, 600 + t)
        rel_err.append([it.threshold_rel_err for it in rounds])
        mse.append([it.mse for it in rounds])
    med_err = np.median(rel_err, axis=0)
    med_mse = np.median(mse, axis=0)
    assert np.all(np.diff(med_err) < 0.0)
    assert np.all(np.diff(med_mse) < 0.0)
    assert med_err[-1] < 0.2


def test_aq_identifiability_fallback_recovers_from_separable_rounds():
    # saturated regime: round 1 is separable on most antennas, later rounds
    # must still pull the estimate to a sensible error level
    mses = []
    for t in range(12):
        model, ch = setup(4, 4, 16, 15.0, 900 + t)
        _, rounds = om.run_aq(model, ch.h, 5, 900 + t)
        assert not rounds[0].converged  # the event is recorded
        mses.append(rounds[-1].mse)
    floor = np.pi / (10 ** 1.5 * 16)
    assert np.median(mses) < 3 * floor


def test_oq_and_nq_attain_their_bounds_with_pi_half_gap():
    M, K, L = 8, 1, 64
    ratios = []
    mses_oq, mses_nq = [], []
    model, ch = setup(M, K, L, 10.0, 77)
    crb_oq = om.crb_trace(model, om.thresholds_oracle(model, ch.h), ch.h) / (M * K)
    crb_nq = om.crb_nq_trace(model) / (M * K)
    for t in range(1000):
        mses_oq.append(om.channel_mse(om.run_oq(model, ch.h, 3000 + t).h_hat, ch.h))
        mses_nq.append(om.channel_mse(om.run_nq(model, ch.h, 9000 + t).h_hat, ch.h))
    mean_oq, mean_nq = np.mean(mses_oq), np.mean(mses_nq)
    assert abs(mean_nq - crb_nq) < 0.05 * crb_nq
    assert abs(mean_oq / mean_nq - np.pi / 2) < 0.10 * (np.pi / 2)
    assert abs(crb_oq / crb_nq - np.pi / 2) < 1e-12


def test_oq_mse_approaches_its_crb_at_large_sample():
    # estimator consistency: with oracle thresholds and many pilots the MSE
    # sits on the quantized-oracle CRB floor
    M, K, L = 4, 1, 256
    model, ch = setup(M, K, L, 10.0, 12)
    floor = om.crb_trace(model, om.thresholds_oracle(model, ch.h), ch.h) / (M * K)
    mses = [om.channel_mse(om.run_oq(model, ch.h, 7000 + t).h_hat, ch.h)
            for t in range(200)]
    assert abs(np.mean(mses) - floor) < 0.15 * floor


def test_nq_noiseless_exact_recovery():
    # effectively noise-free: pilot power 300 dB above the noise floor
    model, ch = setup(3, 2, 8, 300.0, 6)
    est = om.run_nq(model, ch.h, 4)
    assert np.allclose(est.h_hat, ch.h, atol=1e-10)


def test_nq_mse_matches_closed_form_over_trials():
    M, K, L = 2, 2, 6
    model, ch = setup(M, K, L, 5.0, 8)
    predicted = om.crb_nq_trace(model) / (M * K)
    mses = [om.channel_mse(om.run_nq(model, ch.h, 100 + t).h_hat, ch.h)
            for t in range(2000)]
    assert abs(np.mean(mses) - predicted) < 0.05 * predicted


def test_fq_zero_channel_estimates_near_zero():
    M, K, L = 2, 1, 64
    model, _ = setup(M, K, L, 10.0, 9)
    h0 = np.zeros(model.dim)
    per_coeff = om.crb_trace(model, om.thresholds_fixed(model.N, 0.0), h0) / (M * K)
    mses = [om.channel_mse(om.run_fq(model, h0, 300 + t).h_hat, h0)
            for t in range(30)]
    assert np.median(mses) < 4 * per_coeff


def test_scheme_quality_relations_hold_at_matched_config():
    # structural relations that hold regardless of the adaptive scheme's
    # extra bit budget: the ideal receiver beats the quantized oracle, and
    # informed thresholds beat blind ones
    M, K, L, snr = 8, 2, 32, 10.0
    meds = {}
    for name in ["NQ", "OQ", "RQ", "FQ"]:
        vals = []
        for t in range(60):
            model, ch = setup(M, K, L, snr, 5000 + t)
            run = {"NQ": om.run_nq, "OQ": om.run_oq, "FQ": om.run_fq}.get(name)
            est = run(model, ch.h, t) if run else om.run_rq(model, ch.h, 1.0, t)
            vals.append(om.channel_mse(est.h_hat, ch.h))
        meds[name] = np.median(vals)
    assert meds["NQ"] <= meds["OQ"] <= meds["RQ"] <= meds["FQ"]
