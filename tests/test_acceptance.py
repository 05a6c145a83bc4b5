"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  The Monte Carlo criteria (08, 09 and 10) also print each leg's
margin to its bound and the share of seeded bootstrap resamples of its
trials that would fail the leg; the verdicts use the trials as drawn.  The
default suite takes 89-107 s single-threaded on a 2-vCPU VM (three runs);
in the 89-s run criterion 09's 5200 trials took 64 s and the other Monte
Carlo criteria (08 and 10) about 4 s.
"""

import operator

import numpy as np
import pytest

import onebit_mimo as om
from onebit_mimo.cli import cmd_sweep
from onebit_mimo.experiments import ExperimentConfig, run_aq_trace, run_sweep, summarize
from onebit_mimo.gauss import norm_logcdf
from onebit_mimo.mle import LikelihoodProblem


BOOT_DRAWS = 2000  # bootstrap resamples per Monte Carlo leg


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def resampled(values, stat, rng):
    """stat over BOOT_DRAWS seeded resamples, with replacement, of the trials
    along values' first axis: shape (BOOT_DRAWS, ...)."""
    values = np.asarray(values)
    idx = rng.integers(0, len(values), size=(BOOT_DRAWS, len(values)))
    return stat(values[idx], axis=1)


def leg_line(name: str, value: float, op, bound: float, draws) -> None:
    """Print a leg's value against its bound (op: operator.le, ge or gt), its
    margin (positive while the leg holds) and the share of draws failing it."""
    sign = 1.0 if op in (operator.ge, operator.gt) else -1.0
    symbol = {operator.le: "<=", operator.ge: ">=", operator.gt: ">"}[op]
    failing = float(np.mean(~op(np.asarray(draws), bound)))
    print(f"    {name}: {value:.4g} {symbol} {bound:g}, margin {sign * (value - bound):+.3g}, "
          f"{failing:.1%} of {BOOT_DRAWS} bootstrap draws fail")


def test_criterion_01_pi_half_ratio_analytic():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(12):
        M = int(rng.integers(1, 6))
        K = int(rng.integers(1, 5))
        L = int(K + rng.integers(0, 6))
        snr = float(rng.uniform(-5.0, 20.0))
        model = om.pilot_model(M, K, L, snr, rng)
        ch = om.generate_channel(M, K, rng)
        ratio = om.crb_trace(model, om.thresholds_oracle(model, ch.h), ch.h) \
            / om.crb_nq_trace(model)
        worst = max(worst, abs(ratio - np.pi / 2) / (np.pi / 2))
    report("01 quantized/ideal CRB ratio", worst < 1e-12,
           f"worst relative deviation from pi/2 = {worst:.2e}")


def test_criterion_02_orthogonal_pilots_are_optimal():
    rng = np.random.default_rng(2)
    M, K, L = 3, 3, 6
    snr = 8.0
    P = om.power_for_snr(snr, K, L)
    model = om.pilot_model(M, K, L, snr, rng)
    h = om.generate_channel(M, K, rng).h
    tr_opt = om.crb_trace(model, om.thresholds_oracle(model, h), h)
    target = np.pi * M * K ** 2 / P
    ok_value = abs(tr_opt - target) < 1e-10 * target

    beaten = 0
    for _ in range(100):
        X = rng.normal(size=(K, L)) + 1j * rng.normal(size=(K, L))
        X *= np.sqrt(P / np.sum(np.abs(X) ** 2))  # equal power budget
        cand_model = om.realify(X, M)
        try:
            tr = om.crb_trace(cand_model, om.thresholds_oracle(cand_model, h), h)
        except om.NumericalError:
            continue
        if tr < target - 1e-9:
            beaten += 1
    report("02 orthogonal pilot optimality",
           ok_value and beaten == 0,
           f"trace err {abs(tr_opt - target) / target:.2e}, "
           f"{beaten}/100 random pilot sets beat the optimum")


def test_criterion_03_newton_matches_grid_oracle():
    grid = np.arange(-4.0, 4.0 + 5e-3, 0.01)
    G1, G2 = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([G1.ravel(), G2.ravel()], axis=1)

    checked = skipped = 0
    worst = 0.0
    seed = 0
    while checked < 100:
        seed += 1
        assert seed < 400, "too many degenerate instances: check the solver"
        rng = np.random.default_rng(seed)
        model = om.pilot_model(1, 1, 4, 0.0, rng)
        ch = om.generate_channel(1, 1, rng)
        tau = om.thresholds_random(model, rng)
        y = om.generate_noisy_observation(model, ch.h, rng)
        prob = LikelihoodProblem([om.quantize(y, tau)], model)
        est = om.solve_ml(prob)
        if not est.converged or np.abs(est.h_hat).max() > 3.5:
            skipped += 1  # no finite maximum, or it sits outside the lattice
            continue
        # s_n(h) = b_n (a_n.h - tau_n), evaluated for the whole lattice
        # as one matrix product plus an offset, scored in place
        b = prob.batches[0].b.astype(float)
        proj = model.A_tilde.T * b[None, :]
        S = pts @ proj
        S -= (b * tau)[None, :]
        np.copyto(S, norm_logcdf(S))
        best = pts[np.argmax(S.sum(axis=1))]
        worst = max(worst, float(np.abs(est.h_hat - best).max()))
        checked += 1
    report("03 Newton vs exhaustive lattice", worst < 0.02,
           f"100 instances, worst per-coordinate gap {worst:.4f} "
           f"({skipped} degenerate instances redrawn)")


def test_criterion_04_calculus_suite():
    rng = np.random.default_rng(4)
    n_points = 1000
    worst_grad = worst_hess = 0.0
    worst_quad = -np.inf
    for case in range(50):
        M = int(rng.integers(1, 3))
        K = int(rng.integers(1, 3))
        L = int(2 * K + rng.integers(0, 4))
        model = om.pilot_model(M, K, L, float(rng.uniform(-3, 12)), rng)
        ch = om.generate_channel(M, K, rng)
        tau = om.thresholds_random(model, rng)
        y = om.generate_noisy_observation(model, ch.h, rng)
        prob = LikelihoodProblem([om.quantize(y, tau)], model)
        for _ in range(n_points // 50):
            h = rng.normal(0.0, 0.8, size=ch.h.size)
            g = om.gradient(prob, h)
            fd = np.empty_like(g)
            for i in range(len(h)):
                step = 1e-5 * (1.0 + abs(h[i]))
                e = np.zeros_like(h)
                e[i] = step
                fd[i] = (om.log_likelihood(prob, h + e)
                         - om.log_likelihood(prob, h - e)) / (2 * step)
            worst_grad = max(worst_grad, np.linalg.norm(g - fd) / np.linalg.norm(fd))

            v = rng.normal(size=ch.h.size)
            hv = om.hessian_action(prob, h, v)
            step = 1e-6
            hv_fd = (om.gradient(prob, h + step * v)
                     - om.gradient(prob, h - step * v)) / (2 * step)
            worst_hess = max(worst_hess, np.linalg.norm(hv - hv_fd) / np.linalg.norm(hv_fd))
            worst_quad = max(worst_quad, float(v @ hv) / float(v @ v))
    ok = worst_grad < 1e-6 and worst_hess < 1e-5 and worst_quad <= 1e-8
    report("04 analytic calculus", ok,
           f"grad fd err {worst_grad:.2e} (<1e-6), hess fd err {worst_hess:.2e} "
           f"(<1e-5), max quadratic form {worst_quad:.2e} (<=1e-8)")


def test_criterion_05_score_covariance_matches_fim():
    rng = np.random.default_rng(5)
    model = om.pilot_model(1, 1, 4, 3.0, rng)
    ch = om.generate_channel(1, 1, rng)
    tau = om.thresholds_random(model, rng)
    u = model.apply(ch.h) - tau
    n_draws = 100_000
    w = rng.standard_normal((n_draws, model.N))
    b = np.where(u[None, :] + w >= 0.0, 1.0, -1.0)
    from onebit_mimo.gauss import mills_ratio
    s = b * u[None, :]
    scores = (b * mills_ratio(s)) @ model.A_tilde
    J = om.fim(model, tau, ch.h)[0]
    rel = np.linalg.norm(np.cov(scores.T) - J) / np.linalg.norm(J)
    mean_ok = np.linalg.norm(scores.mean(0)) < 4 * np.sqrt(np.trace(J) / n_draws)
    report("05 score covariance vs Fisher information",
           rel < 0.05 and mean_ok,
           f"relative Frobenius error {rel:.3%} (<5%), score mean near zero: {mean_ok}")


def test_criterion_06_closed_form_bounds_on_grid():
    x = np.arange(0.0, 10.0 + 5e-4, 1e-3)
    fbar, fbar_bound = om.gaussian_cdf_bound(x)
    gbar, gbar_bound = om.g_bar_bound(x)
    slack_f = float((fbar_bound - fbar).min())
    slack_g = float((gbar_bound - gbar).min())
    peak = om.g_weight(0.0)
    interior = om.g_weight(x[1:])
    prop1 = abs(peak - 2.0 / np.pi) < 1e-14 and np.all(interior < peak)
    ok = slack_f >= -1e-12 and slack_g >= -1e-12 and prop1
    report("06 tail bounds and peak weight", ok,
           f"cdf-bound slack {slack_f:.2e}, weight-bound slack {slack_g:.2e}, "
           f"peak 2/pi exact and unique: {prop1}")


def test_criterion_07_trace_inverse_budget_bound():
    rng = np.random.default_rng(7)
    P0 = 5.0
    failures = 0
    equality_off_identity = 0
    for _ in range(500):
        p = int(rng.integers(1, 9))
        A = rng.normal(size=(p, p))
        Z = A @ A.T + 0.05 * np.eye(p)
        Z *= P0 / np.trace(Z)
        val = float(np.trace(np.linalg.inv(Z)))
        if val < p ** 2 / P0 - 1e-9:
            failures += 1
        if val <= p ** 2 / P0 + 1e-6:
            if np.linalg.norm(Z - (P0 / p) * np.eye(p)) > 1e-2 * np.linalg.norm(Z):
                equality_off_identity += 1
    report("07 trace-inverse lower bound", failures == 0 and equality_off_identity == 0,
           f"500 random PD matrices, {failures} below p^2/P0, "
           f"{equality_off_identity} near-equality cases far from identity")


def test_criterion_08_adaptive_thresholds_reach_quantized_oracle_floor():
    cfg = ExperimentConfig.from_dict(dict(
        M=16, K=8, L=[32], snr_db=[15.0], schemes=["AQ"], i_max=5,
        trials=200, seed=88,
    )).validate()
    rows = run_sweep(cfg)
    _, agg = run_aq_trace(cfg, rows, summarize(cfg, rows)["crb"])
    medians = np.array([row["median_mse"] for row in agg])
    floor = agg[0]["crb_oq_per_coeff"]
    non_increasing = bool(np.all(np.diff(medians) <= 0.0))
    final_ok = medians[-1] <= 1.5 * floor
    draws = resampled([[it.mse for it in r.rounds] for r in rows], np.median,
                      np.random.default_rng(808))
    leg_line("largest round-to-round median ratio", float(np.max(medians[1:] / medians[:-1])),
             operator.le, 1.0, np.max(draws[:, 1:] / draws[:, :-1], axis=1))
    leg_line("final median / floor", medians[-1] / floor, operator.le, 1.5, draws[:, -1] / floor)
    report("08 adaptive scheme vs oracle floor", non_increasing and final_ok,
           f"median trace {np.array2string(medians, precision=5)} "
           f"floor {floor:.3g}; final/floor {medians[-1] / floor:.2f} (<=1.5), "
           f"non-increasing: {non_increasing}")


def test_criterion_09_pilot_sweep_ordering_and_crossover():
    # An AQ row at pilot length L runs i_max rounds of L pilot symbols, so
    # it spends T = i_max * L symbols and is set against OQ and RQ at T.
    # Per-trial seeds depend on the cell only, so the second sweep leaves
    # the first one's cells as they are.
    Ls = [32, 96, 160, 256]
    base = dict(M=16, K=8, snr_db=[15.0], i_max=5, trials=200, seed=99)
    cfg = ExperimentConfig.from_dict(dict(
        base, L=Ls, schemes=["NQ", "OQ", "AQ", "RQ", "FQ"])).validate()
    spent = {L: cfg.i_max * L for L in Ls}
    cfg_spent = ExperimentConfig.from_dict(dict(
        base, L=sorted(set(spent.values()) - set(Ls)),
        schemes=["OQ", "RQ"])).validate()
    groups = {}
    for r in run_sweep(cfg) + run_sweep(cfg_spent):
        groups.setdefault((r.scheme, r.L), []).append(r.mse)
    med = {cell: float(np.median(mses)) for cell, mses in groups.items()}
    rng = np.random.default_rng(909)
    boot = {cell: resampled(groups[cell], np.median, rng) for cell in sorted(groups)}

    problems = []

    def leg(lo, hi, where):
        leg_line(f"{lo[0]}@{lo[1]} / {hi[0]}@{hi[1]} median", med[lo] / med[hi], operator.le,
                 1.0, boot[lo] / boot[hi])
        if med[lo] > med[hi]:
            problems.append(f"{lo[0]} ({med[lo]:.3e}) > {hi[0]} ({med[hi]:.3e}) {where}")

    for L, T in spent.items():
        leg(("NQ", L), ("OQ", L), f"at L={L}")
        leg(("RQ", L), ("FQ", L), f"at L={L}")
        leg(("OQ", T), ("AQ", L), f"for AQ at L={L} vs T={T}")
        leg(("AQ", L), ("RQ", T), f"for AQ at L={L} vs T={T}")

    def interp_at_128(lo, hi):
        return float(np.exp(np.interp(np.log(128.0),
                                      [np.log(96.0), np.log(160.0)],
                                      [np.log(lo), np.log(hi)])))

    rq_128, fq_128 = (interp_at_128(med[(s, 96)], med[(s, 160)]) for s in ("RQ", "FQ"))
    for name, value, op in (("RQ", rq_128, operator.le), ("FQ", fq_128, operator.gt)):
        draws = [interp_at_128(lo, hi) for lo, hi in zip(boot[(name, 96)], boot[(name, 160)])]
        leg_line(f"{name}@128 (log-interpolated median)", value, op, 0.1, draws)
    if rq_128 > 0.1:
        problems.append(f"RQ at L=128 is {rq_128:.3f} > 0.1")
    if fq_128 <= 0.1:
        problems.append(f"FQ at L=128 is {fq_128:.3f} <= 0.1 (should stay above)")

    for L, T in spent.items():
        single = "  ".join(f"{s}={med[(s, L)]:.3e}" for s in ["NQ", "OQ", "RQ", "FQ"])
        print(f"    L={L}: {single}  | AQ={med[('AQ', L)]:.3e} vs T={T}: "
              f"OQ={med[('OQ', T)]:.3e}  RQ={med[('RQ', T)]:.3e}")
    report("09 pilot-sweep scheme ordering", not problems,
           "AQ at L set against OQ and RQ at T = i_max*L; "
           f"RQ@128 {rq_128:.3f} <= 0.1 < FQ@128 {fq_128:.3f}; "
           + ("all orderings hold" if not problems else "; ".join(problems)))


def test_criterion_10_rate_close_to_perfect_csi():
    trials = 40
    rates, boot = {}, {}
    rng = np.random.default_rng(1010)
    for scheme in ["AQ", "RQ", "FQ", "PCSI"]:
        vals = [om.run_trial(scheme, 32, 4, 20, 5.0, t, 4242, n_frames=1500,
                             i_max=5).rate
                for t in range(trials)]
        rates[scheme] = float(np.mean(vals))
        boot[scheme] = resampled(vals, np.mean, rng)
    aq_ratio = rates["AQ"] / rates["PCSI"]
    rq_gain = rates["RQ"] / rates["FQ"]
    leg_line("AQ / PCSI mean rate", aq_ratio, operator.ge, 0.9, boot["AQ"] / boot["PCSI"])
    leg_line("RQ / FQ mean rate", rq_gain, operator.ge, 1.15, boot["RQ"] / boot["FQ"])
    ok = aq_ratio >= 0.9 and rq_gain >= 1.15
    report("10 achievable-rate targets", ok,
           f"adaptive/perfect-CSI rate ratio {aq_ratio:.3f} (>=0.90), "
           f"random/fixed-threshold gain {rq_gain:.2f} (>=1.15)")


def test_criterion_11_byte_identical_reruns_any_thread_count(tmp_path):
    base = dict(M=4, K=8, L=[32], snr_db=[15.0],
                schemes=["NQ", "OQ", "AQ", "RQ", "FQ"], i_max=3,
                trials=10, seed=123)
    names = ("sweep.csv", "aq_trace.csv", "aq_trace_trials.csv")
    outputs = []
    for threads in [1, 1, 2]:
        cfg = ExperimentConfig.from_dict(dict(base, threads=threads)).validate()
        out = tmp_path / f"run_{len(outputs)}"
        cmd_sweep(cfg, out)
        outputs.append([(out / name).read_bytes() for name in names])
    ok = outputs[0] == outputs[1] == outputs[2]
    sizes = ", ".join(f"{name} {len(data)} B" for name, data in zip(names, outputs[0]))
    report("11 determinism across reruns and thread counts", ok,
           f"three runs ({sizes}), identical: {ok}")
