"""One-bit maximum-likelihood channel estimation.

Log-likelihood, analytic gradient and curvature, and a damped Newton
solver.  Because A = I_M kron A_tilde and the log-likelihood is a sum
over measurements, the joint problem separates exactly into M
independent 2K-dimensional concave problems; the solver iterates all of
them together as batched array operations, with per-antenna step sizes
and stopping decisions.

All CDF ratios go through gauss.mills_ratio / gauss.norm_logcdf: with
b in {-1,+1} and s = b * (a^T h - tau) / sigma,

    log-likelihood term   log Phi(s)
    d/dz  term            b * mills(s) / sigma
    d2/dz2 term           -mills(s) * (s + mills(s)) / sigma^2

which are finite and well-scaled arbitrarily deep into both tails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .gauss import mills_ratio, norm_logcdf
from .model import RealModel, block_gram

GRAD_TOL = 1e-8    # converged when per-antenna ||grad|| <= GRAD_TOL * measurements
MAX_ITER = 100
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
NORM_CAP = 1e3     # per-antenna estimate norm beyond which the MLE is treated as unbounded

# An antenna whose final per-antenna log-likelihood exceeds this fitted every
# observed sign with probability ~1: the data are separable along the fitted
# ray and the likelihood has no interior maximum there (sup = 0, unattained).
# A genuine interior optimum keeps a bundle of near-threshold measurements at
# p ~ 1/2, each costing ~log 2, so the two cases are far apart.
SEPARABLE_LL_TOL = -1e-2


@dataclass
class LikelihoodProblem:
    """Quantized data for the estimator; batches accumulate across adaptive rounds.

    Each batch must come from an independent noise draw on the same model
    (the log-likelihood below simply sums the batches' terms).
    """

    batches: list
    model: RealModel

    def __post_init__(self):
        if not self.batches:
            raise ValueError("need at least one quantized batch")
        for batch in self.batches:
            if batch.b.shape != (self.model.N,):
                raise ValueError("batch length does not match the model's N")


@dataclass
class ChannelEstimate:
    """An estimate plus solver diagnostics.

    antenna_converged marks, per independent antenna subproblem, that the
    gradient test passed and neither the norm cap nor the separable-data
    detector fired; converged is their conjunction.
    """

    h_hat: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    objective: float
    antenna_converged: np.ndarray | None = None


def _stacked(prob: LikelihoodProblem):
    """Batch data as (n_batches, M, 2L) sign and threshold arrays."""
    m = prob.model
    B = np.stack([b.b.astype(float).reshape(m.M, 2 * m.L) for b in prob.batches])
    T = np.stack([b.tau.reshape(m.M, 2 * m.L) for b in prob.batches])
    return B, T


def _margins(H, B, T, At, sigma):
    """s = b * (a^T h - tau) / sigma for antenna rows H against (batch, row, 2L) data."""
    return B * ((H @ At.T)[None, :, :] - T) / sigma


def _score(B, lam, At, sigma):
    """Per-antenna gradient rows sum_n b_n mills(s_n) a_n / sigma."""
    return (B * lam).sum(axis=0) @ At / sigma


def _curvature(S, lam, sigma2):
    """-d2l/dz2 per measurement, summed over batches."""
    return (lam * (S + lam)).sum(axis=0) / sigma2


def _problem_margins(prob: LikelihoodProblem, h: np.ndarray):
    m = prob.model
    B, T = _stacked(prob)
    H = np.asarray(h, dtype=float).reshape(m.M, 2 * m.K)
    return B, _margins(H, B, T, m.A_tilde, np.sqrt(m.sigma2))


def log_likelihood(prob: LikelihoodProblem, h: np.ndarray) -> float:
    """Sum over batches and measurements of log Phi(b*(a^T h - tau)/sigma)."""
    _, S = _problem_margins(prob, h)
    return float(norm_logcdf(S).sum())


def gradient(prob: LikelihoodProblem, h: np.ndarray) -> np.ndarray:
    """Analytic score: sum_n (dl/dz_n) a_n, assembled per antenna block."""
    m = prob.model
    B, S = _problem_margins(prob, h)
    return _score(B, mills_ratio(S), m.A_tilde, np.sqrt(m.sigma2)).reshape(-1)


def hessian_action(prob: LikelihoodProblem, h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the (negative semidefinite) Hessian to v, built from the Newton step's blocks."""
    m = prob.model
    _, S = _problem_margins(prob, h)
    curv = _curvature(S, mills_ratio(S), m.sigma2)
    V = np.asarray(v, dtype=float).reshape(m.M, 2 * m.K)
    return -(block_gram(m.A_tilde, curv) @ V[..., None]).reshape(-1)


def _newton_direction(Hneg: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Per-antenna Newton steps Hneg^{-1} G, retried with a small ridge if a block is singular."""
    try:
        return np.linalg.solve(Hneg, G[..., None])[..., 0]
    except np.linalg.LinAlgError:
        ridge = 1e-10 * np.maximum(np.trace(Hneg, axis1=1, axis2=2), 1.0)
        try:
            return np.linalg.solve(Hneg + ridge[:, None, None] * np.eye(Hneg.shape[-1]),
                                   G[..., None])[..., 0]
        except np.linalg.LinAlgError as e:
            raise NumericalError("Newton system is singular even after a ridge; "
                                 "the curvature lost precision (check the SNR)") from e


def _line_search(Hs, step, G, S, Bs, Ts, At, sigma):
    """Armijo backtracking along each antenna's step from the rows Hs with margins S.

    Returns the new rows (a row whose search failed keeps its Hs value) and
    which antennas accepted a step.
    """
    ll0 = norm_logcdf(S).sum(axis=(0, 2))
    slope = (G * step).sum(axis=1)

    t = np.ones(len(Hs))
    Hnew = Hs.copy()
    accepted = np.zeros(len(Hs), dtype=bool)
    pend = np.arange(len(Hs))
    for _bt in range(MAX_BACKTRACKS):
        if pend.size == 0:
            break
        trial = Hs[pend] + t[pend, None] * step[pend]
        llt = norm_logcdf(_margins(trial, Bs[:, pend], Ts[:, pend], At, sigma)).sum(axis=(0, 2))
        ok = llt >= ll0[pend] + ARMIJO_C1 * t[pend] * slope[pend]
        good = pend[ok]
        Hnew[good] = trial[ok]
        accepted[good] = True
        t[pend[~ok]] *= BACKTRACK
        pend = pend[~ok]
    return Hnew, accepted


def solve_ml(prob: LikelihoodProblem, h0: np.ndarray | None = None) -> ChannelEstimate:
    """Damped Newton ascent on the concave log-likelihood.

    Concavity means any stationary point is the global maximum, so the
    solver only needs monotone ascent (Armijo backtracking) to be safe.
    An antenna whose data are one-sided in some direction has no finite
    maximizer; its estimate is clamped at NORM_CAP and the result is
    flagged converged=False rather than returned silently.
    """
    m = prob.model
    At = m.A_tilde
    sigma = np.sqrt(m.sigma2)
    B, T = _stacked(prob)
    M, K2 = m.M, 2 * m.K
    meas_per_antenna = B.shape[0] * 2 * m.L
    tol = GRAD_TOL * meas_per_antenna

    H = np.zeros((M, K2)) if h0 is None else np.asarray(h0, dtype=float).reshape(M, K2).copy()

    active = np.ones(M, dtype=bool)
    capped = np.zeros(M, dtype=bool)
    iters_used = 0

    for _ in range(MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iters_used += 1

        Hs, Bs, Ts = H[idx], B[:, idx], T[:, idx]
        S = _margins(Hs, Bs, Ts, At, sigma)
        lam = mills_ratio(S)
        G = _score(Bs, lam, At, sigma)
        gn = np.linalg.norm(G, axis=1)

        done = gn <= tol
        if done.any():
            active[idx[done]] = False
            keep = ~done
            if not keep.any():
                continue
            idx = idx[keep]
            Hs, Bs, Ts = Hs[keep], Bs[:, keep], Ts[:, keep]
            S, lam, G = S[:, keep], lam[:, keep], G[keep]

        step = _newton_direction(block_gram(At, _curvature(S, lam, m.sigma2)), G)
        Hnew, accepted = _line_search(Hs, step, G, S, Bs, Ts, At, sigma)
        H[idx] = Hnew

        norms = np.linalg.norm(Hnew, axis=1)
        blown = norms > NORM_CAP
        if blown.any():
            H[idx[blown]] = Hnew[blown] * (NORM_CAP / norms[blown])[:, None]
            capped[idx[blown]] = True
            active[idx[blown]] = False

        stalled = ~accepted & ~blown
        if stalled.any():
            # Armijo could not improve: either at the optimum to rounding or
            # genuinely stuck; final gradient check below decides which.
            active[idx[stalled]] = False

    S_final = _margins(H, B, T, At, sigma)
    g_final = _score(B, mills_ratio(S_final), At, sigma)
    per_antenna = np.linalg.norm(g_final, axis=1)
    ll_per_antenna = norm_logcdf(S_final).sum(axis=(0, 2))
    separable = ll_per_antenna > SEPARABLE_LL_TOL
    antenna_ok = (per_antenna <= tol) & ~capped & ~separable
    return ChannelEstimate(
        h_hat=H.reshape(-1),
        iterations=iters_used,
        grad_norm=float(np.linalg.norm(g_final)),
        converged=bool(antenna_ok.all()),
        objective=float(ll_per_antenna.sum()),
        antenna_converged=antenna_ok,
    )


def solve_nq(model: RealModel, y: np.ndarray) -> ChannelEstimate:
    """Closed-form least squares (A^T A)^{-1} A^T y via per-antenna blocks.

    This is the ML estimator when the unquantized observations are
    available.  No objective is reported (it is NaN, as for perfect CSI).
    """
    AtA = model.gram()
    K2 = 2 * model.K
    if np.linalg.matrix_rank(AtA) < K2:
        raise NumericalError(
            "A_tilde^T A_tilde is rank deficient; unquantized least squares "
            "needs L >= K with linearly independent pilot rows"
        )
    Y = np.asarray(y, dtype=float).reshape(model.M, 2 * model.L)
    H_hat = np.linalg.solve(AtA, model.A_tilde.T @ Y.T).T
    return ChannelEstimate(h_hat=H_hat.reshape(-1), iterations=0, grad_norm=0.0,
                           converged=True, objective=np.nan,
                           antenna_converged=np.ones(model.M, dtype=bool))
