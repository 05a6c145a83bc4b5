"""One-bit maximum-likelihood channel estimation.

Log-likelihood, analytic gradient and curvature, and a damped Newton
solver.  Because A = I_M kron A_tilde and the log-likelihood is a sum
over measurements, the joint problem separates exactly into M
independent 2K-dimensional concave problems; the solver iterates all of
them together as batched array operations, with per-antenna step sizes
and stopping decisions.

All CDF ratios go through gauss: with b in {-1,+1}, unit noise (see
model) and s = b * (a^T h - tau),

    log-likelihood term   log Phi(s)
    d/dz  term            b * mills(s)
    d2/dz2 term           -mills(s) * (s + mills(s))

which are finite and well-scaled arbitrarily deep into both tails.

The Newton loop evaluates log Phi once per point it visits: the margins
and log Phi of each accepted line-search trial are carried into the next
step, and mills(s) is taken from them through gauss.mills_from_logcdf
(erfcx only in the deep left tail).  log_likelihood, gradient,
hessian_action and the solver's final convergence check recompute
margins and call norm_logcdf / mills_ratio directly, so they stay
independent of that bookkeeping.

An antenna stops when its gradient norm is at most GRAD_TOL per
measurement, or when its Newton decrement G^T step is within
DECREMENT_ULPS ulp of |its log-likelihood|: no step can then change the
objective by more than its rounding, so Armijo could only stall (Boyd &
Vandenberghe, Convex Optimization, 2004, sec. 9.5).  Both count as
converged; a line search whose trial rounds back to the start row counts
as stalled and leaves the verdict to the final gradient check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .gauss import mills_from_logcdf, mills_ratio, norm_logcdf
from .model import RealModel, block_gram

GRAD_TOL = 1e-8    # converged when per-antenna ||grad|| <= GRAD_TOL * measurements
MAX_ITER = 100
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
NORM_CAP = 1e3     # per-antenna estimate norm beyond which the MLE is treated as unbounded
DECREMENT_ULPS = 4  # also converged when the Newton decrement G.step <= this many ulp of |log-lik|
# Below this margin _curvature takes s + mills(s) from its asymptotic series:
# the direct sum cancels (relative error ~ s^2 * 1e-16: 1e-10 here, 2% at
# s = -1e7, no digit left at -1e9) while the series' truncation, ~74 / s^6,
# is already below rounding.
CURVATURE_SERIES_BELOW = -1e3

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
    gradient test or the Newton-decrement test passed and neither the norm
    cap nor the separable-data detector fired; converged is their conjunction.
    """

    h_hat: np.ndarray
    iterations: int
    grad_norm: float
    objective: float
    antenna_converged: np.ndarray

    @property
    def converged(self) -> bool:
        return bool(self.antenna_converged.all())


def _stacked(prob: LikelihoodProblem):
    """Batch data as (n_batches, M, 2L) sign and threshold arrays."""
    m = prob.model
    B = np.stack([b.b.astype(float).reshape(m.M, 2 * m.L) for b in prob.batches])
    T = np.stack([b.tau.reshape(m.M, 2 * m.L) for b in prob.batches])
    return B, T


def _margins(H, B, T, At):
    """s = b * (a^T h - tau) for antenna rows H against (batch, row, 2L) data."""
    return B * ((H @ At.T)[None, :, :] - T)


def _score(B, lam, At):
    """Per-antenna gradient rows sum_n b_n mills(s_n) a_n."""
    return (B * lam).sum(axis=0) @ At


def _curvature(S, lam):
    """-d2l/dz2 = lam (s + lam) per measurement, summed over batches.

    For s -> -inf, s + lam(s) = -t (1 - 2t^2 + 10t^4 - ...) with t = 1/s,
    used below CURVATURE_SERIES_BELOW, where the direct sum cancels (and can
    even turn negative).  One S.min() keeps ordinary margins on the direct
    path at the cost of a single reduction.
    """
    gap = S + lam
    if S.min() < CURVATURE_SERIES_BELOW:
        far = S < CURVATURE_SERIES_BELOW
        t = 1.0 / S[far]
        t2 = t * t
        gap[far] = -t * (1.0 - 2.0 * t2 + 10.0 * t2 * t2)
    return (lam * gap).sum(axis=0)


def _problem_margins(prob: LikelihoodProblem, h: np.ndarray):
    m = prob.model
    B, T = _stacked(prob)
    H = np.asarray(h, dtype=float).reshape(m.M, 2 * m.K)
    return B, _margins(H, B, T, m.A_tilde)


def log_likelihood(prob: LikelihoodProblem, h: np.ndarray) -> float:
    """Sum over batches and measurements of log Phi(b*(a^T h - tau))."""
    _, S = _problem_margins(prob, h)
    return float(norm_logcdf(S).sum())


def gradient(prob: LikelihoodProblem, h: np.ndarray) -> np.ndarray:
    """Analytic score: sum_n (dl/dz_n) a_n, assembled per antenna block."""
    m = prob.model
    B, S = _problem_margins(prob, h)
    return _score(B, mills_ratio(S), m.A_tilde).reshape(-1)


def hessian_action(prob: LikelihoodProblem, h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the (negative semidefinite) Hessian to v, built from the Newton step's blocks."""
    m = prob.model
    _, S = _problem_margins(prob, h)
    curv = _curvature(S, mills_ratio(S))
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


def _line_search(Hs, step, slope, ll0, Bs, Ts, At):
    """Armijo backtracking along each antenna's step from the rows Hs.

    ll0 is each row's log-likelihood and slope its directional derivative
    G.step.  Returns the new rows (a row whose search failed keeps its Hs
    value), their margins and elementwise log Phi (meaningful only for rows
    that accepted), and which rows accepted a step.  A trial that rounds back
    to its start row is never accepted: that row has stalled.
    """
    Hnew = Hs + step
    S = _margins(Hnew, Bs, Ts, At)
    LP = norm_logcdf(S)
    moved = (Hnew != Hs).any(axis=1)
    accepted = (LP.sum(axis=(0, 2)) >= ll0 + ARMIJO_C1 * slope) & moved
    if accepted.all():
        return Hnew, S, LP, accepted

    Hnew[~accepted] = Hs[~accepted]
    pend = np.flatnonzero(~accepted & moved)
    t = 1.0
    for _bt in range(MAX_BACKTRACKS - 1):
        t *= BACKTRACK
        trial = Hs[pend] + t * step[pend]
        moved = (trial != Hs[pend]).any(axis=1)
        pend, trial = pend[moved], trial[moved]
        if pend.size == 0:
            break
        St = _margins(trial, Bs[:, pend], Ts[:, pend], At)
        LPt = norm_logcdf(St)
        ok = LPt.sum(axis=(0, 2)) >= ll0[pend] + ARMIJO_C1 * t * slope[pend]
        good = pend[ok]
        Hnew[good], S[:, good], LP[:, good] = trial[ok], St[:, ok], LPt[:, ok]
        accepted[good] = True
        pend = pend[~ok]
    return Hnew, S, LP, accepted


def _keep(mask, *arrays):
    """Restrict working-set arrays to the antennas in mask.

    The antenna axis is the only axis of a vector and the second-to-last
    axis of every other array (rows are (antenna, 2K), data (batch, antenna, 2L)).
    """
    return [a[mask] if a.ndim == 1 else a[..., mask, :] for a in arrays]


def solve_ml(prob: LikelihoodProblem, h0: np.ndarray | None = None) -> ChannelEstimate:
    """Damped Newton ascent on the concave log-likelihood.

    Concavity means any stationary point is the global maximum, so the
    solver only needs monotone ascent (Armijo backtracking) to be safe.
    An antenna whose data are one-sided in some direction has no finite
    maximizer: its iterate runs out along a ray until the decaying gradient
    passes the GRAD_TOL test (rarely, until it is clamped at NORM_CAP), and
    the result is flagged converged=False rather than returned silently.
    """
    m = prob.model
    At = m.A_tilde
    B, T = _stacked(prob)
    M, K2 = m.M, 2 * m.K
    meas_per_antenna = B.shape[0] * 2 * m.L
    tol = GRAD_TOL * meas_per_antenna

    H = np.zeros((M, K2)) if h0 is None else np.asarray(h0, dtype=float).reshape(M, K2).copy()

    capped = np.zeros(M, dtype=bool)
    at_floor = np.zeros(M, dtype=bool)
    iters_used = 0

    # Working set of the active antennas: their indices, rows, data, margins
    # and log Phi of the margins.  Antennas only leave it, and each accepted
    # line-search trial hands its margins and log Phi to the next step.
    idx, Hs, Bs, Ts = np.arange(M), H.copy(), B, T
    S = _margins(Hs, Bs, Ts, At)
    LP = norm_logcdf(S)

    for _ in range(MAX_ITER):
        if idx.size == 0:
            break
        iters_used += 1

        lam = mills_from_logcdf(S, LP)
        G = _score(Bs, lam, At)
        keep = np.linalg.norm(G, axis=1) > tol
        if not keep.all():
            idx, Hs, Bs, Ts, S, LP, lam, G = _keep(keep, idx, Hs, Bs, Ts, S, LP, lam, G)
            if idx.size == 0:
                break

        step = _newton_direction(block_gram(At, _curvature(S, lam)), G)
        slope = (G * step).sum(axis=1)
        ll0 = LP.sum(axis=(0, 2))
        # Newton decrement within rounding of the log-likelihood: no step
        # can show a gain the Armijo test could see.
        flat = np.abs(slope) <= DECREMENT_ULPS * np.spacing(np.abs(ll0))
        if flat.any():
            at_floor[idx[flat]] = True
            idx, Hs, Bs, Ts, step, slope, ll0 = _keep(~flat, idx, Hs, Bs, Ts, step, slope, ll0)
            if idx.size == 0:
                break

        Hs, S, LP, accepted = _line_search(Hs, step, slope, ll0, Bs, Ts, At)
        H[idx] = Hs

        norms = np.linalg.norm(Hs, axis=1)
        blown = norms > NORM_CAP
        if blown.any():
            H[idx[blown]] = Hs[blown] * (NORM_CAP / norms[blown])[:, None]
            capped[idx[blown]] = True

        # Stalled antennas (no step accepted) leave too: either at the
        # optimum to rounding or genuinely stuck; the final gradient check
        # below decides which.
        keep = accepted & ~blown
        if not keep.all():
            idx, Hs, Bs, Ts, S, LP = _keep(keep, idx, Hs, Bs, Ts, S, LP)

    S_final = _margins(H, B, T, At)
    g_final = _score(B, mills_ratio(S_final), At)
    per_antenna = np.linalg.norm(g_final, axis=1)
    ll_per_antenna = norm_logcdf(S_final).sum(axis=(0, 2))
    separable = ll_per_antenna > SEPARABLE_LL_TOL
    antenna_ok = ((per_antenna <= tol) | at_floor) & ~capped & ~separable
    return ChannelEstimate(
        h_hat=H.reshape(-1),
        iterations=iters_used,
        grad_norm=float(np.linalg.norm(g_final)),
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
                           objective=np.nan, antenna_converged=np.ones(model.M, dtype=bool))
