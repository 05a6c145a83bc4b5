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
and log Phi of each line search's rows are carried into the next step
(with their per-antenna sums, when every antenna took its full step and
none left the working set), and mills(s) is taken from them through
gauss.mills_from_logcdf (erfcx only in the deep left tail).  solve_ml keeps
one record of each antenna's last evaluation, two (n_batches, M, 2L) arrays
that start as NaN: an antenna that leaves the working set, or is still in it
when the loop ends, writes the margins and log Phi of its final row there; a
capped antenna writes nothing.  The final check recomputes every margin of
the final iterate with one full-width product and runs log Phi only where a
margin's bits differ from the record's: a capped row, or a row whose product
rounded otherwise.  Reuse is keyed on the bits of each margin, not on rows,
because a product over part of the working set need not match the full one:
one row takes numpy's gemv path, and the BLAS kernel, with its summation
order, can change with the number of rows.
solve_ml's memo hands the final margins and log Phi on to AQ's next round,
as a record of its first batches, whose start then runs log Phi only on its
new batch and on the rows run_aq shrank.  log_likelihood, gradient and
hessian_action recompute margins and call norm_logcdf / mills_ratio
directly, so they stay independent of that bookkeeping.

Each Newton step's -Hessian blocks sum_r curv_r a_r a_r^T come from
RealModel.block_gram, the kernel crb.fim uses too: one GEMM of the
curvature rows against the model's packed outer-product table, then one
gather into exactly symmetric blocks (model's docstring says why).

An antenna stops when its gradient norm is at most GRAD_TOL per
measurement, or when its Newton decrement G^T step is within
DECREMENT_ULPS ulp of |its log-likelihood|: no step can then change the
objective by more than its rounding, so Armijo could only stall (Boyd &
Vandenberghe, Convex Optimization, 2004, sec. 9.5).  Both count as
converged; a line search whose trial rounds back to the start row counts
as stalled and leaves the verdict to the final gradient check.

In the Newton loop the gradient test and the norm cap compare each row's
Euclidean norm with the tolerance and with NORM_CAP (read at each call).
After a line search in which every row took its full step, the cap's and
the exits' bookkeeping is skipped unless some row's norm exceeds NORM_CAP.
Only rows that leave the working set, and the rows left when the loop ends,
are written back to the estimate, which the loop never reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .gauss import mills_from_logcdf, mills_ratio, norm_logcdf
from .model import RealModel

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
    (the log-likelihood below simply sums the batches' terms).  signs and
    thresholds are the batches stacked as (n_batches, M, 2L) float arrays.
    They are stacked from batches unless the caller passes both: run_aq
    writes one slab per round into arrays it keeps, instead of restacking
    every batch for every solve.
    """

    batches: list
    model: RealModel
    signs: np.ndarray | None = None
    thresholds: np.ndarray | None = None

    def __post_init__(self):
        if not self.batches:
            raise ValueError("need at least one quantized batch")
        m = self.model
        for batch in self.batches:
            if batch.b.shape != (m.N,):
                raise ValueError("batch length does not match the model's N")
        slab = (m.M, 2 * m.L)
        if self.signs is None and self.thresholds is None:
            self.signs = np.stack([b.b.astype(float).reshape(slab) for b in self.batches])
            self.thresholds = np.stack([b.tau.reshape(slab) for b in self.batches])
        elif any(a is None or a.shape != (len(self.batches), *slab)
                 for a in (self.signs, self.thresholds)):
            raise ValueError("stacked signs and thresholds must be (n_batches, M, 2L)")


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


def _margins(H, B, T, At):
    """s = b * (a^T h - tau) for antenna rows H against (batch, row, 2L) data."""
    S = np.subtract((H @ At.T)[None, :, :], T)
    S *= B
    return S


def _score(B, lam, At):
    """Per-antenna gradient rows sum_n b_n mills(s_n) a_n."""
    return _batch_sum(B * lam) @ At


def _batch_sum(X):
    """X summed over its batch axis.

    A one-batch X is returned as X[0], with no reduction: it equals the sum,
    except that it keeps a zero's sign (the sum makes -0.0 into +0.0).
    """
    return X[0] if len(X) == 1 else X.sum(axis=0)


def _curvature(S, lam, s_min=None):
    """-d2l/dz2 = lam (s + lam) per measurement, summed over batches.

    For s -> -inf, s + lam(s) = -t (1 - 2t^2 + 10t^4 - ...) with t = 1/s,
    used below CURVATURE_SERIES_BELOW, where the direct sum cancels (and can
    even turn negative).  One S.min() keeps ordinary margins on the direct
    path at the cost of a single reduction; s_min, if given, is that
    minimum or any lower bound of it (the Newton step's, taken before its
    working set shrank).
    """
    gap = S + lam
    if (S.min() if s_min is None else s_min) < CURVATURE_SERIES_BELOW:
        far = S < CURVATURE_SERIES_BELOW
        t = 1.0 / S[far]
        t2 = t * t
        gap[far] = -t * (1.0 - 2.0 * t2 + 10.0 * t2 * t2)
    gap *= lam
    return _batch_sum(gap)


def _problem_margins(prob: LikelihoodProblem, h: np.ndarray):
    m = prob.model
    H = np.asarray(h, dtype=float).reshape(m.M, 2 * m.K)
    return prob.signs, _margins(H, prob.signs, prob.thresholds, m.A_tilde)


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
    return -(m.block_gram(curv) @ V[..., None]).reshape(-1)


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


def _line_search(Hs, step, slope, ll0, Bs, Ts, At, S0, LP0):
    """Armijo backtracking along each antenna's step from the rows Hs.

    ll0 is each row's log-likelihood, slope its directional derivative
    G.step, and S0, LP0 its margins and elementwise log Phi.  Returns the
    new rows (a row whose search failed keeps its Hs value), their margins
    and log Phi (a row that did not accept keeps its S0, LP0 bits), which
    rows accepted a step, and, when every row accepted the full step, the
    rows' log-likelihoods LP.sum(axis=(0, 2)) (else None).  A trial that
    rounds back to its start row is never accepted: that row has stalled.
    """
    Hnew = Hs + step
    S = _margins(Hnew, Bs, Ts, At)
    LP = norm_logcdf(S)
    moved = (Hnew != Hs).any(axis=1)
    ll = LP.sum(axis=(0, 2))
    accepted = (ll >= ll0 + ARMIJO_C1 * slope) & moved
    if accepted.all():
        return Hnew, S, LP, accepted, ll

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
    back = ~accepted
    if back.any():  # most searches that backtrack end with every row accepted
        Hnew[back], S[:, back], LP[:, back] = Hs[back], S0[:, back], LP0[:, back]
    return Hnew, S, LP, accepted, None


def _row_norms(X):
    """Euclidean norm of each row: what np.linalg.norm(X, axis=1) returns, without its checks."""
    return np.sqrt(np.add.reduce(X * X, axis=1))


def _flat_rows(slope, ll0):
    """Mask of the rows whose |slope| is within DECREMENT_ULPS ulp of |ll0|, or None if none is."""
    flat = np.abs(slope) <= DECREMENT_ULPS * np.spacing(np.abs(ll0))
    return flat if flat.any() else None


def _logcdf_reusing(S, known):
    """log Phi(S), copied from a kept record wherever a margin has its bits.

    known is None or one (S_k, LP_k) pair: margins and their log Phi for
    every antenna over S's first len(S_k) batches, NaN where none was kept.
    norm_logcdf runs once, on every entry whose bits the record's margin does
    not have.  A record as long as S is filled in place and returned.
    """
    if known is None:
        return norm_logcdf(S)
    S_k, LP_k = known
    n = len(S_k)
    fresh = np.ones(S.shape, dtype=bool)
    fresh[:n] = S[:n].view(np.int64) != S_k.view(np.int64)
    LP = LP_k if n == len(S) else np.concatenate((LP_k, np.empty_like(S[n:])))
    if fresh.any():
        LP[fresh] = norm_logcdf(S[fresh])
    return LP


def _keep(mask, *arrays):
    """Restrict working-set arrays to the antennas in mask.

    The antenna axis is the only axis of a vector and the second-to-last
    axis of every other array (rows are (antenna, 2K), data (batch, antenna, 2L)).
    """
    return [a[mask] if a.ndim == 1 else a[..., mask, :] for a in arrays]


def solve_ml(prob: LikelihoodProblem, h0: np.ndarray | None = None,
             memo: list | None = None) -> ChannelEstimate:
    """Damped Newton ascent on the concave log-likelihood.

    Concavity means any stationary point is the global maximum, so the
    solver only needs monotone ascent (Armijo backtracking) to be safe.
    An antenna whose data are one-sided in some direction has no finite
    maximizer: its iterate runs out along a ray until the decaying gradient
    passes the GRAD_TOL test (rarely, until it is clamped at NORM_CAP), and
    the result is flagged converged=False rather than returned silently.
    memo, if given, is a list that holds at most one (S, LP) pair, a record
    as _logcdf_reusing takes it.  The start reuses and empties it, and the
    solve leaves the final check's margins and log Phi in it: AQ's round k+1
    starts from round k's estimate on the same batches plus one, so most of
    its first margins have the bits of round k's final ones.
    """
    m = prob.model
    At = m.A_tilde
    B, T = prob.signs, prob.thresholds
    M, K2 = m.M, 2 * m.K
    meas_per_antenna = B.shape[0] * 2 * m.L
    tol = GRAD_TOL * meas_per_antenna

    H = np.zeros((M, K2)) if h0 is None else np.asarray(h0, dtype=float).reshape(M, K2).copy()

    capped = np.zeros(M, dtype=bool)
    at_floor = np.zeros(M, dtype=bool)
    iters_used = 0

    # Working set of the active antennas: their indices, rows, data, margins
    # and log Phi of the margins.  Antennas only leave it, and each line
    # search hands its rows' margins and log Phi to the next step.  An
    # antenna that leaves, other than by the cap, writes its row to H and its
    # margins and log Phi to the kept record, which the final check reads.
    idx, Hs, Bs, Ts = np.arange(M), H.copy(), B, T
    S = _margins(Hs, Bs, Ts, At)
    LP = _logcdf_reusing(S, memo.pop() if memo else None)
    S_kept, LP_kept = np.full(B.shape, np.nan), np.full(B.shape, np.nan)
    ll0 = None  # the rows' log-likelihoods, when carried from the line search

    def leave(out):
        rows = idx[out]
        H[rows], S_kept[:, rows], LP_kept[:, rows] = Hs[out], S[:, out], LP[:, out]

    for _ in range(MAX_ITER):
        if idx.size == 0:
            break
        iters_used += 1

        s_min = S.min()
        lam = mills_from_logcdf(S, LP, s_min)
        G = _score(Bs, lam, At)
        keep = _row_norms(G) > tol
        if not keep.all():
            leave(~keep)
            idx, Hs, Bs, Ts, S, LP, lam, G = _keep(keep, idx, Hs, Bs, Ts, S, LP, lam, G)
            ll0 = None
            if idx.size == 0:
                break

        step = _newton_direction(m.block_gram(_curvature(S, lam, s_min)), G)
        slope = (G * step).sum(axis=1)
        if ll0 is None:
            ll0 = LP.sum(axis=(0, 2))
        # Newton decrement within rounding of the log-likelihood: no step
        # can show a gain the Armijo test could see.
        flat = _flat_rows(slope, ll0)
        if flat is not None:
            at_floor[idx[flat]] = True
            leave(flat)
            idx, Hs, Bs, Ts, S, LP, step, slope, ll0 = _keep(
                ~flat, idx, Hs, Bs, Ts, S, LP, step, slope, ll0)
            if idx.size == 0:
                break

        Hs, S, LP, accepted, ll0 = _line_search(Hs, step, slope, ll0, Bs, Ts, At, S, LP)
        norms = _row_norms(Hs)
        if ll0 is None or norms.max() > NORM_CAP:  # else every row took its full step and stays
            blown = norms > NORM_CAP
            if blown.any():
                H[idx[blown]] = Hs[blown] * (NORM_CAP / norms[blown])[:, None]
                capped[idx[blown]] = True

            # Stalled antennas (no step accepted) leave too, at the row they
            # kept: either at the optimum to rounding or genuinely stuck; the
            # final gradient check below decides which.  A sum over a shrunk
            # working set is taken afresh: numpy sums a (k, 1, 2L) block over
            # axes (0, 2) as one run, which can round differently.
            keep = accepted & ~blown
            if not keep.all():
                leave(~accepted & ~blown)
                idx, Hs, Bs, Ts, S, LP = _keep(keep, idx, Hs, Bs, Ts, S, LP)
                ll0 = None
    if idx.size:
        leave(slice(None))
    del S, LP  # the record holds what the final check reads

    S_final = _margins(H, B, T, At)
    LP_final = _logcdf_reusing(S_final, (S_kept, LP_kept))
    g_final = _score(B, mills_from_logcdf(S_final, LP_final), At)
    per_antenna = _row_norms(g_final)
    ll_per_antenna = LP_final.sum(axis=(0, 2))
    separable = ll_per_antenna > SEPARABLE_LL_TOL
    antenna_ok = ((per_antenna <= tol) | at_floor) & ~capped & ~separable
    if memo is not None:
        memo.append((S_final, LP_final))
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
