"""The real block-structured training model and its random draws.

The complex training model Y = H X + W is handled throughout in its real
vectorized form y = A h + w with A = I_M (kron) A_tilde.  ``realify`` builds
A_tilde = complex_block(X)^T from any complex K x L pilot matrix X, whose
power is ||X||_F^2; detection's data phase uses complex_block's real form too.
A is never materialized: every product routes through the shared 2L x 2K
factor A_tilde, one antenna block at a time, which makes each matvec
O(M*L*K) instead of O(M^2*L*K).  K and L are read from A_tilde's shape.

Units: the noise has variance 1 per real component and the channel prior
variance 1 per complex entry, so the training SNR is P / (K L).  The
one-bit likelihood sees h and the thresholds only in units of the noise
standard deviation, so once the SNR sets the pilot power another noise
variance would move no estimate.

Layout conventions (used consistently by every module):
  h stacks per-antenna subvectors [Re(H[m, :]), Im(H[m, :])], m = 0..M-1;
  y stacks per-antenna subvectors [Re(Y[m, :]), Im(Y[m, :])].

Weighted Gram blocks sum_r w_r a_r a_r^T, the Newton step's -Hessian and
the FIM alike, come from RealModel.block_gram: one GEMM w @ Q against the
model's table Q of packed products a_r,i a_r,j (i <= j), built on first use
and kept for the model's lifetime, then one gather that unpacks each packed
row into an exactly symmetric 2K x 2K block.  The gather is ndarray.take
along the packed axis, which is faster than the equivalent fancy index
packed[:, map] (numpy's general indexing path); one GEMM against Q is
faster than a broadcast of w into a (M', 2K, 2L) copy of A_tilde^T
followed by M' small matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np


@dataclass(frozen=True)
class RealModel:
    """Real form of the training model: y = A h + w with A = I_M kron A_tilde."""

    A_tilde: np.ndarray  # 2L x 2K
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be positive")
        A = np.asarray(self.A_tilde, dtype=float)
        if A.ndim != 2 or min(A.shape) < 2 or A.shape[0] % 2 or A.shape[1] % 2:
            raise ValueError(f"A_tilde must be 2L x 2K with K, L >= 1, got shape {A.shape}")
        A.setflags(write=False)
        object.__setattr__(self, "A_tilde", A)

    @property
    def K(self) -> int:
        """Number of users, half of A_tilde's column count."""
        return self.A_tilde.shape[1] // 2

    @property
    def L(self) -> int:
        """Number of pilot symbols, half of A_tilde's row count."""
        return self.A_tilde.shape[0] // 2

    @property
    def N(self) -> int:
        """Total number of real measurements, 2*M*L."""
        return 2 * self.M * self.L

    def apply(self, h: np.ndarray) -> np.ndarray:
        """A @ h without forming A (independent per-antenna products)."""
        H = np.asarray(h, dtype=float).reshape(self.M, 2 * self.K)
        return (H @ self.A_tilde.T).reshape(-1)

    def gram(self) -> np.ndarray:
        """A_tilde^T A_tilde, the repeated diagonal block of A^T A."""
        return self.A_tilde.T @ self.A_tilde

    @cached_property
    def outer_table(self) -> np.ndarray:
        """Q[r, p] = a_r,i a_r,j over the packed upper triangle i <= j: (2L, 2K(2K+1)/2).

        Built once per model, read-only.  Each i fills its packed run
        (i, i..2K-1) with one product of contiguous rows of A_tilde^T.
        """
        At = np.ascontiguousarray(self.A_tilde.T)
        K2 = At.shape[0]
        Q = np.empty((At.shape[1], K2 * (K2 + 1) // 2))
        off = 0
        for i in range(K2):
            np.multiply(At[i:], At[i], out=Q.T[off:off + K2 - i])
            off += K2 - i
        Q.setflags(write=False)
        return Q

    def block_gram(self, w: np.ndarray) -> np.ndarray:
        """Per-antenna blocks sum_r w[a, r] a_r a_r^T: (M', 2L) weights -> (M', 2K, 2K).

        Both the Newton step's -Hessian (w = curvature) and the FIM (w = g)
        are these.  One GEMM against outer_table gives each block's packed
        upper triangle, and one gather unpacks it, so every block is exactly
        symmetric.
        """
        K2 = self.A_tilde.shape[1]
        packed = w @ self.outer_table
        return packed.take(_unpack_map(K2), axis=1).reshape(-1, K2, K2)


@cache
def _unpack_map(K2: int) -> np.ndarray:
    """Packed column of entry (i, j) of a K2 x K2 symmetric block, flattened row-major."""
    i, j = np.triu_indices(K2)
    pos = np.empty((K2, K2), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(i.size)
    flat = pos.reshape(-1)
    flat.setflags(write=False)
    return flat


@dataclass(frozen=True)
class ChannelRealization:
    """A channel draw in both complex (M x K) and real (2MK) coordinates.

    Only H is given; h = channel_to_real(H) is derived from it.
    """

    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        h = channel_to_real(H)
        H.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "h", h)


def channel_to_real(H: np.ndarray) -> np.ndarray:
    """Complex M x K channel -> real 2MK vector (per-antenna [Re, Im] blocks)."""
    H = np.asarray(H, dtype=complex)
    return np.hstack([H.real, H.imag]).reshape(-1)


def real_to_channel(h: np.ndarray, M: int, K: int) -> np.ndarray:
    """Inverse of channel_to_real; the round trip is exact."""
    Hm = np.asarray(h, dtype=float).reshape(M, 2 * K)
    return Hm[:, :K] + 1j * Hm[:, K:]


def complex_block(X: np.ndarray) -> np.ndarray:
    """Real form [[Re X, Im X], [-Im X, Re X]] of a complex a x b matrix X: (2a, 2b).

    For complex rows G, [Re G, Im G] @ complex_block(X) = [Re(G X), Im(G X)].
    """
    Xr, Xi = np.real(X), np.imag(X)
    return np.block([[Xr, Xi], [-Xi, Xr]])


def realify(X: np.ndarray, M: int) -> RealModel:
    """Real model of M antennas receiving the complex K x L pilot matrix X.

    A_tilde = complex_block(X)^T, so that applying A_tilde to an antenna's
    [Re, Im] channel block reproduces exactly the real and imaginary parts
    of that antenna's row of H X.
    """
    return RealModel(A_tilde=complex_block(X).T, M=M)


def generate_channel(M: int, K: int, rng_seed=None) -> ChannelRealization:
    """i.i.d. circularly symmetric complex Gaussian channel.

    Each complex entry has variance 1 (1/2 per real part).
    Deterministic for a fixed seed.
    """
    if M < 1 or K < 1:
        raise ValueError("M and K must be positive")
    rng = np.random.default_rng(rng_seed)
    scale = np.sqrt(0.5)
    H = rng.normal(0.0, scale, size=(M, K)) + 1j * rng.normal(0.0, scale, size=(M, K))
    return ChannelRealization(H)


def generate_pilots_orthogonal(K: int, L: int, P: float, rng_seed=None) -> np.ndarray:
    """Random K x L pilot matrix with X X^H = (P/K) I_K.

    The rows are K orthonormal rows from the Q factor of a complex Gaussian
    matrix, scaled to spend the power budget exactly: tr(X X^H) = P.
    """
    if L < K:
        raise ValueError(f"orthogonal pilots need L >= K (got K={K}, L={L})")
    rng = np.random.default_rng(rng_seed)
    G = rng.normal(size=(L, K)) + 1j * rng.normal(size=(L, K))
    Q, _ = np.linalg.qr(G)
    return np.sqrt(P / K) * Q.conj().T


def generate_noisy_observation(model: RealModel, h: np.ndarray, rng_seed=None) -> np.ndarray:
    """y = A h + w with w ~ N(0, I_N)."""
    rng = np.random.default_rng(rng_seed)
    return model.apply(h) + rng.standard_normal(model.N)


def power_for_snr(snr_db: float, K: int, L: int) -> float:
    """Power budget of K x L symbols at a target SNR in dB (unit noise)."""
    return 10.0 ** (snr_db / 10.0) * K * L


def channel_mse(h_hat: np.ndarray, h_true: np.ndarray) -> float:
    """||H - H_hat||_F^2 / (K M), evaluated on the 2MK real coordinates."""
    e = np.asarray(h_hat, dtype=float) - np.asarray(h_true, dtype=float)
    return float(np.dot(e, e)) / (e.size // 2)
