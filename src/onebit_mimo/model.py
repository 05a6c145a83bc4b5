"""The real block-structured training model and its random draws.

The complex training model Y = H X + W is handled throughout in its real
vectorized form y = A h + w with A = I_M (kron) A_tilde.  ``realify`` builds
A_tilde from any complex K x L pilot matrix X, whose power is ||X||_F^2.
A is never materialized: every product routes through the shared 2L x 2K
factor A_tilde, one antenna block at a time, which makes each matvec
O(M*L*K) instead of O(M^2*L*K).  K and L are read from A_tilde's shape.

Layout conventions (used consistently by every module):
  h stacks per-antenna subvectors [Re(H[m, :]), Im(H[m, :])], m = 0..M-1;
  y stacks per-antenna subvectors [Re(Y[m, :]), Im(Y[m, :])].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RealModel:
    """Real form of the training model: y = A h + w with A = I_M kron A_tilde."""

    A_tilde: np.ndarray  # 2L x 2K
    M: int
    sigma2: float  # noise variance per real component (complex variance is 2*sigma2)

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be positive")
        if self.sigma2 <= 0.0:
            raise ValueError("sigma2 must be positive")
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

    @property
    def dim(self) -> int:
        """Length of the real channel vector, 2*M*K."""
        return 2 * self.M * self.K

    def apply(self, h: np.ndarray) -> np.ndarray:
        """A @ h without forming A (independent per-antenna products)."""
        H = np.asarray(h, dtype=float).reshape(self.M, 2 * self.K)
        return (H @ self.A_tilde.T).reshape(-1)

    def gram(self) -> np.ndarray:
        """A_tilde^T A_tilde, the repeated diagonal block of A^T A."""
        return self.A_tilde.T @ self.A_tilde


def block_gram(A_tilde: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-antenna blocks sum_r w[a, r] a_r a_r^T: (M', 2L) weights -> (M', 2K, 2K).

    Both the Newton step's -Hessian (w = curvature) and the FIM (w = g) are these.
    """
    return (A_tilde.T[None] * w[:, None, :]) @ A_tilde


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


def realify(X: np.ndarray, M: int, sigma2: float) -> RealModel:
    """Real model of M antennas receiving the complex K x L pilot matrix X.

    A_tilde = [[Re X, Im X], [-Im X, Re X]]^T, so that applying A_tilde to
    an antenna's [Re, Im] channel block reproduces exactly the real and
    imaginary parts of that antenna's row of H X.  sigma2 is the noise
    variance per real component.
    """
    X = np.asarray(X, dtype=complex)
    Xr, Xi = X.real, X.imag
    A_tilde = np.block([[Xr, Xi], [-Xi, Xr]]).T
    return RealModel(A_tilde=A_tilde, M=M, sigma2=sigma2)


def generate_channel(M: int, K: int, sigma_h2: float = 1.0, rng_seed=None) -> ChannelRealization:
    """i.i.d. circularly symmetric complex Gaussian channel.

    Each complex entry has variance sigma_h2 (so sigma_h2/2 per real part).
    Deterministic for a fixed seed.
    """
    if M < 1 or K < 1:
        raise ValueError("M and K must be positive")
    if sigma_h2 <= 0.0:
        raise ValueError("sigma_h2 must be positive")
    rng = np.random.default_rng(rng_seed)
    scale = np.sqrt(sigma_h2 / 2.0)
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
    """y = A h + w with w ~ N(0, sigma2 I_N), sigma2 per real component."""
    rng = np.random.default_rng(rng_seed)
    return model.apply(h) + rng.normal(0.0, np.sqrt(model.sigma2), size=model.N)


def power_for_snr(snr_db: float, K: int, L: int, sigma2: float = 1.0) -> float:
    """Pilot power budget that realizes a target SNR in dB."""
    return 10.0 ** (snr_db / 10.0) * K * L * sigma2


def channel_mse(h_hat: np.ndarray, h_true: np.ndarray) -> float:
    """||H - H_hat||_F^2 / (K M), evaluated on the 2MK real coordinates."""
    e = np.asarray(h_hat, dtype=float) - np.asarray(h_true, dtype=float)
    return float(np.dot(e, e)) / (e.size // 2)
