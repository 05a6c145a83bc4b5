"""One sha256 over every one-bit ML solve of a fixed grid of trials.

Hooks schemes.solve_ml and runs experiments.run_trial for FQ, RQ, OQ and AQ
(each AQ round is one solve) at every shape, SNR and trial of the grid below,
once at mle.NORM_CAP and once with the cap patched to 3, where it clamps
some antennas.  Prints the number of solves and one digest over each solve's
h_hat bytes, iterations, grad_norm, objective and antenna_converged, in call
order.  A change that keeps the solver's output bit for bit keeps both lines.

Run from the repository root:  python scripts/solve_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from onebit_mimo import experiments, mle, schemes  # noqa: E402

SHAPES = ((16, 8, 32), (16, 8, 256), (4, 8, 32), (8, 4, 16), (8, 4, 48), (2, 2, 6), (32, 2, 8))
SNRS_DB = (-10.0, 0.0, 15.0, 30.0, 60.0, 200.0)
TRIALS = (0, 1)
SCHEMES = ("FQ", "RQ", "OQ", "AQ")
NORM_CAPS = (mle.NORM_CAP, 3.0)
MASTER_SEED = 7
I_MAX = 5


def digest(shapes=SHAPES, snrs_db=SNRS_DB, trials=TRIALS, norm_caps=NORM_CAPS):
    """(number of solves, sha256 hex digest) over every solve_ml call of the grid."""
    sha, count = hashlib.sha256(), 0
    solve, cap = schemes.solve_ml, mle.NORM_CAP

    def hashed(prob, h0=None, memo=None):
        nonlocal count
        est = solve(prob, h0, memo)
        count += 1
        sha.update(np.ascontiguousarray(est.h_hat, dtype=float).tobytes())
        sha.update(np.array([est.iterations], dtype=np.int64).tobytes())
        sha.update(np.array([est.grad_norm, est.objective], dtype=float).tobytes())
        sha.update(np.asarray(est.antenna_converged, dtype=bool).tobytes())
        return est

    schemes.solve_ml = hashed
    try:
        for norm_cap in norm_caps:
            mle.NORM_CAP = norm_cap
            for M, K, L in shapes:
                for snr_db in snrs_db:
                    for scheme in SCHEMES:
                        for trial in trials:
                            experiments.run_trial(scheme, M, K, L, snr_db, trial,
                                                  MASTER_SEED, I_MAX)
    finally:
        schemes.solve_ml, mle.NORM_CAP = solve, cap
    return count, sha.hexdigest()


def main() -> None:
    count, hexdigest = digest()
    print(f"solves {count:,}")
    print(f"sha256 {hexdigest}")


if __name__ == "__main__":
    main()
