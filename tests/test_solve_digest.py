import importlib.util
from pathlib import Path

from onebit_mimo import mle, schemes

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("solve_digest", ROOT / "scripts" / "solve_digest.py")
solve_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(solve_digest)


def test_digest_of_a_one_shape_grid_is_repeatable():
    # FQ, RQ and OQ solve once per trial and AQ once per round, at each cap
    grid = dict(shapes=((4, 2, 8),), snrs_db=(15.0,), trials=(0,))
    solve, cap = schemes.solve_ml, mle.NORM_CAP
    first = solve_digest.digest(**grid)
    assert first == solve_digest.digest(**grid)
    assert first[0] == len(solve_digest.NORM_CAPS) * (3 + solve_digest.I_MAX)
    assert len(first[1]) == 64
    # the hook and the cap are put back, and another grid hashes otherwise
    assert schemes.solve_ml is solve and mle.NORM_CAP == cap
    assert solve_digest.digest(**dict(grid, trials=(1,)))[1] != first[1]
