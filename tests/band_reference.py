"""The minimizer's banded solve as the library first wrote it, for tests.

`elastica.minimize._band_kkt` keeps this routine's LDL^T elimination and
solves the Newton step's KKT system from it with forward sweeps, a Schur
complement and a single backward sweep, instead of solving every
right-hand side in full as here.  In the plane the band is tridiagonal,
and `_tri_kkt` takes the operations of `_band_kkt` in one pass over the
rows, float for float.
The tests use this routine, with the Schur complement formed in NumPy, as
the oracle for both solves, in the plane and in space: the same solution
to rounding, the same solver steps.
"""

import math

import numpy as np


def _band_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve S Z = rhs for symmetric banded S, rhs (n, k).

    band[q, i] = S[i, i + q] for q = 0..p.  LDL^T without pivoting on
    Python floats, which beats per-row NumPy calls at chain sizes; with
    p = 1 this is the Thomas algorithm.  The elimination is recorded as a
    flat list of row operations, replayed forward for L and backward for
    L^T.  A zero pivot gives NaN, which callers reject.
    """
    p1, n = band.shape
    p = p1 - 1
    # p unit rows of padding spare the loops their bounds checks
    U = [row + [float(q == 0)] * p for q, row in enumerate(band.tolist())]
    steps = [(q, range(p1 - q)) for q in range(1, p1)]
    ops = []  # (j, i, l): row j -= l * row i, in elimination order
    try:
        for i in range(n):
            d = U[0][i]
            for q, ms in steps:
                lq = U[q][i] / d
                ops.append((i + q, i, lq))
                for m in ms:
                    U[m][i + q] -= lq * U[q + m][i]
        inv = [1.0 / d for d in U[0]]
    except ZeroDivisionError:
        return np.full(rhs.shape, math.nan)
    cols = []
    for y in rhs.T.tolist():
        y += [0.0] * p
        for j, i, lq in ops:
            y[j] -= lq * y[i]
        y = [a * b for a, b in zip(y, inv)]
        for j, i, lq in reversed(ops):
            y[i] -= lq * y[j]
        cols.append(y[:n])
    return np.array(cols).T
