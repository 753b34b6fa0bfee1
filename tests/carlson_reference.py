"""Carlson's R_F and R_D as the library first wrote them, for tests.

`elastica.elliptic._rf_rd` runs both duplications on one set of iterates
and sums each series at the step where its own test first passes.  These
are the two separate loops it replaced; the tests require bit-identical
values.  Duplication continues until the worst element of an array meets
the threshold.
"""

import numpy as np


def _max_dev(*devs) -> float:
    return max(float(np.max(np.abs(d), initial=0.0)) for d in devs)


def reference_rf(x, y, z):
    """Carlson R_F(x, y, z); args >= 0, at most one of them zero."""
    xt, yt, zt = x, y, z
    while True:
        sx, sy, sz = np.sqrt(xt), np.sqrt(yt), np.sqrt(zt)
        lam = sx * (sy + sz) + sy * sz
        xt, yt, zt = 0.25 * (xt + lam), 0.25 * (yt + lam), 0.25 * (zt + lam)
        ave = (xt + yt + zt) / 3.0
        dx = (ave - xt) / ave
        dy = (ave - yt) / ave
        dz = (ave - zt) / ave
        if _max_dev(dx, dy, dz) <= 0.0025:
            break
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / np.sqrt(ave)


def reference_rd(x, y, z):
    """Carlson R_D(x, y, z); x, y >= 0 (at most one zero), z > 0."""
    xt, yt, zt = x, y, z
    total = 0.0
    fac = 1.0
    while True:
        sx, sy, sz = np.sqrt(xt), np.sqrt(yt), np.sqrt(zt)
        lam = sx * (sy + sz) + sy * sz
        total += fac / (sz * (zt + lam))
        fac *= 0.25
        xt, yt, zt = 0.25 * (xt + lam), 0.25 * (yt + lam), 0.25 * (zt + lam)
        ave = 0.2 * (xt + yt + 3.0 * zt)
        dx = (ave - xt) / ave
        dy = (ave - yt) / ave
        dz = (ave - zt) / ave
        if _max_dev(dx, dy, dz) <= 0.0015:
            break
    ea = dx * dy
    eb = dz * dz
    ec = ea - eb
    ed = ea - 6.0 * eb
    ee = ed + ec + ec
    c1, c2, c3, c4 = 3.0 / 14.0, 1.0 / 6.0, 9.0 / 22.0, 3.0 / 26.0
    s = 1.0 + ed * (-c1 + 0.25 * c3 * ed - 1.5 * c4 * dz * ee) \
        + dz * (c2 * ee + dz * (-c3 * ec + dz * c4 * ea))
    return 3.0 * total + fac * s / (ave * np.sqrt(ave))
