"""The ODE integrator's kept-step loop in its plainest form, for tests.

`elastica.odeint.integrate_elastica` steps planar states (2-D, or 3-D with
every z entry +0.0) in a two-coordinate block kernel and sums the
positions after each block of steps.  This is the loop it replaced: every
state goes through one 12-float kernel in R^3 (a 2-D state padded with
z = 0), one step per call, which also advances the position.  The kernel
rounds as the library does: the d3-rate is s d2 - t d1 with
s = lam/2 - 1.5 |d2|^2 and t = 3 <d2, d3>, and the weights are
x + h/6 (k1 + 2 (k2 + k3) + k4).  That it is still the classical RK4 is
checked apart from it, against a generic RK4 to 1e-12 relative
(test_matches_reference).  The tests require `data`, `err_max`,
`err_max_s` and every StepSizeError message to match it bit for bit.  The
error estimate is the library's own: its array step is checked against
this kernel separately (test_batch_step_is_the_float_step).
"""

import math
from itertools import chain

import numpy as np

from elastica.errors import DomainError, StepSizeError
from elastica.odeint import (_BLOCK, _LOCAL_ERR_MAX, ElasticaState, Trajectory, _half_step_error,
                             _step_count)


def _step3(y, h: float, lam: float) -> tuple[float, ...]:
    """One classical 4th-order step of the flat state y = (gamma, d1, d2, d3)
    in R^3, written out on named Python floats: the kept step, advanced one
    at a time.  The rates are gamma' = d1, d1' = d2, d2' = d3 and
    d3' = s d2 - t d1 with s = lam/2 - 1.5 |d2|^2, t = 3 <d2, d3>;
    a2..a4, b2..b4, c2..c4 are d1, d2, d3 at stages 2-4 and e1..e4 the
    d3-rates, weighted as x + h/6 (k1 + 2 (k2 + k3) + k4).  gamma feeds no
    rate, so its stage values are never formed.  Each <d2, d3> is summed
    from 0.0, left to right, as sum() does, so it is never -0.0 and the
    floats match a generic per-component loop, signed zeros included."""
    gx, gy, gz, ax, ay, az, bx, by, bz, cx, cy, cz = y
    hh, h6, lh = 0.5 * h, h / 6.0, 0.5 * lam
    s = lh - 1.5 * (bx * bx + by * by + bz * bz)
    t = 3.0 * (0.0 + bx * cx + by * cy + bz * cz)
    e1x, e1y, e1z = s * bx - t * ax, s * by - t * ay, s * bz - t * az
    a2x, a2y, a2z = ax + hh * bx, ay + hh * by, az + hh * bz
    b2x, b2y, b2z = bx + hh * cx, by + hh * cy, bz + hh * cz
    c2x, c2y, c2z = cx + hh * e1x, cy + hh * e1y, cz + hh * e1z
    s = lh - 1.5 * (b2x * b2x + b2y * b2y + b2z * b2z)
    t = 3.0 * (0.0 + b2x * c2x + b2y * c2y + b2z * c2z)
    e2x, e2y, e2z = s * b2x - t * a2x, s * b2y - t * a2y, s * b2z - t * a2z
    a3x, a3y, a3z = ax + hh * b2x, ay + hh * b2y, az + hh * b2z
    b3x, b3y, b3z = bx + hh * c2x, by + hh * c2y, bz + hh * c2z
    c3x, c3y, c3z = cx + hh * e2x, cy + hh * e2y, cz + hh * e2z
    s = lh - 1.5 * (b3x * b3x + b3y * b3y + b3z * b3z)
    t = 3.0 * (0.0 + b3x * c3x + b3y * c3y + b3z * c3z)
    e3x, e3y, e3z = s * b3x - t * a3x, s * b3y - t * a3y, s * b3z - t * a3z
    a4x, a4y, a4z = ax + h * b3x, ay + h * b3y, az + h * b3z
    b4x, b4y, b4z = bx + h * c3x, by + h * c3y, bz + h * c3z
    c4x, c4y, c4z = cx + h * e3x, cy + h * e3y, cz + h * e3z
    s = lh - 1.5 * (b4x * b4x + b4y * b4y + b4z * b4z)
    t = 3.0 * (0.0 + b4x * c4x + b4y * c4y + b4z * c4z)
    e4x, e4y, e4z = s * b4x - t * a4x, s * b4y - t * a4y, s * b4z - t * a4z
    return (
        gx + h6 * (ax + 2.0 * (a2x + a3x) + a4x),
        gy + h6 * (ay + 2.0 * (a2y + a3y) + a4y),
        gz + h6 * (az + 2.0 * (a2z + a3z) + a4z),
        ax + h6 * (bx + 2.0 * (b2x + b3x) + b4x),
        ay + h6 * (by + 2.0 * (b2y + b3y) + b4y),
        az + h6 * (bz + 2.0 * (b2z + b3z) + b4z),
        bx + h6 * (cx + 2.0 * (c2x + c3x) + c4x),
        by + h6 * (cy + 2.0 * (c2y + c3y) + c4y),
        bz + h6 * (cz + 2.0 * (c2z + c3z) + c4z),
        cx + h6 * (e1x + 2.0 * (e2x + e3x) + e4x),
        cy + h6 * (e1y + 2.0 * (e2y + e3y) + e4y),
        cz + h6 * (e1z + 2.0 * (e2z + e3z) + e4z),
    )


def integrate_elastica(
    s0: ElasticaState, lam: float, s_end: float, h: float
) -> Trajectory:
    """Integrate from s=0 to s_end with fixed step ~h (n = round(s_end/h),
    at most MAX_STEPS).

    The steps run in the float kernel _step3, planar states at z = 0; data
    keeps the state's dimension.  Recommended h <= 1e-3 / sqrt(1 + |lam|).
    Raises StepSizeError at the first step whose half-step error estimate
    exceeds 1e-6 or is not finite; the estimates come after each block of
    _BLOCK steps, so at most one block is wasted.  The trajectory carries the worst estimate and
    where it occurred.
    """
    if not (np.isfinite(lam) and np.isfinite(s_end) and s_end > 0.0):
        raise DomainError("need finite lam and s_end > 0")
    if not 0.0 < h <= s_end:
        raise DomainError("need 0 < h <= s_end")
    n = _step_count(s_end, h)
    h = float(s_end) / n  # NumPy scalars would slow the float loop
    lam = float(lam)
    dim = s0.dim
    data = np.empty((n + 1, 4, dim))
    data[0] = s0.as_array()
    y3 = np.zeros((4, 3))
    y3[:, :dim] = data[0]
    y = y3.ravel().tolist()
    err_max, err_max_s = 0.0, 0.0
    for c0 in range(0, n, _BLOCK):
        c1 = min(n, c0 + _BLOCK)
        rows = []
        for _ in range(c0, c1):
            y = _step3(y, h, lam)
            rows.append(y)
        block = np.fromiter(chain.from_iterable(rows), float, 12 * (c1 - c0))
        data[c0 + 1 : c1 + 1] = block.reshape(-1, 4, 3)[:, :, :dim]
        coords = np.ascontiguousarray(np.moveaxis(data[c0 : c1 + 1], 0, -1))
        err = _half_step_error(coords[..., :-1], coords[..., 1:], h, lam)
        bad = np.flatnonzero(~(err <= _LOCAL_ERR_MAX))
        if bad.size:
            i, e = c0 + int(bad[0]), float(err[bad[0]])
            what = f"{e:.3e} > {_LOCAL_ERR_MAX:g}" if math.isfinite(e) else f"is non-finite ({e})"
            raise StepSizeError(f"local error estimate {what} at s = {i * h:.6g}; reduce h")
        j = int(np.argmax(err))
        if err[j] > err_max:
            err_max, err_max_s = float(err[j]), (c0 + j) * h
    return Trajectory(h=h, lam=lam, data=data, err_max=err_max, err_max_s=err_max_s)
