"""Initial-value integration of the elastica ODE in position form.

The fourth-order equation

    2 g'''' + 6 <g'', g'''> g' + 3 |g''|^2 g'' - lam g'' = 0

is integrated as the first-order system in (gamma, d1, d2, d3) with
classical fixed-step 4th-order stepping: the d3-rate is s d2 - t d1 with
s = lam/2 - 1.5 |d2|^2 and t = 3 <d2, d3>, and a step is
x + h/6 (k1 + 2 (k2 + k3) + k4).  The full step is the one kept, so
halving h cuts the closed-form deviation by about 16x.  gamma feeds no
rate, so the kept steps advance (d1, d2, d3) alone, one call per block of
_BLOCK steps, in a straight-line kernel on named Python floats: _run3 in
R^3, and _run2 on the x/y floats of a planar state (2-D, or 3-D with
every z entry +0.0, whose z entries the R^3 kernel would keep at +0.0 bit
for bit).  After each block the position increments are computed from
the kept frames in NumPy, in the kernel's operation order, and added in
sequence by a cumulative sum, so gamma is the float loop's, bit for bit.
Each step's embedded error estimate |y_h - y_{h/2}| / 15 depends only on
the kept state the step starts at, so its two half steps run afterwards
in NumPy, on the coordinate rows that carry data.  The float and array
steps take one formula and sum each dot product in one order, so one step
of either gives the same floats, and they check each other: if they
disagreed, the estimate would fail.  No quantity is projected or
re-normalized during integration: the unit-speed and determinant
conservation checks stay honest monitors of the integrator, not
constraints imposed on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    DomainError, StepSizeError, _require_positive, _require_real, _require_vectors, _step_count,
)

__all__ = [
    "ElasticaState",
    "Trajectory",
    "integrate_elastica",
    "monitor_det",
    "dimension_of_span",
    "planarity_drift",
    "energy_law_residual",
]

_LOCAL_ERR_MAX = 1e-6
_BLOCK = 1024  # full steps per batched error estimate: caps temporaries and waste
_RANK_TOL = 1e-8  # singular values at most this share of the largest count as zero
_FIELDS = ("gamma", "d1", "d2", "d3")


@dataclass(frozen=True)
class ElasticaState:
    """Position and first three arclength derivatives (2D or 3D).

    Unit-speed compatibility is required at initialization: |d1| = 1 and
    <d1, d2> = 0, both to 1e-9.
    """

    gamma: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray

    def __post_init__(self):
        _require_vectors(self, *_FIELDS)
        if abs(np.linalg.norm(self.d1) - 1.0) > 1e-9:
            raise DomainError("initial speed |d1| must be 1 (to 1e-9)")
        if abs(np.dot(self.d1, self.d2)) > 1e-9:
            raise DomainError("initial <d1, d2> must vanish (to 1e-9)")

    @classmethod
    def _along(cls, g, d1, d2, d3) -> ElasticaState:
        """A state reached by integration: shapes and finiteness are checked,
        but not the unit-speed conditions, which RK4 drift leaves true only
        to the integrator's accuracy."""
        st = cls.__new__(cls)
        for name, a in zip(_FIELDS, (g, d1, d2, d3)):
            object.__setattr__(st, name, a)
        _require_vectors(st, *_FIELDS)
        return st

    @property
    def dim(self) -> int:
        return len(self.gamma)

    def as_array(self) -> np.ndarray:
        return np.stack([self.gamma, self.d1, self.d2, self.d3])


@dataclass(frozen=True)
class Trajectory:
    """States h apart in arclength, starting at the initial condition.

    data[i] stacks (gamma, d1, d2, d3) of state i; `state(i)` materializes
    it as an ElasticaState on demand, checked for shape and finiteness
    only: along the trajectory |d1| = 1 and <d1, d2> = 0 hold to the
    integrator's accuracy, not to the 1e-9 asked of an initial condition.
    err_max is the worst half-step error estimate of any step and err_max_s
    the arclength where that step starts (both NaN when not computed).
    """

    h: float
    lam: float
    data: np.ndarray  # (n_states, 4, dim)
    err_max: float = field(default=math.nan, kw_only=True)
    err_max_s: float = field(default=math.nan, kw_only=True)

    @property
    def n_states(self) -> int:
        return len(self.data)

    @property
    def s(self) -> np.ndarray:
        return self.h * np.arange(self.n_states)

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    def state(self, i: int) -> ElasticaState:
        return ElasticaState._along(*self.data[i])


def _run3(y, n: int, h: float, lam: float) -> list[tuple[float, ...]]:
    """n classical 4th-order steps of the flat frame y = (d1, d2, d3) in
    R^3, written out on named Python floats: the kept steps, one row of 9
    floats per step.  The rates are d1' = d2, d2' = d3 and
    d3' = s d2 - t d1 with s = lam/2 - 1.5 |d2|^2, t = 3 <d2, d3>;
    a2..a4, b2..b4, c2..c4 are d1, d2, d3 at stages 2-4 and e1..e4 the
    d3-rates, weighted as x + h/6 (k1 + 2 (k2 + k3) + k4).  gamma feeds no
    rate; its increments are _gamma_increments.  Each <d2, d3> is summed
    from 0.0, left to right, as sum() does, so it is never -0.0 and the
    floats match the array step, signed zeros included."""
    ax, ay, az, bx, by, bz, cx, cy, cz = y
    hh, h6, lh = 0.5 * h, h / 6.0, 0.5 * lam
    rows = []
    append = rows.append
    for _ in range(n):
        s = lh - 1.5 * (bx * bx + by * by + bz * bz)
        t = 3.0 * (0.0 + bx * cx + by * cy + bz * cz)
        e1x, e1y, e1z = s * bx - t * ax, s * by - t * ay, s * bz - t * az
        b2x, b2y, b2z = bx + hh * cx, by + hh * cy, bz + hh * cz
        c2x, c2y, c2z = cx + hh * e1x, cy + hh * e1y, cz + hh * e1z
        s = lh - 1.5 * (b2x * b2x + b2y * b2y + b2z * b2z)
        t = 3.0 * (0.0 + b2x * c2x + b2y * c2y + b2z * c2z)
        e2x = s * b2x - t * (ax + hh * bx)
        e2y = s * b2y - t * (ay + hh * by)
        e2z = s * b2z - t * (az + hh * bz)
        b3x, b3y, b3z = bx + hh * c2x, by + hh * c2y, bz + hh * c2z
        c3x, c3y, c3z = cx + hh * e2x, cy + hh * e2y, cz + hh * e2z
        s = lh - 1.5 * (b3x * b3x + b3y * b3y + b3z * b3z)
        t = 3.0 * (0.0 + b3x * c3x + b3y * c3y + b3z * c3z)
        e3x = s * b3x - t * (ax + hh * b2x)
        e3y = s * b3y - t * (ay + hh * b2y)
        e3z = s * b3z - t * (az + hh * b2z)
        b4x, b4y, b4z = bx + h * c3x, by + h * c3y, bz + h * c3z
        c4x, c4y, c4z = cx + h * e3x, cy + h * e3y, cz + h * e3z
        s = lh - 1.5 * (b4x * b4x + b4y * b4y + b4z * b4z)
        t = 3.0 * (0.0 + b4x * c4x + b4y * c4y + b4z * c4z)
        append(row := (
            ax + h6 * (bx + 2.0 * (b2x + b3x) + b4x),
            ay + h6 * (by + 2.0 * (b2y + b3y) + b4y),
            az + h6 * (bz + 2.0 * (b2z + b3z) + b4z),
            bx + h6 * (cx + 2.0 * (c2x + c3x) + c4x),
            by + h6 * (cy + 2.0 * (c2y + c3y) + c4y),
            bz + h6 * (cz + 2.0 * (c2z + c3z) + c4z),
            cx + h6 * (e1x + 2.0 * (e2x + e3x) + (s * b4x - t * (ax + h * b3x))),
            cy + h6 * (e1y + 2.0 * (e2y + e3y) + (s * b4y - t * (ay + h * b3y))),
            cz + h6 * (e1z + 2.0 * (e2z + e3z) + (s * b4z - t * (az + h * b3z))),
        ))
        ax, ay, az, bx, by, bz, cx, cy, cz = row
    return rows


def _run2(y, n: int, h: float, lam: float) -> list[tuple[float, ...]]:
    """_run3 on the x/y floats of (d1, d2, d3), for states whose z entries
    are all +0.0.  There every z-rate is +-0.0 and +0.0 + +-0.0 = +0.0, so
    the z entries stay +0.0 and add +0.0 to each dot product, which leaves
    it unchanged: these are _run3's x/y floats, bit for bit.  (Once s or t
    overflows, _run3's z entries turn NaN, but its x/y floats are then
    non-finite too, and the run stops at that step either way.)"""
    ax, ay, bx, by, cx, cy = y
    hh, h6, lh = 0.5 * h, h / 6.0, 0.5 * lam
    rows = []
    append = rows.append
    for _ in range(n):
        s, t = lh - 1.5 * (bx * bx + by * by), 3.0 * (0.0 + bx * cx + by * cy)
        e1x, e1y = s * bx - t * ax, s * by - t * ay
        b2x, b2y = bx + hh * cx, by + hh * cy
        c2x, c2y = cx + hh * e1x, cy + hh * e1y
        s, t = lh - 1.5 * (b2x * b2x + b2y * b2y), 3.0 * (0.0 + b2x * c2x + b2y * c2y)
        e2x, e2y = s * b2x - t * (ax + hh * bx), s * b2y - t * (ay + hh * by)
        b3x, b3y = bx + hh * c2x, by + hh * c2y
        c3x, c3y = cx + hh * e2x, cy + hh * e2y
        s, t = lh - 1.5 * (b3x * b3x + b3y * b3y), 3.0 * (0.0 + b3x * c3x + b3y * c3y)
        e3x, e3y = s * b3x - t * (ax + hh * b2x), s * b3y - t * (ay + hh * b2y)
        b4x, b4y = bx + h * c3x, by + h * c3y
        c4x, c4y = cx + h * e3x, cy + h * e3y
        s, t = lh - 1.5 * (b4x * b4x + b4y * b4y), 3.0 * (0.0 + b4x * c4x + b4y * c4y)
        append(row := (
            ax + h6 * (bx + 2.0 * (b2x + b3x) + b4x),
            ay + h6 * (by + 2.0 * (b2y + b3y) + b4y),
            bx + h6 * (cx + 2.0 * (c2x + c3x) + c4x),
            by + h6 * (cy + 2.0 * (c2y + c3y) + c4y),
            cx + h6 * (e1x + 2.0 * (e2x + e3x) + (s * b4x - t * (ax + h * b3x))),
            cy + h6 * (e1y + 2.0 * (e2y + e3y) + (s * b4y - t * (ay + h * b3y))),
        ))
        ax, ay, bx, by, cx, cy = row
    return rows


def _d3_rate(a, b, c, lh: float):
    """s d2 - t d1 for coordinate rows (d1, d2, d3) = (a, b, c), with
    s = lam/2 - 1.5 |d2|^2 and t = 3 <d2, d3> summed from 0 by sum(), in
    _run3's order; lh is lam/2."""
    return (lh - 1.5 * sum(b * b)) * b - 3.0 * sum(b * c) * a


def _gamma_increments(d: np.ndarray, h: float, lam: float) -> np.ndarray:
    """h/6 (a + 2 (a2 + a3) + a4) per step: the position increment of the
    kept step from each (d1, d2, d3) = (a, b, c), stacked as coordinate
    rows (3, k, block), in _run3's operation order: the gamma row of
    _rk4_batch's step, from the one d3-rate it needs."""
    a, b, c = d
    hh = 0.5 * h
    c2 = c + hh * _d3_rate(a, b, c, 0.5 * lam)
    return (h / 6.0) * (a + 2.0 * ((a + hh * b) + (a + hh * (b + hh * c)))
                        + (a + h * (b + hh * c2)))


def _rk4_batch(y: np.ndarray, h: float, lam: float) -> np.ndarray:
    """One step of every state stacked as coordinate rows, y[f, i] the i-th
    coordinate of field f (gamma, d1, d2, d3): shape (4, dim, block).  The
    stages are _run3's, in its operation order, so one step of either
    gives the same floats."""
    g, a, b, c = y
    hh, h6, lh = 0.5 * h, h / 6.0, 0.5 * lam
    e1 = _d3_rate(a, b, c, lh)
    a2, b2, c2 = a + hh * b, b + hh * c, c + hh * e1
    e2 = _d3_rate(a2, b2, c2, lh)
    a3, b3, c3 = a + hh * b2, b + hh * c2, c + hh * e2
    e3 = _d3_rate(a3, b3, c3, lh)
    a4, b4, c4 = a + h * b3, b + h * c3, c + h * e3
    e4 = _d3_rate(a4, b4, c4, lh)
    return np.stack((g + h6 * (a + 2.0 * (a2 + a3) + a4), a + h6 * (b + 2.0 * (b2 + b3) + b4),
                     b + h6 * (c + 2.0 * (c2 + c3) + c4), c + h6 * (e1 + 2.0 * (e2 + e3) + e4)))


def _half_step_error(y0: np.ndarray, y1: np.ndarray, h: float, lam: float) -> np.ndarray:
    """|y1 - y_{h/2}| / 15 per step, where y1 is the kept full step from y0
    and y_{h/2} takes two half steps from y0, both as coordinate rows
    (4, dim, block); NaN or inf where the trajectory has left the floats."""
    with np.errstate(all="ignore"):
        y_half = _rk4_batch(_rk4_batch(y0, 0.5 * h, lam), 0.5 * h, lam)
        return np.max(np.abs(y1 - y_half), axis=(0, 1)) / 15.0


def integrate_elastica(
    s0: ElasticaState, lam: float, s_end: float, h: float
) -> Trajectory:
    """Integrate from s=0 to s_end with fixed step ~h (n = round(s_end/h),
    at most errors.MAX_COUNT).

    The frames advance in the float kernel _run2 when the state is planar
    (2-D, or 3-D with every z entry +0.0) and _run3 otherwise, one call
    per block of _BLOCK steps; data keeps the state's dimension.
    Recommended h <= 1e-3 / sqrt(1 + |lam|).  Raises StepSizeError at the
    first step whose half-step error estimate exceeds 1e-6 or is not
    finite; the positions and the estimates come after each block, so at
    most one block is wasted.  The trajectory carries the worst estimate
    and where it occurred.
    """
    _require_real(lam, "lam")
    _require_positive(s_end, "s_end")
    if not 0.0 < h <= s_end:
        raise DomainError("need 0 < h <= s_end")
    n = _step_count(s_end, h)
    h = float(s_end) / n  # NumPy scalars would slow the float loop
    lam = float(lam)
    data = np.empty((n + 1, 4, s0.dim))
    data[0] = s0.as_array()
    z = data[0, :, 2:]
    k = 2 if not (z.any() or np.signbit(z).any()) else 3
    run = _run2 if k == 2 else _run3
    data[1:, :, k:] = 0.0  # the z columns of a planar 3-D state stay +0.0
    y = data[0, 1:, :k].ravel().tolist()
    err_max, err_max_s = 0.0, 0.0
    for c0 in range(0, n, _BLOCK):
        c1 = min(n, c0 + _BLOCK)
        rows = run(y, c1 - c0, h, lam)
        y = rows[-1]
        block = np.fromiter(chain.from_iterable(rows), float, 3 * k * (c1 - c0))
        data[c0 + 1 : c1 + 1, 1:, :k] = block.reshape(-1, 3, k)
        coords = np.ascontiguousarray(np.moveaxis(data[c0 : c1 + 1, :, :k], 0, -1))
        with np.errstate(all="ignore"):
            # gamma_{i+1} = gamma_i + increment_i, added in sequence as the
            # float loop would: accumulate adds strictly left to right
            inc = _gamma_increments(coords[1:, :, :-1], h, lam)
            inc[:, 0] += coords[0, :, 0]
            np.cumsum(inc, axis=1, out=coords[0, :, 1:])
        data[c0 + 1 : c1 + 1, 0, :k] = coords[0, :, 1:].T
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


def monitor_det(t: Trajectory) -> np.ndarray:
    """det(d1, d2, d3) per state; constant (= c) along exact elasticae."""
    if t.dim != 3:
        raise DomainError("determinant monitor needs a 3D trajectory")
    return np.linalg.det(np.swapaxes(t.data[:, 1:4, :], 1, 2))


def _rank(sv: np.ndarray) -> int:
    """Numerical rank from descending singular values: those at most
    _RANK_TOL * sigma_max count as zero."""
    return int(np.sum(sv > _RANK_TOL * sv[0]))


def dimension_of_span(s: ElasticaState) -> int:
    """Numerical rank of span{d1, d2, d3}: singular values at most
    1e-8 * sigma_max count as zero (_rank)."""
    return _rank(np.linalg.svd(np.column_stack([s.d1, s.d2, s.d3]), compute_uv=False))


def planarity_drift(t: Trajectory) -> float:
    """Max distance of the positions from the initial osculating plane.

    The initial span must be at most 2-dimensional (rank 3 is rejected);
    rank-1 data uses any plane containing the line.
    """
    st = t.state(0)
    M = np.column_stack([st.d1, st.d2, st.d3])
    U, sv, _ = np.linalg.svd(M)
    if _rank(sv) == 3:
        raise DomainError("initial data spans all of R^3: no plane to track")
    if t.dim == 2:
        return 0.0
    normal = U[:, 2]
    return float(np.max(np.abs((t.data[:, 0, :] - st.gamma) @ normal)))


def energy_law_residual(t: Trajectory, a: float, c_sq: float) -> np.ndarray:
    """Residual of (u')^2 + u^3 - 2 lam u^2 - 4 a u + 4 c^2 with u = |d2|^2
    and u' = 2 <d2, d3>; identically zero along exact solutions.  a and
    c_sq must be finite."""
    _require_real(a, "a")
    _require_real(c_sq, "c_sq")
    d2 = t.data[:, 2, :]
    d3 = t.data[:, 3, :]
    u = np.einsum("ij,ij->i", d2, d2)
    up = 2.0 * np.einsum("ij,ij->i", d2, d3)
    return up**2 + u**3 - 2.0 * t.lam * u**2 - 4.0 * a * u + 4.0 * c_sq
