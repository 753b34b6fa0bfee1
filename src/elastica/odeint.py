"""Initial-value integration of the elastica ODE in position form.

The fourth-order equation

    2 g'''' + 6 <g'', g'''> g' + 3 |g''|^2 g'' - lam g'' = 0

is integrated as the first-order system in (gamma, d1, d2, d3) with
classical fixed-step 4th-order stepping.  The full step is the one kept,
so halving h cuts the closed-form deviation by about 16x; it is advanced
one step at a time on Python floats.  Each step's embedded error estimate
|y_h - y_{h/2}| / 15 depends only on the kept state the step starts at,
so its two half steps run afterwards in NumPy, for up to _BLOCK steps at
once.  The two right-hand sides (float and array) check each other: if
they disagreed, the estimate would fail.  No quantity is projected or
re-normalized during integration: the unit-speed and determinant
conservation checks stay honest monitors of the integrator, not
constraints imposed on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import DomainError, StepSizeError

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
        arrs = []
        for name in ("gamma", "d1", "d2", "d3"):
            a = np.array(getattr(self, name), dtype=float)
            if a.shape not in ((2,), (3,)) or not np.all(np.isfinite(a)):
                raise DomainError(f"{name} must be a finite 2- or 3-vector")
            arrs.append(a)
        if len({a.shape for a in arrs}) != 1:
            raise DomainError("state vectors must share one dimension")
        if abs(np.linalg.norm(arrs[1]) - 1.0) > 1e-9:
            raise DomainError("initial speed |d1| must be 1 (to 1e-9)")
        if abs(np.dot(arrs[1], arrs[2])) > 1e-9:
            raise DomainError("initial <d1, d2> must vanish (to 1e-9)")
        for name, a in zip(("gamma", "d1", "d2", "d3"), arrs):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return len(self.gamma)

    def as_array(self) -> np.ndarray:
        return np.stack([self.gamma, self.d1, self.d2, self.d3])


@dataclass(frozen=True)
class Trajectory:
    """States h apart in arclength, starting at the initial condition.

    data[i] stacks (gamma, d1, d2, d3) of state i; `states` materializes
    ElasticaState objects on demand.  err_max is the worst half-step error
    estimate of any step and err_max_s the arclength where that step
    starts (both NaN when not computed).
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
        g, d1, d2, d3 = self.data[i]
        return ElasticaState(g, d1, d2, d3)

    @property
    def states(self) -> list[ElasticaState]:
        return [self.state(i) for i in range(self.n_states)]


def _full_step(y: list[float], h: float, lam: float, dim: int) -> list[float]:
    """One classical 4th-order step of the flat state y = (gamma, d1, d2, d3)
    in Python floats: the kept step, advanced one at a time."""
    i2, i3 = 2 * dim, 3 * dim

    def rates(v: list[float]) -> list[float]:
        d1, d2, d3 = v[dim:i2], v[i2:i3], v[i3:]
        p = 6.0 * sum(map(mul, d2, d3))
        q = 3.0 * sum(map(mul, d2, d2))
        return v[dim:] + [0.5 * (lam * b - p * a - q * b) for a, b in zip(d1, d2)]

    hh = 0.5 * h
    k1 = rates(y)
    k2 = rates([a + hh * b for a, b in zip(y, k1)])
    k3 = rates([a + hh * b for a, b in zip(y, k2)])
    k4 = rates([a + h * b for a, b in zip(y, k3)])
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def _rates_batch(y: np.ndarray, lam: float) -> np.ndarray:
    """The system's right-hand side for a stack of states y (block, 4, dim)."""
    d1, d2, d3 = y[:, 1], y[:, 2], y[:, 3]
    out = np.empty_like(y)
    out[:, :3] = y[:, 1:]
    p = np.einsum("ij,ij->i", d2, d3)[:, None]
    q = np.einsum("ij,ij->i", d2, d2)[:, None]
    out[:, 3] = 0.5 * (lam * d2 - 6.0 * p * d1 - 3.0 * q * d2)
    return out


def _rk4_batch(y: np.ndarray, h: float, lam: float) -> np.ndarray:
    k1 = _rates_batch(y, lam)
    k2 = _rates_batch(y + (0.5 * h) * k1, lam)
    k3 = _rates_batch(y + (0.5 * h) * k2, lam)
    k4 = _rates_batch(y + h * k3, lam)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _half_step_error(y0: np.ndarray, y1: np.ndarray, h: float, lam: float) -> np.ndarray:
    """|y1 - y_{h/2}| / 15 per step, where y1 is the kept full step from y0
    and y_{h/2} takes two half steps from y0; NaN or inf where the
    trajectory has left the floats."""
    with np.errstate(all="ignore"):
        y_half = _rk4_batch(_rk4_batch(y0, 0.5 * h, lam), 0.5 * h, lam)
        return np.max(np.abs(y1 - y_half), axis=(1, 2)) / 15.0


def integrate_elastica(
    s0: ElasticaState, lam: float, s_end: float, h: float
) -> Trajectory:
    """Integrate from s=0 to s_end with fixed step ~h (n = round(s_end/h)).

    Recommended h <= 1e-3 / sqrt(1 + |lam|).  Raises StepSizeError at the
    first step whose half-step error estimate exceeds 1e-6 or is not
    finite; the estimates come after each block of _BLOCK steps, so at most
    one block is wasted.  The trajectory carries the worst estimate and
    where it occurred.
    """
    if not (np.isfinite(lam) and np.isfinite(s_end) and s_end > 0.0):
        raise DomainError("need finite lam and s_end > 0")
    if not 0.0 < h <= s_end:
        raise DomainError("need 0 < h <= s_end")
    n = max(1, int(round(s_end / h)))
    h = s_end / n
    lam = float(lam)  # NumPy scalars would slow the float loop
    dim = s0.dim
    data = np.empty((n + 1, 4, dim))
    data[0] = s0.as_array()
    flat = data.reshape(n + 1, 4 * dim)
    y = flat[0].tolist()
    err_max, err_max_s = 0.0, 0.0
    for c0 in range(0, n, _BLOCK):
        c1 = min(n, c0 + _BLOCK)
        rows = []
        for _ in range(c0, c1):
            y = _full_step(y, h, lam, dim)
            rows.append(y)
        flat[c0 + 1 : c1 + 1] = rows
        err = _half_step_error(data[c0:c1], data[c0 + 1 : c1 + 1], h, lam)
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


def dimension_of_span(s: ElasticaState, tol: float = 1e-8) -> int:
    """Numerical rank of span{d1, d2, d3}: singular values below
    tol * sigma_max are treated as zero."""
    sv = np.linalg.svd(np.column_stack([s.d1, s.d2, s.d3]), compute_uv=False)
    return int(np.sum(sv > tol * sv[0]))


def planarity_drift(t: Trajectory, tol: float = 1e-8) -> float:
    """Max distance of the positions from the initial osculating plane.

    The initial span must be at most 2-dimensional (rank 3 is rejected);
    rank-1 data uses any plane containing the line.
    """
    st = t.state(0)
    M = np.column_stack([st.d1, st.d2, st.d3])
    U, sv, _ = np.linalg.svd(M)
    if int(np.sum(sv > tol * sv[0])) == 3:
        raise DomainError("initial data spans all of R^3: no plane to track")
    if t.dim == 2:
        return 0.0
    normal = U[:, 2]
    return float(np.max(np.abs((t.data[:, 0, :] - st.gamma) @ normal)))


def energy_law_residual(t: Trajectory, a: float, c_sq: float) -> np.ndarray:
    """Residual of (u')^2 + u^3 - 2 lam u^2 - 4 a u + 4 c^2 with u = |d2|^2
    and u' = 2 <d2, d3>; identically zero along exact solutions."""
    d2 = t.data[:, 2, :]
    d3 = t.data[:, 3, :]
    u = np.einsum("ij,ij->i", d2, d2)
    up = 2.0 * np.einsum("ij,ij->i", d2, d3)
    return up**2 + u**3 - 2.0 * t.lam * u**2 - 4.0 * a * u + 4.0 * c_sq
