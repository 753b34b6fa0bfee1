"""Fixed-length bending-energy minimization with pinned/clamped endpoints.

The length constraint is discretized as N equal edge lengths (inextensible
chain), keeping the polyline arclength-parametrized throughout descent.
Each iteration projects the exact energy gradient onto the constraint
tangent space, applies an H^2-type preconditioner (banded Cholesky solve
of a regularized squared-Laplacian, the discrete analogue of a Sobolev
gradient — plain projected gradient descent on this energy has stiffness
~N^3/L^3 and would need millions of iterations), backtracks with an Armijo
line search evaluated *after* re-projection onto the constraints, and
re-establishes the edge-length constraints by Gauss-Newton (with
renormalization sweeps as a far-from-feasible fallback).  Accepted steps
decrease the energy, with one exception at its floating-point floor: once
a step changes B by no more than the rounding bound n eps |B| of the
n-term energy sum, the sign of that change is noise, and a Newton step
(angle-space Newton in the plane, the constrained quasi-Newton step in
3-D) within the bound is accepted only when it lowers the projected
gradient by a fixed factor (the stationarity residual is the merit
function there).  Such a step may raise B by at most that bound.

The multiplier lambda of the elastica equation 2 k_ss + k^3 - lam k = 0 is
recovered from converged planar curves by a least-squares fit over
interior vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import (
    cho_factor,
    cho_solve,
    cho_solve_banded,
    cholesky_banded,
    solve_banded,
)

from .discrete import DiscreteCurve, bending_energy, curvature_data, length, resample_arclength
from .errors import DomainError

__all__ = [
    "PinnedProblem",
    "ClampedProblem",
    "MinimizeOptions",
    "MinimizeResult",
    "energy_gradient",
    "minimize_pinned",
    "minimize_clamped",
    "estimate_multiplier",
    "verify_leaf_minimality",
    "LeafMinimalityReport",
]

_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_PROJ_TOL = 1e-13  # relative edge-length residual target
_MAX_SWEEPS = 200
_FLOOR_GRAD_FACTOR = 0.5  # projected-gradient cut a floor step must achieve


def _rounding_bound(B: float, n_terms: int) -> float:
    """Rounding bound of an n_terms-term energy sum of value B: n eps |B|.

    Two energies closer than this cannot be ordered reliably; a descent
    step whose true decrease is smaller is invisible in B.
    """
    return n_terms * np.finfo(float).eps * abs(B)


def _check_endpoints(P0, P1, L0, N):
    P0 = np.array(P0, dtype=float)
    P1 = np.array(P1, dtype=float)
    if P0.shape not in ((2,), (3,)) or P1.shape != P0.shape:
        raise DomainError("P0, P1 must be 2- or 3-vectors of equal dimension")
    if not (np.all(np.isfinite(P0)) and np.all(np.isfinite(P1))):
        raise DomainError("endpoints must be finite")
    if not (np.isfinite(L0) and L0 > 0):
        raise DomainError("need L0 > 0")
    if N < 8:
        raise DomainError("need N >= 8")
    P0.setflags(write=False)
    P1.setflags(write=False)
    return P0, P1


@dataclass(frozen=True)
class PinnedProblem:
    P0: np.ndarray
    P1: np.ndarray
    L0: float
    N: int

    def __post_init__(self):
        P0, P1 = _check_endpoints(self.P0, self.P1, self.L0, self.N)
        if np.linalg.norm(P1 - P0) >= self.L0:
            raise DomainError("need |P0 - P1| < L0")
        object.__setattr__(self, "P0", P0)
        object.__setattr__(self, "P1", P1)

    @property
    def dim(self) -> int:
        return len(self.P0)


@dataclass(frozen=True)
class ClampedProblem:
    P0: np.ndarray
    P1: np.ndarray
    L0: float
    N: int
    V0: np.ndarray
    V1: np.ndarray

    def __post_init__(self):
        P0, P1 = _check_endpoints(self.P0, self.P1, self.L0, self.N)
        object.__setattr__(self, "P0", P0)
        object.__setattr__(self, "P1", P1)
        V0 = np.array(self.V0, dtype=float)
        V1 = np.array(self.V1, dtype=float)
        if V0.shape != P0.shape or V1.shape != P0.shape:
            raise DomainError("V0, V1 must match the endpoint dimension")
        for V in (V0, V1):
            if abs(np.linalg.norm(V) - 1.0) > 1e-9:
                raise DomainError("clamped tangents must be unit vectors")
        d = float(np.linalg.norm(P1 - P0))
        if d > self.L0 * (1.0 + 1e-12):
            raise DomainError("need |P0 - P1| <= L0")
        if self.is_taut:
            # only the straight segment fits: both tangents must lie along it
            chord = (P1 - P0) / d
            if np.linalg.norm(V0 - chord) > 1e-9 or np.linalg.norm(V1 - chord) > 1e-9:
                raise DomainError("taut clamped data requires tangents along the chord")
        else:
            # the inner chain from P0 + h V0 to P1 - h V1 must be reachable
            h = self.L0 / self.N
            inner = np.linalg.norm((P1 - h * V1) - (P0 + h * V0))
            if inner >= (self.N - 2) * h:
                raise DomainError("clamped data leaves no slack for the inner chain")
        V0.setflags(write=False)
        V1.setflags(write=False)
        object.__setattr__(self, "V0", V0)
        object.__setattr__(self, "V1", V1)

    @property
    def is_taut(self) -> bool:
        return np.linalg.norm(self.P1 - self.P0) >= self.L0 * (1.0 - 1e-12)

    @property
    def dim(self) -> int:
        return len(self.P0)


@dataclass(frozen=True)
class MinimizeOptions:
    tol: float | None = None  # default 1e-8 * N
    max_iters: int = 2000
    seed: int | None = None  # smooth random perturbation of the initial arc
    perturb_amp: float = 0.03  # relative to L0


@dataclass(frozen=True)
class MinimizeResult:
    curve: DiscreteCurve
    B: float
    Bbar: float
    lambda_est: float
    grad_norm: float
    iterations: int
    converged: bool
    saddle_perturbed: bool
    log: tuple[dict, ...] = field(repr=False, default=())


# ---------------------------------------------------------------------------
# exact gradient of the discrete bending energy

def energy_gradient(c: DiscreteCurve) -> np.ndarray:
    """Per-vertex gradient of bending_energy (closed form).

    B = sum_i 2 theta_i^2 / (a_i + b_i) with theta the turning angle and
    a, b the adjacent edge lengths; grad(theta^2) comes from the atan2
    representation, which stays smooth through theta = 0.
    """
    v = c.vertices
    dim = c.dim
    if dim == 2:  # one 3D code path: the energy only sees |theta|
        v = np.column_stack([v, np.zeros(len(v))])
    e = np.diff(v, axis=0)
    if c.closed:
        e = np.vstack([e, v[0] - v[-1]])
        u, w = np.roll(e, 1, axis=0), e
        iu = np.arange(-1, len(v) - 1)  # edge u = v[i] - v[iu]
        iw = np.arange(len(v))
        iwn = np.roll(iw, -1)
    else:
        u, w = e[:-1], e[1:]
        iu = np.arange(0, len(v) - 2)
        iw = np.arange(1, len(v) - 1)
        iwn = np.arange(2, len(v))
    a = np.linalg.norm(u, axis=1)
    b = np.linalg.norm(w, axis=1)
    d = np.einsum("ij,ij->i", u, w)
    C = np.cross(u, w)
    n = np.linalg.norm(C, axis=1)
    theta = np.arctan2(n, d)
    # theta/n -> 1/(a b) as the angle closes; reflex corners (d<0, n->0)
    # are genuine kinks and never arise along descent
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(n > 1e-300, theta / np.where(n > 1e-300, n, 1.0), 1.0 / (a * b))
    ab2 = (a * b) ** 2
    # d(theta^2)/du and /dw; v x C = b^2 u - d w, C x w -> a^2 w - d u
    g_u = (2.0 / ab2)[:, None] * (
        (ratio * d)[:, None] * (b**2)[:, None] * u
        - (ratio * d * d)[:, None] * w
        - (theta * n)[:, None] * w
    )
    g_w = (2.0 / ab2)[:, None] * (
        (ratio * d)[:, None] * (a**2)[:, None] * w
        - (ratio * d * d)[:, None] * u
        - (theta * n)[:, None] * u
    )
    # exactly collinear corners: theta = 0 kills every term analytically,
    # but the expanded products above leave h^-2-amplified rounding crumbs
    flat = (n == 0.0) & (d > 0.0)
    if np.any(flat):
        g_u[flat] = 0.0
        g_w[flat] = 0.0
    # f_i = 2 theta^2/(a+b): d/du = 2 d(theta^2)/du/(a+b) - 2 theta^2/(a+b)^2 uhat
    apb = a + b
    th2 = theta * theta
    fu = (2.0 / apb)[:, None] * g_u - (2.0 * th2 / (apb**2 * a))[:, None] * u
    fw = (2.0 / apb)[:, None] * g_w - (2.0 * th2 / (apb**2 * b))[:, None] * w
    grad = np.zeros_like(v)
    np.add.at(grad, iu, -fu)
    np.add.at(grad, iw, fu - fw)
    np.add.at(grad, iwn, fw)
    return grad[:, :dim] if dim == 2 else grad


# ---------------------------------------------------------------------------
# equal-edge-length constraint machinery (open chain, some vertices fixed)

class _Chain:
    """Open chain with equal target edge length h and a fixed-vertex mask."""

    def __init__(self, n_vertices: int, h: float, fixed: np.ndarray):
        self.h = h
        self.fixed = fixed
        self.free = ~fixed
        # constraint i couples vertices i and i+1; both-fixed edges are exact
        self.act = np.flatnonzero(~(fixed[:-1] & fixed[1:]))

    def residual(self, X: np.ndarray) -> np.ndarray:
        e = np.diff(X, axis=0)
        return np.linalg.norm(e, axis=1) - self.h

    def _jjt_banded(self, X: np.ndarray):
        # J J^T over active constraints; tridiagonal in upper-banded form
        e = np.diff(X, axis=0)
        ehat = e / np.linalg.norm(e, axis=1)[:, None]
        k = self.act
        diag = self.free[k].astype(float) + self.free[k + 1].astype(float)
        # consecutive active constraints coupling through a shared free vertex
        off = np.zeros(len(k))
        share = (np.diff(k) == 1) & self.free[k[1:]]
        off[1:][share] = -np.einsum("ij,ij->i", ehat[k[:-1]][share], ehat[k[1:]][share])
        ab = np.zeros((2, len(k)))
        ab[0] = off
        ab[1] = diag + 1e-12  # ridge: J J^T degenerates on exactly straight chains
        return ab, ehat

    def project_tangent(self, X: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Remove the component of G violating the linearized constraints."""
        G = G.copy()
        G[self.fixed] = 0.0
        ab, ehat = self._jjt_banded(X)
        k = self.act
        jg = np.einsum("ij,ij->i", ehat[k], G[k + 1] - G[k])
        mu = self._solve_spd(ab, jg)
        corr = ehat[k] * mu[:, None]
        np.add.at(G, k + 1, -corr * self.free[k + 1][:, None])
        np.add.at(G, k, corr * self.free[k][:, None])
        return G

    @staticmethod
    def _solve_spd(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        try:
            return cho_solve_banded((cholesky_banded(ab), False), rhs)
        except np.linalg.LinAlgError:
            ab = ab.copy()
            ab[1] += 1e-6
            return cho_solve_banded((cholesky_banded(ab), False), rhs)

    def project_feasible(self, X: np.ndarray) -> np.ndarray | None:
        """Restore all edge lengths to h (fixed vertices untouched).

        Gauss-Newton from near-feasible states; renormalization sweeps as
        fallback.  Returns None if the residual cannot be reduced below
        _PROJ_TOL * h (caller treats that as a rejected step).
        """
        X = X.copy()
        tol = _PROJ_TOL * self.h
        swept = False
        while True:
            for _ in range(30):
                r = self.residual(X)[self.act]
                if np.max(np.abs(r)) <= tol:
                    return X
                ab, ehat = self._jjt_banded(X)
                mu = self._solve_spd(ab, r)
                k = self.act
                corr = ehat[k] * mu[:, None]
                np.add.at(X, k + 1, -corr * self.free[k + 1][:, None])
                np.add.at(X, k, corr * self.free[k][:, None])
            if swept:
                return None
            # Gauss-Newton stalled (far from feasible): renormalization
            # sweeps anchored alternately at either end, then one retry
            swept = True
            for _ in range(_MAX_SWEEPS):
                for i in self.act:
                    if self.free[i + 1]:
                        X[i + 1] = X[i] + self.h * _unit(X[i + 1] - X[i])
                for i in self.act[::-1]:
                    if self.free[i]:
                        X[i] = X[i + 1] - self.h * _unit(X[i] - X[i + 1])
                if np.max(np.abs(self.residual(X)[self.act])) < 1e-6 * self.h:
                    break


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _precond_factor(n_free: int, h: float):
    """Banded Cholesky of 2/h^3 * T^2 + I with T the Dirichlet Laplacian.

    T^2 is the dominant part of the bending Hessian on an equal-edge chain;
    solving against it turns the h^-3-stiff gradient flow into a
    well-scaled one.
    """
    # pentadiagonal T @ T in upper-banded storage
    ab = np.zeros((3, n_free))
    ab[0, 2:] = 1.0  # superdiagonal 2: 1*1
    ab[1, 1:] = -4.0  # superdiagonal 1: 1*(-2) + (-2)*1
    ab[2, :] = 6.0  # diagonal: 1 + 4 + 1
    ab[2, 0] = ab[2, -1] = 5.0  # boundary rows lose one neighbor
    scale = 2.0 / h**3
    ab *= scale
    ab[2] += 1.0
    return cholesky_banded(ab)


def _newton_direction_2d(X, chain, fixed):
    """Planar SQP step computed in edge-angle coordinates.

    On an equal-edge chain the energy is quadratic in the edge direction
    angles with a constant tridiagonal Hessian, and the only constraints are
    the two chord-closure equations; one bordered tridiagonal solve gives the
    exact Newton displacement, returned in vertex space for the usual
    projected line search.  Returns None when the solve degenerates.
    """
    h = chain.h
    e = np.diff(X, axis=0)
    phi = np.unwrap(np.arctan2(e[:, 1], e[:, 0]))
    n_e = len(phi)
    fixed_edge = fixed[:-1] & fixed[1:]
    free = np.flatnonzero(~fixed_edge)
    if len(free) < 3:
        return None
    a, b = free[0], free[-1] + 1  # free edges form one contiguous run
    th = np.diff(phi)
    g = np.zeros(n_e)
    g[1:] += (2.0 / h) * th
    g[:-1] -= (2.0 / h) * th
    gf = g[a:b]
    # Hessian of the angle energy on the free run (tridiagonal)
    nf = b - a
    diag = (2.0 / h) * (
        (np.arange(a, b) >= 1).astype(float) + (np.arange(a, b) <= n_e - 2)
    )
    # multiplier estimate for the constraint-curvature term
    J = np.vstack([-np.sin(phi[a:b]), np.cos(phi[a:b])])
    JJt = J @ J.T
    try:
        nu = np.linalg.solve(JJt, J @ gf)
    except np.linalg.LinAlgError:
        return None
    Wdiag = -nu[0] * np.cos(phi[a:b]) - nu[1] * np.sin(phi[a:b])
    delta = (X[-1] - X[0]) / h
    c = np.array([np.sum(np.cos(phi)) - delta[0], np.sum(np.sin(phi)) - delta[1]])
    rhs = np.column_stack([gf, J[0], J[1]])
    Y = None
    for w in (Wdiag, 0.0):  # drop the curvature term if it spoils definiteness
        band = np.zeros((2, nf))
        band[0, 1:] = -2.0 / h
        band[1] = diag + w + 1e-10 * (2.0 / h)
        try:
            Y = cho_solve_banded((cholesky_banded(band), False), rhs)
            break
        except np.linalg.LinAlgError:
            continue
    if Y is None:
        return None
    S = J @ Y[:, 1:]
    try:
        nu_new = np.linalg.solve(S, c - J @ Y[:, 0])
    except np.linalg.LinAlgError:
        return None
    dphi = -Y[:, 0] - Y[:, 1:] @ nu_new
    if not np.all(np.isfinite(dphi)):
        return None
    phi_new = phi.copy()
    phi_new[a:b] += dphi
    Xn = np.empty_like(X)
    Xn[0] = X[0]
    Xn[1:] = X[0] + h * np.cumsum(
        np.column_stack([np.cos(phi_new), np.sin(phi_new)]), axis=0
    )
    d = X - Xn
    d[fixed] = 0.0
    return d


def _kkt_direction(X, Gt, chain, fac, row, free_idx):
    """Quasi-Newton direction: minimize the preconditioner quadratic model
    subject to the linearized edge-length constraints (Schur complement).

    Unlike precondition-then-project, this keeps its accuracy for gradient
    modes that the preconditioner maps nearly normal to the constraints —
    exactly the modes left over when plain descent hits the roundoff floor.
    """
    k = chain.act
    e = np.diff(X, axis=0)
    ehat = e / np.linalg.norm(e, axis=1)[:, None]
    dim = X.shape[1]
    n_free = len(free_idx)
    n_act = len(k)
    rp = row[k]  # free-variable row of vertex k; -1 routes to a padding slot
    rq = row[k + 1]
    cols = np.arange(n_act)
    MG = cho_solve_banded((fac, False), Gt[free_idx])  # (n_free, dim)
    S = np.zeros((n_act, n_act))
    rhs = np.zeros(n_act)
    Ws = []
    for c in range(dim):
        R = np.zeros((n_free + 1, n_act))
        R[rq, cols] += ehat[k, c]
        R[rp, cols] -= ehat[k, c]
        Wc = cho_solve_banded((fac, False), R[:n_free])
        Wp = np.vstack([Wc, np.zeros((1, n_act))])
        S += ehat[k, c][:, None] * (Wp[rq] - Wp[rp])
        MGp = np.concatenate([MG[:, c], [0.0]])
        rhs += ehat[k, c] * (MGp[rq] - MGp[rp])
        Ws.append(Wc)
    S[np.diag_indices_from(S)] += 1e-12 * max(np.max(np.diag(S)), 1e-300)
    nu = cho_solve(cho_factor(S), rhs)
    d = np.zeros_like(Gt)
    d[free_idx] = MG - np.stack([W @ nu for W in Ws], axis=1)
    return d


def _smooth_perturbation(n: int, dim: int, rng, amp: float) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)[:, None]
    delta = np.zeros((n, dim))
    for k in range(2, 7):
        delta += (rng.standard_normal(dim) / k**2) * np.sin(k * math.pi * t)
    return amp * delta


def _arc_initial(P0, P1, L0, N, dim):
    """Equal-parameter samples of the circular arc of length L0 joining the
    endpoints; P0 = P1 degenerates to the full circle (teardrop)."""
    d = np.linalg.norm(P1 - P0)
    if d < 1e-14 * L0:
        rho = L0 / (2.0 * math.pi)
        t = 2.0 * math.pi * np.linspace(0.0, 1.0, N + 1)
        X = np.zeros((N + 1, dim))
        X[:, 0] = rho * np.sin(t)
        X[:, 1] = rho * (1.0 - np.cos(t))
        return P0 + X
    # bulge angle from sin(phi)/phi = d/L0
    lo, hi = 1e-9, math.pi - 1e-9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if math.sin(mid) / mid > d / L0:
            lo = mid
        else:
            hi = mid
    phi = 0.5 * (lo + hi)
    R = L0 / (2.0 * phi)
    t = np.linspace(-phi, phi, N + 1)
    chord = _unit(P1 - P0)
    normal = np.zeros(dim)
    if abs(chord[0]) < 0.9:
        normal[0] = 1.0
    else:
        normal[1] = 1.0
    normal = _unit(normal - np.dot(normal, chord) * chord)
    mid_pt = 0.5 * (P0 + P1)
    sag = R * (1.0 - math.cos(phi))
    return (
        mid_pt
        + np.outer(R * np.sin(t) - 0.0, chord)
        + np.outer(R * np.cos(t) - R + sag, normal)
    )


def _polish(X, B, chain, fac, row, free_idx, tol, budget, energy):
    """Terminal critical-point refinement by full quasi-Newton steps.

    Entered when the line search can no longer verify descent (the energy
    sits at its floating-point floor); drives the projected gradient the
    rest of the way down.  Energy may wiggle at roundoff scale here.
    """
    B_entry = B
    best = (X, B, math.inf)
    hist = []
    for _ in range(budget):
        Gt = chain.project_tangent(X, energy_gradient(DiscreteCurve(X, closed=False)))
        gn = float(np.linalg.norm(Gt))
        res = float(np.max(np.abs(chain.residual(X)[chain.act]))) / chain.h
        hist.append({"B": B, "grad_norm": gn, "max_constraint_residual": res})
        if gn < best[2]:
            best = (X, B, gn)
        if gn < tol or gn > 1e3 * best[2]:
            break
        try:
            d = _kkt_direction(X, Gt, chain, fac, row, free_idx)
        except np.linalg.LinAlgError:
            break
        m = np.max(np.abs(d))
        if m > 0.5 * chain.h:
            d *= 0.5 * chain.h / m
        Xt = chain.project_feasible(X - d)
        if Xt is None:
            break
        Bt = energy(Xt)
        if Bt > B_entry + 1e-9 * max(1.0, abs(B_entry)):
            break
        X, B = Xt, Bt
    return best, hist


def _descend(X0, chain, fixed, tol, max_iters, problem_dim, L0):
    X = chain.project_feasible(X0)
    if X is None:
        raise DomainError("could not project the initial curve onto the constraints")
    fac = _precond_factor(int(np.sum(~fixed)), chain.h)
    free_idx = np.flatnonzero(~fixed)
    row = -np.ones(len(fixed), dtype=int)
    row[free_idx] = np.arange(len(free_idx))

    def energy(Xc):
        return bending_energy(DiscreteCurve(Xc, closed=False))

    B = energy(X)
    log = []
    saddle_done = False
    it = 0
    grad_norm = math.inf
    t_mem = {0: None, 1: None, 2: None}  # last accepted step per direction kind
    no_progress = 0
    B_mark, it_mark = B, 0  # stagnation watch: last material decrease
    for it in range(1, max_iters + 1):
        G = energy_gradient(DiscreteCurve(X, closed=False))
        Gt = chain.project_tangent(X, G)
        grad_norm = float(np.linalg.norm(Gt))
        res = float(np.max(np.abs(chain.residual(X)[chain.act]))) / chain.h
        log.append(
            {"iteration": it - 1, "B": B, "grad_norm": grad_norm, "max_constraint_residual": res}
        )
        if grad_norm < max(1e-13, 1e-13 * B) and grad_norm >= tol and not saddle_done:
            # symmetric saddle: kick once with a deterministic smooth mode
            kick = _smooth_perturbation(len(X), problem_dim, np.random.default_rng(0), 0.01 * L0)
            kick[fixed] = 0.0
            Xk = chain.project_feasible(X + kick)
            if Xk is not None:
                X, B = Xk, energy(Xk)
            saddle_done = True
            continue
        if grad_norm < tol:
            return X, B, grad_norm, it - 1, True, saddle_done, log
        if B < B_mark - 1e-11 * max(1.0, abs(B_mark)):
            B_mark, it_mark = B, it
        stagnant = it - it_mark > 100  # descent drowned in projection noise
        # direction candidates, best first: planar angle-space Newton (full
        # steps) or, in 3-D, the constrained quasi-Newton step; then the
        # Sobolev-preconditioned gradient and the raw gradient.  Each is
        # accepted on Armijo decrease of B, and the slot-0 step also when
        # it stays within B's rounding bound and cuts the projected gradient
        candidates = []
        if not stagnant:
            if problem_dim == 2:
                dn = _newton_direction_2d(X, chain, fixed)
                if dn is not None:
                    # Newton is all-or-nothing: a couple of backtracks only,
                    # then defer to the safeguarded gradient directions
                    candidates.append((0, dn, 1.0, 4))
            else:
                try:
                    dq = _kkt_direction(X, Gt, chain, fac, row, free_idx)
                except np.linalg.LinAlgError:
                    dq = None
                if dq is not None:
                    # capped at half an edge, as in _polish, then tried like
                    # the planar Newton step
                    m = np.max(np.abs(dq))
                    if m > 0.5 * chain.h:
                        dq *= 0.5 * chain.h / m
                    candidates.append((0, dq, 1.0, 4))
            dirn = np.zeros_like(Gt)
            dirn[free_idx] = cho_solve_banded((fac, False), Gt[free_idx])
            dirn = chain.project_tangent(X, dirn)
            # keep gradient-based trial displacements below half an edge so
            # projection stays in the Gauss-Newton basin
            for slot, d in ((1, dirn), (2, Gt)):
                cap = min(1.0, 0.5 * chain.h / max(np.max(np.abs(d)), 1e-300))
                candidates.append((slot, d, cap, 40))
        accepted = False
        floor = _rounding_bound(B, len(X) - 1)
        for slot, trial_dir, t_cap, n_trials in candidates:
            slope = float(np.sum(Gt * trial_dir))
            if slope <= 0.0:
                continue
            t_last = t_mem[slot]
            t = t_cap if t_last is None else min(t_cap, 2.0 * t_last)
            for _ in range(n_trials):
                Xt = chain.project_feasible(X - t * trial_dir)
                if Xt is not None:
                    Bt = energy(Xt)
                    if Bt < B and Bt <= B - _ARMIJO_C * t * slope:
                        X, B, accepted = Xt, Bt, True
                        t_mem[slot] = t
                        no_progress = 0
                        break
                    # at the rounding floor of B the sign of Bt - B is noise;
                    # a Newton step is then judged by the stationarity
                    # residual instead, which still resolves it, and counts
                    # as progress for the stagnation watch
                    if slot == 0 and abs(Bt - B) <= floor:
                        Gn = chain.project_tangent(
                            Xt, energy_gradient(DiscreteCurve(Xt, closed=False))
                        )
                        if np.linalg.norm(Gn) <= _FLOOR_GRAD_FACTOR * grad_norm:
                            X, B, accepted = Xt, Bt, True
                            t_mem[slot] = t
                            no_progress = 0
                            it_mark = it
                            break
                    # at the floating-point floor of the energy, equal-energy
                    # moves still relax stiff gradient modes; require real
                    # motion and cap how long this polishing may run
                    if Bt <= B and no_progress < 150 and np.any(Xt != X):
                        X, B, accepted = Xt, Bt, True
                        t_mem[slot] = t
                        no_progress += 1
                        break
                t *= _BACKTRACK
            if accepted:
                break
        if not accepted:
            # no acceptable step in any direction: the iterate sits at the
            # resolution floor of the constrained energy; polish toward the
            # critical point within the remaining iteration budget
            budget = min(30, max_iters - it)
            if grad_norm >= tol and budget > 0:
                (X, B, grad_norm), hist = _polish(
                    X, B, chain, fac, row, free_idx, tol, budget, energy
                )
                for j, row_ in enumerate(hist):
                    log.append({"iteration": it + j, **row_})
                it += len(hist)
            return X, B, grad_norm, it, grad_norm < tol, saddle_done, log
    return X, B, grad_norm, it, False, saddle_done, log


def _package(X, L0, opts_log):
    B, grad_norm, iters, conv, saddle, log = opts_log
    curve = DiscreteCurve(X, closed=False)
    L = length(curve)
    lam = math.nan
    if curve.dim == 2:
        try:
            lam = estimate_multiplier(curve)
        except DomainError:
            pass
    return MinimizeResult(
        curve=curve,
        B=B,
        Bbar=L * B,
        lambda_est=lam,
        grad_norm=grad_norm,
        iterations=iters,
        converged=conv,
        saddle_perturbed=saddle,
        log=tuple(log),
    )


def _multilevel(P0, P1, L0, N, dim, opts, clamp=None):
    """Coarse-to-fine driver: solve on a short chain first, prolong by the
    arclength spline, re-solve.  Kinked transients that take thousands of
    iterations to relax at the target N cost almost nothing at N ~ 32."""
    levels = [N]
    while levels[-1] > 32:
        levels.append((levels[-1] + 1) // 2)
    levels.reverse()
    tol_fine = opts.tol if opts.tol is not None else 1e-8 * N

    X = None
    log: list[dict] = []
    used = 0
    saddle_any = False
    out = (math.inf, math.inf, False)
    for n in levels:
        fine = n == N
        h = L0 / n
        fixed = np.zeros(n + 1, dtype=bool)
        fixed[0] = fixed[-1] = True
        if clamp is not None:
            fixed[1] = fixed[-2] = True
            q0 = P0 + h * clamp[0]
            q1 = P1 - h * clamp[1]
            # the inner chain must be able to span q0 -> q1 at this h
            if not fine and np.linalg.norm(q1 - q0) >= (n - 2) * h:
                continue
        if X is None:
            if clamp is None:
                X0 = _arc_initial(P0, P1, L0, n, dim)
            else:
                X0 = np.empty((n + 1, dim))
                X0[1:-1] = _arc_initial(q0, q1, (n - 2) * h, n - 2, dim)
                X0[0], X0[-1] = P0, P1
            if opts.seed is not None:
                pert = _smooth_perturbation(
                    n + 1, dim, np.random.default_rng(opts.seed), opts.perturb_amp * L0
                )
                pert[fixed] = 0.0
                X0 = X0 + pert
        else:
            X0 = resample_arclength(DiscreteCurve(X, closed=False), n).vertices.copy()
            X0[0], X0[-1] = P0, P1
            if clamp is not None:
                X0[1], X0[-2] = q0, q1
        budget = opts.max_iters - used if fine else min(300, opts.max_iters - used)
        if budget <= 0 and not fine:
            continue
        chain = _Chain(n + 1, h, fixed)
        try:
            X_, B, gn, iters, conv, saddle, lv_log = _descend(
                X0, chain, fixed, tol_fine if fine else 1e-8 * n, max(budget, 1), dim, L0
            )
        except DomainError:
            if fine:
                raise
            continue  # coarse level not projectable; retry on a finer grid
        X = X_
        for row in lv_log:
            log.append({**row, "N": n})
        used += iters
        saddle_any = saddle_any or saddle
        out = (B, gn, conv)
    for i, row in enumerate(log):
        row["iteration"] = i
    B, gn, conv = out
    return X, (B, gn, used, conv, saddle_any, log)


def minimize_pinned(p: PinnedProblem, opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """Minimize bending energy over curves of length L0 from P0 to P1 with
    free end tangents (natural boundary condition: end curvature -> 0)."""
    X, info = _multilevel(p.P0, p.P1, p.L0, p.N, p.dim, opts)
    return _package(X, p.L0, info)


def minimize_clamped(p: ClampedProblem, opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """As minimize_pinned, with the first/last edge directions clamped to
    V0 and V1 (realized by fixing the vertices P0 + h V0 and P1 - h V1)."""
    if p.is_taut:
        # the straight segment is the only curve in the constraint set
        t = np.linspace(0.0, 1.0, p.N + 1)[:, None]
        X = (1.0 - t) * p.P0 + t * p.P1
        log = [
            {"iteration": 0, "B": 0.0, "grad_norm": 0.0, "max_constraint_residual": 0.0, "N": p.N}
        ]
        return _package(X, p.L0, (0.0, 0.0, 0, True, False, log))
    X, info = _multilevel(p.P0, p.P1, p.L0, p.N, p.dim, opts, clamp=(p.V0, p.V1))
    return _package(X, p.L0, info)


# ---------------------------------------------------------------------------
# multiplier recovery and the leaf experiment

def estimate_multiplier(c: DiscreteCurve) -> float:
    """Least-squares lambda in 2 k_ss + k^3 = lam k over interior vertices.

    Planar curves only (the scalar signed-curvature form).  Returns NaN
    when the fit is indeterminate (k ~ 0 everywhere, e.g. straight lines).
    """
    if c.dim != 2:
        raise DomainError("multiplier estimation uses the planar scalar form")
    kappa, lbar, s = curvature_data(c, signed=True)
    if len(kappa) < 16:
        raise DomainError("need at least 16 interior vertices")
    # second derivative on (possibly) non-uniform arclength samples
    d0 = s[1:-1] - s[:-2]
    d1 = s[2:] - s[1:-1]
    k_ss = 2.0 * (
        kappa[:-2] / (d0 * (d0 + d1))
        - kappa[1:-1] / (d0 * d1)
        + kappa[2:] / (d1 * (d0 + d1))
    )
    k_in = kappa[1:-1]
    denom = float(np.sum(k_in * k_in))
    if denom < 1e-12 * len(k_in):
        return math.nan
    return float(np.sum((2.0 * k_ss + k_in**3) * k_in)) / denom


@dataclass(frozen=True)
class LeafMinimalityReport:
    N: int
    seeds: int
    min_Bbar: float
    median_Bbar: float
    deviation: float  # min_Bbar / varpi* - 1
    passed: bool
    results: tuple[MinimizeResult, ...] = field(repr=False, default=())


def verify_leaf_minimality(N: int, seeds: int, max_iters: int = 2000) -> LeafMinimalityReport:
    """Pinned minimization with P0 = P1 from several random starts.

    The minimum normalized energy over seeds should land on the leaf value
    varpi* (within 1%); no seed may end below it by more than the same
    discretization margin.
    """
    from .curves import varpi_star

    if N < 100:
        raise DomainError("need N >= 100")
    if seeds < 1:
        raise DomainError("need seeds >= 1")
    results = []
    for seed in range(seeds):
        prob = PinnedProblem(np.zeros(2), np.zeros(2), 1.0, N)
        results.append(
            minimize_pinned(prob, MinimizeOptions(seed=seed, max_iters=max_iters))
        )
    bbars = np.array([r.Bbar for r in results])
    vp = varpi_star()
    min_b = float(np.min(bbars))
    return LeafMinimalityReport(
        N=N,
        seeds=seeds,
        min_Bbar=min_b,
        median_Bbar=float(np.median(bbars)),
        deviation=min_b / vp - 1.0,
        passed=bool(abs(min_b / vp - 1.0) <= 0.01 and np.all(bbars >= vp * (1 - 0.01))),
        results=tuple(results),
    )
