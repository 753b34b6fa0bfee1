"""Fixed-length bending-energy minimization with pinned/clamped endpoints.

The length constraint is discretized as N equal edges of length h = L0/N,
and the unknowns are the unit edge tangents T.  The vertices are rebuilt
as X = P0 + h cumsum(T) with X[0] = P0 and X[N] = P1 set exactly, so every
edge length holds by construction, a clamped end fixes its edge's tangent,
and the only constraint left is closure, h sum(T) = P1 - P0 (dim
equations).  On such a chain B = sum theta_i^2 / h over the turning angles.

Each free edge moves in dim - 1 coordinates of a parallel-transported
(Bishop) frame; in the plane that is the edge angle, in which B is exactly
quadratic with Hessian (2/h) times the path Laplacian.  The step is Newton's
SQP step: the Hessian of B plus the curvature term nu . T_i of the
least-squares closure multiplier nu, block-tridiagonal in these
coordinates, so one banded solve with 1 + dim right-hand sides (Thomas in
the plane) and a dim x dim Schur complement give it.  In space B's Hessian
adds, per turning vertex, terms along its binormal; without them the step
converges only linearly.  When the Newton step does not descend, the
positive definite (2/h) Laplacian (x) I_{dim-1} alone gives a step that
always does.  Each trial is restored onto closure by Gauss-Newton (a
dim x dim normal matrix) and accepted on Armijo decrease of B, with one
exception at B's floating-point floor: once a step changes B by no more
than the rounding bound n eps |B| of the n-term energy sum, the sign of
that change is noise, and the step is accepted only when it cuts the
projected gradient by a fixed factor (the stationarity residual is the
merit function there).  Such a step may raise B by at most that bound.
When no step is accepted the solve ends with termination "floor".

grad_norm (compared against tol) is the norm of the vertex-space energy
gradient projected onto the tangent space of the edge-length constraints.

The multiplier lambda of the elastica equation 2 k_ss + k^3 - lam k = 0 is
recovered from converged planar curves by a least-squares fit over
interior vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discrete import DiscreteCurve, _pairs, curvature_data, length
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
_MAX_TRIALS = 30
_MAX_TURN = 0.5  # largest rotation of any tangent in a trial step, radians
_CLOSURE_TOL = 1e-12  # closure residual target, in edge lengths
_RIDGE = 1e-10  # relative shift keeping the free-end Laplacian invertible
_FLOOR_GRAD_FACTOR = 0.5  # projected-gradient cut a floor step must achieve
_PERTURB_AMP = 0.03  # seeded perturbation of the initial arc, relative to L0


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
    seed: int | None = None  # smooth random perturbation (_PERTURB_AMP) of the initial arc


@dataclass(frozen=True)
class MinimizeResult:
    curve: DiscreteCurve
    B: float
    Bbar: float
    lambda_est: float
    grad_norm: float
    iterations: int
    converged: bool
    saddle_perturbed: bool  # always False: the solver has no saddle kick (perfbench reads it)
    termination: str  # "converged", "budget" (max_iters spent) or "floor" (no step accepted)
    log: tuple[dict, ...] = field(repr=False, default=())


# ---------------------------------------------------------------------------
# exact gradient of the discrete bending energy

def energy_gradient(c: DiscreteCurve) -> np.ndarray:
    """Per-vertex gradient of bending_energy (closed form).

    B = sum_i 2 theta_i^2 / (a_i + b_i) with theta the turning angle and
    a, b the adjacent edge lengths; grad(theta^2) comes from the atan2
    representation, which stays smooth through theta = 0.
    """
    e = c.edges
    if c.dim == 2:  # one 3D code path: the energy only sees |theta|
        e = np.column_stack([e, np.zeros(len(e))])
    u, w = _pairs(c, e)
    a, b = _pairs(c, c.edge_lengths)
    nv = c.n_vertices
    iw = np.arange(nv) if c.closed else np.arange(1, nv - 1)  # turning vertices
    iu, iwn = iw - 1, (iw + 1) % nv  # edge u = v[iw] - v[iu], edge w = v[iwn] - v[iw]
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
    grad = np.zeros((nv, 3))
    np.add.at(grad, iu, -fu)
    np.add.at(grad, iw, fu - fw)
    np.add.at(grad, iwn, fw)
    return grad[:, : c.dim]


# ---------------------------------------------------------------------------
# the chain in edge-tangent coordinates

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


def _rotate(T: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Move each unit tangent T_i along the great circle in the direction of
    the tangent vector D_i, through the angle |D_i| (the exponential map)."""
    r = np.linalg.norm(D, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(r > 0.0, np.sin(r) / r, 1.0)
    out = np.cos(r)[:, None] * T + sinc[:, None] * D
    return out / np.linalg.norm(out, axis=1)[:, None]


def _frames(T: np.ndarray) -> np.ndarray:
    """(n, dim-1, dim) orthonormal normals of the edge tangents.

    In the plane the edge-angle direction; in space the Bishop frame,
    parallel transported from edge to edge by the rotation taking T_{i-1}
    to T_i.  The transport is vectorized: each edge gets a reference normal
    (e_z x T, or e_x x T near the z axis), and the cumulative twist between
    transported and reference normals rotates it into the Bishop frame.
    """
    if T.shape[1] == 2:
        return np.column_stack([-T[:, 1], T[:, 0]])[:, None, :]
    ref = np.zeros_like(T)
    polar = np.abs(T[:, 2]) >= 0.9
    ref[~polar, 2] = 1.0
    ref[polar, 0] = 1.0
    U = np.cross(ref, T)
    U /= np.linalg.norm(U, axis=1)[:, None]
    V = np.cross(T, U)
    # R u = c u + k x u + (k.u) k / (1 + c), k = T_{i-1} x T_i, c = T_{i-1}.T_i
    k = np.cross(T[:-1], T[1:])
    c = np.einsum("ij,ij->i", T[:-1], T[1:])
    Up = U[:-1]
    ku = np.einsum("ij,ij->i", k, Up) / (1.0 + c)
    PU = c[:, None] * Up + np.cross(k, Up) + ku[:, None] * k
    tau = np.arctan2(np.einsum("ij,ij->i", PU, V[1:]), np.einsum("ij,ij->i", PU, U[1:]))
    beta = np.concatenate([[0.0], np.cumsum(tau)])
    cb, sb = np.cos(beta)[:, None], np.sin(beta)[:, None]
    return np.stack([cb * U + sb * V, cb * V - sb * U], axis=1)


def _turning(T: np.ndarray):
    """Turning angles between consecutive tangents, with their cosines and
    theta / sin(theta) (1 at theta = 0)."""
    a, b = T[:-1], T[1:]
    d = np.einsum("ij,ij->i", a, b)
    if T.shape[1] == 2:
        n = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    else:
        n = np.linalg.norm(np.cross(a, b), axis=1)
    theta = np.arctan2(n, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(n > 1e-300, theta / n, 1.0)
    return theta, d, ratio


def _energy(T: np.ndarray, h: float) -> float:
    """B = sum theta_i^2 / h, the bending energy of the equal-edge chain."""
    theta = _turning(T)[0]
    return float(np.dot(theta, theta)) / h


def _tangent_gradient(T: np.ndarray, h: float) -> np.ndarray:
    """Gradient of B with respect to each unit tangent, in its tangent plane.

    On the sphere grad_b theta^2 = -2 (theta / sin theta)(a - cos(theta) b)
    for theta the angle between unit vectors a and b.
    """
    theta, d, ratio = _turning(T)
    a, b = T[:-1], T[1:]
    w = (-2.0 / h) * ratio[:, None]
    G = np.zeros_like(T)
    G[1:] += w * (a - d[:, None] * b)
    G[:-1] += w * (b - d[:, None] * a)
    return G


def _projected_gradient_norm(T: np.ndarray, GT: np.ndarray, h: float, a: int, b: int) -> float:
    """Norm of the vertex-space gradient projected onto the tangent space of
    the edge-length constraints, with every vertex outside a+1..b-1 fixed.

    Vertex j sees (GT_{j-1} - GT_j) / h; the edge-length terms of the
    vertex gradient lie along the constraint normals and project out.  The
    normal equations J J^T of the active edges a..b-1 are tridiagonal.  A
    second pass projects out what the first left of the constraint forces,
    which dominate the gradient near a critical point and which the first
    solve resolves only to cond(J J^T) times the rounding error.
    """
    Gp = np.zeros((b - a + 1, T.shape[1]))
    Gp[1:-1] = (GT[a : b - 1] - GT[a + 1 : b]) / h
    Ta = T[a:b]
    band = np.zeros((2, b - a))
    band[0] = 2.0 + 1e-12  # ridge: J J^T degenerates on exactly straight chains
    band[0, [0, -1]] -= 1.0  # the end edges touch one free vertex
    band[1, :-1] = -np.einsum("ij,ij->i", Ta[:-1], Ta[1:])
    for _ in range(2):
        jg = np.einsum("ij,ij->i", Ta, Gp[1:] - Gp[:-1])
        corr = _band_solve(band, jg[:, None]) * Ta
        Gp[1:] -= corr
        Gp[:-1] += corr
        Gp[[0, -1]] = 0.0  # fixed vertices
    return float(np.linalg.norm(Gp))


def _residual(T: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Closure residual sum(T) - target, exactly rounded.

    A plain float sum of N tangents toward a target of size up to N is off
    by ~N eps |target|; the energy moves with that error times the closure
    multiplier, well above its own rounding bound on tightly bent chains.
    """
    return np.array([math.fsum([*col, -t]) for col, t in zip(T.T.tolist(), target.tolist())])


def _close(T: np.ndarray, target: np.ndarray, a: int, b: int) -> np.ndarray | None:
    """Rotate the free tangents a..b-1 until sum(T) = target (closure).

    Gauss-Newton with minimal-norm steps; the normal matrix
    sum (I - T_i T_i^T) is dim x dim.  Once the residual is below
    _CLOSURE_TOL one more step takes it to rounding level, because B moves
    with the closure residual times the multiplier, and energies are
    compared near their rounding floor.  None when it does not converge.
    """
    T = T.copy()
    closed = False
    for _ in range(30):
        r = _residual(T, target)
        if np.max(np.abs(r)) <= _CLOSURE_TOL:
            if closed:
                return T
            closed = True
        Tf = T[a:b]
        M = (b - a) * np.eye(T.shape[1]) - Tf.T @ Tf
        try:
            lam = np.linalg.solve(M, -r)
        except np.linalg.LinAlgError:
            return None
        T[a:b] = _rotate(Tf, lam - (Tf @ lam)[:, None] * Tf)
    return None


def _direction(T, E, r, resid, h, a, b, nu=None):
    """SQP step in the frame coordinates of the free edges a..b-1: minimize
    r . dy + dy H dy / 2 subject to the linearized closure A dy = -resid.

    H is the Hessian of B in the frame coordinates E (all edges, (n,
    dim-1, dim)) plus nu . T_i, the curvature term of the closure
    multiplier nu.  With nu None, H is (2/h) times the path Laplacian
    (x) I_{dim-1}, which is positive definite.  B's Hessian is
    block-tridiagonal: to second order, a turning vertex of angle theta
    whose edges move by da and db (transported coordinates) changes B by
    |da - db|^2 / h, exactly so in the plane, and in space by a further
    ((theta / sin theta - 1)(k . (da - db))^2 - (theta / sin theta)
    (1 - cos theta)((k . da)^2 + (k . db)^2)) / h along its binormal k.
    One banded solve with 1 + dim right-hand sides, then a dim x dim Schur
    complement.
    """
    n, dm, dim = E.shape
    nf = b - a
    eye = np.eye(dm)
    deg = np.full(nf, 2.0)
    if a == 0:
        deg[[0, -1]] = 1.0  # the end edges touch one turning vertex
    D = (deg + _RIDGE)[:, None, None] * eye  # in units of 2/h
    O = np.broadcast_to(-eye, (nf - 1, dm, dm)).copy()
    if nu is not None:
        D += ((0.5 * h) * (T[a:b] @ nu))[:, None, None] * eye
        if dm == 2:
            _, c, ratio = _turning(T)
            k = np.cross(T[:-1], T[1:])
            k /= np.maximum(np.linalg.norm(k, axis=1), 1e-300)[:, None]
            kap = np.einsum("jad,jd->ja", E[1:], k)  # vertex j's binormal in edge j's frame
            # per vertex 0..n, zero at the two ends, which do not turn
            kk = np.zeros((n + 1, dm, dm))
            kk[1:-1] = kap[:, :, None] * kap[:, None, :]
            eps = np.zeros(n + 1)
            eps[1:-1] = ratio - 1.0
            dlt = np.zeros(n + 1)
            dlt[1:-1] = ratio * (1.0 - c)
            Dv = (eps - dlt)[:, None, None] * kk
            D += Dv[a:b] + Dv[a + 1 : b + 1]  # edge i touches vertices i and i + 1
            O -= eps[a + 1 : b, None, None] * kk[a + 1 : b]
    # upper band of the interleaved ordering dm * i + alpha
    band = np.zeros((2 * dm, nf * dm))
    for al in range(dm):
        for be in range(dm):
            if be >= al:
                band[be - al, al::dm] = D[:, al, be]
            band[dm + be - al, al::dm][: nf - 1] = O[:, al, be]
    Ef = E[a:b].reshape(nf * dm, dim)  # columns of A^T
    Z = _band_solve((2.0 / h) * band, np.column_stack([r.ravel(), Ef]))
    Zg, ZA = Z[:, 0], Z[:, 1:]
    try:
        mu = np.linalg.solve(Ef.T @ ZA, resid - Ef.T @ Zg)
    except np.linalg.LinAlgError:
        return None
    dy = -(Zg + ZA @ mu)
    return dy.reshape(nf, dm) if np.all(np.isfinite(dy)) else None


def _smooth_perturbation(n: int, dim: int, rng, amp: float) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)[:, None]
    delta = np.zeros((n, dim))
    for k in range(2, 7):
        delta += (rng.standard_normal(dim) / k**2) * np.sin(k * math.pi * t)
    return amp * delta


def _vertices(T: np.ndarray, P0: np.ndarray, P1: np.ndarray, h: float) -> np.ndarray:
    X = np.empty((len(T) + 1, len(P0)))
    X[0] = P0
    X[1:] = P0 + h * np.cumsum(T, axis=0)
    X[-1] = P1
    return X


def _perturbed(T, P0, P1, h, a, rng, amp):
    """Tangents of the chain with a smooth vertex perturbation added; the
    ends and, when clamped (a = 1), the end tangents stay put."""
    pert = _smooth_perturbation(len(T) + 1, len(P0), rng, amp)
    pert[[0, -1]] = 0.0
    if a:
        pert[[1, -2]] = 0.0
    E = np.diff(_vertices(T, P0, P1, h) + pert, axis=0)
    Tp = E / np.linalg.norm(E, axis=1)[:, None]
    if a:
        Tp[[0, -1]] = T[[0, -1]]
    return Tp


def _arc_initial(P0, P1, L0, N, dim, bulge=None):
    """Equal-parameter samples of the circular arc of length L0 joining the
    endpoints, bulging toward the part of `bulge` normal to the chord (the
    coordinate axes when that vanishes); P0 = P1 degenerates to the full
    circle (teardrop)."""
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
    chord = (P1 - P0) / d
    normal = np.zeros(dim) if bulge is None else bulge - np.dot(bulge, chord) * chord
    if np.linalg.norm(normal) <= 1e-12:
        normal = np.zeros(dim)
        normal[0 if abs(chord[0]) < 0.9 else 1] = 1.0
        normal -= np.dot(normal, chord) * chord
    normal /= np.linalg.norm(normal)
    mid_pt = 0.5 * (P0 + P1)
    sag = R * (1.0 - math.cos(phi))
    return mid_pt + np.outer(R * np.sin(t), chord) + np.outer(R * np.cos(t) - R + sag, normal)


def _descend(T, P0, P1, h, a, tol, max_iters):
    """Descent at one level.  The free tangents are a..b-1 (a = 1 when the
    end tangents are clamped); closure is sum(T) = (P1 - P0) / h."""
    n = len(T)
    b = n - a
    target = (P1 - P0) / h
    T = _close(T, target, a, b)
    if T is None:
        raise DomainError("could not close the initial curve on the endpoints")
    B = _energy(T, h)
    log = []
    grad_norm = math.inf
    for it in range(1, max_iters + 1):
        GT = _tangent_gradient(T, h)
        grad_norm = _projected_gradient_norm(T, GT, h, a, b)
        el = np.linalg.norm(np.diff(_vertices(T, P0, P1, h), axis=0), axis=1)
        log.append({"iteration": it - 1, "B": B, "grad_norm": grad_norm,
                    "max_constraint_residual": float(np.max(np.abs(el - h))) / h})
        if grad_norm < tol:
            return T, B, grad_norm, it - 1, "converged", log
        Tf = T[a:b]
        E = _frames(T)
        Ef = E[a:b]
        g = np.einsum("iad,id->ia", Ef, GT[a:b])
        # least-squares closure multiplier nu and the reduced gradient
        # r = g - A^T nu, the slope of the Lagrangian B - nu . closure;
        # solving with r instead of g keeps the step accurate relative to
        # r, which is all that is left of g near a critical point
        nu = np.linalg.solve((b - a) * np.eye(len(P0)) - Tf.T @ Tf, np.einsum("iaj,ia->j", Ef, g))
        r = g - np.einsum("iaj,j->ia", Ef, nu)
        resid = _residual(T, target)
        # the Newton step first; when it does not descend, the Laplacian
        # step, which always does
        floor = _rounding_bound(B, n - 1)
        accepted = False
        for curved in (nu, None):
            dy = _direction(T, E, r, resid, h, a, b, curved)
            if dy is None:
                continue
            slope = float(np.sum(r * dy))
            if not slope < 0.0:
                continue
            D = np.einsum("ia,iad->id", dy, Ef)
            t = min(1.0, _MAX_TURN / float(np.max(np.linalg.norm(D, axis=1))))
            for _ in range(_MAX_TRIALS):
                Tt = T.copy()
                Tt[a:b] = _rotate(Tf, t * D)
                Tt = _close(Tt, target, a, b)
                if Tt is not None:
                    Bt = _energy(Tt, h)
                    if Bt < B - floor and Bt <= B + _ARMIJO_C * t * slope:
                        accepted = True
                        break
                    # at the rounding floor of B the sign of Bt - B is noise;
                    # the step is judged by the stationarity residual instead,
                    # and shorter steps cannot do better
                    if abs(Bt - B) <= floor:
                        gn = _projected_gradient_norm(Tt, _tangent_gradient(Tt, h), h, a, b)
                        accepted = gn <= _FLOOR_GRAD_FACTOR * grad_norm
                        break
                t *= _BACKTRACK
            if accepted:
                T, B = Tt, Bt
                break
        if not accepted:
            return T, B, grad_norm, it, "floor", log
    return T, B, grad_norm, max_iters, "budget", log


def _package(X, info):
    B, grad_norm, iters, termination, log = info
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
        converged=termination == "converged",
        saddle_perturbed=False,
        termination=termination,
        log=tuple(log),
    )


def _prolong(T: np.ndarray, n: int) -> np.ndarray:
    """Tangents of a chain of n edges interpolated in arclength from T
    (the unwrapped edge angle in the plane, componentwise then normalized
    in space)."""
    s_old = (np.arange(len(T)) + 0.5) / len(T)
    s_new = (np.arange(n) + 0.5) / n
    if T.shape[1] == 2:
        phi = np.interp(s_new, s_old, np.unwrap(np.arctan2(T[:, 1], T[:, 0])))
        return np.column_stack([np.cos(phi), np.sin(phi)])
    Tn = np.column_stack([np.interp(s_new, s_old, T[:, k]) for k in range(3)])
    return Tn / np.linalg.norm(Tn, axis=1)[:, None]


def _multilevel(P0, P1, L0, N, dim, opts, clamp=None):
    """Coarse-to-fine solve: solve on a short chain first, prolong the
    tangents, re-solve.  Kinked transients that take many iterations to
    relax at the target N cost almost nothing at N ~ 32."""
    levels = [N]
    while levels[-1] > 32:
        levels.append((levels[-1] + 1) // 2)
    levels.reverse()
    tol_fine = opts.tol if opts.tol is not None else 1e-8 * N
    a = 0 if clamp is None else 1

    T = None
    log: list[dict] = []
    used = 0
    out = (math.inf, math.inf, "budget")
    for n in levels:
        fine = n == N
        h = L0 / n
        if clamp is not None:
            q0 = P0 + h * clamp[0]
            q1 = P1 - h * clamp[1]
            # the inner chain must be able to span q0 -> q1 at this h
            if not fine and np.linalg.norm(q1 - q0) >= (n - 2) * h:
                continue
        if T is None:
            if clamp is None:
                X0 = _arc_initial(P0, P1, L0, n, dim)
            else:
                X0 = np.empty((n + 1, dim))
                X0[1:-1] = _arc_initial(q0, q1, (n - 2) * h, n - 2, dim, clamp[0] - clamp[1])
                X0[0], X0[-1] = P0, P1
            E0 = np.diff(X0, axis=0)
            T0 = E0 / np.linalg.norm(E0, axis=1)[:, None]
            if opts.seed is not None:
                rng = np.random.default_rng(opts.seed)
                T0 = _perturbed(T0, P0, P1, h, a, rng, _PERTURB_AMP * L0)
        else:
            T0 = _prolong(T, n)
        if clamp is not None:
            T0[0], T0[-1] = clamp
        budget = opts.max_iters - used if fine else min(300, opts.max_iters - used)
        if budget <= 0 and not fine:
            continue
        try:
            T_, B, gn, iters, term, lv_log = _descend(
                T0, P0, P1, h, a, tol_fine if fine else 1e-8 * n, max(budget, 1)
            )
        except DomainError:
            if fine:
                raise
            continue  # coarse level not closable; retry on a finer grid
        T = T_
        for row in lv_log:
            log.append({**row, "N": n})
        used += iters
        out = (B, gn, term)
    for i, row in enumerate(log):
        row["iteration"] = i
    B, gn, term = out
    return _vertices(T, P0, P1, L0 / N), (B, gn, used, term, log)


def minimize_pinned(p: PinnedProblem, opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """Minimize bending energy over curves of length L0 from P0 to P1 with
    free end tangents (natural boundary condition: end curvature -> 0)."""
    X, info = _multilevel(p.P0, p.P1, p.L0, p.N, p.dim, opts)
    return _package(X, info)


def minimize_clamped(p: ClampedProblem, opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """As minimize_pinned, with the first/last edge directions clamped to
    V0 and V1."""
    if p.is_taut:
        # the straight segment is the only curve in the constraint set
        t = np.linspace(0.0, 1.0, p.N + 1)[:, None]
        X = (1.0 - t) * p.P0 + t * p.P1
        log = [
            {"iteration": 0, "B": 0.0, "grad_norm": 0.0, "max_constraint_residual": 0.0, "N": p.N}
        ]
        return _package(X, (0.0, 0.0, 0, "converged", log))
    X, info = _multilevel(p.P0, p.P1, p.L0, p.N, p.dim, opts, clamp=(p.V0, p.V1))
    return _package(X, info)


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
