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
coordinates, so its LDL^T factorization gives it by the range-space method:
forward sweeps on the 1 + dim right-hand sides, a dim x dim Schur
complement from them, and one backward sweep.  In the plane the band is
tridiagonal, and one pass over its rows factors it and sweeps the three
right-hand sides together (_tri_kkt); in space the factorization records
its row operations, which each sweep replays (_band_kkt).
In space B's Hessian also adds, per turning vertex, terms along its
binormal; without them the step converges only linearly.  When the Newton
step does not descend, the positive definite (2/h) Laplacian
(x) I_{dim-1} alone gives a step that always does.  Each trial is
restored onto closure by Gauss-Newton (a dim x dim normal matrix), which
stops once the exactly rounded residual is at the rounding floor of the
n-term tangent sum, 8 sqrt(n) eps edge lengths, and hands that residual
to the next step.  A trial is accepted
on Armijo decrease of B, with one exception at B's floating-point
floor: once a step changes B by no more
than the rounding bound n eps |B| of the n-term energy sum, the sign of
that change is noise, and the step is accepted only when it cuts
grad_norm by a fixed factor (the stationarity residual is the merit
function there).  Such a step may raise B by at most that bound.
When no step is accepted the solve ends with termination "floor".

The descent runs once, at the problem's N, from the circular arc of length
L0 through the endpoints, optionally perturbed by a seeded smooth field;
the always descending Laplacian step is its globalization.  Clamped, the
end edges along V0 and V1 are joined by such an arc, and the kinks where
they meet are spread over the nearest free tangents; that start is closed
in a metric that moves the tangents next to the clamped ends least, so
closure keeps the spread.  Each iterate, the last included, has a log
row with its B, grad_norm and constraint residual, and the step taken
from it: length t and direction "newton" or "laplacian" (None if none),
the trials rejected before it (backtracks) and the Gauss-Newton steps of
all its trials' closures (closure_steps).

grad_norm (compared against tol) is |r| L0, with r = g - A^T nu the reduced
gradient that the step solves with: B's gradient g in the frame coordinates
of the free edges less the closure forces A^T nu, nu the least-squares
multiplier.  r scales as 1/L0, so grad_norm and tol are dimensionless, and
a problem scaled by any length takes the same steps.  The default tol,
_TOL_PER_EDGE N, is calibrated so that the benchmark's solves take no fewer
steps than under the vertex-space test it replaced (1e-8 N against the
projected vertex gradient, which scaled as 1/L0^2): 3.61 accepted steps
per solve against 3.55 over the first 8 rounds of minimize_solve at seed
424242, where 1e-8 N would give 3.27.

The multiplier lam of the elastica equation 2 k_ss + k^3 - lam k = 0 comes
from the closure multiplier of the last iterate (_multiplier), in the plane
and in space; the taut clamped segment has none (NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import _require_count
from .discrete import DiscreteCurve, _cross, _pairs, _row_norms, _turn, _turn_ratio, length
from .errors import MAX_COUNT, DomainError

__all__ = [
    "PinnedProblem",
    "ClampedProblem",
    "MinimizeOptions",
    "MinimizeResult",
    "energy_gradient",
    "minimize_pinned",
    "minimize_clamped",
]

_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_TRIALS = 30
_MAX_TURN = 0.5  # largest rotation of any tangent in a trial step, radians
_CLOSURE_TOL = 1e-12  # closure residual target, in edge lengths
_RIDGE = 1e-10  # relative shift keeping the free-end Laplacian invertible
_TOL_PER_EDGE = 3e-10  # default tol per edge, on the dimensionless grad_norm
_FLOOR_GRAD_FACTOR = 0.5  # grad_norm cut a floor step must achieve
_PERTURB_AMP = 0.03  # seeded perturbation of the initial arc, relative to L0
_KINK_SPREAD = 0.15  # share of the free edges over which each clamped end's kink is spread
_SCALE = (2.0**-240, 2.0**510)  # least h, largest length: N (8 pi / h^2)^2 and squares stay finite


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
    _require_count(N, 8, "N", MAX_COUNT)
    if not (L0 / N >= _SCALE[0] and max(L0, *np.abs(P0), *np.abs(P1)) <= _SCALE[1]):
        raise DomainError("problem scale outside the floats: L0/N < 2^-240 or L0, |P| > 2^510")
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
            if not abs(np.linalg.norm(V) - 1.0) <= 1e-9:  # NaN fails too
                raise DomainError("clamped tangents must be finite unit vectors")
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
    tol: float | None = None  # dimensionless (on grad_norm = |r| L0); default _TOL_PER_EDGE * N
    max_iters: int = 2000
    seed: int | None = None  # smooth random perturbation (_PERTURB_AMP) of the initial arc

    def __post_init__(self):
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError("tol must be None or a finite value > 0")
        _require_count(self.max_iters, 1, "max_iters")
        if self.seed is not None:
            _require_count(self.seed, 0, "seed")


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

    B = sum_i w_i theta_i^2 with w = 2 / (a + b), theta the turning angle
    between the unit tangents t_a, t_b of the incoming and outgoing edges
    and a, b their lengths.  On the sphere grad_{t_a} theta^2 =
    -2 (theta / sin theta)(t_b - cos(theta) t_a), which stays smooth through
    theta = 0; the chain rule through t = e / l divides it by a, and the
    weight adds -(w^2 theta^2 / 2) t_a for the change in length.  Vertex j
    receives the gradient of edge j - 1 minus that of edge j.
    """
    t = c.edges / c.edge_lengths[:, None]
    ta, tb = _pairs(c, t)
    a, b = _pairs(c, c.edge_lengths)
    theta, d, n = _turn(ta, tb)
    w = 2.0 / (a + b)
    s = -2.0 * w * _turn_ratio(theta, n)
    # exactly collinear corners: theta = 0 kills every term, but t_b - t_a
    # can keep a rounding crumb that the 1/l factor amplifies
    s[(n == 0.0) & (d > 0.0)] = 0.0
    stretch = (0.5 * (w * theta) ** 2)[:, None]
    g_a = (s / a)[:, None] * (tb - d[:, None] * ta) - stretch * ta
    g_b = (s / b)[:, None] * (ta - d[:, None] * tb) - stretch * tb
    if c.closed:  # edge j leaves vertex j and enters vertex j + 1
        G = g_b + np.roll(g_a, -1, axis=0)
        return np.roll(G, 1, axis=0) - G
    zero = np.zeros((1, c.dim))
    G = np.vstack([zero, g_b]) + np.vstack([g_a, zero])
    return -np.diff(np.vstack([zero, G, zero]), axis=0)


# ---------------------------------------------------------------------------
# the chain in edge-tangent coordinates

def _schur(W: list, inv: list, resid: np.ndarray):
    """D^-1 (W_g + W_A mu) as a list, mu from the Schur system
    W_A D^-1 W_A^T mu = resid - W_A D^-1 W_g of the forward sweeps W =
    [W_g, *W_A] and reciprocal pivots inv; None when it is singular."""
    W, inv = np.array(W), np.array(inv)
    Wg, WA = W[0], W[1:]
    DWA = WA * inv
    try:
        mu = np.linalg.solve(DWA @ WA.T, resid - DWA @ Wg)
    except np.linalg.LinAlgError:
        return None
    return (inv * (Wg + mu @ WA)).tolist()


def _band_kkt(band: np.ndarray, r: np.ndarray, Ef: np.ndarray, resid: np.ndarray):
    """The step dy of the KKT system S dy + Ef mu = -r, Ef^T dy = -resid,
    for symmetric banded S (band[q, i] = S[i, i + q], q = 0..p), by the
    range-space method (Nocedal and Wright, Numerical Optimization, 2nd ed.,
    16.2).  S = L D L^T without pivoting, on Python floats (faster than
    per-row NumPy at chain sizes), records its row operations (j, i, l),
    row j -= l * row i; the forward sweeps replay them to give W = L^-1 [r,
    Ef], the Schur complement Ef^T S^-1 Ef is W_A^T D^-1 W_A, and a single
    backward sweep gives dy = -L^-T D^-1 (W_g + W_A mu).  D may hold pivots
    of both signs.  None at a zero pivot or a singular Schur matrix."""
    p1, n = band.shape
    # p unit rows of padding spare the loops their bounds checks
    U = [row + [float(q == 0)] * (p1 - 1) for q, row in enumerate(band.tolist())]
    piv = U[0]
    steps = [(q, U[q], [(U[m], U[q + m]) for m in range(p1 - q)]) for q in range(1, p1)]
    ops = []
    push = ops.append
    try:
        for i in range(n):
            d = piv[i]
            for q, Uq, pairs in steps:
                lq = Uq[i] / d
                j = i + q
                push((j, i, lq))
                for Um, Uqm in pairs:
                    Um[j] -= lq * Uqm[i]
        inv = [1.0 / d for d in piv]
    except ZeroDivisionError:
        return None
    pad = [0.0] * (p1 - 1)
    W = []
    for y in [r.tolist(), *Ef.T.tolist()]:
        y += pad
        for j, i, lq in ops:
            y[j] -= lq * y[i]
        W.append(y)
    z = _schur(W, inv, resid)
    if z is None:
        return None
    for j, i, lq in reversed(ops):
        z[i] -= lq * z[j]
    return -np.array(z[:n])


def _tri_kkt(band: np.ndarray, r: np.ndarray, Ef: np.ndarray, resid: np.ndarray):
    """_band_kkt(band, r, Ef, resid) for a tridiagonal band (2, n) and two
    constraint columns Ef (n, 2), the floats included, in one pass over the
    rows: each row's pivot and multiplier l are applied at once to the three
    right-hand sides [r, Ef], and the multipliers are kept for the backward
    sweep z_i -= l_i z_{i+1}."""
    dg, off = band.tolist()
    dg.append(1.0)  # _band_kkt's row of padding: pivot 1, right-hand sides 0
    g, ea, eb = (y + [0.0] for y in [r.tolist(), *Ef.T.tolist()])
    d, wg, wa, wb = dg[0], g[0], ea[0], eb[0]
    Wg, Wa, Wb, inv, ls = [wg], [wa], [wb], [], []
    try:
        for o, dn, gn, an, bn in zip(off, dg[1:], g[1:], ea[1:], eb[1:]):
            l = o / d
            inv.append(1.0 / d)
            ls.append(l)
            d = dn - l * o
            wg = gn - l * wg
            wa = an - l * wa
            wb = bn - l * wb
            Wg.append(wg)
            Wa.append(wa)
            Wb.append(wb)
        inv.append(1.0 / d)
    except ZeroDivisionError:
        return None
    z = _schur([Wg, Wa, Wb], inv, resid)
    if z is None:
        return None
    zi = z.pop()
    for i in range(len(z) - 1, -1, -1):
        z[i] = zi = z[i] - ls[i] * zi
    return -np.array(z)


def _rotate(T: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Move each unit tangent T_i along the great circle in the direction of
    the tangent vector D_i, through the angle |D_i| (the exponential map)."""
    r = _row_norms(D)
    sinc = np.sin(r) / np.where(r > 0.0, r, 1.0)  # rows with r = 0 are zero: any factor does
    out = np.cos(r)[:, None] * T + sinc[:, None] * D
    return out / _row_norms(out)[:, None]


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
    U = _cross(ref, T)
    U /= _row_norms(U)[:, None]
    V = _cross(T, U)
    # R u = c u + k x u + (k.u) k / (1 + c), k = T_{i-1} x T_i, c = T_{i-1}.T_i
    k = _cross(T[:-1], T[1:])
    c = np.einsum("ij,ij->i", T[:-1], T[1:])
    Up = U[:-1]
    ku = np.einsum("ij,ij->i", k, Up) / (1.0 + c)
    PU = c[:, None] * Up + _cross(k, Up) + ku[:, None] * k
    tau = np.arctan2(np.einsum("ij,ij->i", PU, V[1:]), np.einsum("ij,ij->i", PU, U[1:]))
    beta = np.concatenate([[0.0], np.cumsum(tau)])
    cb, sb = np.cos(beta)[:, None], np.sin(beta)[:, None]
    return np.stack([cb * U + sb * V, cb * V - sb * U], axis=1)


def _energy(T: np.ndarray, h: float) -> float:
    """B = sum theta_i^2 / h, the bending energy of the equal-edge chain."""
    theta = _turn(T[:-1], T[1:])[0]
    return float(np.dot(theta, theta)) / h


def _tangent_gradient(T: np.ndarray, h: float) -> np.ndarray:
    """Gradient of B with respect to each unit tangent, in its tangent plane.

    On the sphere grad_b theta^2 = -2 (theta / sin theta)(a - cos(theta) b)
    for theta the angle between unit vectors a and b.
    """
    a, b = T[:-1], T[1:]
    theta, d, n = _turn(a, b)
    w = (-2.0 / h) * _turn_ratio(theta, n)[:, None]
    G = np.zeros_like(T)
    G[1:] += w * (a - d[:, None] * b)
    G[:-1] += w * (b - d[:, None] * a)
    return G


def _residual(T: np.ndarray, target: np.ndarray) -> list[float]:
    """Closure residual sum(T) - target, exactly rounded, as a list.

    A plain float sum of N tangents toward a target of size up to N is off
    by ~N eps |target|; the energy moves with that error times the closure
    multiplier, well above its own rounding bound on tightly bent chains.
    """
    return [math.fsum([*col, -t]) for col, t in zip(T.T.tolist(), target.tolist())]


def _closure_floor(n: int) -> float:
    """Rounding floor of a closure residual summed over n unit tangents,
    in edge lengths: 8 sqrt(n) eps.  Each tangent carries rounding of
    about eps, and n independent errors add up to about sqrt(n) of them: a
    Gauss-Newton step leaves at most 2.7 sqrt(n) eps for n <= 4096, and
    steps from below the floor only move that noise.  It passes
    _CLOSURE_TOL only for n above 3e5."""
    return 8.0 * math.sqrt(n) * np.finfo(float).eps


def _close(T: np.ndarray, target: np.ndarray, a: int, b: int, w: np.ndarray):
    """Rotate the free tangents a..b-1 until sum(T) = target (closure);
    returns the tangents, their exactly rounded residual (_residual) and
    the number of Gauss-Newton steps taken.

    Gauss-Newton with steps of least weighted norm: tangent i moves by
    w_i P_i lam, P_i = I - T_i T_i^T, with the dim x dim normal matrix
    sum w_i P_i, for the weights w of the free tangents.  The descent's
    weights are all 1, which leaves every float of the unweighted step: a
    sum or product of 1.0 is exact.  The residual counts as closed at the
    rounding floor of the n-term sum (_closure_floor): a chain already
    there takes no step.  Between that floor and _CLOSURE_TOL one more
    step is taken, because B moves with the closure residual times the
    multiplier, and energies are compared near their rounding floor.  The
    tangents and residual are None when it does not converge.
    """
    T = T.copy()
    floor = _closure_floor(len(T))
    w = w[:, None]
    wI = float(w.sum()) * np.eye(T.shape[1])
    closed = False
    for steps in range(30):
        rl = _residual(T, target)
        r = np.array(rl)
        err = max(map(abs, rl))
        if err <= floor or (closed and err <= _CLOSURE_TOL):
            return T, r, steps
        closed = err <= _CLOSURE_TOL
        Tf = T[a:b]
        try:
            lam = np.linalg.solve(wI - (w * Tf).T @ Tf, -r)
        except np.linalg.LinAlgError:
            return None, None, steps
        move = lam - (Tf @ lam)[:, None] * Tf
        T[a:b] = _rotate(Tf, w * move)
    return None, None, 30


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
    One assembly serves the plane and space: the diagonal blocks D and the
    off-diagonal blocks O of every edge, the binormal terms when dim = 3,
    and the upper band of the interleaved ordering.  The KKT system is
    solved from the LDL^T factorization of H by 1 + dim forward sweeps, a
    dim x dim Schur complement and one backward sweep: in the plane H is
    tridiagonal and _tri_kkt factors it and sweeps in one pass over the
    rows; in space (half-bandwidth 3) _band_kkt records the elimination and
    replays it on each right-hand side.
    """
    n, dm, dim = E.shape
    nf = b - a
    deg = np.full(nf, 2.0)
    if a == 0:
        deg[[0, -1]] = 1.0  # the end edges touch one turning vertex
    eye = np.eye(dm)
    D = (deg + _RIDGE)[:, None, None] * eye  # in units of 2/h
    O = np.empty((nf - 1, dm, dm))
    O[:] = -eye
    if nu is not None:
        D += ((0.5 * h) * (T[a:b] @ nu))[:, None, None] * eye
    if nu is not None and dm == 2:
        theta, c, sn = _turn(T[:-1], T[1:])
        ratio = _turn_ratio(theta, sn)
        k = _cross(T[:-1], T[1:]) / np.maximum(sn, 1e-300)[:, None]
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
    dy = (_tri_kkt if dm == 1 else _band_kkt)((2.0 / h) * band, r.ravel(), Ef, resid)
    return None if dy is None or not np.all(np.isfinite(dy)) else dy.reshape(nf, dm)


def _vertices(T: np.ndarray, P0: np.ndarray, P1: np.ndarray, h: float) -> np.ndarray:
    X = np.empty((len(T) + 1, len(P0)))
    X[0] = P0
    X[1:] = P0 + h * np.cumsum(T, axis=0)
    X[-1] = P1
    return X


def _perturbed(T, P0, P1, h, a, rng, amp):
    """Tangents of the chain with a smooth perturbation of its vertices (sine
    modes 2..6) added; the ends and, when clamped, the end tangents stay put."""
    t = np.linspace(0.0, 1.0, len(T) + 1)[:, None]
    modes = (rng.standard_normal(len(P0)) / k**2 * np.sin(k * math.pi * t) for k in range(2, 7))
    pert = amp * sum(modes)
    pert[[0, -1]] = 0.0
    if a:
        pert[[1, -2]] = 0.0
    E = np.diff(_vertices(T, P0, P1, h) + pert, axis=0)
    Tp = E / _row_norms(E)[:, None]
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
    while lo < (phi := 0.5 * (lo + hi)) < hi:  # until the bracket closes
        if math.sin(phi) / phi > d / L0:
            lo = phi
        else:
            hi = phi
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


def _unkinked(T: np.ndarray, target: np.ndarray, m: int) -> np.ndarray:
    """The clamped chain T with the kink at each clamped joint spread over
    the m free tangents next to it, then closed (_close) in a metric that
    keeps the spread: the j-th free tangent from the nearer clamped end,
    j = 0, 1, ..., moves with weight min(1, j/(m + 1)), so the one next to
    a clamped edge stays put.  The j-th free tangent from the end at V0
    turns about T[1] x V0 (Rodrigues' formula) through (m - j)/(m + 1) of
    the kink angle, j = 0..m-1, leaving m + 1 equal kinks; likewise at V1.
    A plane chain is padded to 3-D and stays flat.  The pass repeats, at
    most 8 times, while a clamped joint turns more than the sharpest free
    one."""
    n, dim = T.shape
    share = (m - np.arange(m)) / (m + 1)
    j = np.arange(n - 2)
    w = np.minimum(1.0, np.minimum(j, j[::-1]) / (m + 1))
    for _ in range(8):
        theta = _turn(T[:-1], T[1:])[0]
        if max(theta[0], theta[-1]) <= np.max(theta[1:-1]):
            break
        T3 = np.zeros((n, 3))
        T3[:, :dim] = T
        for F, V in ((T3[1 : m + 1], T3[0]), (T3[-2 : -m - 2 : -1], T3[-1])):
            k = np.cross(F[0], V)
            s = float(np.linalg.norm(k))
            if s > 0.0:  # no kink, or a reversal with no axis: left as it is
                k /= s
                phi = math.atan2(s, float(F[0] @ V)) * share
                c, sn = np.cos(phi)[:, None], np.sin(phi)[:, None]
                F[:] = c * F + sn * np.cross(k, F) + (1.0 - c) * (F @ k)[:, None] * k
        closed = _close(T3[:, :dim], target, 1, n - 1, w)[0]
        if closed is None:
            break
        T = closed
    return T


def _reduced_gradient(T: np.ndarray, h: float, a: int, b: int):
    """Frames E of all edges (_frames), the least-squares closure multiplier
    nu, the reduced gradient r = g - A^T nu of the free edges a..b-1 (the
    slope of the Lagrangian B - nu . closure in their frame coordinates, g
    B's gradient and A the closure Jacobian) and grad_norm = |r| L0."""
    E = _frames(T)
    Ef, Tf = E[a:b], T[a:b]
    g = np.einsum("iad,id->ia", Ef, _tangent_gradient(T, h)[a:b])
    nu = np.linalg.solve((b - a) * np.eye(T.shape[1]) - Tf.T @ Tf, np.einsum("iaj,ia->j", Ef, g))
    r = g - np.einsum("iaj,j->ia", Ef, nu)
    return E, nu, r, float(np.linalg.norm(r)) * len(T) * h


def _multiplier(T: np.ndarray, nu: np.ndarray, h: float) -> float:
    """lam from the closure multiplier nu: the force (k^2 - lam) T + 2 k_s N +
    2 k tau B is constant along an elastica (Langer and Singer) and -nu / h
    on the chain, so lam = k^2 + nu . T / h, averaged over the interior
    edges, with k^2 the mean of (theta / h)^2 at the edge's two vertices."""
    k2 = (_turn(T[:-1], T[1:])[0] / h) ** 2
    return float(np.mean(0.5 * (k2[:-1] + k2[1:]) + (T[1:-1] @ nu) / h))


def _log_row(it: int, B: float, grad_norm: float, residual: float, n: int) -> dict:
    """The log row of an iterate; its step fields stay at these values
    until a step from it is tried."""
    return {"iteration": it, "B": B, "grad_norm": grad_norm, "max_constraint_residual": residual,
            "N": n, "t": None, "direction": None, "backtracks": 0, "closure_steps": 0}


def _descend(T, P0, P1, h, a, tol, max_iters):
    """Descent from the tangents T of a chain of n edges.  The free
    tangents are a..b-1 (a = 1 when the end tangents are clamped); closure
    is sum(T) = (P1 - P0) / h.  Every iterate, the last included, has a log
    row; iterations counts the accepted steps.  A row's backtracks counts
    the trials rejected from its iterate, and closure_steps the Gauss-Newton
    steps of all its trials' closures (the start's closure is in no row)."""
    n = len(T)
    b = n - a
    target = (P1 - P0) / h
    w = np.ones(b - a)  # closure moves every free tangent alike
    T, resid, _ = _close(T, target, a, b, w)
    if T is None:
        raise DomainError("could not close the initial curve on the endpoints")
    B = _energy(T, h)
    log = []
    for it in range(max_iters + 1):
        # the step solves with r instead of g, which keeps it accurate
        # relative to r, all that is left of g near a critical point
        E, nu, r, grad_norm = _reduced_gradient(T, h, a, b)
        el = _row_norms(np.diff(_vertices(T, P0, P1, h), axis=0))
        log.append(_log_row(it, B, grad_norm, float(np.max(np.abs(el - h))) / h, n))
        if grad_norm < tol or it == max_iters:
            end = "converged" if grad_norm < tol else "budget"
            return T, B, _multiplier(T, nu, h), grad_norm, it, end, log
        Tf, Ef = T[a:b], E[a:b]
        # the Newton step first; when it does not descend, the Laplacian
        # step, which always does
        floor = _rounding_bound(B, n - 1)
        accepted = False
        trials = steps = 0
        for curved in (nu, None):
            dy = _direction(T, E, r, resid, h, a, b, curved)
            if dy is None:
                continue
            slope = float(np.sum(r * dy))
            if not slope < 0.0:
                continue
            D = np.einsum("ia,iad->id", dy, Ef)
            t = min(1.0, _MAX_TURN / float(np.max(_row_norms(D))))
            for _ in range(_MAX_TRIALS):
                trials += 1
                Tt = T.copy()
                Tt[a:b] = _rotate(Tf, t * D)
                Tt, rt, k = _close(Tt, target, a, b, w)
                steps += k
                if Tt is not None:
                    Bt = _energy(Tt, h)
                    if Bt < B - floor and Bt <= B + _ARMIJO_C * t * slope:
                        accepted = True
                        break
                    # at the rounding floor of B the sign of Bt - B is noise;
                    # the step is judged by the stationarity residual instead,
                    # and shorter steps cannot do better
                    if abs(Bt - B) <= floor:
                        gn = _reduced_gradient(Tt, h, a, b)[3]
                        accepted = gn <= _FLOOR_GRAD_FACTOR * grad_norm
                        break
                t *= _BACKTRACK
            if accepted:
                T, B, resid = Tt, Bt, rt
                log[-1].update(t=t, direction="laplacian" if curved is None else "newton")
                break
        log[-1].update(backtracks=trials - accepted, closure_steps=steps)
        if not accepted:
            return T, B, _multiplier(T, nu, h), grad_norm, it, "floor", log


def _package(X, info):
    B, lam, grad_norm, iters, termination, log = info
    curve = DiscreteCurve(X, closed=False)
    return MinimizeResult(
        curve=curve,
        B=B,
        Bbar=length(curve) * B,
        lambda_est=lam,
        grad_norm=grad_norm,
        iterations=iters,
        converged=termination == "converged",
        saddle_perturbed=False,
        termination=termination,
        log=tuple(log),
    )


def _solve(p, opts: MinimizeOptions, clamp=None) -> MinimizeResult:
    """One descent at the problem's N from the circular arc: the whole arc
    when pinned; when clamped, the clamped end edges joined by the arc from
    P0 + h V0 to P1 - h V1, its end kinks spread (_unkinked)."""
    P0, P1, N, dim = p.P0, p.P1, p.N, p.dim
    h = p.L0 / N
    a = 0 if clamp is None else 1
    if clamp is None:
        X0 = _arc_initial(P0, P1, p.L0, N, dim)
    else:
        X0 = np.empty((N + 1, dim))
        X0[1:-1] = _arc_initial(P0 + h * clamp[0], P1 - h * clamp[1], (N - 2) * h, N - 2, dim,
                                clamp[0] - clamp[1])
        X0[0], X0[-1] = P0, P1
    E0 = np.diff(X0, axis=0)
    T0 = E0 / _row_norms(E0)[:, None]
    if opts.seed is not None:
        T0 = _perturbed(T0, P0, P1, h, a, np.random.default_rng(opts.seed), _PERTURB_AMP * p.L0)
    if clamp is not None:
        T0[0], T0[-1] = clamp
        T0 = _unkinked(T0, (P1 - P0) / h, math.ceil(_KINK_SPREAD * (N - 2)))
    tol = opts.tol if opts.tol is not None else _TOL_PER_EDGE * N
    T, *info = _descend(T0, P0, P1, h, a, tol, opts.max_iters)
    return _package(_vertices(T, P0, P1, h), info)


def minimize_pinned(p: PinnedProblem, opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """Minimize bending energy over curves of length L0 from P0 to P1 with
    free end tangents (natural boundary condition: end curvature -> 0)."""
    return _solve(p, opts)


def minimize_clamped(p: ClampedProblem, opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """As minimize_pinned, with the first/last edge directions clamped to
    V0 and V1."""
    if p.is_taut:
        # the straight segment is the only curve in the constraint set
        t = np.linspace(0.0, 1.0, p.N + 1)[:, None]
        X = (1.0 - t) * p.P0 + t * p.P1
        return _package(X, (0.0, math.nan, 0.0, 0, "converged", [_log_row(0, 0.0, 0.0, 0.0, p.N)]))
    return _solve(p, opts, clamp=(p.V0, p.V1))

