"""Planar elastica curves, the figure-eight constants, and leafed closures.

Point-level parametrizations of the five planar families (canonical pose,
unit frequency, composed with a similarity), the figure-eight modulus m*
solving 2E(m) = K(m), the half-leaf energy constant varpi* and the leaf
spread angle psi, leafed-elastica construction in the plane (even leaf
count, mirrored leaves) and in space (tangent chains on the sphere), the
elastica of a curvature profile in closed form (planar or spatial), and a
least-squares classifier for closed planar curves (circle / figure-eight /
neither).

Canonical curves, arclength-parametrized with curvature kappa:

    linear      (s, 0)                                    kappa = 0
    wavelike    (2 eps(s,m) - s, -2 sqrt(m) cn(s,m))      kappa = 2 sqrt(m) cn
    borderline  (2 tanh s - s, -2 sech s)                 kappa = 2 sech s
    orbitlike   (s - 2 int_0^s sn^2, 2 sn^2 / (1 + dn))    kappa = 2 dn
    circular    (sin s, -cos s)                           kappa = 1

where eps(s,m) is the Jacobi epsilon function.  The orbitlike row is the
paper's (1/m)(2 eps + (m-2) s, -2 dn) moved by (0, 2/m), since int_0^s sn^2
= (s - eps)/m: no 1/m is left to cancel as m -> 0.  The wavelike tangential
angle is theta_w = 2 arcsin(sqrt(m) sn), the orbitlike one theta_o = 2 am.
A similarity of scale Lam (and a reflection, for the sign) gives the signed
curvature +-kappa(s/Lam + s0)/Lam, i.e. +-A cn/sech/dn(alpha s + s0) with
alpha = 1/Lam and A = 2 sqrt(m) alpha (wavelike) or 2 alpha (borderline,
orbitlike); the circle has radius Lam.  This module is the one place the
five families are described; `profiles` holds the unified (m, w, A, s0)
curvature profile that covers them and the spatial elasticae.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .elliptic import (
    _cosh, _shape_like, _sn2_pi, am, cn, comp_E, comp_K, dn, jacobi_epsilon, sn, sncndn,
)
from .errors import (
    MAX_COUNT, DomainError, InfeasibleError, _frozen, _require_count, _require_finite,
    _require_positive, _require_real, _step_count,
)

if TYPE_CHECKING:  # imported where used: loading curves loads neither module
    from .discrete import DiscreteCurve
    from .profiles import CurvatureProfile

__all__ = [
    "figure_eight_modulus",
    "varpi_star",
    "leaf_spread_angle",
    "Similarity",
    "PlanarElastica",
    "eval_planar",
    "eval_theta",
    "eval_k",
    "planar_state",
    "Leaf",
    "canonical_leaf",
    "spherical_chain",
    "LeafedElastica",
    "build_leafed",
    "sample_leafed",
    "ClassifyResult",
    "classify_closed",
    "reconstruct_spatial",
]

# ---------------------------------------------------------------------------
# figure-eight constants

@lru_cache(maxsize=1)
def figure_eight_modulus() -> float:
    """The unique m* in (0,1) with 2E(m*) = K(m*): the least float at which
    2E - K <= 0.

    m -> 2E(m) - K(m) decreases strictly from pi/2 to -inf, so bisection
    brackets the root; it runs until the midpoint rounds to an end, when
    lo and hi are adjacent floats with 2E - K > 0 at lo and <= 0 at hi.
    """
    f = lambda m: 2.0 * comp_E(m) - comp_K(m)
    lo, hi = 0.5, 0.95  # f(0.5) > 0 >= f(0.95)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    if not abs(f(hi)) < 1e-13:
        raise RuntimeError("figure-eight modulus did not converge")
    return hi


@lru_cache(maxsize=1)
def varpi_star() -> float:
    """Normalized bending energy of one leaf: 32 (2m* - 1) E(m*)^2 = 28.109..."""
    m = figure_eight_modulus()
    return 32.0 * (2.0 * m - 1.0) * comp_E(m) ** 2


@lru_cache(maxsize=1)
def leaf_spread_angle() -> float:
    """Angle psi in (0, pi) between the leaf's start and end unit tangents:
    2 pi - 4 arcsin(sqrt(m*))."""
    return 2.0 * math.pi - 4.0 * math.asin(math.sqrt(figure_eight_modulus()))


# ---------------------------------------------------------------------------
# similarities

@dataclass(frozen=True)
class Similarity:
    """p -> translation + scale * Rot(rotation) * Mirror^reflect * p,
    with Mirror = diag(1, -1)."""

    rotation: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)
    scale: float = 1.0
    reflect: bool = False

    def __post_init__(self):
        _require_real(self.rotation, "similarity rotation")
        _require_finite(self.translation, "similarity translation")
        _require_positive(self.scale, "similarity scale")

    def apply(self, x, y):
        if self.reflect:
            y = -np.asarray(y)
        ca, sa = math.cos(self.rotation), math.sin(self.rotation)
        tx, ty = self.translation
        return (
            tx + self.scale * (ca * np.asarray(x) - sa * np.asarray(y)),
            ty + self.scale * (sa * np.asarray(x) + ca * np.asarray(y)),
        )


# ---------------------------------------------------------------------------
# planar families

FAMILY_TAGS = ("linear", "wavelike", "borderline", "orbitlike", "circular")


@dataclass(frozen=True)
class PlanarElastica:
    """A planar elastica: canonical family member composed with a similarity.

    Evaluation at arclength s uses the canonical parameter u = s/scale + s0,
    so the transformed curve stays unit-speed in s.
    """

    family: str
    m: float | None = None
    similarity: Similarity = field(default_factory=Similarity)
    s0: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILY_TAGS:
            raise DomainError(f"unknown family {self.family!r}")
        if self.family in ("wavelike", "orbitlike"):
            if self.m is None or not 0.0 < self.m < 1.0:
                raise DomainError(f"{self.family} needs m in (0,1)")
        elif self.m is not None:
            raise DomainError(f"{self.family} takes no modulus")
        _require_real(self.s0, "phase s0")

    @property
    def period(self) -> float:
        """Arclength period of the signed curvature: 2 pi (circular), 4K(m)
        (wavelike) or 2K(m) (orbitlike), times the similarity scale; inf for
        the aperiodic linear and borderline families."""
        if self.family == "circular":
            canon = 2.0 * math.pi
        elif self.family == "wavelike":
            canon = 4.0 * comp_K(self.m)
        elif self.family == "orbitlike":
            canon = 2.0 * comp_K(self.m)
        else:
            return math.inf
        return canon * self.similarity.scale


def _canon_point(tag: str, m, s):
    if tag == "linear":
        return s, np.zeros_like(s)
    if tag == "wavelike":
        return 2.0 * jacobi_epsilon(s, m) - s, -2.0 * math.sqrt(m) * cn(s, m)
    if tag == "borderline":
        return 2.0 * np.tanh(s) - s, -2.0 / _cosh(s)
    if tag == "orbitlike":  # the paper's (2 eps + (m-2) s, -2 dn) / m moved by (0, 2/m)
        sn_, _, dn_ = sncndn(s, m)
        return s - 2.0 * _sn2_pi(s, 1.0, m), 2.0 * sn_ * sn_ / (1.0 + dn_)
    return np.sin(s), -np.cos(s)  # circular


def _canon_theta(tag: str, m, s):
    if tag == "linear":
        return np.zeros_like(s)
    if tag == "wavelike":
        return 2.0 * np.arcsin(math.sqrt(m) * sn(s, m))
    if tag == "borderline":
        return 2.0 * np.arcsin(np.tanh(s))
    if tag == "orbitlike":
        return 2.0 * am(s, m)
    return s + np.zeros_like(s)


def _canon_k(tag: str, m, s):
    if tag == "linear":
        return np.zeros_like(s)
    if tag == "wavelike":
        return 2.0 * math.sqrt(m) * cn(s, m)
    if tag == "borderline":
        return 2.0 / _cosh(s)
    if tag == "orbitlike":
        return 2.0 * dn(s, m)
    return 1.0 + np.zeros_like(s)  # circular


def _canon_k_prime(tag: str, m, s):
    if tag == "wavelike":
        return -2.0 * math.sqrt(m) * sn(s, m) * dn(s, m)
    if tag == "borderline":
        return -2.0 * np.tanh(s) / _cosh(s)
    if tag == "orbitlike":
        return -2.0 * m * sn(s, m) * cn(s, m)
    return np.zeros_like(s)  # linear, circular


def _canon_arg(e: PlanarElastica, s) -> np.ndarray:
    """Canonical parameter u = s/scale + s0 of arclength s; it must be finite."""
    with np.errstate(over="ignore"):
        return _require_finite(np.asarray(s, dtype=float) / e.similarity.scale + e.s0,
                               "arclength s and s/scale + s0")


def eval_planar(e: PlanarElastica, s):
    """Point at arclength s (arrays allowed): similarity of the canonical curve."""
    u = _canon_arg(e, s)
    x, y = e.similarity.apply(*_canon_point(e.family, e.m, u))
    return _shape_like(s, x, y)


def eval_theta(e: PlanarElastica, s):
    """Tangential angle: d/ds eval_planar = (cos theta, sin theta)."""
    u = _canon_arg(e, s)
    th = _canon_theta(e.family, e.m, u)
    if e.similarity.reflect:
        th = -th
    return _shape_like(s, th + e.similarity.rotation)


def eval_k(e: PlanarElastica, s):
    """Signed curvature: d/ds eval_theta."""
    u = _canon_arg(e, s)
    k = _canon_k(e.family, e.m, u) / e.similarity.scale
    if e.similarity.reflect:
        k = -k
    return _shape_like(s, k)


def planar_state(e: PlanarElastica, s: float):
    """(gamma, d1, d2, d3) of the curve at s — initial data for the
    position-form ODE.  d2 = k N, d3 = k' N - k^2 d1."""
    Lam = e.similarity.scale
    sgn = -1.0 if e.similarity.reflect else 1.0
    u = _canon_arg(e, s)
    th = float(eval_theta(e, s))
    k = float(eval_k(e, s))
    kp = sgn * float(_canon_k_prime(e.family, e.m, u)) / Lam**2
    x, y = eval_planar(e, s)
    d1 = np.array([math.cos(th), math.sin(th)])
    nrm = np.array([-math.sin(th), math.cos(th)])
    return np.array([x, y]), d1, k * nrm, kp * nrm - k * k * d1


# ---------------------------------------------------------------------------
# the leaf

@dataclass(frozen=True)
class Leaf:
    """Half figure-eight: the wavelike arc gamma_w(s - K(m*), m*) on
    s in [0, 2K(m*)].  Both endpoints sit at the origin (closure is exactly
    the condition 2E = K) with vanishing curvature.  It is evaluated by
    eval_planar, eval_theta and eval_k on `elastica`, the wavelike
    PlanarElastica at m* with phase s0 = -K."""

    m: float
    K: float

    @property
    def length(self) -> float:
        return 2.0 * self.K

    @cached_property
    def elastica(self) -> PlanarElastica:
        return PlanarElastica("wavelike", self.m, s0=-self.K)


@lru_cache(maxsize=1)
def canonical_leaf() -> Leaf:
    m = figure_eight_modulus()
    return Leaf(m=m, K=comp_K(m))


# ---------------------------------------------------------------------------
# tangent chains on the sphere and leafed elasticae

def spherical_chain(r: int, psi: float) -> np.ndarray:
    """r unit 3-vectors u_1..u_r with angle(u_i, u_{i+1 mod r}) = psi.

    r = 2 is a planar pair.  For r >= 3 the vectors lie on a cone about e_z
    that winds k times, so consecutive azimuths differ by 2 pi k / r and
    cos psi = cos^2(alpha) + sin^2(alpha) cos(2 pi k / r) fixes the cone's
    half-angle alpha; the smallest k in 1..r//2 with cos^2(alpha) in [0, 1]
    (psi <= 2 pi k / r) is taken.  Even r always fits, at k = r/2; odd r
    fits exactly when psi <= pi - pi/r, and InfeasibleError is raised above.
    """
    _require_count(r, 2, "r", MAX_COUNT)
    if not 0.0 < psi < math.pi:
        raise DomainError("need psi in (0, pi)")
    if r == 2:
        half = 0.5 * psi
        return np.array(
            [[math.cos(half), math.sin(half), 0.0], [math.cos(half), -math.sin(half), 0.0]]
        )
    cpsi = math.cos(psi)
    for k in range(1, r // 2 + 1):
        cgap = math.cos(2.0 * math.pi * k / r)
        c2 = (cpsi - cgap) / (1.0 - cgap)
        if 0.0 <= c2 <= 1.0:
            ca, sa = math.sqrt(c2), math.sqrt(1.0 - c2)
            phi = 2.0 * math.pi * k * np.arange(r) / r
            return np.column_stack([sa * np.cos(phi), sa * np.sin(phi), ca + 0.0 * phi])
    raise InfeasibleError(
        f"no {r}-chain at angle {psi:.6g}: odd r needs psi <= pi - pi/r = {math.pi - math.pi / r:.6g}"
    )


@dataclass(frozen=True)
class LeafedElastica:
    """r >= 2 canonical leaves joined C^1 at the origin.

    rotations[i], an orthogonal dim x dim matrix, places leaf i; there is
    no translation, since every leaf starts and ends at the origin.
    chain[i] is leaf i's start tangent, which equals leaf (i-1)'s end
    tangent.  Both arrays are read-only.
    """

    r: int
    dim: int
    rotations: np.ndarray  # (r, dim, dim)
    chain: np.ndarray

    def __post_init__(self):
        for name in ("rotations", "chain"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))


def _leaf_end_tangents(dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = 2.0 * math.asin(math.sqrt(figure_eight_modulus()))
    ts = np.array([math.cos(a), -math.sin(a), 0.0][:dim])
    te = np.array([math.cos(a), math.sin(a), 0.0][:dim])
    return ts, te


def _pair_frame(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # orthonormal (bisector, difference, normal) frame of a unit-vector pair
    p = a + b
    q = b - a
    p /= np.linalg.norm(p)
    q /= np.linalg.norm(q)
    return np.column_stack([p, q, np.cross(p, q)])


def build_leafed(r: int, dim: int) -> LeafedElastica:
    """Closed r-leafed elastica in R^dim.

    dim=2 alternates the leaf with its mirror image across the junction
    tangent bisector, giving the (r/2)-fold figure-eight; odd r is
    infeasible in the plane.  dim=3 places leaf i by the unique rotation
    taking the canonical start/end tangent pair to (u_i, u_{i+1}) from
    spherical_chain, keeping each leaf's plane through the pair bisector.
    """
    _require_count(r, 2, "r", MAX_COUNT)
    if dim not in (2, 3):
        raise DomainError("dim must be 2 or 3")
    ts, te = _leaf_end_tangents(dim)
    if dim == 2:
        if r % 2:
            raise InfeasibleError(
                "planar closed leafed elasticae need an even leaf count"
            )
        rotations = np.array([np.diag([1.0, (-1.0) ** i]) for i in range(r)])  # leaf, mirror, ...
        chain = np.array([ts if i % 2 == 0 else te for i in range(r)])
        return LeafedElastica(r=r, dim=2, rotations=rotations, chain=chain)

    chain = spherical_chain(r, leaf_spread_angle())
    F0 = _pair_frame(ts, te)
    rotations = np.array([_pair_frame(chain[i], chain[(i + 1) % r]) @ F0.T for i in range(r)])
    return LeafedElastica(r=r, dim=3, rotations=rotations, chain=chain)


def sample_leafed(le: LeafedElastica, n_per_leaf: int) -> DiscreteCurve:
    """Closed polyline with n_per_leaf vertices per leaf (junctions shared)."""
    from .discrete import DiscreteCurve

    _require_count(n_per_leaf, 3, "n_per_leaf")
    _require_count(len(le.rotations) * int(n_per_leaf), 3, "r * n_per_leaf", MAX_COUNT)
    leaf = canonical_leaf()
    s = np.arange(n_per_leaf) * (leaf.length / n_per_leaf)  # endpoint omitted
    x, y = eval_planar(leaf.elastica, s)
    pts = np.column_stack([x, y, np.zeros_like(x)][: le.dim])
    return DiscreteCurve(np.vstack([pts @ R.T for R in le.rotations]), closed=True)


# ---------------------------------------------------------------------------
# classification of closed planar curves

@dataclass(frozen=True)
class ClassifyResult:
    kind: str  # "circle" | "figure_eight" | "not_elastica"
    fold: int  # covering count (0 when not_elastica)
    residual: float  # rms misfit at the implied covering count, relative to max |k|


def classify_closed(curve: DiscreteCurve, tol: float = 1e-3) -> ClassifyResult:
    """Classify a closed, arclength-uniform planar curve by its curvature.

    Closed planar elasticae are the multiply covered circles and the
    figure-eights, so the signed discrete curvature is fitted to a constant
    and to the figure-eight profile 2 sqrt(m*)/Lam * cn((s - beta)/Lam, m*);
    a fit is accepted when its rms misfit is below tol * max |k|.  Both
    figure-eight parameters are read off in closed form.  One period of
    2 sqrt(m) cn turns through 8 arcsin sqrt(m) (the integral of cn over a
    quarter period is arcsin(k)/k), so the total curvature fixes the
    covering count mu.  The Fourier series of cn has only odd harmonics,
    all with positive coefficients (DLMF 22.11.2), so the phase of the
    curvature's fundamental at frequency 2 pi mu / L is the shift beta.
    The cost is O(N): one cn evaluation (a single sncndn call) over the
    vertices and one rms misfit.  tol must be finite and positive.
    """
    from .discrete import curvature_data, length

    _require_positive(tol, "tol")
    if not curve.closed:
        raise DomainError("classification applies to closed curves")
    if curve.dim != 2:
        raise DomainError("classification applies to planar curves")
    kappa, lbar, s = curvature_data(curve, signed=True)
    L = length(curve)
    w = lbar / L
    kmax = float(np.max(np.abs(kappa)))  # > 0: a closed polygon turns through 2 pi at least
    kbar = float(np.sum(w * kappa))
    rms_circle = math.sqrt(float(np.sum(w * (kappa - kbar) ** 2)))
    fold_f = abs(kbar) * L / (2.0 * math.pi)
    if rms_circle <= tol * kmax and abs(fold_f - round(fold_f)) < 0.05 and round(fold_f) >= 1:
        return ClassifyResult("circle", int(round(fold_f)), rms_circle / kmax)

    m = figure_eight_modulus()
    K = comp_K(m)
    tc = float(np.sum(np.abs(kappa) * lbar))
    mu = max(1, round(tc / (8.0 * math.asin(math.sqrt(m)))))
    omega = 2.0 * math.pi * mu / L
    beta = -float(np.angle(np.sum(w * kappa * np.exp(-1j * omega * s)))) / omega
    Lam = L / (4.0 * K * mu)
    model = (2.0 * math.sqrt(m) / Lam) * cn((s - beta) / Lam, m)
    rms = math.sqrt(float(np.sum(w * (kappa - model) ** 2)))
    if rms <= tol * kmax:
        return ClassifyResult("figure_eight", mu, rms / kmax)
    return ClassifyResult("not_elastica", 0, min(rms_circle, rms) / kmax)


# ---------------------------------------------------------------------------
# an elastica from its curvature profile, in closed form

def _planar_member(p: CurvatureProfile) -> PlanarElastica:
    """The planar family member whose signed curvature squares to
    kappa_sq(p), for a planar profile (w = 1 or w = m)."""
    if p.w < 1.0:  # w = m: kappa = A cn
        return PlanarElastica("wavelike", p.m, Similarity(scale=2.0 * math.sqrt(p.m) / p.A), p.s0)
    if p.m == 0.0:  # kappa = A
        return PlanarElastica("circular", similarity=Similarity(scale=1.0 / p.A), s0=p.s0)
    fam, m = ("borderline", None) if p.m == 1.0 else ("orbitlike", p.m)  # A sech, A dn
    return PlanarElastica(fam, m, Similarity(scale=2.0 / p.A), p.s0)


_BLOCK = 2**13  # steps per evaluation block of reconstruct_spatial: bounds its temporaries


def reconstruct_spatial(
    p: CurvatureProfile,
    frame0: np.ndarray,
    s_range: tuple[float, float],
    h: float,
) -> DiscreteCurve:
    """The elastica with curvature k = sqrt(kappa_sq) and torsion t = c/k^2
    that starts at the origin with Frenet frame frame0 (rows T0, N0, B0,
    orthonormal to 1e-12; a left-handed one is (T0, N0, T0 x N0) with
    c -> -c), at s_min + h' i, h' = (s_max - s_min) / n, n = round((s_max -
    s_min) / h) <= errors.MAX_COUNT.  Planar profiles (c = 0) give their
    planar family member laid onto (T0, N0), signed curvature included.
    Spatial ones (Langer and Singer 1984) are in cylindrical coordinates
    about the constant force J = (u - lam) T + 2k' N + 2kt B, u = k^2,
    |J|^2 = lam^2 + 4a: with d = u - lam, the height along J is the
    integral of d / |J|, and the position across J is, as a complex number,
    2 (u' - 2i c d / |J|) exp(i psi) / (|J| sqrt(Q)), Q = (u'^2 + 4c^2) / u,
    where psi, the angle of T across J, has psi' = c/(|J| - d) + c/(|J| + d):
    two integrals of the third kind.  Unlike the angle of the position, psi
    stays regular where the curve crosses its axis.

    Where the step is fine against the curve's turning, A h max(1, t_max/A)
    <= 2^-6, each vertex is the previous one plus the two-point Hermite
    integral of the closed-form tangent, exact to degree 5 (error h^7), and
    every block of 2^13 steps is corrected to end on the closed form: the
    rounding then accumulates smoothly, as an integrator's does, and finite
    differences of the vertices are as exact as the increments.
    """
    from .discrete import DiscreteCurve

    F = np.array(frame0, dtype=float)
    if F.shape != (3, 3) or not np.allclose(F @ F.T, np.eye(3), atol=1e-12):
        raise DomainError("frame0 must be an orthonormal (T, N, B) triple")
    _require_positive(h, "h")
    s_min, s_max = map(float, s_range)
    _require_positive(s_max - s_min, "s_range's s_max - s_min")
    n = _step_count(s_max - s_min, h)
    h = (s_max - s_min) / n
    s = s_min + h * np.arange(n + 1)
    T0, N0 = F[0], F[1]
    if p.w == 1.0 or p.w == p.m:
        e = _planar_member(p)
        x, y = (v - v[0] for v in eval_planar(e, s))
        th = eval_theta(e, s_min)
        ct, st = math.cos(th), math.sin(th)
        side = -1.0 if eval_k(e, s_min) < 0.0 else 1.0  # N0 is where the curve bends
        pts = np.outer(ct * x + st * y, T0) + np.outer(side * (ct * y - st * x), N0)
        return DiscreteCurve(pts, closed=False)
    # in units of A: u = kappa_sq / A^2, c / A^3, lam / A^2, arclength A s
    m, w = p.m, p.w
    mw = m / w  # a3 - a2, the range of u
    c = math.copysign(math.sqrt(1.0 - w) * math.sqrt(w - m) / (2.0 * w), np.linalg.det(F))
    a3l, a2l = (1.0 - w + m) / (2.0 * w), (1.0 - w - m) / (2.0 * w)  # a3 - lam, a2 - lam
    J = math.sqrt((1.0 - w) * (1.0 + 3.0 * w - 2.0 * m) + m * m) / (2.0 * w)
    # |J| - d = P1 (1 - n1 sn^2) > 0 and |J| + d = P2 (1 - n2 sn^2) > 0; at a root
    # a of the cubic, J - a = (4c^2 / a) / (J + a) keeps the digits J - a loses
    P1, P2 = (1.0 - w) * (w - m) / (w * w) / (J + a3l), J + a3l
    low = J + a2l if a2l >= 0.0 else (1.0 - w) / w / (J - a2l)  # |J| + d at u = a2
    H = p.A * h  # the step in units of 1 / A
    fine = H * max(1.0, math.sqrt(1.0 - w) / (2.0 * math.sqrt(w - m))) <= 2.0**-6  # t_max / A

    def steps(f, f1, f2):  # the two-point Hermite integral over each step
        return (f[:-1] + f[1:]) * (h / 2.0) + (f1[:-1] - f1[1:]) * (h * H / 10.0) \
            + (f2[:-1] + f2[1:]) * (h * H * H / 120.0)

    out = np.zeros((n + 1, 3))
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        v = p.A / (2.0 * math.sqrt(w)) * s[a : b + 1] + p.s0  # kappa_sq's sn argument
        i1, i2, i0 = _sn2_pi(v, np.array([[1.0 + mw / P1], [low / P2], [1.0]]), m)
        psi = 2.0 * math.sqrt(w) * c * ((v - mw / P1 * i1) / P1 + (v + mw / P2 * i2) / P2)
        height = 2.0 * math.sqrt(w) / J * (a3l * v - mw * i0)
        sn, cn, dn = sncndn(v, m)
        sq = sn * sn
        u = 1.0 - mw * sq
        d = a3l - mw * sq
        du = -mw * sn * cn * dn / math.sqrt(w)
        if a == 0:
            psi0, height0 = psi[0], height[0]
            ez = (d[0] * T0 + du[0] / math.sqrt(u[0]) * N0 + 2.0 * abs(c) / math.sqrt(u[0]) * F[2]) / J
            e1 = T0 - (d[0] / J) * ez
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(ez, e1)
            world = np.stack([e1, e2, ez])
        rot = np.exp(1j * (psi - psi0))
        k = [0, -1] if fine else slice(None)  # fine steps take the closed form at the ends only
        across = 2.0 * (du[k] - 2j * c * d[k] / J) * rot[k] \
            / (J * np.sqrt((du[k] ** 2 + 4.0 * c * c) / u[k]))
        if a == 0:
            across0 = across[0]
        across -= across0
        pts = np.column_stack([across.real, across.imag, height[k] - height0]) @ world / p.A
        if not fine:
            out[a + 1 : b + 1] = pts[1:]
            continue
        # the tangent, d/J along J and r e^{i psi} across, and its first two
        # derivatives; r^2 psi' = 2c / J makes T'' across real times e^{i psi}
        r = np.sqrt((P1 + mw * sq) * (P2 * cn * cn + low * sq)) / J
        dr = -d * du / (J * J * r)
        dpsi = 2.0 * c / (J * r * r)
        ddu = -mw / (2.0 * w) * ((cn * dn) ** 2 - sq * (dn * dn + m * cn * cn))
        ddr = -(du * du + d * ddu) / (J * J * r) - dr * dr / r
        ic = steps(r * rot, (dr + 1j * dpsi * r) * rot, (ddr - dpsi * dpsi * r) * rot)
        inc = np.column_stack([ic.real, ic.imag, steps(d / J, du / J, ddu / J)]) @ world
        inc += (pts[-1] - out[a] - inc.sum(axis=0)) / (b - a)
        inc[0] += out[a]
        np.cumsum(inc, axis=0, out=out[a + 1 : b + 1])
    return DiscreteCurve(out, closed=False)
