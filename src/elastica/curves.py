"""Planar elastica curves, the figure-eight constants, and leafed closures.

Point-level parametrizations of the five planar families (canonical pose,
unit frequency, composed with a similarity), the figure-eight modulus m*
solving 2E(m) = K(m), the half-leaf energy constant varpi* and the leaf
spread angle psi, leafed-elastica construction in the plane (even leaf
count, mirrored leaves) and in space (tangent chains on the sphere),
curvature/torsion reconstruction by Frenet integration, and a least-squares
classifier for closed planar curves (circle / figure-eight / neither).

Canonical curves, arclength-parametrized with curvature kappa:

    linear      (s, 0)                                    kappa = 0
    wavelike    (2 eps(s,m) - s, -2 sqrt(m) cn(s,m))      kappa = 2 sqrt(m) cn
    borderline  (2 tanh s - s, -2 sech s)                 kappa = 2 sech s
    orbitlike   (1/m)(2 eps(s,m) + (m-2) s, -2 dn(s,m))   kappa = 2 dn
    circular    (sin s, -cos s)                           kappa = 1

where eps(s,m) is the Jacobi epsilon function.  The wavelike tangential
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

import numpy as np

from .discrete import DiscreteCurve, curvature_data, length
from .elliptic import (
    _cosh, _shape_like, am, cn, comp_E, comp_K, dE_dm, dK_dm, dn, jacobi_epsilon, sn,
)
from .errors import MAX_COUNT, DomainError, InfeasibleError
from .profiles import CurvatureProfile, kappa_sq, profile_c

__all__ = [
    "figure_eight_modulus",
    "varpi_star",
    "leaf_spread_angle",
    "check_closure",
    "Similarity",
    "PlanarElastica",
    "eval_planar",
    "eval_theta",
    "eval_k",
    "planar_state",
    "Leaf",
    "canonical_leaf",
    "build_leaf",
    "spherical_chain",
    "LeafedElastica",
    "build_leafed",
    "sample_leafed",
    "ClassifyResult",
    "classify_closed",
    "reconstruct_spatial",
]

_EIGHT_TOL = 1e-9  # |2E(m) - K(m)| below which a wavelike curve closes (a figure-eight)

# ---------------------------------------------------------------------------
# figure-eight constants

@lru_cache(maxsize=1)
def figure_eight_modulus() -> float:
    """The unique m* in (0,1) with 2E(m*) = K(m*).

    m -> 2E(m) - K(m) decreases strictly from pi/2 to -inf, so bisection
    brackets the root; a Newton polish lands |2E - K| below 1e-13.
    """
    f = lambda m: 2.0 * comp_E(m) - comp_K(m)
    lo, hi = 0.5, 0.95  # f(0.5) > 0 > f(0.95)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    m = 0.5 * (lo + hi)
    for _ in range(4):
        m -= f(m) / (2.0 * dE_dm(m) - dK_dm(m))
    if not abs(f(m)) < 1e-13:
        raise RuntimeError("figure-eight modulus did not converge")
    return m


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


def check_closure(family: str, m: float) -> bool:
    """Whether the family closes up at modulus m.

    Wavelike curves close exactly when 2E(m) = K(m), taken as
    |2E(m) - K(m)| < 1e-9 (_EIGHT_TOL); orbitlike ones never do, since
    2E(m) + (m-2)K(m) < 0 throughout (0,1).
    """
    if family not in ("wavelike", "orbitlike"):
        raise DomainError(f"closure test applies to wavelike/orbitlike, not {family!r}")
    if not 0.0 < m < 1.0:
        raise DomainError("need m in (0,1)")
    if family == "orbitlike":
        return False
    return abs(2.0 * comp_E(m) - comp_K(m)) < _EIGHT_TOL


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
        if not (np.isfinite(self.rotation) and np.all(np.isfinite(self.translation))):
            raise DomainError("similarity parameters must be finite")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError("similarity scale must be positive")

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
        if not np.isfinite(self.s0):
            raise DomainError("phase must be finite")

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
    if tag == "orbitlike":
        return (2.0 * jacobi_epsilon(s, m) + (m - 2.0) * s) / m, -2.0 * dn(s, m) / m
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
        u = np.asarray(s, dtype=float) / e.similarity.scale + e.s0
    if not np.isfinite(u).all():
        raise DomainError("arclength s and s/scale + s0 must be finite")
    return u


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


def _require_count(n, least: int, name: str, most: float = math.inf) -> None:
    if not isinstance(n, (int, np.integer)) or n < least:
        raise DomainError(f"need an integer {name} >= {least}")
    if n > most:
        raise DomainError(f"{name} = {n} exceeds the cap of {most}")


def build_leaf(N: int) -> DiscreteCurve:
    """Open polyline with N+1 arclength-uniform samples of the leaf."""
    _require_count(N, 2, "N", MAX_COUNT)
    leaf = canonical_leaf()
    x, y = eval_planar(leaf.elastica, np.linspace(0.0, leaf.length, N + 1))
    return DiscreteCurve(np.column_stack([x, y]), closed=False)


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
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def total_length(self) -> float:
        return self.r * canonical_leaf().length


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
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError("need a finite tol > 0")
    if not curve.closed:
        raise DomainError("classification applies to closed curves")
    if curve.dim != 2:
        raise DomainError("classification applies to planar curves")
    kappa, lbar, s = curvature_data(curve, signed=True)
    L = length(curve)
    w = lbar / L
    kmax = float(np.max(np.abs(kappa)))
    if kmax == 0.0:
        return ClassifyResult("not_elastica", 0, float("inf"))

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
# Frenet reconstruction from a curvature profile

def reconstruct_spatial(
    p: CurvatureProfile,
    frame0: np.ndarray,
    s_range: tuple[float, float],
    h: float,
) -> DiscreteCurve:
    """Integrate gamma' = T, T' = kN, N' = -kT + tB, B' = -tN from the
    profile's curvature k = sqrt(kappa_sq) and torsion t = c/k^2.

    Classical 4th-order stepping with per-step Gram-Schmidt
    re-orthonormalization of the frame; planar profiles (c = 0) freeze the
    binormal and integrate the unsigned curvature.  The k and t tables are
    evaluated up front over arrays; each step is one straight-line kernel
    on named Python floats (_frame_step).  frame0
    holds rows (T0, N0, B0), orthonormal to 1e-12; the curve starts at the
    origin.  (s_max - s_min) / h may not exceed errors.MAX_COUNT.
    """
    from .odeint import _step_count  # local import: most callers never integrate

    F = np.array(frame0, dtype=float)
    if F.shape != (3, 3) or not np.allclose(F @ F.T, np.eye(3), atol=1e-12):
        raise DomainError("frame0 must be an orthonormal (T, N, B) triple")
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError("need a finite h > 0")
    s_min, s_max = map(float, s_range)
    if not (s_max > s_min and math.isfinite(s_max - s_min)):
        raise DomainError("need a finite s_range with s_max > s_min")
    n = _step_count(s_max - s_min, h)
    c = profile_c(p)

    def rates(svals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = np.sqrt(np.maximum(kappa_sq(p, svals), 0.0))
        if c == 0.0:
            return k, np.zeros_like(k)
        return k, c / (k * k)

    h = (s_max - s_min) / n
    svals = s_min + h * np.arange(n + 1)
    k_all, t_all = rates(np.repeat(svals, 2)[: 2 * n + 1] + np.tile([0.0, 0.5 * h], n + 1)[: 2 * n + 1])

    ks, ts = k_all.tolist(), t_all.tolist()
    y = [0.0, 0.0, 0.0] + F.ravel().tolist()
    out = [y[:3]]
    for k0, km, k1, t0, tm, t1 in zip(ks[0:-1:2], ks[1::2], ks[2::2],
                                      ts[0:-1:2], ts[1::2], ts[2::2]):
        y = _frame_step(y, h, k0, km, k1, t0, tm, t1)
        out.append(y[:3])
    return DiscreteCurve(np.array(out), closed=False)


def _frame_step(y, h: float, k0: float, km: float, k1: float, t0: float, tm: float,
                t1: float) -> tuple[float, ...]:
    """One classical 4th-order step of the flat (gamma, T, N, B) state,
    written out on named Python floats, then Gram-Schmidt on the frame.
    The rates are gamma' = T, T' = kN, N' = tB - kT, B' = -tN, with k and t
    at the step's start (k0, t0), middle (km, tm) and end (k1, t1); u, v, w,
    z hold the frame rates of stages 1-4 and T2..T4, N2..N4, B2..B4 the
    stage frames.  gamma feeds no rate, so its stage values are never
    formed."""
    g0, g1, g2, T0, T1, T2, N0, N1, N2, B0, B1, B2 = y
    hh = 0.5 * h
    uT0, uT1, uT2 = k0 * N0, k0 * N1, k0 * N2
    uN0, uN1, uN2 = t0 * B0 - k0 * T0, t0 * B1 - k0 * T1, t0 * B2 - k0 * T2
    uB0, uB1, uB2 = -t0 * N0, -t0 * N1, -t0 * N2
    T20, T21, T22 = T0 + hh * uT0, T1 + hh * uT1, T2 + hh * uT2
    N20, N21, N22 = N0 + hh * uN0, N1 + hh * uN1, N2 + hh * uN2
    B20, B21, B22 = B0 + hh * uB0, B1 + hh * uB1, B2 + hh * uB2
    vT0, vT1, vT2 = km * N20, km * N21, km * N22
    vN0, vN1, vN2 = tm * B20 - km * T20, tm * B21 - km * T21, tm * B22 - km * T22
    vB0, vB1, vB2 = -tm * N20, -tm * N21, -tm * N22
    T30, T31, T32 = T0 + hh * vT0, T1 + hh * vT1, T2 + hh * vT2
    N30, N31, N32 = N0 + hh * vN0, N1 + hh * vN1, N2 + hh * vN2
    B30, B31, B32 = B0 + hh * vB0, B1 + hh * vB1, B2 + hh * vB2
    wT0, wT1, wT2 = km * N30, km * N31, km * N32
    wN0, wN1, wN2 = tm * B30 - km * T30, tm * B31 - km * T31, tm * B32 - km * T32
    wB0, wB1, wB2 = -tm * N30, -tm * N31, -tm * N32
    T40, T41, T42 = T0 + h * wT0, T1 + h * wT1, T2 + h * wT2
    N40, N41, N42 = N0 + h * wN0, N1 + h * wN1, N2 + h * wN2
    B40, B41, B42 = B0 + h * wB0, B1 + h * wB1, B2 + h * wB2
    zT0, zT1, zT2 = k1 * N40, k1 * N41, k1 * N42
    zN0, zN1, zN2 = t1 * B40 - k1 * T40, t1 * B41 - k1 * T41, t1 * B42 - k1 * T42
    zB0, zB1, zB2 = -t1 * N40, -t1 * N41, -t1 * N42
    h6 = h / 6.0
    g0 += h6 * (T0 + 2.0 * T20 + 2.0 * T30 + T40)
    g1 += h6 * (T1 + 2.0 * T21 + 2.0 * T31 + T41)
    g2 += h6 * (T2 + 2.0 * T22 + 2.0 * T32 + T42)
    T0 += h6 * (uT0 + 2.0 * vT0 + 2.0 * wT0 + zT0)
    T1 += h6 * (uT1 + 2.0 * vT1 + 2.0 * wT1 + zT1)
    T2 += h6 * (uT2 + 2.0 * vT2 + 2.0 * wT2 + zT2)
    N0 += h6 * (uN0 + 2.0 * vN0 + 2.0 * wN0 + zN0)
    N1 += h6 * (uN1 + 2.0 * vN1 + 2.0 * wN1 + zN1)
    N2 += h6 * (uN2 + 2.0 * vN2 + 2.0 * wN2 + zN2)
    B0 += h6 * (uB0 + 2.0 * vB0 + 2.0 * wB0 + zB0)
    B1 += h6 * (uB1 + 2.0 * vB1 + 2.0 * wB1 + zB1)
    B2 += h6 * (uB2 + 2.0 * vB2 + 2.0 * wB2 + zB2)
    # Gram-Schmidt the frame; the frame is the product here, keep it clean
    r = math.sqrt(T0 * T0 + T1 * T1 + T2 * T2)
    T0, T1, T2 = T0 / r, T1 / r, T2 / r
    p = N0 * T0 + N1 * T1 + N2 * T2
    N0, N1, N2 = N0 - p * T0, N1 - p * T1, N2 - p * T2
    r = math.sqrt(N0 * N0 + N1 * N1 + N2 * N2)
    N0, N1, N2 = N0 / r, N1 / r, N2 / r
    p, q = B0 * T0 + B1 * T1 + B2 * T2, B0 * N0 + B1 * N1 + B2 * N2
    B0, B1, B2 = B0 - p * T0 - q * N0, B1 - p * T1 - q * N1, B2 - p * T2 - q * N2
    r = math.sqrt(B0 * B0 + B1 * B1 + B2 * B2)
    return g0, g1, g2, T0, T1, T2, N0, N1, N2, B0 / r, B1 / r, B2 / r
