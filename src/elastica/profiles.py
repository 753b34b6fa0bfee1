"""Curvature-level solutions of the elastica equation.

An elastica's squared curvature u = |kappa|^2 satisfies the first integral

    (u')^2 = (a1 - u)(a2 - u)(a3 - u),    a1 <= 0 <= a2 <= a3,

whose nonconstant solutions are shifted/scaled sn^2.  Every admissible root
triple is parametrized by (m, w, A, s0) with 0 <= m <= w <= 1, w > 0, A > 0:

    |kappa|^2(s) = A^2 (1 - (m/w) sn^2(A s / (2 sqrt(w)) + s0, m)),
    a1 = A^2 (1 - 1/w),  a2 = A^2 (1 - m/w),  a3 = A^2,
    lambda = A^2 (3w - m - 1) / (2w),
    4 c^2  = A^6 (1 - w)(w - m) / w^2,

where lambda is the length-constraint multiplier and c the torsion constant
(k^2 t = c for spatial elasticae; c = 0 exactly when w = 1 or w = m, the
planar cases).  The five planar families with their signed curvature live
in `curves.PlanarElastica`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import elliptic as el
from .elliptic import _shape_like
from .errors import DomainError

__all__ = [
    "CurvatureProfile",
    "profile_lambda",
    "profile_c",
    "profile_period",
    "kappa_sq",
    "cubic_roots",
    "first_integral_coeffs",
    "solve_cubic_ode",
    "cubic_constant_solutions",
    "torsion",
    "residual_planar",
    "residual_spatial",
    "residual_first_integral",
]

@dataclass(frozen=True)
class CurvatureProfile:
    """Parameters (m, w, A, s0) of the unified curvature formula."""

    m: float
    w: float
    A: float
    s0: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.m <= self.w <= 1.0):
            raise DomainError(f"need 0 <= m <= w <= 1, got m={self.m}, w={self.w}")
        if not self.w > 0.0:
            raise DomainError("need w > 0")
        if not self.A > 0.0:
            raise DomainError("need A > 0")
        if not math.isfinite(self.s0):
            raise DomainError("phase s0 must be finite")


def profile_lambda(p: CurvatureProfile) -> float:
    """Length-constraint multiplier lambda = A^2 (3w - m - 1) / (2w)."""
    return p.A**2 * (3.0 * p.w - p.m - 1.0) / (2.0 * p.w)


def profile_c(p: CurvatureProfile) -> float:
    """Nonnegative torsion constant c, from 4c^2 = A^6 (1-w)(w-m) / w^2."""
    c_sq = p.A**6 * (1.0 - p.w) * (p.w - p.m) / (4.0 * p.w**2)
    return math.sqrt(max(c_sq, 0.0))


def cubic_roots(p: CurvatureProfile) -> tuple[float, float, float]:
    """Roots a1 <= 0 <= a2 <= a3 of the first-integral cubic."""
    A2 = p.A**2
    return A2 * (1.0 - 1.0 / p.w), A2 * (1.0 - p.m / p.w), A2


def first_integral_coeffs(p: CurvatureProfile) -> tuple[float, float, float]:
    """(lambda, a, c^2) with (u')^2 = -u^3 + 2 lambda u^2 + 4 a u - 4 c^2.

    Root-coefficient relations: 2 lambda = a1+a2+a3,
    4a = -(a1 a2 + a2 a3 + a3 a1), 4 c^2 = -a1 a2 a3.
    """
    a1, a2, a3 = cubic_roots(p)
    lam = 0.5 * (a1 + a2 + a3)
    a = -0.25 * (a1 * a2 + a2 * a3 + a3 * a1)
    c_sq = -0.25 * (a1 * a2 * a3)
    return lam, a, c_sq


def profile_period(p: CurvatureProfile) -> float:
    """Period of |kappa|^2 in arclength (inf for the m=1 soliton)."""
    rate = p.A / (2.0 * math.sqrt(p.w))
    if p.m == 1.0:
        return math.inf
    if p.m == 0.0:
        return 2.0 * math.pi / rate  # constant profile; underlying sn period
    return 2.0 * el.comp_K(p.m) / rate


def kappa_sq(p: CurvatureProfile, s):
    """Squared curvature A^2 (1 - (m/w) sn^2(A s/(2 sqrt(w)) + s0, m))."""
    z = p.A / (2.0 * math.sqrt(p.w)) * np.asarray(s, dtype=float) + p.s0
    if p.m == 0.0:
        out = np.full_like(z, p.A**2)
    else:
        sn_z = el.sn(z, p.m)
        out = p.A**2 * (1.0 - (p.m / p.w) * sn_z**2)
    return _shape_like(s, out)


def solve_cubic_ode(a1: float, a2: float, a3: float, s0: float = 0.0) -> Callable:
    """Nonconstant solution u of (u')^2 = (a1-u)(a2-u)(a3-u).

    u(s) = a3 - (a3-a2) sn^2(sqrt(a3-a1) s/2 + s0, (a3-a2)/(a3-a1)),
    taking values in [a2, a3].  Requires a1 <= 0 <= a2 < a3; for a2 == a3
    use cubic_constant_solutions (the modulus expression degenerates 0/0).
    """
    if not (a1 <= 0.0 <= a2 < a3):
        raise DomainError(
            f"need a1 <= 0 <= a2 < a3, got ({a1}, {a2}, {a3}); "
            "constant solutions u=a2, u=a3 are exposed separately"
        )
    mod = (a3 - a2) / (a3 - a1)
    if el.M_MAX < mod < 1.0:
        raise DomainError(f"degenerate modulus {mod} too close to 1")
    rate = 0.5 * math.sqrt(a3 - a1)

    def u(s):
        z = rate * np.asarray(s, dtype=float) + s0
        sn_z = el.sn(z, mod)
        return _shape_like(s, a3 - (a3 - a2) * sn_z**2)

    return u


def cubic_constant_solutions(a1: float, a2: float, a3: float) -> tuple[Callable, Callable]:
    """The constant solutions u = a2 and u = a3 of the cubic ODE."""
    if not (a1 <= 0.0 <= a2 <= a3):
        raise DomainError(f"need a1 <= 0 <= a2 <= a3, got ({a1}, {a2}, {a3})")

    def make(val):
        def u(s):
            return _shape_like(s, np.full_like(np.asarray(s, dtype=float), val))
        return u

    return make(a2), make(a3)


def torsion(p: CurvatureProfile, s):
    """Torsion t(s) = c / |kappa|^2(s); only defined for spatial profiles."""
    c = profile_c(p)
    if c == 0.0:
        raise DomainError("torsion undefined for planar profiles (c = 0)")
    u = kappa_sq(p, s)
    return c / u


def residual_planar(k: Callable, lam: float, s, h: float = 1e-4):
    """2 k_ss + k^3 - lambda k with k_ss by second-order central differences."""
    if not h > 0.0:
        raise DomainError("need h > 0")
    ks = k(s)
    k_ss = (k(s + h) - 2.0 * ks + k(s - h)) / (h * h)
    return 2.0 * k_ss + ks**3 - lam * ks


def residual_spatial(k: Callable, lam: float, c: float, s, h: float = 1e-4):
    """2 k_ss + k^3 - lambda k - 2 c^2 / k^3 (k bounded away from zero)."""
    return residual_planar(k, lam, s, h) - 2.0 * c * c / k(s) ** 3


def residual_first_integral(p: CurvatureProfile, s, h: float | None = None):
    """(u')^2 - (-u^3 + 2 lambda u^2 + 4 a u - 4 c^2) with u = kappa_sq.

    u' is a central finite difference; h defaults to 1e-5 of the profile
    period (the residual is O(h^2) for the exact profile).
    """
    if h is None:
        period = profile_period(p)
        if not math.isfinite(period):
            period = 4.0 * math.sqrt(p.w) / p.A
        h = 1e-5 * period
    lam, a, c_sq = first_integral_coeffs(p)
    u = kappa_sq(p, s)
    du = (kappa_sq(p, s + h) - kappa_sq(p, s - h)) / (2.0 * h)
    poly = -(u**3) + 2.0 * lam * u**2 + 4.0 * a * u - 4.0 * c_sq
    return du * du - poly
