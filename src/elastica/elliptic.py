"""Jacobi elliptic integrals and elliptic functions, parameter convention.

Everything here is indexed by the *parameter* m = k^2 in [0, 1] (not the
modulus k).  Definitions:

    F(x, m) = integral_0^x (1 - m sin^2 t)^(-1/2) dt      (first kind)
    E(x, m) = integral_0^x (1 - m sin^2 t)^(+1/2) dt      (second kind)
    K(m) = F(pi/2, m),   E(m) = E(pi/2, m)                (complete)
    am(x, m) = inverse of F(., m),  sn = sin(am),  cn = cos(am),
    dn = sqrt(1 - m sn^2)

Algorithms: complete integrals by the arithmetic-geometric mean, incomplete
ones by Carlson symmetric-form duplication (R_F, R_D), and sn/cn/dn by a
descending Landen/AGM chain with a trigonometric base case.  The amplitude
comes from the same chain: am = atan2(sn, cn) on the branch nearest
pi x / (2K), and the Jacobi epsilon function is Carlson's E(am, m) written
in sn/cn/dn after reducing x by the period 2K.  All are quadratically
convergent and well-conditioned as m -> 1.

Accuracy contract: absolute error <= 1e-12 for m <= 1 - 1e-9 and |x| <= 100.
Operations built on K (F, K, am, and sn/cn/dn away from m = 1) refuse
parameters beyond that cutoff instead of silently degrading; comp_E accepts
all of [0, 1], and sn/cn/dn additionally accept m = 1 exactly (hyperbolic
closed forms).

All functions are pure and take a scalar parameter m.  `sncndn`, `sn`,
`cn`, `dn`, `am` and `jacobi_epsilon` broadcast over x: a scalar x gives
a float, an array x an ndarray of the same shape.  The remaining functions
are scalar in, scalar out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "M_MAX",
    "DK_DM_AT_ZERO",
    "DE_DM_AT_ZERO",
    "EllipticValue",
    "ellint_F",
    "ellint_E_inc",
    "comp_K",
    "comp_E",
    "am",
    "sn",
    "cn",
    "dn",
    "sncndn",
    "jacobi_epsilon",
    "dK_dm",
    "dE_dm",
    "ellint_F_with_error",
    "ellint_E_inc_with_error",
    "comp_K_with_error",
    "comp_E_with_error",
]

#: K-type operations reject m above this (K has a log singularity at m = 1).
M_MAX = 1.0 - 1e-9

#: limits of dK_dm / dE_dm as m -> 0+ (the closed forms are 0/0 there)
DK_DM_AT_ZERO = math.pi / 8.0
DE_DM_AT_ZERO = -math.pi / 8.0

_EPS = float(np.finfo(float).eps)

# pi = fl(pi) + _PI_TAIL; needed to reduce x mod pi without losing the
# ~1e-16 tail, which the (1 - m sin^2)^(-1/2) weight can amplify near m -> 1
_PI_TAIL = 1.2246467991473532e-16

# AGM chain truncation for sn/cn/dn; resulting error ~ _CA^2
_CA = 1.0e-8


@dataclass(frozen=True)
class EllipticValue:
    """A computed value together with an a-priori absolute error bound."""

    value: float
    est_abs_error: float


def _require_finite(x) -> np.ndarray:
    u = np.asarray(x, dtype=float)
    if not np.isfinite(u).all():
        raise DomainError(f"argument must be finite, got {x!r}")
    return u


def _shape_like(x, *out):
    """Return-type rule of every function that broadcasts over x: a scalar x
    gives float(s), an array-like x gives ndarray(s)."""
    if np.ndim(x):
        vals = tuple(np.asarray(o) for o in out)
    else:
        vals = tuple(map(float, out))
    return vals if len(vals) > 1 else vals[0]


def _require_m_complete(m: float) -> float:
    """Parameter domain for E-type operations: the closed interval [0, 1]."""
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"parameter m={m!r} outside [0, 1]")
    return m


def _require_m_for_K(m: float) -> float:
    """Parameter domain for K-type operations: [0, 1 - 1e-9]."""
    m = float(m)
    if not 0.0 <= m <= M_MAX:
        raise DomainError(
            f"parameter m={m!r} outside [0, {M_MAX}]; K-type evaluations "
            "are not supported closer to the m=1 singularity"
        )
    return m


# ---------------------------------------------------------------------------
# Carlson symmetric forms (duplication method), elementwise over arrays;
# duplication continues until the worst element meets the threshold

def _max_dev(*devs) -> float:
    return max(float(np.max(np.abs(d), initial=0.0)) for d in devs)


def _rf(x, y, z):
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
        # series truncation error ~ ERRTOL^6 ~ 2e-16 relative
        if _max_dev(dx, dy, dz) <= 0.0025:
            break
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / np.sqrt(ave)


def _rd(x, y, z):
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


# ---------------------------------------------------------------------------
# Complete integrals (AGM)

def _agm(m: float) -> tuple[float, float]:
    """(K(m), 1 - sum_n 2^(n-1) c_n^2) from one AGM of 1 and sqrt(1 - m),
    with c_0 = sqrt(m), c_{n+1} = (a_n - b_n)/2; E = K * (the second)."""
    a, b = 1.0, math.sqrt(1.0 - m)
    csum = 0.5 * m
    p = 0.5
    for _ in range(40):
        if abs(a - b) <= _EPS * a:
            break
        c = 0.5 * (a - b)
        p *= 2.0
        csum += p * c * c
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b), 1.0 - csum


def comp_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m) = F(pi/2, m)."""
    m = _require_m_for_K(m)
    if m == 0.0:
        return math.pi / 2.0
    return _agm(m)[0]


def comp_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m) = E(pi/2, m)."""
    m = _require_m_complete(m)
    if m == 1.0:
        return 1.0
    if m == 0.0:
        return math.pi / 2.0
    K, f = _agm(m)
    return K * f


# ---------------------------------------------------------------------------
# Incomplete integrals (Carlson) with quasi-period reduction

def _reduce_pi(x: float) -> tuple[float, float]:
    """Write x = x0 + n*pi with x0 in [-pi/2, pi/2]; returns (x0, n)."""
    if abs(x) <= math.pi / 2.0:
        return x, 0.0
    r = math.remainder(x, math.pi)  # exact: x - n*fl(pi)
    n = round((x - r) / math.pi)
    return r - n * _PI_TAIL, float(n)


def _F_principal(phi: float, m: float) -> float:
    # |phi| <= pi/2 (+ a few ulp); no reduction
    s, c = math.sin(phi), math.cos(phi)
    if s == 0.0:
        return 0.0
    return float(s * _rf(c * c, 1.0 - m * s * s, 1.0))


def _E_sc(s, c, q, m: float):
    # E(phi, m) for |phi| <= pi/2 from s = sin phi, c = cos phi and
    # q = 1 - m s^2; elementwise over arrays
    cc = c * c
    return s * (_rf(cc, q, 1.0) - (m / 3.0) * s * s * _rd(cc, q, 1.0))


def _E_principal(phi: float, m: float) -> float:
    s, c = math.sin(phi), math.cos(phi)
    if s == 0.0:
        return 0.0
    return float(_E_sc(s, c, 1.0 - m * s * s, m))


def ellint_F(x: float, m: float) -> float:
    """Incomplete elliptic integral of the first kind F(x, m)."""
    x = float(_require_finite(x))
    m = _require_m_for_K(m)
    x0, n = _reduce_pi(x)
    f0 = _F_principal(x0, m)
    if n == 0.0:
        return f0
    return f0 + 2.0 * n * comp_K(m)


def ellint_E_inc(x: float, m: float) -> float:
    """Incomplete elliptic integral of the second kind E(x, m)."""
    x = float(_require_finite(x))
    m = _require_m_for_K(m)
    x0, n = _reduce_pi(x)
    e0 = _E_principal(x0, m)
    if n == 0.0:
        return e0
    return e0 + 2.0 * n * comp_E(m)


# ---------------------------------------------------------------------------
# sn / cn / dn (descending Landen / AGM chain), and am and epsilon from them

def _landen_chain(m: float) -> tuple[list[float], list[float], float]:
    # arithmetic (a_i) and geometric (b_i) legs of the AGM for 1, sqrt(1-m),
    # terminated when the relative gap drops below _CA; final midpoint last
    emc = 1.0 - m
    a = 1.0
    aa: list[float] = []
    bb: list[float] = []
    c = 0.0
    for _ in range(14):
        aa.append(a)
        emc = math.sqrt(emc)
        bb.append(emc)
        c = 0.5 * (a + emc)
        if abs(a - emc) <= _CA * a:
            break
        emc *= a
        a = c
    return aa, bb, c


def sncndn(x, m: float):
    """All three Jacobi elliptic functions at once: (sn, cn, dn).

    x may be a scalar or an array; m is a scalar parameter in
    [0, 1 - 1e-9] or exactly 1.
    """
    m = float(m)
    if m == 1.0:
        pass  # hyperbolic closed forms below
    else:
        _require_m_for_K(m)
    u = _require_finite(x)
    if m == 1.0:
        sech = 1.0 / np.cosh(u)
        s, c, d = np.tanh(u), sech, sech.copy()
    elif m == 0.0:
        s, c, d = np.sin(u), np.cos(u), np.ones_like(u)
    else:
        aa, bb, cmid = _landen_chain(m)
        v = cmid * u
        s, c = np.sin(v), np.cos(v)
        d = np.ones_like(v)
        # below |x| = 1e-8 the series sn = x - (1+m) x^3/6, cn, dn = 1 - O(x^2)
        # round to (x, 1, 1), while cot(v) overflows the descent below 1e-154
        tiny = np.abs(u) < 1e-8
        a = c / np.where(tiny, 1.0, s)
        cc = cmid * a
        for ai, bi in zip(reversed(aa), reversed(bb)):
            a = a * cc
            cc = cc * d
            d = (bi + a) / (ai + a)
            a = cc / ai
        amp = 1.0 / np.sqrt(cc * cc + 1.0)
        s_out = np.where(s >= 0.0, amp, -amp)
        c_out = cc * s_out
        s = np.where(tiny, u, s_out)
        c = np.where(tiny, 1.0, c_out)
        d = np.where(tiny, 1.0, d)
    return _shape_like(u, s, c, d)


def am(x, m: float):
    """Jacobi amplitude: the inverse of F(., m), so F(am(x, m), m) = x."""
    u = _require_finite(x)
    m = _require_m_for_K(m)
    if m == 0.0:
        return _shape_like(u, u.copy())
    s, c, _ = sncndn(u, m)
    phi = np.arctan2(s, c)
    # am(x) and pi x / (2K) agree at every multiple of K and both increase
    # in between, so they differ by less than pi/2: that fixes the branch
    n = np.round((0.5 * math.pi / comp_K(m) * u - phi) / (2.0 * math.pi))
    return _shape_like(u, phi + 2.0 * math.pi * n)


def jacobi_epsilon(x, m: float):
    """E(am(x, m), m), the Jacobi epsilon function (arclength of the ellipse)."""
    u = _require_finite(x)
    m = _require_m_for_K(m)
    twoK = 2.0 * comp_K(m)
    n = np.floor(u / twoK + 0.5)
    # |x0| <= K puts am(x0) in [-pi/2, pi/2], where cos(am) = cn >= 0
    s, c, d = sncndn(u - twoK * n, m)
    return _shape_like(u, _E_sc(s, c, d * d, m) + 2.0 * comp_E(m) * n)


def sn(x, m: float):
    """Jacobi elliptic sine sn(x, m) = sin(am(x, m))."""
    return sncndn(x, m)[0]


def cn(x, m: float):
    """Jacobi elliptic cosine cn(x, m) = cos(am(x, m))."""
    return sncndn(x, m)[1]


def dn(x, m: float):
    """Jacobi delta amplitude dn(x, m) = sqrt(1 - m sn^2)."""
    return sncndn(x, m)[2]


# ---------------------------------------------------------------------------
# Parameter derivatives

def dK_dm(m: float) -> float:
    """dK/dm = (E - (1-m)K) / (2m(1-m)) for m in (0, 1).

    The closed form is 0/0 at m = 0 (limit pi/8, see DK_DM_AT_ZERO) and
    singular at m = 1; both endpoints raise.  For m below ~1e-6 the numerator
    cancellation costs a few digits (relative error ~1e-10).
    """
    m = float(m)
    if not 0.0 < m < 1.0:
        raise DomainError(f"dK_dm needs m in (0, 1), got {m!r}")
    if m > M_MAX:
        raise DomainError(f"dK_dm not supported above m = {M_MAX}")
    K, E = comp_K(m), comp_E(m)
    return (E - (1.0 - m) * K) / (2.0 * m * (1.0 - m))


def dE_dm(m: float) -> float:
    """dE/dm = (E - K) / (2m) for m in (0, 1); limit -pi/8 at m = 0."""
    m = float(m)
    if not 0.0 < m < 1.0:
        raise DomainError(f"dE_dm needs m in (0, 1), got {m!r}")
    if m > M_MAX:
        raise DomainError(f"dE_dm not supported above m = {M_MAX}")
    return (comp_E(m) - comp_K(m)) / (2.0 * m)


# ---------------------------------------------------------------------------
# Error-estimating variants
#
# The estimates are a-priori bounds: Carlson duplication truncates at
# ~2e-16 relative, the AGM terminates at machine epsilon, and quasi-period
# assembly rounds once per term — eps*(2|v| + 4|n|*period + 2) covers the
# principal evaluation, the |2n| period multiples, and the final additions,
# and stays below 1e-12 over the whole contract domain (|x| <= 100,
# m <= 1 - 1e-9, where |n| <= 32 and K <= 11.75).

def comp_K_with_error(m: float) -> EllipticValue:
    v = comp_K(m)
    return EllipticValue(v, 8.0 * _EPS * max(1.0, v))


def comp_E_with_error(m: float) -> EllipticValue:
    v = comp_E(m)
    return EllipticValue(v, 8.0 * _EPS * max(1.0, v))


def ellint_F_with_error(x: float, m: float) -> EllipticValue:
    v = ellint_F(x, m)
    _, n = _reduce_pi(float(x))
    period = comp_K(m) if n else 0.0
    return EllipticValue(v, _EPS * (2.0 * abs(v) + 4.0 * abs(n) * period + 2.0))


def ellint_E_inc_with_error(x: float, m: float) -> EllipticValue:
    v = ellint_E_inc(x, m)
    _, n = _reduce_pi(float(x))
    period = comp_E(m) if n else 0.0
    return EllipticValue(v, _EPS * (2.0 * abs(v) + 4.0 * abs(n) * period + 2.0))
