"""Jacobi elliptic integrals and elliptic functions, parameter convention.

Everything here is indexed by the *parameter* m = k^2 in [0, 1] (not the
modulus k).  Definitions:

    F(x, m) = integral_0^x (1 - m sin^2 t)^(-1/2) dt      (first kind)
    E(x, m) = integral_0^x (1 - m sin^2 t)^(+1/2) dt      (second kind)
    K(m) = F(pi/2, m),   E(m) = E(pi/2, m)                (complete)
    am(x, m) = inverse of F(., m),  sn = sin(am),  cn = cos(am),
    dn = sqrt(1 - m sn^2),  epsilon(x, m) = E(am(x, m), m)

Algorithms: one arithmetic-geometric mean of 1 and sqrt(1 - m) (`_agm`),
run once per call, serves K, E and sn/cn/dn: K and E come from its limit
and its gap sum, and sn/cn/dn from a descending Landen transformation
through its legs with a trigonometric base case.  The amplitude is
am = atan2(sn, cn) on the branch nearest pi x / (2K).  One Carlson
duplication (`_rj`, for R_J) serves the rest, on the branch |x0| <= K of
x = x0 + 2K n.  The Jacobi epsilon function is Carlson's
E(am, m) = F - (m/3) sn^3 R_D with F(am x0, m) = x0 exactly and
R_D(x, y, z) = R_J(x, y, z, z) (DLMF 19.16.5), and each period adds 2E.
The integral of the third kind in the Jacobi argument (`_sn2_pi`)
is sn^3/3 R_J, plus its complete value per period 2K.  All are
quadratically convergent and well-conditioned as m -> 1.

R_J is evaluated on its two callers' domain only: (x, y, z) = (cn^2, dn^2,
1) and p = cn^2 + nc sn^2 with nc > 0, the epsilon's p = 1 being nc = 1.
So the largest of x, y, z is 1, 1 - M_MAX <= y <= 1, and p >= x lies
between nc and 1; the tests cover nc from 2^-60 to 2^120.  Outside that
domain the arguments are not checked, and the duplication may over- or
underflow.

Accuracy contract: absolute error <= 1e-12 for m <= 1 - 1e-9 and |x| <= 100.
Operations built on K (K, am, jacobi_epsilon, and sn/cn/dn away from
m = 1) refuse parameters beyond that cutoff instead of silently degrading;
comp_E accepts all of [0, 1], and sn/cn/dn additionally accept m = 1
exactly (hyperbolic closed forms).

All functions are pure and take a scalar parameter m.  `sncndn`, `sn`,
`cn`, `dn`, `am` and `jacobi_epsilon` broadcast over x: a scalar x gives
a float, an array x an ndarray of the same shape.  The remaining functions
are scalar in, scalar out.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "M_MAX",
    "comp_K",
    "comp_E",
    "am",
    "sn",
    "cn",
    "dn",
    "sncndn",
    "jacobi_epsilon",
]

#: K-type operations reject m above this (K has a log singularity at m = 1).
M_MAX = 1.0 - 1e-9

_EPS = float(np.finfo(float).eps)

# AGM chain truncation for sn/cn/dn; resulting error ~ _CA^2
_CA = 1.0e-8


def _require_finite(x) -> np.ndarray:
    u = np.asarray(x, dtype=float)
    if not np.isfinite(u).all():
        raise DomainError(f"argument must be finite, got {x!r}")
    return u


def _cosh(u):
    """np.cosh(u), inf without an overflow warning past |u| ~ 710: every
    caller divides by it, and sech -> 0 is the right value there."""
    with np.errstate(over="ignore"):
        return np.cosh(u)


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
# Carlson's symmetric R_J (duplication method), elementwise over arrays;
# duplication continues until the worst element meets the threshold, or to a
# cap that only a NaN reaches: step k scales each |ave - arg| by 4^-k (DLMF
# 19.36.ii) and ave stays a positive float, so every relative deviation starts
# below 2 * 2^1024 / 2^-1074 and meets a test of 0.0015 by step
# (2098 + log2(2 / 0.0015)) / 2 < 1055
_MAX_DUPLICATIONS = 1055


def _max_dev(*devs) -> float:
    # a 0-d value skips the array reduction, NaN staying NaN in either path
    return max(abs(float(d)) if np.ndim(d) == 0 else float(np.max(np.abs(d), initial=0.0))
               for d in devs)


def _rj(x, y, z, p):
    """Carlson R_J(x, y, z, p) by Carlson's 1995 duplication (DLMF 19.36.ii),
    on the domain of its two callers: (cn^2, dn^2, 1, cn^2 + nc sn^2) with
    nc > 0 from _sn2_pi, and p = z = 1 (nc = 1) from jacobi_epsilon, where
    it is R_D(cn^2, dn^2, 1): there delta = 0, so every R_C is 1.  So z = 1
    is the largest of x, y, z, 1 - M_MAX <= y <= 1, and p >= x lies between
    nc and 1.  Arguments broadcast."""
    xt, yt, zt, pt = x, y, z, p
    ave = 0.2 * (xt + yt + zt + pt + pt)
    spread = np.maximum(np.maximum(np.abs(ave - xt), np.abs(ave - yt)),
                        np.maximum(np.abs(ave - zt), np.abs(ave - pt)))
    delta = (pt - xt) * (pt - yt) * (pt - zt)  # times 4^-3 per step, exactly
    total, fac = 0.0, 1.0
    for _ in range(_MAX_DUPLICATIONS):
        sx, sy, sz, sp = np.sqrt(xt), np.sqrt(yt), np.sqrt(zt), np.sqrt(pt)
        lam = sx * (sy + sz) + sy * sz
        d = (sp + sx) * (sp + sy) * (sp + sz)
        e = delta / (d * d)
        if _max_dev(e) <= 1e-3:  # R_C(1, 1 + e) by its series, to e^4
            rc = 1.0 + e * (-1.0 / 3.0 + e * (0.2 + e * (-1.0 / 7.0 + e / 9.0)))
        else:
            t = np.sqrt(np.abs(e))
            with np.errstate(divide="ignore", invalid="ignore"):  # atan or atanh
                rc = np.where(t == 0.0, 1.0, np.where(e > 0.0, np.arctan(t), np.arctanh(t)) / t)
        total = total + fac * rc / d
        fac *= 0.25
        delta = delta * 0.015625
        xt, yt, zt, pt = 0.25 * (xt + lam), 0.25 * (yt + lam), 0.25 * (zt + lam), 0.25 * (pt + lam)
        ave = 0.2 * (xt + yt + zt + pt + pt)
        if fac * _max_dev(spread / ave) <= 0.0015:
            break
    dx, dy, dz, dp = ((ave - t) / ave for t in (xt, yt, zt, pt))
    ea = dx * (dy + dz) + dy * dz
    eb = dx * dy * dz
    ec = dp * dp
    ed = ea - 3.0 * ec
    ee = eb + 2.0 * dp * (ea - ec)
    c1, c2, c3, c4 = 3.0 / 14.0, 1.0 / 3.0, 3.0 / 22.0, 3.0 / 26.0
    s = 1.0 + ed * (-c1 + 0.75 * c3 * ed - 1.5 * c4 * ee) \
        + eb * (0.5 * c2 + dp * (-2.0 * c3 + dp * c4)) + dp * ea * (c2 - dp * c3) - c2 * dp * ec
    return 6.0 * total + fac * s / (ave * np.sqrt(ave))


# ---------------------------------------------------------------------------
# Complete integrals (AGM)

def _agm(m: float) -> tuple[float, float, list[tuple[float, float]]]:
    """(K(m), 1 - sum_n 2^(n-1) c_n^2, legs) from one AGM of 1 and sqrt(1 - m),
    with c_0 = sqrt(m), c_{n+1} = (a_n - b_n)/2; E = K * (the second).  legs
    holds every (a_n, b_n), the last within eps of convergence; sncndn
    descends through them."""
    a, b = 1.0, math.sqrt(1.0 - m)
    legs = [(a, b)]
    csum = 0.5 * m
    p = 0.5
    for _ in range(40):
        if abs(a - b) <= _EPS * a:
            break
        c = 0.5 * (a - b)
        p *= 2.0
        csum += p * c * c
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        legs.append((a, b))
    return math.pi / (a + b), 1.0 - csum, legs


def comp_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m) = F(pi/2, m)."""
    return _agm(_require_m_for_K(m))[0]


def comp_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m) = E(pi/2, m)."""
    m = _require_m_complete(m)
    if m == 1.0:
        return 1.0
    K, f, _ = _agm(m)
    return K * f


# ---------------------------------------------------------------------------
# sn / cn / dn (descending Landen transformation on the AGM legs), and am
# and epsilon from them

def sncndn(x, m: float):
    """All three Jacobi elliptic functions at once: (sn, cn, dn).

    x may be a scalar or an array; m is a scalar parameter in
    [0, 1 - 1e-9] or exactly 1.
    """
    m = float(m)
    if m != 1.0:  # m = 1 has hyperbolic closed forms below
        _require_m_for_K(m)
    return _sncndn(_require_finite(x), m)


def _sncndn(u, m: float, legs=None):
    """sncndn at the array u for a checked m, descending through the legs of
    _agm(m): the caller's, when it has them, or formed here."""
    if m == 1.0:
        sech = 1.0 / _cosh(u)
        s, c, d = np.tanh(u), sech, sech.copy()
    elif m == 0.0:
        s, c, d = np.sin(u), np.cos(u), np.ones_like(u)
    else:
        # descend from the first leg whose gap is within _CA (DLMF 22.20(ii));
        # the AGM's eps stop comes at most one leg later
        legs = _agm(m)[2] if legs is None else legs
        top = next(i for i, (a, b) in enumerate(legs) if abs(a - b) <= _CA * a)
        cmid = 0.5 * (legs[top][0] + legs[top][1])
        v = cmid * u
        s, c = np.sin(v), np.cos(v)
        d = np.ones_like(v)
        # below |x| = 1e-8 the series sn = x - (1+m) x^3/6, cn, dn = 1 - O(x^2)
        # round to (x, 1, 1), while cot(v) overflows the descent below 1e-154
        tiny = np.abs(u) < 1e-8
        a = c / np.where(tiny, 1.0, s)
        cc = cmid * a
        for ai, bi in reversed(legs[: top + 1]):
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
    K, _, legs = _agm(m)
    s, c, _ = _sncndn(u, m, legs)
    phi = np.arctan2(s, c)
    # am(x) and pi x / (2K) agree at every multiple of K and both increase
    # in between, so they differ by less than pi/2: that fixes the branch
    n = np.round((0.5 * math.pi / K * u - phi) / (2.0 * math.pi))
    return _shape_like(u, phi + 2.0 * math.pi * n)


def _reduce_2K(x, m: float):
    """(x0, n, K, E/K, legs) with x = x0 + 2K n and |x0| <= K: am(x0) lies
    in [-pi/2, pi/2], the Carlson forms' principal branch.  The last three
    are the one _agm(m) of the call."""
    u = _require_finite(x)
    K, f, legs = _agm(_require_m_for_K(m))
    n = np.floor(u / (2.0 * K) + 0.5)
    return u - 2.0 * K * n, n, K, f, legs


def jacobi_epsilon(x, m: float):
    """E(am(x, m), m), the Jacobi epsilon function (arclength of the ellipse):
    on the principal branch x0 - (m/3) sn^3 R_D(cn^2, dn^2, 1), since
    E(phi, m) = sn R_F - (m/3) sn^3 R_D and sn R_F = F(am x0, m) = x0, with
    R_D(cn^2, dn^2, 1) = R_J(cn^2, dn^2, 1, 1)."""
    x0, n, K, f, legs = _reduce_2K(x, m)
    s, c, d = _sncndn(x0, m, legs)
    e = x0 - (m / 3.0) * s * s * s * _rj(c * c, d * d, 1.0, 1.0)
    return _shape_like(x, e + 2.0 * (K * f) * n)


def _sn2_pi(x, nc, m: float):
    """integral_0^x sn^2 / (1 - n sn^2) dv, n = 1 - nc < 1: Pi(n; am x | m)
    is x + n * this, and nc = 1 gives the integral of sn^2.  With nc given,
    1 - n sn^2 = cn^2 + nc sn^2 keeps every digit as n -> 1.  On the branch
    x = x0 + 2K k, |x0| <= K, it is sn^3/3 R_J(cn^2, dn^2, 1, 1 - n sn^2)
    at x0, plus k times twice that at x0 = K.  x has any shape (the broadcast
    rule); nc is a scalar, or for a 1-D x a column (r, 1), one row each.
    """
    x0, k, K, _, legs = _reduce_2K(x, m)
    s, c, d = _sncndn(np.append(x0, K), m, legs)  # the last point, K, gives the complete value
    cc = c * c
    r = s * s * s / 3.0 * _rj(cc, d * d, 1.0, cc + nc * s * s)
    whole = 2.0 * r[..., -1].reshape(np.shape(nc))  # per period 2K, one per nc row
    return _shape_like(x, r[..., :-1].reshape(r.shape[:-1] + k.shape) + whole * k)


def sn(x, m: float):
    """Jacobi elliptic sine sn(x, m) = sin(am(x, m))."""
    return sncndn(x, m)[0]


def cn(x, m: float):
    """Jacobi elliptic cosine cn(x, m) = cos(am(x, m))."""
    return sncndn(x, m)[1]


def dn(x, m: float):
    """Jacobi delta amplitude dn(x, m) = sqrt(1 - m sn^2)."""
    return sncndn(x, m)[2]
