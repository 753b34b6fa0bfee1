"""Equal-arclength resampling through a cubic spline, for tests.

The classifier tests use it to put curves on a fresh, uniform vertex set;
it needs SciPy, which the tests already use as an oracle, so it lives here
rather than in the library.
"""

import numpy as np

from elastica.discrete import DiscreteCurve
from elastica.errors import DomainError


def resample_arclength(c: DiscreteCurve, N: int) -> DiscreteCurve:
    """Resample to N equal-arclength edges through a cubic-spline fit.

    The vertices are treated as samples of a smooth curve: a cubic spline
    in chord-length parameter (periodic when closed) is evaluated at equal
    arclength.  Refining therefore tracks the smooth curve's bending
    energy instead of concentrating the old corner angles on shorter dual
    edges.  N+1 vertices for open curves (endpoints exact), N for closed.
    Regular polygons at their own N and collinear data reproduce the
    input; in general length and energy move by O(N^-2).
    """
    if N < 3:
        raise DomainError("need N >= 3")
    from scipy.interpolate import CubicSpline

    v = c.vertices
    if c.closed:
        v = np.vstack([v, v[0]])
    t = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(v, axis=0), axis=1))])
    spl = CubicSpline(t, v, axis=0, bc_type="periodic" if c.closed else "not-a-knot")
    # cumulative spline arclength on a 16x refined grid, then invert
    refine = np.arange(16) / 16.0
    tt = np.append((t[:-1, None] + np.diff(t)[:, None] * refine).ravel(), t[-1])
    speed = np.linalg.norm(spl(tt, 1), axis=1)
    s_grid = np.concatenate([[0.0], np.cumsum(np.diff(tt) * 0.5 * (speed[:-1] + speed[1:]))])
    L = s_grid[-1]
    if c.closed:
        targets = np.arange(N) * (L / N)
    else:
        targets = np.linspace(0.0, L, N + 1)
    out = spl(np.interp(targets, s_grid, tt))
    if not c.closed:
        out[0], out[-1] = c.vertices[0], c.vertices[-1]
    return DiscreteCurve(out, closed=c.closed)
