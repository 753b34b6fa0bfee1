"""Discrete curves: length, bending energy, multiplicity, energy bounds.

A curve is a polyline (open or closed) with at least 3 vertices in R^2 or
R^3 and strictly positive edge lengths.  Discrete curvature lives on
vertices: with turning angle theta_i between consecutive edges and dual
length lbar_i = (l_{i-1} + l_i)/2,

    kappa_i = 2 theta_i / (l_{i-1} + l_i) = theta_i / lbar_i,

so B = sum kappa_i^2 lbar_i, TC = sum |theta_i| = sum |kappa_i| lbar_i, and
the Cauchy-Schwarz chain B*L >= TC^2 holds exactly in floating point up to
rounding.  Endpoints of open curves carry no curvature mass (the natural
boundary condition of pinned minimizers).  The normalized energy
Bbar = L*B is exactly scale invariant: turning angles do not change under
dilation and lengths scale linearly.

CSV interchange: header ``s,x,y[,z]`` (s = cumulative arclength), a
``# closed=true|false`` comment marker, 17 significant digits; on input a
missing marker falls back to endpoint-coincidence detection.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "DiscreteCurve",
    "EnergyReport",
    "FenchelReport",
    "MultiplicityReport",
    "LiYauReport",
    "FOUR_PI_SQ",
    "length",
    "edge_lengths",
    "turning_angles",
    "vertex_arclengths",
    "curvature_data",
    "bending_energy",
    "total_curvature",
    "normalized_energy",
    "fenchel_floor_check",
    "resample_arclength",
    "detect_multiplicity",
    "liyau_check",
    "curve_to_csv",
    "curve_from_csv",
    "save_curve_csv",
    "load_curve_csv",
]

FOUR_PI_SQ = 4.0 * math.pi**2


@dataclass(frozen=True)
class DiscreteCurve:
    """Polyline in R^2 or R^3; vertices are read-only after construction."""

    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] not in (2, 3):
            raise DomainError(f"vertices must be (n, 2) or (n, 3), got {v.shape}")
        if len(v) < 3:
            raise DomainError("a discrete curve needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise DomainError("vertices must be finite")
        e = np.diff(v, axis=0)
        if self.closed:
            e = np.vstack([e, v[0] - v[-1]])
        if np.any(np.linalg.norm(e, axis=1) == 0.0):
            raise DomainError("consecutive vertices must be distinct")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class EnergyReport:
    L: float
    B: float
    Bbar: float
    TC: float

    def to_text(self) -> str:
        """`key = value` lines, the keys of to_json_line, 17 significant digits."""
        return "".join(f"{k} = {v:.17g}\n" for k, v in asdict(self).items())

    def to_json_line(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class FenchelReport:
    Bbar: float
    TC: float
    passed: bool


@dataclass(frozen=True)
class MultiplicityReport:
    point: np.ndarray
    r: int
    witnesses: tuple[float, ...]  # arclength of each distinct visit
    eps: float  # proximity radius the visits were counted at


@dataclass(frozen=True)
class LiYauReport:
    r: int
    Bbar: float
    bound: float
    satisfied: bool
    slack: float
    bound_kind: str  # "liyau" (varpi* r^2, r >= 2) or "fenchel" (4 pi^2)
    eps: float = math.nan  # proximity radius of the multiplicity search
    witnesses: tuple[float, ...] = ()  # arclength of each visit
    bound_reason: str = ""  # why bound_kind was chosen

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "r": self.r,
                "Bbar": self.Bbar,
                "bound": self.bound,
                "satisfied": self.satisfied,
                "slack": self.slack,
                "bound_kind": self.bound_kind,
                "eps": self.eps,
                "witnesses": list(self.witnesses),
                "bound_reason": self.bound_reason,
            }
        )


# ---------------------------------------------------------------------------
# edge/vertex geometry

def _edges(c: DiscreteCurve) -> np.ndarray:
    v = c.vertices
    e = np.diff(v, axis=0)
    if c.closed:
        e = np.vstack([e, v[0] - v[-1]])
    return e


def edge_lengths(c: DiscreteCurve) -> np.ndarray:
    return np.linalg.norm(_edges(c), axis=1)


def length(c: DiscreteCurve) -> float:
    return float(edge_lengths(c).sum())


def vertex_arclengths(c: DiscreteCurve) -> np.ndarray:
    """Cumulative arclength of each vertex from vertex 0."""
    ell = edge_lengths(c)
    return np.concatenate([[0.0], np.cumsum(ell[: len(c.vertices) - 1])])


def _angle_pairs(c: DiscreteCurve) -> tuple[np.ndarray, np.ndarray]:
    # (incoming, outgoing) edge at every turning vertex
    e = _edges(c)
    if c.closed:
        return np.roll(e, 1, axis=0), e
    return e[:-1], e[1:]


def turning_angles(c: DiscreteCurve, signed: bool = False) -> np.ndarray:
    """Turning angle at each turning vertex (all vertices if closed,
    interior ones if open).  signed=True gives the 2D signed angle."""
    a, b = _angle_pairs(c)
    dot = np.einsum("ij,ij->i", a, b)
    if c.dim == 2:
        cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        theta = np.arctan2(np.abs(cross), dot)
        return np.arctan2(cross, dot) if signed else theta
    if signed:
        raise DomainError("signed turning angles are only defined in the plane")
    cross = np.linalg.norm(np.cross(a, b), axis=1)
    return np.arctan2(cross, dot)


def curvature_data(c: DiscreteCurve, signed: bool = False):
    """(kappa, lbar, s) at the turning vertices.

    kappa = theta / lbar with lbar the dual length; s is the arclength of
    each turning vertex (closed: all vertices; open: interior vertices).
    """
    theta = turning_angles(c, signed=signed)
    ell = edge_lengths(c)
    if c.closed:
        lbar = 0.5 * (np.roll(ell, 1) + ell)
        s = vertex_arclengths(c)
    else:
        lbar = 0.5 * (ell[:-1] + ell[1:])
        s = vertex_arclengths(c)[1:-1]
    return theta / lbar, lbar, s


def bending_energy(c: DiscreteCurve) -> float:
    """B = sum kappa_i^2 lbar_i over turning vertices."""
    theta = turning_angles(c)
    a, b = _angle_pairs(c)
    la = np.linalg.norm(a, axis=1)
    lb = np.linalg.norm(b, axis=1)
    return float(np.sum(2.0 * theta * theta / (la + lb)))


def total_curvature(c: DiscreteCurve) -> float:
    """TC = sum |theta_i| (= sum |kappa_i| lbar_i exactly)."""
    return float(np.sum(turning_angles(c)))


def normalized_energy(c: DiscreteCurve) -> EnergyReport:
    L = length(c)
    B = bending_energy(c)
    return EnergyReport(L=L, B=B, Bbar=L * B, TC=total_curvature(c))


def fenchel_floor_check(c: DiscreteCurve, tol: float = 1e-9) -> FenchelReport:
    """Checks the chain Bbar >= TC^2 >= 4 pi^2 for a closed curve."""
    if not c.closed:
        raise DomainError("the energy floor applies to closed curves")
    rep = normalized_energy(c)
    ok = rep.Bbar >= rep.TC**2 - tol and rep.TC >= 2.0 * math.pi - tol
    return FenchelReport(Bbar=rep.Bbar, TC=rep.TC, passed=bool(ok))


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


_PAIR_BLOCK = 1 << 12  # candidate (point, edge) pairs per block: bounds the temporaries


def _near_edges(x, pos, p, e, a, ell, period, eps):
    """Every (point, edge) pair closer than eps in space and more than
    3 eps apart in arclength, yielded in blocks of whole points.

    Point k sits at x[k], at arclength pos[k]; edge j runs from p[j] along
    e[j] over the arclength interval [a[j], a[j] + ell[j]].  Arclength gaps
    wrap at period (L when closed, inf when open), so a point never pairs
    with the edges it lies on.  Each block is (q, j, dist, t), sorted by
    point q then edge j, with every partner of each of its points; t is
    the fraction along edge j of its point nearest x[q].  Edges are hashed
    by their start into a uniform grid and sought in the 3^dim cells
    around each point; a block holds about _PAIR_BLOCK candidates.
    """
    ne, dim = p.shape
    # a point within eps of an edge lies within eps + max(ell) of the
    # edge's start, so with cells that wide the two sit in neighbouring
    # cells; the floor on the width keeps the cell keys inside int64
    lo = np.minimum(p.min(axis=0), x.min(axis=0))
    extent = np.maximum(p.max(axis=0), x.max(axis=0)) - lo
    width = max(eps + float(ell.max()), float(extent.max()) * 2.0**-20)
    stride = np.cumprod(np.r_[1, extent[:-1] // width + 3]).astype(np.int64)

    def cell_keys(y):
        key = np.zeros(len(y), np.int64)
        for axis in range(dim):  # one axis at a time keeps temporaries 1-D
            key += ((y[:, axis] - lo[axis]) // width + 1.0).astype(np.int64) * stride[axis]
        return key

    key = cell_keys(p)
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=dim))) @ stride
    order = np.argsort(key, kind="stable")
    cells, first, size = np.unique(key[order], return_index=True, return_counts=True)
    qcells, home = np.unique(cell_keys(x), return_inverse=True)
    # per point cell and offset: where the neighbour cell's edges start in
    # `order`, and how many there are
    nb = qcells[:, None] + offsets
    slot = np.minimum(np.searchsorted(cells, nb), len(cells) - 1)
    nb_first = first[slot]
    nb_size = np.where(cells[slot] == nb, size[slot], 0)
    total = np.cumsum(nb_size.sum(axis=1)[home])
    k0 = 0
    while k0 < len(x):
        done = total[k0 - 1] if k0 else 0
        k1 = max(k0 + 1, int(np.searchsorted(total, done + _PAIR_BLOCK, "right")))
        cnt = nb_size[home[k0:k1]].ravel()
        q = np.repeat(np.repeat(np.arange(k0, k1), len(offsets)), cnt)
        shift = nb_first[home[k0:k1]].ravel() - (np.cumsum(cnt) - cnt)
        j = order[np.arange(len(q)) + np.repeat(shift, cnt)]
        span = np.maximum(a[j] + ell[j], pos[q]) - np.minimum(a[j], pos[q])
        apart = np.minimum(span - ell[j], period - span) > 3.0 * eps
        q, j = q[apart], j[apart]
        w = x[q] - p[j]
        t = np.clip(np.einsum("ij,ij->i", w, e[j]) / (ell[j] * ell[j]), 0.0, 1.0)
        w -= t[:, None] * e[j]
        d = np.sqrt(np.einsum("ij,ij->i", w, w))
        near = np.flatnonzero(d <= eps)
        near = near[np.argsort(q[near] * ne + j[near], kind="stable")]
        yield q[near], j[near], d[near], t[near]
        k0 = k1


def detect_multiplicity(c: DiscreteCurve, eps: float | None = None) -> MultiplicityReport:
    """Most distinct visits the curve pays to the eps-ball around one of
    its points.

    The curve is sampled at equal arclength steps of at most eps/2 (at
    least L / 2^16, which caps the samples at 2^16 + 1).  The partners of
    a sample x are the edges whose exact distance to x is at most eps and
    which more than 3 eps of arclength separate from x (circularly on a
    closed curve).  They split into visits wherever the arclength gap
    between consecutive partners exceeds 3 eps; on a closed curve a visit
    across the seam counts once.  r is 1 (the curve's own pass through x)
    plus the largest visit count.  Every crossing lies within eps/4 of a
    sample, so it is found wherever it falls between vertices.  The
    report is taken at the sample with the most visits whose farthest
    visit passes closest: point is that sample, witnesses the sorted
    arclengths of x and of the nearest point of each visit, which lie
    more than 3 eps apart.  Default eps = 1e-3 * L.

    Edges are hashed into a uniform grid, so for curves whose edges are
    short against their extent the cost grows linearly in the number of
    vertices; candidate pairs are handled in fixed-size blocks, which
    bounds memory.  Where the vertex numbering starts and which way it
    runs only move the samples along the curve, which leaves every
    crossing within eps/4 of one.
    """
    e = _edges(c)
    ell = np.linalg.norm(e, axis=1)
    L = float(ell.sum())
    if eps is None:
        eps = 1e-3 * L
    if not eps > 0.0:
        raise DomainError("need eps > 0")
    p = c.vertices[: len(e)]
    a = np.concatenate([[0.0], np.cumsum(ell[:-1])])
    steps = min(math.ceil(2.0 * L / eps), 2**16)
    pos = np.arange(steps if c.closed else steps + 1) * (L / steps)
    k = np.searchsorted(a, pos, "right") - 1
    x = p[k] + ((pos - a[k]) / ell[k])[:, None] * e[k]
    best = (0, 0.0, x[0].copy(), (0.0,))  # (visits, farthest visit, point, witnesses)
    for q, j, d, t in _near_edges(x, pos, p, e, a, ell, L if c.closed else math.inf, eps):
        if not len(q):
            continue
        # a run of partners with gaps of at most 3 eps is one visit
        new = np.ones(len(q), dtype=bool)
        new[1:] = (q[1:] != q[:-1]) | (a[j[1:]] - a[j[:-1]] - ell[j[:-1]] > 3.0 * eps)
        starts = np.flatnonzero(new)
        near = np.minimum.reduceat(d, starts)  # how close each visit passes
        points, at, runs = np.unique(q[starts], return_index=True, return_counts=True)
        end = np.append(starts[at[1:]], len(q))  # past each point's last partner
        visits = runs
        if c.closed:
            # a point's last visit joins its first across the seam
            first, last, tail = starts[at], at + runs - 1, end - 1
            seam = (runs > 1) & (a[j[first]] + L - a[j[tail]] - ell[j[tail]] <= 3.0 * eps)
            near[at[seam]] = np.minimum(near[at[seam]], near[last[seam]])
            near[last[seam]] = 0.0
            visits = runs - seam
        far = np.maximum.reduceat(near, at)
        b = np.lexsort((far, -visits))[0]
        if (visits[b], -far[b]) <= (best[0], -best[1]):
            continue
        # the nearest partner of each visit witnesses it
        lo = starts[at[b] : at[b] + runs[b]]
        rows = [s + int(np.argmin(d[s:h])) for s, h in zip(lo, np.append(lo[1:], end[b]))]
        if visits[b] < runs[b]:
            rows[0] = min(rows[0], rows.pop(), key=lambda r: d[r])
        wit = [pos[points[b]]] + [a[j[r]] + t[r] * ell[j[r]] for r in rows]
        best = (int(visits[b]), float(far[b]), x[points[b]].copy(), tuple(sorted(map(float, wit))))
    visits, _, point, witnesses = best
    return MultiplicityReport(point=point, r=visits + 1, witnesses=witnesses, eps=float(eps))


def liyau_check(
    c: DiscreteCurve, eps: float | None = None, tol_disc: float = 0.01
) -> LiYauReport:
    """Energy bound Bbar >= varpi* r^2 at the detected multiplicity r.

    r comes from detect_multiplicity: the most distinct visits (more than
    3 eps of arclength apart) that pass within eps of one point of the
    curve, found in time linear in the number of vertices; default
    eps = 1e-3 * L.  For r = 1 the r^2 bound (28.1...) sits below the
    closed-curve floor 4 pi^2, so the report falls back to the Fenchel
    bound (bound_kind "fenchel"); bound_reason says which case held, and
    eps and the visit witnesses are reported with it.  satisfied allows a
    tol_disc discretization margin.
    """
    if not c.closed:
        raise DomainError("the multiplicity bound applies to closed curves")
    from .curves import varpi_star  # local import: curves depends on this module

    mult = detect_multiplicity(c, eps)
    rep = normalized_energy(c)
    if mult.r >= 2:
        bound, kind = varpi_star() * mult.r**2, "liyau"
        reason = f"a point visited {mult.r} times within eps"
    else:
        bound, kind = FOUR_PI_SQ, "fenchel"
        reason = "no point visited twice within eps"
    return LiYauReport(
        r=mult.r,
        Bbar=rep.Bbar,
        bound=bound,
        satisfied=bool(rep.Bbar >= bound * (1.0 - tol_disc)),
        slack=rep.Bbar - bound,
        bound_kind=kind,
        eps=mult.eps,
        witnesses=mult.witnesses,
        bound_reason=reason,
    )


# ---------------------------------------------------------------------------
# CSV interchange

def curve_to_csv(c: DiscreteCurve) -> str:
    cols = "s,x,y" if c.dim == 2 else "s,x,y,z"
    s = vertex_arclengths(c)
    buf = io.StringIO()
    buf.write(f"# closed={'true' if c.closed else 'false'}\n")
    buf.write(cols + "\n")
    for si, vi in zip(s, c.vertices):
        buf.write(",".join(f"{val:.17g}" for val in (si, *vi)) + "\n")
    return buf.getvalue()


def curve_from_csv(text: str) -> DiscreteCurve:
    closed_marker: bool | None = None
    header: list[str] | None = None
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip().lower()
            if body.startswith("closed="):
                val = body.split("=", 1)[1].strip()
                if val not in ("true", "false"):
                    raise DomainError(f"line {lineno}: closed marker must be true/false")
                closed_marker = val == "true"
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if header is None:
            header = [h.lower() for h in cells]
            if header[:3] != ["s", "x", "y"]:
                raise DomainError(f"line {lineno}: header must start with s,x,y got {cells}")
            continue
        if len(cells) != len(header):
            raise DomainError(f"line {lineno}: expected {len(header)} columns")
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise DomainError(f"line {lineno}: bad number in {raw!r}") from exc
    if header is None or not rows:
        raise DomainError("no data rows found")
    ncoord = 3 if len(header) >= 4 and header[3] == "z" else 2
    data = np.asarray(rows)
    verts = data[:, 1 : 1 + ncoord]
    closed = closed_marker
    gap = float(np.linalg.norm(verts[0] - verts[-1]))
    scale = float(np.sum(np.linalg.norm(np.diff(verts, axis=0), axis=1)))
    coincide = gap <= 1e-9 * max(scale, 1.0)
    if closed is None:
        closed = coincide
    if closed and coincide:
        verts = verts[:-1]  # drop the duplicated seam vertex
    return DiscreteCurve(verts, closed=bool(closed))


def save_curve_csv(c: DiscreteCurve, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(curve_to_csv(c))


def load_curve_csv(path) -> DiscreteCurve:
    with open(path, "r", encoding="ascii") as fh:
        return curve_from_csv(fh.read())
