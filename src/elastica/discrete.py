"""Discrete curves: length, bending energy, multiplicity, energy bounds.

A curve is a polyline (open or closed) with at least 3 vertices in R^2 or
R^3 and strictly positive edge lengths.  Edge i runs from vertex i to
vertex i + 1, and a closed curve's last edge runs back to vertex 0.
DiscreteCurve computes its edges and their lengths once, while checking
them, and stores them read-only beside the vertices; its turning angles
(signed ones in the plane) and vertex arclengths are computed on first use
and kept, read-only, for the life of the curve.  These attributes are the
one spelling of a curve's geometry: every quantity below (L, B, TC,
multiplicity, the Li-Yau check) reads them from there.  Discrete
curvature lives on vertices: with turning angle theta_i between
consecutive edges and dual length lbar_i = (l_{i-1} + l_i)/2,

    kappa_i = 2 theta_i / (l_{i-1} + l_i) = theta_i / lbar_i,

so B = sum kappa_i^2 lbar_i, TC = sum |theta_i| = sum |kappa_i| lbar_i, and
the Cauchy-Schwarz chain B*L >= TC^2 holds exactly in floating point up to
rounding.  Endpoints of open curves carry no curvature mass (the natural
boundary condition of pinned minimizers).  The normalized energy
Bbar = L*B is exactly scale invariant: turning angles do not change under
dilation and lengths scale linearly.

CSV interchange: header ``s,x,y[,z]`` (s = cumulative arclength), a
``# closed=true|false`` comment marker, 17 significant digits (_csv, which
also writes the CLI's sample and trajectory CSVs); on input a missing marker
falls back to endpoint-coincidence detection.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .curves import varpi_star
from .errors import DomainError

__all__ = [
    "DiscreteCurve",
    "EnergyReport",
    "MultiplicityReport",
    "LiYauReport",
    "FOUR_PI_SQ",
    "length",
    "curvature_data",
    "bending_energy",
    "total_curvature",
    "normalized_energy",
    "detect_multiplicity",
    "liyau_check",
    "curve_to_csv",
    "curve_from_csv",
    "load_curve_csv",
]

FOUR_PI_SQ = 4.0 * math.pi**2
_LIYAU_MARGIN = 0.01  # relative discretization margin of Bbar >= varpi* r^2


@dataclass(frozen=True)
class DiscreteCurve:
    """Polyline in R^2 or R^3; every array is read-only.

    edges[i] runs from vertex i to vertex i + 1; a closed curve has one
    more edge, from the last vertex back to vertex 0.  edges and
    edge_lengths are computed once, by the checks of the constructor
    (`_row_norms`).  turning_angles, signed_turning_angles and
    vertex_arclengths are computed once, on first use.
    """

    vertices: np.ndarray
    closed: bool = False
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    edge_lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] not in (2, 3):
            raise DomainError(f"vertices must be (n, 2) or (n, 3), got {v.shape}")
        if len(v) < 3:
            raise DomainError("a discrete curve needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise DomainError("vertices must be finite")
        with np.errstate(over="ignore"):  # finite vertices can still overflow an edge
            e = np.diff(v, axis=0)
            if self.closed:
                e = np.vstack([e, v[0] - v[-1]])
            ell = _row_norms(e)
            if not math.isfinite(ell.sum()):
                raise DomainError("edge lengths must be finite")
        if np.any(ell == 0.0):
            raise DomainError("consecutive vertices must be distinct")
        for name, arr in (("vertices", v), ("edges", e), ("edge_lengths", ell)):
            object.__setattr__(self, name, _frozen(arr))

    def __reduce__(self):  # rebuilt on unpickling: read-only again, caches not shipped
        return DiscreteCurve, (self.vertices, self.closed)

    def __eq__(self, other):
        if not isinstance(other, DiscreteCurve):
            return NotImplemented
        return self.closed == other.closed and np.array_equal(self.vertices, other.vertices)

    def __hash__(self):  # + 0.0 turns -0.0 into 0.0, which array_equal calls equal
        return hash((bool(self.closed), (self.vertices + 0.0).tobytes()))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def turning_angles(self) -> np.ndarray:
        """Turning angle in [0, pi] at each turning vertex (all vertices if
        closed, interior ones if open)."""
        if self.dim == 2:  # arctan2 is odd in y: |signed| is the unsigned angle
            return _frozen(np.abs(self.signed_turning_angles))
        return _frozen(_turn(*_pairs(self, self.edges))[0])

    @cached_property
    def signed_turning_angles(self) -> np.ndarray:
        """Counterclockwise turning angle in [-pi, pi]; planar curves only."""
        if self.dim != 2:
            raise DomainError("signed turning angles are only defined in the plane")
        a, b = _pairs(self, self.edges)
        cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        return _frozen(np.arctan2(cross, np.einsum("ij,ij->i", a, b)))

    @cached_property
    def vertex_arclengths(self) -> np.ndarray:
        """Cumulative arclength of each vertex from vertex 0."""
        return _frozen(np.concatenate([[0.0], np.cumsum(self.edge_lengths[: self.n_vertices - 1])]))


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Norm of each row of a real (n, 2) or (n, 3) X: np.linalg.norm(X, axis=1), bit for bit."""
    x = X.T
    s = x[0] * x[0] + x[1] * x[1]
    if len(x) == 3:
        s += x[2] * x[2]
    return np.sqrt(s)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
        return json.dumps(asdict(self))


# ---------------------------------------------------------------------------
# edge/vertex geometry

def _pairs(c: DiscreteCurve, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(incoming, outgoing) rows of the per-edge array x at every turning
    vertex: all vertices if closed, interior ones if open."""
    if c.closed:
        return np.roll(x, 1, axis=0), x
    return x[:-1], x[1:]


def length(c: DiscreteCurve) -> float:
    return float(c.edge_lengths.sum())


def _turn(a: np.ndarray, b: np.ndarray):
    """(theta, a . b, |a x b|) for each pair of rows of a and b: the angle
    between them, its cosine times |a||b| and its sine times |a||b|.  In
    3-D the cross product and its norm are written out on coordinate rows,
    the same floats as np.linalg.norm(np.cross(a, b), axis=1)."""
    d = np.einsum("ij,ij->i", a, b)
    if a.shape[1] == 2:
        n = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    else:
        (ax, ay, az), (bx, by, bz) = a.T, b.T
        cx, cy, cz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
        n = np.sqrt(cx * cx + cy * cy + cz * cz)
    return np.arctan2(n, d), d, n


def _turn_ratio(theta: np.ndarray, n: np.ndarray) -> np.ndarray:
    """theta / n, and 1 where n is not above 1e-300: theta / sin(theta) for
    unit rows, the factor that keeps grad(theta^2) smooth through 0."""
    return np.where(n > 1e-300, theta / np.maximum(n, 1e-300), 1.0)


def curvature_data(c: DiscreteCurve, signed: bool = False):
    """(kappa, lbar, s) at the turning vertices.

    kappa = theta / lbar with lbar the dual length; s is the arclength of
    each turning vertex (closed: all vertices; open: interior vertices).
    """
    theta = c.signed_turning_angles if signed else c.turning_angles
    la, lb = _pairs(c, c.edge_lengths)
    lbar = 0.5 * (la + lb)
    s = c.vertex_arclengths
    return theta / lbar, lbar, s if c.closed else s[1:-1]


def bending_energy(c: DiscreteCurve) -> float:
    """B = sum kappa_i^2 lbar_i over turning vertices."""
    theta = c.turning_angles
    la, lb = _pairs(c, c.edge_lengths)
    return float(np.sum(2.0 * theta * theta / (la + lb)))


def total_curvature(c: DiscreteCurve) -> float:
    """TC = sum |theta_i| (= sum |kappa_i| lbar_i exactly)."""
    return float(np.sum(c.turning_angles))


def normalized_energy(c: DiscreteCurve) -> EnergyReport:
    L = length(c)
    B = bending_energy(c)
    return EnergyReport(L=L, B=B, Bbar=L * B, TC=total_curvature(c))


_PAIR_BLOCK = 1 << 14  # candidate (point, edge) pairs per block: bounds the temporaries


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
    pt, xt = p.T.copy(), x.T.copy()  # coordinate rows: fast to reduce and hash
    # a point within eps of an edge lies within eps + max(ell) of the
    # edge's start, so with cells that wide the two sit in neighbouring
    # cells; the floor on the width keeps the cell keys inside int64
    lo = np.minimum(pt.min(axis=1), xt.min(axis=1))
    extent = np.maximum(pt.max(axis=1), xt.max(axis=1)) - lo
    width = max(eps + float(ell.max()), float(extent.max()) * 2.0**-20)
    stride = np.cumprod(np.r_[1, (extent[:-1] / width).astype(np.int64) + 3])

    def cell_keys(yt):
        key = np.full(yt.shape[1], stride.sum())  # index + 1 per axis: neighbours >= 0
        for axis in range(dim):  # yt >= lo, so the cast floors the quotient
            key += ((yt[axis] - lo[axis]) / width).astype(np.int64) * stride[axis]
        return key

    key = cell_keys(pt)
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=dim))) @ stride
    order = np.argsort(key, kind="stable")
    cells, first, size = np.unique(key[order], return_index=True, return_counts=True)
    qcells, home = np.unique(cell_keys(xt), return_inverse=True)
    # per point cell and offset: where the neighbour cell's edges start in
    # `order`, and how many there are; each offset's row of keys is sorted,
    # which searchsorted walks fastest
    nb = offsets[:, None] + qcells
    slot = np.minimum(np.searchsorted(cells, nb), len(cells) - 1).T.copy()
    nb_first = first[slot]
    nb_size = np.where(cells[slot] == nb.T, size[slot], 0)
    del nb, slot
    per_point = nb_size.sum(axis=1)[home]
    total = np.cumsum(per_point)
    a_end, ell_sq = a + ell, ell * ell  # elementwise: gathered, the same floats as per pair

    def block(k0, k1):
        cnt = nb_size[home[k0:k1]].ravel()
        q = np.repeat(np.arange(k0, k1), per_point[k0:k1])
        shift = nb_first[home[k0:k1]].ravel() - (np.cumsum(cnt) - cnt)
        j = order[np.arange(len(q)) + np.repeat(shift, cnt)]
        aj, sq = a[j], pos[q]
        span = np.maximum(a_end[j], sq) - np.minimum(aj, sq)
        apart = np.flatnonzero(np.minimum(span - ell[j], period - span) > 3.0 * eps)
        del aj, sq, span  # one block's temporaries set the peak memory
        q, j = q[apart], j[apart]
        w = x.take(q, axis=0)
        w -= p.take(j, axis=0)
        ej = e.take(j, axis=0)
        t = np.clip(np.einsum("ij,ij->i", w, ej) / ell_sq[j], 0.0, 1.0)
        ej *= t[:, None]
        w -= ej
        d = np.sqrt(np.einsum("ij,ij->i", w, w))
        near = np.flatnonzero(d <= eps)
        near = near[np.argsort(q[near] * ne + j[near], kind="stable")]
        return q[near], j[near], d[near], t[near]

    k0 = 0
    while k0 < len(x):
        done = total[k0 - 1] if k0 else 0
        k1 = max(k0 + 1, int(np.searchsorted(total, done + _PAIR_BLOCK, "right")))
        yield block(k0, k1)
        k0 = k1


def detect_multiplicity(c: DiscreteCurve, eps: float | None = None) -> MultiplicityReport:
    """Most distinct visits the curve pays to the eps-ball around one of
    its points.

    The curve is sampled at equal arclength steps of at most eps/2.  The
    partners of a sample x are the edges whose exact distance to x is at
    most eps and which more than 3 eps of arclength separate from x
    (circularly on a closed curve).  They split into visits wherever the
    arclength gap between consecutive partners exceeds 3 eps; on a closed
    curve a visit across the seam counts once.  r is 1 (the curve's own
    pass through x) plus the largest visit count.  Every crossing lies
    within eps/4 of a sample, so it is found wherever it falls between
    vertices.  The report is taken at the sample with the most visits
    whose farthest visit passes closest: point is that sample, witnesses
    the sorted arclengths of x and of the nearest point of each visit,
    which lie more than 3 eps apart.  Default eps = 1e-3 * L; eps must be
    at least 2L / 2^16 (at most 2^16 + 1 samples), else DomainError: a
    coarser sampling could miss a crossing; and at most L / 6 on a closed
    curve (L / 3 on an open one), else DomainError: two visits more than
    3 eps apart need an arclength circle longer than 6 eps (a segment
    longer than 3 eps).

    Edges are hashed into a uniform grid, so for curves whose edges are
    short against their extent the cost grows linearly in the number of
    vertices; candidate pairs are handled in fixed-size blocks, which
    bounds memory.  Where the vertex numbering starts and which way it
    runs only move the samples along the curve, which leaves every
    crossing within eps/4 of one.
    """
    e, ell, L = c.edges, c.edge_lengths, length(c)
    if eps is None:
        eps = 1e-3 * L
    top = L / 6.0 if c.closed else L / 3.0
    if not 2.0 * L / 2**16 <= eps <= top:
        raise DomainError(f"need eps in [2 L / 2^16, L / {6 if c.closed else 3}] = "
                          f"[{2.0 * L / 2**16:.17g}, {top:.17g}]")
    p = c.vertices[: len(e)]
    a = c.vertex_arclengths[: len(e)]
    steps = math.ceil(2.0 * L / eps)
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
        qs = q[starts]  # sorted, so each point's visits are consecutive
        at = np.flatnonzero(np.r_[True, qs[1:] != qs[:-1]])  # each point's first visit
        runs, first, points = np.diff(np.append(at, len(qs))), starts[at], qs[at]
        end = np.append(first[1:], len(q))  # past each point's last partner
        visits = runs
        if c.closed:
            # a point's last visit joins its first across the seam
            last, tail = at + runs - 1, end - 1
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


def liyau_check(c: DiscreteCurve, eps: float | None = None) -> LiYauReport:
    """Energy bound Bbar >= varpi* r^2 at the detected multiplicity r.

    r comes from detect_multiplicity: the most distinct visits (more than
    3 eps of arclength apart) that pass within eps of one point of the
    curve, found in time linear in the number of vertices; default
    eps = 1e-3 * L.  For r = 1 the r^2 bound (28.1...) sits below the
    closed-curve floor 4 pi^2, so the report falls back to the Fenchel
    bound (bound_kind "fenchel"); bound_reason says which case held, and
    eps and the visit witnesses are reported with it.  satisfied allows a
    1% discretization margin (_LIYAU_MARGIN): Bbar >= 0.99 bound.
    """
    if not c.closed:
        raise DomainError("the multiplicity bound applies to closed curves")
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
        satisfied=bool(rep.Bbar >= bound * (1.0 - _LIYAU_MARGIN)),
        slack=rep.Bbar - bound,
        bound_kind=kind,
        eps=mult.eps,
        witnesses=mult.witnesses,
        bound_reason=reason,
    )


# ---------------------------------------------------------------------------
# CSV interchange

def _csv(header: str, *cols) -> str:
    """header, then one row per sample of the float columns, 17 significant digits."""
    row = ",".join(["{:.17g}"] * len(cols))
    # Python floats format to the same text as numpy's float64, and faster
    return "\n".join([header, *(row.format(*v) for v in zip(*(c.tolist() for c in cols)))]) + "\n"


def curve_to_csv(c: DiscreteCurve) -> str:
    header = "s,x,y" if c.dim == 2 else "s,x,y,z"
    marker = f"# closed={'true' if c.closed else 'false'}\n"
    return marker + _csv(header, c.vertex_arclengths, *c.vertices.T)


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
    scale = float(np.sum(_row_norms(np.diff(verts, axis=0))))
    coincide = gap <= 1e-9 * max(scale, 1.0)
    if closed is None:
        closed = coincide
    if closed and coincide:
        verts = verts[:-1]  # drop the duplicated seam vertex
    return DiscreteCurve(verts, closed=bool(closed))


def _read_ascii(path) -> str:
    """An ASCII input file's text, CRLF and CR read as LF as open() reads
    them; a non-ASCII byte is a DomainError naming the file and line."""
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:  # exc.start is the offset in data
        line = data.count(b"\n", 0, exc.start) + 1
        raise DomainError(f"{path}:{line}: non-ASCII byte 0x{data[exc.start]:02x}") from None


def load_curve_csv(path) -> DiscreteCurve:
    return curve_from_csv(_read_ascii(path))
