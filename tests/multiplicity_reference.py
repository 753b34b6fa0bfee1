"""Multiplicity detection as the library first wrote it, for tests.

This is the narrow phase and visit grouping that `elastica.discrete`
replaced with a leaner one doing the same arithmetic in fewer NumPy calls:
each candidate pair gathers its edge's rows where it uses them, blocks
hold about 2^12 candidates, and each point's first visit comes from
`np.unique`.  The tests require both to give bit-identical reports.
"""

import itertools
import math

import numpy as np

from elastica.discrete import DiscreteCurve, MultiplicityReport, length

PAIR_BLOCK = 1 << 12


def reference_near_edges(x, pos, p, e, a, ell, period, eps):
    """Every (point, edge) pair closer than eps in space and more than
    3 eps apart in arclength, in blocks of whole points sorted by (q, j):
    the contract of `elastica.discrete._near_edges`."""
    ne, dim = p.shape
    lo = np.minimum(p.min(axis=0), x.min(axis=0))
    extent = np.maximum(p.max(axis=0), x.max(axis=0)) - lo
    width = max(eps + float(ell.max()), float(extent.max()) * 2.0**-20)
    stride = np.cumprod(np.r_[1, extent[:-1] // width + 3]).astype(np.int64)

    def cell_keys(y):
        key = np.zeros(len(y), np.int64)
        for axis in range(dim):
            key += ((y[:, axis] - lo[axis]) // width + 1.0).astype(np.int64) * stride[axis]
        return key

    key = cell_keys(p)
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=dim))) @ stride
    order = np.argsort(key, kind="stable")
    cells, first, size = np.unique(key[order], return_index=True, return_counts=True)
    qcells, home = np.unique(cell_keys(x), return_inverse=True)
    nb = qcells[:, None] + offsets
    slot = np.minimum(np.searchsorted(cells, nb), len(cells) - 1)
    nb_first = first[slot]
    nb_size = np.where(cells[slot] == nb, size[slot], 0)
    total = np.cumsum(nb_size.sum(axis=1)[home])
    k0 = 0
    while k0 < len(x):
        done = total[k0 - 1] if k0 else 0
        k1 = max(k0 + 1, int(np.searchsorted(total, done + PAIR_BLOCK, "right")))
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


def narrow_phase_args(c: DiscreteCurve, eps: float | None = None) -> tuple:
    """(x, pos, p, e, a, ell, period, eps): the samples and edges that
    detect_multiplicity hands to its narrow phase."""
    e, ell, L = c.edges, c.edge_lengths, length(c)
    if eps is None:
        eps = 1e-3 * L
    p = c.vertices[: len(e)]
    a = c.vertex_arclengths[: len(e)]
    steps = min(math.ceil(2.0 * L / eps), 2**16)
    pos = np.arange(steps if c.closed else steps + 1) * (L / steps)
    k = np.searchsorted(a, pos, "right") - 1
    x = p[k] + ((pos - a[k]) / ell[k])[:, None] * e[k]
    return x, pos, p, e, a, ell, L if c.closed else math.inf, eps


def reference_detect_multiplicity(c: DiscreteCurve, eps: float | None = None) -> MultiplicityReport:
    """The report of `elastica.discrete.detect_multiplicity` for an eps at
    or above its floor, computed through reference_near_edges."""
    args = narrow_phase_args(c, eps)
    x, pos, p, e, a, ell, _, eps = args
    L = length(c)
    best = (0, 0.0, x[0].copy(), (0.0,))
    for q, j, d, t in reference_near_edges(*args):
        if not len(q):
            continue
        new = np.ones(len(q), dtype=bool)
        new[1:] = (q[1:] != q[:-1]) | (a[j[1:]] - a[j[:-1]] - ell[j[:-1]] > 3.0 * eps)
        starts = np.flatnonzero(new)
        near = np.minimum.reduceat(d, starts)
        points, at, runs = np.unique(q[starts], return_index=True, return_counts=True)
        end = np.append(starts[at[1:]], len(q))
        visits = runs
        if c.closed:
            first, last, tail = starts[at], at + runs - 1, end - 1
            seam = (runs > 1) & (a[j[first]] + L - a[j[tail]] - ell[j[tail]] <= 3.0 * eps)
            near[at[seam]] = np.minimum(near[at[seam]], near[last[seam]])
            near[last[seam]] = 0.0
            visits = runs - seam
        far = np.maximum.reduceat(near, at)
        b = np.lexsort((far, -visits))[0]
        if (visits[b], -far[b]) <= (best[0], -best[1]):
            continue
        lo = starts[at[b] : at[b] + runs[b]]
        rows = [s + int(np.argmin(d[s:h])) for s, h in zip(lo, np.append(lo[1:], end[b]))]
        if visits[b] < runs[b]:
            rows[0] = min(rows[0], rows.pop(), key=lambda r: d[r])
        wit = [pos[points[b]]] + [a[j[r]] + t[r] * ell[j[r]] for r in rows]
        best = (int(visits[b]), float(far[b]), x[points[b]].copy(), tuple(sorted(map(float, wit))))
    visits, _, point, witnesses = best
    return MultiplicityReport(point=point, r=visits + 1, witnesses=witnesses, eps=float(eps))
