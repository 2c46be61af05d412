"""Quality triangular meshes for doubly connected planar domains.

The generator is a force-based relaxation over a Delaunay triangulation
(truss smoothing in the style of Persson & Strang): boundary vertices are
fixed where `boundary_polylines` placed them, interior points start on a
density-matched grid and repel each other until edge lengths track the
graded size field.  Seeding picks the live points: the seeds deeper than
FREEZE_DEPTH*h, where the seed lattice is already at rest and the size is
h, never move.  A settle (each retriangulation, including a final one of
the settled cloud) moves the live points too close to a boundary back
onto that standoff (`_project`), brings the triangulation to the points,
and returns the size field at the live points and the region's triangles
with their half-edge twins; the relaxation builds bars (each edge of a
triangle with a live corner once, by `_unique_edges`) and target sizes
(`size_field` at the bar midpoints) from every settle but the final one.
No point is added or removed after seeding, so each keeps its index from
`_seed_points` to the mesh.  A relaxation that has not settled after
MAX_ITER iterations raises MeshError.  Seeding is deterministic (a
low-discrepancy sequence, not a random generator), and so is the mesh.

The triangulation is built once and repaired at every settle.  `_build`
starts it from the seed lattice's triangles, which `_seed_points` returns
by index, and Qhull triangulates only the band of points left over
(`_lattice_start`); the centroid filter keeps the simplices inside the
region, and their half-edges are paired once, by a sort.  Lawson edge
flips repair the previous triangles at the new positions, carrying the
pairing along, so no flip round sorts anything.  The hull edges, the two
boundary polylines, are fixed Delaunay edges (no point enters the hole's
circle), so once every triangle is positive and every edge passes the flip
test the triangles are the region's part of a Delaunay triangulation.  Of
the two diagonals of a quad cocircular up to rounding (as across the axis
of a mirror-symmetric domain) the test takes the one through the
lowest-index vertex, so every start gives the same mesh bit for bit.
Qhull meets every point again only at a settle whose repair fails (an
inverted triangle, or MAX_FLIP_ROUNDS), which none of the 1,020 settles of
the cases tools/mesh_identity.py records does.  No seed needs the
standoff: seeds lie SEED_MARGIN*fh inside the region, past
ESCAPE_FRACTION*fh, by the same per-point measures.

The relaxation stops once no interior point moves more than PTOL*fh in a
force step.  PTOL is chosen by what it does to the eigenvalues (see the
constant), not by DistMesh's point-move scale.

Boundary edges are recovered by index: vertex 0..n_outer-1 is the outer
polyline, the next n_inner the hole polyline, so a boundary edge joins
cyclically consecutive indices.  The edges are listed in that order, two
closed chains, so an edge's loop follows from the range it lies in
(`Mesh.outer_edges`).  Both circles and convex outer polygons are always
present as Delaunay edges, so the recovery is a checked invariant rather
than a repair step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import Delaunay, cKDTree

from .domains import (
    DomainSpec,
    GRADE_FRACTION,
    MIN_SIZE_DIVISOR,
    boundary_polylines,
    region_signed_distance,
    size_field,
)

__all__ = [
    "Mesh",
    "MeshError",
    "mesh_min_angle",
    "triangulate",
    "validate_mesh",
]

# Relaxation parameters (edge-length overshoot, pseudo-time step, move
# tolerances for retriangulation and convergence, boundary standoff).
# A settle follows every force step that takes a live point more than
# TTOL*fh from where the last one left it on the standoff, so after every
# other step the live points lie (ESCAPE_FRACTION - TTOL)*fh inside; the
# step a settle follows can go further (0.0966*fh on one recorded case).
FSCALE = 1.2
DELTA_T = 0.2
# TTOL is the largest of 0.15, 0.2 and 0.25 whose eigenvalues on every
# benchmark mesh drift less than 2e-5 relative from those at DistMesh's 0.1
# with no frozen point, and whose force steps over the 174 cases of
# tools/mesh_identity.py exceed those by at most 2%: at FREEZE_DEPTH = 4,
# 0.15 drifts 2.01e-5, and 0.25 takes 2.6% more steps.
TTOL = 0.2
# PTOL is the largest of 2e-3, 4e-3, 8e-3 and 1.6e-2 whose eigenvalues on
# every benchmark mesh drift less than 1e-4 relative (the benchmark's
# EIG_DRIFT_TOL) from those at 2e-3; 1.6e-2 drifts 1.7e-4.
PTOL = 8e-3
ESCAPE_FRACTION = 0.3
# The seeds deeper than FREEZE_DEPTH*h never move (see `_seed_points`):
# their feature size exceeds 2*FREEZE_DEPTH*h, so their size is h, and the
# seed lattice there is at rest.  FREEZE_DEPTH is the smallest of 4, 6 and
# 8 whose benchmark eigenvalues, at TTOL as chosen, keep within TTOL's
# 2e-5 (4 drifts 1.3e-5).
FREEZE_DEPTH = 4
SEED_MARGIN = 0.45
MAX_ITER = 1500
# `_project` took at most two steps at any settle: one at 3 and two at 3 of
# tools/mesh_identity.py's 174 cases, one at 15 and two at 45 hypothesis draws.
MAX_PROJECT_STEPS = 5
GEPS = 1e-3  # DistMesh's geps: kept centroids lie GEPS*h inside the region

# In-circle determinants within FLIP_TIE_RTOL of their permanent (the sum of
# the absolute values of their terms; see `_flip_to_delaunay` for which) are
# ties: the four points are cocircular up to rounding and either diagonal
# is Delaunay.  Mirror-symmetric domains produce such quads at about 4e-14.
# Over the 172 meshes that tools/mesh_identity.py records, a repair between
# two settles takes at most five rounds of flips, and `_build`'s pass on the
# lattice start at most five.  A settle whose pass reaches MAX_FLIP_ROUNDS
# calls `_build`; a pass on a lattice start that does sends `_build` to
# Qhull, and one on Qhull's triangles leaves them.
FLIP_TIE_RTOL = 1e-10
MAX_FLIP_ROUNDS = 50

MIN_ANGLE_DEG = 20.0

_WEYL = 0.6180339887498949  # frac(golden ratio), for seedless rejection


class MeshError(Exception):
    """Raised when a mesh cannot be built or violates an invariant."""


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation of a doubly connected planar region."""

    vertices: np.ndarray  # (nv, 2) float
    triangles: np.ndarray  # (nt, 3) int, counterclockwise
    boundary_edges: np.ndarray  # (nb, 2) int, outer then hole loop, chained
    n_outer: int  # the first n_outer boundary edges are the outer loop
    h: float  # target edge length the mesh was built for

    @property
    def outer_edges(self):
        """The outer loop's rows of `boundary_edges`."""
        return self.boundary_edges[: self.n_outer]

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def triangle_count(self):
        return len(self.triangles)


def _triangle_signed_areas(vertices, triangles):
    # one complex gather per corner; a complex difference is the two real
    # ones, so the areas are those of (n, 2) row gathers, bit for bit
    z = np.ascontiguousarray(vertices, float).view(complex).ravel()
    p0 = z.take(triangles[:, 0])
    d1 = z.take(triangles[:, 1]) - p0
    d2 = z.take(triangles[:, 2]) - p0
    return 0.5 * (d1.real * d2.imag - d1.imag * d2.real)


def mesh_min_angle(mesh: Mesh) -> float:
    """Smallest interior angle over all triangles, in degrees."""
    p = mesh.vertices[mesh.triangles]  # corner k of each triangle is p[:, k]
    a, b = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
    num = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    den = np.hypot(a[..., 0], a[..., 1]) * np.hypot(b[..., 0], b[..., 1])
    # arccos decreases, so the smallest angle is that of the largest cosine
    return float(np.degrees(np.arccos(np.clip(num / den, -1.0, 1.0).max())))


def _half_edge_keys(tri, n):
    """The key i*n + j, i < j its ends, of each half-edge 3t + k of `tri` over
    n vertices (tri[t, k] to tri[t, (k+1) % 3]); keys sort like (i, j) rows."""
    a, b = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    return np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)


def _unique_edges(triangles, n):
    """Distinct edges of the triangles over n vertices, each as (i, j) with
    i < j, in lexicographic order, and the number of triangles sharing each."""
    key, counts = np.unique(_half_edge_keys(triangles, n), return_counts=True)
    return np.column_stack([key // n, key % n]).astype(triangles.dtype), counts


def _hex_grid(xmin, xmax, ymin, ymax, spacing):
    """A hexagonal lattice over the box, row by row from ymin, each odd row
    shifted right by half a spacing, and the number of points in each row."""
    dy = spacing * math.sqrt(3.0) / 2.0
    rows = []
    y = ymin
    row = 0
    while y <= ymax + 1e-12:
        offset = 0.5 * spacing if row % 2 else 0.0
        xs = np.arange(xmin + offset, xmax + spacing, spacing)
        rows.append(np.column_stack([xs, np.full(xs.shape, y)]))
        y += dy
        row += 1
    return np.vstack(rows), np.array([len(r) for r in rows])


def _hex_triangles(count):
    """The counterclockwise triangles, by index, of the `_hex_grid` lattice
    with `count` points per row: between rows r and r + 1, k = r % 2, with
    L_c and U_c the c-th points of each, the up (L_c, L_c+1, U_c+k) and the
    down (L_c, U_c+k, U_c+k-1) triangles whose corners all exist."""
    col = np.arange(-1, count.max() + 1)  # idx[r, 1 + c] is U_c of row r
    idx = np.where((col >= 0) & (col < count[:, None]),
                   (np.cumsum(count) - count)[:, None] + col, -1)
    k = (np.arange(len(count) - 1) % 2 == 1)[:, None]
    lo, hi = idx[:-1, 1:-1], idx[:-1, 2:]
    up = np.where(k, idx[1:, 2:], idx[1:, 1:-1])
    left = np.where(k, idx[1:, 1:-1], idx[1:, :-2])
    a, b = (hi >= 0) & (up >= 0), (lo >= 0) & (up >= 0) & (left >= 0)
    return np.vstack([np.column_stack([lo[a], hi[a], up[a]]),
                      np.column_stack([lo[b], up[b], left[b]])])


def _seed_points(spec: DomainSpec, h: float):
    """Interior starting points with density matched to the size field, the
    triangles of the coarse lattice among them, the ascending indices of
    the live seeds (those within FREEZE_DEPTH*h of the boundary) and the
    size field there.

    A coarse hexagonal grid covers the ungraded bulk (where the size field
    equals h).  Its kept points lead the seeds, and its triangles whose
    three corners are all kept (`_hex_triangles`) are returned by index
    into the seeds.  Where the field drops below h, a fine grid at the
    smallest target size is thinned by low-discrepancy rejection so the
    local point density approaches 1/fh^2.
    """
    a, b = spec.outer.half_extents
    coarse, count = _hex_grid(-a, a, -b, b, h)
    sd, fh = region_signed_distance(spec, coarse), size_field(spec, h, coarse)
    keep = (fh >= h * (1.0 - 1e-9)) & (sd < -SEED_MARGIN * fh)
    parts = [(coarse[keep], sd[keep], fh[keep])]
    lattice = _hex_triangles(count)
    lattice = (np.cumsum(keep) - 1)[lattice[keep[lattice].all(axis=1)]]

    fh_min = max(h / MIN_SIZE_DIVISOR, min(h, GRADE_FRACTION * spec.clearance))
    if fh_min < h * (1.0 - 1e-9):
        probe = _hex_grid(-a, a, -b, b, h / 2.0)[0]
        graded = size_field(spec, h, probe) < h * (1.0 - 1e-9)
        if np.any(graded):
            gx, gy = probe[graded, 0], probe[graded, 1]
            fine = _hex_grid(
                gx.min() - h, gx.max() + h, gy.min() - h, gy.max() + h, fh_min
            )[0]
            sd_f, fh_f = region_signed_distance(spec, fine), size_field(spec, h, fine)
            cand = (fh_f < h * (1.0 - 1e-9)) & (sd_f < -SEED_MARGIN * fh_f)
            fine, sd_f, fh_f = fine[cand], sd_f[cand], fh_f[cand]
            u = np.mod(np.arange(1, len(fine) + 1) * _WEYL, 1.0)
            thin = u < (fh_min / fh_f) ** 2
            parts.append((fine[thin], sd_f[thin], fh_f[thin]))
    seeds, sd, fh = (np.concatenate(part) for part in zip(*parts))
    live = np.flatnonzero(sd >= -FREEZE_DEPTH * h)
    return seeds, lattice, live, fh[live]


def _incircle(p, a, b, c, d):
    """In-circle determinant of d against each counterclockwise triangle
    (a, b, c), positive when d lies inside the circumcircle, and its
    permanent."""
    z = p.view(complex).ravel()  # complex gathers beat (n, 2) row gathers
    zd = z.take(d)
    ad, bd, cd = z.take(a) - zd, z.take(b) - zd, z.take(c) - zd
    adx, ady, bdx, bdy = ad.real, ad.imag, bd.real, bd.imag
    cdx, cdy = cd.real, cd.imag
    terms = [
        (adx * adx + ady * ady, bdx * cdy, cdx * bdy),
        (bdx * bdx + bdy * bdy, cdx * ady, adx * cdy),
        (cdx * cdx + cdy * cdy, adx * bdy, bdx * ady),
    ]
    det = sum(lift * (s - t) for lift, s, t in terms)
    perm = sum(lift * (np.abs(s) + np.abs(t)) for lift, s, t in terms)
    return det, perm


def _twins(tri, n):
    """The twin of each half-edge of the triangulation `tri` over n vertices,
    -1 on the hull: the half-edge that shares its key, found by a sort."""
    key = _half_edge_keys(tri, n)
    order = np.argsort(key)
    pair = key[order[1:]] == key[order[:-1]]
    e1, e2 = order[:-1][pair], order[1:][pair]
    twin = np.full(len(key), -1, dtype=np.intp)
    twin[e1], twin[e2] = e2, e1
    return twin


def _flip_to_delaunay(pts, tri, twin, start=None):
    """Lawson-flip the counterclockwise triangulation `tri` of `pts`, with
    half-edge twins `twin` (see `_twins`), until every edge passes the
    test below; return the new (tri, twin), or None when a triangle is not
    positive or after MAX_FLIP_ROUNDS rounds.  `start`, a mask over the
    triangles, holds those whose corners may have moved since every edge
    last passed; None when any edge may fail.

    The triangles (a, b, c) and (b, a, d) across an edge a -> b form the
    counterclockwise quad a, d, b, c, tested at its lowest-index vertex v
    against the circle through the other three (counterclockwise from v),
    so both diagonals read the same numbers.  The diagonal runs through v
    unless v lies outside by more than FLIP_TIE_RTOL times the smallest
    permanent of the determinants at v and at its two neighbours (v's own
    can be far larger when v lies far from the rest).  Away from ties that
    is Lawson's test; a tie goes to v, the Delaunay rule for the lifts
    |p_i|^2 - eps_i with eps_0 >> eps_1 >> ... > 0 (Edelsbrunner and
    Muecke's simulation of simplicity), which picks one triangulation of
    each set of cocircular points.

    Each round takes every interior edge of a triangle that changed in the
    previous round (in the first, of `start`, or every edge) straight from
    `twin` and tests its quad; every edge outside `start` passed before
    and its quad has not moved, so a pass from `start` tests every edge
    that can fail.  It then flips the failing edges that are the
    lowest-numbered failing edge of both their triangles, which makes the
    flips of a round independent.  A flip rewrites one vertex of each
    triangle in place: (a, b, c) and (b, a, d) become (a, d, c) and
    (b, c, d), so only the two half-edges that moved triangle, their
    partners and the new diagonal need new twins."""
    tri, twin = tri.copy(), twin.copy()
    flat = tri.reshape(-1)  # vertex at the start of each half-edge
    step = np.tile(np.int8([1, 1, -2]), len(tri))  # h + step[h] follows h
    where = np.append(np.arange(len(twin)), -1)  # new slots; where[-1] = -1
    # the triangles whose edges the next round tests
    changed = np.ones(len(tri), bool) if start is None else start
    for _ in range(MAX_FLIP_ROUNDS):
        if np.any(_triangle_signed_areas(pts, tri[changed]) <= 0):
            return None
        h = (3 * np.flatnonzero(changed)[:, None] + [0, 1, 2]).ravel()
        e2 = twin[h]
        # each interior edge once: from its lower half-edge, or from the one
        # in a changed triangle when the other's triangle is not
        e1 = h[(e2 > h) | ((e2 >= 0) & ~changed[e2 // 3])]
        e2 = twin[e1]  # a -> b and b -> a
        n1, n2 = e1 + step[e1], e2 + step[e2]  # b -> c and a -> d
        a, b, c, d = flat[e1], flat[e2], flat[n1 + step[n1]], flat[n2 + step[n2]]
        # the quad counterclockwise from its lowest vertex: v, p, q, r; blends
        # x + s * (y - x) pick like np.where(s, y, x) but without slow branches
        on = np.minimum(a, b) < np.minimum(c, d)  # v is a or b
        v, p, q, r = (d + on * (a - d), b + on * (d - b),
                      c + on * (b - c), a + on * (c - a))
        swap = q < v
        v, q = np.minimum(v, q), np.maximum(v, q)
        p, r = p + swap * (r - p), r + swap * (p - r)
        det, perm = _incircle(pts, p, q, r, v)
        near = np.flatnonzero((det < 0) & (det >= -FLIP_TIE_RTOL * perm))
        if len(near):  # v outside, within the band: ask its neighbours too
            for turn in ((q, r, v, p), (v, p, q, r)):  # from p, then from r
                seen = _incircle(pts, *(x[near] for x in turn))[1]
                perm[near] = np.minimum(perm[near], seen)
        # wrong diagonal: through v with v clearly outside, or past v without
        bad = np.flatnonzero(on == (det < -FLIP_TIE_RTOL * perm))
        if len(bad) == 0:
            return tri, twin
        t1, t2 = e1[bad] // 3, e2[bad] // 3
        changed = np.zeros(len(tri), bool)  # triangles whose edges need a test
        changed[t1] = changed[t2] = True  # flipped, or still to flip
        lowest = np.full(len(tri), len(det))
        np.minimum.at(lowest, t1, bad)
        np.minimum.at(lowest, t2, bad)
        bad = bad[(lowest[t1] == bad) & (lowest[t2] == bad)]
        e1, e2, n1, n2 = e1[bad], e2[bad], n1[bad], n2[bad]
        flat[n1], flat[n2] = d[bad], c[bad]
        # b -> c moves from n1 to e2 and a -> d from n2 to e1; a partner
        # may itself have moved in a neighbouring flip of this round
        moved, dest = np.concatenate([n1, n2]), np.concatenate([e2, e1])
        partner = twin[moved]
        where[moved] = dest
        partner = where[partner]
        where[moved] = moved
        twin[dest] = partner
        hull = partner < 0
        twin[partner[~hull]] = dest[~hull]
        twin[n1], twin[n2] = n2, n1
    return None


def _circumcircles(pts, tri):
    """Circumcentres, as an (m, 2) array, and circumradii of the
    counterclockwise triangles `tri` of `pts`."""
    z = pts.view(complex).ravel()
    a = z.take(tri[:, 0])
    b, c = z.take(tri[:, 1]) - a, z.take(tri[:, 2]) - a
    u = 1j * (abs(c) ** 2 * b - abs(b) ** 2 * c) / (2.0 * (b.conj() * c).imag)
    return (a + u).view(float).reshape(-1, 2), np.abs(u)


def _lattice_start(pts, lattice):
    """Delaunay triangles of `pts`, counterclockwise, from the seed lattice's
    triangles `lattice` and one Qhull call on the band; None when they do
    not tile the hull of `pts`.

    A lattice triangle is equilateral, and no other lattice point comes
    within twice its circumradius of its circumcentre.  It is accepted,
    Delaunay with a margin, when no other point comes within (1 + 1e-6)
    times that radius.  A lattice point with six accepted triangles is
    inner.  Qhull triangulates the rest, the band, whose hull is that of
    `pts`; its triangles with no inner point in their circumcircle are
    Delaunay, and with the accepted triangles at an inner corner they tile
    that hull, which the area check confirms."""
    on = np.zeros(len(pts), bool)
    on[lattice] = True
    centre, radius = _circumcircles(pts, lattice)
    bound = (1.0 + 1e-6) * radius
    near = cKDTree(pts[~on]).query(
        centre, distance_upper_bound=bound.max(initial=0.0))[0]
    accepted = lattice[near > bound]
    inner = np.bincount(accepted.ravel(), minlength=len(pts)) == 6
    band = np.flatnonzero(~inner)  # every point when none is inner
    simplices = Delaunay(pts[band]).simplices
    qhull = band[simplices]
    hull_areas = _triangle_signed_areas(pts, qhull)
    if np.any(hull_areas <= 0):  # a flat triangle has no circumcentre
        return None
    centre, radius = _circumcircles(pts, qhull)
    clear = cKDTree(pts[inner]).query(centre)[0] >= radius
    tri = np.vstack([accepted[inner[accepted].any(axis=1)], qhull[clear]])
    area = np.sum(_triangle_signed_areas(pts, tri))
    if not math.isclose(area, np.sum(hull_areas), rel_tol=1e-9):
        return None
    return tri.astype(simplices.dtype)  # Qhull's index type, as in the fallback


def _region_triangles(spec, h, pts, lattice):
    """The simplices of `_lattice_start` (None when it fails) from the seed
    lattice's triangles `lattice`, or of Qhull on every point, whose
    centroid lies deeper than GEPS*h in the region, and their twins."""
    tri = (Delaunay(pts).simplices if lattice is None
           else _lattice_start(pts, lattice))
    if tri is None:
        return None
    t0, t1, t2 = tri.T
    z = pts.view(complex).ravel()  # complex gathers beat (n, 2) row gathers
    centroids = (z.take(t0) + z.take(t1) + z.take(t2)).view(float) / 3.0
    sd = region_signed_distance(spec, centroids.reshape(-1, 2))
    tri = tri[sd < -GEPS * h]
    if len(tri) == 0:
        raise MeshError("triangulation produced no interior triangles")
    return tri, _twins(tri, len(pts))


def _build(spec, h, pts, lattice=None):
    """The region's counterclockwise Delaunay triangles of `pts` and their
    half-edge twins: `_region_triangles`, from the seed lattice's triangles
    `lattice` or from Qhull, after one `_flip_to_delaunay` pass from every
    edge, which settles their ties.  A lattice start that fails or whose
    pass fails gives way to Qhull; Qhull's triangles stand if theirs does."""
    full = _region_triangles(spec, h, pts, lattice)
    flipped = None if full is None else _flip_to_delaunay(pts, *full)
    if flipped is None and lattice is not None:
        return _build(spec, h, pts)
    return flipped or full


def _with_live_corner(tri, live, n):
    """Mask of the triangles `tri`, over n points, with a corner in `live`."""
    is_live = np.zeros(n, bool)
    is_live[live] = True
    return is_live[tri[:, 0]] | is_live[tri[:, 1]] | is_live[tri[:, 2]]


def _settle(spec, h, pts, live, full):
    """Project the points `live` (ascending indices) onto the standoff in
    place (`_project`), then repair `full`, the (triangles, twins) of the
    previous settle or of `_build`, by one `_flip_to_delaunay` pass from the
    triangles with a live corner (no other quad has moved), or triangulate
    anew (`_build`) when that fails.  Returns (fh, full): the size field at
    the live points, and the region's triangles with their half-edge twins."""
    fh = _project(spec, h, pts, live)
    flipped = _flip_to_delaunay(
        pts, *full, _with_live_corner(full[0], live, len(pts)))
    return fh, flipped or _build(spec, h, pts)


def _project(spec, h, pts, live):
    """Move each point of `live` within ESCAPE_FRACTION*fh of the boundary
    (by `region_signed_distance` and `size_field`) back along the distance's
    gradient until it passes that test; returns fh at `live`.  Each step is
    Newton's on g = sd + ESCAPE_FRACTION*fh along the gradient, both by
    central differences with DistMesh's step sqrt(eps)*h, aimed 1e-9*fh
    past g = 0 so that the re-measured test holds strictly."""
    p = pts[live]
    sd, fh = region_signed_distance(spec, p), size_field(spec, h, p)
    out = np.flatnonzero(sd > -ESCAPE_FRACTION * fh)
    step = math.sqrt(np.finfo(float).eps) * h
    dx = step * np.eye(2)[:, None]  # (axis, 1, 2)
    for _ in range(MAX_PROJECT_STEPS):
        if len(out) == 0:
            break
        q = np.stack([p[out] + dx, p[out] - dx]).reshape(-1, 2)
        sd_q = region_signed_distance(spec, q).reshape(2, 2, -1)  # (sign, axis, point)
        g_q = sd_q + ESCAPE_FRACTION * size_field(spec, h, q).reshape(2, 2, -1)
        grad, dg = sd_q[0] - sd_q[1], g_q[0] - g_q[1]  # 2*step times the gradients
        g = sd[out] + (ESCAPE_FRACTION + 1e-9) * fh[out]
        p[out] -= (2 * step * g / np.sum(dg * grad, axis=0))[:, None] * grad.T
        pts[live[out]] = p[out]
        sd[out], fh[out] = (region_signed_distance(spec, p[out]),
                            size_field(spec, h, p[out]))
        out = out[sd[out] > -ESCAPE_FRACTION * fh[out]]
    if len(out):
        raise MeshError(f"projection did not converge in {MAX_PROJECT_STEPS} steps")
    return fh


def _incidence(ends, n):
    """The n x m CSR signed incidence matrix D of the bars whose first ends,
    then second ends, are `ends`: +1 at each first end, -1 at each second.
    Each row lists its bars in the order of a stable sort of `ends`, so
    `D @ f` adds as `np.add.at` does, bit for bit (COO triplets would not:
    scipy sorts each row's columns when it converts them)."""
    m = len(ends) // 2
    order = np.argsort(ends, kind="stable")
    indptr = np.append(0, np.cumsum(np.bincount(ends, minlength=n)))
    return csr_matrix((np.where(order < m, 1.0, -1.0), order % m, indptr),
                      shape=(n, m))


def _force_step(z, ends, D, h_want, h_sq, n_fixed):
    """One pseudo-time step of the truss forces on positions z = x + iy.

    `ends` holds the bars' first ends followed by their second ends and `D`
    their signed incidence matrix (see `_incidence`).  `h_want` is FSCALE
    times the size field at the bar midpoints and `h_sq` the sum of the
    squared size field there.  Bars shorter than their target length push
    their ends apart; the first n_fixed points (fixed or frozen, see
    `_band`) stay.  Returns the new positions and the step length of each
    other point."""
    m = len(h_want)
    vec = np.take(z, ends[:m]) - np.take(z, ends[m:])  # take beats z[b0]
    lengths = np.maximum(np.abs(vec), 1e-300)
    scale = math.sqrt(np.sum(lengths**2) / h_sq)
    push = np.maximum(h_want * scale - lengths, 0.0) / lengths
    # push enters as push + 0j: each part of the product is the real
    # product of the (m, 2) broadcast, up to the sign of a zero, which no
    # sum through D can see
    total = (D @ (vec * push).view(float).reshape(-1, 2)).view(complex).ravel()
    total[:n_fixed] = 0.0
    return z + DELTA_T * total, DELTA_T * np.abs(total[n_fixed:])


def _band(spec, h, pts, live, tri):
    """The force problem of the points `live` (ascending indices into
    `pts`) on the triangles `tri`: the bars of the triangles with a live
    corner, by `_unique_edges`, over the band of points they touch, the
    anchors (fixed or frozen ends, which the force step keeps) first and
    then `live`.  Returns (z, ends, D, h_want, h_sq, n_anchors) for
    `_force_step`: the band's positions z = x + iy, the bars' ends by band
    index and their incidence matrix, FSCALE times the size field at the
    bar midpoints, the sum of its squares, and the number of anchors."""
    bars = _unique_edges(tri[_with_live_corner(tri, live, len(pts))],
                         len(pts))[0]
    anchor = np.zeros(len(pts), bool)
    anchor[bars] = True
    anchor[live] = False
    band = np.concatenate([np.flatnonzero(anchor), live])
    index = np.empty(len(pts), np.intp)
    index[band] = np.arange(len(band))
    z = pts.view(complex).ravel().take(band)
    ends = index[bars.T.ravel()]  # bars[:, 0], then bars[:, 1]
    b0, b1 = ends[:len(bars)], ends[len(bars):]
    h_bars = size_field(spec, h, (0.5 * (z.take(b0) + z.take(b1))).view(float)
                        .reshape(-1, 2))
    return (z, ends, _incidence(ends, len(z)), h_bars * FSCALE,
            np.sum(h_bars**2), len(band) - len(live))


def _relax(spec, h, fixed):
    """Seed the region and move the seeds until bar lengths track the size
    field; the boundary points `fixed` stay, and lead the returned points.

    `_build` triangulates the seeded cloud once, from the seed lattice's
    triangles (see `_seed_points`).  Only the seeds that `_seed_points`
    finds within FREEZE_DEPTH*h of the boundary are live; the deeper ones,
    where the seed lattice is at rest, never move, and everything after
    the build covers the live points and the triangles with a live corner
    only.  Each settle moves points in place and repairs the triangles and
    half-edge twins of the one before (the first, those of `_build`).
    Between settles the band's positions live in one complex array
    z = x + iy (see `_band`), built once per loop settle with the bars, D,
    target lengths and sizes, and written back at the next settle."""
    seeds, lattice, live, fh = _seed_points(spec, h)
    pts, live = np.vstack([fixed, seeds]), live + len(fixed)
    lattice += len(fixed)
    del seeds  # held through `_build`'s flip pass, it raises the peak memory
    full = _build(spec, h, pts, lattice)  # triangles and twins
    z, ends, D, h_want, h_sq, n_anchors = _band(spec, h, pts, live, full[0])
    last = z  # positions at the most recent settle
    for _ in range(MAX_ITER):
        if len(live) == 0:
            break
        z, step = _force_step(z, ends, D, h_want, h_sq, n_anchors)
        if np.max(step / fh) < PTOL:
            break
        if np.max(np.abs(z - last)[n_anchors:] / fh) > TTOL:
            pts.view(complex).ravel()[live] = z[n_anchors:]
            fh, full = _settle(spec, h, pts, live, full)
            z, ends, D, h_want, h_sq, n_anchors = _band(spec, h, pts, live, full[0])
            last = z
    else:
        raise MeshError(f"relaxation did not converge in {MAX_ITER} iterations")

    pts.view(complex).ravel()[live] = z[n_anchors:]
    return pts, _settle(spec, h, pts, live, full)[1][0]


def _canonical_order(triangles):
    """Roll each triangle so its smallest index leads; sort rows."""
    lead = np.argmin(triangles, axis=1)[:, None]
    rolled = np.take_along_axis(triangles, (lead + [0, 1, 2]) % 3, axis=1)
    return rolled[np.lexsort(rolled.T[::-1])]


def triangulate(spec: DomainSpec, h: float) -> Mesh:
    """Mesh the region between the outer boundary and the hole.

    Deterministic for fixed inputs.  Raises MeshError for degenerate
    geometry (gap between hole and outer boundary below h/10) and
    ValueError unless 0 < h < inf and h resolves the boundary curves.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    if spec.clearance < h / 10.0:
        raise MeshError(
            "degenerate geometry: hole-to-boundary clearance "
            f"{spec.clearance:.6g} is below h/10 = {h / 10.0:.6g}"
        )
    outer_poly, inner_poly = boundary_polylines(spec, h)
    n_out = len(outer_poly)
    fixed = np.vstack([outer_poly, inner_poly])
    pts, simplices = _relax(spec, h, fixed)
    triangles = _canonical_order(simplices)

    # vertex i joins i + 1, except that each loop's last joins its first
    nxt = np.arange(1, len(fixed) + 1)
    nxt[[n_out - 1, -1]] = 0, n_out
    mesh = Mesh(
        vertices=pts,
        triangles=triangles,
        boundary_edges=np.column_stack([np.arange(len(fixed)), nxt]),
        n_outer=n_out,
        h=float(h),
    )
    validate_mesh(mesh)
    return mesh


def validate_mesh(mesh: Mesh) -> None:
    """Check every structural invariant; raise MeshError on a violation."""
    v, t = mesh.vertices, mesh.triangles
    if (v.ndim != 2 or v.shape[1] != 2 or v.dtype.kind != "f"
            or not np.all(np.isfinite(v))):
        raise MeshError("vertices must be a finite float (nv, 2) array")
    if t.ndim != 2 or t.shape[1] != 3 or t.dtype.kind not in "iu":
        raise MeshError("triangles must be an integer (nt, 3) array")
    if t.min(initial=0) < 0 or t.max(initial=-1) >= len(v):
        raise MeshError("triangle vertex index out of range")
    used = np.zeros(len(v), bool)
    used[t.ravel()] = True
    if not used.all():
        raise MeshError("mesh has vertices not used by any triangle")
    areas = _triangle_signed_areas(v, t)
    if np.any(areas <= 0):
        raise MeshError("triangles must be counterclockwise with positive area")

    unique, counts = _unique_edges(t, len(v))
    if np.any(counts > 2):
        raise MeshError("non-manifold edge")
    boundary = unique[counts == 1]

    e, n_outer = mesh.boundary_edges, mesh.n_outer
    if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":
        raise MeshError("boundary_edges must be an integer (nb, 2) array")
    if not isinstance(n_outer, (int, np.integer)):
        raise MeshError(f"n_outer must be an integer, got {n_outer!r}")
    listed, stride = np.sort(e, axis=1), np.int64(len(v))  # int64 keys
    if not np.array_equal(boundary[:, 0] * stride + boundary[:, 1],
                          np.sort(listed[:, 0] * stride + listed[:, 1])):
        raise MeshError("boundary edge list does not match the triangulation")

    # Every boundary vertex joins exactly two boundary edges (closed loops).
    bverts, bcounts = np.unique(mesh.boundary_edges.ravel(), return_counts=True)
    if np.any(bcounts != 2):
        raise MeshError("boundary edges do not form closed loops")

    # The listed edges are distinct (their keys are the triangulation's)
    # and every boundary vertex has degree 2, so a range that is a closed
    # chain passes no vertex twice: it is one simple cycle, one loop.
    if not 3 <= n_outer <= len(e) - 3:
        raise MeshError(f"n_outer {n_outer} leaves fewer than 3 edges in a loop")
    area = []
    for loop in (e[:n_outer], e[n_outer:]):
        if not np.array_equal(loop[:, 1], np.roll(loop[:, 0], -1)):
            raise MeshError("a boundary edge range is not a closed chain")
        x, y = v[loop[:, 0]].T
        area.append(abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
    if area[0] <= area[1]:
        raise MeshError("the first n_outer boundary edges must enclose the rest")

    euler = len(v) - len(unique) + len(t)
    if euler != 0:
        raise MeshError(f"Euler characteristic {euler} != 0 (annulus topology)")

    angle = mesh_min_angle(mesh)
    if angle < MIN_ANGLE_DEG - 1e-9:
        raise MeshError(
            f"minimum triangle angle {angle:.3f} deg below {MIN_ANGLE_DEG:g} deg")
