"""Quality triangular meshes for doubly connected planar domains.

The generator is a force-based relaxation over a Delaunay triangulation
(truss smoothing in the style of Persson & Strang): boundary vertices are
fixed where `boundary_polylines` placed them, interior points start on a
density-matched grid and repel each other until edge lengths track the
graded size field.  A settle (each triangulation, including a final one
of the settled cloud) deletes interior points too close to a boundary
(the standoff), runs one Delaunay step, discards triangles whose centroid
falls outside the region, and returns the kept points, their size field
and outer distance, and the kept simplices; the relaxation builds bars
and target sizes from every settle but the final one.  The standoff test
and the size field share one evaluation of each boundary distance, so a
settle measures the outer distance in full only on the points.  Every
outer shape is convex, so at a triangle centroid or a bar midpoint the
outer distance is at most the mean of its values at the corners; the
centroid filter and the bar target sizes evaluate it only where that
bound cannot decide the result, along the outer boundary and in graded
gaps.  A relaxation that has not settled after MAX_ITER iterations raises
MeshError.  Seeding uses a low-discrepancy sequence instead of a random
generator, so everything is deterministic for a fixed spec and h.

Qhull triangulates the first settle of a relaxation and any settle whose
standoff dropped a point; its 2-D simplices arrive counterclockwise, and
its half-edges are paired once, by a sort.  Otherwise no point moved more
than TTOL*fh since the previous settle, and Lawson edge flips repair the
previous full triangulation (hole triangles included) at the new
positions.  The flips carry the half-edge pairing along (each flip
updates only the half-edges it moved, their partners and its new
diagonal), so no flip round sorts anything.  The hull vertices are fixed
boundary vertices, so once every triangle is positive and every edge is
locally Delaunay the repaired triangulation is a Delaunay triangulation.
Where that is unique it is Qhull's.  Where four points are cocircular up
to rounding, as across the axis of a mirror-symmetric domain, the repair
keeps the current diagonal, which need not be the one Qhull would pick.
An inverted triangle or too many flip rounds send the settle to Qhull
after all.

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
from scipy.spatial import Delaunay

from .domains import (
    DomainSpec,
    GRADE_FRACTION,
    MIN_SIZE_DIVISOR,
    boundary_polylines,
    hole_signed_distance,
    region_distance_and_size,
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
# `_settle` enforces the standoff at each triangulation, and no point moves
# more than TTOL*fh before the next one, so with TTOL < ESCAPE_FRACTION
# points stay (ESCAPE_FRACTION - TTOL)*fh inside the region in between.
FSCALE = 1.2
DELTA_T = 0.2
TTOL = 0.1
PTOL = 2e-3
ESCAPE_FRACTION = 0.3
SEED_MARGIN = 0.45
MAX_ITER = 1500
GEPS = 1e-3  # DistMesh's geps: kept centroids lie GEPS*h inside the region

# In-circle determinants within FLIP_TIE_RTOL of their permanent (the sum of
# the absolute values of their terms) are ties: the four points are
# cocircular up to rounding, either diagonal is Delaunay, and the flip
# repair keeps the current one.  Mirror-symmetric domains produce such
# quads at about 4e-14.
# Between two settles a repair takes at most four rounds of flips on the
# golden domains; one that reaches MAX_FLIP_ROUNDS is handed to Qhull.
FLIP_TIE_RTOL = 1e-10
MAX_FLIP_ROUNDS = 50

# Margin, relative to h, by which a convexity bound in `_centroids_inside`
# or `_bar_sizes` must clear its threshold before it decides a centroid or
# a bar size without the outer distance.  Rounding in the bounds is a few
# ulps of the coordinates (measured below 5e-16 times the domain's size),
# so the margin holds for any h above 1e-5 times that size.
SCREEN_MARGIN = 1e-9

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
    p0 = vertices[triangles[:, 0]]
    d1 = vertices[triangles[:, 1]] - p0
    d2 = vertices[triangles[:, 2]] - p0
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def mesh_min_angle(mesh: Mesh) -> float:
    """Smallest interior angle over all triangles, in degrees."""
    p = mesh.vertices[mesh.triangles]  # corner k of each triangle is p[:, k]
    a, b = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
    num = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    den = np.hypot(a[..., 0], a[..., 1]) * np.hypot(b[..., 0], b[..., 1])
    return float(np.degrees(np.arccos(np.clip(num / den, -1.0, 1.0))).min())


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
    return np.vstack(rows)


def _seed_points(spec: DomainSpec, h: float):
    """Interior starting points with density matched to the size field.

    A coarse hexagonal grid covers the ungraded bulk (where the size field
    equals h).  Where the field drops below h, a fine grid at the smallest
    target size is thinned by low-discrepancy rejection so the local point
    density approaches 1/fh^2.
    """
    a, b = spec.outer.half_extents
    coarse = _hex_grid(-a, a, -b, b, h)
    sd, fh, _ = region_distance_and_size(spec, h, coarse)
    keep = (fh >= h * (1.0 - 1e-9)) & (sd < -SEED_MARGIN * fh)
    seeds = [coarse[keep]]

    fh_min = max(h / MIN_SIZE_DIVISOR, min(h, GRADE_FRACTION * spec.clearance))
    if fh_min < h * (1.0 - 1e-9):
        probe = _hex_grid(-a, a, -b, b, h / 2.0)
        graded = size_field(spec, h, probe) < h * (1.0 - 1e-9)
        if np.any(graded):
            gx, gy = probe[graded, 0], probe[graded, 1]
            fine = _hex_grid(
                gx.min() - h, gx.max() + h, gy.min() - h, gy.max() + h, fh_min
            )
            sd_f, fh_f, _ = region_distance_and_size(spec, h, fine)
            cand = (fh_f < h * (1.0 - 1e-9)) & (sd_f < -SEED_MARGIN * fh_f)
            fine, fh_f = fine[cand], fh_f[cand]
            u = np.mod(np.arange(1, len(fine) + 1) * _WEYL, 1.0)
            seeds.append(fine[u < (fh_min / fh_f) ** 2])
    return np.vstack(seeds)


def _incircle(p, a, b, c, d):
    """In-circle determinant of d against each counterclockwise triangle
    (a, b, c), positive when d lies inside the circumcircle, and its
    permanent."""
    x, y = p[:, 0], p[:, 1]
    xd, yd = x[d], y[d]
    adx, ady = x[a] - xd, y[a] - yd
    bdx, bdy = x[b] - xd, y[b] - yd
    cdx, cdy = x[c] - xd, y[c] - yd
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


def _flip_to_delaunay(pts, tri, twin):
    """Lawson-flip the counterclockwise triangulation `tri` of `pts`, with
    half-edge twins `twin` (see `_twins`), until every edge is locally
    Delaunay; return the new (tri, twin), or None when that cannot be shown.

    Each round takes every interior edge of a triangle that changed in the
    previous round (every edge in the first) straight from `twin` and tests
    the vertex opposite one half-edge against the circumcircle of the
    other's triangle.  It then flips the failing edges that are the
    lowest-numbered failing edge of both their triangles, which makes the
    flips of a round independent.  A flip rewrites one vertex of each
    triangle in place: (a, b, c) and its neighbour (b, a, d) across a -> b
    become (a, d, c) and (b, c, d), so only the two half-edges that moved
    triangle, their partners and the new diagonal need new twins.  A tie is
    not flipped, so of several cocircular choices the current diagonal
    stays.  Returns None when a triangle is not positive or after
    MAX_FLIP_ROUNDS rounds."""
    tri, twin = tri.copy(), twin.copy()
    flat = tri.reshape(-1)  # vertex at the start of each half-edge
    step = np.tile(np.int8([1, 1, -2]), len(tri))  # h + step[h] follows h
    where = np.append(np.arange(len(twin)), -1)  # new slots; where[-1] = -1
    changed = np.ones(len(tri), bool)  # triangles whose edges need a test
    for _ in range(MAX_FLIP_ROUNDS):
        if np.any(_triangle_signed_areas(pts, tri[changed]) <= 0):
            return None
        h = (3 * np.flatnonzero(changed)[:, None] + [0, 1, 2]).ravel()
        e2 = twin[h]
        # each interior edge once: from its lower half-edge, or from the one
        # in a changed triangle when the other's triangle did not change
        e1 = h[(e2 > h) | ((e2 >= 0) & ~changed[e2 // 3])]
        e2 = twin[e1]  # a -> b and b -> a
        n1, n2 = e1 + step[e1], e2 + step[e2]  # b -> c and a -> d
        a, b, c, d = flat[e1], flat[e2], flat[n1 + step[n1]], flat[n2 + step[n2]]
        det, perm = _incircle(pts, a, b, c, d)
        bad = np.flatnonzero(det > FLIP_TIE_RTOL * perm)
        if len(bad) == 0:
            return tri, twin
        t1, t2 = e1[bad] // 3, e2[bad] // 3
        changed[:] = False
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


def _settle(spec, h, pts, n_fixed, full=None):
    """Drop the interior points within ESCAPE_FRACTION*fh of the boundary,
    then triangulate and keep the simplices whose centroid lies more than
    GEPS*h inside the region.  Returns (pts, fh, d_out, simplices, full):
    the kept points, their size field and outer distance, the kept
    simplices, and the full counterclockwise triangulation before the
    centroid filter with its half-edge twins (see `_twins`).

    `full` is the previous settle's (triangles, twins), or None.  Qhull
    runs, and `_twins` pairs its half-edges, when there is none, when the
    standoff dropped a point, and when `_flip_to_delaunay` cannot repair
    it; its 2-D simplices arrive counterclockwise.  Either way the result
    is a Delaunay triangulation of the kept points; where that is unique
    (no cocircular quad) both give the same kept simplices as a set."""
    sd, fh, d_out = region_distance_and_size(spec, h, pts)
    keep = np.ones(len(pts), bool)
    keep[n_fixed:] = sd[n_fixed:] <= -ESCAPE_FRACTION * fh[n_fixed:]
    if full is not None and keep.all():
        full = _flip_to_delaunay(pts, *full)
    else:
        full = None
    pts, fh, d_out = pts[keep], fh[keep], d_out[keep]
    if full is None:
        tri = Delaunay(pts).simplices
        full = tri, _twins(tri, len(pts))
    tri = full[0]
    simplices = tri[_centroids_inside(spec, h, pts, d_out, tri)]
    if len(simplices) == 0:
        raise MeshError("triangulation produced no interior triangles")
    return pts, fh, d_out, simplices, full


def _centroids_inside(spec, h, pts, d_out, tri):
    """`region_signed_distance(spec, centroids) < -GEPS*h` for the
    triangles `tri` of `pts`, bit for bit, where `d_out` is the outer
    distance at `pts`.

    Every outer shape is convex, so at a centroid the outer distance is at
    most the vertex mean of `d_out`.  Where that mean is below -GEPS*h by
    SCREEN_MARGIN*h the hole alone decides, and the outer distance is
    evaluated only at the other centroids."""
    t0, t1, t2 = tri.T
    z = pts.view(complex).ravel()  # complex gathers beat (n, 2) row gathers
    centroids = (z.take(t0) + z.take(t1) + z.take(t2)).view(float) / 3.0
    centroids = centroids.reshape(-1, 2)
    mean = (d_out.take(t0) + d_out.take(t1) + d_out.take(t2)) / 3.0
    undecided = mean >= -GEPS * h - SCREEN_MARGIN * h
    inside = hole_signed_distance(spec, centroids) > GEPS * h
    if undecided.any():
        inside[undecided] = (
            region_signed_distance(spec, centroids[undecided]) < -GEPS * h)
    return inside


def _bar_sizes(spec, h, pts, d_out, bars):
    """`size_field` at the midpoints of `bars`, bit for bit, where `d_out`
    is the outer distance at `pts`.

    By convexity the outer distance at a midpoint is at most the endpoint
    mean u of `d_out`, so |d_out(mid)| >= -u whatever the sign of u.  Where
    GRADE_FRACTION*(|d_hole(mid)| - u) reaches h by SCREEN_MARGIN*h the
    size is exactly h, and the outer distance is evaluated only at the
    other midpoints: along the outer boundary and in graded gaps."""
    b0, b1 = bars.T
    z = pts.view(complex).ravel()
    mids = (0.5 * (z.take(b0) + z.take(b1)).view(float)).reshape(-1, 2)
    u = 0.5 * (d_out.take(b0) + d_out.take(b1))
    bound = GRADE_FRACTION * (np.abs(hole_signed_distance(spec, mids)) - u)
    undecided = bound < h * (1.0 + SCREEN_MARGIN)
    sizes = np.full(len(bars), h, dtype=float)
    if undecided.any():
        sizes[undecided] = size_field(spec, h, mids[undecided])
    return sizes


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
    their ends apart; the first n_fixed points stay.  Returns the new
    positions and the step length of each interior point."""
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


def _relax(spec, h, pts, n_fixed):
    """Move interior points until bar lengths track the size field.

    Each settle hands its full triangulation and half-edge twins to the
    next, which repairs both by edge flips instead of calling Qhull where
    it can, so the half-edges are paired once per Qhull call.  Between
    settles the positions live in one complex array z = x + iy, an (n, 2)
    point array viewed as complex, and what changes only at a settle (bars
    and D, target lengths, interior sizes) is built once per loop settle."""
    full = None  # the most recent full triangulation and its twins
    last = None  # positions at the most recent settle
    z = pts.view(complex).ravel()
    for _ in range(MAX_ITER):
        if last is None or np.max(np.abs(z - last) / fh_pts) > TTOL:
            pts, fh_pts, d_out, simplices, full = _settle(
                spec, h, z.view(float).reshape(-1, 2), n_fixed, full)
            last = z = pts.view(complex).ravel()
            bars = _unique_edges(simplices, len(z))[0]
            h_bars = _bar_sizes(spec, h, pts, d_out, bars)
            ends = bars.T.ravel()  # bars[:, 0], then bars[:, 1]
            D = _incidence(ends, len(z))
            h_want, h_sq = h_bars * FSCALE, np.sum(h_bars**2)
            fh_free = fh_pts[n_fixed:]

        z, step = _force_step(z, ends, D, h_want, h_sq, n_fixed)
        if len(step) == 0 or np.max(step / fh_free) < PTOL:
            break
    else:
        raise MeshError(f"relaxation did not converge in {MAX_ITER} iterations")

    pts, _, _, simplices, _ = _settle(
        spec, h, z.view(float).reshape(-1, 2), n_fixed, full)
    return pts, simplices


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
    pts = np.vstack([fixed, _seed_points(spec, h)])

    pts, simplices = _relax(spec, h, pts, n_fixed=len(fixed))
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
