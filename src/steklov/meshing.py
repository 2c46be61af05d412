"""Quality triangular meshes for doubly connected planar domains.

The generator is a force-based relaxation over a Delaunay triangulation
(truss smoothing in the style of Persson & Strang): boundary vertices are
fixed where `boundary_polylines` placed them, interior points start on a
density-matched grid and repel each other until edge lengths track the
graded size field.  Each triangulation, including a final one of the
settled cloud, first deletes interior points too close to a boundary (the
standoff) and then discards triangles whose centroid falls outside the
region.  The standoff test and the size field share one evaluation of
each boundary distance, so a triangulation measures the outer distance in
full only on the points.  Every outer shape is convex, so at a triangle
centroid or a bar midpoint the outer distance is at most the mean of its
values at the corners; the centroid filter and the bar target sizes
evaluate it only where that bound cannot decide the result, along the
outer boundary and in graded gaps.  A relaxation that has not settled
after MAX_ITER iterations raises MeshError.  Everything is deterministic
for a fixed spec and h: seeding uses a low-discrepancy sequence instead
of a random generator.

Qhull triangulates the first settle of a relaxation and any settle whose
standoff dropped a point.  Otherwise no point moved more than TTOL*fh since
the previous settle, and Lawson edge flips repair the previous full
triangulation (hole triangles included) at the new positions.  The hull
vertices are fixed boundary vertices, so once every triangle is positive
and every edge is locally Delaunay the repaired triangulation is a
Delaunay triangulation.  Where that is unique it is Qhull's.  Where four
points are cocircular up to rounding, as across the axis of a
mirror-symmetric domain, the repair keeps the current diagonal, which need
not be the one Qhull would pick.  An inverted triangle or too many flip
rounds send the settle to Qhull after all.

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

# In-circle determinants within FLIP_TIE_RTOL of their permanent (the sum of
# the absolute values of their terms) are ties: the four points are
# cocircular up to rounding, either diagonal is Delaunay, and the flip
# repair keeps the current one.  Mirror-symmetric domains produce such
# quads at about 4e-14.
# Between two settles a repair takes at most four rounds of flips on the
# golden domains; one that reaches MAX_FLIP_ROUNDS is handed to Qhull.
FLIP_TIE_RTOL = 1e-10
MAX_FLIP_ROUNDS = 50

# Margin, relative to h, by which a convexity bound in `_settle` must
# clear its threshold before it decides a centroid or a bar size without
# the outer distance.  Rounding in the bounds is a few ulps of the
# coordinates (measured below 5e-16 times the domain's size), so the
# margin holds for any h above 1e-5 times that size.
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
    v = mesh.vertices
    t = mesh.triangles
    angles = []
    for k in range(3):
        a = v[t[:, (k + 1) % 3]] - v[t[:, k]]
        b = v[t[:, (k + 2) % 3]] - v[t[:, k]]
        num = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
        den = np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1])
        angles.append(np.degrees(np.arccos(np.clip(num / den, -1.0, 1.0))))
    return float(np.min(np.column_stack(angles)))


def _unique_edges(triangles, n):
    """Distinct edges of the triangles over n vertices, each as (i, j) with
    i < j, in lexicographic order, and the number of triangles sharing each.

    Deduplicates on the 1-D key min*n + max of each triangle side, which
    sorts like the (i, j) rows."""
    a = triangles.ravel().astype(np.int64)
    b = triangles[:, [1, 2, 0]].ravel()
    key, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                            return_counts=True)
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


def _flip_to_delaunay(pts, tri):
    """Lawson-flip the counterclockwise triangulation `tri` of `pts` until
    every edge is locally Delaunay; return it, or None when that cannot be
    shown.

    Each round pairs the two half-edges of every interior edge on the key
    i*n + j and tests the opposite vertex of one against the circumcircle
    of the other.  It then flips the failing edges that are the
    lowest-numbered failing edge of both their triangles, which makes the
    flips of a round independent: (a, b, c) and its neighbour (b, a, d)
    across a -> b become (a, d, c) and (d, b, c).  A tie is not flipped,
    so of several cocircular choices the current diagonal stays.  Returns
    None when a triangle is not positive or after MAX_FLIP_ROUNDS rounds."""
    tri = tri.copy()
    n = len(pts)
    changed = np.ones(len(tri), bool)  # triangles whose edges need a test
    for _ in range(MAX_FLIP_ROUNDS):
        if np.any(_triangle_signed_areas(pts, tri[changed]) <= 0):
            return None
        a, b, c = tri.ravel(), tri[:, [1, 2, 0]].ravel(), tri[:, [2, 0, 1]].ravel()
        key = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
        order = np.argsort(key)
        twin = key[order[1:]] == key[order[:-1]]
        e1, e2 = order[:-1][twin], order[1:][twin]  # a -> b and b -> a
        near = changed[e1 // 3] | changed[e2 // 3]
        e1, e2 = e1[near], e2[near]
        a, b, c, d = a[e1], b[e1], c[e1], c[e2]
        det, perm = _incircle(pts, a, b, c, d)
        bad = np.flatnonzero(det > FLIP_TIE_RTOL * perm)
        if len(bad) == 0:
            return tri
        t1, t2 = e1[bad] // 3, e2[bad] // 3
        changed[:] = False
        changed[t1] = changed[t2] = True  # flipped, or still to flip
        lowest = np.full(len(tri), len(det))
        np.minimum.at(lowest, t1, bad)
        np.minimum.at(lowest, t2, bad)
        pick = (lowest[t1] == bad) & (lowest[t2] == bad)
        bad, t1, t2 = bad[pick], t1[pick], t2[pick]
        tri[t1] = np.column_stack([a[bad], d[bad], c[bad]])
        tri[t2] = np.column_stack([d[bad], b[bad], c[bad]])
    return None


def _settle(spec, h, pts, n_fixed, geps, full=None):
    """Drop the interior points within ESCAPE_FRACTION*fh of the boundary,
    then triangulate and keep the simplices whose centroid lies inside the
    region.  Returns the kept points, their size field, simplices, bars,
    the size field at the bar midpoints, and the full counterclockwise
    triangulation before the centroid filter.

    `full` is the previous settle's full triangulation, or None.  Qhull
    runs when there is none, when the standoff dropped a point, and when
    `_flip_to_delaunay` cannot repair it.  Either way the result is a
    Delaunay triangulation of the kept points; where that is unique (no
    cocircular quad) both give the same kept simplices as a set, and so
    the same sorted bars."""
    sd, fh, d_out = region_distance_and_size(spec, h, pts)
    keep = np.ones(len(pts), bool)
    keep[n_fixed:] = sd[n_fixed:] <= -ESCAPE_FRACTION * fh[n_fixed:]
    if full is not None and keep.all():
        full = _flip_to_delaunay(pts, full)
    else:
        full = None
    pts, fh, d_out = pts[keep], fh[keep], d_out[keep]
    if full is None:
        full = _orient_ccw(pts, Delaunay(pts).simplices)
    simplices = full[_centroids_inside(spec, h, pts, d_out, full, geps)]
    if len(simplices) == 0:
        raise MeshError("triangulation produced no interior triangles")
    bars = _unique_edges(simplices, len(pts))[0]
    return pts, fh, simplices, bars, _bar_sizes(spec, h, pts, d_out, bars), full


def _centroids_inside(spec, h, pts, d_out, tri, geps):
    """`region_signed_distance(spec, centroids) < -geps` for the triangles
    `tri` of `pts`, bit for bit, where `d_out` is the outer distance at
    `pts`.

    Every outer shape is convex, so at a centroid the outer distance is at
    most the vertex mean of `d_out`.  Where that mean is below -geps by
    SCREEN_MARGIN*h the hole alone decides, and the outer distance is
    evaluated only at the other centroids."""
    t0, t1, t2 = tri.T
    z = pts.view(complex).ravel()  # complex gathers beat (n, 2) row gathers
    centroids = (z.take(t0) + z.take(t1) + z.take(t2)).view(float) / 3.0
    centroids = centroids.reshape(-1, 2)
    mean = (d_out.take(t0) + d_out.take(t1) + d_out.take(t2)) / 3.0
    undecided = mean >= -geps - SCREEN_MARGIN * h
    inside = hole_signed_distance(spec, centroids) > geps
    if undecided.any():
        inside[undecided] = (
            region_signed_distance(spec, centroids[undecided]) < -geps)
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


def _scatter_forces(slots, force, n):
    """Net force per vertex as x + iy: +force at each bar's first end and
    -force at its second, with `force` the (m, 2) force per bar and `slots`
    the real and imaginary slot of each end, the first ends' followed by
    the second ends'.  A weighted bincount adds in the same order as
    `np.add.at` on an (n, 2) array would, so the sums agree bit for bit."""
    weights = np.concatenate([force, -force]).ravel()
    return np.bincount(slots, weights, minlength=2 * n).view(complex)


def _force_step(z, ends, slots, h_want, h_sq, n_fixed):
    """One pseudo-time step of the truss forces on positions z = x + iy.

    `ends` holds the bars' first ends followed by their second ends and
    `slots` their real and imaginary slots (see `_scatter_forces`).
    `h_want` is FSCALE times the size field at the bar midpoints and
    `h_sq` the sum of the squared size field there.  Bars shorter than
    their target length push their ends apart; the first n_fixed points
    stay.  Returns the new positions and the step length of each interior
    point."""
    m = len(h_want)
    vec = np.take(z, ends[:m]) - np.take(z, ends[m:])  # take beats z[b0]
    lengths = np.maximum(np.abs(vec), 1e-300)
    scale = math.sqrt(np.sum(lengths**2) / h_sq)
    push = np.maximum(h_want * scale - lengths, 0.0) / lengths
    force = vec.view(float).reshape(m, 2) * push[:, None]  # (dx, dy) * push
    total = _scatter_forces(slots, force, len(z))
    total[:n_fixed] = 0.0
    return z + DELTA_T * total, DELTA_T * np.abs(total[n_fixed:])


def _relax(spec, h, pts, n_fixed):
    """Move interior points until bar lengths track the size field.

    Each settle hands its full triangulation to the next, which repairs it
    by edge flips instead of calling Qhull where it can.  Between settles
    the positions live in one complex array z = x + iy, an (n, 2) point
    array viewed as complex, and what changes only at a settle (bar ends,
    target lengths, interior sizes) is computed once per settle."""
    geps = 1e-3 * h
    full = None  # the most recent full triangulation
    last = None  # positions at the most recent settle
    z = pts.view(complex).ravel()
    for _ in range(MAX_ITER):
        if last is None or np.max(np.abs(z - last) / fh_pts) > TTOL:
            pts, fh_pts, _, bars, h_bars, full = _settle(
                spec, h, z.view(float).reshape(-1, 2), n_fixed, geps, full
            )
            last = z = pts.view(complex).ravel()
            ends = bars.T.ravel()  # bars[:, 0], then bars[:, 1]
            slots = (2 * ends[:, None] + [0, 1]).ravel()
            h_want, h_sq = h_bars * FSCALE, np.sum(h_bars**2)
            fh_free = fh_pts[n_fixed:]

        z, step = _force_step(z, ends, slots, h_want, h_sq, n_fixed)
        if len(step) == 0 or np.max(step / fh_free) < PTOL:
            break
    else:
        raise MeshError(f"relaxation did not converge in {MAX_ITER} iterations")

    pts, _, simplices, _, _, _ = _settle(
        spec, h, z.view(float).reshape(-1, 2), n_fixed, geps, full
    )
    return pts, simplices


def _orient_ccw(vertices, triangles):
    areas = _triangle_signed_areas(vertices, triangles)
    flip = areas < 0
    triangles[np.ix_(flip, [1, 2])] = triangles[np.ix_(flip, [2, 1])]
    return triangles


def _canonical_order(triangles):
    """Roll each triangle so its smallest index leads; sort rows."""
    rolled = np.empty_like(triangles)
    lead = np.argmin(triangles, axis=1)
    for shift in range(3):
        rows = lead == shift
        rolled[rows] = np.roll(triangles[rows], -shift, axis=1)
    order = np.lexsort((rolled[:, 2], rolled[:, 1], rolled[:, 0]))
    return rolled[order]


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
        raise MeshError(f"minimum triangle angle {angle:.3f} deg below 20 deg")
