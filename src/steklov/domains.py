"""Planar doubly connected domains: an outer shape with one circular hole.

The outer boundary is a disk, an axis-aligned ellipse, or an axis-aligned
rectangle, each centered at the origin; the hole is an open disk whose
closure lies strictly inside.  This module owns the geometry queries that
meshing needs (signed distances, a graded size field) plus the boundary
discretization and the radius of the area-matched disk used when a domain
is compared against a concentric annulus.

Each shape class carries its own geometry: `half_extents` (the half-widths
of its bounding box), `signed_distance(x, y)`, `area`, `matched_radius`
(the radius of the disk of equal area), `is_round` and `boundary()`, its
counterclockwise `(curve, t_lo, t_hi)` pieces.  `SHAPES` maps the shape
names used in configs and JSON to the classes, and is the only list.

Every outer shape is convex, so its signed distance is a convex function
of the point: at a midpoint or a centroid it is at most the mean of the
values at the ends or corners.  `meshing` relies on this bound to skip
outer distances that cannot change its results, so a new shape must be
convex too.

Conventions: point queries take (m, 2) arrays, signed distances are
negative inside a shape, polylines are (N, 2) arrays that close implicitly
(segment N-1 -> 0), the outer one counterclockwise, the hole one clockwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "Disk",
    "Ellipse",
    "Rectangle",
    "SHAPES",
    "DomainSpec",
    "boundary_polylines",
    "hole_signed_distance",
    "outer_signed_distance",
    "region_signed_distance",
    "region_distance_and_size",
    "shape_dict",
    "size_field",
]

# Grading constants for the mesh size field: target edge lengths shrink to
# GRADE_FRACTION of the local feature size (distance to hole plus distance
# to outer boundary) but never drop below h / MIN_SIZE_DIVISOR.
GRADE_FRACTION = 0.3
MIN_SIZE_DIVISOR = 40.0

# Minimum number of segments a closed boundary polyline may have.
MIN_CLOSED_SEGMENTS = 8

# Smallest dense parameter grid `_march_curve` integrates the density on.
DENSE_FLOOR = 4096


@dataclass(frozen=True)
class Disk:
    """Disk of the given radius centered at the origin."""

    radius: float
    is_round = True

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(
                f"disk radius must be positive and finite, got {self.radius}")

    @property
    def area(self):
        return math.pi * self.radius**2

    @property
    def half_extents(self):
        return self.radius, self.radius

    @property
    def matched_radius(self):
        return self.radius

    def signed_distance(self, x, y):
        return np.hypot(x, y) - self.radius

    def boundary(self):
        return [_ellipse_arc((0.0, 0.0), self.radius, self.radius)]


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned ellipse x^2/a^2 + y^2/b^2 = 1 with semi-axes a, b."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError("ellipse semi-axes must be positive and finite, "
                             f"got ({self.a}, {self.b})")

    @property
    def area(self):
        return math.pi * self.a * self.b

    @property
    def half_extents(self):
        return self.a, self.b

    @property
    def matched_radius(self):
        return math.sqrt(self.a * self.b)

    @property
    def is_round(self):
        return self.a == self.b

    def signed_distance(self, x, y):
        # Magnitude from the nearest-point solve, sign from the algebraic
        # equation (exact on either side).
        dist = _ellipse_distance(self.a, self.b, x, y)
        level = (x / self.a) ** 2 + (y / self.b) ** 2 - 1.0
        return np.where(level < 0.0, -dist, dist)

    def boundary(self):
        return [_ellipse_arc((0.0, 0.0), self.a, self.b)]


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle of the given width and height, centered at 0."""

    width: float
    height: float
    is_round = False

    def __post_init__(self):
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError("rectangle sides must be positive and finite, "
                             f"got ({self.width}, {self.height})")

    @property
    def area(self):
        return self.width * self.height

    @property
    def half_extents(self):
        return 0.5 * self.width, 0.5 * self.height

    @property
    def matched_radius(self):
        return math.sqrt(self.width * self.height / math.pi)

    def signed_distance(self, x, y):
        qx = np.abs(x) - 0.5 * self.width
        qy = np.abs(y) - 0.5 * self.height
        outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
        inside = np.minimum(np.maximum(qx, qy), 0.0)
        return outside + inside

    def boundary(self):
        """The four sides, from the corner (-a, -b)."""
        a, b = self.half_extents
        corners = np.array([(-a, -b), (a, -b), (a, b), (-a, b)])
        sides = np.roll(corners, -1, axis=0) - corners
        return [(lambda ts, p=p, d=d: p + np.outer(ts, d), 0.0, 1.0)
                for p, d in zip(corners, sides)]


SHAPES = {"disk": Disk, "ellipse": Ellipse, "rectangle": Rectangle}

OuterShape = Union[tuple(SHAPES.values())]


# Rounding level of phi = 1 - F^(-1/2) in `_ellipse_distance`: F^(1/2)
# near 1 is formed with a few roundings of at most half an ulp each.
_NEWTON_TOL = 8.0 * np.finfo(float).eps


def _ellipse_distance(a, b, x, y):
    """Distance from the points (x, y) to the ellipse x^2/a^2 + y^2/b^2 = 1.

    With (u, v) = (|x|, |y|) the nearest boundary point is
    (a^2 u / (t + a^2), b^2 v / (t + b^2)), where t is the largest root of
    F(t) = (au / (t + a^2))^2 + (bv / (t + b^2))^2 = 1 (D. Eberly, "Distance
    from a point to an ellipse, an ellipsoid, or a hyperellipsoid", 2013).
    Newton's method runs on phi = 1 - F^(-1/2), which is convex, decreasing
    and nearly linear next to the pole t = -min(a^2, b^2), from the lower
    bracket max(au - a^2, bv - b^2), so no step passes the root.  It
    iterates on s = t + min(a^2, b^2): inside the evolute near the major
    axis t sits next to the pole, and t + a^2 would cancel.  A point stops
    after the step at which |phi| reaches rounding level, so its distance
    does not depend on the other points; 64 steps are a safeguard only.
    Exact-axis inputs are nudged by a relative 1e-100 so the iteration also
    finds the off-axis nearest point inside the evolute.
    """
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    u = np.maximum(np.abs(x.ravel()), 1e-100 * a)
    v = np.maximum(np.abs(y.ravel()), 1e-100 * b)
    au, bv = a * u, b * v
    da, db = a * a - min(a * a, b * b), b * b - min(a * a, b * b)
    s = np.maximum(au - da, bv - db)
    live = np.arange(len(s))
    for _ in range(64):
        p, q = s[live] + da, s[live] + db
        wa, wb = au[live] / p, bv[live] / q
        f = wa * wa + wb * wb
        r = np.sqrt(f)  # phi = 1 - 1/r, phi' = -(wa^2/p + wb^2/q) / r^3
        s[live] += (r - 1.0) * f / (wa * wa / p + wb * wb / q)
        live = live[np.abs(r - 1.0) > _NEWTON_TOL]
        if len(live) == 0:
            break
    d = np.hypot(u - a * a * u / (s + da), v - b * b * v / (s + db))
    return d.reshape(x.shape)


def _as_points(pts):
    arr = np.asarray(pts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")
    return arr


def outer_signed_distance(outer: OuterShape, pts):
    """Signed distance to the outer boundary (negative inside the shape)."""
    p = _as_points(pts)
    return outer.signed_distance(p[:, 0], p[:, 1])


def shape_dict(outer: OuterShape) -> dict:
    """Plain-data echo of an outer shape, for JSON output."""
    name = {cls: name for name, cls in SHAPES.items()}[type(outer)]
    return {"shape": name, **asdict(outer)}


@dataclass(frozen=True)
class DomainSpec:
    """Outer shape minus one circular hole.

    The hole must sit strictly inside the outer region: construction fails
    unless the gap between the hole circle and the outer boundary is
    positive.  Symmetry flags describe invariance under rotation about the
    origin (order 4 = quarter turns, order 2 = half turns), which the
    integral identities of radial test functions rely on.
    """

    outer: OuterShape
    hole_center: tuple
    hole_radius: float

    def __post_init__(self):
        if not isinstance(self.outer, tuple(SHAPES.values())):
            names = ", ".join(cls.__name__ for cls in SHAPES.values())
            raise TypeError(f"outer must be one of {names}")
        if np.shape(self.hole_center) != (2,):
            raise ValueError("hole_center must have exactly two coordinates, "
                             f"got {self.hole_center!r}")
        center = (float(self.hole_center[0]), float(self.hole_center[1]))
        object.__setattr__(self, "hole_center", center)
        object.__setattr__(self, "hole_radius", float(self.hole_radius))
        if not self.hole_radius > 0:
            raise ValueError("hole radius must be positive")
        if self.outer.signed_distance(*center) >= 0:
            raise ValueError("hole center lies outside the outer shape")
        if not self.clearance > 0:
            raise ValueError(
                "hole is not strictly inside the outer shape "
                f"(clearance {self.clearance:.6g})"
            )

    @cached_property
    def clearance(self) -> float:
        """Gap between the hole circle and the outer boundary."""
        d = -self.outer.signed_distance(*self.hole_center)
        return float(d) - self.hole_radius

    @property
    def is_order2_symmetric(self) -> bool:
        """Invariant under rotation by pi about the origin."""
        return self.hole_center == (0.0, 0.0)

    @property
    def is_order4_symmetric(self) -> bool:
        """Invariant under rotation by pi/2 about the origin."""
        a, b = self.outer.half_extents
        return self.is_order2_symmetric and a == b

    @property
    def area(self) -> float:
        return self.outer.area - math.pi * self.hole_radius**2

    def as_dict(self) -> dict:
        """Plain-data echo of the geometry, for JSON output."""
        return {
            "outer": shape_dict(self.outer),
            "hole_center": list(self.hole_center),
            "hole_radius": self.hole_radius,
        }


def hole_signed_distance(spec: DomainSpec, pts):
    """Signed distance to the hole circle (negative inside the hole)."""
    p = _as_points(pts)
    cx, cy = spec.hole_center
    return np.hypot(p[:, 0] - cx, p[:, 1] - cy) - spec.hole_radius


def region_signed_distance(spec: DomainSpec, pts):
    """Signed distance to the domain (outer shape minus hole closure).

    Negative inside the doubly connected region; the usual max-combination
    of the outer distance and the negated hole distance.
    """
    d_out = outer_signed_distance(spec.outer, pts)
    d_hole = hole_signed_distance(spec, pts)
    return np.maximum(d_out, -d_hole)


def size_field(spec: DomainSpec, h: float, pts):
    """Target edge length at each point: h away from narrow passages.

    The local feature size (distance to the hole circle plus distance to
    the outer boundary) collapses to the gap width inside a narrow passage,
    so grading the target length by GRADE_FRACTION of it buys a few element
    layers across the thinnest gap while leaving the bulk at h.
    """
    return region_distance_and_size(spec, h, pts)[1]


def region_distance_and_size(spec: DomainSpec, h: float, pts):
    """`region_signed_distance`, `size_field` and the outer signed distance
    at an (m, 2) point array, from one evaluation of each boundary
    distance."""
    d_out = outer_signed_distance(spec.outer, pts)
    d_hole = hole_signed_distance(spec, pts)
    lfs = np.abs(d_out) + np.abs(d_hole)
    fh = np.minimum(h, np.maximum(h / MIN_SIZE_DIVISOR, GRADE_FRACTION * lfs))
    return np.maximum(d_out, -d_hole), fh, d_out


def _march_curve(curve, t_lo, t_hi, fh):
    """Place points along a parametric curve so gaps track the size field.

    Integrates ds/fh over a dense parameter grid and emits points at the
    parameter values where the accumulated density crosses uniform targets.
    The first point is curve(t_lo) and curve(t_hi) is left out, so the
    count is the number of segments up to t_hi, at least one.
    """
    m = DENSE_FLOOR
    for _ in range(4):
        ts = np.linspace(t_lo, t_hi, m + 1)
        pts = curve(ts)
        seg = np.diff(pts, axis=0)
        ds = np.hypot(seg[:, 0], seg[:, 1])
        mids = 0.5 * (pts[:-1] + pts[1:])
        w = ds / fh(mids)
        total = float(np.sum(w))
        # Resolve the grid until every dense step is well below the local
        # target spacing, so the interpolation error is negligible.
        if m >= 16 * total:
            break
        m = int(16 * total) + 1
    cum = np.concatenate([[0.0], np.cumsum(w)])
    count = max(int(round(total)), 1)
    targets = total * np.arange(count) / count
    t_samples = np.interp(targets, cum, ts)
    return curve(t_samples)


def _ellipse_arc(center, a, b):
    """The whole ellipse, counterclockwise, as a (curve, t_lo, t_hi) piece."""
    cx, cy = center

    def curve(ts):
        return np.column_stack([cx + a * np.cos(ts), cy + b * np.sin(ts)])

    return curve, 0.0, 2.0 * math.pi


def boundary_polylines(spec: DomainSpec, h: float):
    """Sample both boundary components for a target edge length h.

    Returns (outer, inner) vertex arrays.  Spacing follows the graded size
    field, which is h itself except near a narrow gap.  The outer polyline
    runs counterclockwise; the hole polyline is returned clockwise so both
    keep the region on their left.  Each boundary piece starts at a vertex,
    so rectangle corners are vertices.  Raises ValueError unless
    0 < h < inf and h resolves a closed curve.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")

    def fh(pts):
        return size_field(spec, h, pts)

    outer_poly = np.vstack([_march_curve(*piece, fh)
                            for piece in spec.outer.boundary()])

    r = spec.hole_radius
    inner_ccw = _march_curve(*_ellipse_arc(spec.hole_center, r, r), fh)
    for poly in (outer_poly, inner_ccw):
        if len(poly) < MIN_CLOSED_SEGMENTS:
            raise ValueError(
                "h too coarse: boundary polyline would have "
                f"{len(poly)} segments (need at least {MIN_CLOSED_SEGMENTS})"
            )
    return outer_poly, inner_ccw[::-1].copy()
