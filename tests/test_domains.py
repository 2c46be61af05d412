"""Tests for the planar domain geometry helpers."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov.domains import (
    GRADE_FRACTION,
    MIN_SIZE_DIVISOR,
    SHAPES,
    Disk,
    DomainSpec,
    Ellipse,
    Rectangle,
    boundary_polylines,
    hole_signed_distance,
    outer_signed_distance,
    region_signed_distance,
    size_field,
)


def shoelace(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def segment_lengths(poly):
    d = np.roll(poly, -1, axis=0) - poly
    return np.hypot(d[:, 0], d[:, 1])


def annulus_spec(r_outer=5.0, r_hole=1.0):
    return DomainSpec(Disk(r_outer), (0.0, 0.0), r_hole)


def test_volume_matched_radius_examples():
    ell = DomainSpec(Ellipse(8.33, 3.0), (0.0, 0.0), 1.0)
    rect = DomainSpec(Rectangle(13.095, 6.0), (0.0, 0.0), 1.0)
    disk = annulus_spec()
    assert ell.outer.matched_radius == math.sqrt(8.33 * 3.0)
    assert abs(ell.outer.matched_radius - 4.99900) < 1e-5
    assert abs(rect.outer.matched_radius - 5.00095) < 2e-5
    assert disk.outer.matched_radius == 5.0


def test_matched_disk_preserves_area():
    for spec in (
        DomainSpec(Ellipse(3.0, 8.33), (0.0, 0.0), 1.0),
        DomainSpec(Rectangle(13.095, 6.0), (0.0, 0.0), 1.0),
    ):
        radius = spec.outer.matched_radius
        assert math.pi * radius**2 == pytest.approx(spec.outer.area, rel=1e-15)


def test_disk_signed_distance_exact():
    d = outer_signed_distance(Disk(5.0), np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 7.0]]))
    assert np.allclose(d, [-5.0, 0.0, 2.0])


def test_rectangle_signed_distance():
    rect = Rectangle(4.0, 2.0)
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 0.0], [3.0, 2.0], [0.0, 0.5]])
    d = outer_signed_distance(rect, pts)
    # interior: min distance to a side; exterior corner region: Euclidean
    assert np.allclose(d, [-1.0, 0.0, 1.0, math.hypot(1.0, 1.0), -0.5])


def test_ellipse_signed_distance_matches_scan_oracle():
    ell = Ellipse(3.0, 8.33)
    ts = np.linspace(0.0, 2.0 * math.pi, 1 << 21, endpoint=False)
    bnd = np.column_stack([ell.a * np.cos(ts), ell.b * np.sin(ts)])
    for p in [(0.0, 0.0), (2.0, 1.0), (4.0, 0.0), (0.0, 9.0), (1.9, 1.9)]:
        oracle = np.min(np.hypot(bnd[:, 0] - p[0], bnd[:, 1] - p[1]))
        inside = (p[0] / ell.a) ** 2 + (p[1] / ell.b) ** 2 < 1.0
        want = -oracle if inside else oracle
        (got,) = outer_signed_distance(ell, np.array([p]))
        assert got == pytest.approx(want, abs=2e-5)


def scan_distance(a, b, x, y, n=4096):
    """Distance from (x, y) to the ellipse: sample the angle, then bisect
    the derivative of the squared distance in every sampled local minimum."""
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    d2 = (a * np.cos(th) - x) ** 2 + (b * np.sin(th) - y) ** 2
    k = np.flatnonzero((d2 <= np.roll(d2, 1)) & (d2 <= np.roll(d2, -1)))
    lo, hi = th[k] - 2.0 * math.pi / n, th[k] + 2.0 * math.pi / n
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        c, s = np.cos(mid), np.sin(mid)
        up = (b * s - y) * b * c - (a * c - x) * a * s > 0.0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    t = np.concatenate([lo, hi])
    return np.min(np.hypot(a * np.cos(t) - x, b * np.sin(t) - y))


@pytest.mark.parametrize("a, b", [(3.0, 8.33), (8.33, 3.0)])
def test_ellipse_distance_on_the_major_axis_inside_the_evolute(a, b):
    # The nearest points are off the axis, at distance
    # minor * sqrt(1 - w^2 / (major^2 - minor^2)); w = 0.1746 and the
    # table 3 hole centres 0.5 ... 6.5 lie on this segment.
    minor, major = min(a, b), max(a, b)
    cusp = (major**2 - minor**2) / major
    w = np.concatenate(
        [[0.0, 0.1746], np.arange(0.5, 7.0), cusp * np.linspace(-0.999, 0.999, 41)]
    )
    closed = minor * np.sqrt(1.0 - w**2 / (major**2 - minor**2))
    zero = np.zeros_like(w)
    pts = np.column_stack([zero, w] if b > a else [w, zero])
    got = -outer_signed_distance(Ellipse(a, b), pts)
    assert np.allclose(got, closed, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("a, b", [(3.0, 8.33), (6.5475, 3.0), (5.0, 5.0)])
def test_ellipse_distance_matches_refined_reference(a, b):
    rng = np.random.default_rng(3)
    random = rng.uniform(-1.5, 1.5, (60, 2)) * [a, b]
    axes = np.array([[0.0, 0.0], [0.0, 0.3 * b], [0.0, -1.2 * b], [0.6 * a, 0.0],
                     [-1.4 * a, 0.0], [a, 0.0], [0.0, b], [4.0 * a, 3.0 * b]])
    pts = np.vstack([random, axes])
    ell = Ellipse(a, b)
    got = np.abs(outer_signed_distance(ell, pts))
    want = [scan_distance(a, b, x, y) for x, y in pts]
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * max(a, b))
    # a point's distance does not depend on the other points of the call
    assert np.array_equal(got, [abs(ell.signed_distance(x, y)) for x, y in pts])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(sorted(SHAPES)),
    sizes=st.lists(st.floats(0.5, 10.0), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_outer_signed_distance_is_convex(name, sizes, seed):
    # meshing skips outer distances by this bound: at a midpoint and at a
    # centroid the distance is at most the mean of the corner values, up
    # to rounding (measured below 5e-16 times the shape's size).  Corner
    # triples spread from 1e-6 to 1 times the size, centred inside and
    # outside the shape.
    cls = SHAPES[name]
    shape = cls(*sizes[: len(fields(cls))])
    a, b = shape.half_extents
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-1.5, 1.5, (200, 1, 2)) * [a, b]
    spread = 10.0 ** rng.uniform(-6.0, 0.0, (200, 1, 1)) * max(a, b)
    corners = centres + spread * rng.uniform(-1.0, 1.0, (200, 3, 2))
    d = outer_signed_distance(shape, corners.reshape(-1, 2)).reshape(200, 3)
    assert np.any(d < 0) and np.any(d > 0)
    tol = 1e-14 * max(a, b)
    mid = outer_signed_distance(shape, 0.5 * (corners[:, 0] + corners[:, 1]))
    assert np.all(mid <= 0.5 * (d[:, 0] + d[:, 1]) + tol)
    centroid = outer_signed_distance(shape, corners.mean(axis=1))
    assert np.all(centroid <= d.mean(axis=1) + tol)
    assert outer_signed_distance(shape, np.empty((0, 2))).shape == (0,)


def test_region_signed_distance_frozen_points():
    spec = DomainSpec(Disk(5.0), (3.5, 0.0), 1.0)
    pts = np.array([[0.0, 0.0], [3.5, 0.0], [6.0, 0.0], [4.75, 0.0]])
    d = region_signed_distance(spec, pts)
    assert np.allclose(d, [-2.5, 1.0, 1.0, -0.25])


def test_hole_signed_distance():
    spec = DomainSpec(Disk(5.0), (3.5, 0.0), 1.0)
    assert hole_signed_distance(spec, np.array([[3.5, 0.0]])).tolist() == [-1.0]
    assert hole_signed_distance(spec, np.array([[3.5, 2.0]])).tolist() == [1.0]
    with pytest.raises(ValueError, match=r"shape \(m, 2\)"):
        hole_signed_distance(spec, np.array([3.5, 0.0]))


def test_clearance_disk_exact():
    spec = DomainSpec(Disk(5.0), (3.5, 0.0), 1.0)
    assert spec.clearance == pytest.approx(0.5, abs=1e-14)


def test_clearance_ellipse_matches_scan_oracle():
    ell = Ellipse(3.0, 8.33)
    spec = DomainSpec(ell, (1.9, 1.9), 1.0)
    ts = np.linspace(0.0, 2.0 * math.pi, 1 << 21, endpoint=False)
    bnd = np.column_stack([ell.a * np.cos(ts), ell.b * np.sin(ts)])
    oracle = np.min(np.hypot(bnd[:, 0] - 1.9, bnd[:, 1] - 1.9)) - 1.0
    assert spec.clearance == pytest.approx(oracle, abs=1e-6)
    assert 0.015 < spec.clearance < 0.025


def test_hole_must_sit_strictly_inside():
    with pytest.raises(ValueError):
        DomainSpec(Disk(5.0), (4.5, 0.0), 1.0)  # touches the boundary
    with pytest.raises(ValueError):
        DomainSpec(Disk(5.0), (6.0, 0.0), 1.0)  # center outside
    with pytest.raises(ValueError):
        DomainSpec(Disk(5.0), (0.0, 0.0), 5.5)  # hole swallows the disk
    with pytest.raises(ValueError):
        DomainSpec(Disk(5.0), (0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0)


def test_outer_must_be_a_shape():
    # a bare number or a tuple of half-extents is no outer shape
    for outer in (5.0, (5.0, 5.0)):
        with pytest.raises(TypeError, match="outer must be one of Disk"):
            DomainSpec(outer, (0.0, 0.0), 1.0)


@pytest.mark.parametrize("make", [
    Disk, lambda x: Ellipse(x, 1.0), lambda x: Ellipse(1.0, x),
    lambda x: Rectangle(x, 1.0), lambda x: Rectangle(1.0, x),
])
def test_outer_shapes_reject_infinite_sizes(make):
    with pytest.raises(ValueError, match="positive and finite, got .*inf"):
        make(math.inf)


def test_symmetry_flags():
    assert annulus_spec().is_order4_symmetric
    assert annulus_spec().is_order2_symmetric
    off = DomainSpec(Disk(5.0), (1.0, 0.0), 1.0)
    assert not off.is_order2_symmetric and not off.is_order4_symmetric
    square = DomainSpec(Rectangle(8.0, 8.0), (0.0, 0.0), 1.0)
    assert square.is_order4_symmetric
    rect = DomainSpec(Rectangle(13.095, 6.0), (0.0, 0.0), 1.0)
    assert rect.is_order2_symmetric and not rect.is_order4_symmetric
    ell = DomainSpec(Ellipse(3.0, 8.33), (0.0, 0.0), 1.0)
    assert ell.is_order2_symmetric and not ell.is_order4_symmetric
    round_ell = DomainSpec(Ellipse(4.0, 4.0), (0.0, 0.0), 1.0)
    assert round_ell.is_order4_symmetric
    off_ell = DomainSpec(Ellipse(4.0, 4.0), (0.5, 0.0), 1.0)
    assert not off_ell.is_order2_symmetric and not off_ell.is_order4_symmetric
    assert Disk(2.0).is_round and Ellipse(2.0, 2.0).is_round
    assert not Ellipse(2.0, 3.0).is_round and not Rectangle(2.0, 2.0).is_round


def test_size_field_frozen_values():
    spec = DomainSpec(Disk(5.0), (3.5, 0.0), 1.0)
    pts = np.array([[0.0, 0.0], [4.75, 0.0], [4.25, 0.0]])
    fh = size_field(spec, 0.5, pts)
    # far field: h; mid-gap: 0.3 * gap; part way: 0.3 * (0.25 + 0.75)
    assert np.allclose(fh, [0.5, 0.15, 0.3])


def test_size_field_uniform_on_concentric_annulus():
    spec = annulus_spec()
    rng_pts = np.array([[r, 0.0] for r in np.linspace(1.0, 5.0, 17)])
    assert np.allclose(size_field(spec, 0.5, rng_pts), 0.5)


def graded_size(spec, h, pts):
    """The size field from the grading formula, with the outer distance
    evaluated at every point."""
    lfs = (np.abs(outer_signed_distance(spec.outer, pts))
           + np.abs(hole_signed_distance(spec, pts)))
    return np.minimum(h, np.maximum(h / MIN_SIZE_DIVISOR, GRADE_FRACTION * lfs))


# Holes on an axis of each shape whose gap to the outer boundary runs
# along that axis, away from the origin: (outer, hole centre, direction).
GAP_LINE_HOLES = [
    *[pytest.param(Disk(5.0), (x, 0.0), (1.0, 0.0), id=f"disk-x{x}")
      for x in (0.5, 1.7, 2.9, 3.5, 3.9)],
    *[pytest.param(Ellipse(3.0, 8.33), (x, 0.0), (1.0, 0.0), id=f"ellipse-x{x}")
      for x in (0.3, 1.1, 1.5, 1.9)],
    *[pytest.param(Rectangle(13.095, 6.0), (x, 0.0), (1.0, 0.0),
                   id=f"rectangle-x{x}") for x in (4.0, 5.0, 5.4)],
    *[pytest.param(Rectangle(13.095, 6.0), (0.0, y), (0.0, 1.0),
                   id=f"rectangle-y{y}") for y in (0.5, 1.5, 1.9)],
]


@pytest.mark.parametrize("outer, centre, direction", GAP_LINE_HOLES)
def test_size_field_equals_the_grading_formula_on_the_gap_line(
    outer, centre, direction
):
    # on the segment from the hole to the nearest outer point the feature
    # size is the clearance itself, and rounding can leave it an ulp below
    # the computed clearance; with h a rounding away from
    # GRADE_FRACTION*clearance the clearance rule must not return h there
    for sign in (1.0, -1.0):
        c = (sign * centre[0], sign * centre[1])
        spec = DomainSpec(outer, c, 1.0)
        t = spec.hole_radius + np.linspace(0.0, 1.0, 201) * spec.clearance
        pts = np.column_stack([c[0] + sign * direction[0] * t,
                               c[1] + sign * direction[1] * t])
        for scale in (1.0 - 2e-16, 1.0, 1.0 + 2e-16):
            h = GRADE_FRACTION * spec.clearance * scale
            assert np.array_equal(size_field(spec, h, pts),
                                  graded_size(spec, h, pts))


@pytest.mark.parametrize("h", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_size_field_rejects_h_that_is_not_positive_and_finite(h):
    with pytest.raises(ValueError, match="h must be positive and finite"):
        size_field(annulus_spec(), h, np.array([[3.0, 0.0]]))


def test_boundary_polyline_counts_disk():
    outer, inner = boundary_polylines(annulus_spec(), 0.5)
    assert len(outer) == 63
    assert len(inner) == 13


def test_boundary_polyline_orientations():
    outer, inner = boundary_polylines(annulus_spec(), 0.5)
    assert shoelace(outer) > 0  # counterclockwise
    assert shoelace(inner) < 0  # clockwise
    assert np.allclose(np.hypot(outer[:, 0], outer[:, 1]), 5.0, atol=1e-12)
    assert np.allclose(np.hypot(inner[:, 0], inner[:, 1]), 1.0, atol=1e-12)


def test_boundary_polyline_uniform_spacing_on_circles():
    outer, inner = boundary_polylines(annulus_spec(), 0.5)
    for poly, radius in ((outer, 5.0), (inner, 1.0)):
        lengths = segment_lengths(poly)
        expect = 2.0 * radius * math.sin(math.pi / len(poly))  # chord length
        assert np.allclose(lengths, expect, rtol=1e-6)


def test_ellipse_polyline_points_on_curve():
    spec = DomainSpec(Ellipse(8.33, 3.0), (0.0, 0.0), 1.0)
    outer, _ = boundary_polylines(spec, 0.25)
    level = (outer[:, 0] / 8.33) ** 2 + (outer[:, 1] / 3.0) ** 2
    assert np.max(np.abs(level - 1.0)) < 1e-12


def test_rectangle_polyline_contains_corners():
    spec = DomainSpec(Rectangle(13.095, 6.0), (0.0, 0.0), 1.0)
    outer, _ = boundary_polylines(spec, 0.25)
    for corner in [(-6.5475, -3.0), (6.5475, -3.0), (6.5475, 3.0), (-6.5475, 3.0)]:
        hits = np.all(outer == np.array(corner), axis=1)
        assert np.count_nonzero(hits) == 1
    assert shoelace(outer) > 0


def test_polyline_spacing_tracks_size_field():
    spec = DomainSpec(Disk(5.0), (3.5, 0.0), 1.0)
    outer, inner = boundary_polylines(spec, 0.5)
    for poly in (outer, inner):
        lengths = segment_lengths(poly)
        mids = 0.5 * (poly + np.roll(poly, -1, axis=0))
        fh = size_field(spec, 0.5, mids)
        ratio = lengths / fh
        assert 0.7 < ratio.min() and ratio.max() < 1.3
    # the gap side of the outer circle must be refined
    near_gap = outer[:, 0] > 4.9
    gap_lengths = segment_lengths(outer)[near_gap[:-1] if False else near_gap]
    assert gap_lengths.max() < 0.35


def test_too_coarse_h_raises():
    with pytest.raises(ValueError, match="too coarse"):
        boundary_polylines(annulus_spec(), 1.0)  # inner circle needs 8 segments
    with pytest.raises(ValueError, match="positive"):
        boundary_polylines(annulus_spec(), -0.5)
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        boundary_polylines(annulus_spec(), math.inf)
    # a hole far below h still gets its one starting point
    with pytest.raises(ValueError, match="have 1 segments"):
        boundary_polylines(DomainSpec(Disk(5.0), (0.0, 0.0), 0.01), 0.5)


def test_spec_area():
    spec = annulus_spec()
    assert spec.area == pytest.approx(24.0 * math.pi, rel=1e-15)
