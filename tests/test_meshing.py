"""Tests for the triangle mesh generator and mesh validation."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_domains import graded_size

from steklov import domains, golden, meshing
from steklov.domains import (
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
from steklov.experiments import four_eigenvalues
from steklov.meshing import (
    ESCAPE_FRACTION,
    Mesh,
    MeshError,
    mesh_min_angle,
    triangulate,
    validate_mesh,
)
from steklov.quadrature import volume_rule


def mesh_area(mesh):
    """Total signed area of the triangulation."""
    areas = meshing._triangle_signed_areas(mesh.vertices, mesh.triangles)
    return float(np.sum(areas))


def annulus_spec(r_outer=5.0, r_hole=1.0):
    return DomainSpec(Disk(r_outer), (0.0, 0.0), r_hole)


def settle_from_qhull(spec, h, pts, n_fixed):
    """`_settle` of `pts`, every point past the first n_fixed live, from
    `_build`'s triangulation of them by Qhull on every point; it moves the
    points in `pts` that the standoff projects."""
    return meshing._settle(spec, h, pts, np.arange(n_fixed, len(pts)),
                           meshing._build(spec, h, pts))


def polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def hand_ring_mesh():
    """A 16-triangle annulus between two octagons (angles ~45-67 deg)."""
    outer_angles = np.arange(8) * (2.0 * math.pi / 8.0)
    inner_angles = outer_angles + math.pi / 8.0
    outer = 2.0 * np.column_stack([np.cos(outer_angles), np.sin(outer_angles)])
    inner = 1.0 * np.column_stack([np.cos(inner_angles), np.sin(inner_angles)])
    vertices = np.vstack([outer, inner[::-1]])  # inner stored clockwise
    inner_idx = [15 - k for k in range(8)]  # storage slot of inner[k]
    triangles = []
    for k in range(8):
        triangles.append([k, (k + 1) % 8, inner_idx[k]])
        triangles.append([(k + 1) % 8, inner_idx[(k + 1) % 8], inner_idx[k]])
    triangles = np.array(triangles)
    # repair orientation numerically
    for t in triangles:
        d1 = vertices[t[1]] - vertices[t[0]]
        d2 = vertices[t[2]] - vertices[t[0]]
        if d1[0] * d2[1] - d1[1] * d2[0] < 0:
            t[1], t[2] = t[2], t[1]
    edges = [[k, (k + 1) % 8] for k in range(8)]
    edges += [[8 + k, 8 + (k + 1) % 8] for k in range(8)]
    return Mesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=np.array(edges),
        n_outer=8,
        h=1.0,
    )


def test_hand_ring_mesh_validates():
    mesh = hand_ring_mesh()
    validate_mesh(mesh)
    assert mesh_min_angle(mesh) > 35.0
    # area equals the polygon ring area exactly
    outer = mesh.vertices[:8]
    inner = mesh.vertices[8:]
    expect = polygon_area(outer) + polygon_area(inner)  # inner is clockwise
    assert mesh_area(mesh) == pytest.approx(expect, rel=1e-14)


def test_annulus_mesh_invariants():
    spec = annulus_spec()
    mesh = triangulate(spec, 0.5)
    validate_mesh(mesh)
    assert mesh_min_angle(mesh) >= 20.0
    assert mesh.n_outer == 63 and len(mesh.boundary_edges) == 63 + 13
    edges = np.vstack(
        [mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]], mesh.triangles[:, [2, 0]]]
    )
    n_edges = len(np.unique(np.sort(edges, axis=1), axis=0))
    assert mesh.vertex_count - n_edges + mesh.triangle_count == 0


def test_mesh_covers_exactly_the_polygonal_region():
    # conforming triangulation <=> triangle areas sum to the shoelace area
    # of the outer polyline minus the hole polyline
    spec = annulus_spec()
    mesh = triangulate(spec, 0.5)
    outer, inner = boundary_polylines(spec, 0.5)
    expect = polygon_area(outer) + polygon_area(inner)  # inner is clockwise
    assert mesh_area(mesh) == pytest.approx(expect, rel=1e-12)


def test_area_converges_at_second_order():
    spec = annulus_spec()
    exact = 24.0 * math.pi
    errors = []
    hs = [0.5, 0.25, 0.125]
    for h in hs:
        err = abs(mesh_area(triangulate(spec, h)) - exact)
        errors.append(err)
        assert err / exact < 0.005
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert slope >= 1.8


def test_offset_hole_mesh_grades_into_gap():
    spec = DomainSpec(Disk(5.0), (3.5, 0.0), 1.0)
    mesh = triangulate(spec, 0.5)
    validate_mesh(mesh)
    # edge lengths of triangles inside the gap shrink toward 0.3 * gap
    tri_pts = mesh.vertices[mesh.triangles]
    centroids = tri_pts.mean(axis=1)
    in_gap = (centroids[:, 0] > 4.6) & (np.abs(centroids[:, 1]) < 0.5)
    assert np.any(in_gap)
    for tri in tri_pts[in_gap]:
        sides = np.hypot(*(tri - np.roll(tri, 1, axis=0)).T)
        assert sides.max() < 0.35


def test_triangulate_is_deterministic():
    spec = DomainSpec(Disk(5.0), (3.5, 0.0), 1.0)
    a = triangulate(spec, 0.5)
    b = triangulate(spec, 0.5)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.boundary_edges, b.boundary_edges)
    assert a.n_outer == b.n_outer


def test_rectangle_mesh_area_and_corners():
    spec = DomainSpec(Rectangle(13.095, 6.0), (0.0, 0.0), 1.0)
    mesh = triangulate(spec, 0.25)
    exact = 13.095 * 6.0 - math.pi
    assert abs(mesh_area(mesh) - exact) / exact < 0.005
    for corner in [(-6.5475, -3.0), (6.5475, -3.0), (6.5475, 3.0), (-6.5475, 3.0)]:
        assert np.any(np.all(mesh.vertices == np.array(corner), axis=1))


def test_thin_gap_ellipse_meshes_cleanly():
    spec = DomainSpec(Ellipse(3.0, 8.33), (1.9, 1.9), 1.0)
    assert spec.clearance > 0.125 / 10.0
    mesh = triangulate(spec, 0.125)
    validate_mesh(mesh)
    assert mesh_min_angle(mesh) >= 20.0
    # boundary standoff: interior vertices keep ESCAPE_FRACTION of the local size
    interior = np.setdiff1d(np.arange(mesh.vertex_count), mesh.boundary_edges)
    pts = mesh.vertices[interior]
    assert np.all(
        region_signed_distance(spec, pts)
        <= -ESCAPE_FRACTION * size_field(spec, 0.125, pts) + 1e-12 * 0.125
    )


def test_settle_projects_points_inside_the_standoff():
    # the band point moves straight back along the radius, to 1e-9 fh past
    # the standoff 0.3 h inside; every other point stays, bit for bit, and
    # every point keeps its index
    spec = annulus_spec()  # size field is h = 0.5 everywhere
    outer, inner = boundary_polylines(spec, 0.5)
    fixed = np.vstack([outer, inner])
    band, clear = [4.9, 0.0], [0.0, 4.8]  # 0.2 h and 0.4 h inside
    pts = np.vstack([fixed, [[0.0, 2.5], band, clear]])
    before = pts.copy()
    fh, (simplices, twin) = settle_from_qhull(spec, 0.5, pts, len(fixed))
    live = np.arange(len(fixed), len(pts))
    assert np.array_equal(np.delete(pts, -2, axis=0), np.delete(before, -2, axis=0))
    assert pts[-2, 1] == 0.0 and pts[-2, 0] < band[0]
    depth = -region_signed_distance(spec, pts[-2:-1])[0]
    assert ESCAPE_FRACTION * 0.5 < depth <= (ESCAPE_FRACTION + 2e-9) * 0.5
    assert np.array_equal(fh, size_field(spec, 0.5, pts[live]))
    assert np.array_equal(np.unique(simplices), np.arange(len(pts)))
    assert np.all(meshing._triangle_signed_areas(pts, simplices) > 0)
    assert np.array_equal(twin, meshing._twins(simplices, len(pts)))


@pytest.mark.parametrize(
    "center, h, graded",
    [((0.0, 2.5), 0.5, False), ((1.9, 1.9), 0.125, True)],
    ids=["ellipse-y-axis", "thin-gap-ellipse"],
)
def test_settle_evaluates_the_outer_distance_in_full_only_on_the_points(
    monkeypatch, center, h, graded
):
    # `_build` evaluates the outer distance once, on the centroids of the
    # Delaunay simplices, and its flip pass evaluates nothing.  A settle
    # evaluates it once on the live points (the standoff), then in
    # `size_field` on the live points where GRADE_FRACTION*|d_hole| < h,
    # and its flip repair evaluates nothing.
    # `size_field` evaluates it only there, at the points and at the bar
    # midpoints alike: on none of the y-axis ellipse's, whose clearance
    # grades nothing, and on the thin gap's near-hole ones, every graded bar
    # among them
    spec = DomainSpec(Ellipse(3.0, 8.33), center, 1.0)
    outer, inner = boundary_polylines(spec, h)
    fixed = np.vstack([outer, inner])
    seeds, _, live, _ = meshing._seed_points(spec, h)
    pts, live = np.vstack([fixed, seeds]), live + len(fixed)
    assert 0 < len(live) < len(seeds)  # seeding freezes some
    calls = []

    def counted(shape, p):
        calls.append(len(p))
        return outer_signed_distance(shape, p)

    monkeypatch.setattr(domains, "outer_signed_distance", counted)
    full = meshing._build(spec, h, pts)
    assert calls == [len(meshing.Delaunay(pts).simplices)]  # one per simplex
    calls.clear()
    kept = pts.copy()
    _, full = meshing._settle(spec, h, pts, live, full)
    assert np.array_equal(kept, pts)  # every seed meets the standoff
    d_hole = hole_signed_distance(spec, pts[live])
    near = domains.GRADE_FRACTION * np.abs(d_hole) < h
    sized = [np.count_nonzero(near)] if graded else []
    assert calls == [len(live), *sized]
    assert not graded or 0 < sized[0] < len(live)
    simplices = full[0]
    bars = meshing._unique_edges(simplices, len(kept))[0]
    mids = 0.5 * (kept[bars[:, 0]] + kept[bars[:, 1]])
    near = domains.GRADE_FRACTION * np.abs(hole_signed_distance(spec, mids)) < h
    calls.clear()
    h_bars = meshing.size_field(spec, h, mids)
    if graded:
        assert calls == [np.count_nonzero(near)] and not near.all()
        assert np.any(h_bars < h) and np.all(near[h_bars < h])
    else:
        assert calls == [] and np.any(near)


def settle_screens_reference(spec, h, pts, n_fixed):
    """The Qhull simplices that `_settle` on pts should keep, and pairs of
    size fields that should agree: the settle's at its live points and
    `size_field` there and at the midpoints of its bars, each against the
    grading formula with the outer distance at every point.

    The settle's projection moves only the points short of the standoff,
    each until it meets it.  The reference projects before Qhull
    triangulates: Qhull's region triangles leave out a point outside the
    region, which flips cannot bring back (in `_relax` no point leaves the
    region without inverting a triangle, which sends the settle to
    `_build`)."""
    before, live = pts.copy(), np.arange(n_fixed, len(pts))
    projected = meshing._project(spec, h, pts, live)
    short = np.ones(len(pts), bool)
    short[live] = (region_signed_distance(spec, before[live])
                   > -ESCAPE_FRACTION * size_field(spec, h, before[live]))
    assert np.array_equal(pts[~short], before[~short])
    assert np.all(region_signed_distance(spec, pts[live])
                  <= -ESCAPE_FRACTION * projected)
    kept = pts.copy()
    fh, (simplices, _) = settle_from_qhull(spec, h, pts, n_fixed)
    assert np.array_equal(pts, kept) and np.array_equal(fh, projected)
    bars = meshing._unique_edges(simplices, len(kept))[0]
    full = meshing.Delaunay(kept).simplices
    centroids = kept[full].mean(axis=1)
    want = full[region_signed_distance(spec, centroids) < -meshing.GEPS * h]
    mids = 0.5 * (kept[bars[:, 0]] + kept[bars[:, 1]])
    # flips keep the count of the triangles they start from
    assert len(simplices) == len(want)
    formula = graded_size(spec, h, kept)
    return want, [(fh, formula[live]), (size_field(spec, h, kept), formula),
                  (size_field(spec, h, mids), graded_size(spec, h, mids))]


def random_spec(seed):
    """An admissible spec of a random outer shape, size and hole."""
    rng = np.random.default_rng(seed)
    outer = [
        Disk(rng.uniform(2.5, 6.0)),
        Ellipse(rng.uniform(2.0, 4.5), rng.uniform(3.0, 8.5)),
        Rectangle(rng.uniform(4.0, 13.0), rng.uniform(3.5, 8.0)),
    ][seed % 3]
    a, b = outer.half_extents
    radius = rng.uniform(0.75, 1.5)
    while True:
        try:
            return DomainSpec(outer, (rng.uniform(-a, a), rng.uniform(-b, b)), radius)
        except ValueError:
            continue


SCREEN_CASES = {
    "annulus": (golden.TABLE1_DOMAINS["annulus"], 0.25),
    "rectangle": (golden.TABLE1_DOMAINS["rectangle"], 0.25),
    "ellipse": (golden.TABLE1_DOMAINS["ellipse"], 0.25),
    "thin-gap-ellipse": (DomainSpec(golden.ELLIPSE_OUTER, (1.9, 1.9), 1.0), 0.125),
    "rectangle-off-centre": (DomainSpec(golden.RECT_OUTER, (3.0, 1.0), 1.0), 0.25),
    **{f"random-{seed}": (random_spec(seed), 0.25) for seed in range(6)},
}


@pytest.mark.parametrize("name", SCREEN_CASES)
def test_settle_screens_match_the_full_evaluations_bit_for_bit(name, monkeypatch):
    # `size_field`'s clearance and hole rules skip the outer distance; the
    # sizes equal the grading formula's bit for bit on the seeded cloud, on
    # the cloud moved by up to 0.3 h (the standoff projects some points), on
    # the relaxed mesh, and on the boundary with a point 2e-3 h inside each
    # outer edge's midpoint, all fixed so the standoff keeps them: on
    # straight sides their triangles have a centroid distance of
    # -2e-3 h / 3, which the GEPS filter rejects
    spec, h = SCREEN_CASES[name]
    outer, inner = boundary_polylines(spec, h)
    fixed = np.vstack([outer, inner])
    seeds = meshing._seed_points(spec, h)[0]
    rng = np.random.default_rng(len(seeds))
    moved = seeds + rng.uniform(-0.3 * h, 0.3 * h, seeds.shape)
    chord = np.roll(outer, -1, axis=0) - outer
    inward = np.column_stack([-chord[:, 1], chord[:, 0]])  # outer is ccw
    hugging = outer + 0.5 * chord + 2e-3 * h * inward / np.hypot(*chord.T)[:, None]
    hugging_cloud = np.vstack([fixed, hugging])
    clouds = [
        (np.vstack([fixed, seeds]), len(fixed)),
        (np.vstack([fixed, moved]), len(fixed)),
        (triangulate(spec, h).vertices, len(fixed)),
        (hugging_cloud, len(hugging_cloud)),
    ]
    graded = False
    for pts, n_fixed in clouds:
        want, sizes = settle_screens_reference(spec, h, pts, n_fixed)
        for got, formula in sizes:
            assert np.array_equal(got, formula)
            graded |= bool(np.any(formula < h))
    if name == "thin-gap-ellipse":
        assert graded
    if isinstance(spec.outer, Rectangle):  # kept at GEPS = 0, dropped at 1e-3
        monkeypatch.setattr(meshing, "GEPS", 0.0)
        assert len(want) < len(meshing._build(spec, h, pts)[0])


def min_angle_reference(vertices, triangles):
    """`mesh_min_angle` by the smallest of all 3 * nt angles."""
    p = vertices[triangles]
    a, b = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
    num = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    den = np.hypot(a[..., 0], a[..., 1]) * np.hypot(b[..., 0], b[..., 1])
    return float(np.degrees(np.arccos(np.clip(num / den, -1.0, 1.0))).min())


@pytest.mark.parametrize("name", sorted(golden.TABLE1_DOMAINS))
def test_min_angle_equals_the_smallest_of_all_angles_on_golden_meshes(name):
    for h in (0.25, 0.125):
        mesh = triangulate(golden.TABLE1_DOMAINS[name], h)
        got = mesh_min_angle(mesh)
        assert got == min_angle_reference(mesh.vertices, mesh.triangles)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * 6), min_size=1,
                max_size=30))
def test_min_angle_equals_the_smallest_of_all_angles_on_random_triangles(
    corners,
):
    # either orientation, slivers and repeated corners (0/0 is nan in both)
    vertices = np.array(corners).reshape(-1, 2)
    triangles = np.arange(len(vertices)).reshape(-1, 3)
    mesh = Mesh(vertices, triangles, np.zeros((0, 2), int), 0, 1.0)
    with np.errstate(all="ignore"):
        got = mesh_min_angle(mesh)
        want = min_angle_reference(vertices, triangles)
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("name", sorted(golden.TABLE1_DOMAINS))
def test_areas_validation_and_volume_rule_take_any_vertex_layout(name):
    # the areas gather corners from the vertices viewed as complex, which
    # takes a C-ordered float64 copy; a bare view raises on these layouts
    mesh = triangulate(golden.TABLE1_DOMAINS[name], 0.25)
    fortran = replace(mesh, vertices=np.asfortranarray(mesh.vertices))
    single = replace(mesh, vertices=mesh.vertices.astype(np.float32))
    for other in (fortran, single):
        with pytest.raises(ValueError):
            other.vertices.view(complex)
    want = [meshing._triangle_signed_areas(mesh.vertices, mesh.triangles),
            *volume_rule(mesh)]
    got = [meshing._triangle_signed_areas(fortran.vertices, mesh.triangles),
           *volume_rule(fortran)]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    validate_mesh(fortran)
    validate_mesh(single)
    areas = meshing._triangle_signed_areas(single.vertices, mesh.triangles)
    assert np.array_equal(areas, meshing._triangle_signed_areas(
        single.vertices.astype(float), mesh.triangles))
    assert np.all(volume_rule(single)[1] > 0)


def sorted_edges(triangles):
    """Every triangle side as an (i, j) row with i < j, duplicates kept."""
    edges = np.vstack(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    return np.sort(edges, axis=1)


def test_bars_are_the_sorted_unique_simplex_edges():
    spec = DomainSpec(Ellipse(3.0, 8.33), (1.2, 0.0), 1.0)
    mesh = triangulate(spec, 0.25)
    _, (simplices, _) = settle_from_qhull(
        spec, 0.25, mesh.vertices.copy(), len(mesh.boundary_edges)
    )
    bars = meshing._unique_edges(simplices, mesh.vertex_count)[0]
    rows = np.unique(sorted_edges(simplices), axis=0)
    assert bars.dtype == rows.dtype and np.array_equal(bars, rows)
    edges, counts = meshing._unique_edges(mesh.triangles, mesh.vertex_count)
    want, want_counts = np.unique(
        sorted_edges(mesh.triangles), axis=0, return_counts=True
    )
    assert np.array_equal(edges, want) and np.array_equal(counts, want_counts)


def row_sorted_unique_edges(triangles, n):
    """`meshing._unique_edges` by a row sort of the edge stack: the
    reference for its min/max key."""
    edges = np.sort(sorted_edges(triangles), axis=1)
    key, counts = np.unique(
        edges[:, 0].astype(np.int64) * n + edges[:, 1], return_counts=True
    )
    return np.column_stack([key // n, key % n]).astype(triangles.dtype), counts


def assert_unique_edges_match_row_sort(triangles, n):
    edges, counts = meshing._unique_edges(triangles, n)
    want, want_counts = row_sorted_unique_edges(triangles, n)
    assert edges.dtype == want.dtype and np.array_equal(edges, want)
    assert np.array_equal(counts, want_counts)


@pytest.mark.parametrize("name", sorted(golden.TABLE1_DOMAINS))
def test_unique_edges_match_the_row_sort_on_golden_meshes(name):
    mesh = triangulate(golden.TABLE1_DOMAINS[name], 0.25)
    assert_unique_edges_match_row_sort(mesh.triangles, mesh.vertex_count)


@pytest.mark.parametrize("seed", range(4))
def test_unique_edges_match_the_row_sort_on_random_triangles(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    dtype = (np.int32, np.int64)[seed % 2]
    tris = rng.integers(0, n, size=(int(rng.integers(1, 300)), 3)).astype(dtype)
    assert_unique_edges_match_row_sort(tris, n)


def test_force_scatter_matches_add_at_bit_for_bit():
    # vertices 50..59, and every vertex the draw misses, touch no bar
    rng = np.random.default_rng(7)
    n = 60
    bars = np.sort(rng.integers(0, 50, size=(4000, 2)), axis=1)
    force = rng.standard_normal((4000, 2)) * 10.0 ** rng.uniform(-8, 8, (4000, 1))
    want = np.zeros((n, 2))
    np.add.at(want, bars[:, 0], force)
    np.add.at(want, bars[:, 1], -force)
    D = meshing._incidence(bars.T.ravel(), n)
    assert D.shape == (n, len(bars))
    assert np.array_equal(D @ force, want)


def modulus(vec):
    """Length of each row of an (m, 2) array, as the complex modulus."""
    return np.abs(vec[:, 0] + 1j * vec[:, 1])


def force_step_on_point_array(pts, bars, h_bars, moving):
    """Reference relaxation step on an (n, 2) position array: the same
    floating-point operations as `_force_step`, in the same order, with
    only the points `moving` (ascending indices) free to move."""
    vec = pts[bars[:, 0]] - pts[bars[:, 1]]
    lengths = np.maximum(modulus(vec), 1e-300)
    scale = math.sqrt(np.sum(lengths**2) / np.sum(h_bars**2))
    want = h_bars * meshing.FSCALE * scale
    push = np.maximum(want - lengths, 0.0) / lengths
    force = vec * push[:, None]
    total = np.zeros((len(pts), 2))
    np.add.at(total, bars[:, 0], force)
    np.add.at(total, bars[:, 1], -force)
    still = np.ones(len(pts), bool)
    still[moving] = False
    total[still] = 0.0
    step = meshing.DELTA_T * modulus(total[moving])
    return pts + meshing.DELTA_T * total, step


def test_force_step_matches_the_point_array_step_bit_for_bit():
    spec = DomainSpec(golden.ELLIPSE_OUTER, (0.0, 2.5), 1.0)
    outer, inner = boundary_polylines(spec, 0.25)
    n_fixed = len(outer) + len(inner)
    seeds, _, live, _ = meshing._seed_points(spec, 0.25)
    pts, live = np.vstack([outer, inner, seeds]), live + n_fixed
    _, (simplices, _) = meshing._settle(
        spec, 0.25, pts, live, meshing._build(spec, 0.25, pts))
    start = pts.copy()
    bars = meshing._unique_edges(simplices, len(pts))[0]
    h_bars = size_field(spec, 0.25, 0.5 * (pts[bars[:, 0]] + pts[bars[:, 1]]))
    z = pts[:, 0] + 1j * pts[:, 1]
    free = np.arange(n_fixed, len(pts))
    for _ in range(20):
        pts, want_step = force_step_on_point_array(pts, bars, h_bars, free)
        z, step = meshing._force_step(
            z,
            bars.T.ravel(),
            meshing._incidence(bars.T.ravel(), len(pts)),
            h_bars * meshing.FSCALE,
            np.sum(h_bars**2),
            n_fixed,
        )
        assert np.array_equal(z.real, pts[:, 0]) and np.array_equal(z.imag, pts[:, 1])
        assert np.array_equal(step, want_step)
    assert np.max(step) > 0
    # `_band`'s step: the bars of the triangles with a live corner, over
    # the anchors (their fixed and frozen ends, held) and then the live points
    pts = start
    bars = meshing._unique_edges(
        simplices[np.isin(simplices, live).any(axis=1)], len(pts))[0]
    h_bars = size_field(spec, 0.25, 0.5 * (pts[bars[:, 0]] + pts[bars[:, 1]]))
    band = np.concatenate([np.setdiff1d(bars, live), live])
    z, ends, D, h_want, h_sq, n_anchors = meshing._band(
        spec, 0.25, pts, live, simplices)
    assert 0 < n_anchors and len(live) < len(pts) - n_fixed
    for _ in range(20):
        pts, want_step = force_step_on_point_array(pts, bars, h_bars, live)
        z, step = meshing._force_step(z, ends, D, h_want, h_sq, n_anchors)
        assert np.array_equal(z.real, pts[band, 0])
        assert np.array_equal(z.imag, pts[band, 1])
        assert np.array_equal(step, want_step)
    assert np.max(step) > 0


def square_with_random_interior(n, seed):
    """The unit square's corners (the fixed hull, first) and n random points
    inside it, with their Delaunay triangulation, counterclockwise."""
    rng = np.random.default_rng(seed)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts = np.vstack([corners, rng.uniform(0.05, 0.95, (n, 2))])
    tri = meshing.Delaunay(pts).simplices
    return pts, tri


def sorted_rows(tri):
    """The triangles as a set: each row sorted, then the rows."""
    rows = np.sort(tri, axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def sorting_forbidden(*args, **kwargs):
    raise AssertionError("sorted")


def test_flip_repair_equals_qhull_after_a_small_move():
    pts, tri = square_with_random_interior(400, 3)
    rng = np.random.default_rng(4)
    moved = pts.copy()
    moved[4:] += rng.uniform(-1e-3, 1e-3, (400, 2))  # inverts no triangle
    twin = meshing._twins(tri, len(pts))
    with pytest.MonkeyPatch.context() as patch:  # the flips sort nothing
        for name in ("argsort", "sort", "lexsort", "unique"):
            patch.setattr(np, name, sorting_forbidden)
        result = meshing._flip_to_delaunay(moved, tri, twin)
    assert result is not None
    repaired, twin = result
    assert np.array_equal(twin, meshing._twins(repaired, len(pts)))
    assert not np.array_equal(sorted_rows(repaired), sorted_rows(tri))
    want = meshing.Delaunay(moved).simplices
    assert np.array_equal(sorted_rows(repaired), sorted_rows(want))
    # every interior edge is locally Delaunay: the vertex across it lies
    # outside the circumcircle of each of its triangles
    opposite = {}
    for t in repaired:
        for k in range(3):
            opposite[(t[k], t[(k + 1) % 3])] = t[(k + 2) % 3]
    for (i, j), c in opposite.items():
        d = opposite.get((j, i))
        if d is not None:
            rows = [np.append(moved[v] - moved[d], np.sum((moved[v] - moved[d]) ** 2))
                    for v in (i, j, c)]
            assert np.linalg.det(np.array(rows)) < 0


def test_flip_repair_falls_back_on_an_inverted_triangle():
    pts, tri = square_with_random_interior(100, 5)
    moved = pts.copy()
    v = tri[0][np.argmax(tri[0])]  # an interior vertex of triangle 0
    others = [w for w in tri[0] if w != v]
    moved[v] = 2.0 * moved[others].mean(axis=0) - moved[v]  # across its edge
    assert np.any(meshing._triangle_signed_areas(moved, tri) <= 0)
    twin = meshing._twins(tri, len(pts))
    assert meshing._flip_to_delaunay(moved, tri, twin) is None


def test_flip_repair_gives_up_after_max_flip_rounds(monkeypatch):
    # the repair of test_flip_repair_equals_qhull_after_a_small_move flips
    # in its first round and finds nothing to flip in its second
    pts, tri = square_with_random_interior(400, 3)
    moved = pts.copy()
    moved[4:] += np.random.default_rng(4).uniform(-1e-3, 1e-3, (400, 2))
    twin = meshing._twins(tri, len(pts))
    monkeypatch.setattr(meshing, "MAX_FLIP_ROUNDS", 2)
    assert meshing._flip_to_delaunay(moved, tri, twin) is not None
    monkeypatch.setattr(meshing, "MAX_FLIP_ROUNDS", 1)
    assert meshing._flip_to_delaunay(moved, tri, twin) is None
    assert meshing._flip_to_delaunay(pts, tri, twin) is not None  # no flip


def lattice_cells(pts):
    """The cells of the 6 x 6 unit lattice `pts` (point 6i + j at (i, j)),
    each as its corners (i, j), (i+1, j), (i+1, j+1), (i, j+1)."""
    k = (6 * np.arange(5)[:, None] + np.arange(5)).ravel()
    return np.column_stack([k, k + 6, k + 7, k + 1])


def test_flip_repair_keeps_cocircular_diagonals():
    # every cell of the lattice is a cocircular quad; where each already
    # holds the diagonal through its lowest vertex no edge is flipped, and
    # the repair of Qhull's triangulation is a fixed point of the repair
    grid = np.arange(6.0)
    pts = np.column_stack([np.repeat(grid, 6), np.tile(grid, 6)])
    a, b, c, d = lattice_cells(pts).T
    tri = np.column_stack([a, b, c, a, c, d]).reshape(-1, 3)
    twin = meshing._twins(tri, len(pts))
    got, got_twin = meshing._flip_to_delaunay(pts, tri, twin)
    assert np.array_equal(got, tri) and np.array_equal(got_twin, twin)
    qhull = meshing.Delaunay(pts).simplices
    once = meshing._flip_to_delaunay(pts, qhull, meshing._twins(qhull, len(pts)))
    again = meshing._flip_to_delaunay(pts, *once)
    assert np.array_equal(again[0], once[0])
    assert np.array_equal(again[1], once[1])


def test_final_settle_flips_each_tie_to_the_diagonal_with_the_smaller_key():
    # every cell of the lattice, and the mirror-symmetric trapezoid, is a
    # cocircular quad.  From Qhull's triangulation and from the one with the
    # other diagonal in every quad, the flip repair of every settle, the
    # final one too, reaches the same triangles: the diagonal through each
    # quad's lowest vertex, the one with the smaller key
    trapezoid = np.array([[0.3, 0.7], [-0.3, 0.7], [-1.1, -0.4], [1.1, -0.4]])
    grid = np.arange(6.0)
    lattice = np.column_stack([np.repeat(grid, 6), np.tile(grid, 6)])
    for pts, quads in ((trapezoid, np.array([[2, 3, 0, 1]])),
                       (lattice, lattice_cells(lattice))):
        a, b, c, d = quads.T  # counterclockwise; a -> c holds the lowest
        on_ac = np.column_stack([a, b, c, a, c, d]).reshape(-1, 2, 3)
        on_bd = np.column_stack([a, b, d, b, c, d]).reshape(-1, 2, 3)
        qhull = meshing.Delaunay(pts).simplices
        edges = {tuple(e) for e in meshing._unique_edges(qhull, len(pts))[0]}
        qhull_ac = np.array([(i, j) in edges for i, j in zip(a, c)])
        other = np.where(qhull_ac[:, None, None], on_bd, on_ac).reshape(-1, 3)
        want = sorted_rows(on_ac.reshape(-1, 3))
        for tri in (qhull, other):
            got, twin = meshing._flip_to_delaunay(
                pts, tri, meshing._twins(tri, len(pts)))
            assert np.array_equal(sorted_rows(got), want)
            assert np.array_equal(twin, meshing._twins(got, len(pts)))


def test_twins_pair_the_half_edges_of_each_interior_edge():
    # half-edge 3t + k runs from tri[t, k] to tri[t, (k + 1) % 3]; its twin
    # runs back, and a hull edge (one triangle) has none
    pts, tri = square_with_random_interior(50, 6)
    twin = meshing._twins(tri, len(pts))
    start, end = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    inner = twin >= 0
    assert np.array_equal(start[twin[inner]], end[inner])
    assert np.array_equal(end[twin[inner]], start[inner])
    assert np.array_equal(twin[twin[inner]], np.flatnonzero(inner))
    _, counts = meshing._unique_edges(tri, len(pts))
    assert np.sum(~inner) == np.sum(counts == 1) == 4  # the square's sides


def incircle_reference(pts, i, j, c, d):
    """In-circle determinant of d against the counterclockwise triangles
    (i, j, c), positive when d is inside, and its permanent, both by the
    six-term expansion of the lifted 3 x 3 determinant."""
    rel = pts[np.stack([i, j, c], axis=1)] - pts[d][:, None, :]
    rows = np.concatenate([rel, np.sum(rel**2, axis=2, keepdims=True)], axis=2)
    det = perm = 0.0
    for cols in itertools.permutations(range(3)):
        inversions = sum(a > b for a, b in itertools.combinations(cols, 2))
        term = rows[:, 0, cols[0]] * rows[:, 1, cols[1]] * rows[:, 2, cols[2]]
        det = det + (-1) ** inversions * term
        perm = perm + np.abs(term)
    return det, perm


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(8, 60),
    seed=st.integers(0, 2**32 - 1),
    mirror=st.booleans(),
    move=st.sampled_from([1e-3, 1e-2, 3e-2, 1e-6, 1e-12, 0.0]),
    mirror_move=st.booleans(),
)
# a near-tie that reads 1e-10 of its permanent from one diagonal and 3e-10
# from the other: a test that depends on the diagonal can keep an edge
# that the reference calls non-Delaunay
@example(n=41, seed=200, mirror=True, move=1e-12, mirror_move=False)
# a quad whose lowest vertex, a corner, lies far from the other three: its
# determinant is 2e-11 of the permanent at the corner and 7e-10 of those
# at the corner's neighbours, so a tie judged by the corner's permanent
# alone keeps an edge that the reference calls non-Delaunay
@example(n=33, seed=0, mirror=True, move=1e-6, mirror_move=False)
def test_flip_repair_returns_a_delaunay_triangulation(
    n, seed, mirror, move, mirror_move
):
    # a cloud in the centred unit square with its corners fixed (first),
    # triangulated by Qhull, then moved and repaired.  A cloud mirrored
    # across the y-axis (negation is exact) makes every quad straddling
    # the axis an isosceles trapezoid, a tie, and so does a mirrored move.
    rng = np.random.default_rng(seed)
    corners = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    cloud = rng.uniform(-0.45, 0.45, (n, 2))
    shift = rng.uniform(-move, move, (n, 2))
    if mirror:
        cloud[:, 0] = -np.abs(cloud[:, 0])
        cloud = np.vstack([cloud, cloud * [-1.0, 1.0]])
        shift = np.vstack([shift, shift * [-1.0, 1.0] if mirror_move else shift])
    pts = np.vstack([corners, cloud])
    tri = meshing.Delaunay(pts).simplices
    moved = pts + np.vstack([np.zeros((4, 2)), shift])
    result = meshing._flip_to_delaunay(moved, tri, meshing._twins(tri, len(pts)))
    # a flip only replaces the diagonal of a convex quad, so the repair
    # gives up exactly when the move inverted a triangle
    inverted = np.any(meshing._triangle_signed_areas(moved, tri) <= 0)
    assert (result is None) == inverted
    if inverted:
        return
    # the twins the flips carried along are the pairing of the result
    repaired, twin = result
    assert np.array_equal(twin, meshing._twins(repaired, len(pts)))
    inner = np.flatnonzero(twin >= 0)
    assert np.array_equal(twin[twin[inner]], inner)
    areas = meshing._triangle_signed_areas(moved, repaired)
    assert np.all(areas > 0)
    assert np.sum(areas) == pytest.approx(1.0, rel=1e-12)
    opposite = {}
    for t in repaired:
        for k in range(3):
            opposite[(t[k], t[(k + 1) % 3])] = t[(k + 2) % 3]
    quads = np.array([
        (i, j, c, opposite[(j, i)])
        for (i, j), c in opposite.items()
        if (j, i) in opposite
    ])
    det, perm = incircle_reference(moved, *quads.T)
    tol = meshing.FLIP_TIE_RTOL * perm
    assert np.all(det <= tol)  # every interior edge locally Delaunay
    # a tie, judged at its quad's lowest vertex v against the circle through
    # the other three (counterclockwise from v) and within FLIP_TIE_RTOL of
    # the permanents at v and at both its neighbours, holds v on the diagonal
    i, j, c, d = quads.T
    cycle = np.column_stack([i, d, j, c])  # the quad, counterclockwise
    turn = (np.argmin(cycle, axis=1)[:, None] + [0, 1, 2, 3]) % 4
    v, p, q, r = np.take_along_axis(cycle, turn, axis=1).T
    det_v, perm_v = incircle_reference(moved, p, q, r, v)
    scale = np.minimum.reduce([perm_v, incircle_reference(moved, q, r, v, p)[1],
                               incircle_reference(moved, v, p, q, r)[1]])
    tie = np.abs(det_v) <= meshing.FLIP_TIE_RTOL * scale
    assert np.all(np.minimum(i, j)[tie] == v[tie])
    if np.all(np.abs(det) > tol):  # no tie: the Delaunay triangulation is unique
        want = meshing.Delaunay(moved).simplices
        assert np.array_equal(sorted_rows(repaired), sorted_rows(want))


MESH_SPECS = {
    "annulus": golden.TABLE1_DOMAINS["annulus"],
    "rectangle": golden.TABLE1_DOMAINS["rectangle"],
    "ellipse": golden.TABLE1_DOMAINS["ellipse"],
    "ellipse-y-axis": DomainSpec(golden.ELLIPSE_OUTER, (0.0, 2.5), 1.0),
    "rectangle-off-centre": DomainSpec(golden.RECT_OUTER, (3.0, 1.0), 1.0),
}


def qhull_at_every_settle(patch):
    """Make every triangulation come from Qhull on every point: `_build`
    gets no seed lattice, and every `_settle` gets a new `_build` of its
    points in place of the previous triangulation to repair, and flips
    from every edge of it."""
    build, settle, flip = meshing._build, meshing._settle, meshing._flip_to_delaunay

    def from_qhull(spec, h, pts, live, full):
        return settle(spec, h, pts, live, build(spec, h, pts))

    patch.setattr(meshing, "_build", lambda spec, h, pts, lattice=None:
                  build(spec, h, pts))
    patch.setattr(meshing, "_settle", from_qhull)
    # each pass over a new build starts from every edge
    patch.setattr(meshing, "_flip_to_delaunay",
                  lambda pts, tri, twin, start=None: flip(pts, tri, twin))


def assert_same_mesh(got, want):
    """Bit-identical vertices, triangles and boundary edges, dtypes too."""
    for name in ("vertices", "triangles", "boundary_edges"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("name", MESH_SPECS)
def test_flip_repair_meshes_equal_qhull_meshes(monkeypatch, name):
    # the default mesh calls Qhull once, on the band; the first build and
    # every settle can call it on every point instead.  Either way the
    # half-edges are paired once per Qhull call, and every settle builds
    # the same triangles, so the meshes are bit-identical
    spec, h = MESH_SPECS[name], 0.25
    calls = count_calls(monkeypatch, "Delaunay", "_settle", "_twins")
    mesh = triangulate(spec, h)
    assert calls["Delaunay"] == calls["_twins"] == 1 and calls["_settle"] > 1
    calls.update(dict.fromkeys(calls, 0))
    qhull_at_every_settle(monkeypatch)
    qhull_mesh = triangulate(spec, h)
    assert calls["Delaunay"] == calls["_twins"] == calls["_settle"] + 1
    assert_same_mesh(mesh, qhull_mesh)


@pytest.mark.parametrize("name", sorted(golden.TABLE1_DOMAINS))
def test_qhull_returns_counterclockwise_simplices(name):
    # the settle uses Qhull's 2-D simplices as returned: SciPy documents
    # them as counterclockwise, and every one has positive area here
    spec, h = golden.TABLE1_DOMAINS[name], 0.25
    outer, inner = boundary_polylines(spec, h)
    pts = np.vstack([outer, inner, meshing._seed_points(spec, h)[0]])
    tri = meshing.Delaunay(pts).simplices
    assert np.all(meshing._triangle_signed_areas(pts, tri) > 0)


def seeded_cloud(spec, h):
    """The boundary polylines and the seeds, as `triangulate` stacks them,
    the number of boundary points and the lattice triangles over the
    cloud."""
    outer, inner = boundary_polylines(spec, h)
    seeds, lattice = meshing._seed_points(spec, h)[:2]
    n_fixed = len(outer) + len(inner)
    return np.vstack([outer, inner, seeds]), n_fixed, lattice + n_fixed


@pytest.mark.parametrize("name", sorted(golden.TABLE1_DOMAINS))
def test_seed_lattice_triangles_are_the_lattice_cells(name):
    # every lattice triangle is counterclockwise and equilateral, and they
    # are the triangles of side h in Qhull's triangulation of their points
    # (Qhull's others span the hole and the lattice's ragged edge); no two
    # of them form a quad that the flip test reads as a tie
    h = 0.125
    seeds, lattice = meshing._seed_points(golden.TABLE1_DOMAINS[name], h)[:2]
    areas = meshing._triangle_signed_areas(seeds, lattice)
    assert np.all(areas > 0)
    assert areas == pytest.approx(math.sqrt(3.0) / 4.0 * h**2, rel=1e-12)
    corners = np.unique(lattice)
    qhull = corners[meshing.Delaunay(seeds[corners]).simplices]
    sides = np.hypot(*(seeds[qhull] - seeds[np.roll(qhull, 1, axis=1)]).T)
    cells = qhull[np.all(np.abs(sides - h) < 1e-9 * h, axis=0)]
    assert np.array_equal(meshing._canonical_order(lattice),
                          meshing._canonical_order(cells))
    twin = meshing._twins(lattice, len(seeds))
    e1 = np.flatnonzero(twin > np.arange(len(twin)))
    a, b = lattice.ravel()[e1], lattice.ravel()[twin[e1]]
    c = lattice[e1 // 3, (e1 % 3 + 2) % 3]
    d = lattice[twin[e1] // 3, (twin[e1] % 3 + 2) % 3]
    det, perm = incircle_reference(seeds, a, b, c, d)
    assert len(e1) > len(lattice) and np.all(det < -meshing.FLIP_TIE_RTOL * perm)


def record_calls(patch, name):
    """Wrap `meshing.<name>` to record the first argument and the result of
    every call; returns the record, a list of (argument, result)."""
    fn, calls = getattr(meshing, name), []

    def wrapped(*args):
        calls.append((args[0], fn(*args)))
        return calls[-1][1]

    patch.setattr(meshing, name, wrapped)
    return calls


def count_calls(patch, *names):
    """Wrap each `meshing.<name>` to count its calls; returns the counts."""
    calls = dict.fromkeys(names, 0)

    def counted(key):
        fn = getattr(meshing, key)

        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    for key in names:
        patch.setattr(meshing, key, counted(key))
    return calls


BUILD_CASES = {
    **{f"{name}-h{h}": (spec, h) for name, spec in golden.TABLE1_DOMAINS.items()
       for h in (0.25, 0.125, 0.0625)},
    "ellipse-1.9-0": (DomainSpec(golden.ELLIPSE_OUTER, (1.9, 0.0), 1.0), 0.125),
    "rectangle-off-centre": SCREEN_CASES["rectangle-off-centre"],
}


@pytest.mark.parametrize("name", BUILD_CASES)
def test_lattice_start_settles_like_qhull_on_every_point(monkeypatch, name):
    # the build from the lattice and Qhull on the band gives the triangles
    # of the build from Qhull on every point (up to their order and
    # rotation; the raw triangulations can take different diagonals of a
    # tie, which the build's flip pass settles), and each build carries its
    # own twins.  Qhull sees only the band, and every kept triangle off
    # Qhull's list, a lattice triangle, has a corner off the band: one
    # whose corners are all band points would double a Qhull triangle or,
    # across a tie, overlap one
    spec, h = BUILD_CASES[name]
    pts, n_fixed, lattice = seeded_cloud(spec, h)
    qhull = record_calls(monkeypatch, "Delaunay")
    want, got = builds = [meshing._build(spec, h, pts),
                          meshing._build(spec, h, pts, lattice)]
    seen = [len(points) for points, _ in qhull]
    assert len(seen) == 2 and 2 * seen[1] < seen[0] == len(pts)
    for tri, twin in builds:
        assert np.array_equal(twin, meshing._twins(tri, len(pts)))
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(meshing._canonical_order(got[0]),
                          meshing._canonical_order(want[0]))

    tri = meshing._lattice_start(pts, lattice)
    points, band_qhull = qhull[2]
    z = pts.view(complex).ravel()
    band = np.flatnonzero(np.isin(z, points.view(complex).ravel()))
    assert len(band) == len(points)
    assert len(np.unique(np.sort(tri, axis=1), axis=0)) == len(tri)
    from_qhull = np.isin(
        triangle_keys(np.sort(tri, axis=1), len(pts)),
        triangle_keys(np.sort(band[band_qhull.simplices], axis=1), len(pts)))
    assert np.all(~np.isin(tri[~from_qhull], band).all(axis=1))


def test_lattice_start_rejects_the_lattice_triangles_around_a_seed(monkeypatch):
    # a seed 0.8 circumradii from a lattice triangle's centre, past the
    # middle of one side, lies inside that triangle's circumcircle and its
    # neighbour's: the query rejects both, and the build still takes the
    # lattice start and gives the triangles of Qhull on every point
    spec, h = golden.TABLE1_DOMAINS["rectangle"], 0.25
    pts, n_fixed, lattice = seeded_cloud(spec, h)
    corners = pts[lattice]
    centre = corners.mean(axis=1)
    t = np.argmin(np.hypot(*(centre - [3.0, 1.5]).T))
    side = 0.5 * (corners[t, 0] + corners[t, 1])
    pts = np.vstack([pts, centre[t] + 1.6 * (side - centre[t])])
    qhull = record_calls(monkeypatch, "Delaunay")
    got = meshing._build(spec, h, pts, lattice)
    want = meshing._build(spec, h, pts)
    seen = [len(points) for points, _ in qhull]
    assert len(seen) == 2 and seen[0] < seen[1] == len(pts)
    assert np.array_equal(meshing._canonical_order(got[0]),
                          meshing._canonical_order(want[0]))


def triangle_keys(rows, n):
    """One int64 key per row-sorted triangle over n points."""
    return (rows[:, 0].astype(np.int64) * n + rows[:, 1]) * n + rows[:, 2]


class FarTree:
    """A `cKDTree` whose every query finds nothing: every lattice triangle
    is accepted and no Qhull triangle holds an inner point."""

    def __init__(self, points):
        pass

    def query(self, x, **kwargs):
        return np.full(len(x), np.inf), np.zeros(len(x), int)


def test_lattice_start_falls_back_when_its_triangles_do_not_tile_the_hull(
    monkeypatch,
):
    # misjudged queries keep overlapping triangles; the area check sends
    # the settle to Qhull on every point, and the mesh is the same
    spec, h = golden.TABLE1_DOMAINS["ellipse"], 0.25
    mesh = triangulate(spec, h)
    qhull = record_calls(monkeypatch, "Delaunay")
    starts = record_calls(monkeypatch, "_lattice_start")
    monkeypatch.setattr(meshing, "cKDTree", FarTree)
    fallback = triangulate(spec, h)
    assert [tri for _, tri in starts] == [None]
    seen = [len(points) for points, _ in qhull]
    assert seen[0] < seen[1] == len(seeded_cloud(spec, h)[0])
    assert_same_mesh(fallback, mesh)


def test_lattice_start_settles_like_qhull_when_the_standoff_projects_a_point(
    monkeypatch,
):
    # a lattice corner moved 0.5% of the way in from a point of the outer
    # boundary (0.1 h inside on the annulus, 0.06 h on the ellipse) falls
    # short of the standoff: the settle of the lattice start projects it
    # back, moves nothing else and repairs its triangles with no new build,
    # to those of the settle from Qhull on every point (up to their order
    # and rotation), each with its own twins.  The repair settles their
    # ties, so a second pass changes nothing
    clouds = []
    for name in ("annulus", "ellipse"):
        spec, h = golden.TABLE1_DOMAINS[name], 0.25
        pts, n_fixed, lattice = seeded_cloud(spec, h)
        corner = lattice[0, 0]
        pts[corner] = 0.995 * pts[0]  # pts[0] lies on the outer boundary
        full = meshing._build(spec, h, pts, lattice)
        clouds.append((spec, h, pts, n_fixed, corner, full))

    builds = record_calls(monkeypatch, "_build")
    for spec, h, pts, n_fixed, corner, full in clouds:
        before, want_pts = pts.copy(), pts.copy()
        got = meshing._settle(spec, h, pts, np.arange(n_fixed, len(pts)), full)
        assert builds == []
        want = settle_from_qhull(spec, h, want_pts, n_fixed)
        builds.clear()
        moved = np.flatnonzero(np.any(pts != before, axis=1))
        assert np.array_equal(moved, [corner])
        assert np.array_equal(pts, want_pts) and np.array_equal(got[0], want[0])
        for (tri, twin) in (got[1], want[1]):
            assert np.array_equal(twin, meshing._twins(tri, len(pts)))
        assert np.array_equal(meshing._canonical_order(got[1][0]),
                              meshing._canonical_order(want[1][0]))
        again = meshing._flip_to_delaunay(pts, *got[1])
        assert np.array_equal(again[0], got[1][0])
    # Qhull's triangulation of the ellipse's points takes some ties the
    # other way: `_build` keeps it when its flip pass fails
    monkeypatch.setattr(meshing, "_flip_to_delaunay",
                        lambda pts, tri, twin, start=None: None)
    qhull = meshing._build(spec, h, pts)[0]
    assert not np.array_equal(meshing._canonical_order(qhull),
                              meshing._canonical_order(got[1][0]))


def test_settle_rebuilds_when_the_repair_fails(monkeypatch):
    # a seed moved halfway past the far side of one of its triangles, deep
    # in the annulus, inverts that triangle and keeps the standoff: the
    # repair gives up, and the settle is the one from Qhull on every point
    spec, h = golden.TABLE1_DOMAINS["annulus"], 0.25
    pts, n_fixed, lattice = seeded_cloud(spec, h)
    full = meshing._build(spec, h, pts, lattice)
    tri = full[0]
    deep = region_signed_distance(spec, pts[tri].mean(axis=1)) < -2.0 * h
    t = tri[np.flatnonzero(deep & (tri.min(axis=1) >= n_fixed))[0]]
    mid = pts[t[1:]].mean(axis=0)
    moved = pts.copy()
    moved[t[0]] = mid + 0.5 * (mid - pts[t[0]])
    assert meshing._flip_to_delaunay(moved, *full) is None
    builds = record_calls(monkeypatch, "_build")
    got_pts = moved.copy()
    got = meshing._settle(spec, h, got_pts, np.arange(n_fixed, len(pts)), full)
    assert len(builds) == 1 and np.array_equal(got_pts, moved)
    want = settle_from_qhull(spec, h, moved, n_fixed)
    for a, b in zip((got[0], *got[1]), (want[0], *want[1])):
        assert np.array_equal(a, b)


def test_build_raises_without_interior_triangles():
    # the hole polyline alone: every Qhull triangle lies in the hole
    spec, h = golden.TABLE1_DOMAINS["annulus"], 0.25
    hole = boundary_polylines(spec, h)[1]
    with pytest.raises(MeshError, match="no interior triangles"):
        meshing._build(spec, h, hole)


@pytest.mark.parametrize("name", sorted(golden.TABLE1_DOMAINS))
def test_final_settle_builds_no_bars(monkeypatch, name):
    # one build and one flip pass in it (which settles the build's ties)
    # and in each settle, and bars and their sizes from the build and every
    # settle but the last, while `validate_mesh` dedupes the mesh's edges
    # once more.  `size_field` also runs at the points of every settle and
    # once on the coarse seed grid; these domains are not graded, so
    # seeding probes no finer grid
    calls = count_calls(monkeypatch, "_settle", "size_field", "_build",
                        "_flip_to_delaunay", "_unique_edges")
    triangulate(golden.TABLE1_DOMAINS[name], 0.25)
    assert calls["_settle"] > 1 and calls["_build"] == 1
    assert (calls["_flip_to_delaunay"] == calls["_unique_edges"]
            == calls["_settle"] + 1)
    assert calls["size_field"] == 2 * calls["_settle"] + 1


@pytest.mark.parametrize("name", sorted(golden.TABLE1_DOMAINS))
def test_settles_keep_qhulls_triangles_when_every_flip_pass_fails(
    monkeypatch, name
):
    # the first build's pass fails on the lattice start, so Qhull runs on
    # every point; each settle's pass fails on the previous triangles, and
    # again on `_build`'s, so Qhull runs once more per settle and its
    # triangles stand: the mesh still validates
    monkeypatch.setattr(meshing, "_flip_to_delaunay",
                        lambda pts, tri, twin, start=None: None)
    calls = count_calls(monkeypatch, "_settle", "Delaunay")
    validate_mesh(triangulate(golden.TABLE1_DOMAINS[name], 0.25))
    assert calls["_settle"] > 1
    assert calls["Delaunay"] == calls["_settle"] + 2  # + the band's


# the table-1 domains and the thin-gap centres of golden tables 2 and 3
BAND_CASES = {
    **{name: (spec, 0.25) for name, spec in golden.TABLE1_DOMAINS.items()},
    "ellipse-1.9-0": (DomainSpec(golden.ELLIPSE_OUTER, (1.9, 0.0), 1.0), 0.25),
    "ellipse-0-6.5": (DomainSpec(golden.ELLIPSE_OUTER, (0.0, 6.5), 1.0), 0.25),
}


@pytest.mark.parametrize("name", BAND_CASES)
def test_frozen_points_leave_triangulate_at_their_seeds(name):
    # seeding leaves the seeds deeper than FREEZE_DEPTH*h out of the live
    # points, and nothing moves them: each is a mesh vertex, bit for bit
    spec, h = BAND_CASES[name]
    seeds, _, live, _ = meshing._seed_points(spec, h)
    seeds = np.delete(seeds, live, axis=0)
    mesh = triangulate(spec, h)
    assert 0.1 * mesh.vertex_count < len(seeds)
    depth = -region_signed_distance(spec, seeds)
    assert np.all(depth > meshing.FREEZE_DEPTH * h)
    assert np.all(np.isin(seeds.view(complex), mesh.vertices.view(complex)))


def assert_delaunay_everywhere(mesh):
    """One `_flip_to_delaunay` pass from every edge of the mesh flips
    nothing."""
    tri = mesh.triangles
    got = meshing._flip_to_delaunay(mesh.vertices, tri,
                                    meshing._twins(tri, mesh.vertex_count))
    assert got is not None and np.array_equal(got[0], tri)


@pytest.mark.parametrize("name", BAND_CASES)
def test_meshes_are_delaunay_across_the_frozen_points(name):
    # the build's pass settles every edge, ties too; the settles' passes
    # start from the triangles with a live corner, and no other point
    # moves, so no edge among those fails afterwards
    assert_delaunay_everywhere(triangulate(*BAND_CASES[name]))


@pytest.mark.parametrize("name", BAND_CASES)
def test_band_pass_flips_like_a_full_pass_at_every_loop_settle(
    monkeypatch, name
):
    # a pass that starts from the triangles with a live corner, a small
    # share of them, gives the triangles and twins of a pass from every edge
    spec, h = BAND_CASES[name]
    flip, shares = meshing._flip_to_delaunay, []

    def compared(pts, tri, twin, start=None):
        got = flip(pts, tri, twin, start)
        if start is not None:
            want = flip(pts, tri, twin)
            assert got is not None and want is not None
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            shares.append(np.count_nonzero(start) / len(tri))
        return got

    monkeypatch.setattr(meshing, "_flip_to_delaunay", compared)
    calls = count_calls(monkeypatch, "_settle", "_build")
    triangulate(spec, h)
    # every settle but those whose repair failed, each of which calls
    # `_build` once more than the first build
    assert len(shares) == calls["_settle"] - (calls["_build"] - 1) > 1
    assert max(shares) < 0.9


@pytest.mark.parametrize("name", [*sorted(golden.TABLE1_DOMAINS), "ellipse-0-6.5"])
def test_a_tighter_settle_tolerance_moves_no_eigenvalue_past_the_drift_bound(
    monkeypatch, name
):
    # TTOL is the largest settle tolerance whose eigenvalues stay within
    # 2e-5 relative of those at DistMesh's 0.1, which settles more often
    spec, h = BAND_CASES[name]
    calls = count_calls(monkeypatch, "_settle")
    got = four_eigenvalues(triangulate(spec, h))
    settles = calls["_settle"]
    monkeypatch.setattr(meshing, "TTOL", 0.1)
    want = four_eigenvalues(triangulate(spec, h))
    assert calls["_settle"] - settles > settles
    for q, value in got.items():
        assert value == pytest.approx(want[q], rel=2e-5, abs=0.0), q


@pytest.mark.parametrize("name", sorted(golden.TABLE1_DOMAINS))
def test_a_tighter_relaxation_tolerance_moves_no_eigenvalue_past_the_gate(
    monkeypatch, name
):
    # PTOL is the largest tolerance whose eigenvalues stay within 1e-4
    # relative, the drift gate EIG_DRIFT_TOL of perfbench/workloads.py, of
    # those at a quarter of it (the DistMesh-scale default it replaced)
    spec, h = golden.TABLE1_DOMAINS[name], 0.25
    got = four_eigenvalues(triangulate(spec, h))
    monkeypatch.setattr(meshing, "PTOL", meshing.PTOL / 4)
    want = four_eigenvalues(triangulate(spec, h))
    assert got != want
    for q, value in got.items():
        assert value == pytest.approx(want[q], rel=1e-4, abs=0.0), q


def spec_at_clearance(outer, radius, angle, clearance):
    """The spec whose hole of the given radius sits on the ray at `angle`
    from the origin with a clearance of at least `clearance`, equal to it
    up to rounding, by bisection: the distance to a convex boundary
    symmetric about the origin does not grow along such a ray."""
    direction = math.cos(angle), math.sin(angle)

    def gap(t):
        return -outer.signed_distance(t * direction[0], t * direction[1]) - radius

    lo, hi = 0.0, max(outer.half_extents)  # gap(hi) < 0 < clearance
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) >= clearance else (lo, mid)
    return DomainSpec(outer, (lo * direction[0], lo * direction[1]), radius)


@st.composite
def admissible_specs(draw, h):
    """Any outer shape, any hole direction and a clearance anywhere from
    h/10 (the least that `triangulate` accepts) to that of the centred
    hole.  Hole radii start at 0.65: at h = 0.5 a radius below about 0.6
    leaves the hole polyline fewer than 8 segments, which `triangulate`
    rejects."""
    u, v = draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    outer = {
        "disk": Disk(2.5 + 3.5 * u),
        "ellipse": Ellipse(2.0 + 2.5 * u, 3.0 + 5.5 * v),
        "rectangle": Rectangle(4.0 + 9.0 * u, 3.5 + 4.5 * v),
    }[draw(st.sampled_from(sorted(domains.SHAPES)))]
    radius = draw(st.floats(0.65, 1.5))
    centred = DomainSpec(outer, (0.0, 0.0), radius).clearance
    reach = draw(st.floats(0.0, 1.0))
    return spec_at_clearance(
        outer, radius, draw(st.floats(0.0, 2.0 * math.pi)),
        h / 10.0 + reach * (centred - h / 10.0),
    )


def standoff_record(spec, h):
    """`triangulate(spec, h)`, the least depth inside the region over the
    live points after each force step, in units of the size field at the
    seeds or the most recent settle (the frozen points do not move), and
    a mask of the steps that a settle follows."""
    seed_points, settle = meshing._seed_points, meshing._settle
    force_step = meshing._force_step
    fh, depths, settled_after = [], [], []

    def seeded(spec, h):
        result = seed_points(spec, h)
        fh[:] = [result[3]]  # at the live seeds, which the force step moves
        return result

    def settled(spec, h, pts, live, full):
        result = settle(spec, h, pts, live, full)
        fh[:] = [result[0]]  # at the live points
        settled_after.append(len(depths) - 1)
        return result

    def stepped(z, ends, D, h_want, h_sq, n_fixed):
        z, step = force_step(z, ends, D, h_want, h_sq, n_fixed)
        free = z.view(float).reshape(-1, 2)[n_fixed:]
        depths.append(np.min(-region_signed_distance(spec, free) / fh[0]))
        return z, step

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(meshing, "_seed_points", seeded)
        patch.setattr(meshing, "_settle", settled)
        patch.setattr(meshing, "_force_step", stepped)
        mesh = triangulate(spec, h)
    assert len(depths) > 1
    return mesh, np.array(depths), np.isin(np.arange(len(depths)), settled_after)


def mesh_and_least_standoff(spec, h):
    """`triangulate(spec, h)`, and the least depth inside the region over
    the live points after every force step (see `standoff_record`)."""
    mesh, depths, _ = standoff_record(spec, h)
    return mesh, depths.min()


@pytest.mark.parametrize("name", BAND_CASES)
def test_interior_points_keep_the_standoff_between_settles(name):
    # each settle projects the live points within ESCAPE_FRACTION*fh of
    # the boundary onto that standoff, and a settle follows every force
    # step that takes a live point more than TTOL*fh from where the last
    # settle left it; on these domains the live points keep
    # (ESCAPE_FRACTION - TTOL)*fh after the steps a settle follows too,
    # which not every domain does (see the next test); the thin-gap centres
    # grade the size field
    _, depth = mesh_and_least_standoff(*BAND_CASES[name])
    assert depth >= ESCAPE_FRACTION - meshing.TTOL


# the cases of tools/mesh_identity.py whose settles project points
PROJECTING_CASES = {
    "random-ellipse-14-h0.5": (DomainSpec(
        Ellipse(2.2674402018276676, 5.624828233629676),
        (-0.6624341007303451, -0.1946334039284734), 1.4661838539964944), 0.5),
    "random-rectangle-18-h0.25": (DomainSpec(
        Rectangle(4.654956482465018, 3.7514329476665806),
        (-0.42183084852762165, -0.4798924302160843), 1.3192858909787075), 0.25),
    "random-rectangle-21-h0.5": (DomainSpec(
        Rectangle(8.22498454967047, 3.8494805842984725),
        (-0.7938358927772762, -0.29915286145537623), 1.457406252339013), 0.5),
}


@pytest.mark.parametrize("name", PROJECTING_CASES)
def test_live_points_keep_the_standoff_after_every_step_no_settle_follows(name):
    # after a step that no settle follows, every live point lies within
    # TTOL*fh of where the last settle left it, at least ESCAPE_FRACTION*fh
    # inside, so (ESCAPE_FRACTION - TTOL)*fh inside; the step that a settle
    # follows can go further (to 0.0966*fh on random-rectangle-21), and the
    # settle projects the point back.  No point leaves after seeding: the
    # mesh has every seed, in seeding's order, the frozen ones where
    # seeding put them, and a smallest angle of at least 25 degrees
    spec, h = PROJECTING_CASES[name]
    mesh, depths, settled_after = standoff_record(spec, h)
    floor = ESCAPE_FRACTION - meshing.TTOL
    assert np.all(depths[~settled_after] >= floor)
    if name == "random-rectangle-21-h0.5":
        assert np.min(depths[settled_after]) < floor
    seeds, _, live, _ = meshing._seed_points(spec, h)
    n_fixed = len(mesh.boundary_edges)
    assert mesh.vertex_count == n_fixed + len(seeds)
    assert np.array_equal(np.delete(mesh.vertices[n_fixed:], live, axis=0),
                          np.delete(seeds, live, axis=0))
    validate_mesh(mesh)
    assert mesh_min_angle(mesh) >= 25.0


def test_projection_that_does_not_converge_raises(monkeypatch):
    # random-rectangle-18's size field grows inward where it projects, so
    # the first step leaves its points a little short
    spec, h = PROJECTING_CASES["random-rectangle-18-h0.25"]
    monkeypatch.setattr(meshing, "MAX_PROJECT_STEPS", 1)
    with pytest.raises(MeshError, match="projection did not converge in 1 steps"):
        triangulate(spec, h)
    monkeypatch.setattr(meshing, "MAX_PROJECT_STEPS", 2)
    validate_mesh(triangulate(spec, h))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(spec=admissible_specs(0.5), h=st.sampled_from([0.5, 0.25]),
       seed=st.integers(0, 2**32 - 1))
def test_settle_projects_every_live_point_onto_the_standoff(spec, h, seed):
    # half the live seeds within 1.5 fh of the boundary, each moved outward
    # along the distance's normal by up to 0.4 times its size (so some of
    # them short of the standoff), with the triangles of the seeds, as a
    # settle gets them after force steps.  The settle moves only the points
    # short of the standoff, each until it meets the standoff at the size
    # it returns; the fixed and frozen points, and the others, stay bit for
    # bit, and the triangles are positive, cover the polygonal region and
    # are Delaunay
    outer, inner = boundary_polylines(spec, h)
    seeds, _, live, _ = meshing._seed_points(spec, h)
    n_fixed = len(outer) + len(inner)
    pts, live = np.vstack([outer, inner, seeds]), live + n_fixed
    full = meshing._build(spec, h, pts)
    rng = np.random.default_rng(seed)
    sd, fh = region_signed_distance(spec, pts[live]), size_field(spec, h, pts[live])
    pick = (sd > -1.5 * fh) & (rng.random(len(live)) < 0.5)
    p, sd, fh = pts[live[pick]], sd[pick], fh[pick]
    e = 1e-6 * h * np.eye(2)
    normal = np.column_stack([region_signed_distance(spec, p + e[k])
                              - region_signed_distance(spec, p - e[k])
                              for k in (0, 1)])
    normal /= np.hypot(*normal.T)[:, None]
    pts[live[pick]] = p + (rng.uniform(0.0, 0.4, len(p)) * fh)[:, None] * normal
    before = pts.copy()
    short = (region_signed_distance(spec, before[live])
             > -ESCAPE_FRACTION * size_field(spec, h, before[live]))
    fh, (tri, twin) = meshing._settle(spec, h, pts, live, full)
    moved = np.flatnonzero(np.any(pts != before, axis=1))
    assert np.array_equal(moved, live[short])
    assert np.all(region_signed_distance(spec, pts[live]) <= -ESCAPE_FRACTION * fh)
    assert np.array_equal(fh, size_field(spec, h, pts[live]))
    areas = meshing._triangle_signed_areas(pts, tri)
    assert np.all(areas > 0)
    area = polygon_area(outer) + polygon_area(inner)  # inner is clockwise
    assert np.sum(areas) == pytest.approx(area, rel=1e-12)
    assert np.array_equal(np.unique(tri), np.arange(len(pts)))
    assert np.array_equal(twin, meshing._twins(tri, len(pts)))
    again = meshing._flip_to_delaunay(pts, tri, twin)
    assert again is not None and np.array_equal(again[0], tri)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(spec=admissible_specs(0.5),
       scale=st.sampled_from([0.5, 1.0 - 2e-16, 1.0, 1.0 + 2e-16, 2.0]),
       seed=st.integers(0, 2**32 - 1))
def test_size_field_equals_the_grading_formula_in_the_bounding_box(
    spec, scale, seed
):
    # h near GRADE_FRACTION*clearance, where the clearance rule is closest
    # to deciding wrongly, at random points of a box a little larger than
    # the shape's: in the hole, in the region and outside the shape
    h = domains.GRADE_FRACTION * spec.clearance * scale
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.1, 1.1, (2000, 2)) * spec.outer.half_extents
    assert np.any(hole_signed_distance(spec, pts) < 0)
    assert np.any(outer_signed_distance(spec.outer, pts) > 0)
    assert np.array_equal(size_field(spec, h, pts), graded_size(spec, h, pts))


@settings(max_examples=9, derandomize=True, database=None, deadline=None)
@given(spec=admissible_specs(0.5))
def test_random_admissible_geometry_meshes_and_solves(spec):
    # the mesh is valid and Delaunay, the interior points keep the standoff
    # between settles, each mixed eigenvalue is at least the Steklov one
    # (its quotient integrates over less boundary), and the flip repair
    # gives the mesh of Qhull at every settle, bit for bit
    h = 0.5
    assert spec.clearance >= h / 10.0
    mesh, depth = mesh_and_least_standoff(spec, h)
    validate_mesh(mesh)
    assert_delaunay_everywhere(mesh)
    assert depth >= ESCAPE_FRACTION - meshing.TTOL
    got = four_eigenvalues(mesh)
    assert got["mu1"] >= got["sigma1"] and got["mu2"] >= got["sigma2"]
    with pytest.MonkeyPatch.context() as patch:
        qhull_at_every_settle(patch)
        assert_same_mesh(mesh, triangulate(spec, h))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(spec=admissible_specs(0.5), h=st.sampled_from([0.5, 0.25]))
def test_seeds_keep_the_standoff_and_seeding_picks_the_live_ones(spec, h):
    # seeds lie SEED_MARGIN*fh inside the region, past the standoff
    # ESCAPE_FRACTION*fh, by the same per-point measures, and the live
    # seeds and their sizes are those that these measures and FREEZE_DEPTH
    # give at the returned seeds, bit for bit
    seeds, _, live, live_fh = meshing._seed_points(spec, h)
    sd, fh = region_signed_distance(spec, seeds), size_field(spec, h, seeds)
    assert np.all(sd < -meshing.SEED_MARGIN * fh)
    assert np.all(sd <= -ESCAPE_FRACTION * fh)  # the settle's standoff test
    want = np.flatnonzero(sd >= -meshing.FREEZE_DEPTH * h)
    assert live.dtype == want.dtype and np.array_equal(live, want)
    assert live_fh.dtype == fh.dtype and np.array_equal(live_fh, fh[want])


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(spec=admissible_specs(0.5), h=st.sampled_from([0.5, 0.25]))
@example(spec=DomainSpec(Ellipse(3.9, 7.4), (-0.9, -5.6), 1.25), h=0.25)
@example(spec=DomainSpec(Rectangle(10.5, 4.9), (0.02, -0.08), 1.33), h=0.5)
@example(spec=DomainSpec(Disk(2.5), (0.0, 0.0), 1.0), h=0.5)  # no lattice triangle
def test_random_admissible_geometry_lattice_start_meshes_like_qhull(spec, h):
    # the relaxation started from the lattice and Qhull on the band ends on
    # the mesh of the one started from Qhull on every point, bit for bit,
    # with no fallback.  In a thin ring no lattice point is inner, and the
    # band is the whole cloud
    with pytest.MonkeyPatch.context() as patch:
        starts = record_calls(patch, "_lattice_start")
        mesh = triangulate(spec, h)
        patch.setattr(meshing, "_lattice_start", lambda pts, lattice: None)
        want = triangulate(spec, h)
    assert_same_mesh(mesh, want)
    assert len(starts) == 1 and starts[0][1] is not None


@settings(max_examples=9, derandomize=True, database=None, deadline=None)
@given(
    spec=admissible_specs(0.5),
    factor=st.sampled_from([0.5, 2.0]),
    mirror=st.sampled_from([(1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]),
)
def test_random_admissible_geometry_scales_and_mirrors(spec, factor, mirror):
    # eigenvalues scale like 1/length.  A power-of-two factor on the domain
    # and on h scales every mesh coordinate exactly, so the four values
    # move by solver rounding only (a factor of 3 is not exact in binary).
    # Every outer shape is symmetric about both axes, so mirroring the hole
    # centre gives a congruent domain on a different mesh: the values move
    # by the discretization error only.
    h = 0.5
    got = four_eigenvalues(triangulate(spec, h))
    outer = replace(spec.outer, **{
        f.name: factor * getattr(spec.outer, f.name)
        for f in fields(spec.outer)})
    scaled = DomainSpec(outer, tuple(factor * c for c in spec.hole_center),
                        factor * spec.hole_radius)
    mirrored = replace(spec, hole_center=tuple(
        m * c for m, c in zip(mirror, spec.hole_center)))
    want_scaled = four_eigenvalues(triangulate(scaled, factor * h))
    want_mirrored = four_eigenvalues(triangulate(mirrored, h))
    for q, value in got.items():
        assert factor * want_scaled[q] == pytest.approx(
            value, rel=1e-12, abs=0.0), q
        assert want_mirrored[q] == pytest.approx(value, rel=5e-3, abs=0.0), q


def test_relaxation_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(meshing, "MAX_ITER", 5)
    with pytest.raises(MeshError, match="did not converge in 5 iterations"):
        triangulate(annulus_spec(), 0.5)


def test_degenerate_gap_raises():
    spec = DomainSpec(Disk(5.0), (3.95, 0.0), 1.0)  # clearance 0.05
    with pytest.raises(MeshError, match="degenerate"):
        triangulate(spec, 0.6)
    # still meshable once h resolves the gap
    mesh = triangulate(spec, 0.4)
    validate_mesh(mesh)


def test_validate_rejects_flipped_triangle():
    mesh = hand_ring_mesh()
    mesh.triangles[0] = mesh.triangles[0][[0, 2, 1]]
    with pytest.raises(MeshError, match="counterclockwise"):
        validate_mesh(mesh)


def test_validate_rejects_bad_tags():
    """An outer count that does not split the boundary into its two loops,
    outer first."""
    mesh = hand_ring_mesh()
    mesh.n_outer = 16  # every edge counted as outer
    with pytest.raises(MeshError, match="fewer than 3"):
        validate_mesh(mesh)
    mesh = hand_ring_mesh()
    mesh.n_outer = 7  # the last outer-loop edge counted with the hole
    with pytest.raises(MeshError, match="closed chain"):
        validate_mesh(mesh)
    mesh = hand_ring_mesh()
    edges = mesh.boundary_edges
    mesh.boundary_edges = np.vstack([edges[8:], edges[:8]])  # inside-out
    with pytest.raises(MeshError, match="enclos"):
        validate_mesh(mesh)


@pytest.mark.parametrize("field,value", [
    ("boundary_edges", lambda e: e.ravel()),  # numpy raised AxisError
    ("boundary_edges", lambda e: e.astype(float)),  # IndexError
    ("n_outer", lambda n: 8.0),  # TypeError
    ("n_outer", lambda n: 8.5),  # TypeError
    ("triangles", lambda t: t.astype(float)),  # IndexError
    ("vertices", lambda v: v.astype(complex)),  # TypeError from np.hypot
])
def test_validate_rejects_malformed_boundary(field, value):
    mesh = hand_ring_mesh()
    mesh = replace(mesh, **{field: value(getattr(mesh, field))})
    kind = "float" if field == "vertices" else "integer"
    with pytest.raises(MeshError, match=f"{field} must be .*{kind}"):
        validate_mesh(mesh)


def test_validate_rejects_missing_boundary_edge():
    mesh = hand_ring_mesh()
    mesh.boundary_edges = mesh.boundary_edges[1:]
    mesh.n_outer = 7
    with pytest.raises(MeshError, match="does not match"):
        validate_mesh(mesh)
    # same edge count, but one outer edge swapped for a chord of the octagon
    mesh = hand_ring_mesh()
    mesh.boundary_edges[0] = [0, 2]
    with pytest.raises(MeshError, match="does not match"):
        validate_mesh(mesh)


def test_validate_rejects_bad_indices_and_unused_vertices():
    mesh = hand_ring_mesh()
    for bad in (16, -1):
        mesh.triangles[0, 0] = bad
        with pytest.raises(MeshError, match="index out of range"):
            validate_mesh(mesh)
    mesh = hand_ring_mesh()
    mesh.vertices = np.vstack([mesh.vertices, [[0.0, 0.0]]])
    with pytest.raises(MeshError, match="vertices not used by any triangle"):
        validate_mesh(mesh)


def test_validate_rejects_a_non_manifold_edge():
    # a second copy of a triangle puts its inner edge on three triangles
    mesh = hand_ring_mesh()
    mesh.triangles = np.vstack([mesh.triangles, mesh.triangles[:1]])
    with pytest.raises(MeshError, match="non-manifold edge"):
        validate_mesh(mesh)


def test_validate_rejects_a_boundary_pinched_at_a_vertex():
    # two triangles meeting at vertex 0 only: it joins four boundary edges
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                         [0.0, -1.0]])
    triangles = np.array([[0, 1, 2], [0, 3, 4]])
    edges = np.array([[0, 1], [1, 2], [2, 0], [0, 3], [3, 4], [4, 0]])
    mesh = Mesh(vertices, triangles, edges, n_outer=3, h=1.0)
    with pytest.raises(MeshError, match="do not form closed loops"):
        validate_mesh(mesh)


def test_validate_rejects_disk_topology():
    # two triangles filling a square: Euler characteristic 1, not 0
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    mesh = Mesh(vertices, triangles, edges, n_outer=2, h=1.0)
    with pytest.raises(MeshError):
        validate_mesh(mesh)
    # two disjoint triangles: two boundary loops, Euler characteristic 2
    vertices = np.vstack([vertices[:3] * 4.0, vertices[:3] + 5.0])
    triangles = np.array([[0, 1, 2], [3, 4, 5]])
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
    mesh = Mesh(vertices, triangles, edges, n_outer=3, h=1.0)
    with pytest.raises(MeshError, match="Euler"):
        validate_mesh(mesh)


def test_validate_rejects_sliver_angles(monkeypatch):
    mesh = hand_ring_mesh()
    # drag one interior-free octagon vertex nearly onto its neighbor
    mesh.vertices[1] = mesh.vertices[0] + np.array([1e-3, 1e-3])
    with pytest.raises(MeshError, match=f"below {meshing.MIN_ANGLE_DEG:g} deg"):
        validate_mesh(mesh)
    # the message names the bound the check reads (the ring's angles ~45-67)
    monkeypatch.setattr(meshing, "MIN_ANGLE_DEG", 50.0)
    with pytest.raises(MeshError, match="below 50 deg"):
        validate_mesh(hand_ring_mesh())


OFF_CENTRE_HOLES = {
    "disk": DomainSpec(Disk(5.0), (1.5, -1.0), 1.0),
    "ellipse": DomainSpec(golden.ELLIPSE_OUTER, (0.5, 2.5), 1.0),
    "rectangle": DomainSpec(golden.RECT_OUTER, (3.0, 1.0), 1.0),
}


@pytest.fixture(scope="module", params=sorted(OFF_CENTRE_HOLES))
def off_centre_mesh(request):
    return triangulate(OFF_CENTRE_HOLES[request.param], 0.5)


def test_validate_accepts_only_the_true_outer_count(off_centre_mesh):
    mesh = off_centre_mesh
    validate_mesh(mesh)
    for n_outer in range(len(mesh.boundary_edges) + 1):
        if n_outer != mesh.n_outer:
            with pytest.raises(MeshError):
                validate_mesh(replace(mesh, n_outer=n_outer))


def test_validate_rejects_the_hole_loop_listed_first(off_centre_mesh):
    edges, n_outer = off_centre_mesh.boundary_edges, off_centre_mesh.n_outer
    swapped = replace(off_centre_mesh,
                      boundary_edges=np.vstack([edges[n_outer:], edges[:n_outer]]),
                      n_outer=len(edges) - n_outer)
    with pytest.raises(MeshError, match="enclos"):
        validate_mesh(swapped)


@pytest.mark.parametrize("loop", ["outer", "hole"])
def test_validate_accepts_either_loop_direction(off_centre_mesh, loop):
    edges, n_outer = off_centre_mesh.boundary_edges, off_centre_mesh.n_outer
    outer, hole = edges[:n_outer], edges[n_outer:]
    if loop == "outer":
        outer = outer[::-1, ::-1]  # the same chain walked backwards
    else:
        hole = hole[::-1, ::-1]
    validate_mesh(replace(off_centre_mesh, boundary_edges=np.vstack([outer, hole])))


def test_validate_edge_keys_do_not_wrap_on_large_meshes():
    """A square grid annulus of 48 480 vertices with int32 triangles, as
    Qhull returns them: an int32 edge key i*nv + j wraps above 46 341
    vertices."""
    n, lo, hi = 220, 100, 120  # n x n unit cells, the hole [lo, hi]^2
    i, j = (c.ravel() for c in np.meshgrid(range(n), range(n), indexing="ij"))
    keep = ~((lo <= i) & (i < hi) & (lo <= j) & (j < hi))
    i, j = i[keep], j[keep]
    corners = [(i + di) * (n + 1) + j + dj
               for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))]
    triangles = np.vstack([np.column_stack(corners[:3]),
                           np.column_stack([corners[0], corners[2], corners[3]])])
    used = np.unique(triangles)
    remap = np.zeros((n + 1) ** 2, np.int32)
    remap[used] = np.arange(len(used))
    grid = np.stack(np.meshgrid(range(n + 1), range(n + 1), indexing="ij"), -1)

    def loop(a, b):  # the square [a, b]^2 walked counterclockwise
        s = np.arange(a, b)
        x = np.concatenate([s, np.full(b - a, b), s[::-1] + 1, np.full(b - a, a)])
        y = np.concatenate([np.full(b - a, a), s, np.full(b - a, b), s[::-1] + 1])
        ring = remap[x * (n + 1) + y]
        return np.column_stack([ring, np.roll(ring, -1)])

    mesh = Mesh(grid.reshape(-1, 2)[used].astype(float), remap[triangles],
                np.vstack([loop(0, n), loop(lo, hi)]), n_outer=4 * n, h=1.0)
    assert mesh.vertex_count > 46341 and mesh.triangles.dtype == np.int32
    validate_mesh(mesh)
