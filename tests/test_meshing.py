"""Tests for the triangle mesh generator and mesh validation."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import domains, golden, meshing
from steklov.domains import (
    Disk,
    DomainSpec,
    Ellipse,
    Rectangle,
    boundary_polylines,
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


def mesh_area(mesh):
    """Total signed area of the triangulation."""
    areas = meshing._triangle_signed_areas(mesh.vertices, mesh.triangles)
    return float(np.sum(areas))


def annulus_spec(r_outer=5.0, r_hole=1.0):
    return DomainSpec(Disk(r_outer), (0.0, 0.0), r_hole)


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


def test_settle_drops_points_inside_the_standoff():
    spec = annulus_spec()  # size field is h = 0.5 near the outer circle
    outer, inner = boundary_polylines(spec, 0.5)
    fixed = np.vstack([outer, inner])
    band, clear = [4.9, 0.0], [0.0, 4.8]  # 0.2 h and 0.4 h inside
    pts = np.vstack([fixed, [[0.0, 2.5], band, clear]])
    kept, fh, _, simplices, _ = meshing._settle(spec, 0.5, pts, len(fixed))
    bars = meshing._unique_edges(simplices, len(kept))[0]
    assert np.array_equal(kept, np.vstack([fixed, [[0.0, 2.5], clear]]))
    assert np.array_equal(fh, size_field(spec, 0.5, kept))
    assert simplices.max() < len(kept) and bars.max() < len(kept)


@pytest.mark.parametrize(
    "center, h, share",
    [((0.0, 2.5), 0.5, 0.0), ((1.9, 1.9), 0.125, 0.1)],
    ids=["ellipse-y-axis", "thin-gap-ellipse"],
)
def test_settle_evaluates_the_outer_distance_in_full_only_on_the_points(
    monkeypatch, center, h, share
):
    # once on every point (standoff and size field), then only on the
    # centroids and bar midpoints that the convexity screens leave open:
    # none on the ungraded y-axis ellipse, the graded gap's midpoints on
    # the thin-gap one; a screen that leaves nothing open makes no call
    spec = DomainSpec(Ellipse(3.0, 8.33), center, 1.0)
    outer, inner = boundary_polylines(spec, h)
    fixed = np.vstack([outer, inner])
    pts = np.vstack([fixed, meshing._seed_points(spec, h)])
    calls = []
    screened = {"region_signed_distance": 0, "size_field": 0}

    def counted(shape, p):
        calls.append(len(p))
        return outer_signed_distance(shape, p)

    def screen_counter(name, fn):
        def wrapped(*args):
            screened[name] += len(args[-1])
            return fn(*args)

        return wrapped

    monkeypatch.setattr(domains, "outer_signed_distance", counted)
    for name in screened:
        monkeypatch.setattr(meshing, name, screen_counter(name, getattr(meshing, name)))
    kept, _, d_out, simplices, full = meshing._settle(spec, h, pts, len(fixed))
    bars = meshing._unique_edges(simplices, len(kept))[0]
    h_bars = meshing._bar_sizes(spec, h, kept, d_out, bars)
    assert calls[0] == len(pts) and 0 not in calls
    assert sum(calls[1:]) == sum(screened.values())
    assert screened["region_signed_distance"] <= share * len(full[0])
    assert screened["size_field"] <= share * len(bars)
    # every graded bar is evaluated
    assert screened["size_field"] >= np.sum(h_bars < h)


def settle_screens_reference(spec, h, pts, n_fixed):
    """`_settle` on pts, and the kept simplices and bar sizes it should give,
    from the outer distance at every centroid and every midpoint."""
    kept, _, d_out, simplices, (full, _) = meshing._settle(spec, h, pts, n_fixed)
    bars = meshing._unique_edges(simplices, len(kept))[0]
    h_bars = meshing._bar_sizes(spec, h, kept, d_out, bars)
    centroids = kept[full].mean(axis=1)
    want = full[region_signed_distance(spec, centroids) < -meshing.GEPS * h]
    mids = 0.5 * (kept[bars[:, 0]] + kept[bars[:, 1]])
    return (simplices, h_bars), (want, size_field(spec, h, mids))


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
    # on the seeded cloud, on the cloud moved by up to 0.3 h (the standoff
    # drops some points), on the relaxed mesh, and on the boundary with a
    # point 2e-3 h inside each outer edge's midpoint, all fixed so the
    # standoff keeps them: on straight sides their triangles have a vertex
    # mean and a centroid distance of -2e-3 h / 3, which only the exact
    # distance can reject
    spec, h = SCREEN_CASES[name]
    outer, inner = boundary_polylines(spec, h)
    fixed = np.vstack([outer, inner])
    seeds = meshing._seed_points(spec, h)
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
        got, want = settle_screens_reference(spec, h, pts, n_fixed)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        graded |= bool(np.any(want[1] < h))
    if name == "thin-gap-ellipse":
        assert graded
    if isinstance(spec.outer, Rectangle):  # kept at GEPS = 0, dropped at 1e-3
        monkeypatch.setattr(meshing, "GEPS", 0.0)
        assert len(want[0]) < len(meshing._settle(spec, h, pts, n_fixed)[3])


def sorted_edges(triangles):
    """Every triangle side as an (i, j) row with i < j, duplicates kept."""
    edges = np.vstack(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    return np.sort(edges, axis=1)


def test_bars_are_the_sorted_unique_simplex_edges():
    spec = DomainSpec(Ellipse(3.0, 8.33), (1.2, 0.0), 1.0)
    mesh = triangulate(spec, 0.25)
    kept, _, _, simplices, _ = meshing._settle(
        spec, 0.25, mesh.vertices, len(mesh.boundary_edges)
    )
    bars = meshing._unique_edges(simplices, len(kept))[0]
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


def force_step_on_point_array(pts, bars, h_bars, n_fixed):
    """Reference relaxation step on an (n, 2) position array: the same
    floating-point operations as `_force_step`, in the same order."""
    vec = pts[bars[:, 0]] - pts[bars[:, 1]]
    lengths = np.maximum(modulus(vec), 1e-300)
    scale = math.sqrt(np.sum(lengths**2) / np.sum(h_bars**2))
    want = h_bars * meshing.FSCALE * scale
    push = np.maximum(want - lengths, 0.0) / lengths
    force = vec * push[:, None]
    total = np.zeros((len(pts), 2))
    np.add.at(total, bars[:, 0], force)
    np.add.at(total, bars[:, 1], -force)
    total[:n_fixed] = 0.0
    step = meshing.DELTA_T * modulus(total[n_fixed:])
    return pts + meshing.DELTA_T * total, step


def test_force_step_matches_the_point_array_step_bit_for_bit():
    spec = DomainSpec(golden.ELLIPSE_OUTER, (0.0, 2.5), 1.0)
    outer, inner = boundary_polylines(spec, 0.25)
    n_fixed = len(outer) + len(inner)
    pts = np.vstack([outer, inner, meshing._seed_points(spec, 0.25)])
    pts, _, _, simplices, _ = meshing._settle(spec, 0.25, pts, n_fixed)
    bars = meshing._unique_edges(simplices, len(pts))[0]
    h_bars = size_field(spec, 0.25, 0.5 * (pts[bars[:, 0]] + pts[bars[:, 1]]))
    z = pts[:, 0] + 1j * pts[:, 1]
    for _ in range(20):
        pts, want_step = force_step_on_point_array(pts, bars, h_bars, n_fixed)
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


def test_flip_repair_keeps_cocircular_diagonals():
    # every cell of the lattice is a cocircular quad, so no edge is flipped
    grid = np.arange(6.0)
    pts = np.column_stack([np.repeat(grid, 6), np.tile(grid, 6)])
    tri = meshing.Delaunay(pts).simplices
    twin = meshing._twins(tri, len(pts))
    got, got_twin = meshing._flip_to_delaunay(pts, tri, twin)
    assert np.array_equal(got, tri) and np.array_equal(got_twin, twin)


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


@pytest.mark.parametrize("name", MESH_SPECS)
def test_flip_repair_meshes_equal_qhull_meshes(monkeypatch, name):
    # the default mesh calls Qhull once; with MAX_FLIP_ROUNDS = 0 every
    # settle calls it.  Either way the half-edges are paired once per Qhull
    # call.  Ties may pick other diagonals during the relaxation, which
    # moves vertices by rounding only.
    spec, h = MESH_SPECS[name], 0.25
    calls = {"qhull": 0, "settle": 0, "twins": 0}

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(meshing, "Delaunay", counted("qhull", meshing.Delaunay))
    monkeypatch.setattr(meshing, "_settle", counted("settle", meshing._settle))
    monkeypatch.setattr(meshing, "_twins", counted("twins", meshing._twins))
    mesh = triangulate(spec, h)
    assert calls["qhull"] == calls["twins"] == 1 and calls["settle"] > 1
    monkeypatch.setattr(meshing, "MAX_FLIP_ROUNDS", 0)  # always fall back
    calls["qhull"] = calls["settle"] = calls["twins"] = 0
    qhull_mesh = triangulate(spec, h)
    assert calls["qhull"] == calls["twins"] == calls["settle"]
    assert np.array_equal(mesh.triangles, qhull_mesh.triangles)
    if name.startswith("rectangle"):  # no cocircular quad: bit for bit
        assert np.array_equal(mesh.vertices, qhull_mesh.vertices)
    assert np.max(np.abs(mesh.vertices - qhull_mesh.vertices)) <= 1e-10 * h
    want = four_eigenvalues(qhull_mesh)
    for q, value in four_eigenvalues(mesh).items():
        assert value == pytest.approx(want[q], rel=1e-12, abs=0.0), q


@pytest.mark.parametrize("name", sorted(golden.TABLE1_DOMAINS))
def test_qhull_returns_counterclockwise_simplices(name):
    # the settle uses Qhull's 2-D simplices as returned: SciPy documents
    # them as counterclockwise, and every one has positive area here
    spec, h = golden.TABLE1_DOMAINS[name], 0.25
    outer, inner = boundary_polylines(spec, h)
    pts = np.vstack([outer, inner, meshing._seed_points(spec, h)])
    tri = meshing.Delaunay(pts).simplices
    assert np.all(meshing._triangle_signed_areas(pts, tri) > 0)


@pytest.mark.parametrize("name", sorted(golden.TABLE1_DOMAINS))
def test_final_settle_builds_no_bars(monkeypatch, name):
    # bars and their sizes come from every settle but the last, and
    # `validate_mesh` dedupes the mesh's edges once more
    calls = {"_settle": 0, "_bar_sizes": 0, "_unique_edges": 0}

    def counted(key):
        fn = getattr(meshing, key)

        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    for key in calls:
        monkeypatch.setattr(meshing, key, counted(key))
    triangulate(golden.TABLE1_DOMAINS[name], 0.25)
    assert calls["_settle"] > 1
    assert calls["_bar_sizes"] == calls["_settle"] - 1
    assert calls["_unique_edges"] == calls["_bar_sizes"] + 1


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


@settings(max_examples=9, derandomize=True, database=None, deadline=None)
@given(spec=admissible_specs(0.5))
def test_random_admissible_geometry_meshes_and_solves(spec):
    # the mesh is valid, each mixed eigenvalue is at least the Steklov one
    # (its quotient integrates over less boundary), and the flip repair
    # gives the eigenvalues of Qhull at every settle
    h = 0.5
    assert spec.clearance >= h / 10.0
    mesh = triangulate(spec, h)
    validate_mesh(mesh)
    got = four_eigenvalues(mesh)
    assert got["mu1"] >= got["sigma1"] and got["mu2"] >= got["sigma2"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(meshing, "MAX_FLIP_ROUNDS", 0)  # Qhull at every settle
        want = four_eigenvalues(triangulate(spec, h))
    for q, value in got.items():
        assert value == pytest.approx(want[q], rel=1e-9, abs=0.0), q


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
