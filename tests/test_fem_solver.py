"""Tests for the P1 eigenvalue pipeline."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, splu
from test_meshing import hand_ring_mesh

from steklov import cli, fem_solver
from steklov.closed_form import (
    PROBLEMS,
    AnnulusSpec,
    clusters,
    enumerate_spectrum,
    steklov_eigenvalue,
)
from steklov.domains import Disk, DomainSpec, Ellipse, Rectangle
from steklov.experiments import ConvergenceStudy, _richardson, convergence_study
from steklov.fem_solver import (
    CLUSTER_RTOL,
    EigenSolution,
    FemError,
    assemble_boundary_mass,
    assemble_stiffness,
    dtn_schur,
    factor_stiffness,
    ground,
    solve,
    solve_eigs,
    solve_on_mesh,
)
from steklov.golden import TABLE1_DOMAINS
from steklov.meshing import Mesh, triangulate

ANNULUS = DomainSpec(Disk(5.0), (0.0, 0.0), 1.0)
OFF_CENTRE_ELLIPSE = DomainSpec(Ellipse(3.0, 8.33), (0.8, 2.5), 1.0)
PATH_GRAPH = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
# outer shapes by their half-extents (a, b); a disk uses a alone
OUTER_BY_HALF_EXTENTS = {
    "disk": lambda a, b: Disk(a),
    "ellipse": Ellipse,
    "rectangle": lambda a, b: Rectangle(2.0 * a, 2.0 * b),
}


def single_triangle_mesh(vertices):
    return Mesh(
        np.asarray(vertices, dtype=float),
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [1, 2], [2, 0]]),
        n_outer=3,
        h=1.0,
    )


def spectral_vertices(M):
    """Vertices carrying the spectral condition: the nonzero rows of M."""
    return np.flatnonzero(M.diagonal())


def flat_spectrum(problem, count):
    vals = []
    for line in enumerate_spectrum(AnnulusSpec(2, 1.0, 5.0), problem, count):
        vals.extend([line.value] * line.multiplicity)
    return np.array(vals[:count])


@pytest.fixture(scope="module")
def coarse_mesh():
    return triangulate(ANNULUS, 0.5)


@pytest.fixture(scope="module")
def fine_solutions():
    mesh = triangulate(ANNULUS, 0.25)
    return (
        solve_on_mesh(mesh, "steklov", 6, spec=ANNULUS),
        solve_on_mesh(mesh, "steklov_neumann", 6, spec=ANNULUS),
    )


def test_stiffness_reference_triangle():
    mesh = single_triangle_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    K = assemble_stiffness(mesh).toarray()
    want = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K, want, atol=1e-15)


def test_stiffness_kernel_and_psd(coarse_mesh):
    K = assemble_stiffness(coarse_mesh)
    ones = np.ones(coarse_mesh.vertex_count)
    assert np.abs(K @ ones).max() < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(coarse_mesh.vertex_count)
        assert x @ (K @ x) >= -1e-12 * (x @ x)


def test_stiffness_rejects_degenerate_triangle():
    mesh = single_triangle_mesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate"):
        assemble_stiffness(mesh)


def test_boundary_mass_single_edge_block():
    mesh = single_triangle_mesh([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    mesh = Mesh(
        mesh.vertices,
        mesh.triangles,
        np.array([[0, 1]]),
        n_outer=1,
        h=1.0,
    )
    M = assemble_boundary_mass(mesh).toarray()
    assert np.allclose(M[:2, :2], [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)
    assert np.all(M[2] == 0.0) and np.all(M[:, 2] == 0.0)


def test_boundary_mass_total_and_neumann_rows(coarse_mesh):
    ends = coarse_mesh.vertices[coarse_mesh.boundary_edges]
    lengths = np.hypot(*(ends[:, 1] - ends[:, 0]).T)
    inner = np.arange(len(ends)) >= coarse_mesh.n_outer

    both = assemble_boundary_mass(coarse_mesh, "steklov")
    assert both.sum() == pytest.approx(lengths.sum(), rel=1e-13)
    outer_only = assemble_boundary_mass(coarse_mesh, "steklov_neumann")
    assert outer_only.sum() == pytest.approx(lengths[~inner].sum(), rel=1e-13)
    inner_verts = np.unique(coarse_mesh.boundary_edges[inner])
    assert np.abs(outer_only[inner_verts].toarray()).max() == 0.0

    for name in ("inner", "outer", "both"):
        with pytest.raises(ValueError, match="unknown problem"):
            assemble_boundary_mass(coarse_mesh, name)


def test_steklov_vertex_sets(coarse_mesh):
    all_bnd = np.unique(coarse_mesh.boundary_edges)
    outer_bnd = np.unique(coarse_mesh.outer_edges)
    steklov = assemble_boundary_mass(coarse_mesh, "steklov")
    mixed = assemble_boundary_mass(coarse_mesh, "steklov_neumann")
    assert np.array_equal(spectral_vertices(steklov), all_bnd)
    assert np.array_equal(spectral_vertices(mixed), outer_bnd)
    assert len(outer_bnd) < len(all_bnd)


def test_dtn_without_interior_is_plain_stiffness_block():
    mesh = hand_ring_mesh()
    K = assemble_stiffness(mesh)
    b = spectral_vertices(assemble_boundary_mass(mesh, "steklov"))
    assert b.size == mesh.vertex_count
    S = dtn_schur(K, b)
    assert np.allclose(S, K.toarray(), atol=1e-14)


def test_dtn_matches_dense_elimination(coarse_mesh):
    K = assemble_stiffness(coarse_mesh)
    b = spectral_vertices(assemble_boundary_mass(coarse_mesh, "steklov"))
    S = dtn_schur(K, b)
    dense = K.toarray()
    i = np.setdiff1d(np.arange(coarse_mesh.vertex_count), b)
    manual = dense[np.ix_(b, b)] - dense[np.ix_(b, i)] @ np.linalg.solve(
        dense[np.ix_(i, i)], dense[np.ix_(i, b)]
    )
    assert np.allclose(S, manual, atol=1e-10)
    assert np.abs(S @ np.ones(b.size)).max() < 1e-9
    assert np.allclose(S, S.T, atol=0.0)


def test_solve_eigs_path_graph():
    # Laplacian of the path 0-1-2 has eigenvalues 0, 1, 3
    sol = solve_eigs(PATH_GRAPH, np.eye(3), 2)
    assert np.allclose(sol.eigenvalues, [0.0, 1.0], atol=1e-12)
    v0, v1 = sol.eigenvectors.T
    assert np.ptp(v0) < 1e-12
    assert np.allclose(np.abs(v1), [2.0**-0.5, 0.0, 2.0**-0.5], atol=1e-12)


def test_solve_eigs_input_validation(monkeypatch, coarse_mesh):
    with pytest.raises(ValueError, match="k must be"):
        solve_eigs(PATH_GRAPH, np.eye(3), 3)
    with pytest.raises(ValueError, match="k must be"):
        solve_eigs(PATH_GRAPH, np.eye(3), 0)
    with pytest.raises(ValueError, match="k must be an integer"):
        solve_eigs(PATH_GRAPH, np.eye(3), 2.0)
    assert solve_eigs(PATH_GRAPH, np.eye(3), np.int64(2)).eigenvalues.size == 2
    with pytest.raises(ValueError, match="k must be an integer"):
        solve_on_mesh(coarse_mesh, "steklov", 3.0)
    with pytest.raises(ValueError, match="square"):
        solve_eigs(PATH_GRAPH, np.eye(2), 1)
    with pytest.raises(FemError, match="singular"):
        solve_eigs(PATH_GRAPH, np.zeros((3, 3)), 2)
    path4 = sparse.diags([-1.0, [1.0, 2.0, 2.0, 1.0], -1.0], [-1, 0, 1],
                         shape=(4, 4))
    with pytest.raises(FemError, match="not positive definite"):
        solve_eigs(path4, np.diag([1.0, 0.0, 0.0, -1.0]), 1)

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((3, 0)))

    monkeypatch.setattr(fem_solver, "eigsh", no_convergence)
    with pytest.raises(FemError, match="Lanczos"):
        solve_eigs(PATH_GRAPH, np.eye(3), 2)

    # a bad k is rejected before K is factored
    def no_factorization(A):
        raise AssertionError("factored before checking k")

    monkeypatch.setattr(fem_solver, "splu", no_factorization)
    with pytest.raises(ValueError, match="below the 2 spectral vertices, got 2"):
        solve_eigs(PATH_GRAPH, np.diag([1.0, 0.0, 1.0]), 2)

    # and `solve` and `solve_on_mesh` reject a bad k or problem name before
    # they mesh or factor anything
    def no_meshing(spec, h):
        raise AssertionError("meshed before checking the request")

    monkeypatch.setattr(fem_solver, "triangulate", no_meshing)
    spec = DomainSpec(Disk(5.0), (0.0, 0.0), 1.0)
    for k in (0.5, 0, -1, 2.0):
        with pytest.raises(ValueError, match="k must be an integer"):
            solve(spec, 2.5, k)
        with pytest.raises(ValueError, match="k must be an integer"):
            solve_on_mesh(coarse_mesh, "steklov", k)
    with pytest.raises(ValueError, match="unknown problem"):
        solve(spec, 2.5, 3, problem="dirichlet")
    with pytest.raises(ValueError, match="unknown problem"):
        solve_on_mesh(coarse_mesh, "dirichlet", 3)


def test_coarse_annulus_near_closed_form(coarse_mesh):
    sol = solve_on_mesh(coarse_mesh, "steklov", 4)
    sigma_11 = steklov_eigenvalue(AnnulusSpec(2, 1.0, 5.0), 1, 1)
    assert abs(sol.eigenvalues[1] - sigma_11) / sigma_11 < 0.05
    assert abs(sol.eigenvalues[2] - sigma_11) / sigma_11 < 0.05


def test_first_five_eigenvalues_track_closed_form(fine_solutions):
    for sol, problem in zip(fine_solutions, ("steklov", "steklov_neumann")):
        exact = flat_spectrum(problem, 6)
        got = sol.eigenvalues
        assert got[0] == pytest.approx(0.0, abs=1e-10)
        rel = np.abs(got[1:] - exact[1:]) / exact[1:]
        assert rel.max() < 0.02


def test_solution_invariants(fine_solutions):
    for sol in fine_solutions:
        w = sol.eigenvalues
        assert np.all(np.diff(w) >= 0.0)
        assert abs(w[0]) < 1e-8 * w[1]
        M = assemble_boundary_mass(sol.mesh, sol.problem)
        assert sol.eigenvectors.shape == (sol.mesh.vertex_count, len(w))
        gram = sol.eigenvectors.T @ (M @ sol.eigenvectors)
        assert np.abs(gram - np.eye(len(w))).max() < 1e-8


def test_mixed_problem_sees_only_outer_boundary(fine_solutions):
    sn = fine_solutions[1]
    mesh = sn.mesh
    outer = np.unique(mesh.outer_edges)
    M = assemble_boundary_mass(mesh, sn.problem)
    assert np.array_equal(spectral_vertices(M), outer)
    # the double mixed eigenvalue splits only by discretization
    mu1, mu2 = sn.eigenvalues[1], sn.eigenvalues[2]
    assert abs(mu2 - mu1) / mu1 < 1e-2


def test_second_stiffness_kernel_raises(coarse_mesh):
    # two disconnected path graphs: the grounded factor is exactly singular
    two_paths = sparse.block_diag([PATH_GRAPH, PATH_GRAPH])
    with pytest.raises(FemError, match="grounded stiffness factorization is "
                                       "singular"):
        solve_eigs(two_paths, np.eye(6), 2)
    # two copies of one mesh: roundoff keeps the last pivot off zero, and
    # the second zero mode shows in the spectrum instead
    K = assemble_stiffness(coarse_mesh)
    M = assemble_boundary_mass(coarse_mesh)
    with pytest.raises(FemError, match="numerically singular"):
        solve_eigs(sparse.block_diag([K, K]), sparse.block_diag([M, M]), 3)


def nested_dissection_reference(points, A):
    """Recursive nested dissection by midpoint bisection: the points scale
    to the unit box (an axis of zero extent to 0), and each cell halves at
    the midpoint of its longer side in the points' own units (the first
    axis on a tie), (n - 1).bit_length() levels deep; the lower-side ends
    of the edges cut there join the cell's separator unless a shallower one
    holds them; both halves come before the separator.  Returns the order,
    each vertex's separator level (None outside every separator) and every
    split as (level, lower half, upper half)."""
    n = A.shape[0]
    pts = np.asarray(points, dtype=float).reshape(n, -1)
    extent = np.ptp(pts, axis=0)
    unit = np.zeros_like(pts)
    wide = extent > 0
    unit[:, wide] = (pts[:, wide] - pts[:, wide].min(axis=0)) / extent[wide]
    A = sparse.csr_matrix(A)
    level = [None] * n
    splits = []

    def visit(cell, corner, width, depth):
        if len(cell) <= 1 or depth == (n - 1).bit_length():
            return [int(v) for v in cell if level[v] is None]
        axis = np.argmax(extent * width)
        middle = corner[axis] + width[axis] / 2
        lower = cell[unit[cell, axis] < middle]
        upper = cell[unit[cell, axis] >= middle]
        splits.append((depth, lower, upper))
        in_upper = np.zeros(n, dtype=bool)
        in_upper[upper] = True
        separator = [int(v) for v in lower if level[v] is None
                     and in_upper[A.indices[A.indptr[v]:A.indptr[v + 1]]].any()]
        for v in separator:
            level[v] = depth
        half = width.copy()
        half[axis] /= 2
        upper_corner = corner.copy()
        upper_corner[axis] = middle
        return (visit(lower, corner, half, depth + 1)
                + visit(upper, upper_corner, half, depth + 1) + separator)

    d = pts.shape[1]
    order = visit(np.arange(n), np.zeros(d), np.ones(d), 0)
    return np.array(order), level, splits


def random_graph(n, seed):
    """A symmetric sparse pattern with a full diagonal, about 6 edges a
    vertex, and points in the plane with some of them repeated."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    pts[rng.integers(0, n, n // 5)] = pts[0]
    i, j = rng.integers(0, n, (2, 3 * n))
    A = sparse.coo_matrix((np.ones(3 * n), (i, j)), shape=(n, n))
    return pts, sparse.csr_matrix(A + A.T + sparse.eye(n))


@pytest.fixture(scope="module")
def table1_meshes():
    return {name: triangulate(spec, 0.25) for name, spec in TABLE1_DOMAINS.items()}


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (7, 2), (64, 3), (65, 4),
                                    (1000, 5)])
def test_dissection_matches_the_recursive_reference(n, seed):
    pts, A = random_graph(n, seed)
    # x stretched by 3 takes two halvings before y's first; extents in a
    # ratio of two make the sides tie at every other level
    tied = np.column_stack([pts[:, 0], 2.0 * pts[::-1, 0]])
    for points in (pts, pts * [3.0, 1.0], tied, pts[:, 1], np.arange(n),
                   np.zeros((n, 3))):
        order = fem_solver._dissection(points, A)
        assert np.array_equal(order, nested_dissection_reference(points, A)[0])
        assert np.array_equal(np.sort(order), np.arange(n))


def test_dissection_matches_the_reference_on_table1_meshes(table1_meshes):
    for mesh in table1_meshes.values():
        A = sparse.csr_matrix(assemble_stiffness(mesh))[:-1, :-1]
        points = mesh.vertices[:-1]
        assert np.array_equal(fem_solver._dissection(points, A),
                              nested_dissection_reference(points, A)[0])


@pytest.mark.parametrize("seed", range(3))
def test_separators_disconnect_the_halves_of_every_level(seed):
    pts, A = random_graph(500, seed)
    _, level, splits = nested_dissection_reference(pts, A)
    assert any(v is not None for v in level)
    for depth, lower, upper in splits:
        kept = [[v for v in half if level[v] is None or level[v] > depth]
                for half in (lower, upper)]
        assert A[kept[0]][:, kept[1]].nnz == 0


def test_grounded_solves_match_the_colamd_factor(table1_meshes):
    rng = np.random.default_rng(0)
    for mesh in table1_meshes.values():
        K, lu = factor_stiffness(mesh)
        A = sparse.csc_matrix(K)[:-1, :-1]
        b = rng.standard_normal((A.shape[0], 2))
        want = splu(A).solve(b)
        for got in (lu.solve(b), np.column_stack([lu.solve(c) for c in b.T])):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(A @ lu.solve(b) - b).max() <= 1e-12 * np.abs(b).max()


def test_dissection_cuts_the_fill_of_the_fine_rectangle():
    mesh = triangulate(TABLE1_DOMAINS["rectangle"], 0.0625)
    K = assemble_stiffness(mesh)
    colamd = splu(sparse.csc_matrix(K)[:-1, :-1])
    dissected = ground(K, mesh.vertices).lu
    fill = dissected.L.nnz + dissected.U.nnz
    assert fill <= 0.7 * (colamd.L.nnz + colamd.U.nnz)


def assert_matches_dense_reference(mesh, problem, k):
    """The sparse solve against the dense Schur-complement reference:
    eigenvalues, discrete harmonicity off the spectral vertices, and
    M-orthonormality."""
    K = assemble_stiffness(mesh)
    M = assemble_boundary_mass(mesh, problem)
    b = spectral_vertices(M)
    want = eigh(dtn_schur(K, b), M[b][:, b].toarray(),
                eigvals_only=True, subset_by_index=[0, k - 1])
    sol = solve_on_mesh(mesh, problem, k)
    got = sol.eigenvalues
    assert got[0] == 0.0
    assert np.abs(got[1:] - want[1:]).max() <= 1e-10 * want[1:].min()
    off = np.setdiff1d(np.arange(mesh.vertex_count), b)
    for v in sol.eigenvectors[:, 1:].T:
        Kv = K @ v
        assert np.abs(Kv[off]).max() <= 1e-8 * np.abs(Kv).max()
    gram = sol.eigenvectors.T @ (M @ sol.eigenvectors)
    assert np.abs(gram - np.eye(k)).max() <= 1e-12
    assert sol.orthonormality <= 1e-12


@pytest.mark.parametrize("problem", ["steklov", "steklov_neumann"])
@pytest.mark.parametrize("spec", [ANNULUS, OFF_CENTRE_ELLIPSE],
                         ids=["annulus", "off_centre_ellipse"])
def test_sparse_solve_matches_dense_dtn_reference(spec, problem):
    assert_matches_dense_reference(triangulate(spec, 0.5), problem, 6)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(sorted(OUTER_BY_HALF_EXTENTS)),
    half_extents=st.lists(st.floats(2.5, 6.0), min_size=2, max_size=2),
    radius=st.floats(0.75, 1.5),
    offset=st.lists(st.floats(-0.8, 0.8), min_size=2, max_size=2),
)
def test_solve_matches_dense_reference_on_random_geometry(
        name, half_extents, radius, offset):
    a, b = half_extents
    outer = OUTER_BY_HALF_EXTENTS[name](a, b)
    a, b = outer.half_extents
    centre = (offset[0] * (a - radius), offset[1] * (b - radius))
    try:
        spec = DomainSpec(outer, centre, radius)
    except ValueError:
        assume(False)
    assume(spec.clearance >= 0.05)
    mesh = triangulate(spec, 0.5)
    for problem in PROBLEMS:
        assert_matches_dense_reference(mesh, problem, 6)


def test_solution_records_lanczos_work():
    spec = TABLE1_DOMAINS["ellipse"]
    mesh = triangulate(spec, 0.25)
    for problem in PROBLEMS:
        sol = solve_on_mesh(mesh, problem, 3, spec=spec)
        # one pass of 20 Lanczos vectors converges
        assert 0 < sol.lanczos_applications <= 21
        assert 0.0 <= sol.orthonormality <= 1e-12
        assert not {"orthonormality", "lanczos_applications"} & set(sol.as_dict())


def test_eigensolution_clusters():
    sol = EigenSolution(
        "steklov",
        np.array([0.0, 0.17829, 0.17831, 0.398, 0.52, 0.5201]),
        np.zeros((6, 6)),
    )
    assert sol.as_dict()["clusters"] == [[0], [1, 2], [3], [4, 5]]
    assert clusters(sol.eigenvalues, 1e-6) == [[0], [1], [2], [3], [4], [5]]
    empty = EigenSolution("steklov", np.array([]), np.zeros((3, 0)))
    assert empty.as_dict()["clusters"] == clusters([], 1e-6) == []


def test_eigensolution_json_round_trip(fine_solutions, capsys, tmp_path):
    sol = fine_solutions[0]  # what solve(ANNULUS, 0.25, 6) returns
    cfg = tmp_path / "annulus.cfg"
    cfg.write_text("outer = disk\nradius = 5\nhole_radius = 1\n")
    assert cli.main(["fem-solve", "--spec", str(cfg), "--h", "0.25"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(sol.as_dict(), indent=2) + "\n"
    data = json.loads(out)
    assert data["problem"] == "steklov"
    assert data["spec"] == ANNULUS.as_dict()
    assert data["h"] == 0.25
    assert np.allclose(data["eigenvalues"], sol.eigenvalues, rtol=0.0, atol=0.0)
    assert data["clusters"] == clusters(sol.eigenvalues, CLUSTER_RTOL)


def test_solve_wrappers_agree(coarse_mesh):
    direct = solve(ANNULUS, 0.5, 3)
    on_mesh = solve_on_mesh(coarse_mesh, "steklov", 3, spec=ANNULUS)
    assert np.array_equal(direct.eigenvalues, on_mesh.eigenvalues)
    mixed = solve(ANNULUS, 0.5, 3, "steklov_neumann")
    assert mixed.problem == "steklov_neumann"
    assert np.array_equal(
        mixed.eigenvalues,
        solve_on_mesh(coarse_mesh, "steklov_neumann", 3).eigenvalues)
    assert mixed.eigenvalues[1] != pytest.approx(direct.eigenvalues[1], rel=1e-3)


def test_richardson_recovers_quadratic_model():
    h = [0.4, 0.2, 0.1]
    exact = 0.7
    vals = [exact + 3.0 * hh**2 for hh in h]
    extrapolated, order = _richardson(h, vals)
    assert extrapolated == pytest.approx(exact, abs=1e-12)
    assert order == pytest.approx(2.0, abs=1e-9)
    # stagnating values fall back to the finest level without an order
    flat_ext, flat_order = _richardson(h, [0.7, 0.7, 0.7])
    assert flat_ext == 0.7 and flat_order is None


def test_convergence_study_validation(monkeypatch):
    def no_meshing(spec, h):
        raise AssertionError("input validation must run before meshing")

    monkeypatch.setattr(fem_solver, "triangulate", no_meshing)
    with pytest.raises(ValueError, match="ratio"):
        convergence_study(ANNULUS, "steklov", [0.5, 0.25, 0.2])
    with pytest.raises(ValueError, match="three"):
        convergence_study(ANNULUS, "steklov", [0.5, 0.25])
    with pytest.raises(ValueError, match="descending"):
        convergence_study(ANNULUS, "steklov", [0.25, 0.5, 0.125])
    with pytest.raises(ValueError, match="k must be an integer at least 2"):
        convergence_study(ANNULUS, "steklov", [0.5, 0.25, 0.125], k=1)
    for h_list in ([0.5, 0.25, 0.0], [0.5, 0.25, float("nan")],
                   [float("inf"), 0.5, 0.25], [0.5, 0.25, -0.125]):
        with pytest.raises(ValueError, match="finite and positive"):
            convergence_study(ANNULUS, "steklov", h_list)
    for spec in (ANNULUS, OFF_CENTRE_ELLIPSE):
        with pytest.raises(ValueError, match="unknown problem 'dirichlet'"):
            convergence_study(spec, "dirichlet", [0.5, 0.25, 0.125])
        with pytest.raises(ValueError, match="k must be an integer"):
            convergence_study(spec, "steklov", [0.5, 0.25, 0.125], k=3.0)


def test_convergence_study_on_annulus():
    study = convergence_study(ANNULUS, "steklov", [0.8, 0.4, 0.2], k=4)
    assert isinstance(study, ConvergenceStudy)
    sigma_11 = steklov_eigenvalue(AnnulusSpec(2, 1.0, 5.0), 1, 1)
    assert study.reference == pytest.approx(sigma_11, rel=1e-12)
    errors = [row.error for row in study.rows]
    assert errors[0] > errors[1] > errors[2]
    assert study.observed_order > 1.5
    assert abs(study.extrapolated - sigma_11) < abs(
        study.rows[-1].eigenvalues[1] - sigma_11
    )
    table = asdict(study)
    assert [row["h"] for row in table["rows"]] == [0.8, 0.4, 0.2]


def test_convergence_study_on_round_ellipse_uses_closed_form():
    # a centred Ellipse(5, 5) is the same concentric annulus as Disk(5)
    spec = DomainSpec(Ellipse(5.0, 5.0), (0.0, 0.0), 1.0)
    study = convergence_study(spec, "steklov", [0.8, 0.4, 0.2], k=4)
    sigma_11 = steklov_eigenvalue(AnnulusSpec(2, 1.0, 5.0), 1, 1)
    assert study.reference == pytest.approx(sigma_11, rel=1e-12)
    assert all(row.error is not None for row in study.rows)
