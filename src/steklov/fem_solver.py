"""P1 finite elements for Steklov-type eigenvalue problems on holed domains.

The eigenvalue sits in the boundary condition: the discrete problem is the
generalized eigenproblem K u = lambda M u on the whole mesh, where K is the
P1 stiffness matrix (discrete Dirichlet energy) and M the mass matrix of
the boundary edges that carry the spectral condition.  M vanishes on every
other vertex, so each eigenvector is discretely harmonic there: it is the
harmonic extension of its boundary trace, and the eigenpairs are those of
the discrete Dirichlet-to-Neumann matrix (`dtn_schur`, kept as the dense
reference) against the boundary mass.

Two problems share the pipeline and differ only in which edges enter M:
the pure Steklov problem uses every boundary edge, the mixed
Steklov-Neumann problem only the outer ones (the hole is a natural
boundary).

Both problems solve against one factorization per mesh, a `Stiffness`
(`factor_stiffness`): K with the vertices it was assembled on and the
factor of K grounded by deleting its last vertex, symmetric positive
definite when the constants are K's only kernel.  SuperLU factors it in
a nested-dissection order that bisects the vertices' bounding box at
midpoints (`_dissection`) and applies no column order of its own, and
`solve_on_mesh` refuses a `Stiffness` of other vertices.  The zero mode
is exact; Lanczos (ARPACK, via `scipy.sparse.linalg.eigsh`, from a fixed
start vector) finds the largest inverse eigenvalues of the
Dirichlet-to-Neumann map on the boundary trace, scaled by the Cholesky
factor of the boundary mass on the spectral vertices.  That factor comes
from a sparse LDL^T (SuperLU in the vertices' own order, every pivot on
the diagonal); a boundary loop is a cycle, so it has about three entries
per row.  Assembly is vectorized over triangles and edges with a fixed
accumulation order, so repeated runs are bit-identical.  Every check that
raises past a threshold is written so that NaN fails it (`not x <= tol`,
never `x > tol`).
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from steklov.closed_form import (check_problem, check_problem_and_k, clusters,
                                  is_integer)
from steklov.domains import DomainSpec
from steklov.meshing import Mesh, triangulate
from steklov.quadrature import boundary_rule

# Lanczos accepts a Ritz value theta once its residual is at most
# LANCZOS_TOL * theta.  Its error is then at most LANCZOS_TOL**2 * theta**2
# / gap when a gap separates it from the rest of the spectrum, and at most
# LANCZOS_TOL * theta inside a cluster.  At k = 3 on the golden meshes the
# first pass of 20 Lanczos vectors converges.
LANCZOS_TOL = 1e-8

# Relative gap up to which adjacent eigenvalues form one cluster.
CLUSTER_RTOL = 1e-3


class FemError(RuntimeError):
    """A structural invariant of the discrete problem failed."""


def _scatter(cells, local, nv):
    """Sum the (m, p, p) element matrices `local` over the (m, p) vertex
    rows `cells` into one nv x nv CSR matrix."""
    p = cells.shape[1]
    rows = np.repeat(cells, p, axis=1).ravel()
    cols = np.tile(cells, (1, p)).ravel()
    return sparse.coo_matrix((local.ravel(), (rows, cols)),
                             shape=(nv, nv)).tocsr()


def assemble_stiffness(mesh):
    """P1 stiffness matrix (sparse CSR, symmetric positive semidefinite).

    Row sums vanish to roundoff: constants are discretely harmonic.
    """
    tris = mesh.triangles
    p = np.asarray(mesh.vertices, dtype=float)[tris]
    # edge vector opposite vertex i; grad of the i-th hat function is the
    # perpendicular of e_i over twice the area, so the element matrix is
    # (e_i . e_j) / (4 A)
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    doubled_area = e[:, 2, 0] * e[:, 0, 1] - e[:, 2, 1] * e[:, 0, 0]
    if not np.all(doubled_area > 0.0):
        raise ValueError(
            "mesh contains a degenerate, inverted or non-finite triangle")
    local = np.einsum("tid,tjd->tij", e, e) / (2.0 * doubled_area)[:, None, None]
    nv = mesh.vertex_count
    K = _scatter(tris, local, nv)
    kernel = np.abs(K @ np.ones(nv)).max()
    if not kernel <= 1e-12 * max(1.0, np.abs(K.data).max()):
        raise FemError(f"stiffness row sums do not vanish ({kernel:.3e})")
    return K


def assemble_boundary_mass(mesh, problem="steklov"):
    """Boundary mass matrix of one problem (sparse CSR, full size).

    Each edge of length e that carries the spectral condition contributes
    e/6 * [[2, 1], [1, 2]] to its two endpoints: every boundary edge for
    "steklov", the outer ones for "steklov_neumann" (hole edges then
    contribute nothing and their rows are zero).
    """
    check_problem(problem)
    edges = (mesh.outer_edges if problem == "steklov_neumann"
             else mesh.boundary_edges)
    lengths = boundary_rule(mesh, edges)[1]
    local = lengths[:, None, None] / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    return _scatter(edges, local, mesh.vertex_count)


def dtn_schur(K, steklov_vertices):
    """Schur complement of the stiffness matrix onto the Steklov vertices.

    Returns the dense symmetric discrete Dirichlet-to-Neumann matrix
    S = K_bb - K_bi K_ii^{-1} K_ib; interior (and Neumann-boundary)
    vertices are eliminated through SuperLU in its default column order,
    not the `_dissection` order of the grounded solves it is a reference
    for.  Constants stay in the kernel because the harmonic extension of a
    constant is the constant itself.  `steklov_vertices` holds integer
    vertex indices; a float or boolean array raises ValueError.
    """
    K = sparse.csr_matrix(K)
    nv = K.shape[0]
    b = np.unique(steklov_vertices)
    if b.size == 0:
        raise ValueError("empty Steklov vertex set")
    if not np.issubdtype(b.dtype, np.integer) or b[0] < 0 or b[-1] >= nv:
        raise ValueError("Steklov vertices must be integer indices in range")
    interior = np.setdiff1d(np.arange(nv), b, assume_unique=True)
    S = K[b][:, b].toarray()
    if interior.size:
        K_ib = K[interior][:, b].toarray()
        S -= K_ib.T @ splu(sparse.csc_matrix(K[interior][:, interior])).solve(K_ib)
    S = 0.5 * (S + S.T)
    kernel = np.abs(S @ np.ones(b.size)).max()
    if not kernel <= 1e-9 * max(1.0, np.abs(S).max()):
        raise FemError(
            f"Dirichlet-to-Neumann matrix lost the constant kernel ({kernel:.3e})")
    return S


@dataclass(eq=False)
class EigenSolution:
    """Eigenpairs of one Steklov-type problem on a mesh.

    Eigenvalues ascend and start at the zero mode; eigenvector columns are
    discrete harmonic extensions over every mesh vertex, orthonormal in
    the boundary mass inner product.  The solver also records the largest
    entry of |X^T M X - I| over the eigenvectors X (`orthonormality`) and
    how often Lanczos applied its operator (`lanczos_applications`);
    `as_dict` leaves both out.
    """

    problem: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    mesh: Mesh = None
    spec: DomainSpec = None
    orthonormality: float = None
    lanczos_applications: int = None

    @property
    def h(self):
        """Target edge length of the mesh, or None without a mesh."""
        return None if self.mesh is None else self.mesh.h

    def as_dict(self):
        return {
            "problem": self.problem,
            "spec": None if self.spec is None else self.spec.as_dict(),
            "h": self.h,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "clusters": clusters(self.eigenvalues, CLUSTER_RTOL),
        }


def _dissection(points, A):
    """Nested-dissection elimination order of the vertices of the symmetric
    CSR matrix A, vertex i at points[i] (an (n,) or (n, d) array).

    The vertices' bounding box halves at its midpoint, level by level, and
    so does every cell: all cells of a level share one box and halve along
    its longer side (the first axis on a tie).  That gives every vertex a
    code, its string of halves, 0 lower and 1 upper, read off its
    coordinates.  An edge of A whose endpoints' codes first differ at level
    l is cut there, and its lower-side endpoint joins the separator of
    level l; a vertex stays in the shallowest separator it joins.  The
    order is post-order: both halves of a cell, then its separator.
    """
    n = A.shape[0]
    pts = np.asarray(points, dtype=float).reshape(n, -1)
    depth = (n - 1).bit_length()
    side = np.ptp(pts, axis=0)
    # coordinates scaled to [0, 1] (0 on an axis of zero extent); doubling
    # one moves its next bit into its integer part, exactly
    frac = ((pts - pts.min(axis=0)) / np.where(side > 0, side, 1)).T
    code = np.zeros(n, dtype=np.intp)
    for _ in range(depth):
        axis = np.argmax(side)
        side[axis] /= 2
        frac[axis] *= 2
        upper = frac[axis] >= 1
        frac[axis] -= upper
        code = 2 * code + upper
    # an edge is cut at the highest bit in which its ends' codes differ;
    # each vertex keeps the highest such bit of its lower-side edges
    row, col = np.repeat(code, np.diff(A.indptr)), code[A.indices]
    cut = sparse.csr_matrix((np.where(row < col, row ^ col, 0), A.indices,
                             A.indptr), shape=A.shape).max(axis=1)
    height = np.frexp(cut.toarray().ravel().astype(float))[1].astype(np.intp)
    # post-order: by the last code under a vertex's node, deeper nodes first
    return np.argsort((code | ((1 << height) - 1)) * (depth + 1) + height,
                      kind="stable")


class Stiffness:
    """The stiffness matrix K of one mesh, its vertex i at points[i], and
    the factor of K grounded by deleting its last vertex: symmetric
    positive definite when the constants are K's only kernel.  `lu` is
    SuperLU's factor of the grounded matrix in the midpoint nested-dissection
    order `perm` of its vertices (`_dissection`), with no column order of
    its own.  Raises FemError when the grounded matrix is singular, exactly
    or to roundoff."""

    def __init__(self, K, points):
        self.K = sparse.csr_matrix(K, dtype=float)
        self.points = np.asarray(points)
        n = self.K.shape[0]
        if self.K.shape[1] != n or len(self.points) != n:
            raise ValueError("K must be square, with one point per vertex")
        A = self.K[:-1, :-1]
        self.perm = _dissection(self.points[:-1], A)
        try:
            self.lu = splu(sparse.csc_matrix(A[self.perm][:, self.perm]),
                           permc_spec="NATURAL")
        except RuntimeError as exc:
            raise FemError(
                "the grounded stiffness factorization is singular: K has a "
                "kernel beyond the constants") from exc
        # A further kernel that roundoff keeps off the pivots takes the solve
        # of A x = A 1 off by order one (0.45 for two copies of a mesh); a
        # sound factor misses by roundoff times cond(A): at most 2.0e-13 over
        # the 172 meshes that tools/mesh_identity.py records (22.7k vertices
        # the largest).  The bound 1e-6 leaves over five decades either side.
        ones = np.append(np.ones(n - 1), 0.0)
        miss = np.abs(self.solve(self.K @ ones) - ones).max()
        if not miss <= 1e-6:
            raise FemError(
                f"the grounded stiffness factorization is numerically singular: "
                f"it solves for the constants to {miss:.3e}")

    def solve(self, f):
        """u with (K u)_i = f_i at every vertex but the last, where u is 0;
        f has one row per vertex."""
        u = np.zeros(np.shape(f))
        u[self.perm] = self.lu.solve(np.asarray(f, dtype=float)[self.perm])
        return u


def factor_stiffness(mesh):
    """The mesh's `Stiffness`: one factorization serves both problems."""
    return Stiffness(assemble_stiffness(mesh), mesh.vertices)


def solve_eigs(stiffness, M, k):
    """First k eigenpairs of K u = lambda M u, ascending, M-orthonormal.

    K is `stiffness.K`, symmetric positive semidefinite with the constants
    as its only kernel; M's nonzero rows, the spectral vertices s, carry a
    positive definite block M_ss = L L^T, and k lies below their number; L
    is sparse, from SuperLU's L D L^T of M_ss in natural order with
    diagonal pivots.  Lanczos finds the k - 1 largest 1/lambda of
    C = P L^T G L P, G the grounded inverse of K on s (`stiffness.solve`)
    and P the projection off L^T 1, which makes every right-hand side sum
    to zero and drops the grounding constant; one grounded solve of the
    Ritz vectors gives their harmonic extensions.  Raises FemError rather
    than return a questionable spectrum, also when M_ss is not positive
    definite.  Lanczos grows its Krylov space from a single start vector,
    so where an exact symmetry makes an eigenvalue double (a ring mesh
    that a rotation maps onto itself) it can miss one member of the pair
    and return the next eigenvalue in its place, with no error; finding
    both needs a block method.  Its problem, mesh and spec are None.
    """
    K = stiffness.K
    M = sparse.csr_matrix(M, dtype=float)
    if K.shape != M.shape:
        raise ValueError("K and M must be square matrices of one size")
    n = K.shape[0]
    s = np.flatnonzero(M.diagonal())
    if s.size == 0:
        raise FemError(
            "M is singular: no vertex carries the spectral condition")
    if not (is_integer(k) and 1 <= k < s.size):
        raise ValueError(
            f"k must be an integer at least 1 and below the {s.size} "
            f"spectral vertices, got {k}")
    # M_ss is symmetric, so its transpose is the CSC copy that SuperLU
    # takes.  In natural order with every pivot on the diagonal its U is
    # D L^T, so L D^(1/2), L's column j times sqrt(d_j), is the Cholesky
    # factor.
    not_pd = "M is not positive definite on its spectral vertices"
    try:
        ldl = splu(M[s][:, s].T, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    except RuntimeError as exc:  # an exactly singular pivot
        raise FemError(not_pd) from exc
    d = ldl.U.diagonal()
    if np.any(ldl.perm_r != np.arange(s.size)) or not np.all(d > 0):
        raise FemError(not_pd)
    unit = ldl.L  # CSC, unit diagonal
    L = sparse.csc_matrix(
        (unit.data * np.repeat(np.sqrt(d), np.diff(unit.indptr)),
         unit.indices, unit.indptr), shape=unit.shape)
    Lt = L.T  # a CSR view, built once rather than at every application
    q = Lt @ np.ones(s.size)
    q /= np.linalg.norm(q)
    applications = 0

    def grounded(f_s):
        """Solution of K u = f, f supported on s, zero at the last vertex."""
        f = np.zeros((n,) + f_s.shape[1:])
        f[s] = f_s
        return stiffness.solve(f)

    def apply(y):
        nonlocal applications
        applications += 1
        z = Lt @ grounded(L @ (y - q * (q @ y)))[s]
        return z - q * (q @ z)

    theta, Y = np.empty(0), np.empty((s.size, 0))
    if k > 1:
        # A fixed start vector keeps repeated runs bit-identical; a generic
        # one keeps the Krylov space from starting inside an eigenspace.
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, s.size)
        C = LinearOperator((s.size, s.size), matvec=apply, dtype=float)
        try:
            theta, Y = eigsh(C, k - 1, which="LA", v0=v0 - q * (q @ v0),
                             tol=LANCZOS_TOL)
        except ArpackError as exc:
            raise FemError(f"Lanczos on the boundary trace failed: {exc}") from exc
        order = np.argsort(-theta)
        theta, Y = theta[order], Y[:, order]
    vals = np.concatenate([[0.0], 1.0 / theta])
    # A negative direction of K, or a further kernel that `Stiffness`' check
    # let through, shows as an eigenvalue at roundoff or below.
    if k > 1 and not vals[1:].min() > 1e-12 * np.abs(K.data).max() / M.data.max():
        raise FemError(
            f"eigenvalue {vals[1:].min():.3e} at roundoff or below: the "
            "grounded stiffness factorization is numerically singular")
    ones = np.ones(n)
    vecs = np.column_stack([ones, grounded(L @ Y)])
    mass_of_ones = M @ ones
    vecs[:, 1:] -= np.outer(ones, mass_of_ones @ vecs[:, 1:] / mass_of_ones.sum())
    vecs /= np.sqrt(np.einsum("ij,ij->j", vecs, M @ vecs))
    residual = np.abs(vecs.T @ (M @ vecs) - np.eye(k)).max()
    if not residual <= 1e-8:
        raise FemError(f"eigenvectors not M-orthonormal ({residual:.3e})")
    return EigenSolution(None, vals, vecs, orthonormality=float(residual),
                         lanczos_applications=applications)


def solve_on_mesh(mesh, problem, k, spec=None, stiffness=None):
    """Assemble and solve one eigenvalue problem on an existing mesh.

    `stiffness` is the mesh's `factor_stiffness`, built here when not
    given; callers that solve both problems build it once for both.  A
    stiffness built on other vertices raises ValueError.
    """
    check_problem_and_k(problem, k)  # before factoring
    stiffness = factor_stiffness(mesh) if stiffness is None else stiffness
    if not np.array_equal(stiffness.points, mesh.vertices):
        raise ValueError("the stiffness belongs to a mesh with other vertices")
    M = assemble_boundary_mass(mesh, problem)
    return replace(solve_eigs(stiffness, M, k), problem=problem, mesh=mesh,
                   spec=spec)


def solve(spec, h, k, problem="steklov"):
    """First k eigenvalues of one problem on the holed domain at mesh size h."""
    check_problem_and_k(problem, k)  # before meshing
    return solve_on_mesh(triangulate(spec, h), problem, k, spec=spec)
