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

Both problems solve against one factorization per mesh: K grounded by
deleting its last vertex, symmetric positive definite when the constants
are K's only kernel.  The zero mode is exact; Lanczos (ARPACK, via
`scipy.sparse.linalg.eigsh`, from a fixed start vector) finds the largest
inverse eigenvalues of the Dirichlet-to-Neumann map on the boundary trace.
Assembly is vectorized over triangles and edges with a fixed accumulation
order, so repeated runs are bit-identical.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from steklov.closed_form import PROBLEMS, clusters
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
    p = mesh.vertices[tris]
    # edge vector opposite vertex i; grad of the i-th hat function is the
    # perpendicular of e_i over twice the area, so the element matrix is
    # (e_i . e_j) / (4 A)
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    doubled_area = e[:, 2, 0] * e[:, 0, 1] - e[:, 2, 1] * e[:, 0, 0]
    if np.any(doubled_area <= 0.0):
        raise ValueError("mesh contains a degenerate or inverted triangle")
    local = np.einsum("tid,tjd->tij", e, e) / (2.0 * doubled_area)[:, None, None]
    nv = mesh.vertex_count
    K = _scatter(tris, local, nv)
    kernel = np.abs(K @ np.ones(nv)).max()
    if kernel > 1e-12 * max(1.0, np.abs(K.data).max()):
        raise FemError(f"stiffness row sums do not vanish ({kernel:.3e})")
    return K


def assemble_boundary_mass(mesh, problem="steklov"):
    """Boundary mass matrix of one problem (sparse CSR, full size).

    Each edge of length e that carries the spectral condition contributes
    e/6 * [[2, 1], [1, 2]] to its two endpoints: every boundary edge for
    "steklov", the outer ones for "steklov_neumann" (hole edges then
    contribute nothing and their rows are zero).
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    edges = (mesh.outer_edges if problem == "steklov_neumann"
             else mesh.boundary_edges)
    lengths = boundary_rule(mesh, edges)[1]
    local = lengths[:, None, None] / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    return _scatter(edges, local, mesh.vertex_count)


def dtn_schur(K, steklov_vertices):
    """Schur complement of the stiffness matrix onto the Steklov vertices.

    Returns the dense symmetric discrete Dirichlet-to-Neumann matrix
    S = K_bb - K_bi K_ii^{-1} K_ib; interior (and Neumann-boundary)
    vertices are eliminated through a sparse LU factorization.  Constants
    stay in the kernel because the harmonic extension of a constant is
    the constant itself.
    """
    K = sparse.csr_matrix(K)
    nv = K.shape[0]
    b = np.unique(np.asarray(steklov_vertices, dtype=int))
    if b.size == 0:
        raise ValueError("empty Steklov vertex set")
    if b[0] < 0 or b[-1] >= nv:
        raise ValueError("Steklov vertex index out of range")
    interior = np.setdiff1d(np.arange(nv), b, assume_unique=True)
    S = K[b][:, b].toarray()
    if interior.size:
        K_ib = K[interior][:, b].toarray()
        K_ii = sparse.csc_matrix(K[interior][:, interior])
        S -= K_ib.T @ splu(K_ii).solve(K_ib)
    S = 0.5 * (S + S.T)
    kernel = np.abs(S @ np.ones(b.size)).max()
    if kernel > 1e-9 * max(1.0, np.abs(S).max()):
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


def ground(K):
    """LU factor of K without its last row and column: symmetric positive
    definite when the constants are K's only kernel."""
    try:
        return splu(sparse.csc_matrix(K, dtype=float)[:-1, :-1])
    except RuntimeError as exc:
        raise FemError(
            "the grounded stiffness factorization is singular: K has a "
            "kernel beyond the constants") from exc


def factor_stiffness(mesh):
    """(K, ground(K)): the one stiffness factorization per mesh."""
    K = assemble_stiffness(mesh)
    return K, ground(K)


def solve_eigs(K, M, k, problem="steklov", mesh=None, spec=None, lu=None):
    """First k eigenpairs of K u = lambda M u, ascending, M-orthonormal.

    K is symmetric positive semidefinite with the constants as its only
    kernel; M's nonzero rows, the spectral vertices s, carry a positive
    definite block M_ss = L L^T, and k lies below their number.  `lu` is
    `ground(K)`.  Lanczos finds the k - 1 largest 1/lambda of
    C = P L^T G L P, G the grounded inverse of K on s and P the projection
    off L^T 1, which makes every right-hand side sum to zero and drops the
    grounding constant; one grounded solve of the Ritz vectors gives their
    harmonic extensions.  Raises FemError rather than return a
    questionable spectrum.
    """
    K = sparse.csr_matrix(K, dtype=float)
    M = sparse.csr_matrix(M, dtype=float)
    if K.shape[0] != K.shape[1] or K.shape != M.shape:
        raise ValueError("K and M must be square matrices of one size")
    n = K.shape[0]
    s = np.flatnonzero(M.diagonal())
    if s.size == 0:
        raise FemError(
            "M is singular: no vertex carries the spectral condition")
    if not 1 <= k < s.size:
        raise ValueError(
            f"k must be at least 1 and below the {s.size} spectral "
            f"vertices, got {k}")
    lu = ground(K) if lu is None else lu
    # M_ss is symmetric, so its transpose is the Fortran-ordered copy that
    # LAPACK factors in place
    L = cholesky(M[s][:, s].toarray().T, lower=True, overwrite_a=True)
    q = L.T @ np.ones(s.size)
    q /= np.linalg.norm(q)
    applications = 0

    def grounded(f_s):
        """Solution of K u = f, f supported on s, zero at the last vertex."""
        u = np.zeros((n,) + f_s.shape[1:])
        u[s] = f_s
        u[:-1], u[-1] = lu.solve(u[:-1]), 0.0
        return u

    def apply(y):
        nonlocal applications
        applications += 1
        z = L.T @ grounded(L @ (y - q * (q @ y)))[s]
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
    # A further kernel of K that roundoff kept off the factor's pivots, or
    # a negative direction, shows as an eigenvalue at roundoff or below.
    if k > 1 and vals[1:].min() <= 1e-12 * np.abs(K.data).max() / M.data.max():
        raise FemError(
            f"eigenvalue {vals[1:].min():.3e} at roundoff or below: the "
            "grounded stiffness factorization is numerically singular")
    ones = np.ones(n)
    vecs = np.column_stack([ones, grounded(L @ Y)])
    mass_of_ones = M @ ones
    vecs[:, 1:] -= np.outer(ones, mass_of_ones @ vecs[:, 1:] / mass_of_ones.sum())
    vecs /= np.sqrt(np.einsum("ij,ij->j", vecs, M @ vecs))
    residual = np.abs(vecs.T @ (M @ vecs) - np.eye(k)).max()
    if residual > 1e-8:
        raise FemError(f"eigenvectors not M-orthonormal ({residual:.3e})")
    return EigenSolution(problem, vals, vecs, mesh=mesh, spec=spec,
                         orthonormality=float(residual),
                         lanczos_applications=applications)


def solve_on_mesh(mesh, problem, k, spec=None, stiffness=None):
    """Assemble and solve one eigenvalue problem on an existing mesh.

    `stiffness` is the mesh's `factor_stiffness`, built here when not
    given; callers that solve both problems build it once for both.
    """
    K, lu = factor_stiffness(mesh) if stiffness is None else stiffness
    M = assemble_boundary_mass(mesh, problem)
    return solve_eigs(K, M, k, problem=problem, mesh=mesh, spec=spec, lu=lu)


def solve(spec, h, k, problem="steklov"):
    """First k eigenvalues of one problem on the holed domain at mesh size h."""
    return solve_on_mesh(triangulate(spec, h), problem, k, spec=spec)
