"""Quadrature of the paper's degree-1 trial space over doubly connected meshes.

A rule is a pair (points, weights).  `volume_rule` is the three-point
edge-midpoint rule, exact for quadratics on each triangle;
`boundary_rule` is the midpoint rule on given boundary edges, such as
`Mesh.boundary_edges` or `Mesh.outer_edges`.

The upper bounds on sigma_1 and mu_1 test the trial space
u = (f, f x_1 / r, f x_2 / r) built from a degree-1 radial profile f(r).
`radial_grams` integrates it as two 3x3 Gram matrices.  With
e = (1, x_1 / r, x_2 / r) and e_hat = (0, x_1 / r, x_2 / r) the pointwise
entries are

    u_a u_b               = f^2 e_a e_b
    <grad u_a, grad u_b>  = f'^2 e_a e_b
                            + (f / r)^2 (delta_ab [a >= 1] - e_hat_a e_hat_b)

(the mixed f f' terms cancel because grad(x_i / r) is orthogonal to the
radial direction).  Moments, coordinate splits and mixed terms of the
trial space are entries of these matrices.  Quadrature points can sit
marginally inside the hole radius where a polygon chord cuts the circle;
r is clamped there, a perturbation of the same O(h^2) order as the
polygonal geometry itself.
"""

from __future__ import annotations

import numpy as np

from .analysis import profile_F
from .closed_form import RadialProfile, radial_eval
from .meshing import Mesh, _triangle_signed_areas

__all__ = ["boundary_rule", "radial_grams", "volume_rule"]


def volume_rule(mesh: Mesh):
    """Edge midpoints of every triangle, each weighted by a third of its
    area."""
    pts = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    mids = 0.5 * (pts + np.roll(pts, -1, axis=1)).reshape(-1, 2)
    areas = _triangle_signed_areas(mesh.vertices, mesh.triangles)
    return mids, np.repeat(areas / 3.0, 3)


def boundary_rule(mesh: Mesh, edges):
    """Midpoints and lengths of `edges`, rows (i, j) of mesh vertex
    indices, in float64 whatever the vertices' dtype."""
    v = np.asarray(mesh.vertices, dtype=float)
    p0, p1 = v[edges[:, 0]], v[edges[:, 1]]
    return 0.5 * (p0 + p1), np.hypot(*(p1 - p0).T)


def _gram(weights, u):
    """sum_q weights_q u_qa u_qb."""
    return (weights * u.T) @ u


def radial_grams(profile: RadialProfile, rule):
    """(mass Gram, gradient Gram, integral of F) of the trial space under
    `rule`; F is `analysis.profile_F`."""
    pts, weights = rule
    r = np.maximum(np.hypot(pts[:, 0], pts[:, 1]), profile.r_inner)
    f, df = radial_eval(profile, r)
    e_hat = np.column_stack([np.zeros_like(r), pts[:, 0] / r, pts[:, 1] / r])
    e = e_hat + [1.0, 0.0, 0.0]
    angular = weights * (f / r) ** 2
    mass = _gram(weights * f**2, e)
    gradient = (_gram(weights * df**2, e) - _gram(angular, e_hat)
                + np.diag([0.0, 1.0, 1.0]) * np.sum(angular))
    return mass, gradient, float(weights @ profile_F(profile, r))
