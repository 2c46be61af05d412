"""Tests for the quadrature rules and the trial-space Gram matrices."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from steklov.analysis import profile_F
from steklov.closed_form import AnnulusSpec, radial_eval, sn_profile, steklov_profile
from steklov.domains import Disk, DomainSpec
from steklov.meshing import Mesh, triangulate
from steklov.quadrature import boundary_rule, radial_grams, volume_rule


def reference_triangle_mesh():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    return Mesh(vertices, triangles, edges, n_outer=3, h=1.0)


def integrate(rule, fn):
    points, weights = rule
    return float(weights @ fn(points))


def test_volume_rule_is_exact_for_quadratics():
    rule = volume_rule(reference_triangle_mesh())
    cases = [
        (lambda p: np.ones(len(p)), 0.5),
        (lambda p: p[:, 0], 1.0 / 6.0),
        (lambda p: p[:, 1], 1.0 / 6.0),
        (lambda p: p[:, 0] ** 2, 1.0 / 12.0),
        (lambda p: p[:, 0] * p[:, 1], 1.0 / 24.0),
    ]
    for fn, want in cases:
        assert integrate(rule, fn) == pytest.approx(want, abs=1e-15)


def test_boundary_rule_sums_midpoint_values():
    mesh = reference_triangle_mesh()
    rule = boundary_rule(mesh, mesh.boundary_edges)
    total = integrate(rule, lambda p: np.ones(len(p)))
    assert total == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-15)
    # x integrates to x-midpoint times length on each edge
    got = integrate(rule, lambda p: p[:, 0])
    want = 1.0 * 0.5 + math.sqrt(2.0) * 0.5 + 0.0
    assert got == pytest.approx(want, rel=1e-15)


@pytest.fixture(scope="module")
def annulus_mesh():
    return triangulate(DomainSpec(Disk(5.0), (0.0, 0.0), 1.0), 0.25)


@pytest.fixture(scope="module")
def profiles():
    spec = AnnulusSpec(2, 1.0, 5.0)
    return steklov_profile(spec, 1, 1), sn_profile(spec, 1)


def test_volume_integrals_match_radial_reduction(annulus_mesh, profiles):
    # on the concentric annulus, integral of F(r) dV = 2 pi * int F(r) r dr
    rule = volume_rule(annulus_mesh)
    for profile in profiles:
        got = radial_grams(profile, rule)[2]
        want = (
            2.0
            * math.pi
            * quad(lambda r: float(profile_F(profile, r)) * r, 1.0, 5.0, epsabs=1e-13)[0]
        )
        assert abs(got - want) / abs(want) < 4e-3


def test_boundary_integrals_match_circle_values(annulus_mesh, profiles):
    for profile in profiles:
        f5 = radial_eval(profile, 5.0)[0]
        f1 = radial_eval(profile, 1.0)[0]
        edges = annulus_mesh.boundary_edges
        outer, inner, both = (
            radial_grams(profile, boundary_rule(annulus_mesh, e))[0][0, 0]
            for e in (annulus_mesh.outer_edges, edges[annulus_mesh.n_outer:],
                      edges)
        )
        assert abs(outer - 2.0 * math.pi * 5.0 * f5**2) / outer < 4e-3
        assert abs(inner - 2.0 * math.pi * f1**2) / inner < 1e-2
        assert both == pytest.approx(outer + inner, rel=1e-14)


def test_odd_integrands_cancel_on_symmetric_mesh(annulus_mesh, profiles):
    rule = boundary_rule(annulus_mesh, annulus_mesh.outer_edges)
    mass_b = radial_grams(profiles[0], rule)[0]
    mass_v = radial_grams(profiles[0], volume_rule(annulus_mesh))[0]
    for i in (1, 2):
        # uniform circle sampling cancels odd harmonics to roundoff
        assert abs(mass_b[0, i]) < 1e-12 * mass_b[0, 0]
        assert abs(mass_v[0, i]) < 1e-6 * mass_v[0, 0]
    assert abs(mass_b[1, 2]) < 1e-12 * mass_b[0, 0]


def test_grams_are_symmetric(annulus_mesh, profiles):
    for rule in (volume_rule(annulus_mesh),
                 boundary_rule(annulus_mesh, annulus_mesh.boundary_edges)):
        for gram in radial_grams(profiles[1], rule)[:2]:
            # mirrored entries sum the same products, rounded in another order
            assert np.abs(gram - gram.T).max() <= 1e-14 * np.abs(gram).max()


def test_gradient_integrands_match_finite_differences(profiles):
    # on a one-point rule of weight 1 the gradient Gram is the pointwise
    # matrix of <grad u_a, grad u_b> for u = (f, f x1/r, f x2/r)
    delta = 1e-6

    def trial(profile, p):
        r = math.hypot(p[0], p[1])
        f = radial_eval(profile, r)[0]
        return np.array([f, f * p[0] / r, f * p[1] / r])

    samples = [(1.3, 0.4), (-2.0, 1.7), (0.9, -1.1), (3.3, 2.8)]
    for profile in profiles:
        for p in samples:
            jac = np.column_stack(
                [
                    (trial(profile, (p[0] + delta, p[1]))
                     - trial(profile, (p[0] - delta, p[1]))) / (2 * delta),
                    (trial(profile, (p[0], p[1] + delta))
                     - trial(profile, (p[0], p[1] - delta))) / (2 * delta),
                ]
            )
            gradient = radial_grams(profile, (np.array([p]), np.ones(1)))[1]
            np.testing.assert_allclose(gradient, jac @ jac.T, rtol=1e-5, atol=1e-8)


def test_clamp_keeps_hole_chord_midpoints_evaluable(annulus_mesh, profiles):
    # chord midpoints on the hole dip below r_inner; the Grams clamp r
    hole = annulus_mesh.boundary_edges[annulus_mesh.n_outer:]
    rule = boundary_rule(annulus_mesh, hole)
    assert np.min(np.hypot(rule[0][:, 0], rule[0][:, 1])) < 1.0
    mass, gradient, energy = radial_grams(profiles[0], rule)
    assert np.all(np.isfinite(mass)) and np.all(np.isfinite(gradient))
    assert math.isfinite(energy)

