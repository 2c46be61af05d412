"""Closed-form annulus spectra checked against independent oracles.

The oracle for the per-degree eigenvalues never touches the closed forms:
it builds the 2x2 linear system that the two radial solutions must satisfy
on the two spheres and root-finds the determinant in sigma.  Profiles are
checked by plugging them back into the boundary conditions and the radial
ODE.  Expected literals below were frozen from those oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from math import comb

import numpy as np
import pytest
from scipy.optimize import brentq

from steklov import (
    AnnulusSpec,
    closed_form,
    enumerate_spectrum,
    multiplicity,
    radial_eval,
    sigma_21_closed,
    sn_eigenvalue,
    sn_profile,
    steklov_eigenvalue,
    steklov_profile,
)

NS = [2, 3, 4, 5]
LS = [1.1, 1.5, 2.0, 5.0, 10.0]


def quad_coeffs(n, L, l):
    """Coefficients (A, B, C) of the per-degree quadratic A*s^2 + B*s + C = 0.

    Imposing du/dnu = s*u on both spheres of the normalized annulus (1, L)
    for the degree-l radial solution a*r^l + b*r^-(l+n-2) and eliminating
    (a, b) yields this quadratic in s.  This is the unscaled reference for
    the closed form, which solves a copy scaled by L^-(2l+n-2).  It
    degenerates for l = 0 in the plane (the second radial solution is
    log r there), which is rejected.
    """
    if l == 0 and n == 2:
        raise ValueError("l = 0 in dimension 2 is a logarithmic mode; "
                         "the quadratic in sigma degenerates")
    m = 2 * l + n - 2
    Lm = L**m
    A = L * (Lm - 1.0)
    B = -(l * Lm + (l + n - 2) * Lm * L + l * L + (l + n - 2))
    C = l * (l + n - 2) * (Lm - 1.0)
    return A, B, C


def det_boundary_system(n, L, l, sigma):
    """Determinant of the two-point boundary system for degree l >= 0.

    Unknowns are the coefficients (a, b) of r^l and r^-(l+n-2) (log mode
    excluded, so (l, n) = (0, 2) is not handled).  Inner row uses the
    outward normal -e_r, outer row +e_r.
    """
    p = l + n - 2
    row1 = (-l - sigma, p - sigma)
    row2 = (l * L ** (l - 1) - sigma * L**l,
            -p * L ** (-p - 1) - sigma * L ** (-p))
    return row1[0] * row2[1] - row1[1] * row2[0]


def oracle_steklov_roots(n, L, l):
    """Both degree-l eigenvalues by scanning/bracketing the determinant."""
    f = lambda s: det_boundary_system(n, L, l, s)
    S = 2.0 * (2 * l + n)
    for _ in range(40):
        xs = np.linspace(1e-9, S, 8193)
        vals = np.array([f(x) for x in xs])
        idx = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        if l == 0:
            # sigma = 0 is always a root; the scan starts just above it
            if len(idx) >= 1:
                return 0.0, brentq(f, xs[idx[0]], xs[idx[0] + 1], xtol=1e-14)
        elif len(idx) >= 2:
            return (brentq(f, xs[idx[0]], xs[idx[0] + 1], xtol=1e-14),
                    brentq(f, xs[idx[1]], xs[idx[1] + 1], xtol=1e-14))
        S *= 2.0
    raise AssertionError("oracle failed to bracket both roots")


# ---------------------------------------------------------------- coefficients

def test_quad_coeffs_frozen_values():
    assert quad_coeffs(2, 5.0, 1) == (120.0, -156.0, 24.0)
    assert quad_coeffs(3, 2.0, 1) == (14.0, -44.0, 14.0)


def test_quad_coeffs_rejects_planar_log_mode():
    with pytest.raises(ValueError):
        quad_coeffs(2, 5.0, 0)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("L", LS)
def test_quad_coeffs_discriminant_and_roots(n, L):
    for l in range(0, 21):
        if l == 0 and n == 2:
            continue
        A, B, C = quad_coeffs(n, L, l)
        assert A > 0.0
        assert C >= 0.0
        disc = B * B - 4.0 * A * C
        assert disc > 0.0
        s1 = steklov_eigenvalue(AnnulusSpec(n, 1.0, L), l, 1)
        s2 = steklov_eigenvalue(AnnulusSpec(n, 1.0, L), l, 2)
        # Vieta: the closed-form pair must reproduce the coefficient ratios
        assert s1 * s2 == pytest.approx(C / A, rel=1e-12, abs=1e-15)
        assert s1 + s2 == pytest.approx(-B / A, rel=1e-12)


# ----------------------------------------------------------------- eigenvalues

@pytest.mark.parametrize("n,L", [(2, 5.0), (2, 1.1), (3, 2.0), (4, 1.5),
                                 (5, 10.0)])
@pytest.mark.parametrize("l", [0, 1, 2, 3, 7])
def test_steklov_matches_determinant_oracle(n, L, l):
    spec = AnnulusSpec(n, 1.0, L)
    if l == 0 and n == 2:
        # log mode: oracle is the outer boundary condition for 1 - s*log r
        g = lambda s: (-s / L) - s * (1.0 - s * math.log(L))
        s2 = brentq(g, 1e-6, 100.0, xtol=1e-14)
    else:
        _, s2 = oracle_steklov_roots(n, L, l)
        s1 = oracle_steklov_roots(n, L, l)[0]
        assert steklov_eigenvalue(spec, l, 1) == pytest.approx(s1, rel=1e-9,
                                                               abs=1e-12)
    assert steklov_eigenvalue(spec, l, 2) == pytest.approx(s2, rel=1e-9)


def test_frozen_eigenvalues_unit_inner():
    s25 = AnnulusSpec(2, 1.0, 5.0)
    assert steklov_eigenvalue(s25, 1, 1) == pytest.approx(0.17830094339716976,
                                                          rel=1e-13)
    assert steklov_eigenvalue(s25, 0, 2) == pytest.approx(0.7456019214715341,
                                                          rel=1e-13)
    assert steklov_eigenvalue(s25, 0, 2) == pytest.approx(
        (1 + 5) / (5 * math.log(5)), rel=1e-14)
    assert steklov_eigenvalue(s25, 2, 1) == pytest.approx(0.3980883973646059,
                                                          rel=1e-13)
    s32 = AnnulusSpec(3, 1.0, 2.0)
    assert steklov_eigenvalue(s32, 1, 1) == pytest.approx(
        (44 - math.sqrt(1152)) / 28, rel=1e-13)
    assert steklov_eigenvalue(s32, 1, 1) == pytest.approx(0.3592455179659186,
                                                          rel=1e-13)
    # degree-0 second branch off the plane: (n-2)(1+L^{n-1})/(L^{n-1}-L)
    assert steklov_eigenvalue(s32, 0, 2) == pytest.approx(2.5, rel=1e-14)
    for n in range(3, 40):
        for L in (1.0001, 1.01, 1.1, 2.0, 5.0, 10.0, 100.0, 1000.0):
            spec = AnnulusSpec(n, 1.0, L)
            assert steklov_eigenvalue(spec, 0, 1) == 0.0
            assert steklov_eigenvalue(spec, 0, 2) == pytest.approx(
                (n - 2) * (1 + L ** (n - 1)) / (L ** (n - 1) - L), rel=1e-12)
    # where L^(n-1) overflows, sigma_02 tends to (n-2)/r_inner
    assert steklov_eigenvalue(AnnulusSpec(500, 1.0, 5.0), 0, 2) == (
        pytest.approx(498.0, rel=1e-12))


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("L", LS)
def test_sigma_21_closed_equals_quadratic_root(n, L):
    spec = AnnulusSpec(n, 1.0, L)
    assert sigma_21_closed(spec) == pytest.approx(
        steklov_eigenvalue(spec, 2, 1), rel=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_sigma_21_closed_stays_finite_at_large_ratios(n):
    for L in (1.01, 1e3, 1e12, 1e13, 1e50, 1e100, 1e150):
        spec = AnnulusSpec(n, 1.0, L)
        assert sigma_21_closed(spec) == pytest.approx(
            steklov_eigenvalue(spec, 2, 1), rel=1e-12)


def test_scaling_law():
    # sigma(c*r1, c*r2) = sigma(r1, r2) / c, and likewise for the mixed curve
    for c in (0.25, 3.0, 17.0):
        a = AnnulusSpec(3, 1.0, 4.0)
        b = AnnulusSpec(3, c, 4.0 * c)
        assert steklov_eigenvalue(b, 2, 1) == pytest.approx(
            steklov_eigenvalue(a, 2, 1) / c, rel=1e-13)
        assert steklov_eigenvalue(b, 0, 2) == pytest.approx(
            steklov_eigenvalue(a, 0, 2) / c, rel=1e-13)
        assert sn_eigenvalue(b, 3) == pytest.approx(sn_eigenvalue(a, 3) / c,
                                                    rel=1e-13)


# --------------------------------------------------------------- mixed problem

def test_sn_frozen_values():
    spec = AnnulusSpec(2, 1.0, 5.0)
    assert sn_eigenvalue(spec, 0) == 0.0
    assert sn_eigenvalue(spec, 1) == pytest.approx(24.0 / 130.0, rel=1e-14)
    assert sn_eigenvalue(spec, 2) == pytest.approx(2496.0 / 6260.0, rel=1e-14)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("L", [1.5, 5.0])
def test_sn_matches_quotient_oracle(n, L):
    # with f'(r_inner) = 0 imposed, mu_l is just f'(R2)/f(R2)
    spec = AnnulusSpec(n, 2.0, 2.0 * L)
    for l in range(1, 12):
        p = l + n - 2
        c = l * spec.r_inner ** (2 * l + n - 2) / p
        f = lambda r: r**l + c * r ** (-p)
        df = lambda r: l * r ** (l - 1) - p * c * r ** (-p - 1)
        assert abs(df(spec.r_inner)) < 1e-12 * abs(f(spec.r_inner))
        mu_oracle = df(spec.r_outer) / f(spec.r_outer)
        assert sn_eigenvalue(spec, l) == pytest.approx(mu_oracle, rel=1e-12)


def test_sn_increasing_in_degree():
    for n in NS:
        for L in LS:
            spec = AnnulusSpec(n, 1.0, L)
            mus = [sn_eigenvalue(spec, l) for l in range(0, 40)]
            assert all(b > a for a, b in zip(mus, mus[1:]))


# ---------------------------------------------------------------- multiplicity

@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_multiplicity_against_binomial_difference(n):
    # dim H_l = C(n+l-1, l) - C(n+l-3, l-2), the standard dimension count
    for l in range(0, 25):
        expected = comb(n + l - 1, l) - (comb(n + l - 3, l - 2) if l >= 2
                                         else (1 if l == 0 and n == 2 else 0))
        if n == 2 and l == 0:
            expected = 1
        assert multiplicity(n, l) == expected


def test_multiplicity_frozen_values():
    assert multiplicity(3, 2) == 5
    assert multiplicity(2, 0) == 1
    assert [multiplicity(2, l) for l in range(1, 5)] == [2, 2, 2, 2]
    assert [multiplicity(n, 1) for n in NS] == NS


@pytest.mark.parametrize("n", [2.5, 3.0, 1, np.int64(0), "3"])
def test_multiplicity_rejects_a_dimension_that_is_not_an_integer_from_2(n):
    # the same check and message as AnnulusSpec, not math.comb's TypeError
    with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
        multiplicity(n, 1)
    with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
        AnnulusSpec(n, 1.0, 2.0)


# -------------------------------------------------------------------- profiles

def ode_residual(profile, r):
    """Relative residual of f'' + (n-1) f'/r - l(l+n-2) f/r^2 = 0.

    f'' comes from central differences of the analytic f', and the residual
    is normalized by the magnitude of the individual ODE terms.
    """
    d = 1e-5 * r
    _, dm = radial_eval(profile, r - d)
    _, dp = radial_eval(profile, r + d)
    f, df = radial_eval(profile, r)
    f2 = (dp - dm) / (2 * d)
    n, l = profile.n, profile.l
    terms = (f2, (n - 1) * df / r, -l * (l + n - 2) * f / r**2)
    scale = 1.0 + max(abs(t) for t in terms)
    return abs(sum(terms)) / scale


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("L", LS)
def test_steklov_profile_boundary_residuals_full_grid(n, L):
    # Both boundary conditions to 1e-9*(1+|f(L)|) for every degree <= 20,
    # plus the float64 representability floor: on branch 2 the eigenvalue
    # sits within an ulp of l+n-2, |f(1)| ~ |coef| is astronomically larger
    # than |f(L)|, and the two terms of the inner residual cancel to the
    # last digit, so ~ulp(|coef|) of noise is unavoidable for any float64
    # profile.  The floor term is negligible in the well-conditioned regime.
    eps = np.finfo(float).eps
    spec = AnnulusSpec(n, 1.0, L)
    for l in range(0, 21):
        for branch in (1, 2):
            prof = steklov_profile(spec, l, branch)
            sigma = prof.eigenvalue
            f_in, df_in = radial_eval(prof, spec.r_inner)
            f_out, df_out = radial_eval(prof, spec.r_outer)
            tol = (1e-9 * (1 + abs(f_out))
                   + 64 * eps * (1 + abs(f_in)) * (1 + sigma))
            assert abs(df_in + sigma * f_in) < tol
            assert abs(df_out - sigma * f_out) < tol
            if branch == 1:
                # branch 1 is well conditioned: the plain bound must hold
                assert abs(df_in + sigma * f_in) < 1e-9 * (1 + abs(f_out))
                assert abs(df_out - sigma * f_out) < 1e-9 * (1 + abs(f_out))


@pytest.mark.parametrize("n,L", [(2, 5.0), (3, 2.0), (4, 1.5), (2, 1.1)])
def test_steklov_profile_ode_residuals(n, L):
    spec = AnnulusSpec(n, 1.0, L)
    for l in range(0, 6):
        for branch in (1, 2):
            prof = steklov_profile(spec, l, branch)
            for r in np.linspace(spec.r_inner, spec.r_outer, 9)[1:-1]:
                assert ode_residual(prof, r) < 1e-8


def test_sn_profile_boundary_residuals():
    for n, R1, R2 in [(2, 1.0, 5.0), (3, 2.0, 7.0), (5, 0.5, 4.0)]:
        spec = AnnulusSpec(n, R1, R2)
        for l in range(0, 8):
            prof = sn_profile(spec, l)
            mu = prof.eigenvalue
            f_in, df_in = radial_eval(prof, R1)
            f_out, df_out = radial_eval(prof, R2)
            assert abs(df_in) < 1e-12 * (1 + abs(f_in))
            assert abs(df_out - mu * f_out) < 1e-9 * (1 + abs(f_out))
            for r in np.linspace(R1, R2, 7)[1:-1]:
                assert ode_residual(prof, r) < 1e-8


def test_profile_frozen_point_values():
    s25 = AnnulusSpec(2, 1.0, 5.0)
    prof = steklov_profile(s25, 1, 1)
    assert prof.coef == pytest.approx(1.4339811320566038, rel=1e-12)
    f, df = radial_eval(prof, 1.0)
    assert f == pytest.approx(2.433981132056604, rel=1e-12)
    assert df == pytest.approx(-0.4339811320566038, rel=1e-12)
    snp = sn_profile(s25, 1)
    assert radial_eval(snp, 1.0) == pytest.approx((2.0, 0.0), abs=1e-14)
    assert radial_eval(snp, 5.0) == pytest.approx((5.2, 0.96), rel=1e-14)


def test_radial_eval_rejects_radius_below_inner():
    prof = sn_profile(AnnulusSpec(2, 1.0, 5.0), 1)
    with pytest.raises(ValueError):
        radial_eval(prof, 0.5)


# ----------------------------------------------------------------- enumeration

def test_enumerate_first_five_planar():
    spec = AnnulusSpec(2, 1.0, 5.0)
    lines = enumerate_spectrum(spec, "steklov", 5)
    assert [(ln.l, ln.branch, ln.multiplicity) for ln in lines] == \
        [(0, 1, 1), (1, 1, 2), (2, 1, 2)]
    assert lines[0].value == 0.0
    assert lines[1].value == pytest.approx(0.17830094339716976, rel=1e-12)
    assert lines[2].value == pytest.approx(0.3980883973646059, rel=1e-12)


def test_enumerate_k1_is_zero_mode():
    for n in NS:
        for problem in ("steklov", "steklov_neumann"):
            lines = enumerate_spectrum(AnnulusSpec(n, 1.0, 3.0), problem, 1)
            assert len(lines) == 1
            assert lines[0].value == 0.0
            assert lines[0].multiplicity == 1


@pytest.mark.parametrize("problem", ["steklov", "steklov_neumann"])
@pytest.mark.parametrize("n,L", [(2, 5.0), (3, 1.1), (4, 2.0)])
def test_enumerate_is_sorted_and_sufficient(problem, n, L):
    spec = AnnulusSpec(n, 1.0, L)
    k = 25
    lines = enumerate_spectrum(spec, problem, k)
    vals = [ln.value for ln in lines]
    assert vals == sorted(vals)
    assert sum(ln.multiplicity for ln in lines) >= k
    assert sum(ln.multiplicity for ln in lines[:-1]) < k
    # every line of higher degree must exceed the k-th value
    worst = vals[-1]
    lmax = max(ln.l for ln in lines)
    if problem == "steklov":
        beyond = min(steklov_eigenvalue(spec, lmax + j, 1) for j in (1, 2, 3))
    else:
        beyond = min(sn_eigenvalue(spec, lmax + j) for j in (1, 2, 3))
    assert beyond >= worst


# ---------------------------------------------------------------- input checks

def test_annulus_spec_validation():
    with pytest.raises(ValueError):
        AnnulusSpec(1, 1.0, 2.0)
    with pytest.raises(ValueError):
        AnnulusSpec(2, 2.0, 1.0)
    with pytest.raises(ValueError):
        AnnulusSpec(2, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"got \(1\.0, inf\)"):
        AnnulusSpec(2, 1.0, math.inf)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        AnnulusSpec(2.0, 1.0, 5.0)
    # a numpy integer dimension is stored as a Python int, so the
    # multiplicities are ints and the spectrum serializes
    spec = AnnulusSpec(np.int64(2), 1.0, 5.0)
    assert spec == AnnulusSpec(2, 1.0, 5.0) and type(spec.n) is int
    lines = enumerate_spectrum(AnnulusSpec(np.int64(3), 1.0, 2.0), "steklov", 4)
    assert lines == enumerate_spectrum(AnnulusSpec(3, 1.0, 2.0), "steklov", 4)
    assert all(type(ln.multiplicity) is int for ln in lines)
    json.dumps([asdict(ln) for ln in lines])


def test_integer_checks_reject_bools():
    # a bool is an int to isinstance, but no dimension, degree or count
    spec = AnnulusSpec(2, 1.0, 5.0)
    for bad in (True, False):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            multiplicity(bad, 1)
        with pytest.raises(ValueError, match="dimension must be an integer"):
            AnnulusSpec(bad, 1.0, 2.0)
        with pytest.raises(ValueError, match="degree must be an integer"):
            multiplicity(2, bad)
        with pytest.raises(ValueError, match="degree must be an integer"):
            sn_eigenvalue(spec, bad)
        with pytest.raises(ValueError, match="k must be an integer"):
            closed_form.check_problem_and_k("steklov", bad)
        with pytest.raises(ValueError, match="k must be an integer"):
            enumerate_spectrum(spec, "steklov", bad)


def test_bad_branch_and_degree():
    spec = AnnulusSpec(2, 1.0, 5.0)
    with pytest.raises(ValueError):
        steklov_eigenvalue(spec, 1, 3)
    with pytest.raises(ValueError):
        steklov_eigenvalue(spec, -1, 1)
    for bad in (1.0, np.float64(1.0), np.int64(-1)):
        with pytest.raises(ValueError, match="degree must be an integer"):
            steklov_eigenvalue(spec, bad, 1)
        with pytest.raises(ValueError, match="degree must be an integer"):
            sn_eigenvalue(spec, bad)
    # numpy integer degrees give what Python ints give
    assert ([steklov_eigenvalue(spec, l, 1) for l in np.arange(4)]
            == [steklov_eigenvalue(spec, l, 1) for l in range(4)])
    assert sn_eigenvalue(spec, np.int64(1)) == sn_eigenvalue(spec, 1)
    for got, want in [(steklov_profile(spec, np.int64(1), 1),
                       steklov_profile(spec, 1, 1)),
                      (sn_profile(spec, np.int64(1)), sn_profile(spec, 1))]:
        assert got == want and type(got.l) is int
    with pytest.raises(ValueError):
        enumerate_spectrum(spec, "dirichlet", 3)
    with pytest.raises(ValueError):
        enumerate_spectrum(spec, "steklov", 0)
    for problem in ("steklov", "steklov_neumann"):
        with pytest.raises(ValueError, match="k must be an integer"):
            enumerate_spectrum(spec, problem, 4.0)
        assert (enumerate_spectrum(spec, problem, np.int64(4))
                == enumerate_spectrum(spec, problem, 4))


@pytest.mark.parametrize("problem", ["steklov", "steklov_neumann"])
def test_enumerate_checks_the_lower_branch_increases(monkeypatch, problem):
    # the cutoff at l_max rests on the lower branch increasing in the
    # degree; a curve that turns down at l = 3 must stop the enumeration
    def turns_down(spec, l, branch=1):
        return float(l if l <= 3 else 6 - l) + (branch - 1) * 100.0

    monkeypatch.setattr(closed_form, "steklov_eigenvalue", turns_down)
    monkeypatch.setattr(closed_form, "sn_eigenvalue", turns_down)
    with pytest.raises(RuntimeError, match=f"{problem} lower .* at l = 3;"):
        enumerate_spectrum(AnnulusSpec(2, 1.0, 5.0), problem, 3)


def test_degree1_profile_picks_each_problems_profile():
    spec = AnnulusSpec(3, 1.0, 2.0)
    assert closed_form.degree1_profile(spec, "steklov") == \
        steklov_profile(spec, 1, 1)
    assert closed_form.degree1_profile(spec, "steklov_neumann") == \
        sn_profile(spec, 1)
    with pytest.raises(ValueError, match="unknown problem 'dirichlet'"):
        closed_form.degree1_profile(spec, "dirichlet")
