"""Inequality scans: frozen point values, oracle cross-checks, grid passes."""

from __future__ import annotations

import numpy as np
import pytest

from steklov import AnnulusSpec, analysis, sn_profile, steklov_profile
from steklov.analysis import (
    GridSpec,
    aux_log_h,
    aux_log_w,
    aux_poly_deg2,
    aux_poly_deg2_report,
    aux_log_report,
    eigenvalue_order_check,
    monotone_F_G,
    poly_h,
    poly_positivity_report,
    profile_F,
    profile_F_deriv,
    profile_G,
    profile_G_deriv,
    spectrum_structure_report,
    theorem21_bruteforce,
)


def poly_h_coeffs(n):
    """Coefficient array of poly_h for np.polynomial evaluation (oracle)."""
    c = np.zeros(2 * n + 2)
    c[2 * n + 1] = n - 2
    c[2 * n] = -(n + 2)
    c[n + 3] += n - 2
    c[n + 2] += 3 * n - 2
    c[n - 1] += -2 * n
    c[1] += 4
    c[0] += -2 * (n - 2)
    return c


def test_poly_h_frozen_values():
    assert poly_h(3, 1.0) == 0.0
    assert poly_h(3, 2.0) == 78.0
    # slope at 1 by central difference -> 2n^2 - 8
    for n in (3, 4, 6):
        d = 1e-6
        slope = (poly_h(n, 1 + d) - poly_h(n, 1.0)) / d
        assert slope == pytest.approx(2 * n**2 - 8, rel=1e-4)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_poly_h_matches_polynomial_oracle(n):
    coeffs = poly_h_coeffs(n)
    for t in np.linspace(1.0, 10.0, 37):
        expected = float(np.polynomial.polynomial.polyval(t, coeffs))
        assert poly_h(n, t) == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_poly_h_rejects_bad_args():
    with pytest.raises(ValueError):
        poly_h(2, 2.0)
    with pytest.raises(ValueError):
        poly_h(3, 0.5)


def test_aux_poly_deg2_frozen_value():
    # n=3, L=2: 21505*49 - 159^2*9 = 1053745 - 227529
    assert aux_poly_deg2(3, 2.0) == pytest.approx(826216.0, rel=1e-12)
    assert aux_poly_deg2(3, 1.0) == 0.0


def test_aux_log_endpoints():
    assert aux_log_h(1.0) == 0.0
    assert aux_log_w(1.0) == 0.0
    assert aux_log_h(3.0) > 0.0
    assert aux_log_w(3.0) > 0.0


def test_positivity_reports_pass():
    grid = GridSpec()
    for report in (poly_positivity_report(grid), aux_log_report(grid),
                   aux_poly_deg2_report(grid)):
        assert report.passed, report.violations
        assert report.worst_margin >= -1e-9
        assert report.violations == []
        assert report.grid_size > grid.t_samples


# ----------------------------------------------------------- F/G monotonicity

def test_F_frozen_values():
    # steklov, n=2, L=5: F(1) > F(5)
    prof = steklov_profile(AnnulusSpec(2, 1.0, 5.0), 1, 1)
    assert profile_F(prof, 1.0) > profile_F(prof, 5.0)
    # mixed problem, n=2, R1=1: F(1) = 2 + 2/1 = 4
    snp = sn_profile(AnnulusSpec(2, 1.0, 5.0), 1)
    assert profile_F(snp, 1.0) == pytest.approx(4.0, rel=1e-13)


@pytest.mark.parametrize("problem", ["steklov", "steklov_neumann"])
@pytest.mark.parametrize("n,L", [(2, 5.0), (3, 2.0), (5, 1.5)])
def test_closed_form_derivatives_match_finite_differences(problem, n, L):
    spec = AnnulusSpec(n, 1.0, L)
    prof = (steklov_profile(spec, 1, 1) if problem == "steklov"
            else sn_profile(spec, 1))
    for r in np.linspace(1.05, L, 9):
        d = 1e-6 * r
        fd_F = (profile_F(prof, r + d) - profile_F(prof, r - d)) / (2 * d)
        fd_G = (profile_G(prof, r + d) - profile_G(prof, r - d)) / (2 * d)
        cf_F = profile_F_deriv(prof, r)
        cf_G = profile_G_deriv(prof, r)
        assert fd_F == pytest.approx(cf_F, rel=1e-5, abs=1e-8)
        assert fd_G == pytest.approx(cf_G, rel=1e-5, abs=1e-8)
        assert cf_F <= 0.0
        assert cf_G >= 0.0


@pytest.mark.parametrize("problem", ["steklov", "steklov_neumann"])
@pytest.mark.parametrize("n,L", [(2, 5.0), (3, 2.0), (5, 30.0), (8, 10.0)])
def test_closed_form_derivatives_match_the_positive_power_forms(problem, n, L):
    spec = AnnulusSpec(n, 1.0, L)
    prof = (steklov_profile(spec, 1, 1) if problem == "steklov"
            else sn_profile(spec, 1))
    c, t = prof.coef, np.linspace(1.0, L, 17)
    dF = -2.0 * n**2 * (n - 1) * c**2 / t ** (2 * n + 1)
    dG = ((n + 1.0) - 2.0 * (n - 1) * c / t**n
          + (n - 1) * (2 * n - 1) * c**2 / t ** (2 * n))
    for got, want in ((profile_F_deriv(prof, t), dF),
                      (profile_G_deriv(prof, t), dG)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_monotone_F_G_reports():
    for problem in ("steklov", "steklov_neumann"):
        for n, L in [(2, 5.0), (3, 2.0), (4, 10.0)]:
            spec = AnnulusSpec(n, 1.0, L)
            r_grid = np.linspace(1.0, L, 64)
            report = monotone_F_G(spec, problem, r_grid)
            assert report.passed, report.violations
    # left endpoint is the G minimum on any grid
    spec = AnnulusSpec(2, 1.0, 5.0)
    prof = steklov_profile(spec, 1, 1)
    G = profile_G(prof, np.linspace(1.0, 5.0, 64))
    assert np.all(G >= G[0])


def test_monotone_F_G_scaled_radii():
    # physical-radius annulus: monotonicity is scale invariant
    spec = AnnulusSpec(3, 2.0, 9.0)
    report = monotone_F_G(spec, "steklov", np.linspace(2.0, 9.0, 48))
    assert report.passed


# ------------------------------------------------------------- order checking

def test_eigenvalue_order_check_default_grid():
    report = eigenvalue_order_check(GridSpec())
    assert report.passed, report.violations
    assert report.worst_margin >= 0.0


def test_order_frozen_margin():
    # n=2, L=5: sigma_{0,2} - sigma_{2,1} = 0.745602 - 0.398088
    spec = AnnulusSpec(2, 1.0, 5.0)
    from steklov import sigma_21_closed, steklov_eigenvalue
    margin = steklov_eigenvalue(spec, 0, 2) - sigma_21_closed(spec)
    assert margin == pytest.approx(0.34751352410692826, rel=1e-10)


@pytest.mark.parametrize("n,L", [(2, 5.0), (3, 2.0), (2, 1.01), (5, 10.0),
                                 (4, 1.1), (2, 1e12), (2, 1e100)])
def test_theorem21_bruteforce(n, L):
    assert theorem21_bruteforce(AnnulusSpec(n, 1.0, L))


def test_spectrum_structure_report(monkeypatch):
    grid = GridSpec(n_values=(2, 3), L_values=(1.5, 5.0))
    report = spectrum_structure_report(grid)
    assert (report.claim, report.grid_size) == ("spectrum_structure_bruteforce", 4)
    assert report.passed and report.worst_margin == 0.0 and not report.violations
    monkeypatch.setattr(analysis, "theorem21_bruteforce", lambda spec: spec.n != 3)
    report = spectrum_structure_report(grid)
    assert not report.passed and report.worst_margin == -1.0
    assert report.violations == [{"point": "n=3 L=1.5", "margin": -1.0},
                                 {"point": "n=3 L=5.0", "margin": -1.0}]


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n_values=())
    with pytest.raises(ValueError):
        GridSpec(L_values=(0.9,))
    with pytest.raises(ValueError, match="finite"):
        GridSpec(L_values=(1.5, float("inf")))
    with pytest.raises(ValueError):
        GridSpec(r_samples=4)


def test_scan_refines_an_interior_local_minimum():
    """No sample lands on the bottom of (t - 2.3)^2 - 0.01; the bounded
    refinement between the lowest sample's neighbours finds it."""
    entries = list(analysis._scan_nonneg(lambda t: (t - 2.3) ** 2 - 0.01,
                                         1.0, 10.0, 64, "dip"))
    refined = [e for e in entries if "local-min" in e[0]]
    assert len(entries) == 65 and len(refined) == 1
    label, margin, _ = refined[0]
    assert label == "dip local-min t=2.3"
    assert margin == pytest.approx(-0.01, abs=1e-12)
    assert min(m for _, m, _ in entries[:64]) > margin
