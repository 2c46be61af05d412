"""Grid verification of the inequalities behind the annulus spectral ordering.

The ordering of the closed-form annulus eigenvalues (zero, then the degree-1
lower branch with multiplicity n, then the degree-2 lower branch) rests on a
handful of scalar inequalities: positivity of two auxiliary polynomials, two
auxiliary log inequalities in the plane, and monotonicity of the quadratic
forms F and G built from the first eigenfunction's radial profile.  This
module evaluates each claim on dense parameter grids and reports the worst
signed margin; nothing here is a proof, it is a desk-scale falsification
attempt that is expected to come up empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from steklov.closed_form import (
    AnnulusSpec,
    RadialProfile,
    clusters,
    degree1_profile,
    radial_eval,
    sigma_21_closed,
    steklov_eigenvalue,
    enumerate_spectrum,
    multiplicity,
)

#: margins are accepted down to -REL_TOL*(1+|scale|); anything worse is a
#: genuine violation, not rounding
REL_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Parameter grid for the verification scans."""

    n_values: tuple[int, ...] = (2, 3, 4, 5)
    L_values: tuple[float, ...] = (1.1, 1.5, 2.0, 5.0, 10.0)
    r_samples: int = 64
    t_samples: int = 512

    def __post_init__(self):
        if not self.n_values or not self.L_values:
            raise ValueError("grid must be nonempty")
        if any(n < 2 for n in self.n_values):
            raise ValueError("dimensions must be >= 2")
        if not all(1.0 < L < math.inf for L in self.L_values):
            raise ValueError(
                f"ratios must be finite and exceed 1, got {self.L_values}")
        if self.r_samples < 16 or self.t_samples < 16:
            raise ValueError("sample counts must be >= 16")


@dataclass
class VerificationReport:
    """Outcome of one claim scanned over a grid.

    worst_margin is the minimum signed slack of the inequality over the
    grid; the claim passes iff it stays above -REL_TOL*(1+|scale|).
    """

    claim: str
    grid_size: int
    worst_margin: float
    passed: bool
    violations: list = field(default_factory=list)


def _build_report(claim, entries):
    """entries: iterable of (label, margin, scale). Collects violations."""
    worst = math.inf
    violations = []
    count = 0
    for label, margin, scale in entries:
        count += 1
        if margin < worst:
            worst = margin
        if margin < -REL_TOL * (1.0 + abs(scale)):
            violations.append({"point": label, "margin": margin})
    return VerificationReport(claim, count, worst, not violations, violations)


# ------------------------------------------------------- auxiliary polynomials

def poly_h(n: int, t: float) -> float:
    """Degree-(2n+1) auxiliary polynomial whose nonnegativity on t >= 1
    drives the sigma_{2,1} <= sigma_{0,2} comparison for n >= 3.

    h(t) = (n-2)t^{2n+1} - (n+2)t^{2n} + (n-2)t^{n+3} + (3n-2)t^{n+2}
           - 2n t^{n-1} + 4t - 2(n-2),
    with h(1) = 0, h'(1) = 2n^2 - 8.
    """
    if n < 3:
        raise ValueError("defined for dimensions >= 3")
    if t < 1.0:
        raise ValueError("defined for t >= 1")
    return ((n - 2) * t ** (2 * n + 1) - (n + 2) * t ** (2 * n)
            + (n - 2) * t ** (n + 3) + (3 * n - 2) * t ** (n + 2)
            - 2 * n * t ** (n - 1) + 4 * t - 2 * (n - 2))


def aux_log_h(t: float) -> float:
    """(t+1)^2 log t - 2(t^2-1), nonnegative for t >= 1; feeds the planar
    sigma_{0,2} <= sigma_{1,2} comparison."""
    return (t + 1.0) ** 2 * math.log(t) - 2.0 * (t * t - 1.0)


def aux_log_w(t: float) -> float:
    """(t^4-1)(t+1)/(2(1+t^4)) - log t, nonnegative for t >= 1; feeds the
    planar sigma_{2,1} <= sigma_{1,2} comparison."""
    return (t**4 - 1.0) * (t + 1.0) / (2.0 * (1.0 + t**4)) - math.log(t)


def aux_poly_deg2(n: int, L: float) -> float:
    """Auxiliary polynomial for the sigma_{2,1} <= sigma_{1,2} comparison in
    dimensions n >= 3; nonnegative for L >= 1.

    (n^2 L^{2n+6} - 4n L^{2n+5} + 4 L^{2n+4} + (2n^2+16n+8) L^{n+3}
     + 4n L^{n+2} + 4L^2 - 4Ln + n^2) (L^n - 1)^2
    - (L^{2n+2} - (n+1) L^{n+2} + (n+1) L^n - 1)^2 (1+L)^2.
    """
    if n < 3:
        raise ValueError("defined for dimensions >= 3")
    if L < 1.0:
        raise ValueError("defined for L >= 1")
    first = (n**2 * L ** (2 * n + 6) - 4 * n * L ** (2 * n + 5)
             + 4 * L ** (2 * n + 4) + (2 * n**2 + 16 * n + 8) * L ** (n + 3)
             + 4 * n * L ** (n + 2) + 4 * L**2 - 4 * L * n + n**2)
    second = (L ** (2 * n + 2) - (n + 1) * L ** (n + 2)
              + (n + 1) * L**n - 1.0)
    return first * (L**n - 1.0) ** 2 - second**2 * (1.0 + L) ** 2


def _scan_nonneg(fn, lo, hi, samples, label_prefix):
    """Yield (label, margin, scale) for fn >= 0 on [lo, hi]: dense samples
    plus refined local minima bracketed by derivative sign changes."""
    ts = np.linspace(lo, hi, samples)
    vals = np.array([fn(t) for t in ts])
    scale = float(np.max(np.abs(vals)))
    for t, v in zip(ts, vals):
        yield f"{label_prefix} t={t:.6g}", float(v), scale
    # refine interior local minima: v[i] below both neighbours
    interior = np.nonzero((vals[1:-1] <= vals[:-2])
                          & (vals[1:-1] <= vals[2:]))[0] + 1
    # imported here, its one use, so that importing steklov loads no
    # scipy.optimize
    from scipy.optimize import minimize_scalar

    for i in interior:
        res = minimize_scalar(fn, bounds=(ts[i - 1], ts[i + 1]),
                              method="bounded",
                              options={"xatol": 1e-12 * (hi - lo)})
        yield (f"{label_prefix} local-min t={res.x:.6g}",
               float(res.fun), scale)


def _scan_dimensions(fn, grid, name):
    """Scan entries for fn(n, t) >= 0 over n in {3..8} together with the
    grid's n >= 3 values, and t in [1, 10]."""
    ns = sorted(set(range(3, 9)) | {n for n in grid.n_values if n >= 3})
    entries = []
    for n in ns:
        entries.extend(_scan_nonneg(lambda t, n=n: fn(n, t), 1.0, 10.0,
                                    grid.t_samples, f"{name} n={n}"))
    return entries


def poly_positivity_report(grid: GridSpec) -> VerificationReport:
    """poly_h(n, t) >= 0 over n in {3..8} (or the grid's n >= 3 values,
    whichever is larger) and t in [1, 10]."""
    return _build_report("poly_h_nonneg",
                         _scan_dimensions(poly_h, grid, "poly_h"))


def aux_log_report(grid: GridSpec) -> VerificationReport:
    """The two planar auxiliary log inequalities on t in [1, 10]."""
    entries = list(_scan_nonneg(aux_log_h, 1.0, 10.0, grid.t_samples,
                                "aux_log_h"))
    entries.extend(_scan_nonneg(aux_log_w, 1.0, 10.0, grid.t_samples,
                                "aux_log_w"))
    return _build_report("aux_log_nonneg", entries)


def aux_poly_deg2_report(grid: GridSpec) -> VerificationReport:
    """aux_poly_deg2(n, L) >= 0 over n in {3..8}, L in [1, 10]."""
    return _build_report("aux_poly_deg2_nonneg",
                         _scan_dimensions(aux_poly_deg2, grid,
                                          "aux_poly_deg2"))


# ----------------------------------------------------------- F/G monotonicity

def profile_F(profile: RadialProfile, r):
    """F(r) = f'(r)^2 + (n-1) f(r)^2 / r^2 for a degree-1 radial profile."""
    f, df = radial_eval(profile, r)
    return df**2 + (profile.n - 1) * f**2 / np.asarray(r, float) ** 2


def profile_G(profile: RadialProfile, r):
    """G(r) = 2 f f' + (n-1) f^2 / r for a degree-1 radial profile."""
    f, df = radial_eval(profile, r)
    return 2.0 * f * df + (profile.n - 1) * f**2 / np.asarray(r, float)


def profile_F_deriv(profile: RadialProfile, r):
    """Closed-form F'(r) = -2n^2(n-1) c^2 / (R1^3 t^{2n+1}), t = r/R1.

    F collapses to n + n(n-1) c^2 t^{-2n} (in units of 1/R1^2) because the
    cross terms of f'(r)^2 and (n-1)f^2/r^2 cancel for f = t + c t^{1-n};
    the derivative is manifestly <= 0.
    """
    if profile.l != 1:
        raise ValueError("F/G closed forms hold for degree-1 profiles")
    n, c = profile.n, profile.coef
    t = np.asarray(r, float) / profile.r_inner
    # negative powers of t >= 1 underflow where positive ones overflow
    return (-2.0 * n**2 * (n - 1) * c**2 * t ** -(2 * n + 1)
            / profile.r_inner**3)


def profile_G_deriv(profile: RadialProfile, r):
    """Closed-form G'(r) = ((n+1) - 2(n-1)c/t^n + (n-1)(2n-1)c^2/t^{2n})/R1^2.

    As a quadratic in x = c t^{-n} its discriminant is
    4(n-1)^2 - 4(n-1)(2n-1)(n+1) = -8n^2(n-1) < 0, so G' > 0 everywhere.
    """
    if profile.l != 1:
        raise ValueError("F/G closed forms hold for degree-1 profiles")
    n, c = profile.n, profile.coef
    t = np.asarray(r, float) / profile.r_inner
    return ((n + 1.0) - 2.0 * (n - 1) * c * t**-n
            + (n - 1) * (2 * n - 1) * c**2 * t ** -(2 * n)) / profile.r_inner**2


def monotone_F_G(spec: AnnulusSpec, problem: str,
                 r_grid) -> VerificationReport:
    """F nonincreasing and G nondecreasing along r_grid, for the degree-1
    profile of the given problem, plus sign checks of the closed-form
    derivatives at every grid point."""
    r = np.asarray(sorted(r_grid), dtype=float)
    if r.size < 2:
        raise ValueError("need at least two radii")
    prof = degree1_profile(spec, problem)
    F = profile_F(prof, r)
    G = profile_G(prof, r)
    dF = profile_F_deriv(prof, r)
    dG = profile_G_deriv(prof, r)
    scale_F = float(np.max(np.abs(F)))
    scale_G = float(np.max(np.abs(G)))
    entries = []
    for i in range(r.size - 1):
        entries.append((f"F({r[i]:.6g})>=F({r[i + 1]:.6g})",
                        float(F[i] - F[i + 1]), scale_F))
        entries.append((f"G({r[i + 1]:.6g})>=G({r[i]:.6g})",
                        float(G[i + 1] - G[i]), scale_G))
    for i in range(r.size):
        entries.append((f"-F'({r[i]:.6g})>=0", float(-dF[i]),
                        float(np.max(np.abs(dF)))))
        entries.append((f"G'({r[i]:.6g})>=0", float(dG[i]),
                        float(np.max(np.abs(dG)))))
    return _build_report(f"monotone_F_G_{problem}", entries)


# ------------------------------------------------------------ spectral order

def eigenvalue_order_check(grid: GridSpec) -> VerificationReport:
    """Ordering of the low closed-form eigenvalues over the grid.

    At every (n, L): sigma_{1,1} <= sigma_{0,2}; sigma_{2,1} <= sigma_{0,2};
    sigma_{2,1} <= sigma_{1,2}; for n = 2 also sigma_{0,2} <= sigma_{1,2};
    and l -> sigma_{l,1} strictly increasing up to l = 20.
    """
    entries = []
    for n in grid.n_values:
        for L in grid.L_values:
            spec = AnnulusSpec(n, 1.0, L)
            s02 = steklov_eigenvalue(spec, 0, 2)
            s11 = steklov_eigenvalue(spec, 1, 1)
            s12 = steklov_eigenvalue(spec, 1, 2)
            s21 = steklov_eigenvalue(spec, 2, 1)
            scale = s12
            tag = f"n={n} L={L}"
            entries.append((f"{tag} s11<=s02", s02 - s11, scale))
            entries.append((f"{tag} s21<=s02", s02 - s21, scale))
            entries.append((f"{tag} s21<=s12", s12 - s21, scale))
            if n == 2:
                entries.append((f"{tag} s02<=s12", s12 - s02, scale))
            prev = 0.0
            for l in range(1, 21):
                cur = steklov_eigenvalue(spec, l, 1)
                entries.append((f"{tag} s({l},1)>s({l - 1},1)", cur - prev,
                                scale))
                prev = cur
    return _build_report("eigenvalue_order", entries)


def theorem21_bruteforce(spec: AnnulusSpec) -> bool:
    """Brute-force check of the ordered-spectrum structure.

    Enumerates the first 3n+6 Steklov eigenvalues, groups them into distinct
    values (relative gap 1e-12), and confirms: the first distinct nonzero
    value is sigma_{1,1} with total multiplicity n, and the second distinct
    nonzero value equals sigma_21_closed to 1e-10 relative with the
    degree-2 harmonic multiplicity (n+2)(n-1)/2.
    """
    n = spec.n
    lines = enumerate_spectrum(spec, "steklov", 3 * n + 6)
    groups = [[lines[i] for i in group]
              for group in clusters([ln.value for ln in lines], 1e-12)]
    # the zero mode is exactly 0.0; at large ratios sigma_{1,1} lies far
    # below any absolute threshold
    nonzero = [g for g in groups if g[0].value != 0.0]
    if len(nonzero) < 2:
        return False
    first, second = nonzero[0], nonzero[1]
    s11 = steklov_eigenvalue(spec, 1, 1)
    if abs(first[0].value - s11) > 1e-12 * s11:
        return False
    if sum(ln.multiplicity for ln in first) != n:
        return False
    s21 = sigma_21_closed(spec)
    if abs(second[0].value - s21) > 1e-10 * s21:
        return False
    if sum(ln.multiplicity for ln in second) != multiplicity(n, 2):
        return False
    return True


def spectrum_structure_report(grid: GridSpec) -> VerificationReport:
    """`theorem21_bruteforce` over the grid: margin 0 where it holds, else -1."""
    entries = []
    for n in grid.n_values:
        for L in grid.L_values:
            ok = theorem21_bruteforce(AnnulusSpec(n, 1.0, L))
            entries.append((f"n={n} L={L}", 0.0 if ok else -1.0, 0.0))
    return _build_report("spectrum_structure_bruteforce", entries)
