"""Exact spectra of the Steklov and mixed Steklov-Neumann problems on annuli.

Separation of variables on the spherical shell {r_inner < |x| < r_outer} in
R^n reduces both eigenvalue problems to one scalar ODE per spherical-harmonic
degree l.  Every routine here works with that reduction: per-degree
eigenvalues in closed form, spherical-harmonic multiplicities, radial
profiles of the eigenfunctions, and enumeration of the ordered spectrum.

Conventions.  The spectral parameter sits on the boundary condition
du/dnu = sigma * u, with the outward normal; on the inner sphere of the
mixed problem the condition is du/dnu = 0.  Eigenvalues scale like 1/length,
so everything is computed on the normalized annulus (1, L), L the radii
ratio, and divided by r_inner afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

PROBLEMS = ("steklov", "steklov_neumann")


@dataclass(frozen=True)
class AnnulusSpec:
    """Concentric spherical shell in R^n with radii 0 < r_inner < r_outer."""

    n: int
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))  # frozen; a numpy n too
        if not (0.0 < self.r_inner < self.r_outer < math.inf):
            raise ValueError(
                f"radii must satisfy 0 < r_inner < r_outer < inf, got "
                f"({self.r_inner}, {self.r_outer})"
            )

    @property
    def ratio(self) -> float:
        """Radii ratio L = r_outer / r_inner > 1."""
        return self.r_outer / self.r_inner


@dataclass(frozen=True)
class SpectralLine:
    """One eigenvalue with its spherical-harmonic degree and multiplicity."""

    l: int
    branch: int
    value: float
    multiplicity: int


def multiplicity(n: int, l: int) -> int:
    """Dimension of the space of spherical harmonics of degree l on S^{n-1}.

    dim H_l = (2l + n - 2) / (l + n - 2) * C(l + n - 2, l) for l >= 1,
    and 1 for l = 0.  The division is exact in the integers.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    l = _check_degree(l)
    if l == 0:
        return 1
    num = (2 * l + n - 2) * comb(l + n - 2, l)
    den = l + n - 2
    assert num % den == 0
    return num // den


def _check_degree(l):
    """l as a Python int; ValueError unless it is an integer >= 0."""
    if not isinstance(l, (int, np.integer)) or l < 0:
        raise ValueError(f"degree must be an integer >= 0, got {l}")
    return int(l)


def _steklov_normalized(n: int, L: float, l: int, branch: int) -> float:
    """Steklov eigenvalue of degree l on the normalized annulus (1, L);
    OverflowError when its quadratic overflows."""
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    if l == 0 and n == 2:
        # logarithmic radial solution 1 - s*log r
        return 0.0 if branch == 1 else (1.0 + L) / (L * math.log(L))
    # Quadratic scaled by L^-(2l+n-2) so large l and n cannot overflow; at
    # l = 0 its constant term vanishes and the roots are 0 and -b/a.
    m = 2 * l + n - 2
    q = L ** (-m)
    a = L * (1.0 - q)
    b = -(l + (l + n - 2) * L + (l * L + (l + n - 2)) * q)
    c = l * (l + n - 2) * (1.0 - q)
    disc = b * b - 4.0 * a * c
    if not math.isfinite(disc):
        raise OverflowError(
            f"closed form overflows at radii ratio {L:.6g} (degree {l})")
    if not disc > 0.0:
        raise ArithmeticError(
            f"closed form: discriminant {disc:.3e} is not positive at "
            f"radii ratio {L:.6g} (degree {l})")
    root2 = (-b + math.sqrt(disc)) / (2.0 * a)  # -b > 0: no cancellation
    if branch == 2:
        return root2
    return c / (a * root2)


def steklov_eigenvalue(spec: AnnulusSpec, l: int, branch: int) -> float:
    """Degree-l Steklov eigenvalue of the annulus, branch 1 (lower) or 2.

    For l = 0 branch 1 is the zero mode.  Branch 1 roots come from the
    stable pairing root1 = C / (A * root2) so no digits are lost to
    cancellation for any ratio.
    """
    l = _check_degree(l)
    return _steklov_normalized(spec.n, spec.ratio, l, branch) / spec.r_inner


def sigma_21_closed(spec: AnnulusSpec) -> float:
    """Lower degree-2 Steklov eigenvalue in explicit radical form.

    Equals steklov_eigenvalue(spec, 2, 1); kept as an independent closed
    form because the ordered spectrum's second distinct nonzero value is
    exactly this number.  With t = L^{n+2} it is
    4n(t-1)/(P + sqrt(P^2 - 8Ln(t-1)^2)), P = t(2 + Ln) + n + 2L, which
    avoids the subtractive cancellation of the textbook
    (P - sqrt(...))/(2L(t-1)) arrangement.  Evaluated divided through by
    tL, with w = 1 - 1/t from expm1, so that no ratio overflows.
    """
    n, L = spec.n, spec.ratio
    w = -math.expm1(-(n + 2) * math.log(L))
    p = n + 2.0 / L + (n / L + 2.0) * (1.0 - w)
    disc = p * p - 8.0 * n * w * w / L
    if not disc > 0.0:
        raise ArithmeticError(
            f"sigma_21_closed: discriminant {disc:.3e} is not positive at "
            f"n={n}, radii ratio {L:.6g}")
    return 4.0 * n * w / (L * (p + math.sqrt(disc))) / spec.r_inner


def sn_eigenvalue(spec: AnnulusSpec, l: int) -> float:
    """Degree-l eigenvalue of the mixed problem: spectral condition on the
    outer sphere, Neumann on the inner.

    mu_l = l(l+n-2) (rho^{2l+n-2} - 1) /
           ( r_outer ( (l+n-2) rho^{2l+n-2} + l ) ),   rho = r_outer/r_inner.

    One branch per degree; mu_0 = 0.
    """
    l = _check_degree(l)
    if l == 0:
        return 0.0
    n = spec.n
    rho = spec.ratio
    m = 2 * l + n - 2
    q = rho ** (-m)  # scaled by rho^-m to keep large degrees finite
    return l * (l + n - 2) * (1.0 - q) / (spec.r_outer * ((l + n - 2) + l * q))


@dataclass(frozen=True)
class RadialProfile:
    """Radial factor f(r) of a separated eigenfunction f(r) * Y_l(omega).

    Normalized so the r^l coefficient is 1 (the constant solution for the
    zero modes).  `coef` multiplies the decaying solution r^-(l+n-2); for
    the planar l = 0 Steklov mode the second solution is log r instead and
    `log_mode` is set.  Radii and eigenvalue are in physical units.
    """

    n: int
    l: int
    r_inner: float
    eigenvalue: float
    coef: float
    log_mode: bool = False


def steklov_profile(spec: AnnulusSpec, l: int, branch: int) -> RadialProfile:
    """Radial profile of the (l, branch) Steklov eigenfunction.

    In the normalized variable t = r/r_inner the profile is
    t^l + c * t^-(l+n-2) with c = (l + s)/(l + n - 2 - s), where s is the
    normalized eigenvalue.  That inner-condition arrangement of c is exact
    for branch 1 (s stays strictly below l + n - 2: the quadratic is
    negative there, so the roots straddle it) but loses all digits on
    branch 2 for large ratios, where s approaches l + n - 2 from above.
    Branch 2 therefore uses the equivalent arrangement solved from the
    outer condition, c = -L^{2l+n-2} (sL - l)/(sL + l + n - 2), whose
    denominator never cancels.  The parametrization breaks down only if s
    hits l + n - 2 exactly; that is signalled rather than papered over.
    """
    l = _check_degree(l)
    sigma = steklov_eigenvalue(spec, l, branch)
    s_norm = sigma * spec.r_inner
    n = spec.n
    if l == 0 and n == 2:
        # f(t) = 1 - s*log(t); covers both the zero mode (s = 0) and branch 2
        return RadialProfile(n, l, spec.r_inner, sigma, -s_norm, log_mode=True)
    p = l + n - 2
    if branch == 1:
        den = p - s_norm
        if den <= 1e-13 * p:
            raise ValueError(
                f"radial profile undefined: eigenvalue coincides with "
                f"l+n-2 = {p} (degree {l}, branch {branch})")
        coef = (l + s_norm) / den
    else:
        L = spec.ratio
        coef = -(L ** (2 * l + n - 2)) * (s_norm * L - l) / (s_norm * L + p)
    return RadialProfile(n, l, spec.r_inner, sigma, coef)


def sn_profile(spec: AnnulusSpec, l: int) -> RadialProfile:
    """Radial profile of the degree-l mixed-problem eigenfunction.

    f(r) = r^l + l r_inner^{2l+n-2} / ((l+n-2) r^{l+n-2}) in physical r;
    its derivative vanishes at r_inner by construction.  Degree 0 is the
    constant zero mode.  Stored in the normalized variable t = r/r_inner,
    where the coefficient is simply l/(l+n-2), and 0 at degree 0.
    """
    l = _check_degree(l)
    return RadialProfile(spec.n, l, spec.r_inner, sn_eigenvalue(spec, l),
                         l / (l + spec.n - 2) if l else 0.0)


def degree1_profile(spec: AnnulusSpec, problem: str) -> RadialProfile:
    """Radial profile of the first nonzero (degree-1) eigenfunction."""
    if problem == "steklov":
        return steklov_profile(spec, 1, 1)
    if problem == "steklov_neumann":
        return sn_profile(spec, 1)
    raise ValueError(f"unknown problem {problem!r}")


def radial_eval(profile: RadialProfile, r):
    """Evaluate (f(r), f'(r)) of a radial profile at r >= r_inner.

    Accepts scalars or arrays.  Derivative is with respect to physical r.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < profile.r_inner * (1.0 - 1e-12)):
        raise ValueError("radius below the inner radius of the annulus")
    t = r / profile.r_inner
    l, n, c = profile.l, profile.n, profile.coef
    if profile.log_mode:
        # f = 1 + c*log(t), relevant only for l = 0 in the plane
        val = 1.0 + c * np.log(t)
        der = c / t / profile.r_inner
    else:
        p = l + n - 2
        val = t**l + c * t ** (-p)
        der = (l * t ** (l - 1) - p * c * t ** (-p - 1)) / profile.r_inner
    if val.ndim == 0:
        return float(val), float(der)
    return val, der


def check_problem_and_k(problem, k):
    """ValueError unless `problem` is one of PROBLEMS and k an integer >= 1:
    the checks on a request for k eigenvalues that need no domain."""
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")


def enumerate_spectrum(spec: AnnulusSpec, problem: str,
                       k: int) -> list[SpectralLine]:
    """First k eigenvalues (counted with multiplicity) in ascending order.

    Returns the per-degree lines whose cumulative multiplicity first
    reaches k, sorted by value, from degrees up to l_max = max(4, 2k): the
    lower branch is increasing in l (checked for both problems), so
    degrees below k give k values below every degree beyond l_max.  Raises
    RuntimeError if that tail bound fails.
    """
    check_problem_and_k(problem, k)
    l_max = max(4, 2 * k)
    lines = []
    for l in range(l_max + 1):
        if problem == "steklov":
            values = [steklov_eigenvalue(spec, l, 1),
                      steklov_eigenvalue(spec, l, 2)]
        else:
            values = [sn_eigenvalue(spec, l)]
        if l > 1 and values[0] <= lower:
            raise RuntimeError(
                f"{problem} lower eigenvalue curve is not increasing in the "
                f"degree at l = {l - 1}; enumeration cutoff would be unsound")
        lower = values[0]
        lines += [SpectralLine(l, branch, value, multiplicity(spec.n, l))
                  for branch, value in enumerate(values, 1)]
    lines.sort(key=lambda ln: ln.value)
    total = 0
    for cut, ln in enumerate(lines):
        total += ln.multiplicity
        if total >= k:
            break
    if lower < lines[cut].value:
        raise RuntimeError(
            f"degrees above {l_max} may hold one of the first {k} eigenvalues")
    return lines[:cut + 1]


def clusters(values, rtol):
    """Indices of the ascending `values` grouped into near-multiple clusters.

    Adjacent values whose gap is at most `rtol` relative to the larger
    magnitude land in one group.  With a tight `rtol` this groups the
    distinct closed-form values; with a loose one it recovers the
    multiplicities that a discretization splits by about the squared
    mesh size.
    """
    groups = []
    for i in range(len(values)):
        if i and (values[i] - values[i - 1]
                  <= rtol * max(abs(values[i - 1]), abs(values[i]))):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups
