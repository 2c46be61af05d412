"""Experiment drivers: golden tables, hole-position sweeps, closed-form
lemma bundles, integral-identity quadrature reports, convergence studies.

Everything here composes the lower-level modules (closed form, analysis,
meshing, quadrature, FEM) into the studies the package exists to run, and
returns plain-data results that serialize to JSON or CSV.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from steklov.analysis import (
    GridSpec,
    aux_log_report,
    aux_poly_deg2_report,
    eigenvalue_order_check,
    monotone_F_G,
    poly_positivity_report,
    spectrum_structure_report,
)
from steklov.closed_form import (PROBLEMS, AnnulusSpec, check_problem,
                                 clusters, degree1_profile, enumerate_spectrum)
from steklov.domains import Disk, DomainSpec, shape_dict
from steklov.fem_solver import (CLUSTER_RTOL, factor_stiffness, solve,
                                solve_on_mesh)
from steklov.golden import HOLE_RADIUS, QUANTITIES, golden_table
from steklov.meshing import triangulate
from steklov.quadrature import boundary_rule, radial_grams, volume_rule

MONOTONE_SLACK = 1e-3
SWEEP_PATHS = ("axis-x", "axis-y", "diagonal")


def _fmt(x):
    return f"{x:.6g}"


def _csv_lines(rows, columns, values):
    """CSV header and lines of `rows`: the cells that locate each row (its
    domain name, or its hole center and that center's distance from the
    origin), then the numbers `values(row)` under the names `columns`."""
    def locate(row):
        if "domain" in row:
            return {"domain": row["domain"]}
        (t1, t2), distance = row["center"], row["distance"]
        return {"t1": _fmt(t1), "t2": _fmt(t2), "distance": _fmt(distance)}

    lines = [",".join([*locate(rows[0]), *columns])]
    lines += [",".join([*locate(row).values(), *map(_fmt, values(row))])
              for row in rows]
    return lines


def four_eigenvalues(mesh):
    """(sigma1, sigma2, mu1, mu2) on one mesh, both problems solved
    against one stiffness factorization."""
    stiffness = factor_stiffness(mesh)
    st = solve_on_mesh(mesh, "steklov", 3, stiffness=stiffness)
    sn = solve_on_mesh(mesh, "steklov_neumann", 3, stiffness=stiffness)
    return {
        "sigma1": float(st.eigenvalues[1]),
        "sigma2": float(st.eigenvalues[2]),
        "mu1": float(sn.eigenvalues[1]),
        "mu2": float(sn.eigenvalues[2]),
    }


@dataclass(frozen=True)
class TableArtifact:
    """One reproduced golden table: golden values, computed values, and the
    relative deviation |computed - golden| / golden for every entry."""

    table_id: int
    kind: str
    h: float
    rows: tuple

    def max_deviation(self):
        return max(
            dev for row in self.rows for dev in row["deviation"].values()
        )

    def as_dict(self):
        return {
            "table_id": self.table_id,
            "kind": self.kind,
            "h": self.h,
            "rows": [dict(row) for row in self.rows],
            "max_deviation": self.max_deviation(),
        }

    def to_csv(self):
        quantities = [q for q in QUANTITIES if q in self.rows[0]["golden"]]
        parts = ("golden", "computed", "deviation")
        lines = _csv_lines(
            self.rows, [f"{q}_{p}" for q in quantities for p in parts],
            lambda row: [row[p][q] for q in quantities for p in parts])
        return "\n".join(lines) + "\n"


def _compare(golden, computed):
    """Golden and computed values of the golden quantities, with the
    relative deviation of each."""
    return {
        "golden": dict(golden),
        "computed": {q: computed[q] for q in golden},
        "deviation": {
            q: abs(computed[q] - golden[q]) / golden[q] for q in golden
        },
    }


def reproduce_table(table_id, h):
    """Recompute one golden table with the FEM pipeline at mesh size h."""
    table = golden_table(table_id)
    rows = []
    if table["kind"] == "comparison":
        for name, spec in table["domains"].items():
            computed = four_eigenvalues(triangulate(spec, h))
            rows.append({"domain": name,
                         **_compare(table["values"][name], computed)})
    else:
        sweep = run_sweep(SweepSpec(table["outer"], HOLE_RADIUS, table["path"],
                                    table["centers"], h))
        for idx, row in enumerate(sweep.rows):
            golden = {q: table["values"][q][idx] for q in QUANTITIES}
            rows.append({"center": row["center"], "distance": row["distance"],
                         **_compare(golden, row)})
    return TableArtifact(table_id, table["kind"], float(h), tuple(rows))


@dataclass(frozen=True)
class SweepSpec:
    """A hole-position sweep: fixed outer shape and hole radius, explicit
    list of hole centers along a path, one mesh size."""

    outer: object
    hole_radius: float
    path: str
    centers: tuple
    h: float

    def __post_init__(self):
        if self.path not in SWEEP_PATHS:
            raise ValueError(f"path must be one of {SWEEP_PATHS}")
        if not self.centers:
            raise ValueError("sweep needs at least one center")
        centers = tuple(DomainSpec(self.outer, c, self.hole_radius).hole_center
                        for c in self.centers)
        object.__setattr__(self, "centers", centers)

    def domain(self, index):
        return DomainSpec(self.outer, self.centers[index], self.hole_radius)


def _monotonicity(values):
    """'nonincreasing' / 'nondecreasing' / 'both' / 'neither' with relative
    slack MONOTONE_SLACK absorbing discretization noise between points."""
    pairs = list(zip(values, values[1:]))
    noninc = all(b <= a * (1.0 + MONOTONE_SLACK) for a, b in pairs)
    nondec = all(b >= a * (1.0 - MONOTONE_SLACK) for a, b in pairs)
    if noninc and nondec:
        return "both"
    if noninc:
        return "nonincreasing"
    if nondec:
        return "nondecreasing"
    return "neither"


@dataclass(frozen=True)
class SweepResult:
    """Per-center eigenvalues plus monotonicity verdicts along the path."""

    sweep: SweepSpec
    rows: tuple
    verdicts: dict
    mu_pair_clustered: tuple = None

    def as_dict(self):
        out = {
            "outer": shape_dict(self.sweep.outer),
            "hole_radius": self.sweep.hole_radius,
            "path": self.sweep.path,
            "h": self.sweep.h,
            "rows": [dict(row) for row in self.rows],
            "verdicts": dict(self.verdicts),
        }
        if self.mu_pair_clustered is not None:
            out["mu_pair_clustered"] = list(self.mu_pair_clustered)
            out["mu_multiplicity_two"] = all(self.mu_pair_clustered)
        return out

    def to_csv(self):
        lines = _csv_lines(self.rows, QUANTITIES,
                           lambda row: [row[q] for q in QUANTITIES])
        for q in QUANTITIES:
            lines.append(f"# verdict,{q},{self.verdicts[q]}")
        if self.mu_pair_clustered is not None:
            flag = all(self.mu_pair_clustered)
            lines.append(f"# mu_multiplicity_two,{str(flag).lower()}")
        return "\n".join(lines) + "\n"


def run_sweep(sweep):
    """Solve both problems at every hole center and judge monotonicity.

    Eigenvalues are listed per center together with the center's distance
    from the origin; each quantity gets a path verdict.  When the outer
    shape is round (a disk, or an ellipse with equal semi-axes) the result
    also reports whether the first two mixed eigenvalues stay within the
    cluster tolerance at every center (the double-eigenvalue observation).
    """
    rows = []
    for index, center in enumerate(sweep.centers):
        values = four_eigenvalues(triangulate(sweep.domain(index), sweep.h))
        rows.append({
            "center": list(center),
            "distance": math.hypot(*center),
            **values,
        })
    verdicts = {
        q: _monotonicity([row[q] for row in rows]) for q in QUANTITIES
    }
    clustered = None
    if sweep.outer.is_round:
        clustered = tuple(
            len(clusters([row["mu1"], row["mu2"]], CLUSTER_RTOL)) == 1
            for row in rows
        )
    return SweepResult(sweep, tuple(rows), verdicts, clustered)


def verify_lemmas(grid):
    """Run every closed-form verification scan over one parameter grid.

    Bundles the eigenvalue-ordering checks, the auxiliary polynomial and
    logarithm scans, the F/G monotonicity scans for both problems, and the
    brute-force check that the sorted spectrum starts with the degree-1
    value (multiplicity n) followed by the degree-2 comparison value.
    """
    if not isinstance(grid, GridSpec):
        raise TypeError("grid must be a GridSpec")
    reports = [
        eigenvalue_order_check(grid),
        poly_positivity_report(grid),
        aux_log_report(grid),
        aux_poly_deg2_report(grid),
    ]
    entries = [asdict(r) for r in reports]
    for n in grid.n_values:
        for L in grid.L_values:
            spec = AnnulusSpec(n, 1.0, L)
            r_grid = np.linspace(1.0, L, grid.r_samples)
            for problem in PROBLEMS:
                report = asdict(monotone_F_G(spec, problem, r_grid))
                report["claim"] += f" n={n} L={L}"
                entries.append(report)
    entries.append(asdict(spectrum_structure_report(grid)))
    return {
        "grid": {
            "n_values": list(grid.n_values),
            "L_values": list(grid.L_values),
            "r_samples": grid.r_samples,
            "t_samples": grid.t_samples,
        },
        "reports": entries,
        "all_passed": all(e["passed"] for e in entries),
    }


def verify_integral_lemmas(spec, h):
    """Quadrature check of the comparison inequalities and symmetry
    identities behind the eigenvalue upper bounds.

    The domain must have the unit hole at the origin (the normalization the
    radial test functions are built around).  Both the domain mesh and the
    volume-matched concentric annulus mesh are built at size h; the radial
    profiles come from the matched annulus's first nonzero eigenvalue of
    each problem.  Every item is read off the mass and gradient Gram
    matrices of the trial space (f, f x1/r, f x2/r) and the integral of F
    (`quadrature.radial_grams`), taken once per mesh, region and profile:
    over the volume, the outer boundary and the whole boundary.
    Inequalities are reported as signed normalized slacks (nonnegative up
    to quadrature error); identities as normalized values (zero up to
    quadrature error).  The hole at the origin makes every such domain
    half-turn symmetric, so the odd-moment identities always apply; the
    mixed-moment and equal-split ones need a quarter turn and are
    evaluated only then.
    """
    if spec.hole_radius != 1.0 or spec.hole_center != (0.0, 0.0):
        raise ValueError(
            "integral checks require the unit hole centered at the origin")
    h = float(h)
    matched_radius = spec.outer.matched_radius
    annulus_domain = DomainSpec(Disk(matched_radius), (0.0, 0.0), 1.0)
    annulus = AnnulusSpec(2, 1.0, matched_radius)
    rules = [(volume_rule(m), boundary_rule(m, m.outer_edges),
              boundary_rule(m, m.boundary_edges))
             for m in (triangulate(spec, h), triangulate(annulus_domain, h))]
    # grams[problem][mesh] = (volume, outer, boundary) radial_grams; the
    # mesh index is 0 for the domain and 1 for the matched annulus
    grams = {
        p: [[radial_grams(degree1_profile(annulus, p), rule) for rule in r]
            for r in rules]
        for p in PROBLEMS
    }
    tolerance = 10.0 * h * h
    items = []

    def inequality(name, lhs, rhs, slack):
        items.append({"name": name, "kind": "inequality", "lhs": float(lhs),
                      "rhs": float(rhs), "slack": float(slack),
                      "passed": bool(slack >= -tolerance)})

    def identity(name, integral, scale):
        value = float(integral / scale)
        items.append({"name": name, "kind": "identity",
                      "integral": float(integral), "value": value,
                      "passed": bool(abs(value) <= tolerance)})

    for pname in PROBLEMS:
        (volume, outer, _), (volume0, outer0, _) = grams[pname]
        energy, energy0 = volume[2], volume0[2]
        inequality(f"volume_energy_{pname}", energy, energy0,
                   (energy0 - energy) / abs(energy0))
        trace, trace0 = outer[0][0, 0], outer0[0][0, 0]
        inequality(f"outer_boundary_trace_{pname}", trace, trace0,
                   (trace - trace0) / trace0)

    (volume, _, boundary), (_, _, boundary0) = grams["steklov"]
    mass_v, grad_v, energy_scale = volume
    mass_b = boundary[0]
    trace_scale, full0 = mass_b[0, 0], boundary0[0][0, 0]
    volume_scale = mass_v[0, 0]
    inequality("full_boundary_trace_steklov", trace_scale, full0,
               (trace_scale - full0) / full0)

    for i in (1, 2):
        identity(f"odd_moment_volume_x{i}", mass_v[0, i], volume_scale)
        identity(f"odd_moment_boundary_x{i}", mass_b[0, i], trace_scale)
        identity(f"radial_cross_gradient_x{i}", grad_v[0, i], energy_scale)

    # the coordinate-square splits sum pointwise to the scales
    identity("trace_sum_rule", mass_b[1, 1] + mass_b[2, 2] - trace_scale,
             trace_scale)
    identity("gradient_sum_rule", grad_v[1, 1] + grad_v[2, 2] - energy_scale,
             energy_scale)

    if spec.is_order4_symmetric:
        identity("mixed_moment_boundary", mass_b[1, 2], trace_scale)
        identity("mixed_moment_volume", mass_v[1, 2], volume_scale)
        identity("mixed_gradient_volume", grad_v[1, 2], energy_scale)
        identity("coordinate_split_boundary", mass_b[1, 1] - mass_b[2, 2],
                 trace_scale)
        identity("coordinate_split_gradient", grad_v[1, 1] - grad_v[2, 2],
                 energy_scale)

    return {
        "spec": spec.as_dict(),
        "h": h,
        "tolerance": tolerance,
        "matched_outer_radius": matched_radius,
        "order2_symmetric": spec.is_order2_symmetric,
        "order4_symmetric": spec.is_order4_symmetric,
        "items": items,
        "all_passed": all(item["passed"] for item in items),
    }


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    eigenvalues: tuple
    error: float = None
    order: float = None


@dataclass(frozen=True)
class ConvergenceStudy:
    """First-nonzero-eigenvalue refinement table for one domain and problem.

    `reference` is the exact eigenvalue when the domain is a concentric
    annulus (closed form), else None, and each row's `error` is then the
    absolute error |value - reference|; `extrapolated` eliminates the
    leading error term from the last three levels, and `observed_order`
    is the fitted convergence rate of the tracked eigenvalue.
    """

    problem: str
    rows: tuple
    reference: float
    extrapolated: float
    observed_order: float


def _concentric_reference(spec, problem):
    """Closed-form first nonzero eigenvalue when the domain is a concentric
    annulus, else None."""
    if not (spec.outer.is_round and spec.hole_center == (0.0, 0.0)):
        return None
    annulus = AnnulusSpec(2, spec.hole_radius, spec.outer.half_extents[0])
    return enumerate_spectrum(annulus, problem, 2)[-1].value


def _richardson(h_list, values):
    """(extrapolated value, observed order) from the last three levels.

    Assumes error = C h^p and a fixed refinement ratio, which the caller
    checks.  Returns the finest value and no order when the differences
    do not behave (sign change or stagnation), rather than inventing a rate.
    """
    r = h_list[-3] / h_list[-2]
    v0, v1, v2 = values[-3:]
    d0, d1 = v1 - v0, v2 - v1
    if d1 == 0.0 or d0 / d1 <= 1.0:
        return v2, None
    p = math.log(d0 / d1) / math.log(r)
    return v2 + (v2 - v1) / (r**p - 1.0), p


def convergence_study(spec, problem, h_list, k=6):
    """Refine the mesh over `h_list` and track the first nonzero eigenvalue.

    Needs at least three finite, positive, strictly descending mesh sizes
    whose last three share one refinement ratio, a known problem and an
    integer k >= 2; the inputs are checked before any mesh is built.  On a
    concentric annulus every level is compared against the closed form and
    the observed order is the least-squares slope of the error; otherwise
    the order comes from the extrapolation differences alone.
    """
    h_list = [float(h) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("need at least three refinement levels")
    if not all(0.0 < h < math.inf for h in h_list):
        raise ValueError(
            f"mesh sizes must be finite and positive, got {h_list}")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("mesh sizes must be strictly descending")
    h0, h1, h2 = h_list[-3:]
    if abs(h1 / h2 - h0 / h1) > 1e-9 * (h0 / h1):
        raise ValueError("refinement ratio must be fixed across levels")
    check_problem(problem)
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValueError(f"k must be an integer at least 2, got {k!r}")
    reference = _concentric_reference(spec, problem)
    tracked, rows = [], []
    for h in h_list:
        sol = solve(spec, h, k, problem)
        tracked.append(float(sol.eigenvalues[1]))
        error = order = None
        if reference is not None:
            error = abs(tracked[-1] - reference)
            if rows and rows[-1].error and error > 0.0:
                order = (math.log(rows[-1].error / error)
                         / math.log(h_list[len(rows) - 1] / h))
        rows.append(ConvergenceRow(h, tuple(map(float, sol.eigenvalues)),
                                   error, order))
    extrapolated, rich_order = _richardson(h_list, tracked)
    if reference is not None:
        errors = [r.error for r in rows]
        slope = np.polyfit(np.log(h_list), np.log(errors), 1)[0]
        observed = float(slope)
    else:
        observed = rich_order
    return ConvergenceStudy(problem, tuple(rows), reference, extrapolated,
                            observed)
