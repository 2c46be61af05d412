"""The benchmark's workloads: inputs from a seed, one timed pass, and checks.

A unit is one mesh turned into (sigma1, sigma2, mu1, mu2).  Seed 0 uses the
golden inputs.  Other seeds move each sweep hole center by a random vector
no longer than JITTER times its clearance, so the clearance stays above
0.95 of the golden one (far above the h/10 meshing limit) and the work per
unit stays close to seed 0's.  `table1` and `fine_solve` take no random
input: their domains are the golden table-1 domains on every seed.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable

from steklov import closed_form, experiments, fem_solver, golden, meshing
from steklov.domains import DomainSpec

QUANTITIES = golden.QUANTITIES
H_TABLE1 = 0.125
H_SWEEP = 0.25
H_FINE = 0.0625
# Table 4 is left out: its (1.9, 1.9) center leaves clearance 0.017, below
# h/10 at h = 0.25, where triangulate raises MeshError by design.
SWEEP_TABLES = (2, 3)
JITTER = 0.05

GOLDEN_RTOL = 0.02
# Loosest eigenvalue gate the roadmap names for a speed-up (meshing work).
EIG_DRIFT_TOL = 1e-4
# About three times the P1 error of the annulus at h = 0.125.
CLOSED_FORM_TOL = 2e-3
# Table 1's mu2 cells for the rectangle and the ellipse look swapped at the
# source: each computed value matches the other domain's golden entry to
# about 1%.  They count as misses; they are neither excluded nor edited.
KNOWN_GOLDEN_MISSES = {("rectangle", "mu2"), ("ellipse", "mu2")}
# The criterion-8 verdict pattern of the two ellipse sweeps.
VERDICTS = {
    2: {"sigma1": "nonincreasing", "sigma2": "nonincreasing",
        "mu1": "nonincreasing", "mu2": "nonincreasing"},
    3: {"sigma1": "nonincreasing", "mu1": "nondecreasing",
        "mu2": "nonincreasing"},
}


@dataclass(frozen=True)
class Workload:
    """How one workload builds its inputs, runs a pass and reads units.

    `units(output)` maps unit key -> {quantity: eigenvalue};
    `golden(seed)` gives the golden cells of the units it applies to;
    `extra(seed, output, units)` returns (failures, quality) for checks
    that need more than the per-unit values, failures being
    (unit keys, message) pairs.
    """

    name: str
    seeded: bool
    setup: Callable
    run: Callable
    units: Callable
    golden: Callable
    extra: Callable


# table1 ---------------------------------------------------------------

def _table1_units(artifact):
    return {row["domain"]: dict(row["computed"]) for row in artifact.rows}


def _table1_golden(seed):
    return {name: dict(vals) for name, vals in golden.TABLE1_VALUES.items()}


def _annulus_closed_form():
    """Closed-form (sigma2, mu2) of the table-1 annulus."""
    outer = golden.TABLE1_DOMAINS["annulus"].outer
    annulus = closed_form.AnnulusSpec(2, golden.HOLE_RADIUS, outer.radius)
    exact = {}
    for q, problem in (("sigma2", "steklov"), ("mu2", "steklov_neumann")):
        flat = []
        for line in closed_form.enumerate_spectrum(annulus, problem, 3):
            flat.extend([line.value] * line.multiplicity)
        exact[q] = flat[2]
    return exact


def _table1_extra(seed, artifact, units):
    exact = _annulus_closed_form()
    err = max(abs(units["annulus"][q] - v) / v for q, v in exact.items())
    failures = []
    if not err <= CLOSED_FORM_TOL:
        failures.append((["annulus"], f"closed-form error {err:.3e} > "
                                      f"{CLOSED_FORM_TOL:g}"))
    return failures, {"closed_form_err_rel": err}


# ellipse_sweeps -------------------------------------------------------

def jitter_centers(outer, centers, seed):
    """Golden centers for seed 0, else each moved by at most JITTER of its
    clearance in a seeded random direction."""
    if seed == 0:
        return tuple(centers)
    rng = random.Random(seed)
    moved = []
    for cx, cy in centers:
        gap = DomainSpec(outer, (cx, cy), golden.HOLE_RADIUS).clearance
        r = JITTER * gap * math.sqrt(rng.random())
        angle = 2.0 * math.pi * rng.random()
        center = (cx + r * math.cos(angle), cy + r * math.sin(angle))
        if DomainSpec(outer, center, golden.HOLE_RADIUS).clearance < H_SWEEP / 10:
            raise ValueError(f"jittered center {center} is too close to the boundary")
        moved.append(center)
    return tuple(moved)


def _sweeps_setup(seed):
    sweeps = []
    for table_id in SWEEP_TABLES:
        table = golden.golden_table(table_id)
        centers = jitter_centers(table["outer"], table["centers"], seed)
        sweeps.append((table_id, experiments.SweepSpec(
            table["outer"], golden.HOLE_RADIUS, table["path"], centers,
            H_SWEEP)))
    return sweeps


def _sweeps_run(sweeps):
    return [(table_id, experiments.run_sweep(sweep))
            for table_id, sweep in sweeps]


def _sweeps_units(results):
    return {f"t{table_id}c{i}": {q: row[q] for q in QUANTITIES}
            for table_id, result in results
            for i, row in enumerate(result.rows)}


def _sweeps_golden(seed):
    if seed != 0:
        return {}
    cells = {}
    for table_id in SWEEP_TABLES:
        values = golden.golden_table(table_id)["values"]
        for i in range(len(values["sigma1"])):
            cells[f"t{table_id}c{i}"] = {q: values[q][i] for q in QUANTITIES}
    return cells


def _sweeps_extra(seed, results, units):
    if seed != 0:
        return [], {}
    failures = []
    for table_id, result in results:
        keys = [k for k in units if k.startswith(f"t{table_id}c")]
        for q, want in VERDICTS[table_id].items():
            if result.verdicts[q] != want:
                failures.append((keys, f"table {table_id} {q} verdict "
                                       f"{result.verdicts[q]} != {want}"))
    return failures, {}


# fine_solve -----------------------------------------------------------

def _fine_setup(seed):
    spec = golden.TABLE1_DOMAINS["rectangle"]
    return spec, meshing.triangulate(spec, H_FINE)


def _fine_run(inputs):
    spec, mesh = inputs
    return tuple(fem_solver.solve_on_mesh(mesh, problem, 3, spec=spec)
                 for problem in ("steklov", "steklov_neumann"))


def _fine_units(solutions):
    st, sn = solutions
    return {"rectangle": {
        "sigma1": float(st.eigenvalues[1]), "sigma2": float(st.eigenvalues[2]),
        "mu1": float(sn.eigenvalues[1]), "mu2": float(sn.eigenvalues[2])}}


def _fine_golden(seed):
    return {"rectangle": dict(golden.TABLE1_VALUES["rectangle"])}


def _fine_extra(seed, solutions, units):
    failures = []
    for sol in solutions:
        vals = sol.eigenvalues
        if not abs(vals[0]) <= 1e-8 * vals[1]:
            failures.append((["rectangle"], f"{sol.problem} zero mode {vals[0]:.3e}"))
    return failures, {}


WORKLOADS = {
    "table1": Workload("table1", False, lambda seed: (1, H_TABLE1),
                       lambda args: experiments.reproduce_table(*args),
                       _table1_units, _table1_golden, _table1_extra),
    "ellipse_sweeps": Workload("ellipse_sweeps", True, _sweeps_setup,
                               _sweeps_run, _sweeps_units, _sweeps_golden,
                               _sweeps_extra),
    "fine_solve": Workload("fine_solve", False, _fine_setup, _fine_run,
                           _fine_units, _fine_golden, _fine_extra),
}


def _invariants(vals):
    """Checks that need no reference: finite, positive, ordered, mu >= sigma."""
    bad = []
    if not all(math.isfinite(v) and v > 0.0 for v in vals.values()):
        bad.append(f"nonpositive or non-finite eigenvalue in {vals}")
        return bad
    for lo, hi in (("sigma1", "sigma2"), ("mu1", "mu2")):
        if lo in vals and hi in vals and vals[lo] > vals[hi]:
            bad.append(f"{lo} > {hi}")
    # Same Dirichlet energy over a boundary norm taken on less of the
    # boundary: the mixed eigenvalues bound the Steklov ones from above.
    for sigma, mu in (("sigma1", "mu1"), ("sigma2", "mu2")):
        if sigma in vals and mu in vals and vals[mu] < vals[sigma]:
            bad.append(f"{mu} < {sigma}")
    return bad


def check(workload, seed, output, reference):
    """Check one pass's output.

    Returns (units, failures, quality): failures are (unit keys, message)
    pairs; quality holds golden_pass/golden_total, eig_drift_rel (None
    without stored references) and any workload-specific figures.
    """
    units = workload.units(output)
    failures = [([key], msg) for key, vals in units.items()
                for msg in _invariants(vals)]

    ref = reference.get(workload.name) if seed == 0 or not workload.seeded else None
    drift = None
    if ref is not None:
        drift = 0.0
        for key, vals in units.items():
            if key not in ref:
                failures.append(([key], "no stored reference"))
                continue
            for q, v in vals.items():
                d = abs(v - ref[key][q]) / abs(ref[key][q])
                drift = max(drift, d)
                if not d <= EIG_DRIFT_TOL:
                    failures.append(([key], f"{q} drifted {d:.3e} from the reference"))

    passed = total = 0
    for key, cells in workload.golden(seed).items():
        for q, want in cells.items():
            total += 1
            within = abs(units[key][q] - want) / want <= GOLDEN_RTOL
            passed += within
            if not within and (key, q) not in KNOWN_GOLDEN_MISSES:
                failures.append(([key], f"golden {q} off by more than 2%"))

    extra_failures, quality = workload.extra(seed, output, units)
    failures += extra_failures
    quality.update(golden_pass=passed, golden_total=total, eig_drift_rel=drift)
    return units, failures, quality
