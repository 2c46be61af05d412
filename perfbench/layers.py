"""The call sites the benchmark wraps, and the per-layer metrics read off them.

Layers are the steklov modules `domains`, `meshing`, `fem_solver` and
`experiments`.  Each wrap names the function where its caller looks it up
at call time, so a call made through a module's own globals (`meshing`
calling `Delaunay`, `region_signed_distance` or `size_field`; `fem_solver`
calling its assembly and Schur steps) is caught without touching the
package.  README.md lists which end-to-end metric each layer metric should
move.
"""

import numpy as np

from steklov.meshing import mesh_min_angle

MESH = "meshing.triangulate"
SOLVES = ("fem_solver.solve_on_mesh.steklov",
          "fem_solver.solve_on_mesh.steklov_neumann")


def _points(attrs, args, kwargs, result):
    shape = np.shape(kwargs["pts"] if "pts" in kwargs else args[-1])
    attrs["points"] = 1 if len(shape) == 1 else shape[0]


def _mesh_stats(attrs, args, kwargs, mesh):
    attrs.update(nv=mesh.vertex_count, nt=mesh.triangle_count,
                 nb=len(mesh.boundary_edges),
                 min_angle_deg=mesh_min_angle(mesh))


def _schur_stats(attrs, args, kwargs, result):
    nv = args[0].shape[0]
    nb = result.shape[0]
    attrs["nb"] = nb
    # Dense arrays the Schur step holds: K_bb, K_ib, K_ii^{-1} K_ib and
    # their product, in float64.  Computed from sizes, not measured.
    attrs["dense_mb"] = (2 * nb * nb + 2 * (nv - nb) * nb) * 8 / 1e6


def _solve_name(*args, **kwargs):
    problem = args[1] if len(args) > 1 else kwargs["problem"]
    return f"fem_solver.solve_on_mesh.{problem}"


# Untraced runs wrap only the call that starts a unit inside a pass.
UNIT_WRAPS = (("steklov.experiments.triangulate", MESH, None),)

TRACE_WRAPS = (
    ("steklov.experiments.triangulate", MESH, _mesh_stats),
    ("steklov.meshing.triangulate", MESH, _mesh_stats),
    ("steklov.meshing.Delaunay", "meshing.delaunay", None),
    ("steklov.meshing.boundary_polylines", "domains.boundary_polylines", None),
    ("steklov.meshing.region_signed_distance",
     "domains.region_signed_distance", _points),
    ("steklov.meshing.size_field", "domains.size_field", _points),
    ("steklov.domains.size_field", "domains.size_field", _points),
    ("steklov.domains.outer_signed_distance",
     "domains.outer_signed_distance", _points),
    ("steklov.experiments.solve_on_mesh", _solve_name, None),
    ("steklov.fem_solver.solve_on_mesh", _solve_name, None),
    ("steklov.fem_solver.assemble_stiffness", "fem_solver.assemble_stiffness",
     None),
    ("steklov.fem_solver.assemble_boundary_mass",
     "fem_solver.assemble_boundary_mass", None),
    ("steklov.fem_solver.dtn_schur", "fem_solver.dtn_schur", _schur_stats),
    ("steklov.fem_solver.solve_eigs", "fem_solver.solve_eigs", None),
)


def install(tracer, wraps):
    for target, name, record in wraps:
        tracer.wrap(target, name, record)
    return tracer


def unit_bounds(tracer, passes):
    """(start, end) per unit: from one mesh request to the next, or to the
    end of the pass; a pass that requests no mesh is one unit."""
    bounds = []
    for p in passes:
        starts = [s.start for s in tracer.within(p, MESH)] or [p.start]
        bounds.extend(zip(starts, starts[1:] + [p.end]))
    return bounds


def layer_metrics(tracer, passes, overhead_s):
    """Per-layer metrics over every recorded span (traced set-up and
    traced pass); `passes` are the traced pass spans."""
    self_time = tracer.self_times()

    def total(name):
        return sum(s.duration for s in tracer.named(name))

    def calls(name):
        return len(tracer.named(name))

    def attr(name, key, reduce=sum):
        values = [s.attrs[key] for s in tracer.named(name) if key in s.attrs]
        return reduce(values) if values else 0

    meshes = tracer.named(MESH)
    nv = attr(MESH, "nv")
    mesh_s = total(MESH)
    outside_s = sum(p.duration for p in passes) - sum(
        s.duration for p in passes for name in (MESH,) + SOLVES
        for s in tracer.within(p, name))

    osd, rsd, size = ("domains.outer_signed_distance",
                      "domains.region_signed_distance", "domains.size_field")
    stiff, schur = "fem_solver.assemble_stiffness", "fem_solver.dtn_schur"
    values = {
        f"{osd}.s": (total(osd), "s"),
        f"{osd}.points": (attr(osd, "points"), "count"),
        f"{rsd}.calls": (calls(rsd), "count"),
        f"{rsd}.points": (attr(rsd, "points"), "count"),
        f"{rsd}.s": (total(rsd), "s"),
        f"{size}.calls": (calls(size), "count"),
        f"{size}.points": (attr(size, "points"), "count"),
        f"{size}.s": (total(size), "s"),
        "domains.boundary_polylines.s": (total("domains.boundary_polylines"), "s"),
        f"{MESH}.calls": (len(meshes), "count"),
        f"{MESH}.s": (mesh_s, "s"),
        f"{MESH}.self_s": (sum(self_time[s.id] for s in meshes), "s"),
        "meshing.delaunay.calls": (calls("meshing.delaunay"), "count"),
        "meshing.delaunay.s": (total("meshing.delaunay"), "s"),
        "meshing.nv": (nv, "count"),
        "meshing.nt": (attr(MESH, "nt"), "count"),
        "meshing.nb": (attr(MESH, "nb"), "count"),
        "meshing.min_angle_deg": (attr(MESH, "min_angle_deg", min), "deg"),
        "meshing.verts_per_s": (nv / mesh_s if mesh_s else 0.0, "1/s"),
        f"{SOLVES[0]}.s": (total(SOLVES[0]), "s"),
        f"{SOLVES[1]}.s": (total(SOLVES[1]), "s"),
        f"{stiff}.calls": (calls(stiff), "count"),
        f"{stiff}.s": (total(stiff), "s"),
        "fem_solver.assemble_boundary_mass.s":
            (total("fem_solver.assemble_boundary_mass"), "s"),
        f"{schur}.s": (total(schur), "s"),
        f"{schur}.nb": (attr(schur, "nb", max), "count"),
        f"{schur}.dense_mb_computed": (attr(schur, "dense_mb", max), "MB"),
        "fem_solver.solve_eigs.s": (total("fem_solver.solve_eigs"), "s"),
        "experiments.self_s": (outside_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": float(v), "unit": unit}
            for name, (v, unit) in values.items()}
