"""Record the meshes of a fixed case set, or compare two such records.

    PYTHONPATH=src python tools/mesh_identity.py --write after.npz
    PYTHONPATH=src python tools/mesh_identity.py --compare before.npz after.npz

`--write` meshes every case with the `steklov` package found on the path
and stores its vertices, triangles, boundary edges and (sigma1, sigma2,
mu1, mu2), or the error that `triangulate` raised.  Point PYTHONPATH at
another checkout's `src` to record that tree.  `--compare` reports how far
two records agree: bit-identical meshes (vertices, triangles and boundary
edges, values and dtypes), meshes with identical triangles, the largest vertex move, the
largest relative eigenvalue drift and each record's smallest triangle
angle, each with the case it comes from, the largest drift per case group
(golden or random cases, by the mesh size h that ends the label), and
every case whose raised error differs.  It exits with status 1 when some
case's raised error differs, and 0 otherwise.

The case set is fixed (174 cases):
- the three table-1 domains at h = 0.25, 0.125 and 0.0625;
- every golden sweep centre (disk, ellipse axes and diagonal) at h = 0.25
  and 0.125 whose clearance is at least h/10;
- 120 random specs drawn from a fixed seed, 40 per outer shape, at
  h = 0.5 or 0.25.
"""

import argparse
import sys
from types import SimpleNamespace

import numpy as np

from steklov import golden
from steklov.domains import Disk, DomainSpec, Ellipse, Rectangle
from steklov.experiments import four_eigenvalues
from steklov.meshing import MeshError, mesh_min_angle, triangulate

SEED = 20241018
RANDOM_PER_SHAPE = 40


def _random_spec(rng, shape):
    """One admissible spec: outer size, hole radius and a hole centre drawn
    uniformly in the bounding box until the hole fits."""
    if shape == "disk":
        outer = Disk(rng.uniform(2.5, 6.0))
    elif shape == "ellipse":
        outer = Ellipse(rng.uniform(2.0, 4.5), rng.uniform(3.0, 8.5))
    else:
        outer = Rectangle(rng.uniform(4.0, 13.0), rng.uniform(3.5, 8.0))
    radius = rng.uniform(0.75, 1.5)
    a, b = outer.half_extents
    while True:
        centre = (rng.uniform(-a, a), rng.uniform(-b, b))
        try:
            return DomainSpec(outer, centre, radius)
        except ValueError:
            continue


def cases():
    """(label, spec, h) for every case, in a fixed order."""
    out = []
    for h in (0.25, 0.125, 0.0625):
        for name, spec in golden.TABLE1_DOMAINS.items():
            out.append((f"table1-{name}-h{h}", spec, h))
    sweeps = [("disk", golden.DISK_OUTER, golden.DISK_CENTERS)] + [
        (f"ellipse-{path}", golden.ELLIPSE_OUTER, centers)
        for path, centers in (
            ("axis-x", golden.ELLIPSE_X_CENTERS),
            ("axis-y", golden.ELLIPSE_Y_CENTERS),
            ("diagonal", golden.ELLIPSE_DIAG_CENTERS),
        )
    ]
    for h in (0.25, 0.125):
        for name, outer, centers in sweeps:
            for c in centers:
                spec = DomainSpec(outer, c, golden.HOLE_RADIUS)
                if spec.clearance >= h / 10.0:
                    out.append((f"{name}-{c[0]}-{c[1]}-h{h}", spec, h))
    rng = np.random.default_rng(SEED)
    for shape in ("disk", "ellipse", "rectangle"):
        for k in range(RANDOM_PER_SHAPE):
            spec = _random_spec(rng, shape)
            h = float(rng.choice([0.5, 0.25]))
            out.append((f"random-{shape}-{k}-h{h}", spec, h))
    return out


def write(path):
    arrays = {}
    labels, errors = [], []
    for i, (label, spec, h) in enumerate(cases()):
        labels.append(label)
        try:
            mesh = triangulate(spec, h)
        except (MeshError, ValueError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            print(f"{label}: {errors[-1]}", file=sys.stderr)
            continue
        errors.append("")
        values = four_eigenvalues(mesh)
        arrays[f"{i}/vertices"] = mesh.vertices
        arrays[f"{i}/triangles"] = mesh.triangles
        arrays[f"{i}/boundary_edges"] = mesh.boundary_edges
        arrays[f"{i}/eigs"] = np.array([values[q] for q in golden.QUANTITIES])
        print(f"{label}: nv={mesh.vertex_count}", file=sys.stderr)
    np.savez_compressed(
        path, labels=np.array(labels), errors=np.array(errors), **arrays
    )


def compare(path_a, path_b):
    """Print how far the records at path_a and path_b agree.  Returns 1 when
    some case's raised error differs between them, else 0."""
    a, b = np.load(path_a), np.load(path_b)
    labels = list(a["labels"])
    if labels != list(b["labels"]):
        raise SystemExit("the two records hold different case sets")
    meshed = same_error = identical = same_triangles = 0
    vertex_move = 0.0, None  # (largest, its case)
    groups = {}  # (kind, h): [cases, (largest eigenvalue drift, its case)]
    min_angle = {"A": (np.inf, None), "B": (np.inf, None)}  # (smallest, case)
    mismatched = []
    for i, label in enumerate(labels):
        err_a, err_b = str(a["errors"][i]), str(b["errors"][i])
        if err_a != err_b:
            mismatched.append(f"  {label}: {err_a or 'meshed'} | {err_b or 'meshed'}")
            continue
        if err_a:
            same_error += 1
            continue
        meshed += 1
        va, vb = a[f"{i}/vertices"], b[f"{i}/vertices"]
        ta, tb = a[f"{i}/triangles"], b[f"{i}/triangles"]
        ba, bb = a[f"{i}/boundary_edges"], b[f"{i}/boundary_edges"]
        tri_equal = np.array_equal(ta, tb)
        same_triangles += tri_equal
        identical += (tri_equal and np.array_equal(va, vb) and np.array_equal(ba, bb)
                      and (va.dtype, ta.dtype, ba.dtype) == (vb.dtype, tb.dtype, bb.dtype))
        move = float(np.max(np.abs(va - vb))) if va.shape == vb.shape else np.inf
        if move > vertex_move[0]:
            vertex_move = move, label
        ea, eb = a[f"{i}/eigs"], b[f"{i}/eigs"]
        drift = float(np.max(np.abs(ea - eb) / np.abs(eb)))
        kind = "random" if label.startswith("random-") else "golden"
        group = groups.setdefault(
            (kind, float(label.rpartition("-h")[2])), [0, (0.0, None)])
        group[0] += 1
        if drift > group[1][0]:
            group[1] = drift, label
        for name, record in (("A", a), ("B", b)):
            angle = mesh_min_angle(SimpleNamespace(
                vertices=record[f"{i}/vertices"], triangles=record[f"{i}/triangles"]))
            if angle < min_angle[name][0]:
                min_angle[name] = angle, label
    print(f"cases: {len(labels)}, meshed in both: {meshed}, "
          f"raised the same error in both: {same_error}")
    print(f"bit-identical meshes: {identical} of {meshed}")
    print(f"identical triangles: {same_triangles} of {meshed}")
    eig_drift = max((group[1] for group in groups.values()),
                    key=lambda pair: pair[0], default=(0.0, None))
    for name, (value, label) in (("largest vertex move", vertex_move),
                                 ("largest relative eigenvalue drift", eig_drift)):
        print(f"{name}: {value:.3g}" + (f" ({label})" if value > 0 else ""))
    print("largest relative eigenvalue drift per group:")
    for (kind, h), (count, (value, label)) in sorted(groups.items()):
        print(f"  {kind} h={h:g}, {count} meshed: {value:.3g}"
              + (f" ({label})" if value > 0 else ""))
    print("smallest triangle angle: " + ", ".join(
        f"{name} {value:.1f} deg ({label})"
        for name, (value, label) in min_angle.items()))
    print(f"cases whose raised error differs: {len(mismatched)}")
    for line in mismatched:
        print(line)
    return 1 if mismatched else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="FILE")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.write:
        write(args.write)
        return 0
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
