"""Tests for the mesh identity report's comparison of two records."""

import importlib.util
from pathlib import Path

import numpy as np

from steklov import golden, meshing

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mesh_identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mesh_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(path, errors, meshes, labels=None, counts=None):
    """A record of len(errors) cases, labelled case-i-h0.5 unless `labels`
    says otherwise; `meshes` maps a case index to its (vertices,
    triangles, eigenvalues) or (vertices, triangles, eigenvalues, boundary
    edges), the boundary edges BOUNDARY by default, and `counts` maps a
    case index to its call counts."""
    arrays = {}
    for i, (vertices, triangles, eigs, *boundary) in meshes.items():
        arrays[f"{i}/vertices"] = np.asarray(vertices, float)
        arrays[f"{i}/triangles"] = np.asarray(triangles)
        arrays[f"{i}/boundary_edges"] = np.asarray((boundary or [BOUNDARY])[0])
        arrays[f"{i}/eigs"] = np.asarray(eigs, float)
    for i, calls in (counts or {}).items():
        arrays[f"{i}/counts"] = np.asarray(calls)
    labels = labels or [f"case-{i}-h0.5" for i in range(len(errors))]
    np.savez_compressed(
        path, labels=np.array(labels), errors=np.array(errors), **arrays
    )


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
TRIANGLES = [[0, 1, 2], [0, 2, 3]]
BOUNDARY = [[0, 1], [1, 2], [2, 3], [3, 0]]
EIGS = [0.1, 0.2, 0.3, 0.4]


def test_compare_names_the_cases_behind_the_largest_differences(tmp_path, capsys):
    tool = load_tool()
    moved = np.array(SQUARE)
    moved[2] += 1e-9
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    errors = ["", "", "", "", "MeshError: degenerate"]
    # golden cases by default, random ones by the prefix; grouped by h
    labels = ["table1-annulus-h0.25", "disk-0.0-0.0-h0.125",
              "random-disk-0-h0.5", "random-rectangle-1-h0.25",
              "random-ellipse-2-h0.5"]
    write_record(before, errors,
                 {i: (SQUARE, TRIANGLES, EIGS) for i in range(4)}, labels)
    write_record(after, errors, {
        0: (SQUARE, TRIANGLES, EIGS),
        1: (moved, TRIANGLES, EIGS),
        2: (SQUARE, [[0, 1, 3], [1, 2, 3]], [0.1, 0.2, 0.3, 0.4 * (1 + 1e-6)]),
        3: (SQUARE, TRIANGLES, [0.1, 0.2 * (1 - 1e-8), 0.3, 0.4]),
    }, labels)
    assert tool.compare(before, after) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "cases: 5, meshed in both: 4, raised the same error in both: 1",
        "bit-identical meshes: 2 of 4",
        "identical triangles: 3 of 4",
        "largest vertex move: 1e-09 (disk-0.0-0.0-h0.125)",
        "cases whose vertex count differs: 0",
        "largest relative eigenvalue drift: 1e-06 (random-disk-0-h0.5)",
        "largest relative eigenvalue drift per group:",
        "  golden h=0.125, 1 meshed: 0",
        "  golden h=0.25, 1 meshed: 0",
        "  random h=0.25, 1 meshed: 1e-08 (random-rectangle-1-h0.25)",
        "  random h=0.5, 1 meshed: 1e-06 (random-disk-0-h0.5)",
        "smallest triangle angle: A 45.0 deg (table1-annulus-h0.25), "
        "B 45.0 deg (disk-0.0-0.0-h0.125)",
        "cases whose raised error differs: 0",
    ]
    assert tool.compare(before, before) == 0
    assert "largest vertex move: 0\n" in capsys.readouterr().out


def test_compare_lists_a_vertex_count_change_apart_from_the_largest_move(
    tmp_path, capsys
):
    # a mesh that gained a vertex has no vertex move; the largest move is
    # that of the meshes with the same vertex count in both records
    tool = load_tool()
    moved, grown = np.array(SQUARE), np.vstack([SQUARE, [[0.5, 0.5]]])
    moved[2] += 1e-9
    fan = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    labels = ["random-ellipse-0-h0.5", "random-disk-1-h0.5"]
    write_record(before, ["", ""], {i: (SQUARE, TRIANGLES, EIGS) for i in range(2)},
                 labels)
    write_record(after, ["", ""], {
        0: (grown, fan, [0.1, 0.2, 0.3, 0.4 * (1 + 1e-4)]),
        1: (moved, TRIANGLES, EIGS),
    }, labels)
    assert tool.compare(before, after) == 0
    out = capsys.readouterr().out
    assert ("largest vertex move: 1e-09 (random-disk-1-h0.5)\n"
            "cases whose vertex count differs: 1\n"
            "  random-ellipse-0-h0.5: nv 4 | 5, eigenvalue drift 0.0001, "
            "smallest angle 45.0 | 45.0 deg\n") in out
    assert "inf" not in out


def test_compare_counts_a_boundary_change_as_not_bit_identical(tmp_path, capsys):
    tool = load_tool()
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    write_record(before, [""], {0: (SQUARE, TRIANGLES, EIGS)})
    write_record(after, [""], {0: (SQUARE, TRIANGLES, EIGS, BOUNDARY[::-1])})
    assert tool.compare(before, after) == 0
    out = capsys.readouterr().out
    assert "bit-identical meshes: 0 of 1\n" in out
    assert "identical triangles: 1 of 1\n" in out


def test_compare_counts_an_index_type_change_as_not_bit_identical(
    tmp_path, capsys
):
    tool = load_tool()
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    write_record(before, [""], {0: (SQUARE, np.int32(TRIANGLES), EIGS)})
    write_record(after, [""], {0: (SQUARE, np.int64(TRIANGLES), EIGS)})
    assert tool.compare(before, after) == 0
    out = capsys.readouterr().out
    assert "bit-identical meshes: 0 of 1\n" in out
    assert "identical triangles: 1 of 1\n" in out


def test_compare_fails_when_a_raised_error_differs(tmp_path, capsys):
    tool = load_tool()
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    write_record(before, ["", "MeshError: degenerate"], {0: (SQUARE, TRIANGLES, EIGS)})
    write_record(after, ["", ""], {i: (SQUARE, TRIANGLES, EIGS) for i in range(2)})
    assert tool.compare(before, after) == 1
    out = capsys.readouterr().out
    assert "cases whose raised error differs: 1\n" in out
    assert "  case-1-h0.5: MeshError: degenerate | meshed\n" in out
    assert tool.main(["--compare", str(after), str(after)]) == 0


def test_compare_sums_the_call_counts_per_group_of_each_record_that_has_them(
    tmp_path, capsys
):
    tool = load_tool()
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    labels = ["table1-annulus-h0.25", "random-disk-0-h0.5", "random-disk-1-h0.5"]
    meshes = {i: (SQUARE, TRIANGLES, EIGS) for i in range(3)}
    write_record(before, [""] * 3, meshes, labels)  # a record from before counts
    write_record(after, [""] * 3, meshes, labels,
                 {0: [6, 30, 1], 1: [4, 20, 1], 2: [5, 25, 2]})
    assert tool.compare(before, after) == 0
    out = capsys.readouterr().out
    assert ("calls per group (_settle, _force_step, Delaunay):\n"
            "  golden h=0.25: B 6, 30, 1\n"
            "  random h=0.5: B 9, 45, 3\n"
            "  all: B 15, 75, 4\n") in out
    assert tool.compare(after, after) == 0
    assert "  all: A 15, 75, 4 | B 15, 75, 4\n" in capsys.readouterr().out
    assert tool.compare(before, before) == 0
    assert "calls per group" not in capsys.readouterr().out


def test_counted_calls_counts_the_mesher_calls_and_restores_them():
    tool = load_tool()
    originals = [getattr(meshing, name) for name in tool.COUNTED]
    with tool.counted_calls() as counts:
        meshing.triangulate(golden.TABLE1_DOMAINS["annulus"], 0.5)
    assert counts["_settle"] > 1 and counts["Delaunay"] == 1
    assert counts["_force_step"] > counts["_settle"]
    assert [getattr(meshing, name) for name in tool.COUNTED] == originals
