"""Tests for the mesh identity report's comparison of two records."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mesh_identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mesh_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(path, errors, meshes, labels=None):
    """A record of len(errors) cases, labelled case-i-h0.5 unless `labels`
    says otherwise; `meshes` maps a case index to its (vertices,
    triangles, eigenvalues) or (vertices, triangles, eigenvalues, boundary
    edges), the boundary edges BOUNDARY by default."""
    arrays = {}
    for i, (vertices, triangles, eigs, *boundary) in meshes.items():
        arrays[f"{i}/vertices"] = np.asarray(vertices, float)
        arrays[f"{i}/triangles"] = np.asarray(triangles)
        arrays[f"{i}/boundary_edges"] = np.asarray((boundary or [BOUNDARY])[0])
        arrays[f"{i}/eigs"] = np.asarray(eigs, float)
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
