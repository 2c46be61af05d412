"""Tests for the experiment drivers: table reproduction, sweeps, and the
verification bundles.  Mesh sizes here are coarse to keep the suite fast;
the tight-tolerance runs live in the acceptance tests."""

import json
import math
import warnings

import numpy as np
import pytest

from steklov import fem_solver
from steklov.analysis import GridSpec
from steklov.domains import Disk, DomainSpec, Ellipse, Rectangle
from steklov.experiments import (
    SweepSpec,
    _monotonicity,
    four_eigenvalues,
    reproduce_table,
    run_sweep,
    verify_integral_lemmas,
    verify_lemmas,
)
from steklov.golden import QUANTITIES, golden_table
from steklov.meshing import triangulate

H = 0.4


@pytest.fixture(scope="module")
def disk_sweep():
    spec = SweepSpec(Disk(5.0), 1.0, "axis-x",
                     ((0.5, 0.0), (1.5, 0.0), (2.5, 0.0)), H)
    return spec, run_sweep(spec)


@pytest.fixture(scope="module")
def table1():
    return reproduce_table(1, H)


# ----------------------------------------------------------------- SweepSpec

def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="path"):
        SweepSpec(Disk(5.0), 1.0, "spiral", ((0.5, 0.0),), H)
    with pytest.raises(ValueError, match="center"):
        SweepSpec(Disk(5.0), 1.0, "axis-x", (), H)
    # a center whose hole pokes through the outer boundary is rejected
    with pytest.raises(ValueError):
        SweepSpec(Disk(5.0), 1.0, "axis-x", ((4.8, 0.0),), H)


def test_sweep_spec_normalizes_centers():
    spec = SweepSpec(Disk(5.0), 1.0, "axis-x", [[1, 0], (2.5, 0)], H)
    assert spec.centers == ((1.0, 0.0), (2.5, 0.0))
    assert spec.domain(1).hole_center == (2.5, 0.0)


def test_sweep_spec_takes_centers_as_an_array():
    # the same centres as an (n, 2) array, or none as a (0, 2) one
    centers = np.array([[0.5, 0.0], [1.0, 0.0]])
    spec = SweepSpec(Disk(5.0), 1.0, "axis-x", centers, 0.5)
    assert spec.centers == ((0.5, 0.0), (1.0, 0.0))
    assert spec == SweepSpec(Disk(5.0), 1.0, "axis-x", centers.tolist(), 0.5)
    with pytest.raises(ValueError, match="center"):
        SweepSpec(Disk(5.0), 1.0, "axis-x", np.zeros((0, 2)), 0.5)


def test_sweep_spec_stores_python_floats():
    # a NumPy or int radius and h are stored as floats, as DomainSpec stores
    # its radius: the result serializes to JSON and echoes 1.0 for 1
    spec = SweepSpec(Disk(5.0), np.float32(1), "axis-x", ((0.5, 0.0),),
                     np.float32(0.5))
    assert type(spec.hole_radius) is float and type(spec.h) is float
    data = json.loads(json.dumps(run_sweep(spec).as_dict()))
    assert (data["hole_radius"], data["h"]) == (1.0, 0.5)
    spec = SweepSpec(Disk(5.0), 1, "axis-x", ((0.5, 0.0),), 1)
    assert repr((spec.hole_radius, spec.h)) == "(1.0, 1.0)"


@pytest.mark.parametrize(
    "make",
    [lambda c: DomainSpec(Disk(5.0), c, 1.0),
     lambda c: SweepSpec(Disk(5.0), 1.0, "axis-x", ((1.0, 0.0), c), H)],
    ids=["DomainSpec", "SweepSpec"],
)
@pytest.mark.parametrize("center", [(0.5, 0.0, 7.0), (0.5,), 0.5, [[0.5, 0.0]]],
                         ids=["three", "one", "scalar", "nested"])
def test_hole_centers_need_exactly_two_coordinates(make, center):
    with pytest.raises(ValueError, match="exactly two coordinates"):
        make(center)
    assert make((0.5, 0)) is not None


# -------------------------------------------------------------- monotonicity

def test_monotonicity_verdicts():
    assert _monotonicity([3.0, 2.0, 1.0]) == "nonincreasing"
    assert _monotonicity([1.0, 2.0, 3.0]) == "nondecreasing"
    assert _monotonicity([1.0, 1.0, 1.0]) == "both"
    assert _monotonicity([1.0]) == "both"
    assert _monotonicity([1.0, 2.0, 1.5]) == "neither"
    # 0.1% relative slack absorbs discretization noise in either direction
    assert _monotonicity([1.0, 1.0005, 0.9]) == "nonincreasing"
    assert _monotonicity([1.0, 0.9995, 1.1]) == "nondecreasing"


# ------------------------------------------------------------- one mesh unit

def test_four_eigenvalues_factor_the_stiffness_once(monkeypatch):
    spec = DomainSpec(Ellipse(3.0, 8.33), (0.8, 2.5), 1.0)
    mesh = triangulate(spec, H)
    st = fem_solver.solve_on_mesh(mesh, "steklov", 3).eigenvalues
    sn = fem_solver.solve_on_mesh(mesh, "steklov_neumann", 3).eigenvalues
    calls = {"assemble_stiffness": 0, "splu": 0}
    sizes = []  # splu factors the grounded stiffness and each M_ss
    for name in calls:
        def counted(*args, _name=name, _original=getattr(fem_solver, name),
                    **kwargs):
            calls[_name] += 1
            if _name == "splu":
                sizes.append(args[0].shape[0])
            return _original(*args, **kwargs)
        monkeypatch.setattr(fem_solver, name, counted)
    values = four_eigenvalues(mesh)
    assert calls == {"assemble_stiffness": 1, "splu": 3}
    assert sorted(sizes) == sorted(
        [mesh.vertex_count - 1, len(mesh.boundary_edges), mesh.n_outer])
    want = dict(zip(QUANTITIES, (st[1], st[2], sn[1], sn[2])))
    for q in QUANTITIES:
        assert values[q] == pytest.approx(want[q], rel=1e-12, abs=0.0)


# -------------------------------------------------------------------- sweeps

def test_disk_sweep_rows(disk_sweep):
    spec, result = disk_sweep
    assert len(result.rows) == 3
    for row, center in zip(result.rows, spec.centers):
        assert row["center"] == list(center)
        assert row["distance"] == math.hypot(*center)
        assert 0 < row["sigma1"] <= row["sigma2"]
        assert 0 < row["mu1"] <= row["mu2"]


def test_disk_sweep_verdicts_and_cluster(disk_sweep):
    _, result = disk_sweep
    assert all(result.verdicts[q] == "nonincreasing" for q in QUANTITIES)
    assert result.mu_pair_clustered == (True, True, True)
    d = result.as_dict()
    assert d["mu_multiplicity_two"] is True
    assert d["outer"] == {"shape": "disk", "radius": 5.0}
    json.dumps(d)


def test_disk_sweep_csv(disk_sweep):
    _, result = disk_sweep
    lines = result.to_csv().splitlines()
    assert lines[0] == "t1,t2,distance,sigma1,sigma2,mu1,mu2"
    assert len(lines) == 1 + 3 + 4 + 1
    cells = lines[1].split(",")
    assert float(cells[2]) == 0.5
    assert math.isclose(float(cells[3]), result.rows[0]["sigma1"],
                        rel_tol=1e-5)
    assert "# verdict,sigma1,nonincreasing" in lines
    assert lines[-1] == "# mu_multiplicity_two,true"


def test_round_ellipse_sweep_reports_the_mu_cluster():
    spec = SweepSpec(Ellipse(5.0, 5.0), 1.0, "axis-x", ((0.5, 0.0), (2.5, 0.0)), H)
    result = run_sweep(spec)
    assert result.mu_pair_clustered == (True, True)
    assert result.as_dict()["mu_multiplicity_two"] is True


def test_single_center_sweep_is_trivially_monotone():
    spec = SweepSpec(Rectangle(13.095, 6.0), 1.0, "axis-x", ((0.0, 0.0),), 0.5)
    result = run_sweep(spec)
    assert all(v == "both" for v in result.verdicts.values())
    # cluster report is a disk-only observation
    assert result.mu_pair_clustered is None
    assert "mu_multiplicity_two" not in result.as_dict()


def test_sweep_is_deterministic(disk_sweep):
    spec, result = disk_sweep
    again = run_sweep(SweepSpec(spec.outer, spec.hole_radius, spec.path,
                                spec.centers, spec.h))
    assert json.dumps(again.as_dict()) == json.dumps(result.as_dict())
    assert again.to_csv() == result.to_csv()


# ------------------------------------------------------- table reproduction

def test_table1_artifact_structure(table1):
    assert table1.table_id == 1
    assert table1.kind == "comparison"
    assert [row["domain"] for row in table1.rows] == [
        "annulus", "rectangle", "ellipse"]
    for row in table1.rows:
        for q, dev in row["deviation"].items():
            expected = abs(row["computed"][q] - row["golden"][q]) / row["golden"][q]
            assert dev == expected
    assert table1.max_deviation() == max(
        dev for row in table1.rows for dev in row["deviation"].values())
    json.dumps(table1.as_dict())


def test_table1_annulus_row_matches_golden(table1):
    """The concentric row agrees with the published digits even on a
    coarse mesh; the two reference eigenvalues are closed-form known."""
    row = table1.rows[0]
    assert row["deviation"]["sigma2"] < 0.02
    assert row["deviation"]["mu2"] < 0.02


def test_table1_csv(table1):
    lines = table1.to_csv().splitlines()
    assert lines[0] == ("domain,sigma2_golden,sigma2_computed,"
                        "sigma2_deviation,mu2_golden,mu2_computed,"
                        "mu2_deviation")
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert cells[0] == "annulus"
    assert float(cells[1]) == 0.1783
    assert math.isclose(float(cells[2]), table1.rows[0]["computed"]["sigma2"],
                        rel_tol=1e-5)


def test_sweep_table_reproduction():
    artifact = reproduce_table(2, 0.45)
    golden = golden_table(2)
    assert artifact.kind == "sweep"
    assert [tuple(row["center"]) for row in artifact.rows] == list(
        golden["centers"])
    for row in artifact.rows:
        assert row["distance"] == math.hypot(*row["center"])
        assert set(row["golden"]) == set(QUANTITIES)
    lines = artifact.to_csv().splitlines()
    assert lines[0].startswith("t1,t2,distance,sigma1_golden")
    assert len(lines) == 1 + len(golden["centers"])
    # the first-eigenvalue columns track the published sweep even coarsely
    for row in artifact.rows:
        assert row["deviation"]["sigma1"] < 0.03
        assert row["deviation"]["mu1"] < 0.03


def test_reproduce_table_rejects_bad_id():
    with pytest.raises(ValueError, match="table id"):
        reproduce_table(9, H)


# ------------------------------------------------------------ lemma bundles

def test_verify_lemmas_bundle():
    grid = GridSpec(n_values=(2, 3), L_values=(1.5, 5.0),
                    r_samples=32, t_samples=64)
    bundle = verify_lemmas(grid)
    assert bundle["all_passed"] is True
    # 4 grid-wide scans + 2 monotonicity reports per (n, L) + brute force
    assert len(bundle["reports"]) == 4 + 2 * 4 + 1
    claims = [r["claim"] for r in bundle["reports"]]
    assert "spectrum_structure_bruteforce" in claims
    assert any("monotone_F_G_steklov" in c and "n=2" in c for c in claims)
    assert bundle["grid"]["n_values"] == [2, 3]
    json.dumps(bundle)


def test_verify_lemmas_at_huge_ratios_warns_nothing():
    grid = GridSpec(n_values=(2, 3), L_values=(1e30, 1e100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_lemmas(grid)["all_passed"] is True


def test_verify_lemmas_needs_grid():
    with pytest.raises(TypeError, match="GridSpec"):
        verify_lemmas({"n_values": (2,)})


# -------------------------------------------------------- integral lemmas

def test_integral_lemmas_on_annulus_itself():
    """Comparing the annulus against itself makes every inequality an
    equality: identical meshes give identically zero slacks."""
    report = verify_integral_lemmas(DomainSpec(Disk(5.0), (0.0, 0.0), 1.0),
                                    0.5)
    assert report["all_passed"] is True
    assert report["matched_outer_radius"] == 5.0
    assert report["order4_symmetric"] is True
    inequalities = [i for i in report["items"] if i["kind"] == "inequality"]
    assert len(inequalities) == 5
    assert all(i["slack"] == 0.0 for i in inequalities)
    json.dumps(report)


def test_integral_lemmas_on_square():
    side = math.sqrt(25.0 * math.pi)
    report = verify_integral_lemmas(
        DomainSpec(Rectangle(side, side), (0.0, 0.0), 1.0), 0.5)
    assert math.isclose(report["matched_outer_radius"], 5.0, rel_tol=1e-12)
    assert report["order2_symmetric"] is True
    assert report["order4_symmetric"] is True
    names = {item["name"] for item in report["items"]}
    assert "mixed_gradient_volume" in names
    assert "coordinate_split_boundary" in names
    assert report["all_passed"] is True


def test_integral_lemmas_symmetry_gating():
    report = verify_integral_lemmas(
        DomainSpec(Ellipse(2.0, 3.0), (0.0, 0.0), 1.0), 0.5)
    names = {item["name"] for item in report["items"]}
    assert report["order2_symmetric"] is True
    assert report["order4_symmetric"] is False
    assert "odd_moment_volume_x1" in names
    assert "mixed_moment_volume" not in names
    assert report["all_passed"] is True


def test_integral_lemmas_preconditions():
    with pytest.raises(ValueError, match="unit hole"):
        verify_integral_lemmas(DomainSpec(Disk(5.0), (0.0, 0.0), 1.5), 0.5)
    with pytest.raises(ValueError, match="unit hole"):
        verify_integral_lemmas(DomainSpec(Disk(5.0), (1.0, 0.0), 1.0), 0.5)
