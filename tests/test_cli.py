"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from steklov.analysis import GridSpec
from steklov.cli import (
    DEVIATION_LIMIT,
    build_domain_spec,
    build_grid,
    build_sweep,
    main,
    parse_config,
)
from steklov.domains import SHAPES, shape_dict

ANNULUS_CFG = """\
# the benchmark annulus
outer = disk
radius = 5.0
hole_center = 0,0
hole_radius = 1.0
"""


@pytest.fixture
def annulus_cfg(tmp_path):
    path = tmp_path / "annulus.cfg"
    path.write_text(ANNULUS_CFG)
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -------------------------------------------------------------- config files

def test_parse_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\na = 1.5  # trailing\n b = x,y \n")
    assert parse_config(str(path)) == {"a": "1.5", "b": "x,y"}


def test_parse_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        parse_config(str(path))
    path.write_text("key =\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config(str(path))
    path.write_text("radius = 5\nradius = 6\n")
    with pytest.raises(ValueError, match="bad.cfg:2: repeated key 'radius'"):
        parse_config(str(path))


SHAPE_CONFIGS = {
    "disk": {"radius": "5"},
    "ellipse": {"a": "3", "b": "8.33"},
    "rectangle": {"width": "13.095", "height": "6"},
}


def test_build_domain_spec_variants():
    assert set(SHAPE_CONFIGS) == set(SHAPES)
    for name, shape in SHAPES.items():
        keys = SHAPE_CONFIGS[name]
        spec = build_domain_spec({"outer": name, **keys})
        assert type(spec.outer) is shape
        echo = shape_dict(spec.outer)
        assert echo == {"shape": name, **{k: float(v) for k, v in keys.items()}}
        assert list(echo)[1:] == list(keys)
        for missing in keys:
            partial = {k: v for k, v in keys.items() if k != missing}
            with pytest.raises(ValueError,
                               match=f"missing required key '{missing}'"):
                build_domain_spec({"outer": name, **partial})
    disk = build_domain_spec({"outer": "disk", "radius": "5"})
    assert disk.hole_center == (0.0, 0.0)
    assert disk.hole_radius == 1.0
    ell = build_domain_spec({"outer": "ellipse", "a": "3", "b": "8.33",
                             "hole_center": "0.4,0"})
    assert ell.hole_center == (0.4, 0.0)
    rect = build_domain_spec({"outer": "rectangle", "width": "13.095",
                              "height": "6", "hole_radius": "0.5"})
    assert rect.hole_radius == 0.5
    with pytest.raises(ValueError,
                       match="outer must be disk, ellipse, or rectangle, "
                             "got 'triangle'"):
        build_domain_spec({"outer": "triangle"})
    with pytest.raises(ValueError, match="pair"):
        build_domain_spec({"outer": "disk", "radius": "5",
                           "hole_center": "1,2,3"})


def test_build_grid_defaults_and_overrides():
    assert build_grid({}) == GridSpec()
    grid = build_grid({"n_values": "2,4", "L_values": "1.5,10",
                       "r_samples": "32", "t_samples": "64"})
    assert grid == GridSpec((2, 4), (1.5, 10.0), 32, 64)


def test_build_sweep():
    sweep = build_sweep({"outer": "disk", "radius": "5", "path": "axis-x",
                         "centers": "0.5,0 ; 1.5,0", "h": "0.4"})
    assert sweep.centers == ((0.5, 0.0), (1.5, 0.0))
    with pytest.raises(ValueError, match="missing required key 'centers'"):
        build_sweep({"outer": "disk", "radius": "5", "path": "axis-x",
                     "h": "0.4"})


# ----------------------------------------------------------------- commands

def test_spectrum_annulus_command(capsys):
    rc, out, _ = run_cli(capsys, "spectrum-annulus", "--n", "2",
                         "--inner", "1", "--outer", "5", "--k", "4")
    assert rc == 0
    payload = json.loads(out)
    lines = payload["lines"]
    assert lines[0]["value"] == 0.0
    assert lines[1]["value"] == pytest.approx(0.17830094339716976, abs=0.0)
    assert lines[1]["multiplicity"] == 2


@pytest.mark.parametrize("n,outer", [("500", "5")])
def test_spectrum_annulus_stays_finite(capsys, n, outer):
    # degree 0 in high dimension goes through the scaled quadratic
    rc, out, err = run_cli(capsys, "spectrum-annulus", "--n", n,
                           "--inner", "1", "--outer", outer)
    assert (rc, err) == (0, "")
    lines = json.loads(out)["lines"]
    assert [line["multiplicity"] for line in lines] == [1, int(n)]
    assert all(math.isfinite(line["value"]) for line in lines)


def test_fem_solve_command(capsys, annulus_cfg):
    rc, out, _ = run_cli(capsys, "fem-solve", "--spec", annulus_cfg,
                         "--h", "0.5", "--k", "3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["problem"] == "steklov"
    assert len(payload["eigenvalues"]) == 3
    assert payload["eigenvalues"][1] == pytest.approx(0.1783, rel=0.02)
    assert payload["spec"]["outer"] == {"shape": "disk", "radius": 5.0}


def test_verify_lemmas_command(capsys, tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text("n_values = 2\nL_values = 5\n"
                    "r_samples = 32\nt_samples = 64\n")
    rc, out, _ = run_cli(capsys, "verify-lemmas", "--grid", str(grid))
    assert rc == 0
    assert json.loads(out)["all_passed"] is True


def test_verify_integrals_command(capsys, annulus_cfg):
    rc, out, _ = run_cli(capsys, "verify-integrals", "--spec", annulus_cfg,
                         "--h", "0.5")
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["matched_outer_radius"] == 5.0


def test_sweep_command_csv_and_out(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("outer = disk\nradius = 5\npath = axis-x\n"
                   "centers = 0.5,0\nh = 0.4\n")
    rc, out, _ = run_cli(capsys, "sweep", "--spec", str(cfg), "--csv")
    assert rc == 0
    assert out.splitlines()[0] == "t1,t2,distance,sigma1,sigma2,mu1,mu2"
    assert "# verdict,sigma1,both" in out
    out_path = tmp_path / "sweep.csv"
    rc2 = main(["sweep", "--spec", str(cfg), "--csv", "--out", str(out_path)])
    capsys.readouterr()
    assert rc2 == 0
    assert out_path.read_text() == out


def csv_rows(text):
    """The data rows of CLI CSV output as dicts keyed by the header."""
    header, *rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def assert_six_digits(cell, value):
    assert float(cell) == pytest.approx(value, rel=5e-6, abs=0.0)


def test_reproduce_table_command_json_and_csv(capsys):
    args = ("reproduce-table", "--id", "1", "--h", "0.5")
    rc, out, _ = run_cli(capsys, *args)
    payload = json.loads(out)
    assert payload["table_id"] == 1 and payload["h"] == 0.5
    assert rc == (0 if payload["max_deviation"] <= DEVIATION_LIMIT else 1)
    rc_csv, out_csv, _ = run_cli(capsys, *args, "--csv")
    assert rc_csv == rc
    rows = csv_rows(out_csv)
    assert [r["domain"] for r in rows] == [r["domain"] for r in payload["rows"]]
    for cells, row in zip(rows, payload["rows"]):
        assert len(cells) == 1 + 3 * len(row["golden"])
        for q in row["golden"]:
            for part in ("golden", "computed", "deviation"):
                assert_six_digits(cells[f"{q}_{part}"], row[part][q])


def test_sweep_command_json_matches_csv(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("outer = disk\nradius = 5\npath = axis-x\n"
                   "centers = 0.5,0 ; 1.5,0\nh = 0.4\n")
    rc, out, _ = run_cli(capsys, "sweep", "--spec", str(cfg))
    assert rc == 0
    payload = json.loads(out)
    assert payload["outer"] == {"shape": "disk", "radius": 5.0}
    assert [row["center"] for row in payload["rows"]] == [[0.5, 0.0], [1.5, 0.0]]
    _, out_csv, _ = run_cli(capsys, "sweep", "--spec", str(cfg), "--csv")
    for cells, row in zip(csv_rows(out_csv), payload["rows"], strict=True):
        assert_six_digits(cells["t1"], row["center"][0])
        assert_six_digits(cells["t2"], row["center"][1])
        for q in ("distance", "sigma1", "sigma2", "mu1", "mu2"):
            assert_six_digits(cells[q], row[q])
    for q, verdict in payload["verdicts"].items():
        assert f"# verdict,{q},{verdict}\n" in out_csv
    flag = str(payload["mu_multiplicity_two"]).lower()
    assert f"# mu_multiplicity_two,{flag}\n" in out_csv


def test_cli_runs_are_deterministic(capsys, annulus_cfg):
    args = ("fem-solve", "--spec", annulus_cfg, "--h", "0.5", "--k", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_config_errors_exit_2(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "fem-solve", "--spec",
                         str(tmp_path / "absent.cfg"), "--h", "0.5")
    assert rc == 2
    assert "error:" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("outer = cube\nradius = 5\n")
    rc, _, err = run_cli(capsys, "fem-solve", "--spec", str(bad), "--h", "0.5")
    assert rc == 2
    assert "outer must be" in err
    # a key that names no field is an error, not ignored
    for command, text in [
            (("fem-solve", "--h", "0.5", "--spec"),
             "outer = disk\nradius = 5\nhole_radus = 2\n"),
            (("sweep", "--spec"), "outer = disk\nradius = 5\npath = axis-x\n"
             "centers = 0.5,0\nh = 0.4\nhole_radus = 0.5\n"),
            (("verify-lemmas", "--grid"), "n_values = 2\nL_value = 5\n")]:
        bad.write_text(text)
        rc, out, err = run_cli(capsys, *command, str(bad))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'hole_radus'" in err or "'L_value'" in err


def test_infinite_sizes_exit_2(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "spectrum-annulus", "--n", "2",
                           "--inner", "1", "--outer", "inf")
    assert (rc, out) == (2, "")
    assert err.startswith("error: radii must") and "(1.0, inf)" in err
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("outer = disk\nradius = inf\n")
    rc, out, err = run_cli(capsys, "fem-solve", "--spec", str(cfg),
                           "--h", "0.5")
    assert (rc, out) == (2, "")
    assert err == "error: disk radius must be positive and finite, got inf\n"
    cfg.write_text(ANNULUS_CFG)
    rc, out, err = run_cli(capsys, "fem-solve", "--spec", str(cfg),
                           "--h", "inf")
    assert (rc, out) == (2, "")
    assert err == "error: h must be positive and finite, got inf\n"


@pytest.mark.parametrize("n,outer", [("3", "1e200"), ("2", "1e160")])
def test_overflow_exits_2(capsys, n, outer):
    rc, out, err = run_cli(capsys, "spectrum-annulus", "--n", n,
                           "--inner", "1", "--outer", outer)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"radii ratio {float(outer):.6g}" in err


def test_bad_usage_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["reproduce-table", "--id", "7", "--h", "0.4"])
    capsys.readouterr()
    assert excinfo.value.code == 2


def test_module_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "steklov.cli", "spectrum-annulus",
         "--n", "3", "--inner", "1", "--outer", "2", "--k", "2"],
        capture_output=True, text=True, check=False, env=env)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["n"] == 3
    assert payload["lines"][0]["value"] == 0.0
