"""Command-line front end for the solver toolkit.

Subcommands cover the closed-form annulus spectrum, one-shot FEM solves,
the closed-form verification bundle, the integral-identity quadrature
report, golden-table reproduction, and hole-position sweeps.  Results are
emitted as JSON (or CSV for the tabular commands) to stdout or --out, and
runs are deterministic for fixed inputs.  Exit code 0 means every check in
the run passed; 1 means a check failed; 2 means bad input.
"""

import argparse
import json
import sys
from dataclasses import asdict, fields

from steklov.analysis import GridSpec
from steklov.closed_form import PROBLEMS, AnnulusSpec, enumerate_spectrum
from steklov.domains import SHAPES, DomainSpec
from steklov.experiments import (
    SweepSpec,
    reproduce_table,
    run_sweep,
    verify_integral_lemmas,
    verify_lemmas,
)
from steklov.fem_solver import FemError, solve
from steklov.meshing import MeshError

DEVIATION_LIMIT = 0.02


# ------------------------------------------------------------- config files

def parse_config(path):
    """Read a flat key=value config file; '#' starts a comment."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            entries[key] = value
    return entries


def _require(entries, key):
    if key not in entries:
        raise ValueError(f"config is missing required key '{key}'")
    return entries[key]


def _floats(text):
    return tuple(float(part) for part in text.split(","))


def _pair(text):
    parts = _floats(text)
    if len(parts) != 2:
        raise ValueError(f"expected an 'x,y' pair, got {text!r}")
    return parts


def build_outer(entries):
    """The outer shape named by 'outer'; its field names are the keys."""
    kind = _require(entries, "outer")
    if kind not in SHAPES:
        *head, last = SHAPES
        raise ValueError(
            f"outer must be {', '.join(head)}, or {last}, got {kind!r}")
    shape = SHAPES[kind]
    return shape(*(float(_require(entries, f.name)) for f in fields(shape)))


def build_domain_spec(entries):
    return DomainSpec(
        build_outer(entries),
        _pair(entries.get("hole_center", "0,0")),
        float(entries.get("hole_radius", "1")),
    )


def build_grid(entries):
    kwargs = {}
    if "n_values" in entries:
        kwargs["n_values"] = tuple(int(p) for p in
                                   entries["n_values"].split(","))
    if "L_values" in entries:
        kwargs["L_values"] = _floats(entries["L_values"])
    if "r_samples" in entries:
        kwargs["r_samples"] = int(entries["r_samples"])
    if "t_samples" in entries:
        kwargs["t_samples"] = int(entries["t_samples"])
    return GridSpec(**kwargs)


def build_sweep(entries):
    centers = tuple(
        _pair(part) for part in _require(entries, "centers").split(";")
    )
    return SweepSpec(
        build_outer(entries),
        float(entries.get("hole_radius", "1")),
        _require(entries, "path"),
        centers,
        float(_require(entries, "h")),
    )


# ---------------------------------------------------------------- commands

def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out_path):
    _emit(json.dumps(payload, indent=2) + "\n", out_path)


def _emit_table(result, args):
    """A tabular result as CSV under --csv, else as JSON."""
    if args.csv:
        _emit(result.to_csv(), args.out)
    else:
        _emit_json(result.as_dict(), args.out)


def cmd_spectrum_annulus(args):
    spec = AnnulusSpec(args.n, args.inner, args.outer)
    lines = enumerate_spectrum(spec, args.problem, args.k)
    _emit_json({
        "n": args.n,
        "inner": args.inner,
        "outer": args.outer,
        "problem": args.problem,
        "k": args.k,
        "lines": [asdict(line) for line in lines],
    }, args.out)
    return 0


def cmd_fem_solve(args):
    spec = build_domain_spec(parse_config(args.spec))
    solution = solve(spec, args.h, args.k, args.problem)
    _emit_json(solution.as_dict(), args.out)
    return 0


def cmd_verify_lemmas(args):
    grid = build_grid(parse_config(args.grid)) if args.grid else GridSpec()
    bundle = verify_lemmas(grid)
    _emit_json(bundle, args.out)
    return 0 if bundle["all_passed"] else 1


def cmd_verify_integrals(args):
    spec = build_domain_spec(parse_config(args.spec))
    report = verify_integral_lemmas(spec, args.h)
    _emit_json(report, args.out)
    return 0 if report["all_passed"] else 1


def cmd_reproduce_table(args):
    artifact = reproduce_table(args.id, args.h)
    _emit_table(artifact, args)
    return 0 if artifact.max_deviation() <= DEVIATION_LIMIT else 1


def cmd_sweep(args):
    _emit_table(run_sweep(build_sweep(parse_config(args.spec))), args)
    return 0


# ------------------------------------------------------------------ parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="steklov",
        description="Steklov and mixed Steklov-Neumann eigenvalues on "
                    "doubly connected planar domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, csv=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", metavar="PATH",
                       help="write output to PATH instead of stdout")
        if csv:
            p.add_argument("--csv", action="store_true",
                           help="emit CSV instead of JSON")
        p.set_defaults(handler=handler)
        return p

    p = add("spectrum-annulus", cmd_spectrum_annulus,
            "closed-form spectrum of a concentric annulus")
    p.add_argument("--n", type=int, required=True, help="space dimension")
    p.add_argument("--inner", type=float, required=True, help="inner radius")
    p.add_argument("--outer", type=float, required=True, help="outer radius")
    p.add_argument("--k", type=int, default=10,
                   help="number of spectrum lines (default 10)")
    p.add_argument("--problem", choices=PROBLEMS, default="steklov")

    p = add("fem-solve", cmd_fem_solve,
            "solve one domain with the P1 pipeline")
    p.add_argument("--spec", required=True, metavar="FILE",
                   help="domain config file")
    p.add_argument("--h", type=float, required=True, help="target mesh size")
    p.add_argument("--k", type=int, default=6,
                   help="number of eigenvalues (default 6)")
    p.add_argument("--problem", choices=PROBLEMS, default="steklov")

    p = add("verify-lemmas", cmd_verify_lemmas,
            "closed-form verification bundle over a parameter grid")
    p.add_argument("--grid", metavar="FILE",
                   help="grid config file (default grid if omitted)")

    p = add("verify-integrals", cmd_verify_integrals,
            "quadrature check of the comparison inequalities and "
            "symmetry identities")
    p.add_argument("--spec", required=True, metavar="FILE",
                   help="domain config file")
    p.add_argument("--h", type=float, required=True, help="target mesh size")

    p = add("reproduce-table", cmd_reproduce_table,
            "recompute one golden table and report deviations", csv=True)
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3, 4),
                   help="table id")
    p.add_argument("--h", type=float, required=True, help="target mesh size")

    p = add("sweep", cmd_sweep,
            "hole-position sweep with monotonicity verdicts", csv=True)
    p.add_argument("--spec", required=True, metavar="FILE",
                   help="sweep config file")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError, MeshError, FemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
