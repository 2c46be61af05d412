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
from dataclasses import MISSING, asdict, fields

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
            if key in entries:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            entries[key] = value
    return entries


def _floats(text):
    return tuple(float(part) for part in text.split(","))


def _pair(text):
    parts = _floats(text)
    if len(parts) != 2:
        raise ValueError(f"expected an 'x,y' pair, got {text!r}")
    return parts


# How a config value is read, by field name; every other field is a float.
READERS = {
    "hole_center": _pair,
    "centers": lambda text: tuple(_pair(part) for part in text.split(";")),
    "path": str,
    "n_values": lambda text: tuple(int(part) for part in text.split(",")),
    "L_values": _floats,
    "r_samples": int,
    "t_samples": int,
}


def build_config(cls, entries, **defaults):
    """The dataclass `cls` from config entries keyed by its fields and, under
    'outer', the named shape's; `defaults` fill absent keys.  A missing
    required key and a key that names no field are errors."""
    entries = {**defaults, **entries}
    known = set()

    def read(kind):
        known.update(f.name for f in fields(kind))
        kwargs = {}
        for f in fields(kind):
            text = entries.get(f.name)
            if text is None:
                if f.default is MISSING:
                    raise ValueError(
                        f"config is missing required key '{f.name}'")
            elif f.name == "outer":
                if text not in SHAPES:
                    *head, last = SHAPES
                    raise ValueError(f"outer must be {', '.join(head)}, "
                                     f"or {last}, got {text!r}")
                kwargs["outer"] = SHAPES[text](**read(SHAPES[text]))
            else:
                kwargs[f.name] = READERS.get(f.name, float)(text)
        return kwargs

    kwargs = read(cls)
    for key in entries:
        if key not in known:
            raise ValueError(f"unknown config key '{key}'")
    return cls(**kwargs)


def build_domain_spec(entries):
    return build_config(DomainSpec, entries, hole_center="0,0", hole_radius="1")


def build_grid(entries):
    return build_config(GridSpec, entries)


def build_sweep(entries):
    return build_config(SweepSpec, entries, hole_radius="1")


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
