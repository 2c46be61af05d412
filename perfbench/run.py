"""Run one steklov benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` the run sets up SETUP_REPEATS times, then repeats whole passes
of the workload while another pass still fits in `--seconds`, and reports
the end-to-end metrics, timed in seconds scaled to a reference machine
speed (see calibrate.py).  With `--trace 1` it sets up once under the tracer,
runs untraced passes the same way, then exactly one traced pass and one more
untraced pass, and reports the per-layer metrics (including the tracing
overhead).  Every pass
is checked.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full record, with the
environment and the spans, goes to perfbench/out/.  Exit status: 0 when
every check passed, 1 when a check failed, 2 when the package cannot be
imported.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
# One process, one BLAS thread: no more threads than cores on any machine,
# and the single-threaded baseline the numbers of later changes compare to.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "ellipse_sweeps", "fine_solve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return None


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def run_passes(tracer, workload, inputs, seconds, log, calibrator=None):
    """Whole passes until another would overrun `seconds`; at least one.

    Returns (pass spans, outputs, error); a pass that raises ends the loop
    and comes back as the last span with no output, error set.  With a
    calibrator, each pass probes the machine speed at its start and end.
    """
    done, outputs = [], []
    start = tracer.clock()
    while True:
        span = tracer.open("bench.pass")
        try:
            if calibrator is not None:
                calibrator.probe()
            outputs.append(workload.run(inputs))
        except Exception:
            return done + [span], outputs, traceback.format_exc()
        finally:
            if calibrator is not None:
                calibrator.probe()
            tracer.close(span)
        done.append(span)
        log(f"pass {len(done)}: {span.duration:.3f} s")
        if tracer.clock() - start + span.duration > seconds:
            return done, outputs, None


# The helpers below import the benchmark modules where they are used: those
# import steklov, which main() must import first, under its timer and with
# a clean exit when the package is missing.

def check_passes(workload, seed, reference, runs):
    """Check every pass of every (tracer, passes, outputs, error) run.

    Returns (attempted, failed, failure messages, units, quality) with
    units and quality from the first checked pass.
    """
    import layers
    import workloads
    attempted = failed = 0
    failures, units, quality = [], None, None
    for tracer, passes, outputs, error in runs:
        for output in outputs:
            pass_units, pass_failures, pass_quality = workloads.check(
                workload, seed, output, reference)
            if units is None:
                units, quality = pass_units, pass_quality
            attempted += len(pass_units)
            failed += len({key for keys, _ in pass_failures for key in keys})
            failures += [msg for _, msg in pass_failures]
        if error is not None:
            # Every unit the failing pass started is lost with it.
            lost = len(layers.unit_bounds(tracer, passes[-1:]))
            attempted += lost
            failed += lost
            failures.append(error)
    return attempted, failed, failures, units, quality


def timed_run(workload, seed, seconds, import_s, log):
    """Set up SETUP_REPEATS times, then time passes; end-to-end metrics.

    Times are scaled to the reference machine speed by probes of the
    calibration kernel: three right after the import, and more inside every
    set-up and pass (calibrate.py).  Raw times are logged and recorded
    beside them.
    """
    import calibrate
    import layers
    import spans
    calibrator = calibrate.Calibrator()
    clock = calibrator.clock
    for _ in range(3):
        calibrator.probe()
    import_scaled = import_s * calibrate.REFERENCE_S / statistics.median(
        p.kernel_s for p in calibrator.probes)
    setups = []
    with calibrator.mark():
        for _ in range(SETUP_REPEATS):
            calibrator.probe()
            start = clock()
            inputs = workload.setup(seed)
            end = clock()
            calibrator.probe()
            setups.append(calibrator.timed(start, end))
        log(f"import {import_s:.3f} s ({import_scaled:.3f} scaled), set-ups "
            f"{[round(w, 3) for w, _ in setups]} s "
            f"({[round(x, 3) for _, x in setups]} scaled)")
        with layers.install(spans.Tracer(), layers.UNIT_WRAPS) as tracer:
            passes, outputs, error = run_passes(tracer, workload, inputs,
                                                seconds, log, calibrator)
    done = passes[:len(outputs)]
    pass_times = [calibrator.timed(p.start, p.end) for p in done]
    times = [calibrator.timed(a, b)[1]
             for a, b in layers.unit_bounds(tracer, done)]
    kernel_s = [p.kernel_s for p in calibrator.probes]
    record = {"import_s": import_s, "import_scaled_s": import_scaled,
              "setup_times": [w for w, _ in setups],
              "setup_scaled_times": [x for _, x in setups],
              "pass_times": [w for w, _ in pass_times],
              "pass_scaled_times": [x for _, x in pass_times],
              "unit_scaled_times": times,
              "calibration": {"reference_s": calibrate.REFERENCE_S,
                              "probes": len(kernel_s),
                              "kernel_s_median": statistics.median(kernel_s),
                              "kernel_s_min": min(kernel_s),
                              "kernel_s_max": max(kernel_s),
                              "missing_marks": calibrator.missing,
                              "series": [(p.start, p.kernel_s)
                                         for p in calibrator.probes]}}
    metrics = {}
    if done:
        per_pass = len(times) // len(done)
        # Per-unit latency is printed and recorded but is not a BENCHMARK.json
        # metric: a unit is a 1-6 s sample, and on a shared 2-vCPU machine
        # such samples spread more between runs than any allowed bound.
        record["unit_p50_s"] = statistics.median(times)
        # Slowest unit: per unit position, the median over passes.
        record["unit_max_s"] = max(statistics.median(times[i::per_pass])
                                   for i in range(per_pass))
        record["wall_raw_s"] = statistics.median(w for w, _ in pass_times)
        log(f"unit_p50_s {record['unit_p50_s']:.6g} s, unit_max_s "
            f"{record['unit_max_s']:.6g} s ({per_pass} units x {len(done)} "
            f"passes, scaled); wall_raw_s {record['wall_raw_s']:.6g} s; "
            f"{len(kernel_s)} probes, kernel median "
            f"{record['calibration']['kernel_s_median'] * 1e3:.3f} ms")
        values = {
            "setup_s": (import_scaled
                        + statistics.median(x for _, x in setups), "s"),
            "wall_s": (statistics.median(x for _, x in pass_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        metrics = {k: {"value": float(v), "unit": u}
                   for k, (v, u) in values.items()}
    return metrics, record, [(tracer, passes, outputs, error)]


def traced_run(workload, seed, seconds, log):
    """Traced set-up, untraced passes, one traced pass, one more untraced
    pass; per-layer metrics.  The untraced passes on both sides of the
    traced one keep warm-up and drift out of the overhead estimate."""
    import layers
    import spans
    full = spans.Tracer()
    with layers.install(full, layers.TRACE_WRAPS):
        inputs = workload.setup(seed)
    plain = spans.Tracer()
    with layers.install(plain, layers.UNIT_WRAPS):
        passes, outputs, error = run_passes(plain, workload, inputs, seconds, log)
    runs = [(plain, passes, outputs, error)]
    metrics = {}
    if error is None:
        with layers.install(full, layers.TRACE_WRAPS):
            traced, traced_outputs, error = run_passes(
                full, workload, inputs, 0.0, lambda msg: log(f"traced {msg}"))
        runs.append((full, traced, traced_outputs, error))
    if error is None:
        with layers.install(plain, layers.UNIT_WRAPS):
            after, after_outputs, error = run_passes(plain, workload, inputs, 0.0, log)
        runs.append((plain, after, after_outputs, error))
        if error is None:
            overhead = traced[0].duration - statistics.median(
                p.duration for p in passes + after)
            metrics = layers.layer_metrics(full, traced, overhead)
    record = {"missing_wraps": full.missing,
              "spans": [s.as_dict() for s in full.spans]}
    return metrics, record, runs


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        import steklov.experiments  # (numpy, scipy, steklov)
    except ImportError as exc:
        print(f"cannot import steklov from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if (ROOT / "src") not in Path(steklov.experiments.__file__).parents:
        print(f"steklov was imported from {steklov.experiments.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())

    def log(msg):
        print(f"[{args.workload} seed={args.seed} trace={args.trace}] {msg}",
              flush=True)

    if args.trace:
        metrics, record, runs = traced_run(workload, args.seed, args.seconds,
                                           log)
    else:
        metrics, record, runs = timed_run(workload, args.seed, args.seconds,
                                          import_s, log)
    attempted, failed, failures, units, quality = check_passes(
        workload, args.seed, reference, runs)
    correct = failed == 0 and attempted > 0 and bool(metrics)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(), metrics=metrics,
                  units=units, quality=quality, attempted=attempted,
                  failed=failed, failures=failures)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    for k, m in metrics.items():
        log(f"{k:44s} {m['value']:.6g} {m['unit']}")
    if quality:
        gp, gt = quality["golden_pass"], quality["golden_total"]
        log(f"golden_pass_frac {gp}/{gt}" if gt
            else "golden_pass_frac n/a (jittered inputs)")
        for k in ("eig_drift_rel", "closed_form_err_rel"):
            if quality.get(k) is not None:
                log(f"{k} {quality[k]:.3e}")
    log(f"failed_frac {failed}/{attempted}")
    for msg in failures:
        log(f"FAILED: {msg}")
    log(f"environment {json.dumps(record['environment'])}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
