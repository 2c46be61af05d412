"""Self-tests of the benchmark machinery, on meshes small enough to take
seconds.  Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from steklov import experiments, golden  # noqa: E402
from steklov.domains import Disk, DomainSpec  # noqa: E402

TINY_SWEEP = experiments.SweepSpec(Disk(3.0), 1.0, "axis-x",
                                   ((0.0, 0.0), (0.5, 0.0)), 0.5)
TINY = workloads.Workload(
    "tiny", False, lambda seed: TINY_SWEEP, experiments.run_sweep,
    lambda result: {f"c{i}": {q: row[q] for q in workloads.QUANTITIES}
                    for i, row in enumerate(result.rows)},
    lambda seed: {}, lambda seed, output, units: ([], {}))


def _quiet(msg):
    pass


def _current(wraps):
    """(module, attr) -> object currently bound there, for existing names."""
    bound = {}
    for target, _, _ in wraps:
        module_name, _, attr = target.rpartition(".")
        module = sys.modules[module_name]
        bound[target] = getattr(module, attr)
    return bound


class TracerTest(unittest.TestCase):

    def traced_pass(self, wraps=layers.TRACE_WRAPS):
        tracer = spans.Tracer()
        with layers.install(tracer, wraps):
            passes, outputs, error = run.run_passes(tracer, TINY, TINY_SWEEP,
                                                    0.0, _quiet)
        self.assertIsNone(error)
        return tracer, passes

    def test_wrappers_restored_after_traced_run(self):
        before = _current(layers.TRACE_WRAPS)
        self.traced_pass()
        self.assertEqual(_current(layers.TRACE_WRAPS), before)

    def test_wrappers_restored_when_a_pass_raises(self):
        before = _current(layers.TRACE_WRAPS)
        with self.assertRaises(ZeroDivisionError):
            with layers.install(spans.Tracer(), layers.TRACE_WRAPS):
                1 / 0
        self.assertEqual(_current(layers.TRACE_WRAPS), before)

    def test_self_times_sum_within_wall(self):
        tracer, passes = self.traced_pass()
        self_time = tracer.self_times()
        wall = passes[0].duration
        total = sum(self_time.values())
        self.assertGreater(len(tracer.spans), 10)
        self.assertTrue(all(t >= -1e-9 for t in self_time.values()))
        self.assertLessEqual(total, wall + 1e-9)
        metrics = layers.layer_metrics(tracer, passes, 0.0)
        self.assertLessEqual(metrics["experiments.self_s"]["value"], wall)
        self.assertEqual(metrics["meshing.triangulate.calls"]["value"], 2)

    def test_missing_wrapped_name_reads_zero_calls(self):
        wraps = tuple(
            ("steklov.meshing.NoSuchDelaunay", name, record)
            if name == "meshing.delaunay" else (target, name, record)
            for target, name, record in layers.TRACE_WRAPS)
        tracer, passes = self.traced_pass(wraps)
        self.assertEqual(tracer.missing, ["steklov.meshing.NoSuchDelaunay"])
        metrics = layers.layer_metrics(tracer, passes, 0.0)
        self.assertEqual(metrics["meshing.delaunay.calls"]["value"], 0)
        self.assertEqual(metrics["meshing.delaunay.s"]["value"], 0)
        self.assertGreater(metrics["meshing.triangulate.calls"]["value"], 0)
        self.assertFalse(spans.Tracer().wrap("steklov.no_such_module.f", "x"))


class CalibratorTest(unittest.TestCase):

    def test_timed_leaves_out_probes_and_scales_each_stretch(self):
        cal = calibrate.Calibrator()
        ref = calibrate.REFERENCE_S
        far = 3.0 * calibrate.SMOOTH_S
        cal.probes = [calibrate.Probe(0.0, 1.0, ref),
                      calibrate.Probe(far, far + 1.0, 3.0 * ref),
                      calibrate.Probe(far + 2.0, far + 3.0, 2.0 * ref)]
        work, scaled = cal.timed(0.0, far + 3.0)
        self.assertAlmostEqual(work, far)
        # far - 1 s at the median of 1x and 3x the reference kernel time,
        # then 1 s at the median of 3x and 2x.
        self.assertAlmostEqual(scaled, (far - 1.0) / 2.0 + 1.0 / 2.5)
        self.assertAlmostEqual(cal.timed(1.5, 2.5)[0], 1.0)
        self.assertAlmostEqual(cal.timed(1.5, 2.5)[1], 0.5)
        self.assertEqual(cal.timed(far + 3.0, far + 9.0), (0.0, 0.0))

    def test_marks_probe_when_due_and_are_restored(self):
        targets = calibrate.MARKS + ("steklov.meshing.NoSuchDelaunay",)
        before = {t: _current([(t, None, None)]) for t in calibrate.MARKS}
        cal = calibrate.Calibrator()
        with cal.mark(targets):
            experiments.run_sweep(TINY_SWEEP)
        self.assertEqual(cal.missing, ["steklov.meshing.NoSuchDelaunay"])
        self.assertGreaterEqual(len(cal.probes), 1)
        self.assertTrue(all(p.kernel_s > 0 for p in cal.probes))
        self.assertEqual({t: _current([(t, None, None)]) for t in calibrate.MARKS},
                         before)


class CheckTest(unittest.TestCase):

    def table1_artifact(self, mu2_scale=1.0):
        reference = json.loads((HERE / "reference.json").read_text())
        rows = []
        for name, vals in reference["table1"].items():
            computed = dict(vals)
            if name == "annulus":
                computed["mu2"] *= mu2_scale
            rows.append({"domain": name, "computed": computed})
        return experiments.TableArtifact(1, "comparison", 0.125, tuple(rows)), reference

    def test_reference_values_pass(self):
        artifact, reference = self.table1_artifact()
        units, failures, quality = workloads.check(
            workloads.WORKLOADS["table1"], 0, artifact, reference)
        self.assertEqual(failures, [])
        self.assertEqual((quality["golden_pass"], quality["golden_total"]), (4, 6))
        self.assertEqual(quality["eig_drift_rel"], 0.0)

    def test_injected_wrong_eigenvalue_is_flagged(self):
        artifact, reference = self.table1_artifact(mu2_scale=1.001)
        units, failures, quality = workloads.check(
            workloads.WORKLOADS["table1"], 0, artifact, reference)
        self.assertEqual({key for keys, _ in failures for key in keys}, {"annulus"})
        self.assertTrue(any("drifted" in msg for _, msg in failures))
        self.assertGreater(quality["eig_drift_rel"], workloads.EIG_DRIFT_TOL)

    def test_jitter_keeps_clearance_and_seed_zero_is_golden(self):
        table = golden.golden_table(2)
        centers = table["centers"]
        self.assertEqual(workloads.jitter_centers(table["outer"], centers, 0), centers)
        moved = workloads.jitter_centers(table["outer"], centers, 7)
        self.assertNotEqual(moved, centers)
        self.assertEqual(moved, workloads.jitter_centers(table["outer"], centers, 7))
        for old, new in zip(centers, moved):
            gap = DomainSpec(table["outer"], old, 1.0).clearance
            self.assertGreaterEqual(DomainSpec(table["outer"], new, 1.0).clearance,
                                    (1.0 - workloads.JITTER) * gap)


class MetricNamesTest(unittest.TestCase):
    """The run prints exactly the metrics BENCHMARK.json declares."""

    def setUp(self):
        self.declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def declared_units(self, kind):
        return {m["name"]: m["unit"] for m in self.declared[kind]}

    @staticmethod
    def units(metrics):
        return {name: m["unit"] for name, m in metrics.items()}

    def test_end_to_end_names(self):
        metrics, _, runs = run.timed_run(TINY, 0, 0.0, 0.1, _quiet)
        self.assertEqual(self.units(metrics), self.declared_units("end_to_end"))
        self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_per_layer_names(self):
        metrics, record, runs = run.traced_run(TINY, 0, 0.0, _quiet)
        self.assertEqual(self.units(metrics), self.declared_units("per_layer"))
        self.assertEqual(record["missing_wraps"], [])


if __name__ == "__main__":
    unittest.main()
