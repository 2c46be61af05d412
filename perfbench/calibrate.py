"""Machine-speed calibration: seconds of work scaled to a reference speed.

On a shared host the same code runs about a third faster or slower for
stretches of ten seconds to a minute as other tenants come and go, and a
20-second run cannot average that out: one run lands in a fast stretch,
the next in a slow one.  So the untraced run times a fixed reference kernel
(pure-Python arithmetic, small numpy array arithmetic and a small dense
matrix product, the three kinds of work the package does) at probes inside
the timed work: at both ends of every set-up and pass, and at calls into
the layers (MARKS), at most once per PROBE_EVERY_S.  Each stretch of work
between two probes is scaled by REFERENCE_S over the median kernel time of
the probes within SMOOTH_S of it, the two that bound it included; one
probe is a few milliseconds and reads the speed of that moment only
roughly.  The result reads as seconds on a machine where the kernel takes
REFERENCE_S.  Probe time is left out of every timing, both the raw work
time and the scaled one.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np

import spans

# About the kernel time of a 2-vCPU Intel Xeon VM in its fast stretches;
# any fixed value would do.
REFERENCE_S = 0.004
KERNEL_REPEATS = 3
PROBE_EVERY_S = 0.5
SMOOTH_S = 1.0
# Call sites where a probe may run: mesh and solve requests, each
# retriangulation, and the solver's big steps.  Looked up at call time like
# the tracer's wraps; a name that no longer exists is skipped.
MARKS = (
    "steklov.experiments.triangulate",
    "steklov.experiments.solve_on_mesh",
    "steklov.meshing.Delaunay",
    "steklov.fem_solver.solve_on_mesh",
    "steklov.fem_solver.dtn_schur",
    "steklov.fem_solver.splu",
    "steklov.fem_solver.solve_eigs",
)

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((160, 160)) / 160.0
_VECTOR = _RNG.random(1500)


def kernel():
    """The fixed reference work, a few milliseconds."""
    total = 0
    for i in range(18000):
        total += i * i % 7
    x = _VECTOR
    for _ in range(120):
        x = np.sqrt(x * x + 1.0) - 0.5 * x
    a = _MATRIX
    for _ in range(8):
        a = a @ _MATRIX
    return total + float(x[0]) + float(a[0, 0])


@dataclass(frozen=True)
class Probe:
    start: float
    end: float
    kernel_s: float


class Calibrator:
    """Probes of the reference kernel, and timings scaled by them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.probes = []
        self.missing = []
        self._originals = []

    def probe(self):
        """Time the kernel KERNEL_REPEATS times; keep the fastest, which an
        interrupt during one repeat does not move."""
        start = self.clock()
        times = []
        for _ in range(KERNEL_REPEATS):
            t = self.clock()
            kernel()
            times.append(self.clock() - t)
        self.probes.append(Probe(start, self.clock(), min(times)))

    def _due(self):
        if not self.probes or self.clock() - self.probes[-1].end >= PROBE_EVERY_S:
            self.probe()

    def mark(self, targets=MARKS):
        """Let each call of every target first run a probe when one is due."""
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                self._due()
                return original(*args, **kwargs)
            return wrapper

        for target in targets:
            if not spans.patch(target, make_wrapper, self._originals):
                self.missing.append(target)
        return self

    def restore(self):
        """Put back every marked original, newest first."""
        spans.unpatch(self._originals)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()

    def timed(self, start, end):
        """(work seconds, scaled seconds) inside [start, end].

        Work is the time between consecutive probes; time before the first
        probe or after the last one is not counted, so callers probe at both
        ends of what they time.
        """
        work = scaled = 0.0
        for before, after in zip(self.probes, self.probes[1:]):
            lo, hi = max(start, before.end), min(end, after.start)
            if hi > lo:
                near = [p.kernel_s for p in self.probes
                        if before.start - SMOOTH_S <= p.start <= after.start + SMOOTH_S]
                work += hi - lo
                scaled += (hi - lo) * REFERENCE_S / statistics.median(near)
        return work, scaled
