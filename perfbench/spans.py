"""In-memory spans around calls into the steklov layers, recorded from outside.

A `Tracer` replaces a function with a timing wrapper at the name its caller
looks up at call time (for example `steklov.meshing.Delaunay`, which
`meshing` calls through its own module globals).  Each call becomes a span
with a name, start, end and parent span; spans stay in memory until the run
writes them out.  `restore` puts every original back.  A name that does not
exist is remembered as missing and simply never produces a span, so a later
refactor that removes a function reads as zero calls instead of an error.
"""

import importlib
import time
from dataclasses import dataclass, field


def patch(target, make_wrapper, originals):
    """Bind make_wrapper(original) at `target` ("package.module.attr").

    Appends (module, attr, original) to `originals` for `unpatch`.  Returns
    False, patching nothing, when the name does not exist.
    """
    module_name, _, attr = target.rpartition(".")
    try:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
    except (ImportError, AttributeError):
        return False
    setattr(module, attr, make_wrapper(original))
    originals.append((module, attr, original))
    return True


def unpatch(originals):
    """Put back every patched original, newest first."""
    while originals:
        module, attr, original = originals.pop()
        setattr(module, attr, original)


@dataclass
class Span:
    id: int
    name: str
    parent: int
    start: float
    end: float = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    """Spans from wrapped call sites, plus the wrappers' bookkeeping."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []
        self.missing = []
        self._stack = []
        self._originals = []

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, target, name, record=None):
        """Time every call of `target` ("package.module.attr") as span `name`.

        `name` may be a callable taking the call's arguments and returning
        the span name.  `record(attrs, args, kwargs, result)` runs after the
        span has closed, so its own cost stays out of the span.  Returns
        False, and records the target as missing, when it does not exist.
        """
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                span = self.open(name(*args, **kwargs) if callable(name) else name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(span)
                if record is not None:
                    record(span.attrs, args, kwargs, result)
                return result
            return wrapper

        if patch(target, make_wrapper, self._originals):
            return True
        self.missing.append(target)
        return False

    def restore(self):
        """Put back every wrapped original, newest first."""
        unpatch(self._originals)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def within(self, outer, name):
        """Spans called `name` that lie inside the interval of span `outer`."""
        return [s for s in self.named(name)
                if s.start >= outer.start and s.end <= outer.end]

    def self_times(self):
        """Span id -> duration minus the time its child spans cover.

        Children of one span run one after another on one thread, so their
        intervals are disjoint and the covered time is their summed length.
        """
        covered = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return {s.id: s.duration - covered.get(s.id, 0.0) for s in self.spans}
