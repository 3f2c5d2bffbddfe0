"""Span tracing of the package's public layers, done from outside the package.

Each traced function is replaced by a wrapper on its own module.  The
package calls across modules through module attributes (forms.check_identity,
apollonian.generate, linalg.realize_tails), and a module's own globals are
its attributes, so nested calls become child spans without any change to
the package.  A span records its name, start, end and the span that was open
when it started.  Spans stay in memory and are reduced to self times and
counts when the run ends.

Spans are recorded only while the tracer is active, which the benchmark
switches on around the timed calls alone, so output checks made between
them leave no spans.
"""

import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root


def _generate_counts(counts, args, result):
    counts["apollonian.generate.rows"] += len(result.rows)
    counts["apollonian.generate.reflections"] += result.explored * (result.n + 2)


def _loxodromic_counts(counts, args, result):
    counts["apollonian.loxodromic.steps"] += args[1]


def _dumps_packing_counts(counts, args, result):
    counts["shell.dumps_packing.bytes"] += len(result)


def _loads_packing_counts(counts, args, result):
    counts["shell.loads_packing.bytes"] += len(args[0])


def _render_counts(counts, args, result):
    counts["svg.render.circles_drawn"] += (result.count(b"<circle")
                                           + result.count(b"<ellipse"))


def _check_identity_counts(counts, args, result):
    counts["forms.check_identity.not_ok"] += not result.ok


# (module name, function name, counter on a successful call); every layer
# also counts its calls and the calls that raised.
LAYERS = (
    ("apollonian", "generate", _generate_counts),
    ("apollonian", "realize_bends", None),
    ("apollonian", "loxodromic", _loxodromic_counts),
    ("shell", "dumps_packing", _dumps_packing_counts),
    ("shell", "loads_packing", _loads_packing_counts),
    ("shell", "parse_document", None),
    ("shell", "loads_config", None),
    ("shell", "dumps_config", None),
    ("shell", "complete_bend", None),
    ("svg", "render", _render_counts),
    ("forms", "check_identity", _check_identity_counts),
    ("transform", "convert_matrix", None),
    ("euclid", "realize_curvature_vector", None),
    ("spherical", "realize_cap_config", None),
    ("hyperbolic", "realize_sphere_config", None),
    ("linalg", "realize_tails", None),
)


class Tracer:
    """Wraps the LAYERS of a package and records spans while active."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.active = False
        self._stack = []
        self._originals = []

    def install(self, package):
        for module_name, attr, counter in LAYERS:
            module = getattr(package, module_name)
            inner = getattr(module, attr)
            self._originals.append((module, attr, inner))
            setattr(module, attr,
                    self._wrap(f"{module_name}.{attr}", inner, counter))

    def uninstall(self):
        for module, attr, inner in reversed(self._originals):
            setattr(module, attr, inner)
        self._originals.clear()

    def _wrap(self, name, inner, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if not self.active:
                return inner(*args, **kwargs)
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            except Exception:
                span.end = time.perf_counter()
                stack.pop()
                counts[name + ".calls"] += 1
                counts[name + ".failed"] += 1
                raise
            span.end = time.perf_counter()
            stack.pop()
            counts[name + ".calls"] += 1
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = inner
        return traced


def self_times(spans):
    """Seconds per span name, each span's duration minus the time its
    children cover.  Calls are nested and sequential, so the children of
    one span never overlap and their durations add up."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    totals = defaultdict(float)
    for span, child_time in zip(spans, covered):
        totals[span.name] += (span.end - span.start) - child_time
    return dict(totals)


def root_time(spans):
    """Seconds covered by spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
