"""In-memory spans around the benchmark's calls into the zenoscope layers.

A span records its name (the layer, or ``check``), a tag (the kind of work),
start and end times, its parent span, the operation id and a work count
(steps, points or x values).  Spans stay in memory and are written out once
the run ends.  ``NullTracer`` has the same interface and records nothing; the
untraced run, which gives the end-to-end metrics, uses it.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

LAYERS = ("spectral", "volterra", "rates", "trajectories", "lindblad")

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    op = None

    def span(self, name, tag="", work=0):
        return _NULL_SPAN

    def count(self, name, n):
        pass


class Tracer:
    """Records spans and counters; self time is span time minus child spans."""

    FIELDS = ("name", "tag", "start", "end", "parent", "op", "work", "error", "child_s")

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name, tag="", work=0):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, tag, time.perf_counter(), None, parent, self.op, int(work), False, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException:
            record[7] = True
            raise
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent][8] += record[3] - record[2]

    def count(self, name, n):
        self.counters[name] += n


@contextlib.contextmanager
def layer_boundaries(tracer, modules):
    """Trace the kernel sampling that other layers do through ``spectral``.

    ``volterra`` samples its kernel through ``kernel_value`` and ``rates``
    through ``scaled_kernel_g``; both are looked up as module globals, so
    rebinding them here puts a ``spectral`` span around every such call.  The
    original functions are restored on exit.  A module that no longer has the
    name is left alone, and its kernel time then counts to its own layer.
    """
    patched = []
    for module, name in ((modules["volterra"], "kernel_value"),
                         (modules["rates"], "scaled_kernel_g")):
        original = getattr(module, name, None)
        if original is None:
            continue

        def traced(kernel, x, _fn=original):
            with tracer.span("spectral", kernel.mode.value, getattr(x, "size", 1)):
                return _fn(kernel, x)

        setattr(module, name, traced)
        patched.append((module, name, original))
    try:
        yield
    finally:
        for module, name, original in patched:
            setattr(module, name, original)


def _sums(spans, name, tag=None):
    """(calls, self seconds, inclusive seconds, work, errors) of matching spans."""
    calls = self_s = incl_s = work = errors = 0
    for s in spans:
        if s[0] == name and (tag is None or s[1] == tag):
            calls += 1
            incl_s += s[3] - s[2]
            self_s += s[3] - s[2] - s[8]
            work += s[6]
            errors += s[7]
    return calls, self_s, incl_s, work, errors


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer, op_wall_s: float) -> dict:
    """Per-layer metrics from the recorded spans; 0 where a layer did no such work.

    ``L.busy_s`` is self time, so the layers' busy times and ``check.busy_s``
    add up to the operations' wall time (``trace.accounted_share``).
    """
    spans = tracer.spans
    m = {}
    busy_total = 0.0
    for layer in LAYERS:
        calls, self_s, _, _, errors = _sums(spans, layer)
        m[f"{layer}.calls"] = calls
        m[f"{layer}.busy_s"] = self_s
        m[f"{layer}.errors"] = errors
        busy_total += self_s

    _, _, _, steps, _ = _sums(spans, "trajectories")
    m["trajectories.steps"] = steps
    for tag in ("driven", "undriven"):
        _, self_s, _, work, _ = _sums(spans, "trajectories", tag)
        m[f"trajectories.{tag}.ns_per_step"] = _ratio(self_s, work, 1e9)
    m["trajectories.jumps_per_step"] = _ratio(tracer.counters["trajectories.jumps"], steps)

    _, self_s, _, work, _ = _sums(spans, "lindblad")
    m["lindblad.steps"] = work
    m["lindblad.us_per_step"] = _ratio(self_s, work, 1e6)

    for tag in ("long", "short"):
        calls, _, incl_s, _, _ = _sums(spans, "volterra", tag)
        m[f"volterra.{tag}.ms_per_solve"] = _ratio(incl_s, calls, 1e3)

    _, self_s, _, points, _ = _sums(spans, "spectral")
    m["spectral.points"] = points
    m["spectral.us_per_point"] = _ratio(self_s, points, 1e6)
    _, self_s, _, points, _ = _sums(spans, "spectral", "quadrature")
    m["spectral.quadrature.us_per_point"] = _ratio(self_s, points, 1e6)

    _, _, incl_s, x_points, _ = _sums(spans, "rates")
    m["rates.x_points"] = x_points
    m["rates.ms_per_x"] = _ratio(incl_s, x_points, 1e3)
    m["rates.tabulated.busy_s"] = _sums(spans, "rates", "tabulated")[2]

    check_s = _sums(spans, "check")[1]
    m["check.busy_s"] = check_s
    m["trace.accounted_share"] = _ratio(busy_total + check_s, op_wall_s)
    return m
