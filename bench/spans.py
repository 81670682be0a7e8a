"""Spans around the calls into each layer of contextkey, recorded from outside.

`Tracer.root` replaces the module attributes through which the program
calls its layers with wrappers that record a span (name, start, end,
parent), opens a root span, and puts the originals back when it closes.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

#: (module, attribute, span name).  Each attribute is the one the program's
#: callers look up at call time, so wrapping it catches every call:
#: `protocol.lift_matrix` is the engine's own binding of `mapping.lift_matrix`,
#: and the engine reaches `commutator_norm` through the `qmath` module.
TRACED = (
    ("protocol", "run_protocol", "protocol.run_protocol"),
    ("protocol", "sift", "protocol.sift"),
    ("protocol", "extract_key", "protocol.extract_key"),
    ("protocol", "check_estimates", "protocol.check_estimates"),
    ("protocol", "chsh_pair_estimates", "protocol.chsh_pair_estimates"),
    ("inequality", "estimate_from_transcript", "inequality.estimate"),
    ("adversary", "leakage_analysis", "adversary.leakage_analysis"),
    ("adversary", "localize_eve", "adversary.localize_eve"),
    ("noise", "analytic_key_rate", "noise.analytic_key_rate"),
    ("noise", "empirical_key_rate", "noise.empirical_key_rate"),
    ("cli", "write_transcript", "cli.write_transcript"),
    ("cli", "read_transcript", "cli.read_transcript"),
    ("protocol", "lift_matrix", "mapping.lift_matrix"),
    ("qmath", "commutator_norm", "qmath.commutator_norm"),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        #: the clock spans are timed with; a run sets it to a clock that
        #: leaves out the time spent in its speed probe
        self.clock = time.perf_counter

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent))

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def root(self, modules: dict[str, object], name: str):
        """Wrap the layers of `modules` (keyed by module name) and open a
        root span; yields its id.  The originals are restored on exit."""
        originals = []
        try:
            for module_name, attr, span_name in TRACED:
                module = modules[module_name]
                originals.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(getattr(module, attr), span_name))
            with self.span(name) as span_id:
                yield span_id
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def summary(self, root: int) -> dict[str, LayerTotals]:
        """Per span name, the totals of the spans under one root span, the root included.

        A span's self time is its duration minus the durations of its
        direct children; the program runs on one thread, so children never
        overlap.  No span name nests inside itself, so a name's total
        duration counts no interval twice.
        """
        children: dict[int | None, list[Span]] = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
        todo = [next(span for span in self.spans if span.span_id == root)]
        while todo:
            span = todo.pop()
            kids = children[span.span_id]
            duration = span.end - span.start
            entry = totals[span.name]
            entry.calls += 1
            entry.total_s += duration
            entry.self_s += duration - sum(k.end - k.start for k in kids)
            todo.extend(kids)
        return dict(totals)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")
