"""In-memory span recorder used by the traced benchmark run.

A span is one call into a morekg layer, recorded from the benchmark's
own code: name, start, end, parent span and the root span (one
iteration, set-up repetition or verification round) it belongs to.
Spans stay in memory until the run ends and are then written out.

With tracing off every ``span`` call returns one shared no-op object,
so the timed code path is the same in both modes.
"""

from __future__ import annotations

import time
from collections import defaultdict

PHASE_PRIORITY = ("body", "setup", "verify", "probe")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def __setattr__(self, name, value):
        pass  # counts set on a disabled span are dropped


_NULL_SPAN = _NullSpan()


class Span:
    __slots__ = ("tracer", "id", "parent", "root", "phase", "name",
                 "start", "end", "n")

    def __init__(self, tracer, span_id, parent, root, phase, name):
        self.tracer = tracer
        self.id = span_id
        self.parent = parent
        self.root = root
        self.phase = phase
        self.name = name
        self.start = self.end = 0.0
        self.n = None  # work count, e.g. triples handled by the call

    def __enter__(self):
        self.tracer._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        return False

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "root": self.root,
                "phase": self.phase, "name": self.name,
                "start": self.start, "end": self.end, "n": self.n}


class Tracer:
    """Collects spans and per-root counters; disabled unless ``enabled``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.notes: dict[tuple[int, str], float] = {}
        self._stack: list[int] = []
        self._root = None
        self._phase = "body"

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        sp = Span(self, len(self.spans) + 1, parent,
                  self._root if parent is not None else len(self.spans) + 1,
                  self._phase, name)
        self.spans.append(sp)
        return sp

    def root(self, phase: str, name: str):
        """Open a root span; spans opened inside it share its id as root."""
        if not self.enabled:
            return _NULL_SPAN
        self._phase = phase
        sp = self.span(name)
        self._root = sp.id
        return sp

    def note(self, name: str, value) -> None:
        """Record an exact count against the current root span."""
        if self.enabled and self._root is not None:
            self.notes[(self._root, name)] = value

    def absorb(self, exported: dict, phase: str) -> None:
        """Add what ``export`` gave in a child process to the current root."""
        if not self.enabled:
            return
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for r in exported["spans"]:
            sp = Span(self, r["id"] + offset,
                      r["parent"] + offset if r["parent"] else parent,
                      self._root, phase, r["name"])
            sp.start, sp.end, sp.n = r["start"], r["end"], r["n"]
            self.spans.append(sp)
        for name, value in exported["notes"]:
            self.note(name, value)

    def export(self) -> dict:
        return {"spans": [sp.to_dict() for sp in self.spans],
                "notes": [[name, v] for (_, name), v in self.notes.items()]}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    out = {sp.id: sp.end - sp.start for sp in spans}
    for sp in spans:
        if sp.parent is not None and sp.parent in out:
            out[sp.parent] -= sp.end - sp.start
    return out


class SpanTable:
    """Per-root sums of self time and work counts, by span name.

    A layer metric reads the phase with the highest priority in which its
    span occurs (the timed body first), so a layer that the timed body
    exercises is never reported from set-up or verification spans.
    """

    def __init__(self, tracer: Tracer):
        st = self_times(tracer.spans)
        # (phase, name) -> root -> [self seconds, work count, calls]
        self.by_name: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
        for sp in tracer.spans:
            if sp.parent is None:
                continue  # root spans only group their children
            acc = self.by_name[(sp.phase, sp.name)][sp.root]
            acc[0] += st[sp.id]
            acc[1] += sp.n or 0
            acc[2] += 1
        self.notes: dict = defaultdict(list)
        for (root, name), value in tracer.notes.items():
            self.notes[name].append(value)

    def rows(self, name: str) -> list[list]:
        """Per-root [self seconds, work count, calls] from the best phase."""
        for phase in PHASE_PRIORITY:
            per_root = self.by_name.get((phase, name))
            if per_root:
                return list(per_root.values())
        return []
