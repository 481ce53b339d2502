"""In-memory spans recorded by the benchmark around its calls into qsatwalk.

A span has a name (the layer function it wraps, e.g. "channel.evolve"), a
start and end on the monotonic clock, the span that was open when it started
(its parent), a run id shared by the spans of one batch or probe, and the
number of calls it covers (a span may wrap a loop of cheap calls). Spans stay
in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run: str
    start: float
    end: float = 0.0
    items: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `Tracer(enabled=False)` records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._run = ""

    @contextmanager
    def run(self, run_id: str):
        """Tag every span started inside the block with `run_id`."""
        outer, self._run = self._run, run_id
        try:
            yield
        finally:
            self._run = outer

    def span(self, name: str, items: int = 1):
        if not self.enabled:
            return nullcontext()
        return self._span(name, items)

    @contextmanager
    def _span(self, name: str, items: int):
        parent = self._open[-1].id if self._open else None
        rec = Span(len(self.spans), parent, name, self._run, time.monotonic(), items=items)
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.monotonic()
            self._open.pop()

    def adopt(self, records: list[dict], run_id: str) -> None:
        """Append spans recorded by a child process as children of the open span.

        Both processes read the same system-wide monotonic clock, so the
        child's start and end times need no shift.
        """
        parent = self._open[-1].id if self._open else None
        base = len(self.spans)
        for rec in records:
            self.spans.append(Span(
                id=base + rec["id"],
                parent=parent if rec["parent"] is None else base + rec["parent"],
                name=rec["name"],
                run=run_id,
                start=rec["start"],
                end=rec["end"],
                items=rec["items"],
            ))

    def per_call(self, name: str, run_prefix: str = "") -> list[float]:
        """Duration per wrapped call of every span with this name."""
        return [s.duration / s.items for s in self.spans
                if s.name == name and s.run.startswith(run_prefix)]

    def self_times(self, run_prefix: str = "") -> dict:
        """Per span name: count, calls, total and self seconds.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, so that is the sum of their
        durations.
        """
        picked = [s for s in self.spans if s.run.startswith(run_prefix)]
        child_time: dict[int, float] = {}
        for s in picked:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        table: dict[str, dict] = {}
        for s in picked:
            row = table.setdefault(s.name, {"spans": 0, "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["calls"] += s.items
            row["total_s"] += s.duration
            row["self_s"] += s.duration - child_time.get(s.id, 0.0)
        return table

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
