"""In-memory spans around the benchmark's calls into each layer.

A span has a name, start, end, parent and run id. Spans stay in a list while
the run executes and are written out once at the end. A disabled tracer
hands out one shared no-op context, so untraced runs pay one attribute
lookup per call.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    run_id: str = ""


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        s = Span(len(self.spans), self._open[-1] if self._open else None, name,
                 time.perf_counter(), run_id=self.run_id)
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child[s.id]
        return dict(out)

    def overhead_s(self, pairs: int = 20000) -> float:
        """CPU seconds the spans of this run cost: one span's enter and exit,
        timed over `pairs` empty spans on a scratch tracer, times the number
        of spans recorded."""
        probe = Tracer(self.run_id, enabled=True)
        t0 = time.process_time()
        for _ in range(pairs):
            with probe.span("probe"):
                pass
        return (time.process_time() - t0) / pairs * len(self.spans)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "self_s": self.self_times(),
            "spans": [asdict(s) for s in self.spans],
        }, indent=1), encoding="utf-8")
