"""In-memory spans around calls into the package.

A span records its name, start, end and the span that encloses it.  Spans
stay in memory while the benchmark runs and are written out once, at the
end, so the traced run does no I/O between timed calls.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def seconds(self, name: str) -> list[float]:
        """Durations of every closed span with this name, in seconds."""
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans
                if s["name"] == name and s["end_ns"] is not None]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, default=str) + "\n")


def call(tracer: Tracer | None, name: str, fn: Callable[..., Any], *args: Any,
         **kwargs: Any) -> Any:
    """fn(*args, **kwargs), inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.span(name):
        return fn(*args, **kwargs)
