"""In-memory span recorder for the traced run.

The benchmark records one span around each public call it makes into a
layer.  A span has a name, a layer, start and end times, a parent span and
a run id.  Spans stay in memory until :meth:`Tracer.write` saves them at the
end of the run.  Recording happens on the benchmark's own thread only, so a
plain stack tracks the open parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: Optional[int]
    run_id: str
    start: float
    end: float = 0.0
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        record = Span(len(self.spans), name, layer, parent, self.run_id,
                      time.perf_counter())
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        except Exception as error:
            record.error = f"{type(error).__name__}: {error}"
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def call(self, layer: str, name: str, func: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """``func(*args, **kwargs)`` inside a span; None if it raised.

        A failure is kept on the span (and counted in the layer's errors)
        instead of aborting the rest of the decomposition.
        """
        try:
            with self.span(name, layer):
                return func(*args, **kwargs)
        except Exception:
            return None

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(span.duration for span in self.spans if span.name == name)

    def errors(self, layer: str) -> int:
        return sum(1 for span in self.spans if span.layer == layer and span.error)

    def self_time(self, span: Span) -> float:
        """The span's duration minus the time its children cover."""
        children = sorted((child.start, child.end) for child in self.spans
                          if child.parent == span.id)
        covered, reach = 0.0, span.start
        for start, end in children:
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def layer_self_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0.0) + self.self_time(span)
        return totals

    def write(self, path: str) -> None:
        payload = {"run_id": self.run_id,
                   "layer_self_s": self.layer_self_times(),
                   "spans": [dict(asdict(span), self_s=self.self_time(span))
                             for span in self.spans]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
