"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(id, parent, rid, name, origin, start, end, attrs)``;
``origin`` tells the workload's own spans from those of the layer
probes that the traced run adds.  Nesting comes from a per-thread
stack, so concurrent serve clients keep separate trees; spans of one served request share its ``rid``.  Nothing is
written until :meth:`Spans.dump` at the end of the run.  A disabled
recorder records nothing, so untraced runs pay a function call per
layer boundary and nothing else.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional


class Spans:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        #: Stamped on every new span: "workload" or "probe".
        self.origin = "workload"
        self.records: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None, **attrs: Any) -> Iterator[dict]:
        """Record ``name`` around the body; the yielded dict is the span's
        attributes, so the body can attach the counters it read."""
        if not self.enabled:
            yield {}
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(span_id, parent, rid, name, start, end, attrs)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        rid: Optional[str] = None,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> Optional[int]:
        """Record an interval timed by the caller (serve stream events)."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self._record(span_id, parent, rid, name, start, end, attrs)
        return span_id

    def _record(self, span_id, parent, rid, name, start, end, attrs) -> None:
        self.records.append(
            {
                "id": span_id,
                "parent": parent,
                "rid": rid,
                "name": name,
                "origin": self.origin,
                "start": start,
                "end": end,
                "attrs": attrs,
            }
        )

    def select(self, names, phases=None) -> list[dict[str, Any]]:
        """Spans called one of ``names`` (in ``phases``, when given) from
        the workload itself, or else from the probes."""
        def pick(origin: str) -> list[dict[str, Any]]:
            return [
                rec
                for rec in self.records
                if rec["origin"] == origin
                and rec["name"] in names
                and (phases is None or rec["attrs"].get("phase") in phases)
            ]

        return pick("workload") or pick("probe")

    def self_time(self, record: dict[str, Any]) -> float:
        """Duration minus the part of it covered by child spans."""
        children = sorted(
            (max(rec["start"], record["start"]), min(rec["end"], record["end"]))
            for rec in self.records
            if rec["parent"] == record["id"]
        )
        covered = 0.0
        cursor = record["start"]
        for start, end in children:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return (record["end"] - record["start"]) - covered

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records, handle)


def duration(record: dict[str, Any]) -> float:
    return record["end"] - record["start"]


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1-99) by :func:`statistics.quantiles`."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
