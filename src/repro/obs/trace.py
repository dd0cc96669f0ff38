"""Executor-agnostic trace collection.

A :class:`TraceCollector` hands each context its own
:class:`~repro.obs.events.ContextTraceBuffer` and merges the buffers into
one deterministic timeline only when a query asks for it.  The profiler
and the Chrome exporter read the per-context buffers directly and never
merge.  It is the substrate for the exporters in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator

from ..core.time import Time
from .events import ContextTraceBuffer, TraceEvent


class TraceCollector:
    """Collects trace events from any executor; filterable by context
    and channel.

    ``capture_payloads=False`` (default) keeps traces light; enable it to
    record the data values moved by channel operations.  Note that with
    payload capture on, ``ViewTime``-dependent payloads may differ across
    executors (a peer clock read is a lower bound, not an exact value);
    channel payloads are always deterministic.
    """

    def __init__(self, capture_payloads: bool = False):
        self.capture_payloads = capture_payloads
        self._buffers: dict[str, ContextTraceBuffer] = {}
        self._merged: list[TraceEvent] | None = None

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def buffer(self, context: str) -> ContextTraceBuffer:
        """Return (creating if needed) the buffer for ``context``.

        Executors call this from the main thread for every context before
        the run starts, so worker threads only ever *append* to an
        existing buffer — the lock-free discipline.
        """
        buf = self._buffers.get(context)
        if buf is None:
            buf = ContextTraceBuffer(context, self.capture_payloads)
            self._buffers[context] = buf
        return buf

    def record(
        self,
        context: str,
        kind: str,
        channel: str | None,
        time: Time,
        payload: Any = None,
    ) -> None:
        """Append one event on behalf of ``context`` (compatibility API)."""
        self.buffer(context).append(kind, channel, time, payload)

    def clear(self) -> None:
        """Drop every recorded event and buffer.

        The retry ladder calls this between attempts so a failed run's
        partial events cannot pollute the retried run's merge; executors
        re-create their buffers at run start, so clearing is always safe
        between runs.
        """
        self._buffers.clear()
        self._merged = None

    # ------------------------------------------------------------------
    # The merged view.
    # ------------------------------------------------------------------

    @property
    def events(self) -> list[TraceEvent]:
        """All events merged into the deterministic ``(time, context,
        seq)`` order.  Cached; recomputed when new events have arrived."""
        total = len(self)
        if self._merged is None or len(self._merged) != total:
            # Each buffer is already sorted by the key (a context's clock
            # is monotone and seq increments), so an n-way merge suffices.
            streams = [
                buf.events
                for _, buf in sorted(self._buffers.items())
            ]
            self._merged = list(heapq.merge(*streams, key=TraceEvent.sort_key))
        return self._merged

    def buffers(self) -> dict[str, ContextTraceBuffer]:
        """The raw per-context buffers (the profiler and exporters read
        their ``records`` directly)."""
        return self._buffers

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def for_context(self, name: str) -> list[TraceEvent]:
        buf = self._buffers.get(name)
        return list(buf.events) if buf is not None else []

    def for_channel(self, name: str) -> list[TraceEvent]:
        return [event for event in self.events if event.channel == name]

    def kinds(self, kind: str) -> Iterator[TraceEvent]:
        return (event for event in self.events if event.kind == kind)

    def completion_times(self, channel: str) -> list[Time]:
        """Dequeue times on a channel: the per-stream timeline that the
        calibration study matches against reference traces."""
        return [
            event.time
            for event in self.events
            if event.channel == channel and event.kind == "dequeue"
        ]

    def __len__(self) -> int:
        return sum(len(buf.records) for buf in self._buffers.values())

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)
