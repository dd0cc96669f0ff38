"""Trace events and per-context event buffers.

The observability pipeline's first invariant is that *recording must not
distort the run being observed*.  Each context therefore appends records
to its own :class:`ContextTraceBuffer` — a plain Python list touched only
by the thread of control driving that context — so the threaded executor
can trace without any per-event locking (the append is the lock-free fast
path; CPython list appends are atomic under the GIL, and no other thread
reads the list until the run has ended).  A record is a bare
``(kind, channel, time, payload)`` tuple: recording builds no objects
beyond it, and the record's position in the buffer is its ``seq``.

The second invariant is *determinism of the merged view*: an event is
keyed by ``(time, context, seq)`` where ``seq`` is the context's own op
counter.  Because channel semantics are pure functions of simulated state,
each context performs the same ops at the same simulated times under every
executor and scheduling policy; sorting the union of buffers by that key
therefore yields an identical total order for sequential and threaded
runs (asserted by the obs test suite).  :class:`TraceEvent` is the query
view of a record, built only when something asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.time import Time


@dataclass(frozen=True)
class TraceEvent:
    """One completed operation.

    ``seq`` is the position of the event in its context's own event
    stream — the deterministic tiebreaker for merging buffers.
    """

    context: str
    kind: str            # "enqueue" | "dequeue" | "peek" | "advance" | "finish"
    channel: str | None  # channel name for channel ops, else None
    time: Time           # the context's simulated time after the op
    payload: Any = None  # data moved, when applicable
    seq: int = 0         # per-context event index

    def sort_key(self) -> tuple:
        return (self.time, self.context, self.seq)


class ContextTraceBuffer:
    """Append-only record list owned by exactly one context.

    Executors obtain one buffer per context *before* starting the run and
    append from the context's own thread of control only; this is what
    makes tracing executor-agnostic without distorting the schedule.
    ``records`` holds the raw ``(kind, channel, time, payload)`` tuples
    in ``seq`` order; :attr:`events` is the :class:`TraceEvent` view.
    """

    __slots__ = ("context", "records", "capture_payloads", "_events")

    def __init__(self, context: str, capture_payloads: bool = False):
        self.context = context
        self.records: list[tuple[str, str | None, Time, Any]] = []
        self.capture_payloads = capture_payloads
        self._events: list[TraceEvent] = []

    def append(
        self,
        kind: str,
        channel: str | None,
        time: Time,
        payload: Any = None,
    ) -> None:
        self.records.append(
            (kind, channel, time, payload if self.capture_payloads else None)
        )

    @property
    def events(self) -> list[TraceEvent]:
        """The records as :class:`TraceEvent` objects (``seq`` = position).
        Built on first use and extended when later records arrive."""
        cached = self._events
        done = len(cached)
        if done != len(self.records):
            context = self.context
            cached.extend(
                TraceEvent(context, kind, channel, time, payload, seq)
                for seq, (kind, channel, time, payload) in enumerate(
                    self.records[done:], done
                )
            )
        return cached

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ContextTraceBuffer({self.context}, {len(self.records)} events)"
