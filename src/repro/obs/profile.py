"""Post-run performance attribution: critical path, blocked time, epochs.

The trace already answers *what happened*; this module answers *why
the run took as long as it did*.  Three artifacts come out of one index
over the per-context record streams (never the merged timeline):

* **Critical path** — the longest dependency chain of
  ``(context op -> channel delivery -> context op)`` edges bounding
  ``finish_time``.  The walk starts at the context that determines the
  makespan and moves backwards through simulated time: a dequeue that
  advanced the local clock jumps to the enqueue that produced the value
  (stamp = sender time + latency), a backpressured enqueue jumps to the
  dequeue that freed the slot (response = dequeue time + resp latency),
  and everything else charges the segment to the context's own compute.
  The segments tile ``[0, finish_time]`` exactly — each iteration emits
  the interval between the new and old cursor — so their durations sum
  to the makespan by construction (the telescoping invariant the CLI
  asserts).

* **Blocked-time accounting** — every unit of every context's local
  time is attributed to one of four categories: ``compute`` (advance /
  non-waiting ops), ``blocked_on_dequeue`` (starvation: the stamp of the
  value consumed was later than the local clock — includes channel
  delivery latency), ``blocked_on_enqueue`` (backpressure: a bounded
  channel's response advanced the sender), or ``overhead`` (residual the
  path walk could not attribute; zero in well-formed traces).  Reported
  per context and per channel.

* **Utilization timeline** — activity binned into fixed-width epochs:
  per epoch, the simulated time all contexts spent computing vs blocked,
  and the resulting utilization fraction.  Feeds the Perfetto counter
  track in :mod:`repro.obs.export`.

Because each context's stream is executor-independent (the obs suite's
golden property), everything computed here is too: sequential, threaded
and process runs of the same program produce bit-identical profiles.

Known limitation: ``WaitUntil`` does not advance the waiter's local
clock, so time spent waiting on a peer clock surfaces as the *next*
op's span (usually compute), not as a blocked category of its own.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..core.time import INFINITY, Time
from .events import TraceEvent
from .metrics import Histogram
from .trace import TraceCollector

COMPUTE = "compute"
BLOCKED_ON_DEQUEUE = "blocked_on_dequeue"
BLOCKED_ON_ENQUEUE = "blocked_on_enqueue"
OVERHEAD = "overhead"
CATEGORIES = (COMPUTE, BLOCKED_ON_DEQUEUE, BLOCKED_ON_ENQUEUE, OVERHEAD)

#: Event kinds the analyzer understands, each with the category a wait on
#: it is charged to when it is a channel op (ops without a channel are
#: always compute).  Any other kind (supervisor crash markers, future
#: kinds) is ignored rather than misattributed.
_CHANNEL_CATEGORY = {
    "enqueue": BLOCKED_ON_ENQUEUE,
    "dequeue": BLOCKED_ON_DEQUEUE,
    "peek": BLOCKED_ON_DEQUEUE,
    "advance": COMPUTE,
    "finish": COMPUTE,
}

DEFAULT_EPOCHS = 32
SCHEMA_VERSION = 1


def channel_meta_for(channels: Iterable[Any]) -> dict[str, dict[str, Any]]:
    """Capacity/latency metadata the analyzer uses for precise pairing.

    Executors attach this to the run's :class:`~repro.obs.Observability`
    and the exporter embeds it under ``otherData.channels`` so a profile
    recomputed from an exported trace file pairs ops exactly the same
    way as one computed in-process.
    """
    meta: dict[str, dict[str, Any]] = {}
    for channel in channels:
        meta[channel.name] = {
            "capacity": getattr(channel, "capacity", None),
            "latency": getattr(channel, "latency", None),
            "resp_latency": getattr(channel, "resp_latency", None),
        }
    return meta


@dataclass(frozen=True)
class PathSegment:
    """One interval of the critical path: ``[start, end]`` attributed to
    ``category`` on ``context`` (and ``channel`` for blocked segments)."""

    category: str
    context: str
    channel: str | None
    start: Time
    end: Time

    @property
    def duration(self) -> Time:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "category": self.category,
            "context": self.context,
            "channel": self.channel,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PathSegment":
        return cls(
            category=data["category"],
            context=data["context"],
            channel=data.get("channel"),
            start=data["start"],
            end=data["end"],
        )


@dataclass
class ProfileReport:
    """The full attribution artifact; ``to_dict`` is what lands in
    ``RunSummary.profile`` and in exported/benchmark JSON."""

    finish_time: Time
    segments: list[PathSegment] = field(default_factory=list)
    attribution: dict[str, Any] = field(default_factory=dict)
    timeline: dict[str, Any] = field(default_factory=dict)
    segment_quantiles: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived views.
    # ------------------------------------------------------------------

    def path_total(self) -> Time:
        return sum(seg.duration for seg in self.segments)

    def by_category(self) -> dict[str, Time]:
        totals = {cat: 0 for cat in CATEGORIES}
        for seg in self.segments:
            totals[seg.category] = totals.get(seg.category, 0) + seg.duration
        return totals

    def by_context(self) -> dict[str, Time]:
        totals: dict[str, Time] = {}
        for seg in self.segments:
            totals[seg.context] = totals.get(seg.context, 0) + seg.duration
        return totals

    def by_channel(self) -> dict[str, Time]:
        totals: dict[str, Time] = {}
        for seg in self.segments:
            if seg.channel is not None:
                totals[seg.channel] = totals.get(seg.channel, 0) + seg.duration
        return totals

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "finish_time": self.finish_time,
            "critical_path": {
                "segments": [seg.to_dict() for seg in self.segments],
                "total": self.path_total(),
                "by_category": self.by_category(),
                "by_context": self.by_context(),
                "by_channel": self.by_channel(),
            },
            "attribution": self.attribution,
            "timeline": self.timeline,
            "segment_quantiles": self.segment_quantiles,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProfileReport":
        path = data.get("critical_path", {})
        return cls(
            finish_time=data.get("finish_time", 0),
            segments=[
                PathSegment.from_dict(seg) for seg in path.get("segments", [])
            ],
            attribution=dict(data.get("attribution", {})),
            timeline=dict(data.get("timeline", {})),
            segment_quantiles=dict(data.get("segment_quantiles", {})),
        )

    # ------------------------------------------------------------------
    # Human rendering.
    # ------------------------------------------------------------------

    def describe(self, max_segments: int = 40) -> str:
        lines = [
            f"critical path: {len(self.segments)} segment(s), "
            f"finish_time={self.finish_time}"
        ]
        shown = self.segments[:max_segments]
        for seg in shown:
            where = f" via {seg.channel}" if seg.channel is not None else ""
            lines.append(
                f"  [{seg.start} .. {seg.end}] {seg.category:<19} "
                f"{seg.context}{where} (dur={seg.duration})"
            )
        if len(self.segments) > len(shown):
            lines.append(f"  ... {len(self.segments) - len(shown)} more segment(s)")
        cats = self.by_category()
        lines.append(
            "by category: "
            + ", ".join(f"{cat}={cats.get(cat, 0)}" for cat in CATEGORIES)
        )
        lines.append(
            f"path sum={self.path_total()} finish_time={self.finish_time}"
        )
        if self.segment_quantiles:
            quant = self.segment_quantiles
            lines.append(
                "segment durations: "
                + ", ".join(f"{k}={v:.6g}" for k, v in sorted(quant.items()))
            )
        epochs = self.timeline.get("epochs") or []
        if epochs:
            utils = [e["utilization"] for e in epochs]
            lines.append(
                f"utilization over {len(epochs)} epoch(s): "
                f"mean={sum(utils) / len(utils):.3f}, "
                f"min={min(utils):.3f}, max={max(utils):.3f}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Trace indexing.
# ----------------------------------------------------------------------


def _records_of(events: Iterable[TraceEvent]) -> dict[str, list[tuple]]:
    """Group query-view events back into per-context record streams in
    ``seq`` order (the shape :class:`_Index` reads)."""
    by_context: dict[str, list[TraceEvent]] = {}
    for event in events:
        by_context.setdefault(event.context, []).append(event)
    return {
        name: [
            (e.kind, e.channel, e.time, e.payload)
            for e in sorted(stream, key=lambda e: e.seq)
        ]
        for name, stream in by_context.items()
    }


class _Index:
    """Per-context op streams plus per-channel FIFO op orders.

    ``streams`` maps each context to its ``(kind, channel, time,
    payload)`` records in ``seq`` order, keeping only the kinds the
    analyzer understands and finite times.  An op is named by
    ``(context, position in its stream)``.
    """

    def __init__(self, records: Mapping[str, list[tuple]]):
        self.streams: dict[str, list[tuple]] = {}
        #: Per context, parallel to its stream: an enqueue's or dequeue's
        #: FIFO ordinal on its channel; for a peek, the ordinal of the
        #: dequeue that will consume the peeked element (= dequeues issued
        #: so far); None for ops without a channel.
        self.ordinals: dict[str, list[int | None]] = {}
        # FIFO order per channel: channels have one sender and one
        # receiver, so each side's stream order *is* the channel order.
        chan_enq: dict[str, list[tuple[str, int]]] = {}
        chan_deq: dict[str, list[tuple[str, int]]] = {}
        enq_times: dict[str, list[Time]] = {}
        deq_times: dict[str, list[Time]] = {}
        for name in sorted(records):
            stream: list[tuple] = []
            ordinals: list[int | None] = []
            deq_seen: dict[str, int] = {}
            for record in records[name]:
                kind, channel, time, _ = record
                if kind not in _CHANNEL_CATEGORY or time == INFINITY:
                    continue
                if channel is None:
                    ordinals.append(None)
                elif kind == "enqueue":
                    order = chan_enq.get(channel)
                    if order is None:
                        order = chan_enq[channel] = []
                        enq_times[channel] = []
                    ordinals.append(len(order))
                    order.append((name, len(stream)))
                    enq_times[channel].append(time)
                elif kind == "dequeue":
                    order = chan_deq.get(channel)
                    if order is None:
                        order = chan_deq[channel] = []
                        deq_times[channel] = []
                    ordinals.append(len(order))
                    order.append((name, len(stream)))
                    deq_times[channel].append(time)
                    deq_seen[channel] = deq_seen.get(channel, 0) + 1
                elif kind == "peek":
                    ordinals.append(deq_seen.get(channel, 0))
                else:
                    ordinals.append(None)
                stream.append(record)
            if stream:
                self.streams[name] = stream
                self.ordinals[name] = ordinals
        self.chan_enq = chan_enq
        self.chan_deq = chan_deq
        self.enq_times = enq_times
        self.deq_times = deq_times

    def total_events(self) -> int:
        return sum(len(s) for s in self.streams.values())

    def makespan_start(self) -> tuple[str, int, Time] | None:
        """(context, last index, finish time) of the makespan context."""
        best: tuple[str, int, Time] | None = None
        for name, stream in self.streams.items():
            last = stream[-1][2]
            if best is None or last > best[2]:
                best = (name, len(stream) - 1, last)
        return best


# ----------------------------------------------------------------------
# The backward walk.
# ----------------------------------------------------------------------


def _category_of(kind: str, channel: str | None) -> str:
    return COMPUTE if channel is None else _CHANNEL_CATEGORY[kind]


def _producer_of(
    index: _Index,
    channel: str,
    time: Time,
    ordinal: int | None,
    channel_meta: Mapping[str, Mapping[str, Any]],
) -> tuple[str, int] | None:
    """The enqueue whose value this dequeue/peek consumed."""
    enqueues = index.chan_enq.get(channel)
    if not enqueues:
        return None
    times = index.enq_times[channel]
    latency = (channel_meta.get(channel) or {}).get("latency")
    if latency is not None:
        # stamp = sender_time + latency; exact match wins (rightmost, so
        # zero-latency self-loops resolve deterministically).
        target = time - latency
        pos = bisect_right(times, target) - 1
        if pos >= 0 and times[pos] == target:
            return enqueues[pos]
    if ordinal is not None and ordinal < len(enqueues):
        return enqueues[ordinal]
    pos = bisect_right(times, time) - 1
    return enqueues[pos] if pos >= 0 else None


def _unblocker_of(
    index: _Index,
    channel: str,
    time: Time,
    ordinal: int | None,
    channel_meta: Mapping[str, Mapping[str, Any]],
) -> tuple[str, int] | None:
    """The dequeue whose response freed the slot this enqueue waited on."""
    dequeues = index.chan_deq.get(channel)
    if not dequeues:
        return None
    times = index.deq_times[channel]
    meta = channel_meta.get(channel) or {}
    resp_latency = meta.get("resp_latency")
    if resp_latency is not None:
        target = time - resp_latency
        pos = bisect_right(times, target) - 1
        if pos >= 0 and times[pos] == target:
            return dequeues[pos]
    capacity = meta.get("capacity")
    if capacity is not None and ordinal is not None:
        pos = ordinal - capacity
        if 0 <= pos < len(dequeues):
            return dequeues[pos]
    pos = bisect_right(times, time) - 1
    return dequeues[pos] if pos >= 0 else None


def _critical_path(
    index: _Index,
    finish_time: Time,
    start: tuple[str, int],
    channel_meta: Mapping[str, Mapping[str, Any]],
) -> list[PathSegment]:
    """Walk backwards from the makespan event, tiling ``[0, finish_time]``.

    Invariant: the current event's time equals ``cursor`` (both jumps and
    step-backs preserve it), and every iteration appends exactly the
    segment ``[new_cursor, cursor]`` — so the result telescopes to the
    makespan.
    """
    segments: list[PathSegment] = []
    visited: set[tuple[str, int]] = set()
    streams = index.streams
    ctx, idx = start
    cursor = finish_time
    limit = 4 * index.total_events() + 16

    def emit(category: str, context: str, channel: str | None, lo: Time) -> None:
        if cursor > lo:
            segments.append(PathSegment(category, context, channel, lo, cursor))

    steps = 0
    while cursor > 0 and idx >= 0 and steps < limit:
        steps += 1
        stream = streams[ctx]
        kind, channel, time, _ = stream[idx]
        prev_time = stream[idx - 1][2] if idx > 0 else 0
        key = (ctx, idx)
        waited = cursor > prev_time
        first_visit = key not in visited
        visited.add(key)
        target: tuple[str, int] | None = None
        if waited and first_visit and channel is not None:
            ordinal = index.ordinals[ctx][idx]
            if kind in ("dequeue", "peek"):
                target = _producer_of(index, channel, time, ordinal, channel_meta)
            elif kind == "enqueue":
                target = _unblocker_of(index, channel, time, ordinal, channel_meta)
        if target is not None:
            t_ctx, t_idx = target
            t_time = streams[t_ctx][t_idx][2]
            # Only jump when it makes progress toward t=0; a malformed
            # or already-walked target degrades to a step-back instead.
            if t_time < cursor and target not in visited:
                emit(_category_of(kind, channel), ctx, channel, t_time)
                ctx, idx, cursor = t_ctx, t_idx, t_time
                continue
            if t_time == cursor and target not in visited:
                # Zero-latency edge: follow it without emitting a segment.
                ctx, idx = t_ctx, t_idx
                continue
        # Step back within this context.
        if waited:
            emit(_category_of(kind, channel), ctx, channel, prev_time)
        cursor = min(cursor, prev_time)
        idx -= 1
    if cursor > 0:
        # Residual the walk could not attribute (malformed trace or the
        # step guard tripping on a pathological cycle).
        segments.append(PathSegment(OVERHEAD, ctx, None, 0, cursor))
    segments.reverse()
    return segments


# ----------------------------------------------------------------------
# Whole-run attribution and the epoch timeline.
# ----------------------------------------------------------------------


def _attribute(
    index: _Index, finish_time: Time, epochs: int
) -> tuple[dict[str, Any], dict[str, Any]]:
    per_context: dict[str, dict[str, Any]] = {}
    per_channel: dict[str, dict[str, Time]] = {}
    n_contexts = len(index.streams)
    width = finish_time / epochs if finish_time > 0 and epochs > 0 else 0
    bins = [[0.0, 0.0] for _ in range(epochs)] if width else []
    last_bin = epochs - 1
    edges = [pos * width for pos in range(epochs + 1)] if width else []

    for name, stream in index.streams.items():
        totals = {cat: 0 for cat in CATEGORIES}
        prev = 0
        prev_bin = 0  # the epoch ``prev`` falls in (clamped to the last)
        for kind, channel, time, _ in stream:
            delta = time - prev
            if delta > 0:
                if channel is None:
                    category = COMPUTE
                else:
                    category = _CHANNEL_CATEGORY[kind]
                    if category != COMPUTE:
                        chan = per_channel.get(channel)
                        if chan is None:
                            chan = per_channel[channel] = {
                                BLOCKED_ON_DEQUEUE: 0, BLOCKED_ON_ENQUEUE: 0
                            }
                        chan[category] += delta
                totals[category] += delta
                if width:
                    # Bin [prev, time] into the epochs it overlaps.  The
                    # common one-epoch span is inlined; it computes the
                    # same max/min/subtract terms as the general loop, so
                    # the float sums stay bit-identical.
                    slot = 0 if category == COMPUTE else 1
                    first = prev_bin
                    last = int(time / width)
                    if last > last_bin:
                        last = last_bin
                    prev_bin = last
                    if first == last:
                        edge = edges[first]
                        left = edge if edge > prev else prev
                        edge = edges[first + 1]
                        right = edge if edge < time else time
                        if right > left:
                            bins[first][slot] += right - left
                    else:
                        for pos in range(first, last + 1):
                            left = max(prev, edges[pos])
                            right = min(time, edges[pos + 1])
                            if right > left:
                                bins[pos][slot] += right - left
            elif delta < 0 and width:
                prev_bin = min(int(time / width), last_bin)
            prev = time
        totals["finish_time"] = prev
        totals["idle"] = finish_time - prev
        per_context[name] = totals

    timeline: dict[str, Any] = {"epoch_width": width, "epochs": []}
    if width:
        denominator = width * max(n_contexts, 1)
        timeline["epochs"] = [
            {
                "start": pos * width,
                "active": active,
                "blocked": blocked,
                "utilization": round(active / denominator, 6),
            }
            for pos, (active, blocked) in enumerate(bins)
        ]
    attribution = {
        "per_context": per_context,
        "per_channel": {
            name: per_channel[name] for name in sorted(per_channel)
        },
    }
    return attribution, timeline


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------


def profile_trace(
    trace: "TraceCollector | Iterable[TraceEvent]",
    channel_meta: Mapping[str, Mapping[str, Any]] | None = None,
    epochs: int = DEFAULT_EPOCHS,
) -> ProfileReport:
    """Analyze a trace (collector or bare event iterable) into a
    :class:`ProfileReport`.

    A collector is read per context, straight from its buffers' records:
    the analysis never needs the merged ``(time, context, seq)`` order.
    """
    if isinstance(trace, TraceCollector):
        records = {name: buf.records for name, buf in trace.buffers().items()}
    else:
        records = _records_of(trace)
    index = _Index(records)
    meta = channel_meta or {}
    start = index.makespan_start()
    if start is None:
        return ProfileReport(finish_time=0)
    ctx, idx, finish_time = start
    segments = (
        _critical_path(index, finish_time, (ctx, idx), meta)
        if finish_time > 0
        else []
    )
    attribution, timeline = _attribute(index, finish_time, epochs)
    histogram = Histogram()
    for seg in segments:
        histogram.observe(seg.duration)
    quantiles = (
        {
            "p50": histogram.quantile(0.5),
            "p90": histogram.quantile(0.9),
            "max": histogram.max or 0.0,
        }
        if histogram.count
        else {}
    )
    return ProfileReport(
        finish_time=finish_time,
        segments=segments,
        attribution=attribution,
        timeline=timeline,
        segment_quantiles=quantiles,
    )


def events_from_chrome_trace(
    document: Mapping[str, Any],
) -> tuple[list[TraceEvent], dict[str, dict[str, Any]]]:
    """Rebuild trace events (and channel metadata, when embedded) from an
    exported Chrome trace-event JSON document."""
    tid_names: dict[Any, str] = {}
    for raw in document.get("traceEvents", []):
        if raw.get("ph") == "M" and raw.get("name") == "thread_name":
            tid_names[raw.get("tid")] = raw.get("args", {}).get("name", "")
    events: list[TraceEvent] = []
    for raw in document.get("traceEvents", []):
        if raw.get("ph") != "X":
            continue
        args = raw.get("args", {})
        context = tid_names.get(raw.get("tid"), str(raw.get("tid")))
        kind = str(raw.get("name", "")).split(" ", 1)[0]
        time = raw.get("ts", 0) + raw.get("dur", 0)
        events.append(
            TraceEvent(
                context=context,
                kind=kind,
                channel=args.get("channel"),
                time=time,
                payload=args.get("payload"),
                seq=args.get("seq", 0),
            )
        )
    channels = (document.get("otherData") or {}).get("channels") or {}
    return events, channels


def resolve_profile(document: Mapping[str, Any]) -> dict[str, Any] | None:
    """Extract (or recompute) a profile dict from any known JSON shape:
    a Chrome trace export, a bare profile dict, or a BENCH payload with a
    ``profile`` section."""
    if "traceEvents" in document:
        events, channels = events_from_chrome_trace(document)
        if events:
            return profile_trace(events, channel_meta=channels).to_dict()
        stored = (document.get("otherData") or {}).get("profile")
        return stored
    if "critical_path" in document:
        return dict(document)
    profile = document.get("profile")
    if isinstance(profile, Mapping):
        return dict(profile)
    return None


# ----------------------------------------------------------------------
# Run diffing.
# ----------------------------------------------------------------------


def diff_profiles(
    base: Mapping[str, Any],
    other: Mapping[str, Any],
    tolerance: float = 3.0,
    abs_floor: float = 1.0,
) -> dict[str, Any]:
    """Compare two profile dicts; a metric regresses when the new value
    exceeds ``tolerance`` times the baseline *and* grew by more than
    ``abs_floor`` simulated cycles (so zero/noise baselines don't trip).
    """
    rows: list[dict[str, Any]] = []

    def compare(metric: str, base_value: Any, other_value: Any) -> None:
        base_value = float(base_value or 0)
        other_value = float(other_value or 0)
        regression = (
            other_value > base_value * tolerance
            and other_value - base_value > abs_floor
        )
        if base_value:
            ratio = other_value / base_value
        else:
            ratio = 1.0 if not other_value else None  # None = new vs zero base
        rows.append(
            {
                "metric": metric,
                "base": base_value,
                "other": other_value,
                "ratio": ratio,
                "regression": regression,
            }
        )

    compare("finish_time", base.get("finish_time"), other.get("finish_time"))
    base_cats = (base.get("critical_path") or {}).get("by_category") or {}
    other_cats = (other.get("critical_path") or {}).get("by_category") or {}
    for category in CATEGORIES:
        compare(
            f"critical_path.{category}",
            base_cats.get(category),
            other_cats.get(category),
        )
    base_chans = (base.get("critical_path") or {}).get("by_channel") or {}
    other_chans = (other.get("critical_path") or {}).get("by_channel") or {}
    for channel in sorted(set(base_chans) | set(other_chans)):
        compare(
            f"critical_path.channel.{channel}",
            base_chans.get(channel),
            other_chans.get(channel),
        )
    regressions = [row for row in rows if row["regression"]]
    return {
        "tolerance": tolerance,
        "rows": rows,
        "regressions": regressions,
        "ok": not regressions,
    }


def describe_diff(diff: Mapping[str, Any]) -> str:
    lines = [
        f"profile diff (tolerance {diff.get('tolerance', 0):g}x): "
        + ("OK" if diff.get("ok") else "REGRESSIONS")
    ]
    for row in diff.get("rows", []):
        ratio = row.get("ratio")
        ratio_text = f"{ratio:.3f}x" if ratio is not None else "new"
        flag = "  !! " if row.get("regression") else "     "
        lines.append(
            f"{flag}{row['metric']}: {row['base']:g} -> {row['other']:g} "
            f"({ratio_text})"
        )
    regressions = diff.get("regressions") or []
    if regressions:
        names = ", ".join(row["metric"] for row in regressions)
        lines.append(f"regressed section(s): {names}")
    return "\n".join(lines)
