"""Trace exporters: Chrome trace-event / Perfetto JSON and CSV.

The Chrome trace-event format (loadable by https://ui.perfetto.dev and
``chrome://tracing``) maps naturally onto DAM runs:

* one *thread track* per context (simulated processes, not OS threads);
* each operation becomes a complete-event slice (``ph: "X"``) spanning
  from the context's previous simulated time to the op's completion time,
  so waiting shows up as long slices and back-to-back ops as dense ones;
* every channel transfer becomes a flow arrow (``ph: "s"`` at the
  enqueue, ``ph: "f"`` at the matching dequeue — FIFO channels pair the
  k-th enqueue with the k-th dequeue), which renders the dataflow
  dependencies that parks wait on across tracks.

Timestamps are simulated cycles reported in the format's microsecond
unit: one cycle renders as one microsecond, keeping integer arithmetic
exact.  All emitted values derive from simulated state only, so exports
are byte-identical across executors and runs (the golden-file property).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .trace import TraceCollector

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsRegistry

_PID = 1


def _payload_str(payload: Any) -> str:
    if payload is None:
        return ""
    if isinstance(payload, float):
        return f"{payload:.6g}"
    return str(payload)


def to_chrome_trace(
    trace: TraceCollector,
    metrics: "MetricsRegistry | None" = None,
    profile: dict[str, Any] | None = None,
    channels: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Render the trace as a Chrome trace-event / Perfetto JSON object.

    ``profile`` (a :meth:`~repro.obs.profile.ProfileReport.to_dict`) adds
    a Perfetto counter track (``ph: "C"``) with the utilization timeline's
    active/blocked series per epoch and embeds the full report under
    ``otherData.profile``; ``channels`` (capacity/latency metadata from
    :func:`~repro.obs.profile.channel_meta_for`) is embedded under
    ``otherData.channels`` so profiles recomputed from the exported file
    pair channel ops exactly like the in-process analysis.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "args": {"name": "dam-simulation"},
        }
    ]
    buffers = trace.buffers()
    tids = {name: tid for tid, name in enumerate(sorted(buffers))}

    for name, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": name},
            }
        )

    # Channel ops as slices: one track per context, each op spanning from
    # the context's previous event time to the op's completion time.
    flow_points: dict[str, list[tuple[str, Any, int]]] = {}
    for name, tid in tids.items():
        prev_time = 0
        for seq, (kind, channel, time, payload) in enumerate(
            buffers[name].records
        ):
            args: dict[str, Any] = {"seq": seq}
            if channel is not None:
                args["channel"] = channel
            if payload is not None:
                args["payload"] = _payload_str(payload)
            events.append(
                {
                    "name": f"{kind} {channel}" if channel is not None else kind,
                    "cat": "channel" if channel is not None else "time",
                    "ph": "X",
                    "pid": _PID,
                    "tid": tid,
                    "ts": prev_time,
                    "dur": time - prev_time,
                    "args": args,
                }
            )
            prev_time = time
            if channel is not None and kind in ("enqueue", "dequeue"):
                flow_points.setdefault(channel, []).append((kind, time, tid))

    # Channel transfers as flow arrows: FIFO order pairs the k-th enqueue
    # with the k-th dequeue.
    flow_id = 0
    for channel in sorted(flow_points):
        enqueues = [p for p in flow_points[channel] if p[0] == "enqueue"]
        dequeues = [p for p in flow_points[channel] if p[0] == "dequeue"]
        for (_, enq_ts, enq_tid), (_, deq_ts, deq_tid) in zip(enqueues, dequeues):
            flow_id += 1
            common = {"cat": "flow", "name": channel, "id": flow_id, "pid": _PID}
            events.append({**common, "ph": "s", "tid": enq_tid, "ts": enq_ts})
            events.append(
                {**common, "ph": "f", "bp": "e", "tid": deq_tid, "ts": deq_ts}
            )

    # The utilization timeline as a Perfetto counter track: one counter
    # event per epoch with the active/blocked simulated-time series.
    if profile is not None:
        for epoch in (profile.get("timeline") or {}).get("epochs", []):
            events.append(
                {
                    "name": "utilization",
                    "cat": "profile",
                    "ph": "C",
                    "pid": _PID,
                    "ts": epoch["start"],
                    "args": {
                        "active": epoch["active"],
                        "blocked": epoch["blocked"],
                    },
                }
            )

    document: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    other: dict[str, Any] = {}
    if metrics is not None:
        other["metrics"] = metrics.snapshot()
    if profile is not None:
        other["profile"] = profile
    if channels is not None:
        other["channels"] = channels
    if other:
        document["otherData"] = other
    return document


def write_chrome_trace(
    trace: TraceCollector,
    path: str | Path,
    metrics: "MetricsRegistry | None" = None,
    profile: dict[str, Any] | None = None,
    channels: dict[str, Any] | None = None,
) -> Path:
    """Write the Perfetto-loadable JSON to ``path`` and return it."""
    path = Path(path)
    document = to_chrome_trace(trace, metrics, profile=profile, channels=channels)
    path.write_text(json.dumps(document, sort_keys=True, default=str))
    return path


def to_csv(trace: TraceCollector) -> str:
    """Render the merged timeline as CSV (``time,context,seq,kind,channel,
    payload``), in the deterministic merged order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["time", "context", "seq", "kind", "channel", "payload"])
    for event in trace.events:
        writer.writerow(
            [
                event.time,
                event.context,
                event.seq,
                event.kind,
                event.channel or "",
                _payload_str(event.payload),
            ]
        )
    return out.getvalue()


def write_csv(trace: TraceCollector, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(to_csv(trace))
    return path
