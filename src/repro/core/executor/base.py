"""Executor interface and run summaries."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..time import Time

if TYPE_CHECKING:  # pragma: no cover
    from ..program import Program


@dataclass
class RunSummary:
    """The result of executing a program.

    ``elapsed_cycles`` is the simulated makespan: the largest finite local
    time any context reached before finishing.  Both executors must report
    identical ``elapsed_cycles`` and ``context_times`` for the same program
    (the paper's exactness/determinism property).

    ``metrics`` is the :meth:`repro.obs.MetricsRegistry.snapshot` of the
    run when an :class:`~repro.obs.Observability` with metrics enabled
    was attached, else ``None``.  Simulated-state metrics in it (channel
    traffic, peak occupancy, finish times, per-context ops) are
    executor-independent; scheduling metrics (parks, spin reads, wall
    clock) describe the real run and naturally vary.
    """

    elapsed_cycles: Time
    real_seconds: float
    context_times: dict[str, Time] = field(default_factory=dict)
    executor: str = ""
    policy: str = ""
    context_switches: int = 0
    wakeups: int = 0
    preemptions: int = 0
    ops_executed: int = 0
    #: Cold clusters claimed away from their planned worker (process
    #: executor work stealing); 0 for single-runtime executors.
    steals: int = 0
    #: Observed post-steal placement (process executor): context name →
    #: worker index where the context *actually* ran — planned owners
    #: overridden by recorded migrations.  Feed it back through
    #: :func:`~repro.core.executor.partition.pins_from_placement` so the
    #: next plan (and ``superblocks="auto"``) sees real locality instead
    #: of crediting a stolen cluster to its original owner.  ``None`` for
    #: single-runtime executors.
    placement: Optional[dict[str, int]] = None
    metrics: Optional[dict[str, Any]] = None
    #: The run's performance-attribution report
    #: (:meth:`repro.obs.profile.ProfileReport.to_dict`): critical path,
    #: blocked-time accounting, utilization epochs.  Attached when an
    #: :class:`~repro.obs.Observability` with tracing was on the run;
    #: derived from simulated state only, hence executor-independent.
    profile: Optional[dict[str, Any]] = None
    #: Retry-ladder history: one record per execution attempt when
    #: ``RunConfig(fallback=...)`` was set and at least one attempt failed
    #: with a host error (worker crash / deadline).  Each record carries
    #: ``executor``, ``outcome`` ("ok", "WorkerCrashError", ...), an
    #: ``error`` string for failures, ``seconds`` of wall clock spent,
    #: and the run's ``tag`` (below) so multiplexed logs stay attributable.
    attempts: list[dict[str, Any]] = field(default_factory=list)
    #: Opaque caller identity from ``RunConfig(tag=...)``, stamped by
    #: :meth:`Program.run` — never produced or interpreted by executors.
    #: The serve layer tags ``"tenant/request_id"`` so a summary pulled
    #: out of a log or metrics stream names the request that ran it.
    tag: Optional[str] = None

    # ------------------------------------------------------------------
    # Wire format (the serve layer streams summaries as JSON).
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-clean dict of the whole summary.

        ``metrics`` / ``profile`` / ``attempts`` are already plain dicts
        by construction (:meth:`MetricsRegistry.snapshot`,
        :meth:`ProfileReport.to_dict`); times are ints/floats.  The
        result round-trips exactly through :meth:`from_dict` — Python
        floats survive JSON bit-for-bit (shortest-round-trip repr).
        """
        return {
            "elapsed_cycles": self.elapsed_cycles,
            "real_seconds": self.real_seconds,
            "context_times": dict(self.context_times),
            "executor": self.executor,
            "policy": self.policy,
            "context_switches": self.context_switches,
            "wakeups": self.wakeups,
            "preemptions": self.preemptions,
            "ops_executed": self.ops_executed,
            "steals": self.steals,
            "placement": dict(self.placement) if self.placement else None,
            "metrics": self.metrics,
            "profile": self.profile,
            "attempts": list(self.attempts),
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunSummary":
        """Rebuild a summary from its :meth:`to_dict` form (client side)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown RunSummary field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(known))}"
            )
        return cls(**data)

    def __str__(self) -> str:
        return (
            f"RunSummary(cycles={self.elapsed_cycles}, "
            f"real={self.real_seconds:.4f}s, executor={self.executor}, "
            f"switches={self.context_switches}, ops={self.ops_executed})"
        )

    @classmethod
    def merge(
        cls,
        program: "Program",
        payloads,
        trace=None,
    ) -> "RunSummary":
        """Fold per-worker result payloads back onto ``program`` and
        return a partially-filled summary.

        Each payload is the dict a worker harvests after its slice of the
        run: ``finish_times`` / ``context_attrs`` / ``context_stats``
        keyed by context slot, ``channel_stats`` keyed by channel id,
        per-context ``trace`` record lists, and scheduler ``counters``.
        The caller (any multi-runtime executor) completes the summary
        with ``executor`` / ``policy`` / ``real_seconds`` / ``metrics``.

        Folding lives here so :mod:`~repro.core.executor.partitioned`
        and future distributed executors share one merge: finish times
        and picklable result attributes land on the original contexts,
        channel stats accumulate, trace buffers extend (keeping the
        ``(time, context, seq)`` merge executor-independent), and the
        post-run channel closures mirror what an in-process run leaves
        behind.
        """
        contexts = program.contexts
        by_id = {ch.id: ch for ch in program.channels}
        summary = cls(elapsed_cycles=0, real_seconds=0.0)

        for payload in payloads:
            for slot, finish in payload.get("finish_times", {}).items():
                ctx = contexts[slot]
                ctx.finish_time = finish
                ctx.time.finish()
            for slot, attrs in payload.get("context_attrs", {}).items():
                ctx = contexts[slot]
                for key, value in attrs.items():
                    setattr(ctx, key, value)
            for channel_id, shipped in payload.get("channel_stats", {}).items():
                channel = by_id.get(channel_id)
                if channel is None:  # pragma: no cover - defensive
                    continue
                stats = channel.stats
                stats.enqueues += shipped["enqueues"]
                stats.dequeues += shipped["dequeues"]
                stats.peeks += shipped["peeks"]
                if shipped["max_real_occupancy"] > stats.max_real_occupancy:
                    stats.max_real_occupancy = shipped["max_real_occupancy"]
                log = shipped.get("profile_log")
                if log and channel.profile_log is not None:
                    channel.profile_log.extend(log)
            if trace is not None:
                for name, records in payload.get("trace", {}).items():
                    trace.buffer(name).records.extend(records)
            counters = payload.get("counters", {})
            summary.context_switches += counters.get("context_switches", 0)
            summary.wakeups += counters.get("wakeups", 0)
            summary.preemptions += counters.get("preemptions", 0)
            summary.ops_executed += counters.get("ops_executed", 0)
            summary.steals += counters.get("steals", 0)

        # Post-run channel parity with the in-process executors: every
        # finished endpoint has propagated its closure.
        for channel in program.channels:
            owner = channel.sender_owner
            if owner is not None and owner.finish_time is not None:
                channel.close_sender()
            owner = channel.receiver_owner
            if owner is not None and owner.finish_time is not None:
                channel.close_receiver()

        summary.elapsed_cycles = Executor._makespan(program)
        summary.context_times = {
            ctx.name: ctx.finish_time for ctx in program.contexts
        }
        return summary


class Executor:
    """Common interface: ``execute(program) -> RunSummary``."""

    name = "abstract"

    def execute(self, program: "Program") -> RunSummary:
        raise NotImplementedError

    @classmethod
    def from_config(cls, config=None, **overrides) -> "Executor":
        """Construct this executor from a :class:`RunConfig`.

        Only the config fields this executor's constructor declares are
        passed (see :meth:`RunConfig.kwargs_for`); ``overrides`` are
        applied on top of ``config`` first.
        """
        from .config import RunConfig

        if config is None:
            config = RunConfig()
        if overrides:
            config = config.replace(**overrides)
        return cls(**config.kwargs_for(cls))

    @staticmethod
    def _makespan(program: "Program") -> Time:
        """Largest finite finish time across contexts (0 if none)."""
        times = [
            ctx.finish_time
            for ctx in program.contexts
            if ctx.finish_time is not None
        ]
        return max(times, default=0)

    # ------------------------------------------------------------------
    # Shared observability hooks.
    # ------------------------------------------------------------------

    def _attach_profile(self, summary: RunSummary, program: "Program", obs) -> None:
        """Compute the performance-attribution report from the run's trace
        and attach it to both ``summary.profile`` and the obs bundle.

        A no-op without tracing.  The process executor's in-worker
        sequential executor overrides this to nothing — the parent
        profiles the merged run, exactly like metrics folding.
        """
        if obs is None or getattr(obs, "trace", None) is None:
            return
        trace = obs.trace
        if not trace.buffers():
            return
        from ...obs.profile import channel_meta_for, profile_trace

        meta = channel_meta_for(program.channels)
        obs.channel_meta = meta
        report = profile_trace(trace, channel_meta=meta)
        obs.profile_report = report
        summary.profile = report.to_dict()

    @staticmethod
    def _start_sampler(interval_s, probe, sink):
        """Start a live :class:`~repro.obs.stream.MetricsSampler` when an
        interval was configured; returns the sampler or ``None``."""
        if not interval_s:
            return None
        from ...obs.stream import MetricsSampler

        return MetricsSampler(interval_s, probe, sink=sink).start()

    @staticmethod
    def _stop_sampler(sampler, obs) -> None:
        """Stop ``sampler`` (taking a final sample) and publish the
        samples on the obs bundle when one is attached."""
        if sampler is None:
            return
        samples = sampler.stop()
        if obs is not None:
            obs.metrics_samples = samples
