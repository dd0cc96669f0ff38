"""One-thread-per-context executor with SVA/SVP-style synchronization.

This is the Python analog of the DAM-RS runtime (paper Section IV): every
context runs on its own OS thread, there is no global clock and no event
queue, and synchronization is strictly pairwise:

* **SVA (Synchronization via Atomics)** — reading a peer's
  :class:`~repro.core.time.TimeCell` is a plain attribute load; under
  CPython the GIL gives it the acquire semantics the paper obtains from
  x86 total-store-order loads.  ``ViewTime`` compiles to exactly this.

* **SVP (Synchronization via Parking)** — when a context must wait for a
  peer's clock (or for channel state to change) it parks on a
  ``threading.Condition``, the portable analog of a futex park/unpark
  pair, and is woken by the peer's releasing operation.

The GIL means this executor does not deliver the paper's wall-clock
*speedups* (documented substitution in DESIGN.md), but the synchronization
algorithm, blocking structure, and — critically — the simulated results are
those of the paper's runtime.  Cross-executor tests assert cycle-exact
agreement with :class:`~repro.core.executor.sequential.SequentialExecutor`.

Supervision: the thread that calls :meth:`ThreadedExecutor.execute` is
the run's one supervision point.  It sleeps on an event that the last
finishing context (or any aborting thread) sets, waking early only to
check the deadline, take a due checkpoint, or watch for a deadlock: every
unfinished thread parked with no progress for a grace period, which
aborts the run with a stall report — each blocked context, the channel
it is parked on, and the simulated clocks of both of that channel's
endpoints.  No run waits out a poll interval to finish.

Observability: attach a :class:`repro.obs.Observability` (``obs=``) to
trace the run.  Each context appends to its own lock-free buffer from its
own thread, so tracing does not perturb the synchronization schedule;
buffers are merged deterministically at query time, yielding the same
event order the sequential executor produces.
"""

from __future__ import annotations

import threading
import time as _wallclock
from typing import Any, Optional

from ...obs import Observability, fold_channel_metrics, fold_context_metrics
from ...obs.stall import StallReport, stall_for
from .. import checkpoint as _ckpt
from ..channel import _EMPTY, Channel
from ..context import Context
from ..errors import (
    ChannelClosed,
    DamError,
    DeadlockError,
    RunTimeoutError,
    SimulationError,
    unpack_exception,
)
from ..ops import (
    AdvanceTo,
    Dequeue,
    Enqueue,
    FusedOps,
    IncrCycles,
    Peek,
    ViewTime,
    WaitUntil,
)
from ..program import Program
from .base import Executor, RunSummary
from .registry import register_executor
from .sequential import SequentialExecutor


class _Aborted(Exception):
    """Internal: the run was aborted (deadlock, deadline or peer failure)."""


class _TimeSync:
    """Park/unpark support for WaitUntil on one context's clock.

    ``wakes`` holds the wake events of idle cluster drivers waiting on
    this clock; they count in ``waiter_count`` like parked threads do.
    """

    __slots__ = ("cond", "waiter_count", "wakes")

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.waiter_count = 0
        self.wakes: list[threading.Event] = []


@register_executor("threaded")
class ThreadedExecutor(Executor):
    """Executes each context on a dedicated OS thread.

    Parameters
    ----------
    poll_interval:
        Cadence (seconds) of the deadlock and deadline checks, and the
        bound on any single park.  Not a latency floor: a run returns as
        soon as its last context finishes, and aborts and checkpoint
        pauses wake parked threads directly.
    deadlock_grace:
        Abort if all unfinished threads stay parked with zero progress for
        this long (seconds).
    obs:
        A :class:`repro.obs.Observability` collecting the run's trace
        and/or metrics.
    """

    name = "threaded"

    def __init__(
        self,
        poll_interval: float = 0.05,
        deadlock_grace: float = 2.0,
        obs: Optional[Observability] = None,
        deadline_s: Optional[float] = None,
        faults=None,
        metrics_interval_s: Optional[float] = None,
        metrics_sink=None,
        superblocks: Any = "auto",
        checkpoint_interval_s: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
    ):
        self.poll_interval = poll_interval
        self.deadlock_grace = deadlock_grace
        self.obs = obs
        self.checkpoint_interval_s = checkpoint_interval_s
        self.checkpoint_path = checkpoint_path
        #: Superblock mode (DESIGN.md §15): eligible cold clusters run on
        #: one thread each via an embedded sequential cluster driver with
        #: shared-clock shadow cells; every other context keeps its own
        #: thread.  Scheduling-independent results are identical either
        #: way (the determinism invariant).
        self.superblocks = superblocks
        self.deadline_s = deadline_s
        self.faults = faults
        self.metrics_interval_s = metrics_interval_s
        self.metrics_sink = metrics_sink
        self._fault_map: dict = {}
        self._deadline_at: Optional[float] = None
        self._abort = threading.Event()
        # Set once the run is over — the last context finished or the run
        # aborted — waking the supervisor at once.
        self._settled = threading.Event()
        self._progress = 0  # monotone op counter (heuristic, GIL-atomic)
        self._blocked_count = 0
        self._blocked_lock = threading.Lock()
        self._errors: list[BaseException] = []
        # Structured park sites for stall reports: name -> (detail,
        # channel, peer context).  Written under _blocked_lock.
        self._blocked_sites: dict[str, tuple[str, Optional[Channel], Optional[Context]]] = {}
        # What each parked thread (condition) or idle cluster driver
        # (event) waits on, so an abort or a checkpoint pause can wake it
        # at once.  Written under _blocked_lock.
        self._parked_on: dict[str, Any] = {}
        self._ops_executed = 0
        # -- checkpoint pause protocol (DESIGN.md §17) -----------------
        # The supervisor raises ``_ckpt_request``; every live thread
        # acknowledges at its next safe point — the top of its op loop
        # (executed record) or between bounded parks on an un-executed
        # op — then waits on ``_ckpt_cv`` without executing anything.
        # When every live thread has acknowledged, nothing can mutate a
        # channel or clock: a quiescent cut by construction.
        self._ckpt_timer: Any = None
        self._ckpt_request = False
        self._ckpt_cv = threading.Condition()
        # Round counter: an acknowledging thread waits for the *round it
        # acked in* to end, not for a boolean to flip — back-to-back
        # rounds (interval <= 0) would otherwise swallow the flip and
        # strand every thread in a stale wait.
        self._ckpt_round = 0
        self._ckpt_acked = 0
        self._ckpt_records: dict[int, dict] = {}
        # Mid-batch bookkeeping per context, maintained only while
        # checkpointing is on: [fused_index, live results list, batch
        # length] — None index means "not inside a fused batch".
        self._ckpt_cells: dict[int, list] = {}
        self._resume_records: Optional[dict[int, dict]] = None
        self._resuming = False
        self._slots: dict[int, int] = {}

    # ------------------------------------------------------------------

    def execute(self, program: Program) -> RunSummary:
        start = _wallclock.perf_counter()
        self._start = start
        self._deadline_at = (
            start + self.deadline_s if self.deadline_s is not None else None
        )
        # Each thread only ever reads/deletes its own context's entry, so
        # plain dict operations suffice (GIL- and per-object-lock safe).
        self._fault_map = (
            dict(self.faults.context_faults)
            if self.faults is not None and self.faults.context_faults
            else {}
        )
        self._program = program
        self._slots = {id(ctx): slot for slot, ctx in enumerate(program.contexts)}
        self._ckpt_timer = None
        if self.checkpoint_path is not None:
            _ckpt.validate_checkpointable(program)
            _ckpt.clean_stale_temps(self.checkpoint_path)
            interval = self.checkpoint_interval_s
            self._ckpt_timer = _ckpt.CheckpointTimer(
                0.0 if interval is None else interval,
                start_epoch=getattr(program, "_resume_epoch", 0),
            )
            self._ckpt_cells = {
                id(ctx): [None, None, None] for ctx in program.contexts
            }
        resume = program.__dict__.pop("_resume_records", None)
        self._resuming = resume is not None
        self._resume_records = resume
        # Contexts restored as done never get a thread: their finish
        # times and their channels' closure flags came back with the
        # checkpoint, so there is nothing left to drive (and _finish must
        # not run — it would re-close and re-stamp).
        done_ids = (
            {
                id(ctx)
                for slot, ctx in enumerate(program.contexts)
                if resume.get(slot, {}).get("kind") == "done"
            }
            if resume
            else set()
        )
        self._time_sync = {id(ctx): _TimeSync() for ctx in program.contexts}
        self._unfinished = len(program.contexts) - len(done_ids)
        self._unfinished_lock = threading.Lock()
        if self._unfinished == 0:
            self._settled.set()

        obs = self.obs
        trace = obs.trace if obs is not None else None
        # Per-context trace buffers and metric tallies are created here,
        # on the main thread, so worker threads only ever touch their own
        # entry (the lock-free discipline).
        self._buffers = (
            {ctx.name: trace.buffer(ctx.name) for ctx in program.contexts}
            if trace is not None
            else {}
        )
        collect_metrics = obs is not None and obs.metrics is not None
        self._collect_metrics = collect_metrics
        self._ctx_ops = {ctx.name: 0 for ctx in program.contexts}
        self._ctx_parks = {ctx.name: 0 for ctx in program.contexts}
        self._ctx_spins = {ctx.name: 0 for ctx in program.contexts}
        self._ctx_wall = {ctx.name: 0.0 for ctx in program.contexts}

        for ctx in program.contexts:
            self._install_advance_hook(ctx)

        cluster_groups = self._plan_superblocks(program)
        clustered = {
            id(ctx) for contexts, _ in cluster_groups for ctx in contexts
        }
        threads = [
            threading.Thread(
                target=self._drive, args=(ctx,), name=f"dam-{ctx.name}", daemon=True
            )
            for ctx in program.contexts
            if id(ctx) not in clustered and id(ctx) not in done_ids
        ]
        threads.extend(
            threading.Thread(
                target=self._drive_cluster,
                args=(contexts, channels),
                name=f"dam-cluster-{contexts[0].name}",
                daemon=True,
            )
            for contexts, channels in cluster_groups
        )
        for thread in threads:
            thread.start()
        sampler = self._start_sampler(
            self.metrics_interval_s, self._sampler_probe(program), self.metrics_sink
        )
        try:
            self._supervise()
        except BaseException:
            # Interrupted supervisor: unwind the context threads too.
            self._abort_run()
            raise
        finally:
            for thread in threads:
                thread.join()
            self._stop_sampler(sampler, obs)

        for ctx in program.contexts:
            ctx.time.on_advance = None

        if self._errors:
            raise self._errors[0]  # typed by _fail
        if any(ctx.finish_time is None for ctx in program.contexts):
            report = self._stall_report()
            if obs is not None:
                obs.stall_report = report
            raise DeadlockError(report.lines())

        summary = RunSummary(
            elapsed_cycles=self._makespan(program),
            real_seconds=_wallclock.perf_counter() - start,
            context_times={ctx.name: ctx.finish_time for ctx in program.contexts},
            executor=self.name,
            policy="os",
            ops_executed=self._ops_executed,
            metrics=self._fold_metrics(program),
        )
        self._attach_profile(summary, program, obs)
        return summary

    def _sampler_probe(self, program: Program):
        """Read-only closure for the live metrics sampler: each context's
        published clock, the op counter, and the registry when enabled."""
        obs = self.obs
        registry = obs.metrics if obs is not None else None
        contexts = list(program.contexts)

        def probe() -> dict:
            sample: dict = {
                "contexts": {ctx.name: ctx.time.now() for ctx in contexts},
                "ops_executed": self._ops_executed,
            }
            if registry is not None:
                sample["metrics"] = registry.snapshot()
            return sample

        return probe

    # ------------------------------------------------------------------

    def _stall_report(self) -> StallReport:
        """Build the deadlock diagnosis from the recorded park sites."""
        with self._blocked_lock:
            sites = dict(self._blocked_sites)
        stalls = []
        contexts = {ctx.name: ctx for ctx in self._program.contexts}
        for name, ctx in contexts.items():
            if ctx.finish_time is not None:
                continue
            detail, channel, peer = sites.get(name, ("not started", None, None))
            stalls.append(stall_for(ctx, detail, channel=channel, peer=peer))
        return StallReport(stalls)

    def _fold_metrics(self, program: Program) -> Optional[dict]:
        if not self._collect_metrics:
            return None
        registry = self.obs.metrics
        fold_channel_metrics(registry, program.channels)
        for ctx in program.contexts:
            fold_context_metrics(
                registry,
                ctx.name,
                ops=self._ctx_ops[ctx.name],
                finish_time=ctx.finish_time,
                wall_seconds=self._ctx_wall[ctx.name],
                parks=self._ctx_parks[ctx.name],
                spin_reads=self._ctx_spins[ctx.name],
            )
        registry.counter("executor_ops").inc(self._ops_executed)
        return registry.snapshot()

    # ------------------------------------------------------------------

    def _install_advance_hook(self, ctx: Context) -> None:
        sync = self._time_sync[id(ctx)]

        def notify(_now: Any, _sync: _TimeSync = sync) -> None:
            # Fast path: nobody is parked on this clock.
            if _sync.waiter_count:
                with _sync.cond:
                    _sync.cond.notify_all()
                    for wake in _sync.wakes:
                        wake.set()

        ctx.time.on_advance = notify

    # ------------------------------------------------------------------
    # Superblocks (DESIGN.md §15): shared-clock twins of the sequential
    # cluster driver.  Each eligible cold cluster runs on ONE thread via
    # an embedded SequentialExecutor whose superblock turns run against
    # shadow cells and publish one clock leap per turn through the
    # parent-installed advance hooks — preserving the SVA lower-bound
    # contract for every non-member observer.

    def _plan_superblocks(
        self, program: Program
    ) -> list[tuple[list[Context], list[Any]]]:
        """Resolve which cold clusters get a single cluster-driver thread.

        Declines whenever per-op observability or fault injection needs
        the per-context thread structure (tracing buffers and fault
        triggers are wired to ``_drive``).
        """
        from .partition import plan_clusters
        from .superblock import normalize_mode, select_clusters

        mode = normalize_mode(self.superblocks)
        if mode == "off" or self.obs is not None or self._fault_map:
            return []
        # Checkpointed (and resumed) runs need one thread per context:
        # the pause protocol's safe points live in _drive, and cluster-
        # driver sb_* state is not part of any capturable record.
        if self._ckpt_timer is not None or self._resuming:
            return []
        clusters = plan_clusters(
            program, {id(ctx): 0 for ctx in program.contexts}
        )
        specs = select_clusters(program, clusters, mode)
        return [
            (
                [program.contexts[slot] for slot in spec.contexts],
                [program.channels[slot] for slot in spec.channels],
            )
            for spec in specs
        ]

    def _drive_cluster(
        self, contexts: list[Context], channels: list[Any]
    ) -> None:
        """Thread body: drive one cold cluster to completion through an
        embedded sequential engine (superblocks included)."""
        driver = _ClusterDriver(self)
        try:
            driver.execute(Program(contexts, channels))
        except _Aborted:
            return
        except BaseException as failure:  # noqa: BLE001 - reported faithfully
            self._fail(failure, contexts[0].name)
        finally:
            states = getattr(driver, "_states", None) or {}
            for ctx in contexts:
                # Parent-side wind-down per member: close channels under
                # their conditions (waking any foreign parked threads)
                # and decrement the unfinished count — mirroring the tail
                # of ``_drive``.  The embedded driver already stamped
                # finish times for members that completed.
                self._finish(ctx)
                state = states.get(id(ctx))
                if state is not None:
                    self._ctx_ops[ctx.name] = state.ops

    def _drive(self, ctx: Context) -> None:
        """Thread body: interpret one context's generator to completion."""
        gen = ctx.run()
        value: Any = None
        exc: BaseException | None = None
        started = False  # the generator has been primed (first send done)
        resume_batch: Optional[tuple] = None
        # The buffer is this thread's own: appends need no locking and,
        # unlike a shared event log, cannot perturb peer scheduling.
        buf = self._buffers.get(ctx.name)
        ops = 0
        wall_start = _wallclock.perf_counter() if self._collect_metrics else 0.0
        abort_is_set = self._abort.is_set
        fault = self._fault_map.pop(ctx.name, None)
        cell = self._ckpt_cells.get(id(ctx))
        record = (
            self._resume_records.pop(self._slots[id(ctx)], None)
            if self._resume_records
            else None
        )
        try:
            if record is not None and record["kind"] == "suspended":
                # Resume prologue (DESIGN.md §17): prime the fresh
                # generator so it re-derives the suspended yield from the
                # restored attributes, then route the recorded outcome
                # back in instead of re-executing the op.  Un-executed
                # simple suspensions skip all of this — the loop below
                # re-derives and re-attempts them naturally.
                packed = record.get("pending_exc")
                pending_exc = (
                    unpack_exception(packed) if packed is not None else None
                )
                fused_index = record.get("fused_index")
                if fused_index is not None:
                    op0 = self._resume_prime(ctx, gen)
                    started = True
                    subs0 = op0.ops if type(op0) is FusedOps else op0
                    if not isinstance(subs0, (tuple, list)):
                        raise SimulationError(
                            ctx.name,
                            RuntimeError(
                                "resumed context yielded a non-fused op "
                                "where the checkpoint recorded a fused "
                                f"batch: {op0!r}"
                            ),
                        )
                    results0 = list(record.get("fused_prefix") or [])
                    start_at = fused_index
                    if record["executed"]:
                        results0.append(record["pending_value"])
                        start_at = fused_index + 1
                    resume_batch = (subs0, start_at, results0, pending_exc)
                elif record["executed"] or pending_exc is not None:
                    self._resume_prime(ctx, gen)
                    started = True
                    value, exc = record["pending_value"], pending_exc
            while True:
                # Per-op abort check: without it a context that never
                # blocks (pure IncrCycles loops) would ignore deadline and
                # peer-failure aborts until it happened to park.
                if abort_is_set():
                    raise _Aborted
                if resume_batch is not None:
                    # Finish the checkpointed mid-batch suspension before
                    # the first checkpoint gate: the pending prefix is
                    # thread-local state no record could describe twice.
                    subs, start_at, results, exc = resume_batch
                    resume_batch = None
                    if exc is None:
                        value, exc, count = self._run_batch(
                            ctx, subs, buf, results, start_at, cell
                        )
                        ops += count
                        continue
                    # The recorded batch outcome was an exception (a
                    # closing dequeue): fall through and deliver it.
                if self._ckpt_request:
                    self._ckpt_ack(
                        ctx, self._ready_record(ctx, started, value, exc)
                    )
                if fault is not None and ops >= fault.after_ops:
                    exc, fault = fault.make(), None
                try:
                    if exc is not None:
                        pending, exc = exc, None
                        op = gen.throw(pending)
                    else:
                        op = gen.send(value)
                except StopIteration:
                    break
                except ChannelClosed:
                    break
                started = True
                value, exc = None, None
                kind = type(op)
                if kind is FusedOps or kind is tuple or kind is list:
                    subs = op.ops if kind is FusedOps else op
                    value, exc, count = self._run_batch(
                        ctx, subs, buf, [], 0, cell
                    )
                    ops += count
                    continue
                try:
                    value = self._step(ctx, op, buf)
                except ChannelClosed as closed:
                    exc = closed
                self._progress += 1
                self._ops_executed += 1
                ops += 1
        except _Aborted:
            return
        except BaseException as failure:  # noqa: BLE001 - reported faithfully
            self._fail(failure, ctx.name)
        finally:
            gen.close()
            self._finish(ctx)
            if buf is not None and ctx.finish_time is not None:
                buf.append("finish", None, ctx.finish_time)
            self._ctx_ops[ctx.name] = ops
            if self._collect_metrics:
                self._ctx_wall[ctx.name] = (
                    _wallclock.perf_counter() - wall_start
                )

    def _run_batch(
        self,
        ctx: Context,
        subs,
        buf,
        results: list,
        start: int,
        cell: Optional[list],
    ) -> tuple:
        """Execute constituents ``[start:]`` of a fused batch.

        Returns ``(value, exc, count)``: the delivery for the generator
        (the results list, or ``None`` paired with the closing exception)
        and the number of constituents executed here.  ``cell`` — present
        only while checkpointing is on — tracks the in-progress position
        so a pause while blocked on a constituent records the exact
        mid-batch suspension.
        """
        exc: BaseException | None = None
        count = 0
        try:
            for index in range(start, len(subs)):
                sub = subs[index]
                if cell is not None:
                    cell[0], cell[1], cell[2] = index, results, len(subs)
                # Accounting is per constituent, matching the sequential
                # executor: the batch itself is not an op, and a closing
                # dequeue is still counted.
                self._progress += 1
                self._ops_executed += 1
                count += 1
                try:
                    results.append(self._step(ctx, sub, buf))
                except ChannelClosed as closed:
                    exc = closed
                    break  # abandon the rest of the batch
        finally:
            if cell is not None:
                cell[0] = None
        # A list, matching the sequential fast path's reused plan buffer
        # (same type either way).
        return (results if exc is None else None, exc, count)

    def _step(self, ctx: Context, op: Any, buf) -> Any:
        """Execute one non-fused op and return its result; a dequeue or
        peek of a closed, drained channel raises :class:`ChannelClosed`."""
        kind = type(op)
        if kind is Enqueue:
            self._do_enqueue(ctx, op)
            if buf is not None:
                buf.append(
                    "enqueue", op.sender.channel.name, ctx.time.now(), op.data
                )
            return None
        if kind is Dequeue or kind is Peek:
            value = self._do_dequeue(ctx, op, remove=kind is Dequeue)
            if buf is not None:
                buf.append(
                    "dequeue" if kind is Dequeue else "peek",
                    op.receiver.channel.name, ctx.time.now(), value,
                )
            return value
        if kind is IncrCycles or kind is AdvanceTo:
            if kind is IncrCycles:
                ctx.time.incr(op.cycles)
            else:
                ctx.time.advance(op.time)
            if buf is not None:
                buf.append("advance", None, ctx.time.now())
            return None
        if kind is ViewTime:
            self._ctx_spins[ctx.name] += 1
            return op.context.time.now()  # SVA: plain atomic load
        if kind is WaitUntil:
            return self._wait_until(ctx, op)
        raise SimulationError(ctx.name, TypeError(f"non-op yielded: {op!r}"))

    # ------------------------------------------------------------------
    # Checkpoint pause protocol (DESIGN.md §17).
    # ------------------------------------------------------------------

    def _resume_prime(self, ctx: Context, gen):
        """Prime a resumed generator; its first yield re-derives the
        suspended op (discarded — the recorded outcome replaces it)."""
        try:
            return gen.send(None)
        except BaseException as failure:  # noqa: BLE001 - contract breach
            raise SimulationError(
                ctx.name,
                RuntimeError(
                    "context did not re-derive its suspended yield on "
                    f"resume (resumable-state contract breach): {failure!r}"
                ),
            ) from failure

    def _ready_record(self, ctx: Context, started: bool, value, exc) -> dict:
        """The resume record for a thread paused at the top of its op
        loop: the last op executed fully and its outcome awaits delivery
        (or the generator never started)."""
        if not started:
            return _ckpt.record_fresh(ctx)
        return _ckpt.record_suspended(
            ctx, executed=True, pending_value=value, pending_exc=exc
        )

    def _ckpt_gate_blocked(self, ctx: Context) -> None:
        """Safe point between bounded parks on an un-executed op.

        Called with no channel condition held (the park's ``with`` block
        has exited), so acknowledging here can never stop a peer from
        reaching its own gate.
        """
        if not self._ckpt_request:
            return
        cell = self._ckpt_cells.get(id(ctx))
        if cell is not None and cell[0] is not None:
            record = _ckpt.record_suspended(
                ctx,
                executed=False,
                fused_index=cell[0],
                fused_prefix=list(cell[1][: cell[0]]),
                fused_len=cell[2],
            )
        else:
            record = _ckpt.record_suspended(ctx, executed=False)
        self._ckpt_ack(ctx, record)

    def _ckpt_ack(self, ctx: Context, record: dict) -> None:
        """Publish this context's record, then stay parked — executing
        nothing — until the supervisor finishes the capture."""
        slot = self._slots[id(ctx)]
        with self._ckpt_cv:
            if not self._ckpt_request:
                # The round ended between the lock-free gate check and
                # acquiring the condition; nothing to acknowledge.
                return
            round_id = self._ckpt_round
            self._ckpt_records[slot] = record
            self._ckpt_acked += 1
            self._ckpt_cv.notify_all()
            # Wait for *this* round to end.  The supervisor may begin the
            # next round immediately (interval <= 0), so waiting on the
            # request boolean alone would strand this thread in a stale
            # wait while the new round counts acks it never re-sent.
            while self._ckpt_round == round_id and not self._abort.is_set():
                self._ckpt_cv.wait(self.poll_interval)
        if self._abort.is_set():
            raise _Aborted

    def _checkpoint_round(self) -> bool:
        """One pause/capture/resume round, run by the supervisor.

        Raising the request flag and waking every parked thread makes
        each live thread acknowledge at its next safe point; a thread
        that instead *finishes* leaves the live count (and notifies).
        Resumed threads re-attempt their blocked ops.  Returns True when
        every live thread acknowledged from a blocked op — the stall
        check's evidence.  An expired deadline ends the round uncaptured.
        """
        deadline_at = self._deadline_at
        with self._ckpt_cv:
            self._ckpt_records = {}
            self._ckpt_acked = 0
            self._ckpt_request = True
            try:
                self._wake_parked()
                while not self._abort.is_set():
                    with self._unfinished_lock:
                        live = self._unfinished
                    if live <= 0 or self._ckpt_acked >= live:
                        break
                    timeout = self.poll_interval
                    if deadline_at is not None:
                        left = deadline_at - _wallclock.perf_counter()
                        if left <= 0:
                            return False
                        timeout = min(timeout, left)
                    self._ckpt_cv.wait(timeout)
                else:
                    return False
                self._capture_checkpoint()
                return live > 0 and not any(
                    record.get("executed", True)
                    for record in self._ckpt_records.values()
                )
            finally:
                self._ckpt_request = False
                self._ckpt_round += 1
                self._ckpt_cv.notify_all()

    def _capture_checkpoint(self) -> None:
        """All live threads acknowledged: assemble and write the cut.
        Contexts with no published record finished earlier (their threads
        exited) and are captured as done."""
        program = self._program
        records = dict(self._ckpt_records)
        for slot, ctx in enumerate(program.contexts):
            if slot not in records:
                records[slot] = _ckpt.record_done(ctx)
        obs = self.obs
        registry = obs.metrics if obs is not None else None
        checkpoint = _ckpt.Checkpoint.capture(
            program,
            self._ckpt_timer.epoch + 1,
            records,
            metrics=registry.dump_state() if registry is not None else None,
            executor=self.name,
        )
        checkpoint.save(self.checkpoint_path)
        self._ckpt_timer.mark()

    # ------------------------------------------------------------------
    # Blocking channel operations (the SVP paths).
    # ------------------------------------------------------------------

    def _do_enqueue(self, ctx: Context, op: Enqueue) -> None:
        channel = op.sender.channel
        clock = ctx.time
        while True:
            with channel.cond:
                # ``try_enqueue`` is re-fetched on every attempt: a close
                # transition while parked re-selects the flavor under this
                # same condition, so the retry sees the fresh bound method.
                if channel.try_enqueue(clock, op.data):
                    channel.cond.notify_all()
                    return
                self._park(
                    ctx, channel.cond, f"enqueue on full {channel.name}",
                    channel=channel,
                )
            self._ckpt_gate_blocked(ctx)

    def _do_dequeue(self, ctx: Context, op: Any, remove: bool) -> Any:
        channel = op.receiver.channel
        clock = ctx.time
        while True:
            with channel.cond:
                if remove:
                    value = channel.fast_dequeue(clock)
                    if value is not _EMPTY:
                        channel.cond.notify_all()
                        return value
                elif channel.can_dequeue():
                    return channel.do_peek(clock)
                if channel.closed_for_receiver:
                    raise ChannelClosed(channel.name)
                self._park(
                    ctx, channel.cond, f"dequeue on empty {channel.name}",
                    channel=channel,
                )
            self._ckpt_gate_blocked(ctx)

    def _wait_until(self, ctx: Context, op: WaitUntil) -> Any:
        target = op.context
        if target.time.now() >= op.time:  # SVA fast path
            self._ctx_spins[ctx.name] += 1
            return target.time.now()
        sync = self._time_sync[id(target)]
        while True:
            with sync.cond:
                if target.time.now() >= op.time:
                    break
                self._ctx_spins[ctx.name] += 1
                sync.waiter_count += 1
                try:
                    self._park(
                        ctx, sync.cond,
                        f"wait-until {op.time} on {target.name}",
                        peer=target,
                    )
                finally:
                    sync.waiter_count -= 1
            self._ckpt_gate_blocked(ctx)
        return target.time.now()

    def _park(
        self,
        ctx: Context,
        cond: threading.Condition,
        detail: str,
        channel: Optional[Channel] = None,
        peer: Optional[Context] = None,
    ) -> None:
        """One bounded wait on ``cond`` (caller re-checks its predicate).

        ``channel``/``peer`` identify what the context is parked on; they
        feed the stall report.
        """
        self._ctx_parks[ctx.name] += 1
        self._parked({ctx.name: (detail, channel, peer)}, cond)

    def _parked(self, sites: dict, waiter: Any) -> None:
        """Wait on ``waiter`` (a condition or an event) for at most
        ``poll_interval``, with ``sites`` registered as parked on it, so
        an abort or a checkpoint pause wakes it at once.
        Both flags are raised before the wakers read the registry and are
        re-read here under the same lock: a park sees the flag or is woken.
        """
        with self._blocked_lock:
            self._blocked_count += len(sites)
            self._blocked_sites.update(sites)
            self._parked_on.update(dict.fromkeys(sites, waiter))
            interrupted = self._ckpt_request or self._abort.is_set()
        try:
            if not interrupted:
                waiter.wait(self.poll_interval)
        finally:
            with self._blocked_lock:
                self._blocked_count -= len(sites)
                for name in sites:
                    self._blocked_sites.pop(name, None)
                    self._parked_on.pop(name, None)
        if self._abort.is_set():
            # Keep the park sites for the deadlock report.
            with self._blocked_lock:
                self._blocked_sites.update(sites)
            raise _Aborted

    def _wake_parked(self) -> None:
        """Wake every parked thread and idle cluster driver now."""
        with self._blocked_lock:
            waits = set(self._parked_on.values())
        for wait in waits:
            if isinstance(wait, threading.Event):
                wait.set()
            else:
                with wait:
                    wait.notify_all()

    def _abort_run(self) -> None:
        """Stop the run: every thread unwinds at its next abort check,
        and the parked ones are woken to make that check now."""
        self._abort.set()
        self._settled.set()
        self._wake_parked()
        with self._ckpt_cv:
            self._ckpt_cv.notify_all()

    def _fail(self, error: BaseException, where: str = "<threaded>") -> None:
        """Record ``error`` (wrapped unless already typed) as the run's
        outcome and abort it."""
        if not isinstance(error, DamError):
            error = SimulationError(where, error)
        self._errors.append(error)
        self._abort_run()

    # ------------------------------------------------------------------

    def _finish(self, ctx: Context) -> None:
        if ctx.finish_time is None and not self._errors and not self._abort.is_set():
            ctx.finish_time = ctx.time.now()
        ctx.time.finish()
        for sender in ctx.senders:
            channel = sender.channel
            with channel.cond:
                channel.close_sender()
                channel.cond.notify_all()
        for receiver in ctx.receivers:
            channel = receiver.channel
            with channel.cond:
                channel.close_receiver()
                channel.cond.notify_all()
        with self._unfinished_lock:
            self._unfinished -= 1
            settled = self._unfinished == 0
        if settled:
            self._settled.set()
        if self._ckpt_timer is not None:
            # A checkpoint round counts live threads; let it recount.
            with self._ckpt_cv:
                self._ckpt_cv.notify_all()

    def _timeout_error(self, program: Program) -> RunTimeoutError:
        """Build the deadline abort: stall report + partial summary, with
        clocks snapshotted *now*, before thread wind-down freezes them at
        infinity."""
        report = self._stall_report()
        if self.obs is not None:
            self.obs.stall_report = report
        summary = RunSummary(
            elapsed_cycles=self._makespan(program),
            real_seconds=_wallclock.perf_counter() - self._start,
            context_times={
                ctx.name: (
                    ctx.finish_time
                    if ctx.finish_time is not None
                    else ctx.time.now()
                )
                for ctx in program.contexts
            },
            executor=self.name,
            policy="os",
            ops_executed=self._ops_executed,
        )
        return RunTimeoutError(
            self.deadline_s,
            executor=self.name,
            summary=summary,
            stall_report=report,
        )

    def _supervise(self) -> None:
        """The run's one supervision point, on the calling thread.

        Sleeps until the run settles (last context finished, or an
        abort), waking after at most ``poll_interval`` — sooner when the
        deadline or the next checkpoint is closer — to expire the
        deadline, take a due checkpoint, or diagnose a deadlock: every
        unfinished thread parked, with no progress, for ``deadlock_grace``.
        """
        timer = self._ckpt_timer
        deadline_at = self._deadline_at
        stall_start: Optional[float] = None
        last_progress = -1
        while True:
            timeout = self.poll_interval
            if timer is not None:
                timeout = min(timeout, timer.remaining())
            if deadline_at is not None:
                timeout = min(timeout, deadline_at - _wallclock.perf_counter())
            if self._settled.wait(max(timeout, 0.0)):
                return
            now = _wallclock.perf_counter()
            if deadline_at is not None and now >= deadline_at:
                self._fail(self._timeout_error(self._program))
                return
            if timer is not None and timer.due():
                try:
                    stalled = self._checkpoint_round()
                except Exception as failure:  # noqa: BLE001 - abort the run
                    self._fail(failure, "<checkpoint>")
                    return
            else:
                with self._unfinished_lock:
                    unfinished = self._unfinished
                with self._blocked_lock:
                    stalled = self._blocked_count >= unfinished
            progress = self._progress
            if progress != last_progress or not stalled:
                stall_start, last_progress = None, progress
            elif stall_start is None:
                stall_start = now
            elif now - stall_start >= self.deadlock_grace:
                # Dump the full stall report while every thread is still
                # parked on its recorded site: per-context state, the
                # parked-on channel, and both endpoint simulated clocks.
                report = self._stall_report()
                if self.obs is not None:
                    self.obs.stall_report = report
                self._fail(DeadlockError(report.lines()))
                return


class _ClusterDriver(SequentialExecutor):
    """One cold cluster on one thread, embedded in a threaded run.

    A shared-clock twin of the sequential superblock driver: member
    clocks carry the parent's advance hooks, so superblock turns run
    against scratch shadow cells and publish a single vectorized leap
    per turn — a monotone lower bound, exactly the SVA contract foreign
    ``ViewTime``/``WaitUntil`` observers rely on.  Bounded slices keep
    the parent's abort flag and progress counter live.  A planned cluster
    is a whole connected component, so no channel crosses its boundary:
    the one external dependency it can have is a foreign clock a member
    waits on.  Idling therefore parks on a wake event that those clocks'
    advance hooks set, instead of declaring deadlock — the parent
    supervisor owns that verdict.
    """

    name = "threaded-cluster"

    def __init__(self, parent: ThreadedExecutor):
        super().__init__(superblocks=parent.superblocks)
        self._parent = parent
        self._always_bounded = True
        # WaitUntil targets seen so far (possibly foreign contexts), so
        # idling can drain their waiters by object, not just by id.
        self._wu_targets: dict[int, Context] = {}
        self._idle_wake = threading.Event()

    def _run_slice(self, state, remaining) -> None:
        parent = self._parent
        if parent._abort.is_set():
            raise _Aborted
        before = self.ops_executed
        super()._run_slice(state, remaining)
        delta = self.ops_executed - before
        if delta:
            parent._progress += delta
            parent._ops_executed += delta

    def _h_wait_until(self, state, op):
        self._wu_targets[id(op.context)] = op.context
        return super()._h_wait_until(state, op)

    def _idle(self) -> bool:
        parent = self._parent
        if parent._abort.is_set():
            raise _Aborted
        blocked = [
            st for st in self._states.values() if st.status == 1  # _BLOCKED
        ]
        if not blocked:
            return False  # every member ran to completion
        # Subscribe to every clock a member waits on *before* draining,
        # so an advance landing in between still sets the wake event.
        wake = self._idle_wake
        wake.clear()
        syncs = [parent._time_sync[key] for key in self._time_waiters]
        for sync in syncs:
            with sync.cond:
                sync.waiter_count += 1
                sync.wakes.append(wake)
        try:
            # A foreign clock may have passed a member's WaitUntil threshold.
            if self._any_time_waiters:
                for target in list(self._wu_targets.values()):
                    self._drain_time_waiters(target)
                if self.policy:
                    return True
            # Genuinely idle: park the whole cluster until a subscribed
            # clock advances or the run aborts, each member's site
            # registered so the stall report and the supervisor's stall
            # check see the real blocking structure.
            sites: dict[str, tuple] = {}
            for st in blocked:
                op = st.retry_op
                channel = None
                if op is not None:
                    port = getattr(op, "sender", None) or getattr(
                        op, "receiver", None
                    )
                    if port is not None:
                        channel = port.channel
                sites[st.context.name] = (st.blocked_detail, channel, None)
            parent._parked(sites, wake)
        finally:
            for sync in syncs:
                with sync.cond:
                    sync.waiter_count -= 1
                    sync.wakes.remove(wake)
        return True
