"""Deterministic cooperative executor.

This executor runs a DAM program on a single OS thread by cooperatively
scheduling context generators.  It is *event-queue-free* in the paper's
sense: there is no ordered global event structure.  Instead it keeps a
ready queue of runnable contexts and, per channel, at most one blocked
sender and one blocked receiver; channel activity wakes the opposite
endpoint directly (the cooperative analog of the paper's pairwise
synchronization).

Because channel semantics are pure functions of simulated state
(:mod:`repro.core.channel`), the simulated results are identical to the
threaded executor's — only real execution order differs.  The sequential
executor is also the vehicle for the scheduling-policy study (Table I):
policies change the real interleaving and the switch counters, never the
simulated outcome.

Deadlock detection falls out naturally: if the ready queue empties while
unfinished contexts remain, the blocked set *is* the deadlock cycle and is
reported as a stall report naming each blocked context, the channel it is
parked on, and both endpoint clocks — the debugging story behind the
paper's undersized-channel observations.

Observability: attach a :class:`repro.obs.Observability` (``obs=``) to
record per-context trace buffers and fold run metrics.

Dispatch is a ``type(op) → bound handler`` table plus an *inline fast
path* (DESIGN.md §11): when tracing is off, no ``WaitUntil`` waiter is
registered, and no ``max_ops`` valve is set, the slice loop executes
enqueue/dequeue/IncrCycles — and :class:`~repro.core.ops.FusedOps`
batches of them — inline against the channels' flavor-specialized
methods, paying zero per-op tracing/waiter conditionals.  Every other
configuration (and every rare op) goes through the generic handlers,
which perform the identical semantic transitions with the bookkeeping
checks in place.
"""

from __future__ import annotations

import inspect as _inspect
import time as _wallclock
from typing import Any, Optional

from ...obs import Observability, fold_channel_metrics, fold_context_metrics
from ...obs.stall import StallReport, stall_for
from .. import checkpoint as _ckpt
from ..channel import _EMPTY, Channel
from ..context import Context
from ..errors import (
    ChannelClosed,
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
    Op,
    Peek,
    ViewTime,
    WaitUntil,
)
from ..program import Program
from ..time import TimeCell
from .base import Executor, RunSummary
from .registry import register_executor
from .policies import FifoPolicy, SchedulingPolicy, make_policy

_READY = 0
_BLOCKED = 1
_DONE = 2

#: When a deadline or fault plan forces bounded slices, this is the slice
#: length used where the policy does not set one: long enough that the
#: per-slice wall-clock check is noise, short enough that a deadline is
#: honoured within milliseconds.
_BOUNDED_TIMESLICE = 2048


class _DeadlineExpired(BaseException):
    """Internal control flow: the schedule loop hit ``deadline_s``.

    A ``BaseException`` so user ``except Exception`` clauses inside context
    bodies can never swallow it; converted to
    :class:`~repro.core.errors.RunTimeoutError` (with a partial summary
    attached) in :meth:`SequentialExecutor.execute`.
    """

#: Sentinel returned by :meth:`SequentialExecutor._fuse_fast` when the
#: batch parked mid-way (fused state saved on the context).
_PARKED = object()

#: Constituent kind codes in a compiled :class:`FusedOps` plan.
_K_DEQ = 0
_K_ENQ = 1
_K_INCR = 2
_K_OTHER = 3


def _compile_plan(subs):
    """Compile a fused batch into ``((kind, op, channel), ...)`` entries
    plus a reusable pre-sized results buffer.

    Resolving each constituent's class and channel binding once per
    *op object* (ops are pre-allocated and re-yielded by the hot
    generators) instead of once per *execution* keeps the inner loop of
    :meth:`SequentialExecutor._run_slice_fast` down to an unpack and an
    int compare before the open-coded transition.  The buffer is what
    the generator receives at the yield: Enqueue/IncrCycles slots stay
    ``None`` forever, Dequeue (and rare-op) slots are rewritten on every
    execution — which is why it can be reused without clearing, and why
    the delivered list is only valid until the batch's next execution.
    """
    entries = []
    for sub in subs:
        skind = sub.__class__
        if skind is Dequeue or skind is Enqueue:
            ch = (
                sub.receiver.channel
                if skind is Dequeue
                else sub.sender.channel
            )
            # The deques and stats objects are created once per channel
            # and only ever mutated in place (close_* uses .clear()), so
            # their identity can be latched here.  Shuttle proxies lack
            # one side's deque — they are code-2 (method path), so their
            # cached fields are never read.
            entries.append((
                _K_DEQ if skind is Dequeue else _K_ENQ,
                sub,
                ch,
                getattr(ch, "_data", None),
                getattr(ch, "_resps", None),
                ch.stats,
            ))
        elif skind is IncrCycles and sub.cycles >= 0:
            # The cycle count rides in the channel slot — constituents
            # are immutable once compiled (see FusedOps), so it can be
            # latched like the channel bindings above.
            entries.append((_K_INCR, sub, sub.cycles, None, None, None))
        else:
            # Rare constituents — including a (bogus) negative
            # IncrCycles, which the generic handler rejects with the
            # proper error.
            entries.append((_K_OTHER, sub, None, None, None, None))
    return tuple(entries), [None] * len(entries)


class _ContextState:
    """Executor-side bookkeeping for one context."""

    __slots__ = (
        "context",
        "gen",
        "status",
        "in_ready",
        "pending_value",
        "pending_exc",
        "retry_op",
        "blocked_detail",
        "buffer",
        "ops",
        "wall_seconds",
        "fused_ops",
        "fused_index",
        "fused_results",
        "fused_plan",
        "superblock",
        "sb_ready",
        "sb_cell",
        "sb_send",
    )

    def __init__(self, context: Context):
        self.context = context
        self.gen = context.run()
        self.status = _READY
        self.in_ready = False
        self.pending_value: Any = None
        self.pending_exc: BaseException | None = None
        # An op that blocked and must be re-attempted before resuming the
        # generator (its result is then delivered via pending_value).
        self.retry_op: Op | None = None
        self.blocked_detail: str = ""
        # Observability: per-context trace buffer and metric tallies.
        self.buffer: Any = None
        self.ops = 0
        self.wall_seconds = 0.0
        # Mid-fusion suspension: the constituent at ``fused_index``
        # blocked (``retry_op`` set) or had its result delivered by a
        # waker; ``fused_results`` holds the completed prefix.
        self.fused_ops: Any = None
        self.fused_index = 0
        self.fused_results: Any = None
        # The batch's compiled plan entries (fast path only), so the
        # resume runner can stay plan-based.
        self.fused_plan: Any = None
        # Superblock membership (DESIGN.md §15): the compiled cluster
        # driver, the local-ready-deque flag, and the scratch time cell
        # member turns run against (the real clock when it is a plain
        # TimeCell, a shadow cell published per turn otherwise).
        self.superblock: Any = None
        self.sb_ready = False
        self.sb_cell: Any = None
        self.sb_send: Any = None  # cached gen.send, bound at attach


@register_executor("sequential")
class SequentialExecutor(Executor):
    """Cooperative, single-threaded, deterministic executor.

    Parameters
    ----------
    policy:
        Ready-queue discipline: ``"fifo"`` (run-to-block, default) or
        ``"fair"`` (timesliced with wakeup boosting), or a
        :class:`~repro.core.executor.policies.SchedulingPolicy` instance.
    max_ops:
        Optional safety valve: abort with :class:`SimulationError` after
        this many operations (guards against runaway non-terminating
        programs in tests).
    obs:
        A :class:`repro.obs.Observability` collecting the run's trace
        and/or metrics.
    fast_path:
        When True (default) and the run is eligible (no tracing, no
        ``max_ops``, no registered ``WaitUntil`` waiter), slices run the
        inline fast loop.  Set False to force every op — including each
        :class:`FusedOps` constituent — through the generic handler
        table one at a time; the simulated results are identical by
        construction, which is what the equivalence tests assert.
    superblocks:
        Cluster compilation (DESIGN.md §15): ``"auto"`` (default)
        compiles the cold clusters observed traffic marks as live,
        ``"on"``/``True`` compiles every multi-member cluster,
        ``"off"``/``False``/``None`` disables.  Requires the fast path;
        simulated results are identical either way.
    """

    name = "sequential"

    def __init__(
        self,
        policy: str | SchedulingPolicy = "fifo",
        max_ops: Optional[int] = None,
        obs: Optional[Observability] = None,
        fast_path: bool = True,
        deadline_s: Optional[float] = None,
        faults=None,
        metrics_interval_s: Optional[float] = None,
        metrics_sink=None,
        superblocks: Any = "auto",
        checkpoint_interval_s: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
    ):
        self.policy = make_policy(policy)
        self.superblocks = superblocks
        self.max_ops = max_ops
        self.deadline_s = deadline_s
        self.faults = faults
        self.metrics_interval_s = metrics_interval_s
        self.metrics_sink = metrics_sink
        self.checkpoint_interval_s = checkpoint_interval_s
        self.checkpoint_path = checkpoint_path
        #: Live capture cadence (a CheckpointTimer) while a checkpointed
        #: run is executing; None otherwise.
        self._ckpt_timer: Any = None
        #: True while this run was restored from a checkpoint (suppresses
        #: superblock compilation, whose sb_* state is not capturable).
        self._resuming = False
        #: Context-fault triggers still pending, keyed by context name
        #: (populated per run from ``faults.context_faults``).
        self._fault_map: dict = {}
        self._deadline_at: Optional[float] = None
        self._bounded = False
        #: Subclass hook: process-executor workers set this so the
        #: schedule loop never takes the run-to-block FIFO branch — a
        #: worker must return from every slice to service its shuttles
        #: and observe the cross-process abort flag (a never-blocking
        #: context would otherwise spin one endless slice, deaf to both).
        self._always_bounded = False
        self.obs = obs
        self.fast_path = fast_path
        self.context_switches = 0
        self.wakeups = 0
        self.preemptions = 0
        self.ops_executed = 0
        # type(op) -> bound handler; replaces the historical if-elif
        # dispatch chain.  FusedOps/tuple/list appear only so a *nested*
        # batch fails loudly — top-level batches are unrolled by the
        # slice loops before dispatch.
        self._handlers = {
            Enqueue: self._h_enqueue,
            Dequeue: self._h_dequeue,
            Peek: self._h_peek,
            IncrCycles: self._h_incr_cycles,
            AdvanceTo: self._h_advance_to,
            ViewTime: self._h_view_time,
            WaitUntil: self._h_wait_until,
            FusedOps: self._h_nested_fusion,
            tuple: self._h_nested_fusion,
            list: self._h_nested_fusion,
        }
        self._any_time_waiters = False
        self._fast = False
        self._fast_capable = False

    # ------------------------------------------------------------------

    def execute(self, program: Program) -> RunSummary:
        start = _wallclock.perf_counter()
        # Kept under a dedicated name: worker subclasses already use
        # ``_program`` for the full shipped program while calling
        # ``execute`` with an empty one (they claim work lazily).
        self._run_program = program
        self._ckpt_timer = None
        if self.checkpoint_path is not None:
            _ckpt.validate_checkpointable(program)
            _ckpt.clean_stale_temps(self.checkpoint_path)
            interval = self.checkpoint_interval_s
            self._ckpt_timer = _ckpt.CheckpointTimer(
                0.0 if interval is None else interval,
                start_epoch=getattr(program, "_resume_epoch", 0),
            )
        resume_records = self._take_resume_records(program)
        self._resuming = resume_records is not None
        states = {id(ctx): _ContextState(ctx) for ctx in program.contexts}
        # Waiters on another context's clock: target id -> [(threshold, state)].
        self._time_waiters: dict[int, list[tuple[Any, _ContextState]]] = {}
        # Fast-path flag: most programs never use WaitUntil, so the per-op
        # waiter check is skipped entirely until one registers.
        self._any_time_waiters = False
        self._states = states

        obs = self.obs
        trace = obs.trace if obs is not None else None
        collect_wall = obs is not None and obs.metrics is not None
        if trace is not None:
            for state in states.values():
                state.buffer = trace.buffer(state.context.name)

        # Inline fast path eligibility is computed once; it only drops
        # (and later recovers) around registered WaitUntil waiters, so
        # the fast loop itself carries no tracing/waiter/max_ops checks.
        self._fast_capable = (
            self.fast_path and trace is None and self.max_ops is None
        )
        self._fast = self._fast_capable

        # Deadlines and context faults both need the loop to come up for
        # air: force bounded slices (run-to-block would otherwise let one
        # busy context starve the wall-clock check and the fault trigger).
        self._fault_map = (
            dict(self.faults.context_faults)
            if self.faults is not None and self.faults.context_faults
            else {}
        )
        self._deadline_at = (
            start + self.deadline_s if self.deadline_s is not None else None
        )
        self._bounded = (
            self._always_bounded
            or self._deadline_at is not None
            or bool(self._fault_map)
            # Checkpoint capture happens between bounded slices: the
            # run-to-block FIFO branch would let one busy context starve
            # the quiescent-cut opportunity for the whole run.
            or self._ckpt_timer is not None
        )
        if self._bounded and self.policy.timeslice is None:
            self.policy.timeslice = _BOUNDED_TIMESLICE

        if resume_records is not None:
            self._apply_resume_records(program, states, resume_records)

        self._compile_superblocks(program, states, collect_wall)

        policy = self.policy
        for ctx in program.contexts:
            policy.push(states[id(ctx)], woken=False)

        sampler = self._start_sampler(
            self.metrics_interval_s, self._sampler_probe(states), self.metrics_sink
        )
        try:
            self._schedule_loop(collect_wall)
            unfinished = [st for st in states.values() if st.status != _DONE]
            if unfinished:
                report = self._stall_report(unfinished)
                if obs is not None:
                    obs.stall_report = report
                raise DeadlockError(report.lines())
        except _DeadlineExpired:
            blocked = [st for st in states.values() if st.status == _BLOCKED]
            report = self._stall_report(blocked)
            if obs is not None:
                obs.stall_report = report
            raise RunTimeoutError(
                self.deadline_s,
                executor=self.name,
                summary=self._partial_summary(program, start),
                stall_report=report,
            ) from None
        finally:
            # On any abort (SimulationError, DeadlockError, max_ops), close
            # the generators of every context that did not run to completion
            # so their ``finally:`` blocks execute now, not at interpreter
            # shutdown (where GeneratorExit/ResourceWarning noise leaks into
            # test output).  Closing an exhausted generator is a no-op, so
            # the happy path pays one cheap call per context.
            self._close_generators(states)
            self._stop_sampler(sampler, obs)

        elapsed = self._makespan(program)
        summary = RunSummary(
            elapsed_cycles=elapsed,
            real_seconds=_wallclock.perf_counter() - start,
            context_times={
                ctx.name: ctx.finish_time for ctx in program.contexts
            },
            executor=self.name,
            policy=self.policy.name,
            context_switches=self.context_switches,
            wakeups=self.wakeups,
            preemptions=self.preemptions,
            ops_executed=self.ops_executed,
            metrics=self._fold_metrics(program, states),
        )
        self._attach_profile(summary, program, obs)
        return summary

    def _sampler_probe(self, states: dict[int, "_ContextState"]):
        """Build the read-only closure the live metrics sampler calls:
        context clocks, the op counter, and — when enabled — the metrics
        registry.  Reads only; it cannot perturb the simulated run."""
        obs = self.obs
        registry = obs.metrics if obs is not None else None

        def probe() -> dict:
            sample: dict = {
                "contexts": {
                    state.context.name: state.context.time.now()
                    for state in states.values()
                },
                "ops_executed": self.ops_executed,
            }
            if registry is not None:
                sample["metrics"] = registry.snapshot()
            return sample

        return probe

    def _compile_superblocks(
        self, program: Program, states: dict, collect_wall: bool
    ) -> int:
        """Attach cluster drivers (DESIGN.md §15) when this run can use
        them: the fast path must be available (superblock turns are the
        fast loop, across contexts) and no fault plan may target a
        context (fault triggers are checked at slice granularity by the
        generic scheduler).  ``"auto"`` additionally declines when
        per-context wall-clock metrics are being collected, since a
        whole superblock step would be attributed to its entry member;
        ``"on"`` forces compilation regardless.
        """
        from .superblock import compile_superblocks, normalize_mode

        mode = normalize_mode(self.superblocks)
        if mode == "off":
            return 0
        if not self._fast_capable or self._fault_map:
            return 0
        # Superblock sb_* scheduling state is not part of any context's
        # declared checkpoint attributes, so checkpointed (and resumed)
        # runs stay on the generic/fast per-context paths — results are
        # bit-identical either way by the §15 equivalence guarantee.
        if self._ckpt_timer is not None or self._resuming:
            return 0
        if mode == "auto" and collect_wall:
            return 0
        return compile_superblocks(self, program, states, mode)

    def _schedule_loop(self, collect_wall: bool) -> None:
        """Drain the ready queue; ask :meth:`_idle` for more work when it
        empties (subclass hook — the process executor's workers poll their
        cross-process shuttles there)."""
        policy = self.policy
        previous: _ContextState | None = None
        deadline_at = self._deadline_at
        ckpt_timer = self._ckpt_timer
        if (
            policy.__class__ is FifoPolicy
            and not collect_wall
            and not self._bounded
        ):
            # Run-to-block FIFO (the default): drive the raw deque
            # directly, skipping the per-slice __bool__/pop method calls
            # and the timeslice attribute load.
            queue = policy._queue
            run_slice = self._run_slice
            while True:
                while queue:
                    state = queue.popleft()
                    state.in_ready = False
                    if state.status != _READY:
                        continue
                    if previous is not None and state is not previous:
                        self.context_switches += 1
                    previous = state
                    run_slice(state, None)
                    if state.status == _READY:
                        self.preemptions += 1
                        policy.push(state, woken=False)
                if not self._idle():
                    return
        while True:
            while policy:
                state = policy.pop()
                if state.status != _READY:
                    continue
                if previous is not None and state is not previous:
                    self.context_switches += 1
                previous = state
                if collect_wall:
                    slice_start = _wallclock.perf_counter()
                    self._run_slice(state, policy.timeslice)
                    state.wall_seconds += _wallclock.perf_counter() - slice_start
                else:
                    self._run_slice(state, policy.timeslice)
                if deadline_at is not None and (
                    _wallclock.perf_counter() >= deadline_at
                ):
                    raise _DeadlineExpired
                if ckpt_timer is not None and ckpt_timer.due():
                    # Between slices every context's in-flight value has
                    # been written back to its state record and no op is
                    # mid-transition: a quiescent cut by construction.
                    self._capture_checkpoint()
                if state.status == _READY:
                    # Slice expired without blocking: preempted.
                    self.preemptions += 1
                    policy.push(state, woken=False)
            if not self._idle():
                return

    def _idle(self) -> bool:
        """Called when the ready queue empties; return True if new work may
        have arrived.  The purely local executor has no external event
        sources, so an empty queue is final (run complete or deadlocked)."""
        return False

    @staticmethod
    def _close_generators(states: dict[int, "_ContextState"]) -> None:
        for state in states.values():
            if state.status != _DONE:
                try:
                    state.gen.close()
                except Exception:  # noqa: BLE001 - cleanup must not mask the abort
                    pass

    # ------------------------------------------------------------------
    # Checkpoint capture and resume (DESIGN.md §17).
    # ------------------------------------------------------------------

    def _take_resume_records(self, program: Program):
        """Consume (one-shot) the resume records a checkpoint restore left
        on the program; subclasses that receive records another way (the
        process executor's forked workers) override this."""
        return program.__dict__.pop("_resume_records", None)

    def _context_record(self, state: _ContextState) -> dict:
        """Classify one context's suspension into a resume record."""
        ctx = state.context
        if state.status == _DONE:
            return _ckpt.record_done(ctx)
        if (
            state.retry_op is None
            and state.fused_ops is None
            and state.pending_exc is None
            and _inspect.getgeneratorstate(state.gen) == _inspect.GEN_CREATED
        ):
            # Truly unstarted.  The generator-state check is load-bearing:
            # a delivered Enqueue result is None, indistinguishable from
            # "never primed" by pending_value alone.
            return _ckpt.record_fresh(ctx)
        if state.fused_ops is not None:
            index = state.fused_index
            executed = state.retry_op is None
            return _ckpt.record_suspended(
                ctx,
                executed=executed,
                pending_value=state.pending_value if executed else None,
                pending_exc=state.pending_exc,
                fused_index=index,
                fused_prefix=list(state.fused_results[:index]),
                fused_len=len(state.fused_ops),
            )
        executed = state.retry_op is None
        return _ckpt.record_suspended(
            ctx,
            executed=executed,
            pending_value=state.pending_value if executed else None,
            pending_exc=state.pending_exc,
        )

    def _capture_checkpoint(self) -> None:
        """Snapshot the whole program at the current between-slices cut."""
        program = self._run_program
        states = self._states
        records = {
            slot: self._context_record(states[id(ctx)])
            for slot, ctx in enumerate(program.contexts)
        }
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

    def _apply_resume_records(
        self, program: Program, states: dict, records: dict
    ) -> None:
        """Start each context from its checkpointed suspension.

        Contexts restored as ``fresh`` — and those parked on an
        *un-executed* simple op — need no machinery at all: the fresh
        generator re-derives the suspended yield from the restored
        attributes and the scheduler primes and (re-)attempts it
        naturally.  Executed suspensions prime the generator here,
        discard the re-derived first yield, and inject the recorded
        result; fused suspensions additionally rebuild the mid-batch
        bookkeeping that :meth:`_resume_pending` already knows how to
        finish (``fused_plan=None`` routes it through the generic
        :meth:`_run_fusion`).
        """
        for slot, ctx in enumerate(program.contexts):
            record = records.get(slot)
            if record is None:
                continue
            self._apply_one_resume_record(ctx, states[id(ctx)], record)

    def _apply_one_resume_record(self, ctx, state, record: dict) -> None:
        """Rebuild one context's scheduler bookkeeping from its record
        (shared with the process executor's lazy cluster activation)."""
        kind = record["kind"]
        if kind == "done":
            state.status = _DONE
            return
        if kind == "fresh":
            return
        executed = record["executed"]
        fused_index = record.get("fused_index")
        if fused_index is None and not executed:
            return  # plain re-derive + re-attempt
        try:
            first_op = state.gen.send(None)
        except BaseException as failure:  # noqa: BLE001 - contract breach
            raise SimulationError(
                ctx.name,
                RuntimeError(
                    "context did not re-derive its suspended yield on "
                    f"resume (resumable-state contract breach): {failure!r}"
                ),
            ) from failure
        packed = record.get("pending_exc")
        pending_exc = unpack_exception(packed) if packed is not None else None
        if fused_index is None:
            # Simple executed op: deliver the recorded outcome at the
            # (discarded) re-derived yield.
            state.pending_value = record["pending_value"]
            state.pending_exc = pending_exc
            return
        ops_seq = first_op.ops if first_op.__class__ is FusedOps else first_op
        if not isinstance(ops_seq, (tuple, list)):
            raise SimulationError(
                ctx.name,
                RuntimeError(
                    "resumed context yielded a non-fused op where the "
                    f"checkpoint recorded a fused batch: {first_op!r}"
                ),
            )
        results = list(record["fused_prefix"])
        results.extend([None] * (record["fused_len"] - len(results)))
        state.fused_ops = ops_seq
        state.fused_index = fused_index
        state.fused_results = results
        state.fused_plan = None  # forces the generic _run_fusion path
        if executed:
            state.pending_value = record["pending_value"]
            state.pending_exc = pending_exc
        else:
            state.retry_op = ops_seq[fused_index]

    # ------------------------------------------------------------------

    def _partial_summary(self, program: Program, start: float) -> RunSummary:
        """Best-effort summary for an aborted run: finish times where a
        context completed, current (lower-bound) clocks elsewhere."""
        return RunSummary(
            elapsed_cycles=self._makespan(program),
            real_seconds=_wallclock.perf_counter() - start,
            context_times={
                ctx.name: (
                    ctx.finish_time
                    if ctx.finish_time is not None
                    else ctx.time.now()
                )
                for ctx in program.contexts
            },
            executor=self.name,
            policy=self.policy.name,
            context_switches=self.context_switches,
            wakeups=self.wakeups,
            preemptions=self.preemptions,
            ops_executed=self.ops_executed,
        )

    def _stall_report(self, unfinished: list[_ContextState]) -> StallReport:
        """Diagnose the blocked set: who is parked, on which channel, and
        at what simulated time each endpoint sits."""
        stalls = []
        for state in unfinished:
            op = state.retry_op
            channel = peer = None
            if isinstance(op, Enqueue):
                channel = op.sender.channel
            elif isinstance(op, (Dequeue, Peek)):
                channel = op.receiver.channel
            elif isinstance(op, WaitUntil):
                peer = op.context
            stalls.append(
                stall_for(
                    state.context,
                    state.blocked_detail or "not started",
                    channel=channel,
                    peer=peer,
                )
            )
        return StallReport(stalls)

    def _fold_metrics(
        self, program: Program, states: dict[int, _ContextState]
    ) -> Optional[dict]:
        if self.obs is None or self.obs.metrics is None:
            return None
        registry = self.obs.metrics
        fold_channel_metrics(registry, program.channels)
        for state in states.values():
            ctx = state.context
            fold_context_metrics(
                registry,
                ctx.name,
                ops=state.ops,
                finish_time=ctx.finish_time,
                wall_seconds=state.wall_seconds,
            )
        registry.counter("executor_context_switches").inc(self.context_switches)
        registry.counter("executor_wakeups").inc(self.wakeups)
        registry.counter("executor_preemptions").inc(self.preemptions)
        registry.counter("executor_ops").inc(self.ops_executed)
        return registry.snapshot()

    # ------------------------------------------------------------------

    def _run_slice(self, state: _ContextState, timeslice: Optional[int]) -> None:
        """Run one context until it blocks, finishes, or exhausts its slice."""
        remaining = timeslice if timeslice is not None else -1

        # Fault injection (chaos testing): once the victim context's op
        # counter passes the trigger, abandon whatever it was parked on and
        # throw FaultInjected into its generator at the next resume.  The
        # trigger is evaluated at slice granularity — bounded slices are
        # forced whenever a fault plan is present, so it fires promptly.
        if self._fault_map:
            fault = self._fault_map.get(state.context.name)
            if fault is not None and state.ops >= fault.after_ops:
                del self._fault_map[state.context.name]
                state.retry_op = None
                state.fused_ops = None
                state.fused_results = None
                state.fused_plan = None
                state.pending_value = None
                state.pending_exc = fault.make()

        # Superblock member: hand the whole slice to the cluster driver
        # (which performs its own resume handling and budget accounting).
        # Falls through to the generic path whenever the fast path is
        # unavailable — e.g. while a WaitUntil waiter is registered.
        if state.superblock is not None and self._fast:
            state.superblock.drive(self, state, remaining)
            return

        # A context woken from a blocking op must first complete that op
        # (re-attempt it, or — if a waker delivered the result directly —
        # just resume) and, if the op was a FusedOps constituent, finish
        # the rest of the batch.
        if state.retry_op is not None or state.fused_ops is not None:
            if not self._resume_pending(state):
                return  # blocked again
            if state.status == _DONE:
                return

        if self._fast:
            self._run_slice_fast(state, remaining)
        else:
            self._run_slice_generic(state, remaining)

    def _resume_pending(self, state: _ContextState) -> bool:
        """Complete the op a woken context was parked on; return False if
        it (or a later constituent of its fused batch) blocks again."""
        op = state.retry_op
        if op is not None:
            state.retry_op = None
            if not self._dispatch(state, op):
                return False  # blocked again; fused state (if any) kept
        if state.fused_ops is None:
            return True
        # Mid-fusion: the constituent at fused_index just completed (via
        # the retry above, or its result was delivered by a waker into
        # pending_value).  Collect it and run the rest of the batch.
        ops_seq = state.fused_ops
        index = state.fused_index
        results = state.fused_results
        entries = state.fused_plan
        state.fused_ops = None
        state.fused_results = None
        state.fused_plan = None
        if state.pending_exc is not None:
            return True  # batch abandoned; exception thrown at the yield
        results[index] = state.pending_value
        if index + 1 == len(ops_seq):
            # Parked on the *last* constituent — the common case for the
            # canonical (enqueue..., tick, dequeue) kits: the batch is
            # already complete, deliver the results without re-entering
            # a fusion runner.
            state.pending_value = results
            return True
        state.pending_value = None
        if self._fast and entries is not None:
            clock = state.context.time
            plain = clock.__class__ is TimeCell and clock.on_advance is None
            outcome = self._fuse_fast(
                state, clock, plain, ops_seq, entries, index + 1, results
            )
            if outcome is _PARKED:
                return False
            if outcome.__class__ is list:
                state.pending_value = outcome
            else:
                state.pending_exc = outcome
            return True
        return self._run_fusion(state, ops_seq, index + 1, results)

    def _run_fusion(self, state, ops_seq, index: int, results: list) -> bool:
        """Execute fused constituents ``ops_seq[index:]`` through the
        generic handlers, writing each result into the pre-sized
        ``results`` list; return False (parking mid-batch) on a block."""
        total = len(ops_seq)
        max_ops = self.max_ops
        while index < total:
            sub = ops_seq[index]
            self.ops_executed += 1
            state.ops += 1
            if max_ops is not None and self.ops_executed > max_ops:
                raise SimulationError(
                    state.context.name,
                    RuntimeError(f"exceeded max_ops={max_ops}"),
                )
            if not self._dispatch(state, sub):
                state.fused_ops = ops_seq
                state.fused_index = index
                state.fused_results = results
                return False
            if state.pending_exc is not None:
                return True  # e.g. ChannelClosed: abandon the batch
            results[index] = state.pending_value
            state.pending_value = None
            index += 1
        state.pending_value = results
        return True

    def _run_slice_generic(
        self, state: _ContextState, remaining: int
    ) -> None:
        """Reference slice loop: every op through the handler table, with
        tracing, time-waiter, and max_ops bookkeeping in place."""
        gen_send = state.gen.send
        gen_throw = state.gen.throw
        ctx = state.context
        max_ops = self.max_ops
        while remaining != 0:
            remaining -= 1
            try:
                if state.pending_exc is not None:
                    exc = state.pending_exc
                    state.pending_exc = None
                    op = gen_throw(exc)
                else:
                    value = state.pending_value
                    state.pending_value = None
                    op = gen_send(value)
            except StopIteration:
                self._finish(state)
                return
            except ChannelClosed:
                # An uncaught ChannelClosed is graceful wind-down.
                self._finish(state)
                return
            except DeadlockError:
                raise
            except BaseException as failure:  # noqa: BLE001 - reported faithfully
                self._finish(state)
                raise SimulationError(ctx.name, failure) from failure

            kind = op.__class__
            if kind is FusedOps:
                if not self._run_fusion(
                    state, op.ops, 0, [None] * len(op.ops)
                ):
                    return  # blocked mid-batch
                continue
            if kind is tuple or kind is list:
                if not self._run_fusion(state, op, 0, [None] * len(op)):
                    return
                continue
            self.ops_executed += 1
            state.ops += 1
            if max_ops is not None and self.ops_executed > max_ops:
                raise SimulationError(
                    ctx.name,
                    RuntimeError(f"exceeded max_ops={max_ops}"),
                )
            if not self._dispatch(state, op):
                return  # blocked
            if state.status == _DONE:
                return

    def _run_slice_fast(self, state: _ContextState, remaining: int) -> None:
        """Inline fast loop (DESIGN.md §11).

        Eligible only when tracing is off, ``max_ops`` is unset, and no
        WaitUntil waiter is registered — which is what lets the hot ops
        (enqueue/dequeue/IncrCycles and FusedOps batches of them) run
        against the channels' flavor-specialized transitions with zero
        per-op bookkeeping conditionals.  This body is additionally
        specialized for the common clock shape — a plain
        :class:`TimeCell` with no ``on_advance`` hook (always, under the
        purely local executor): the common channel flavors — keyed by
        the channels' ``_enq_code`` / ``_deq_code`` mirrors — are
        open-coded, and the simulated time lives in the local ``now``
        for the whole slice, written back to ``clock._time`` wherever
        the world can observe it (generator resumes, method-path
        fallbacks, slice exits) and reloaded after any call that may
        advance it.  Process-executor workers carry ``SharedTimeCell``
        clocks and take :meth:`_run_slice_fast_shared`, the method-path
        twin whose flavors perform the identical transitions.  Results
        flow through locals; ``state.pending_*`` is written back only
        when the slice ends non-terminally.  Rare ops fall through to
        the generic handlers, which keep the invariant: a WaitUntil
        that registers a waiter blocks, ending the slice, so a fast
        slice never runs with a waiter present.
        """
        ctx = state.context
        clock = ctx.time
        if clock.__class__ is not TimeCell or clock.on_advance is not None:
            self._run_slice_fast_shared(state, remaining)
            return
        gen_send = state.gen.send
        gen_throw = state.gen.throw
        wake_sender = self._wake_send_deliver
        wake_receiver = self._wake_recv_deliver
        now = clock._time
        value = state.pending_value
        exc = state.pending_exc
        state.pending_value = None
        state.pending_exc = None
        executed = 0
        try:
            while remaining != 0:
                remaining -= 1
                clock._time = now  # visible to the context body
                try:
                    if exc is not None:
                        op = gen_throw(exc)
                        exc = None
                    else:
                        op = gen_send(value)
                        value = None
                except StopIteration:
                    self._finish(state)
                    return
                except ChannelClosed:
                    self._finish(state)
                    return
                except DeadlockError:
                    raise
                except BaseException as failure:  # noqa: BLE001
                    self._finish(state)
                    raise SimulationError(ctx.name, failure) from failure
                now = clock._time

                kind = op.__class__
                if kind is tuple or kind is list:
                    # Cold: ad-hoc batches are normalized so the hot
                    # branch below compiles and caches a plan per batch
                    # object (throwaway here, latched for FusedOps).
                    op = FusedOps(*op)
                    kind = FusedOps
                if kind is FusedOps:
                    # Mirrors _fuse_fast (the resume-path copy); kept
                    # inline here because this is the hottest loop in the
                    # simulator and a per-yield method call is measurable.
                    plan = op.plan
                    if plan is None:
                        plan = op.plan = _compile_plan(op.ops)
                    entries, buf = plan
                    index = 0
                    parked = False
                    for scode, sub, channel, data_q, resps, stats in (
                        entries
                    ):
                        if scode == 0:  # Dequeue
                            if channel._deq_code != 2:
                                if data_q:
                                    stamp, result = data_q.popleft()
                                    if stamp > now:
                                        now = stamp
                                    stats.dequeues += 1
                                    if channel._deq_code == 1:
                                        resps.append(
                                            now + channel.resp_latency
                                        )
                                else:
                                    result = _EMPTY
                            else:
                                clock._time = now
                                result = channel.fast_dequeue(clock)
                                now = clock._time
                            if result is not _EMPTY:
                                waiter = channel.waiting_sender
                                if waiter is not None:
                                    channel.waiting_sender = None
                                    wake_sender(channel, waiter)
                                buf[index] = result
                            elif channel.closed_for_receiver:
                                exc = ChannelClosed(channel.name)
                                break  # abandon the batch
                            else:
                                self._block(
                                    state, sub, channel._park_deq_msg
                                )
                                channel.waiting_receiver = state
                                parked = True
                                break
                        elif scode == 1:  # Enqueue
                            code = channel._enq_code
                            if code == 1:
                                delta = channel._delta
                                capacity = channel.capacity
                                if delta >= capacity:
                                    # Full window: drain responses
                                    # (each advances the sender clock —
                                    # the backpressure timeline).
                                    while delta >= capacity and resps:
                                        release = resps.popleft()
                                        if release > now:
                                            now = release
                                        delta -= 1
                                    channel._delta = delta
                                if delta < capacity:
                                    stats.enqueues += 1
                                    data_q.append(
                                        (now + channel.latency, sub.data)
                                    )
                                    channel._delta = delta + 1
                                    occ = len(data_q)
                                    if occ > stats.max_real_occupancy:
                                        stats.max_real_occupancy = occ
                                    ok = True
                                else:
                                    ok = False
                            elif code == 0:
                                stats.enqueues += 1
                                data_q.append(
                                    (now + channel.latency, sub.data)
                                )
                                occ = len(data_q)
                                if occ > stats.max_real_occupancy:
                                    stats.max_real_occupancy = occ
                                ok = True
                            else:
                                clock._time = now
                                ok = channel.try_enqueue(clock, sub.data)
                                now = clock._time
                            if not ok:
                                self._block(
                                    state, sub, channel._park_enq_msg
                                )
                                channel.waiting_sender = state
                                parked = True
                                break
                            waiter = channel.waiting_receiver
                            if waiter is not None:
                                channel.waiting_receiver = None
                                wake_receiver(channel, waiter)
                        elif scode == 2:
                            # IncrCycles: latched count rides in the
                            # channel slot.
                            if channel:
                                now += channel
                        else:
                            # Rare constituent: generic handler (raises
                            # on a nested batch).
                            clock._time = now
                            if not self._dispatch(state, sub):
                                now = clock._time
                                parked = True
                                break
                            now = clock._time
                            if state.pending_exc is not None:
                                exc = state.pending_exc
                                state.pending_exc = None
                                break
                            buf[index] = state.pending_value
                            state.pending_value = None
                        index += 1
                    else:
                        # Batch complete.  Deliver the plan's reused
                        # results buffer: dequeue (and rare-op) slots
                        # were just written, enqueue and IncrCycles
                        # slots are permanently None.
                        executed += index
                        value = buf
                        continue
                    if parked:
                        # The parked constituent counts (first attempt).
                        clock._time = now
                        executed += index + 1
                        state.fused_ops = op.ops
                        state.fused_index = index
                        state.fused_results = buf
                        state.fused_plan = entries
                        return
                    executed += index + 1
                    continue

                executed += 1
                if kind is Dequeue:
                    channel = op.receiver.channel
                    if channel._deq_code != 2:
                        data_q = channel._data
                        if data_q:
                            stamp, value = data_q.popleft()
                            if stamp > now:
                                now = stamp
                            channel.stats.dequeues += 1
                            if channel._deq_code == 1:
                                channel._resps.append(
                                    now + channel.resp_latency
                                )
                            waiter = channel.waiting_sender
                            if waiter is not None:
                                channel.waiting_sender = None
                                wake_sender(channel, waiter)
                            continue
                        value = None
                    else:
                        clock._time = now
                        result = channel.fast_dequeue(clock)
                        now = clock._time
                        if result is not _EMPTY:
                            value = result
                            waiter = channel.waiting_sender
                            if waiter is not None:
                                channel.waiting_sender = None
                                wake_sender(channel, waiter)
                            continue
                    if channel.closed_for_receiver:
                        exc = ChannelClosed(channel.name)
                        continue
                    clock._time = now
                    self._block(state, op, channel._park_deq_msg)
                    channel.waiting_receiver = state
                    return

                if kind is Enqueue:
                    channel = op.sender.channel
                    code = channel._enq_code
                    if code == 1:
                        delta = channel._delta
                        capacity = channel.capacity
                        if delta >= capacity:
                            resps = channel._resps
                            while delta >= capacity and resps:
                                release = resps.popleft()
                                if release > now:
                                    now = release
                                delta -= 1
                            channel._delta = delta
                        if delta < capacity:
                            stats = channel.stats
                            stats.enqueues += 1
                            data_q = channel._data
                            data_q.append((now + channel.latency, op.data))
                            channel._delta = delta + 1
                            occ = len(data_q)
                            if occ > stats.max_real_occupancy:
                                stats.max_real_occupancy = occ
                            ok = True
                        else:
                            ok = False
                    elif code == 0:
                        stats = channel.stats
                        stats.enqueues += 1
                        data_q = channel._data
                        data_q.append((now + channel.latency, op.data))
                        occ = len(data_q)
                        if occ > stats.max_real_occupancy:
                            stats.max_real_occupancy = occ
                        ok = True
                    else:
                        clock._time = now
                        ok = channel.try_enqueue(clock, op.data)
                        now = clock._time
                    if not ok:
                        clock._time = now
                        self._block(state, op, channel._park_enq_msg)
                        channel.waiting_sender = state
                        return
                    waiter = channel.waiting_receiver
                    if waiter is not None:
                        channel.waiting_receiver = None
                        wake_receiver(channel, waiter)
                    continue

                if kind is IncrCycles:
                    cycles = op.cycles
                    if cycles >= 0:
                        now += cycles
                    else:
                        clock._time = now
                        clock.incr(cycles)
                        now = clock._time
                    continue

                # Rare op: Peek/AdvanceTo/ViewTime/WaitUntil (or a junk
                # yield) through the generic handler table.
                clock._time = now
                if not self._dispatch(state, op):
                    return  # blocked
                now = clock._time
                value = state.pending_value
                state.pending_value = None
                if state.pending_exc is not None:
                    exc = state.pending_exc
                    state.pending_exc = None
            # Slice expired: hand the in-flight result back to state.
            clock._time = now
            state.pending_value = value
            state.pending_exc = exc
        finally:
            self.ops_executed += executed
            state.ops += executed

    def _run_slice_fast_shared(
        self, state: _ContextState, remaining: int
    ) -> None:
        """Method-path twin of :meth:`_run_slice_fast` for worker clocks
        (``SharedTimeCell`` / ``on_advance`` hooks): the same inline
        loop, handler fallbacks, and fused-batch plans, with every
        time-touching transition going through the channel flavor
        methods and ``clock.incr`` so shared time cells publish each
        advance.  Kept separate so the plain-clock body can hold the
        simulated time in a local.
        """
        gen_send = state.gen.send
        gen_throw = state.gen.throw
        ctx = state.context
        clock = ctx.time
        wake_sender = self._wake_send_deliver
        wake_receiver = self._wake_recv_deliver
        value = state.pending_value
        exc = state.pending_exc
        state.pending_value = None
        state.pending_exc = None
        executed = 0
        try:
            while remaining != 0:
                remaining -= 1
                try:
                    if exc is not None:
                        op = gen_throw(exc)
                        exc = None
                    else:
                        op = gen_send(value)
                        value = None
                except StopIteration:
                    self._finish(state)
                    return
                except ChannelClosed:
                    self._finish(state)
                    return
                except DeadlockError:
                    raise
                except BaseException as failure:  # noqa: BLE001
                    self._finish(state)
                    raise SimulationError(ctx.name, failure) from failure

                kind = op.__class__
                if kind is tuple or kind is list:
                    op = FusedOps(*op)
                    kind = FusedOps
                if kind is FusedOps:
                    plan = op.plan
                    if plan is None:
                        plan = op.plan = _compile_plan(op.ops)
                    entries, buf = plan
                    index = 0
                    parked = False
                    for scode, sub, channel, data_q, resps, stats in (
                        entries
                    ):
                        if scode == 0:  # Dequeue
                            result = channel.fast_dequeue(clock)
                            if result is not _EMPTY:
                                waiter = channel.waiting_sender
                                if waiter is not None:
                                    channel.waiting_sender = None
                                    wake_sender(channel, waiter)
                                buf[index] = result
                            elif channel.closed_for_receiver:
                                exc = ChannelClosed(channel.name)
                                break  # abandon the batch
                            else:
                                self._block(
                                    state, sub, channel._park_deq_msg
                                )
                                channel.waiting_receiver = state
                                parked = True
                                break
                        elif scode == 1:  # Enqueue
                            if channel.try_enqueue(clock, sub.data):
                                waiter = channel.waiting_receiver
                                if waiter is not None:
                                    channel.waiting_receiver = None
                                    wake_receiver(channel, waiter)
                            else:
                                self._block(
                                    state, sub, channel._park_enq_msg
                                )
                                channel.waiting_sender = state
                                parked = True
                                break
                        elif scode == 2:
                            # IncrCycles: latched count rides in the
                            # channel slot.
                            clock.incr(channel)
                        else:
                            if not self._dispatch(state, sub):
                                parked = True
                                break
                            if state.pending_exc is not None:
                                exc = state.pending_exc
                                state.pending_exc = None
                                break
                            buf[index] = state.pending_value
                            state.pending_value = None
                        index += 1
                    else:
                        executed += index
                        value = buf
                        continue
                    if parked:
                        executed += index + 1
                        state.fused_ops = op.ops
                        state.fused_index = index
                        state.fused_results = buf
                        state.fused_plan = entries
                        return
                    executed += index + 1
                    continue

                executed += 1
                if kind is Dequeue:
                    channel = op.receiver.channel
                    result = channel.fast_dequeue(clock)
                    if result is not _EMPTY:
                        value = result
                        waiter = channel.waiting_sender
                        if waiter is not None:
                            channel.waiting_sender = None
                            wake_sender(channel, waiter)
                        continue
                    if channel.closed_for_receiver:
                        exc = ChannelClosed(channel.name)
                        continue
                    self._block(state, op, channel._park_deq_msg)
                    channel.waiting_receiver = state
                    return

                if kind is Enqueue:
                    channel = op.sender.channel
                    if channel.try_enqueue(clock, op.data):
                        waiter = channel.waiting_receiver
                        if waiter is not None:
                            channel.waiting_receiver = None
                            wake_receiver(channel, waiter)
                        continue
                    self._block(state, op, channel._park_enq_msg)
                    channel.waiting_sender = state
                    return

                if kind is IncrCycles:
                    clock.incr(op.cycles)
                    continue

                if not self._dispatch(state, op):
                    return  # blocked
                value = state.pending_value
                state.pending_value = None
                if state.pending_exc is not None:
                    exc = state.pending_exc
                    state.pending_exc = None
            state.pending_value = value
            state.pending_exc = exc
        finally:
            self.ops_executed += executed
            state.ops += executed

    def _fuse_fast(
        self,
        state: _ContextState,
        clock,
        plain: bool,
        ops_seq,
        entries,
        index: int,
        results: list,
    ):
        """Plan-based fused-batch runner for the post-park resume path.
        Executes the compiled ``entries[index:]``, writing each
        constituent's result into the pre-sized ``results`` list, and
        returns the completed results list, an exception to throw at the
        yield (abandoning the batch), or :data:`_PARKED` after saving
        the fused state on ``state``.  Op accounting matches the generic
        path: every *attempted* constituent counts once, including the
        one that parked or raised (retries after a park do not
        re-count).
        """
        wake_sender = self._wake_send_deliver
        wake_receiver = self._wake_recv_deliver
        total = len(entries)
        start = index
        exc = None
        while index < total:
            scode, sub, channel, data_q, resps, stats = entries[index]
            if scode == 0:  # Dequeue
                if plain and channel._deq_code != 2:
                    if data_q:
                        stamp, result = data_q.popleft()
                        if stamp > clock._time:
                            clock._time = stamp
                        stats.dequeues += 1
                        if channel._deq_code == 1:
                            resps.append(
                                clock._time + channel.resp_latency
                            )
                    else:
                        result = _EMPTY
                else:
                    result = channel.fast_dequeue(clock)
                if result is not _EMPTY:
                    waiter = channel.waiting_sender
                    if waiter is not None:
                        channel.waiting_sender = None
                        wake_sender(channel, waiter)
                    results[index] = result
                elif channel.closed_for_receiver:
                    exc = ChannelClosed(channel.name)
                    break  # abandon the batch
                else:
                    self._block(state, sub, channel._park_deq_msg)
                    channel.waiting_receiver = state
                    state.fused_ops = ops_seq
                    state.fused_index = index
                    state.fused_results = results
                    state.fused_plan = entries
                    attempted = index - start + 1
                    self.ops_executed += attempted
                    state.ops += attempted
                    return _PARKED
            elif scode == 1:  # Enqueue
                code = channel._enq_code if plain else 2
                if code == 1:
                    delta = channel._delta
                    capacity = channel.capacity
                    if delta >= capacity:
                        stamp = clock._time
                        while delta >= capacity and resps:
                            release = resps.popleft()
                            if release > stamp:
                                stamp = release
                            delta -= 1
                        clock._time = stamp
                        channel._delta = delta
                    if delta < capacity:
                        stats.enqueues += 1
                        data_q.append(
                            (clock._time + channel.latency, sub.data)
                        )
                        channel._delta = delta + 1
                        occ = len(data_q)
                        if occ > stats.max_real_occupancy:
                            stats.max_real_occupancy = occ
                        ok = True
                    else:
                        ok = False
                elif code == 0:
                    stats.enqueues += 1
                    data_q.append((clock._time + channel.latency, sub.data))
                    occ = len(data_q)
                    if occ > stats.max_real_occupancy:
                        stats.max_real_occupancy = occ
                    ok = True
                else:
                    ok = channel.try_enqueue(clock, sub.data)
                if not ok:
                    self._block(state, sub, channel._park_enq_msg)
                    channel.waiting_sender = state
                    state.fused_ops = ops_seq
                    state.fused_index = index
                    state.fused_results = results
                    state.fused_plan = entries
                    attempted = index - start + 1
                    self.ops_executed += attempted
                    state.ops += attempted
                    return _PARKED
                waiter = channel.waiting_receiver
                if waiter is not None:
                    channel.waiting_receiver = None
                    wake_receiver(channel, waiter)
            elif scode == 2:
                # IncrCycles: latched count rides in the channel slot.
                if plain:
                    if channel:
                        clock._time += channel
                else:
                    clock.incr(channel)
            else:
                # Rare constituent: generic handler (raises on a nested
                # FusedOps/tuple/list).
                if not self._dispatch(state, sub):
                    state.fused_ops = ops_seq
                    state.fused_index = index
                    state.fused_results = results
                    state.fused_plan = entries
                    attempted = index - start + 1
                    self.ops_executed += attempted
                    state.ops += attempted
                    return _PARKED
                if state.pending_exc is not None:
                    exc = state.pending_exc
                    state.pending_exc = None
                    break
                results[index] = state.pending_value
                state.pending_value = None
            index += 1
        if exc is None:
            attempted = total - start
            self.ops_executed += attempted
            state.ops += attempted
            return results
        attempted = index - start + 1
        self.ops_executed += attempted
        state.ops += attempted
        return exc

    def _dispatch(self, state: _ContextState, op: Op) -> bool:
        """Attempt ``op`` via its handler; return False (and park the
        context) if it blocks."""
        handler = self._handlers.get(op.__class__)
        if handler is None:
            raise SimulationError(
                state.context.name,
                TypeError(f"context yielded a non-op value: {op!r}"),
            )
        return handler(state, op)

    # --- generic op handlers ------------------------------------------
    # Each performs the identical semantic transition the fast loop
    # inlines, plus the bookkeeping (tracing, time-waiter drain) that
    # the fast loop's eligibility rules make unnecessary there.

    def _h_enqueue(self, state: _ContextState, op) -> bool:
        clock = state.context.time
        channel = op.sender.channel
        if channel.try_enqueue(clock, op.data):
            state.pending_value = None
            waiter = channel.waiting_receiver
            if waiter is not None:
                channel.waiting_receiver = None
                self._wake(waiter)
            if self._any_time_waiters:
                self._drain_time_waiters(state.context)
            if state.buffer is not None:
                state.buffer.append(
                    "enqueue", channel.name, clock.now(), op.data
                )
            return True
        self._block(state, op, channel._park_enq_msg)
        channel.waiting_sender = state
        return False

    def _h_dequeue(self, state: _ContextState, op) -> bool:
        clock = state.context.time
        channel = op.receiver.channel
        result = channel.fast_dequeue(clock)
        if result is not _EMPTY:
            state.pending_value = result
            waiter = channel.waiting_sender
            if waiter is not None:
                channel.waiting_sender = None
                self._wake(waiter)
            if self._any_time_waiters:
                self._drain_time_waiters(state.context)
            if state.buffer is not None:
                state.buffer.append(
                    "dequeue", channel.name, clock.now(), result
                )
            return True
        if channel.closed_for_receiver:
            state.pending_exc = ChannelClosed(channel.name)
            return True
        self._block(state, op, channel._park_deq_msg)
        channel.waiting_receiver = state
        return False

    def _h_peek(self, state: _ContextState, op) -> bool:
        clock = state.context.time
        channel = op.receiver.channel
        if channel.can_dequeue():
            state.pending_value = channel.do_peek(clock)
            if self._any_time_waiters:
                self._drain_time_waiters(state.context)
            if state.buffer is not None:
                state.buffer.append(
                    "peek", channel.name, clock.now(), state.pending_value
                )
            return True
        if channel.closed_for_receiver:
            state.pending_exc = ChannelClosed(channel.name)
            return True
        self._block(state, op, f"peek on empty {channel.name}")
        channel.waiting_receiver = state
        return False

    def _h_incr_cycles(self, state: _ContextState, op) -> bool:
        clock = state.context.time
        clock.incr(op.cycles)
        state.pending_value = None
        if self._any_time_waiters:
            self._drain_time_waiters(state.context)
        if state.buffer is not None:
            state.buffer.append("advance", None, clock.now())
        return True

    def _h_advance_to(self, state: _ContextState, op) -> bool:
        clock = state.context.time
        clock.advance(op.time)
        state.pending_value = None
        if self._any_time_waiters:
            self._drain_time_waiters(state.context)
        if state.buffer is not None:
            state.buffer.append("advance", None, clock.now())
        return True

    def _h_view_time(self, state: _ContextState, op) -> bool:
        state.pending_value = op.context.time.now()
        return True

    def _h_wait_until(self, state: _ContextState, op) -> bool:
        target = op.context
        if target.time.now() >= op.time:
            state.pending_value = target.time.now()
            return True
        self._block(state, op, f"wait-until {op.time} on {target.name}")
        self._time_waiters.setdefault(id(target), []).append((op.time, state))
        self._any_time_waiters = True
        # A registered waiter must be drained on every clock advance, so
        # subsequent slices take the generic loop until it clears.
        self._fast = False
        return False

    def _h_nested_fusion(self, state: _ContextState, op) -> bool:
        raise SimulationError(
            state.context.name,
            TypeError(
                "FusedOps (or a tuple/list of ops) cannot be nested "
                f"inside another fused batch: {op!r}"
            ),
        )

    # ------------------------------------------------------------------

    # --- wake-with-delivery (fast path only) --------------------------
    # A simulated op's result is a pure function of simulated state, so
    # *who executes it* cannot change it: when a fast-path op unblocks a
    # parked counterpart, the waker completes the parked Dequeue/Enqueue
    # on the waiter's behalf (against the *waiter's* clock) and clears
    # ``retry_op`` — the woken slice then starts straight in the fast
    # loop with ``pending_value`` set, skipping the retry dispatch.
    # Generic-mode wake sites keep the plain wake + retry protocol, and
    # anything not open-codeable here (shuttle proxies, profiled or
    # void flavors, hooked clocks, a parked Peek) falls back to it too.

    def _wake_send_deliver(self, channel, waiter: "_ContextState") -> None:
        """A dequeue freed bounded capacity: complete the parked sender's
        Enqueue in place, then wake it."""
        op = waiter.retry_op
        if op is not None and op.__class__ is Enqueue:
            wclock = waiter.context.time
            if (
                wclock.__class__ is TimeCell
                and wclock.on_advance is None
                and channel._enq_code == 1
            ):
                delta = channel._delta
                capacity = channel.capacity
                if delta >= capacity:
                    resps = channel._resps
                    stamp = wclock._time
                    while delta >= capacity and resps:
                        release = resps.popleft()
                        if release > stamp:
                            stamp = release
                        delta -= 1
                    wclock._time = stamp
                    channel._delta = delta
                if delta < capacity:
                    stats = channel.stats
                    stats.enqueues += 1
                    data_q = channel._data
                    data_q.append((wclock._time + channel.latency, op.data))
                    channel._delta = delta + 1
                    occ = len(data_q)
                    if occ > stats.max_real_occupancy:
                        stats.max_real_occupancy = occ
                    waiter.retry_op = None
                    waiter.pending_value = None
        self._wake(waiter)

    def _wake_recv_deliver(self, channel, waiter: "_ContextState") -> None:
        """An enqueue filled an empty channel: complete the parked
        receiver's Dequeue in place, then wake it."""
        op = waiter.retry_op
        if (
            op is not None
            and op.__class__ is Dequeue
            and channel._deq_code != 2
        ):
            wclock = waiter.context.time
            if wclock.__class__ is TimeCell and wclock.on_advance is None:
                data_q = channel._data
                if data_q:
                    stamp, result = data_q.popleft()
                    if stamp > wclock._time:
                        wclock._time = stamp
                    channel.stats.dequeues += 1
                    if channel._deq_code == 1:
                        channel._resps.append(
                            wclock._time + channel.resp_latency
                        )
                    waiter.retry_op = None
                    waiter.pending_value = result
        self._wake(waiter)

    def _block(self, state: _ContextState, op: Op, detail: str) -> None:
        state.status = _BLOCKED
        state.retry_op = op
        state.blocked_detail = detail

    def _wake(self, state: _ContextState) -> None:
        if state.status != _BLOCKED:
            return
        state.status = _READY
        state.blocked_detail = ""
        self.wakeups += 1
        self.policy.push(state, woken=True)

    def _drain_time_waiters(self, target: Context) -> None:
        """Wake WaitUntil waiters whose threshold ``target`` has passed."""
        waiters = self._time_waiters.get(id(target))
        if not waiters:
            return
        now = target.time.now()
        still_waiting: list[tuple[Any, _ContextState]] = []
        for threshold, waiter in waiters:
            if now >= threshold:
                waiter.pending_value = now
                waiter.retry_op = None  # result already delivered
                self._wake(waiter)
            else:
                still_waiting.append((threshold, waiter))
        if still_waiting:
            self._time_waiters[id(target)] = still_waiting
        else:
            del self._time_waiters[id(target)]
            if not self._time_waiters:
                self._any_time_waiters = False
                self._fast = self._fast_capable

    def _finish(self, state: _ContextState) -> None:
        """Mark a context finished and propagate closure to its channels."""
        ctx = state.context
        state.status = _DONE
        ctx.finish_time = ctx.time.now()
        if state.buffer is not None:
            state.buffer.append("finish", None, ctx.finish_time)
        ctx.time.finish()
        for sender in ctx.senders:
            channel = sender.channel
            channel.close_sender()
            waiter = channel.waiting_receiver
            if waiter is not None:
                channel.waiting_receiver = None
                self._wake(waiter)
        for receiver in ctx.receivers:
            channel = receiver.channel
            channel.close_receiver()
            waiter = channel.waiting_sender
            if waiter is not None:
                channel.waiting_sender = None
                self._wake(waiter)
        self._drain_time_waiters(ctx)
