"""Process-parallel executor: partitioned graphs bridged by shuttles.

The GIL caps the threaded executor at one core; this executor recovers
DAM's wall-clock scaling by partitioning ``program.contexts`` across
**forked worker processes** (:mod:`repro.core.executor.partition`), running
each partition under the existing cooperative scheduler, and bridging the
*cut* channels — those whose endpoints land in different workers — with
cross-process shuttles (:mod:`repro.core.executor.shm`).

Why the simulated results stay bit-identical
--------------------------------------------

Channel semantics are pure functions of simulated state (the FIFO contents
and the endpoint clocks — see :mod:`repro.core.channel`).  A shuttle
carries exactly the records an in-process channel would queue, over two
FIFO lanes:

* **data lane** (sender partition → receiver partition): the ``(stamp,
  data)`` tuples, followed by a ``SENDER_DONE`` sentinel when the sending
  context finishes (the channel-close transition);
* **response lane** (receiver → sender): the dequeue-time responses that
  drive backpressure, followed by ``RECEIVER_DONE`` when the receiving
  context finishes (the channel-void transition).

Both lanes preserve order, so every state transition observes the same
sequence it would in-process, and the sender clock advances through the
same response times.  The only records whose *real-time* visibility can
differ from an in-process run are ones the semantics already make dead:
responses generated after the sender finished are never drained (in
process, ``close_sender`` clears them), and data enqueued after the
receiver finished is discarded (void channel) — so the lag of the done
sentinels cannot change any simulated outcome.  ``ViewTime``/``WaitUntil``
reads of a remote clock go through a shared float64 mirror
(:class:`~repro.core.executor.shm.SharedTimeCell`) that is always a lower
bound, the same contract SVA gives the threaded executor.

Work stealing
-------------

Workers do not start with their partition materialized.  The partition is
refined into **clusters** (:func:`~repro.core.executor.partition.plan_clusters`)
— connected components of a worker's group under its internal channels —
and every worker begins empty, *activating* clusters lazily: when its run
queue drains it claims its next own cold cluster from a shared
:class:`~repro.core.executor.shm.ClaimBoard`, and when it has none left it
steals another worker's cold cluster (largest first).  Because every
channel leaving a cluster is a planned-cut channel already bridged by a
shuttle, activation by *any* worker creates no new communication paths:
the adopter installs the same shuttle proxies and shared time cells the
planned owner would have, and since a cluster is claimed exactly once
(one inherited lock guards the board) the SPSC property of every shuttle
lane is preserved.  Simulated results cannot change — cluster activation
moves *where* the same pure state transitions execute, never what they
compute.  ``steal=False`` restores strict planned placement (pins keep
their separation guarantee); with stealing on, pins bind the *initial*
plan only.

Deadlock detection is two-level: a worker whose blocked contexts all wait
on *local* resources reports a local deadlock immediately (no remote
record can unblock them), while cross-worker cycles are caught by the
parent's watchdog — every live worker parked with the shared progress
total frozen for a grace period *and no cold cluster left to claim* —
which aborts the workers and merges their stall reports into one
:class:`~repro.core.errors.DeadlockError`.

The parent merges per-worker results back onto the original program
object: context finish times (and picklable result attributes), channel
stats, per-context trace buffers (so the observability layer's
``(time, context, seq)`` merge is executor-independent), and the metrics
registry.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time as _wallclock
from collections import deque
from multiprocessing import connection as _mpconn
from typing import Any, Optional

from ...obs import Observability, fold_channel_metrics, fold_context_metrics
from ...obs.stall import StallReport
from .. import checkpoint as _ckpt
from ..channel import _EMPTY, Channel, ChannelStats
from ..errors import (
    CheckpointError,
    DamError,
    DeadlockError,
    RunTimeoutError,
    SimulationError,
    WorkerCrashError,
    pack_exception,
    unpack_exception,
)
from ..faults import StalledLane
from ..ops import Dequeue, Enqueue, Peek, WaitUntil
from ..program import Program
from .affinity import pin_current_process, plan_affinity
from .base import Executor, RunSummary
from .partition import ClusterSpec, PartitionPlan, plan_clusters, plan_partition
from .policies import SchedulingPolicy, make_policy
from .registry import register_executor
from .sequential import _BLOCKED, _DONE, SequentialExecutor, _ContextState
from .shm import (
    CKPT_DUMP,
    CKPT_PAUSE,
    CKPT_RUN,
    DATA,
    RECEIVER_DONE,
    RESPONSE,
    SENDER_DONE,
    WORKER_BLOCKED,
    WORKER_DONE,
    WORKER_RUNNING,
    ArenaLayout,
    ChannelShuttle,
    CheckpointBoard,
    ClaimBoard,
    PipeLane,
    SharedArena,
    SharedClockArray,
    SharedTimeCell,
    SharedTimeView,
    ShmRing,
    StatusBoard,
)


class _WorkerAborted(BaseException):
    """Internal: the parent pulled the abort switch (peer failure or the
    global deadlock watchdog fired).  BaseException so user-level handlers
    inside context generators cannot swallow it."""


#: Context attributes that are framework state, never harvested results.
_FRAMEWORK_ATTRS = frozenset(
    {"id", "name", "time", "senders", "receivers", "finish_time",
     "_body", "_pass_context"}
)


# ----------------------------------------------------------------------
# Cut-channel proxies.
#
# After fork, each worker swaps the ``.channel`` of every cut-channel
# handle owned by a local context for one of these.  They mirror the
# pure-semantics surface of :class:`Channel` that the sequential
# executor's dispatch/finish/stall paths touch, but route records over
# the shuttle lanes instead of shared deques.  Pushes never block the
# scheduling loop: records that do not fit in the ring queue locally in
# ``_pending`` and are flushed by ``poll()``.
# ----------------------------------------------------------------------


class _ShuttleSender:
    """Sender-partition stand-in for a cut channel."""

    # Flavor codes the sequential fast path would inline on; shuttles
    # always need their method implementations (lane bookkeeping).
    _enq_code = 2
    _deq_code = 2

    __slots__ = (
        "id", "name", "capacity", "latency", "resp_latency", "real",
        "sender_owner", "receiver_owner", "stats", "profile_log",
        "waiting_sender", "waiting_receiver",
        "_delta", "_resps", "_sender_finished", "_receiver_finished",
        "_lane_out", "_lane_in", "_pending",
        "_park_enq_msg", "_park_deq_msg",
    )

    def __init__(self, channel: Channel, shuttle: ChannelShuttle):
        self.id = channel.id
        self.name = channel.name
        self._park_enq_msg = f"enqueue on full {self.name}"
        self._park_deq_msg = f"dequeue on empty {self.name}"
        self.capacity = channel.capacity
        self.latency = channel.latency
        self.resp_latency = channel.resp_latency
        self.real = channel.real
        self.sender_owner = channel.sender_owner
        self.receiver_owner = channel.receiver_owner
        #: Sender side counts enqueues; the receiver partition owns the rest.
        self.stats = ChannelStats()
        self.profile_log = None
        self.waiting_sender: Any = None
        self.waiting_receiver: Any = None
        # Seed from the wrapped channel: pristine (all empty/False) on a
        # fresh run, the restored sender-side state — in-flight count,
        # undrained responses, finished flags — when the program was
        # resumed from a checkpoint.  The queued data itself seeds the
        # *receiver* proxy in whichever worker activates that side.
        self._delta = channel._delta
        self._resps: deque = deque(channel._resps)
        self._sender_finished = channel.sender_finished
        self._receiver_finished = channel.receiver_finished
        self._lane_out = shuttle.data
        self._lane_in = shuttle.resp
        self._pending: deque = deque()

    # -- Channel surface used by the sender-side dispatch --------------

    def sender_try_reserve(self, clock) -> bool:
        if self.capacity is None:
            return True
        while self._delta >= self.capacity and self._resps:
            clock.advance(self._resps.popleft())
            self._delta -= 1
        if self._delta < self.capacity:
            return True
        return self._receiver_finished

    def do_enqueue(self, clock, data) -> None:
        self.stats.enqueues += 1
        if self._receiver_finished:
            return  # void channel: data is discarded
        stamp = 0 if self.real else clock._time + self.latency
        if self.capacity is not None:
            self._delta += 1
        self._push((DATA, stamp, data))

    def try_enqueue(self, clock, data) -> bool:
        """Single-call fast-path surface (reserve + enqueue).  Shuttle
        lanes dominate the cost here, so this composes the reference
        methods rather than specializing per flavor."""
        if self.sender_try_reserve(clock):
            self.do_enqueue(clock, data)
            return True
        return False

    def close_sender(self) -> None:
        self._sender_finished = True
        self._resps.clear()
        if not self._receiver_finished:
            self._push((SENDER_DONE,))

    def real_occupancy(self) -> int:
        return len(self._pending)

    # -- shuttle servicing ---------------------------------------------

    def _push(self, record) -> None:
        if self._pending or not self._lane_out.try_push(record):
            self._pending.append(record)

    def poll(self) -> int:
        """Flush the outbound backlog and drain the response lane;
        returns the number of records moved (truthy iff progress)."""
        moved = 0
        while self._pending and self._lane_out.try_push(self._pending[0]):
            self._pending.popleft()
            moved += 1
        while True:
            ok, record = self._lane_in.try_pop()
            if not ok:
                break
            moved += 1
            if record[0] == RESPONSE:
                self._resps.append(record[1])
            else:  # RECEIVER_DONE: channel voids, the backlog is dead letters
                self._receiver_finished = True
                self._pending.clear()
        return moved

    def outstanding(self) -> bool:
        return bool(self._pending)

    def sender_ready(self) -> bool:
        """Could a parked sender's retried reserve make progress now?"""
        return bool(self._resps) or self._receiver_finished

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_ShuttleSender({self.name}, pending={len(self._pending)})"


class _ShuttleReceiver:
    """Receiver-partition stand-in for a cut channel."""

    # See _ShuttleSender: never inline-eligible in the fast path.
    _enq_code = 2
    _deq_code = 2

    __slots__ = (
        "id", "name", "capacity", "latency", "resp_latency", "real",
        "sender_owner", "receiver_owner", "stats", "profile_log",
        "waiting_sender", "waiting_receiver",
        "_data", "_sender_finished", "_receiver_finished",
        "_lane_in", "_lane_out", "_pending",
        "_park_enq_msg", "_park_deq_msg",
    )

    def __init__(self, channel: Channel, shuttle: ChannelShuttle):
        self.id = channel.id
        self.name = channel.name
        self._park_enq_msg = f"enqueue on full {self.name}"
        self._park_deq_msg = f"dequeue on empty {self.name}"
        self.capacity = channel.capacity
        self.latency = channel.latency
        self.resp_latency = channel.resp_latency
        self.real = channel.real
        self.sender_owner = channel.sender_owner
        self.receiver_owner = channel.receiver_owner
        #: Receiver side counts dequeues/peeks/occupancy and the profile log.
        self.stats = ChannelStats()
        self.profile_log = [] if channel.profile_log is not None else None
        self.waiting_sender: Any = None
        self.waiting_receiver: Any = None
        # Seed from the wrapped channel (see _ShuttleSender.__init__):
        # restored queue contents become the proxy's local queue; lane
        # records pushed since the fork append after them, preserving
        # FIFO order across a checkpoint resume.
        self._data: deque = deque(tuple(item) for item in channel._data)
        self._sender_finished = channel.sender_finished
        self._receiver_finished = channel.receiver_finished
        self._lane_in = shuttle.data
        self._lane_out = shuttle.resp
        self._pending: deque = deque()

    # -- Channel surface used by the receiver-side dispatch ------------

    def can_dequeue(self) -> bool:
        return bool(self._data)

    @property
    def closed_for_receiver(self) -> bool:
        return self._sender_finished and not self._data

    def do_dequeue(self, clock):
        stamp, data = self._data.popleft()
        clock.advance(stamp)
        self.stats.dequeues += 1
        if self.capacity is not None and not self._sender_finished:
            self._push((RESPONSE, clock._time + self.resp_latency))
        if self.profile_log is not None:
            self.profile_log.append((stamp, clock._time))
        return data

    def do_peek(self, clock):
        stamp, data = self._data[0]
        clock.advance(stamp)
        self.stats.peeks += 1
        return data

    def fast_dequeue(self, clock):
        """Single-call fast-path surface: ``_EMPTY`` when nothing is
        visible yet (the worker loop then parks or polls the lane)."""
        if not self._data:
            return _EMPTY
        return self.do_dequeue(clock)

    def close_receiver(self) -> None:
        self._receiver_finished = True
        self._data.clear()
        # In-flight responses still flush first (FIFO lane): the remote
        # sender drains them before it observes the void transition,
        # exactly as in-process semantics require.
        if not self._sender_finished:
            self._push((RECEIVER_DONE,))

    def real_occupancy(self) -> int:
        return len(self._data)

    # -- shuttle servicing ---------------------------------------------

    def _push(self, record) -> None:
        if self._pending or not self._lane_out.try_push(record):
            self._pending.append(record)

    def poll(self) -> int:
        """Flush pending responses and drain the data lane; returns the
        number of records moved (truthy iff progress)."""
        moved = 0
        while self._pending and self._lane_out.try_push(self._pending[0]):
            self._pending.popleft()
            moved += 1
        while True:
            ok, record = self._lane_in.try_pop()
            if not ok:
                break
            moved += 1
            if record[0] == DATA:
                if not self._receiver_finished:
                    self._data.append((record[1], record[2]))
                    if len(self._data) > self.stats.max_real_occupancy:
                        self.stats.max_real_occupancy = len(self._data)
            else:  # SENDER_DONE: responses the sender will never drain die here
                self._sender_finished = True
                self._pending.clear()
        return moved

    def outstanding(self) -> bool:
        return bool(self._pending)

    def receiver_ready(self) -> bool:
        """Could a parked receiver's retried dequeue/peek make progress?"""
        return bool(self._data) or self._sender_finished

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_ShuttleReceiver({self.name}, queued={len(self._data)})"


# ----------------------------------------------------------------------
# The per-worker executor.
# ----------------------------------------------------------------------


class _WorkerExecutor(SequentialExecutor):
    """The cooperative scheduler, extended with shuttle servicing and
    lazy cluster activation (work stealing).

    Differences from the plain sequential executor:

    * the worker starts with an *empty* program and pulls work from the
      shared claim board: its own cold clusters first, then — when
      ``steal`` is on — other workers' (largest first).  Activating a
      cluster installs shared time cells on its contexts, swaps every
      cut-channel handle for a shuttle proxy, and pushes the fresh
      context states onto the ready queue;
    * a finite timeslice is forced even under run-to-block policies, so
      shuttles are serviced (outbound flushed, inbound drained, parked
      endpoints woken) at bounded intervals;
    * :meth:`_idle` — reached when the local ready queue empties — polls
      shuttles and remote-clock waiters, claims more work when the board
      has any, publishes the worker's state on the status board, and
      returns ``False`` only for a *local* deadlock or full completion
      (all activated contexts done, nothing claimable, and the outbound
      backlog flushed);
    * metrics folding is disabled: the parent folds the merged run.
    """

    name = "process-worker"

    def __init__(
        self,
        worker: int,
        program: Program,
        clusters: list[ClusterSpec],
        claim: ClaimBoard,
        claim_lock,
        shuttles: dict[int, ChannelShuttle],
        clocks: SharedClockArray,
        starts: list,
        status: StatusBoard,
        abort,
        steal: bool = True,
        policy: str | SchedulingPolicy = "fifo",
        max_ops: Optional[int] = None,
        obs: Optional[Observability] = None,
        poll_interval: float = 0.0005,
        timeslice: int = 1024,
        faults=None,
        kill=None,
        superblocks="auto",
        ckpt_board=None,
        checkpoint_dir: Optional[str] = None,
        resume_records: Optional[dict] = None,
    ):
        super().__init__(
            policy=policy,
            max_ops=max_ops,
            obs=obs,
            faults=faults,
            superblocks=superblocks,
        )
        #: Chaos hook: a WorkerKill aimed at *this* worker — the process
        #: SIGKILLs itself the first time its published progress counter
        #: reaches the trigger (see :meth:`_publish`).
        self._kill = kill
        if self.policy.timeslice is None:
            # Run-to-block would starve the shuttles on long-running
            # contexts; preemption changes only real order, never
            # simulated results (the determinism invariant).
            self.policy.timeslice = timeslice
        # ... and the run-to-block FIFO branch would additionally make the
        # worker deaf to the parent's abort flag: bounded slices, always.
        self._always_bounded = True
        self._worker = worker
        self._program = program
        self._clusters = clusters
        self._claim = claim
        self._claim_lock = claim_lock
        self._shuttles = shuttles
        self._clocks = clocks
        self._starts = starts
        self._status = status
        self._abort = abort
        self._steal = steal
        self._poll_interval = poll_interval
        self._shuttle_moves = 0
        self._send_proxies: list[_ShuttleSender] = []
        self._recv_proxies: list[_ShuttleReceiver] = []
        #: Contexts this worker activated (own or stolen), in claim order.
        self._activated: list = []
        #: Cluster-internal Channel objects of the activated clusters.
        self._active_channels: list[Channel] = []
        self.steal_count = 0
        self.migrations: list[dict] = []
        #: Checkpoint coordination (parent-driven quiescent cuts).
        self._ckpt_board = ckpt_board
        self._ckpt_dir = checkpoint_dir
        self._ckpt_on = ckpt_board is not None
        self._ckpt_seen = 0  # last epoch this worker acknowledged
        self._ckpt_rounds_done = 0
        #: Resume records (slot-keyed) applied lazily at cluster
        #: activation; the parent popped them off the program pre-fork.
        self._ckpt_resume = resume_records or None
        #: Stats already on an internal channel at activation time of a
        #: *resumed* run: harvest ships deltas past these so the parent's
        #: merge (which adds onto the restored base) never double-counts.
        self._ship_base: dict[int, dict] = {}

    # -- lazy cluster activation ---------------------------------------

    def _activate_cluster(
        self, spec: ClusterSpec, stolen_from: Optional[int] = None
    ) -> None:
        """Materialize ``spec`` in this worker: shared time cells on its
        contexts, shuttle proxies on its cut-channel handles, fresh
        context states on the ready queue.  The caller has already won
        the claim, so exactly one worker ever runs this for a given
        cluster — which is what keeps every shuttle lane single-producer
        single-consumer (a fresh adopter's cached ring counters start at
        the same zeros the planned owner's would)."""
        contexts = self._program.contexts
        channels = self._program.channels
        for slot in spec.contexts:
            ctx = contexts[slot]
            ctx.time = SharedTimeCell(
                self._clocks, slot, start=self._starts[slot]
            )
            for handle in ctx.senders:
                shuttle = self._shuttles.get(handle.channel.id)
                if shuttle is not None:
                    proxy = _ShuttleSender(handle.channel, shuttle)
                    handle.channel = proxy
                    self._send_proxies.append(proxy)
            for handle in ctx.receivers:
                shuttle = self._shuttles.get(handle.channel.id)
                if shuttle is not None:
                    proxy = _ShuttleReceiver(handle.channel, shuttle)
                    handle.channel = proxy
                    self._recv_proxies.append(proxy)
        if self._ckpt_resume is not None:
            for index in spec.channels:
                channel = channels[index]
                stats = channel.stats
                self._ship_base[channel.id] = {
                    "enqueues": stats.enqueues,
                    "dequeues": stats.dequeues,
                    "peeks": stats.peeks,
                    "log_len": (
                        len(channel.profile_log)
                        if channel.profile_log is not None
                        else 0
                    ),
                }
        self._active_channels.extend(channels[i] for i in spec.channels)
        trace = self.obs.trace if self.obs is not None else None
        for slot in spec.contexts:
            ctx = contexts[slot]
            state = _ContextState(ctx)
            if trace is not None:
                state.buffer = trace.buffer(ctx.name)
            self._states[id(ctx)] = state
            record = (
                self._ckpt_resume.get(slot)
                if self._ckpt_resume is not None
                else None
            )
            if record is not None:
                self._apply_one_resume_record(ctx, state, record)
            if state.status != _DONE:
                self.policy.push(state, woken=False)
            self._activated.append(ctx)
        if (
            len(spec.contexts) >= 2
            and not self._ckpt_on
            and self._ckpt_resume is None
        ):
            # Recompile the cluster as a superblock *on the adopter*: a
            # stolen cluster's members already carry this worker's shared
            # time slots, so the driver batches against its new clocks.
            # The same gates as _compile_superblocks apply (the turn loop
            # is the fast loop; faults are slice-granular; "auto" declines
            # under per-context wall-clock metrics).
            from .superblock import Superblock, attach, normalize_mode

            mode = normalize_mode(self.superblocks)
            if (
                mode != "off"
                and self._fast_capable
                and not self._fault_map
                and not (
                    mode == "auto"
                    and self.obs is not None
                    and self.obs.metrics is not None
                )
            ):
                attach(
                    Superblock(spec.index),
                    [
                        self._states[id(contexts[slot])]
                        for slot in spec.contexts
                    ],
                )
        if stolen_from is not None:
            self.steal_count += 1
            record = {
                "cluster": spec.index,
                "from": stolen_from,
                "to": self._worker,
                "contexts": [contexts[slot].name for slot in spec.contexts],
            }
            self.migrations.append(record)
            if trace is not None:
                # Steals land in a worker-scoped pseudo-buffer, never in
                # a migrated context's buffer: per-context event streams
                # (and their seq counters) stay schedule-independent.
                trace.buffer(f"<worker-{self._worker}>").append(
                    "migrate", None, 0, dict(record)
                )

    def _claim_next(self) -> bool:
        """Claim and activate one cold cluster; False when none is
        claimable by this worker (own clusters exhausted and stealing is
        off or nothing foreign is cold)."""
        claim = self._claim
        if claim.cold_count() == 0:
            return False
        pick: Optional[ClusterSpec] = None
        stolen_from: Optional[int] = None
        with self._claim_lock:
            if claim.cold_count() != 0:
                own = [
                    spec for spec in self._clusters
                    if spec.owner == self._worker and claim.is_cold(spec.index)
                ]
                if own:
                    pick = own[0]
                elif self._steal:
                    foreign = [
                        spec for spec in self._clusters
                        if spec.owner != self._worker
                        and claim.is_cold(spec.index)
                    ]
                    if foreign:
                        # Largest first: the most remaining work amortizes
                        # the activation; index breaks ties.
                        pick = max(
                            foreign, key=lambda s: (s.size, -s.index)
                        )
                        stolen_from = pick.owner
            if pick is not None:
                claim.claim(pick.index, self._worker)
        if pick is None:
            return False
        self._activate_cluster(pick, stolen_from=stolen_from)
        # A claim is progress the parent watchdog must see.
        self._shuttle_moves += 1
        self._publish(WORKER_RUNNING)
        return True

    def _publish(self, state: int) -> None:
        progress = self.ops_executed + self._shuttle_moves
        self._status.publish(self._worker, progress, state)
        if (
            self._kill is not None
            and self._kill.after_ops is not None
            and progress >= self._kill.after_ops
        ):
            # Injected crash: die exactly as an external SIGKILL would —
            # no cleanup, no payload, pipe slammed shut.
            os.kill(os.getpid(), self._kill.signal)

    def _run_slice(self, state, timeslice) -> None:
        if self._abort.is_set():
            raise _WorkerAborted()
        if self._ckpt_on and self._ckpt_board.epoch() > self._ckpt_seen:
            self._ckpt_participate()
        # Publishing at every slice keeps the watchdog honest: a worker
        # crunching local work always shows RUNNING with rising progress.
        self._publish(WORKER_RUNNING)
        super()._run_slice(state, timeslice)
        self._service_shuttles()

    def _service_shuttles(self) -> int:
        moved = 0
        for proxy in self._send_proxies:
            moved += proxy.poll()
            waiter = proxy.waiting_sender
            if waiter is not None and proxy.sender_ready():
                proxy.waiting_sender = None
                self._wake(waiter)
        for proxy in self._recv_proxies:
            moved += proxy.poll()
            waiter = proxy.waiting_receiver
            if waiter is not None and proxy.receiver_ready():
                proxy.waiting_receiver = None
                self._wake(waiter)
        if moved:
            self._shuttle_moves += 1
        return moved

    # -- checkpoint participation (parent-driven quiescent cuts) -------

    def _claim_own_cold(self) -> None:
        """Claim and activate every cold cluster this worker owns.

        Called at the start of a pause round: a lane whose receiving
        cluster nobody activated has no consumer, so it could never
        drain.  Claiming through the board keeps the
        claimed-exactly-once invariant even against a concurrent steal.
        """
        claim = self._claim
        while True:
            pick: Optional[ClusterSpec] = None
            with self._claim_lock:
                for spec in self._clusters:
                    if spec.owner == self._worker and claim.is_cold(spec.index):
                        pick = spec
                        claim.claim(spec.index, self._worker)
                        break
            if pick is None:
                return
            self._activate_cluster(pick)
            self._shuttle_moves += 1

    def _ckpt_participate(self) -> None:
        """One worker's side of a pause/drain/dump round.

        Entered only at safe points (between slices or in the idle
        loop), so every local context is between ops — the worker's
        slice of the cut is quiescent by construction.  The drain loop
        keeps shuttles moving until the parent observes global lane
        quiescence, dumps the partition when told to, and returns to
        normal scheduling when the parent ends the round.
        """
        board = self._ckpt_board
        epoch = board.epoch()
        if epoch <= self._ckpt_seen:
            return
        self._ckpt_seen = epoch
        self._claim_own_cold()
        worker = self._worker
        rounds = 0
        moves = 0
        dumped = False
        board.ack(worker, epoch)
        while not self._abort.is_set():
            moves += self._service_shuttles()
            rounds += 1
            pending = sum(len(p._pending) for p in self._send_proxies)
            pending += sum(len(p._pending) for p in self._recv_proxies)
            board.publish_drain(worker, rounds, moves, pending)
            if board.epoch() != epoch:
                break  # the parent moved on (round abandoned)
            command = board.command()
            if command == CKPT_RUN:
                break
            if command == CKPT_DUMP and not dumped:
                self._dump_partition(epoch)
                board.mark_dumped(worker, epoch)
                dumped = True
                self._ckpt_rounds_done += 1
                kill = self._kill
                if (
                    kill is not None
                    and getattr(kill, "after_checkpoints", None) is not None
                    and self._ckpt_rounds_done >= kill.after_checkpoints
                ):
                    # Chaos hook: die right after publishing the dump —
                    # the worst moment for the parent's stitch.
                    os.kill(os.getpid(), kill.signal)
            _wallclock.sleep(0 if rounds <= 3 else self._poll_interval)
        if self._abort.is_set():
            raise _WorkerAborted()

    def _dump_partition(self, epoch: int) -> None:
        """Write this worker's slice of the cut (tmp + rename).

        Context records cover exactly what this worker activated;
        channel entries carry internal channels whole and cut channels
        by side (the parent stitches ``send``/``recv`` halves — queued
        data lives receiver-side, credits sender-side — into one
        partition-independent state).
        """
        slot_of = {
            id(ctx): slot
            for slot, ctx in enumerate(self._program.contexts)
        }
        records = {
            slot_of[id(ctx)]: self._context_record(self._states[id(ctx)])
            for ctx in self._activated
        }
        channels: dict[int, dict] = {}
        for channel in self._active_channels:
            channels[channel.id] = {"chan": channel.checkpoint_state()}
        for proxy in self._send_proxies:
            entry = channels.setdefault(proxy.id, {})
            entry["send"] = {
                "delta": proxy._delta,
                "resps": list(proxy._resps),
                "sender_finished": proxy._sender_finished,
                "receiver_finished": proxy._receiver_finished,
                "enqueues": proxy.stats.enqueues,
            }
        for proxy in self._recv_proxies:
            entry = channels.setdefault(proxy.id, {})
            entry["recv"] = {
                "data": list(proxy._data),
                "sender_finished": proxy._sender_finished,
                "receiver_finished": proxy._receiver_finished,
                "dequeues": proxy.stats.dequeues,
                "peeks": proxy.stats.peeks,
                "max_real_occupancy": proxy.stats.max_real_occupancy,
                "profile_log": (
                    None if proxy.profile_log is None
                    else list(proxy.profile_log)
                ),
            }
        _ckpt.save_part(
            self._ckpt_dir, epoch, self._worker,
            {"records": records, "channels": channels},
        )

    def _poll_remote_waiters(self) -> bool:
        """Wake WaitUntil waiters on remote clocks (shared-slot reads)."""
        if not self._any_time_waiters:
            return False
        woke = self.wakeups
        for target_id in list(self._time_waiters):
            if target_id in self._states:
                continue  # local target: woken by local advances
            waiters = self._time_waiters.get(target_id)
            if not waiters:
                continue
            op = waiters[0][1].retry_op
            if op is None:
                continue
            self._drain_time_waiters(op.context)
        return self.wakeups != woke

    def _remote_dependence(self, blocked) -> bool:
        """True if any blocked context could be unblocked by remote
        activity (a shuttle record or a remote clock advance)."""
        for state in blocked:
            op = state.retry_op
            if op is None:
                continue
            kind = type(op)
            if kind is Enqueue:
                if isinstance(op.sender.channel, _ShuttleSender):
                    return True
            elif kind is Dequeue or kind is Peek:
                if isinstance(op.receiver.channel, _ShuttleReceiver):
                    return True
            elif kind is WaitUntil:
                if id(op.context) not in self._states:
                    return True
        return False

    def _idle(self) -> bool:
        spins = 0
        while True:
            if self._abort.is_set():
                raise _WorkerAborted()
            if self._ckpt_on and self._ckpt_board.epoch() > self._ckpt_seen:
                self._ckpt_participate()
                spins = 0
                continue  # activation during the round may have queued work
            progress = self._service_shuttles()
            if self._poll_remote_waiters():
                progress = True
            if self.policy:
                self._publish(WORKER_RUNNING)
                return True
            # The queue is dry: pull more work off the claim board before
            # retiring, parking, or declaring a local deadlock — blocked
            # contexts may be waiting on a cluster nobody activated yet.
            if self._claim_next():
                return True
            blocked = [
                st for st in self._states.values() if st.status == _BLOCKED
            ]
            if not blocked:
                # All activated contexts finished and nothing is
                # claimable; retire once every outbound record (including
                # done sentinels) has been flushed.
                if not any(p.outstanding() for p in self._send_proxies) and \
                        not any(p.outstanding() for p in self._recv_proxies):
                    if (
                        self._ckpt_on
                        and self._ckpt_board.epoch() > self._ckpt_seen
                    ):
                        # A pause round began while we were deciding to
                        # retire: participate first (the parent counts
                        # this worker as live until its payload lands).
                        continue
                    self._publish(WORKER_DONE)
                    return False
            elif not self._remote_dependence(blocked):
                # Every blocked context waits on a purely local resource:
                # a local deadlock no remote record can break.  Fall back
                # to the sequential executor's stall reporting.
                return False
            if progress:
                spins = 0
                continue
            self._publish(WORKER_BLOCKED)
            spins += 1
            if spins <= 3:
                _wallclock.sleep(0)
            else:
                _wallclock.sleep(self._poll_interval)

    def _fold_metrics(self, program, states):
        return None  # the parent folds the merged run

    def _attach_profile(self, summary, program, obs):
        return None  # the parent profiles the merged run


# ----------------------------------------------------------------------
# Worker process entry point (fork target: everything arrives by
# inheritance, nothing is pickled — context generators included).
# ----------------------------------------------------------------------


def _shippable_records(buf) -> list:
    """A buffer's raw trace records, with payloads stripped if they refuse
    to pickle (without payload capture every payload is None)."""
    records = buf.records
    if not buf.capture_payloads:
        return records
    try:
        pickle.dumps(records)
        return records
    except Exception:  # noqa: BLE001
        return [(kind, channel, time, None) for kind, channel, time, _ in records]


def _harvest(executor: _WorkerExecutor, obs) -> dict:
    """Everything the parent merges back onto the original program.

    Per-context results are keyed by the context's *slot* (its index in
    ``program.contexts``, identical in parent and forked child) — names
    may legitimately repeat across replicated pipelines.  What a worker
    harvests is exactly what it *activated* — own and stolen clusters
    alike — so stolen work reports from its adopter, never its planned
    owner.
    """
    local = executor._activated
    local_channels = executor._active_channels
    send_proxies = executor._send_proxies
    recv_proxies = executor._recv_proxies
    slot_of = {
        id(ctx): slot for slot, ctx in enumerate(executor._program.contexts)
    }
    finish_times: dict[int, Any] = {}
    context_attrs: dict[int, dict] = {}
    context_stats: dict[int, dict] = {}
    for ctx in local:
        slot = slot_of[id(ctx)]
        finish_times[slot] = ctx.finish_time
        attrs = {}
        for key, value in vars(ctx).items():
            if key in _FRAMEWORK_ATTRS:
                continue
            try:
                pickle.dumps(value)
            except Exception:  # noqa: BLE001 - handles/locks/closures stay put
                continue
            attrs[key] = value
        if attrs:
            context_attrs[slot] = attrs
        state = executor._states.get(id(ctx)) if executor._states else None
        if state is not None:
            context_stats[slot] = {
                "ops": state.ops, "wall": state.wall_seconds
            }

    channel_stats: dict[int, dict] = {}

    def ship(channel_id: int, stats: ChannelStats, log) -> None:
        # Accumulate, never overwrite: after a steal one worker may hold
        # *both* proxies of a cut channel (sender-side enqueues and
        # receiver-side dequeues land in separate ChannelStats).
        entry = channel_stats.setdefault(
            channel_id,
            {
                "enqueues": 0, "dequeues": 0, "peeks": 0,
                "max_real_occupancy": 0, "profile_log": None,
            },
        )
        entry["enqueues"] += stats.enqueues
        entry["dequeues"] += stats.dequeues
        entry["peeks"] += stats.peeks
        if stats.max_real_occupancy > entry["max_real_occupancy"]:
            entry["max_real_occupancy"] = stats.max_real_occupancy
        if log:
            entry["profile_log"] = log

    ship_base = executor._ship_base
    for channel in local_channels:
        stats = channel.stats
        log = channel.profile_log
        base = ship_base.get(channel.id)
        if base is not None:
            # Resumed run: the restored channel state carries the
            # pre-checkpoint totals, but the parent *also* restored them
            # (RunSummary.merge adds shipped stats onto its own) — ship
            # only what happened after activation.
            delta = ChannelStats()
            delta.enqueues = stats.enqueues - base["enqueues"]
            delta.dequeues = stats.dequeues - base["dequeues"]
            delta.peeks = stats.peeks - base["peeks"]
            delta.max_real_occupancy = stats.max_real_occupancy
            stats = delta
            if log is not None:
                log = log[base["log_len"]:]
        ship(channel.id, stats, log)
    for proxy in send_proxies:
        ship(proxy.id, proxy.stats, None)
    for proxy in recv_proxies:
        ship(proxy.id, proxy.stats, proxy.profile_log)

    trace_records: dict[str, list] = {}
    if obs is not None and obs.trace is not None:
        for name, buf in obs.trace.buffers().items():
            if buf.records:
                trace_records[name] = _shippable_records(buf)

    return {
        "finish_times": finish_times,
        "context_attrs": context_attrs,
        "context_stats": context_stats,
        "channel_stats": channel_stats,
        "trace": trace_records,
        "migrations": executor.migrations,
        "counters": {
            "context_switches": executor.context_switches,
            "wakeups": executor.wakeups,
            "preemptions": executor.preemptions,
            "ops_executed": executor.ops_executed,
            "steals": executor.steal_count,
        },
    }


def _worker_main(
    worker_index: int,
    program: Program,
    clusters: list[ClusterSpec],
    claim: ClaimBoard,
    claim_lock,
    shuttles: dict[int, ChannelShuttle],
    arena: SharedArena,
    clocks: SharedClockArray,
    status: StatusBoard,
    abort,
    conn,
    options: dict,
) -> None:
    payload: dict[str, Any] = {
        "worker": worker_index, "status": "ok", "error": None, "stalls": None,
    }
    try:
        cpus = options.get("cpus")
        if cpus is not None:
            pin_current_process(cpus[worker_index])

        # Every context starts as a read-only view of its published clock
        # slot (the parent pre-wrote the start times); activating a
        # cluster promotes its contexts to mirroring cells.  Until then
        # ViewTime/WaitUntil/stall reads of *any* context — cold, local,
        # or remote — go through the shared slot.
        starts = [ctx.time.now() for ctx in program.contexts]
        for slot, ctx in enumerate(program.contexts):
            ctx.time = SharedTimeView(clocks, slot)

        obs = None
        if options["trace"] or options["metrics"]:
            obs = Observability(
                trace=options["trace"],
                metrics=options["metrics"],
                capture_payloads=options["capture_payloads"],
            )

        # Fault-injection hooks (chaos testing).  Shuttle stalls wrap the
        # named channels' data lanes *before* any proxy captures them;
        # only the receiving side ever pops a data lane, so wrapping the
        # per-process copy in every worker stalls exactly the delivery
        # path.  The kill targets this worker only if the resolved plan
        # says so; context faults ride the inherited sequential machinery.
        faults = options.get("faults")
        kill = None
        if faults is not None:
            kill = faults.kill_for(worker_index)
            if faults.stalls:
                by_name = {ch.name: ch.id for ch in program.channels}
                for stall in faults.stalls:
                    channel_id = by_name.get(stall.channel)
                    shuttle = (
                        shuttles.get(channel_id)
                        if channel_id is not None
                        else None
                    )
                    if shuttle is not None:
                        shuttle.data = StalledLane(
                            shuttle.data, stall.after_records
                        )

        ckpt = options.get("checkpoint")
        executor = _WorkerExecutor(
            worker_index, program, clusters, claim, claim_lock,
            shuttles, clocks, starts, status, abort,
            steal=options["steal"],
            policy=options["policy"], max_ops=options["max_ops"], obs=obs,
            poll_interval=options["poll_interval"],
            timeslice=options["timeslice"],
            faults=faults, kill=kill,
            superblocks=options.get("superblocks", "auto"),
            ckpt_board=ckpt["board"] if ckpt is not None else None,
            checkpoint_dir=ckpt["dir"] if ckpt is not None else None,
            resume_records=options.get("resume_records"),
        )
        try:
            # The worker starts empty; its first _idle() claims work.
            executor.execute(Program([], []))
        except DeadlockError:
            payload["status"] = "stalled"
            report = obs.stall_report if obs is not None else None
            if report is None:
                report = executor._stall_report(
                    [st for st in executor._states.values()
                     if st.status != _DONE]
                )
            payload["stalls"] = report.stalls
        except _WorkerAborted:
            payload["status"] = "aborted"
            unfinished = [
                st for st in executor._states.values() if st.status != _DONE
            ]
            if unfinished:
                payload["stalls"] = executor._stall_report(unfinished).stalls
        except SimulationError as exc:
            payload["status"] = "error"
            payload["error"] = pack_exception(exc)
        payload.update(_harvest(executor, obs))
    except BaseException as exc:  # noqa: BLE001 - everything must be reported
        payload["status"] = "error"
        if payload.get("error") is None:
            payload["error"] = pack_exception(exc)
    finally:
        try:
            conn.send(payload)
        except Exception:  # noqa: BLE001 - parent gone; nothing left to do
            pass
        try:
            conn.close()
        except Exception:  # noqa: BLE001
            pass
        status.publish(worker_index, status.progress(worker_index), WORKER_DONE)
        arena.close()  # release inherited views so the mapping unmaps cleanly


# ----------------------------------------------------------------------
# Parent-side checkpoint coordination.
# ----------------------------------------------------------------------


class _CkptCoordinator:
    """The parent's side of the quiescent-cut protocol (DESIGN.md §17).

    A tiny state machine folded into ``_collect``'s supervision ticks:

    ``idle``
        Nothing in flight.  When the timer says a capture is due, write
        the next epoch + ``CKPT_PAUSE`` to the board and move on.
    ``pausing``
        Wait until every live worker has acknowledged the epoch (each
        does so at a slice boundary, so its local contexts are all
        between operations — locally quiescent by construction).
    ``draining``
        Dijkstra-style double sweep over the workers' published drain
        telemetry.  The cut is globally quiescent when two consecutive
        sweeps observe the same live set, zero pending outbound records
        on both, frozen cumulative lane moves, and a strictly advanced
        round counter for every worker (proof each one completed a full
        service loop between the sweeps without moving anything).
    ``dumping``
        Workers write their partition dumps (tmp + rename, then publish
        ``dumped_epoch``).  When every live worker has published, stitch
        the parts with the retired workers' payloads into one
        :class:`~repro.core.checkpoint.Checkpoint`, save it, delete the
        parts, and return to ``idle``.

    Any abort (peer crash, deadline, user) cancels the round: the
    command word flips back to ``CKPT_RUN`` and draining workers resume.
    A stitch/save failure raises ``SimulationError`` — the caller aborts
    the run (a checkpointing run that cannot checkpoint should fail
    loudly, not silently stop protecting the user).
    """

    def __init__(
        self, board: CheckpointBoard, timer, path: str, program: Program,
        clusters: list[ClusterSpec], claim: ClaimBoard, executor_name: str,
    ):
        self._board = board
        self._timer = timer
        self._path = path
        self._program = program
        self._clusters = clusters
        self._claim = claim
        self._executor = executor_name
        self._phase = "idle"
        self._epoch = timer.epoch
        self._prev: Optional[dict[int, tuple]] = None

    @property
    def active(self) -> bool:
        return self._phase != "idle"

    def cancel(self) -> None:
        if self._phase != "idle":
            self._board.set_command(CKPT_RUN)
            self._phase = "idle"
            self._prev = None

    def tick(self, live: set, payloads: dict) -> None:
        """One supervision tick.  ``live`` is the set of workers whose
        payloads have not landed yet; ``payloads`` the landed ones."""
        if not live:
            # Everyone retired mid-round (or before one): nothing left
            # to cut — the run is completing normally.
            self.cancel()
            return
        if self._phase == "idle":
            if self._timer.due():
                self._epoch = self._timer.epoch + 1
                self._prev = None
                self._board.request(self._epoch, CKPT_PAUSE)
                self._phase = "pausing"
            return
        rows = {worker: self._board.row(worker) for worker in live}
        if self._phase == "pausing":
            if all(rows[w][0] == self._epoch for w in live):
                self._phase = "draining"
                self._prev = None
            return
        if self._phase == "draining":
            sweep = {
                w: (rows[w][1], rows[w][2], rows[w][3]) for w in live
            }  # (rounds, moves, pending)
            prev = self._prev
            if prev is not None and set(prev) == set(sweep):
                quiet = all(
                    sweep[w][2] == 0 and prev[w][2] == 0
                    and sweep[w][1] == prev[w][1]
                    and sweep[w][0] > prev[w][0]
                    for w in live
                )
                if quiet:
                    self._board.set_command(CKPT_DUMP)
                    self._phase = "dumping"
                    self._prev = None
                    return
            self._prev = sweep
            return
        if self._phase == "dumping":
            if all(rows[w][4] == self._epoch for w in live):
                self._finish(live, payloads)

    def _finish(self, live: set, payloads: dict) -> None:
        try:
            checkpoint = self._stitch(live, payloads)
            checkpoint.save(self._path)
        except Exception as exc:
            self._board.set_command(CKPT_RUN)
            self._phase = "idle"
            raise SimulationError("<checkpoint>", exc) from exc
        self._board.set_command(CKPT_RUN)
        self._phase = "idle"
        _ckpt.remove_parts(self._path, self._epoch)
        self._timer.mark()

    def _stitch(self, live: set, payloads: dict) -> "_ckpt.Checkpoint":
        """Merge live workers' partition dumps and retired workers'
        harvested payloads into one partition-independent checkpoint."""
        program = self._program
        parts = {
            worker: _ckpt.load_part(self._path, self._epoch, worker)
            for worker in sorted(live)
        }
        retired = [
            payloads[worker] for worker in sorted(payloads)
            if payloads[worker].get("status") == "ok"
        ]

        records: dict[int, dict] = {}
        for part in parts.values():
            records.update(part["records"])
        for payload in retired:
            attrs_by_slot = payload.get("context_attrs") or {}
            for slot, finish in (payload.get("finish_times") or {}).items():
                if slot in records:
                    continue
                ctx = program.contexts[slot]
                shipped = attrs_by_slot.get(slot) or {}
                records[slot] = {
                    "kind": "done",
                    "attrs": {
                        name: shipped[name]
                        for name in ctx.checkpoint_attrs
                        if name in shipped
                    },
                    "clock": finish,
                    "finish_time": finish,
                }
        missing = [
            slot for slot in range(len(program.contexts))
            if slot not in records
        ]
        if missing:
            names = ", ".join(
                program.contexts[slot].name for slot in missing[:5]
            )
            raise CheckpointError(
                f"epoch {self._epoch}: no state for context(s) {names} "
                f"(neither a live partition dump nor a retired worker's "
                f"payload covers them)"
            )

        channels: dict[int, dict] = {}
        for slot, channel in enumerate(program.channels):
            entries = [
                part["channels"][channel.id]
                for part in parts.values()
                if channel.id in part["channels"]
            ]
            whole = next(
                (e["chan"] for e in entries if "chan" in e), None
            )
            if whole is not None:
                # Cluster-internal on a live worker: the dumped state
                # already carries the full totals (restored base
                # inherited at fork, plus everything since).
                channels[slot] = whole
                continue
            # Cut channel (or internal to retired clusters): start from
            # the parent's fork-time base, add the retired workers'
            # shipped deltas, then the live proxies' sides.
            state = channel.checkpoint_state()
            stats = state["stats"]
            log = state["profile_log"]
            for payload in retired:
                shipped = (
                    payload.get("channel_stats") or {}
                ).get(channel.id)
                if shipped is None:
                    continue
                stats["enqueues"] += shipped["enqueues"]
                stats["dequeues"] += shipped["dequeues"]
                stats["peeks"] += shipped["peeks"]
                if shipped["max_real_occupancy"] > stats["max_real_occupancy"]:
                    stats["max_real_occupancy"] = shipped["max_real_occupancy"]
                if shipped.get("profile_log"):
                    log = (log or []) + list(shipped["profile_log"])
            send = next((e["send"] for e in entries if "send" in e), None)
            recv = next((e["recv"] for e in entries if "recv" in e), None)
            if send is not None:
                state["delta"] = send["delta"]
                state["resps"] = list(send["resps"])
                stats["enqueues"] += send["enqueues"]
            if recv is not None:
                state["data"] = list(recv["data"])
                stats["dequeues"] += recv["dequeues"]
                stats["peeks"] += recv["peeks"]
                if recv["max_real_occupancy"] > stats["max_real_occupancy"]:
                    stats["max_real_occupancy"] = recv["max_real_occupancy"]
                if recv["profile_log"]:
                    log = (log or []) + list(recv["profile_log"])
            # Finished flags: each side is authoritative for its own
            # endpoint; with the lanes drained both proxies agree, and a
            # missing side means that endpoint's cluster retired — i.e.
            # the endpoint finished.
            if send is not None:
                state["sender_finished"] = send["sender_finished"]
            elif recv is not None:
                state["sender_finished"] = recv["sender_finished"]
            elif entries or retired:
                state["sender_finished"] = True
            if recv is not None:
                state["receiver_finished"] = recv["receiver_finished"]
            elif send is not None:
                state["receiver_finished"] = send["receiver_finished"]
            elif entries or retired:
                state["receiver_finished"] = True
            if send is None and recv is None and retired:
                # Both endpoints retired: the queue is semantically
                # empty (whatever physically remains is dead letters of
                # a closed channel).
                state["data"] = []
                state["resps"] = []
                state["delta"] = 0
            state["profile_log"] = log
            channels[slot] = state

        placement: dict[str, int] = {}
        for spec in self._clusters:
            owner = self._claim.claimant(spec.index)
            if owner < 0:
                owner = spec.owner
            for slot in spec.contexts:
                placement[program.contexts[slot].name] = owner

        return _ckpt.Checkpoint.capture(
            program,
            self._epoch,
            records,
            metrics=None,
            placement=placement,
            executor=self._executor,
            channel_states=channels,
        )


# ----------------------------------------------------------------------
# The parent-side executor.
# ----------------------------------------------------------------------


@register_executor("process")
class ProcessExecutor(Executor):
    """Partition the program across forked workers; merge the results.

    Parameters
    ----------
    workers:
        Number of worker processes requested.  The partitioner may use
        fewer (e.g. a fully connected graph yields one group); empty
        groups spawn no process.
    policy:
        Scheduling policy for each worker's cooperative scheduler.  A
        finite timeslice is forced so shuttles are serviced at bounded
        intervals.
    weights:
        Optional per-channel traffic weights for the partitioner,
        typically :func:`~repro.core.executor.partition.channel_weights`
        from a profiling run of an identically-built program.
    pins:
        Manual placement: ``id(context) -> worker index``, merged over
        (and overriding) the program's builder-declared
        ``partition_pins``.  Pinning promises co-location/separation,
        not absolute worker numbering (empty groups are compacted).
        With ``steal=True`` pins bind the *initial* placement; a pinned
        cluster left cold may still be migrated to an idle worker.
    steal:
        Allow idle workers to claim (steal) cold clusters planned for
        other workers (default on).  Migration happens before a cluster
        starts running, so simulated results are unchanged;
        ``steal=False`` restores strict planned placement.
    pin_workers:
        Pin each worker process to a CPU set via ``os.sched_setaffinity``
        (default off).  Workers bridged by shuttles are kept on the same
        package (see :func:`~repro.core.executor.affinity.plan_affinity`).
    shuttle:
        ``"shm"`` (default) bridges cut channels with shared-memory SPSC
        rings; ``"pipe"`` uses ``multiprocessing.Pipe`` lanes (arbitrary
        record sizes, higher latency).
    ring_capacity / resp_ring_capacity:
        Bytes per cut channel's data / response ring in shm mode.
    deadlock_grace:
        Seconds every live worker must stay parked with frozen progress
        (and no cold cluster left) before the watchdog declares a global
        deadlock.
    max_ops:
        Per-worker safety valve (forwarded to each worker's scheduler).
    """

    name = "process"

    def __init__(
        self,
        workers: int = 2,
        policy: str | SchedulingPolicy = "fifo",
        max_ops: Optional[int] = None,
        obs: Optional[Observability] = None,
        weights: Optional[dict[str, float]] = None,
        pins: Optional[dict[int, int]] = None,
        balance: float = 1.2,
        steal: bool = True,
        pin_workers: bool = False,
        shuttle: str = "shm",
        ring_capacity: int = 1 << 20,
        resp_ring_capacity: int = 1 << 16,
        poll_interval: float = 0.0005,
        deadlock_grace: float = 0.5,
        timeslice: int = 1024,
        join_timeout: float = 5.0,
        deadline_s: Optional[float] = None,
        faults=None,
        metrics_interval_s: Optional[float] = None,
        metrics_sink=None,
        superblocks: Any = "auto",
        checkpoint_interval_s: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shuttle not in ("shm", "pipe"):
            raise ValueError(f"shuttle must be 'shm' or 'pipe', got {shuttle!r}")
        self.workers = workers
        self.policy_spec = policy
        self.policy = make_policy(policy)
        self.max_ops = max_ops
        self.obs = obs
        self.weights = weights
        self.pins = pins
        self.balance = balance
        self.steal = steal
        self.pin_workers = pin_workers
        self.shuttle = shuttle
        self.ring_capacity = ring_capacity
        self.resp_ring_capacity = resp_ring_capacity
        self.poll_interval = poll_interval
        self.deadlock_grace = deadlock_grace
        self.timeslice = timeslice
        self.join_timeout = join_timeout
        self.deadline_s = deadline_s
        self.faults = faults
        self.metrics_interval_s = metrics_interval_s
        self.metrics_sink = metrics_sink
        #: Superblock compilation mode for the worker-side schedulers
        #: ("on"/"off"/"auto"; DESIGN.md §15).  Workers compile each
        #: cluster at activation time, so stolen clusters recompile
        #: against their adopter's shared clock slots.
        self.superblocks = superblocks
        #: Checkpointing (DESIGN.md §17): when ``checkpoint_path`` is
        #: set, the parent coordinates quiescent cuts — workers pause,
        #: drain the shuttle lanes, dump partitions, and the parent
        #: stitches them into one on-disk checkpoint.
        self.checkpoint_interval_s = checkpoint_interval_s
        self.checkpoint_path = checkpoint_path
        #: Set by _collect when the run was aborted for its deadline, so
        #: _resolve_failures raises RunTimeoutError instead of reading the
        #: aborted workers' stalls as a deadlock.
        self._deadline_hit = False
        self.context_switches = 0
        self.wakeups = 0
        self.preemptions = 0
        self.ops_executed = 0
        self.steals = 0
        #: Cluster migrations performed by the last run (diagnostics):
        #: ``{"cluster", "from", "to", "contexts"}`` dicts.
        self.migrations: list[dict] = []
        #: The partition used by the last run (diagnostics).
        self.plan: Optional[PartitionPlan] = None
        #: The cluster refinement of the last run's partition.
        self.clusters: Optional[list[ClusterSpec]] = None

    # ------------------------------------------------------------------

    def execute(self, program: Program) -> RunSummary:
        start = _wallclock.perf_counter()
        if "fork" not in multiprocessing.get_all_start_methods():
            raise SimulationError(
                "<process-executor>",
                RuntimeError(
                    "the process executor requires the fork start method "
                    "(context generators cannot be pickled)"
                ),
            )
        mp_ctx = multiprocessing.get_context("fork")

        pins = dict(getattr(program, "partition_pins", None) or {})
        if self.pins:
            pins.update(self.pins)
        plan = plan_partition(
            program, self.workers, weights=self.weights,
            pins=pins or None, balance=self.balance,
        )
        self.plan = plan
        # Empty groups (fewer components than workers) spawn no process;
        # compaction preserves co-location and separation.
        groups = [group for group in plan.groups if group]
        compact: dict[int, int] = {}
        for worker, group in enumerate(plan.groups):
            if group:
                compact[worker] = len(compact)
        assignment = {
            ctx_id: compact[worker]
            for ctx_id, worker in plan.assignment.items()
        }
        clusters = plan_clusters(program, assignment)
        self.clusters = clusters

        # Resume bookkeeping: pop the records *before* forking so the
        # workers inherit them via options (never through the program
        # object, which a later fresh run would then misread).
        resume_records = program.__dict__.pop("_resume_records", None)
        resume_epoch = (
            getattr(program, "_resume_epoch", 0)
            if resume_records is not None
            else 0
        )
        if self.checkpoint_path is not None:
            _ckpt.validate_checkpointable(program)

        contexts = program.contexts
        layout = ArenaLayout()
        clocks_len = SharedClockArray.size_for(len(contexts))
        clocks_off = layout.reserve(clocks_len)
        status_len = StatusBoard.size_for(len(groups))
        status_off = layout.reserve(status_len)
        claim_len = ClaimBoard.size_for(len(clusters))
        claim_off = layout.reserve(claim_len)
        ckpt_len = ckpt_off = 0
        if self.checkpoint_path is not None:
            ckpt_len = CheckpointBoard.size_for(len(groups))
            ckpt_off = layout.reserve(ckpt_len)
        ring_offsets: list[tuple[int, int]] = []
        if self.shuttle == "shm":
            for _ in plan.cut:
                data_off = layout.reserve(ShmRing.size_for(self.ring_capacity))
                resp_off = layout.reserve(
                    ShmRing.size_for(self.resp_ring_capacity)
                )
                ring_offsets.append((data_off, resp_off))

        arena = SharedArena(layout.size)
        # Declared before the try so the wind-down in ``finally`` sees
        # whatever was spawned, on *every* exit path: a KeyboardInterrupt
        # (or any parent-side failure) must still terminate-then-join the
        # children and unlink the arena, or the host leaks processes and
        # /dev/shm segments.
        procs: list = []
        conns: dict = {}
        abort = None
        sampler = None
        self._deadline_hit = False
        try:
            clocks = arena.adopt(
                SharedClockArray(
                    arena.view(clocks_off, clocks_len), len(contexts)
                )
            )
            # Pre-publish every context's start time so cold contexts
            # read correctly through SharedTimeView before activation.
            for slot, ctx in enumerate(contexts):
                clocks.write(slot, float(ctx.time.now()))
            status = arena.adopt(
                StatusBoard(arena.view(status_off, status_len), len(groups))
            )
            claim = arena.adopt(
                ClaimBoard(arena.view(claim_off, claim_len), len(clusters))
            )
            for spec in clusters:
                claim.set_owner(spec.index, spec.owner)
            ckpt_board = None
            coordinator = None
            if self.checkpoint_path is not None:
                _ckpt.clean_stale_temps(self.checkpoint_path)
                ckpt_board = arena.adopt(
                    CheckpointBoard(
                        arena.view(ckpt_off, ckpt_len), len(groups)
                    )
                )
                interval = self.checkpoint_interval_s
                coordinator = _CkptCoordinator(
                    board=ckpt_board,
                    timer=_ckpt.CheckpointTimer(
                        0.0 if interval is None else interval,
                        start_epoch=resume_epoch,
                    ),
                    path=self.checkpoint_path,
                    program=program,
                    clusters=clusters,
                    claim=claim,
                    executor_name=self.name,
                )
            claim_lock = mp_ctx.Lock()
            shuttles: dict[int, ChannelShuttle] = {}
            for index, channel in enumerate(plan.cut):
                if self.shuttle == "shm":
                    data_off, resp_off = ring_offsets[index]
                    data_lane = arena.adopt(
                        ShmRing(
                            arena.view(
                                data_off, ShmRing.size_for(self.ring_capacity)
                            ),
                            self.ring_capacity,
                        )
                    )
                    resp_lane = arena.adopt(
                        ShmRing(
                            arena.view(
                                resp_off,
                                ShmRing.size_for(self.resp_ring_capacity),
                            ),
                            self.resp_ring_capacity,
                        )
                    )
                else:
                    data_lane = PipeLane(mp_ctx)
                    resp_lane = PipeLane(mp_ctx)
                shuttles[channel.id] = ChannelShuttle(
                    channel.id, data_lane, resp_lane
                )

            abort = mp_ctx.Event()
            faults = (
                self.faults.resolve(len(groups))
                if self.faults is not None
                else None
            )
            cpu_sets = None
            if self.pin_workers:
                peer_pairs = [
                    (
                        assignment[id(channel.sender_owner)],
                        assignment[id(channel.receiver_owner)],
                    )
                    for channel in plan.cut
                ]
                cpu_sets = plan_affinity(len(groups), peer_pairs)
            options = {
                "policy": self.policy_spec,
                "max_ops": self.max_ops,
                "steal": self.steal,
                "cpus": cpu_sets,
                "poll_interval": self.poll_interval,
                "timeslice": self.timeslice,
                "trace": self.obs is not None and self.obs.trace is not None,
                "metrics": self.obs is not None
                and self.obs.metrics is not None,
                "capture_payloads": (
                    self.obs.trace.capture_payloads
                    if self.obs is not None and self.obs.trace is not None
                    else False
                ),
                "faults": faults,
                "superblocks": self.superblocks,
                "checkpoint": (
                    {"board": ckpt_board, "dir": self.checkpoint_path}
                    if ckpt_board is not None
                    else None
                ),
                "resume_records": resume_records,
            }

            # Live metric streaming samples the *shared* clock slots from
            # the parent: workers publish their contexts' times to the
            # arena anyway, so the sampler adds zero work to any worker.
            sampler = self._start_sampler(
                self.metrics_interval_s,
                self._sampler_probe(contexts, clocks, status),
                self.metrics_sink,
            )

            for worker in range(len(groups)):
                parent_conn, child_conn = mp_ctx.Pipe(duplex=False)
                proc = mp_ctx.Process(
                    target=_worker_main,
                    args=(
                        worker, program, clusters, claim, claim_lock,
                        shuttles, arena, clocks, status, abort, child_conn,
                        options,
                    ),
                    name=f"dam-worker-{worker}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                procs.append(proc)
                conns[parent_conn] = worker

            payloads = self._collect(
                conns, status, abort, procs, claim, clusters, program, clocks,
                start, coordinator=coordinator,
            )
            self._resolve_failures(payloads, program, clocks, start)
            trace = self.obs.trace if self.obs is not None else None
            summary = RunSummary.merge(
                program,
                [payloads[worker] for worker in sorted(payloads)],
                trace=trace,
            )
        finally:
            # The sampler reads arena memory; stop it before the unmap.
            self._stop_sampler(sampler, self.obs)
            self._wind_down(procs, conns, abort)
            arena.close()
            arena.unlink()
            if self.checkpoint_path is not None:
                # A cancelled round (crash, deadline, abort) leaves its
                # partition dumps behind; with every worker wound down
                # it is now safe to sweep them.
                try:
                    _ckpt.clean_stale_temps(self.checkpoint_path)
                except OSError:  # pragma: no cover - directory vanished
                    pass

        self.context_switches += summary.context_switches
        self.wakeups += summary.wakeups
        self.preemptions += summary.preemptions
        self.ops_executed += summary.ops_executed
        self.steals += summary.steals
        self.migrations = [
            migration
            for worker in sorted(payloads)
            for migration in payloads[worker].get("migrations", ())
        ]
        # Observed placement: planned owners, overridden by every recorded
        # steal.  This is the feedback loop the planner consumes via
        # pins_from_placement() — without it, channel_weights-style
        # replanning keeps crediting stolen clusters to their original
        # owner and re-plans the same skew forever.
        placement = {
            program.contexts[slot].name: spec.owner
            for spec in clusters
            for slot in spec.contexts
        }
        for migration in self.migrations:
            for name in migration["contexts"]:
                placement[name] = migration["to"]
        summary.placement = placement
        summary.executor = self.name
        summary.policy = self.policy.name
        summary.real_seconds = _wallclock.perf_counter() - start
        summary.metrics = self._fold_metrics(program, plan, payloads)
        self._attach_profile(summary, program, self.obs)
        return summary

    def _sampler_probe(self, contexts, clocks: SharedClockArray, status: StatusBoard):
        """Read-only closure for the live sampler: every context's
        shared-memory clock slot, total worker progress, and the parent
        registry when metrics are enabled."""
        obs = self.obs
        registry = obs.metrics if obs is not None else None

        def probe() -> dict:
            progress, _states = status.snapshot()
            sample: dict = {
                "contexts": {
                    ctx.name: clocks.read(slot)
                    for slot, ctx in enumerate(contexts)
                },
                "progress": progress,
            }
            if registry is not None:
                sample["metrics"] = registry.snapshot()
            return sample

        return probe

    # ------------------------------------------------------------------

    def _collect(
        self, conns: dict, status: StatusBoard, abort, procs,
        claim: ClaimBoard, clusters: list[ClusterSpec], program: Program,
        clocks: SharedClockArray, start: float,
        coordinator: Optional[_CkptCoordinator] = None,
    ) -> dict:
        """Receive worker payloads; double as the crash supervisor, the
        deadline enforcer, and the global deadlock watchdog.

        Crash supervision is two-layered: a dead worker's result pipe hits
        EOF (its write end closes with the process), and its process
        sentinel fires — both are waited on, so a SIGKILLed worker is
        detected within one tick even if something keeps its pipe fd
        alive.  Either way the worker is recorded as ``"crashed"`` with
        its exit code, claimed contexts, and last-published clocks
        snapshotted off the shared boards while they are still mapped.
        """
        payloads: dict[int, dict] = {}
        pending = dict(conns)
        tick = max(self.poll_interval * 4, 0.01)
        deadline_at = (
            start + self.deadline_s if self.deadline_s is not None else None
        )
        abort_since: Optional[float] = None
        stable_since: Optional[float] = None
        last_total = -1
        while pending:
            sentinels = {
                procs[worker].sentinel: (conn, worker)
                for conn, worker in pending.items()
            }
            ready = _mpconn.wait(
                list(pending) + list(sentinels), timeout=tick
            )
            collected = False
            for item in ready or ():
                if item in pending:
                    conn, worker = item, pending[item]
                elif item in sentinels:
                    conn, worker = sentinels[item]
                    # The process died.  A final payload may still sit in
                    # the pipe (normal exit races its own sentinel); only
                    # an empty pipe means a crash, and recv below turns
                    # that into EOFError.
                else:
                    continue  # pragma: no cover - defensive
                if worker in payloads:
                    continue  # both wait objects fired for one worker
                pending.pop(conn, None)
                try:
                    payloads[worker] = conn.recv()
                except (EOFError, OSError):
                    payloads[worker] = self._crash_payload(
                        worker, procs, claim, clusters, program, clocks
                    )
                conn.close()
                collected = True
                if payloads[worker]["status"] not in ("ok", "aborted"):
                    abort.set()  # wind the surviving workers down
            if abort.is_set() and abort_since is None:
                abort_since = _wallclock.perf_counter()
            if coordinator is not None:
                if abort.is_set():
                    coordinator.cancel()
                else:
                    # A stitch failure raises out of here; the abort in
                    # between winds the workers down on the way out.
                    try:
                        coordinator.tick(set(pending.values()), payloads)
                    except BaseException:
                        abort.set()
                        raise
            if collected:
                stable_since = None
                last_total = -1
                continue
            now = _wallclock.perf_counter()
            if deadline_at is not None and not self._deadline_hit \
                    and now >= deadline_at:
                # Deadline: flip the abort switch and keep collecting —
                # workers park their state into "aborted" payloads
                # (stalls included) that feed the RunTimeoutError.
                self._deadline_hit = True
                abort.set()
                abort_since = now
                continue
            if abort_since is not None and (
                now - abort_since > self.join_timeout
            ):
                # Workers ignored the abort for a whole join_timeout
                # (wedged in uninterruptible state): stop waiting and
                # record them as crashed; _wind_down terminates them.
                for conn, worker in list(pending.items()):
                    payloads[worker] = self._crash_payload(
                        worker, procs, claim, clusters, program, clocks
                    )
                    pending.pop(conn)
                    conn.close()
                break
            # Nothing arrived this tick: check for a global deadlock.  A
            # run with cold (claimable) clusters left is never deadlocked
            # — some worker will claim one, and claiming bumps progress.
            total, states = status.snapshot()
            if coordinator is not None and coordinator.active:
                # Draining workers legitimately park with frozen
                # status-board progress; the watchdog must not read a
                # checkpoint round as a deadlock.
                stable_since = None
                last_total = total
                continue
            live = [states[w] for w in pending.values()]
            if live and all(s == WORKER_BLOCKED for s in live) \
                    and total == last_total and claim.cold_count() == 0:
                if stable_since is None:
                    stable_since = _wallclock.perf_counter()
                elif (
                    _wallclock.perf_counter() - stable_since
                    >= self.deadlock_grace
                ):
                    abort.set()
            else:
                stable_since = None
            last_total = total
        for proc in procs:
            proc.join(timeout=self.join_timeout)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        return payloads

    def _crash_payload(
        self, worker: int, procs, claim: ClaimBoard,
        clusters: list[ClusterSpec], program: Program,
        clocks: SharedClockArray,
    ) -> dict:
        """Post-mortem for a dead worker: exit code, the contexts it had
        claimed, and their last-published clocks (read off the shared
        boards before the arena is unlinked)."""
        proc = procs[worker]
        proc.join(timeout=0.2)  # give the exit code a beat to land
        contexts: list[str] = []
        clock_map: dict[str, float] = {}
        for spec in clusters:
            if claim.claimant(spec.index) != worker:
                continue
            for slot in spec.contexts:
                name = program.contexts[slot].name
                contexts.append(name)
                clock_map[name] = clocks.read(slot)
        return {
            "worker": worker, "status": "crashed", "error": None,
            "stalls": None, "exitcode": proc.exitcode,
            "contexts": contexts, "clocks": clock_map,
        }

    def _wind_down(self, procs, conns, abort) -> None:
        """Terminate-then-join every worker and close the parent pipe
        ends.  Runs in ``execute``'s finally on every exit path —
        KeyboardInterrupt included — so no exit can strand children (the
        shm segment unlink follows immediately after)."""
        if abort is not None:
            try:
                abort.set()
            except Exception:  # noqa: BLE001 - wind-down must not raise
                pass
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=self.join_timeout)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.kill()
                proc.join(timeout=1.0)
        for conn in conns:
            try:
                conn.close()
            except Exception:  # noqa: BLE001
                pass

    def _resolve_failures(
        self, payloads: dict, program: Program, clocks: SharedClockArray,
        start: float,
    ) -> None:
        """Raise the run's failure, if any: error > crash > timeout >
        deadlock."""
        for payload in payloads.values():
            if payload["status"] == "error":
                info = payload.get("error") or {}
                exc = unpack_exception(info)
                if isinstance(exc, SimulationError):
                    raise exc
                if isinstance(exc, DamError):
                    raise exc
                raise SimulationError(
                    f"<worker {payload['worker']}>", exc
                ) from exc
        for worker, payload in sorted(payloads.items()):
            if payload["status"] != "crashed":
                continue
            if self._deadline_hit and payload.get("exitcode") is None:
                # Not a real death: the deadline abort's escape hatch
                # force-recorded a worker that ignored the abort flag for a
                # whole join_timeout (it was still alive — no exit code).
                # That is the *timeout's* collateral, not a crash.
                continue
            error = WorkerCrashError(
                worker,
                exitcode=payload.get("exitcode"),
                contexts=payload.get("contexts"),
                clocks=payload.get("clocks"),
            )
            self._report_supervisor_event("crash", error)
            raise error
        if any(
            payload["status"] in ("stalled", "aborted")
            for payload in payloads.values()
        ):
            stalls = []
            for payload in payloads.values():
                if payload.get("stalls"):
                    stalls.extend(payload["stalls"])
            report = StallReport(stalls)
            if self.obs is not None:
                self.obs.stall_report = report
            if self._deadline_hit:
                error = self._timeout_failure(payloads, program, clocks,
                                              report, start)
                self._report_supervisor_event("timeout", error)
                raise error
            raise DeadlockError(report.lines())
        if self._deadline_hit:
            # Reached when every worker either raced to completion as the
            # deadline fired or was force-recorded by the escape hatch.
            error = self._timeout_failure(
                payloads, program, clocks, StallReport([]), start
            )
            self._report_supervisor_event("timeout", error)
            raise error

    def _timeout_failure(
        self, payloads: dict, program: Program, clocks: SharedClockArray,
        report: StallReport, start: float,
    ) -> RunTimeoutError:
        """Build the deadline abort without mutating ``program``: finish
        times come from the aborted workers' harvests, everything else
        from the shared clock board (a lower bound on each context)."""
        finish: dict[int, Any] = {}
        ops = 0
        for payload in payloads.values():
            for slot, t in payload.get("finish_times", {}).items():
                if t is not None:
                    finish[slot] = t
            ops += payload.get("counters", {}).get("ops_executed", 0)
        context_times = {
            ctx.name: finish.get(slot, clocks.read(slot))
            for slot, ctx in enumerate(program.contexts)
        }
        summary = RunSummary(
            elapsed_cycles=max(finish.values(), default=0),
            real_seconds=_wallclock.perf_counter() - start,
            context_times=context_times,
            executor=self.name,
            policy=self.policy.name,
            ops_executed=ops,
        )
        return RunTimeoutError(
            self.deadline_s,
            executor=self.name,
            summary=summary,
            stall_report=report,
        )

    def _report_supervisor_event(self, kind: str, error) -> None:
        """Feed the failure into the run's observability: a supervisor
        pseudo-buffer event in the trace merge, a crash report on the
        obs handle, and a counter in the metrics registry."""
        if self.obs is None:
            return
        if kind == "crash":
            self.obs.crash_report = error
        if self.obs.metrics is not None:
            name = "worker_crashes" if kind == "crash" else "run_timeouts"
            self.obs.metrics.counter(name).inc()
        if self.obs.trace is not None:
            payload: dict[str, Any] = {"error": str(error)}
            if kind == "crash":
                payload.update(
                    worker=error.worker,
                    exitcode=error.exitcode,
                    contexts=list(error.contexts),
                )
            self.obs.trace.buffer("<supervisor>").append(
                kind, None, 0, payload
            )

    def _fold_metrics(
        self, program: Program, plan: PartitionPlan, payloads: dict
    ) -> Optional[dict]:
        if self.obs is None or self.obs.metrics is None:
            return None
        registry = self.obs.metrics
        fold_channel_metrics(registry, program.channels)
        for payload in payloads.values():
            for slot, tallies in payload.get("context_stats", {}).items():
                ctx = program.contexts[slot]
                fold_context_metrics(
                    registry,
                    ctx.name,
                    ops=tallies["ops"],
                    finish_time=ctx.finish_time,
                    wall_seconds=tallies["wall"],
                )
        registry.counter("executor_context_switches").inc(self.context_switches)
        registry.counter("executor_wakeups").inc(self.wakeups)
        registry.counter("executor_preemptions").inc(self.preemptions)
        registry.counter("executor_ops").inc(self.ops_executed)
        registry.gauge("process_workers").set(plan.workers_used)
        registry.gauge("process_cut_channels").set(len(plan.cut))
        registry.counter("process_steals").inc(self.steals)
        registry.counter("process_migrated_contexts").inc(
            sum(len(m["contexts"]) for m in self.migrations)
        )
        return registry.snapshot()
