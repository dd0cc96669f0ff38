"""No wall-clock floor in the threaded runtime.

The supervisor sleeps on an event that the last finishing context sets,
aborts and checkpoint pauses wake parked threads directly, and idle
cluster drivers wake on the clocks they wait for.  So ``poll_interval``
is only the cadence of the deadlock and deadline checks: with it set to
5 s, each timed run below must still return in well under a second.  A
run that waited out even one poll interval fails by a wide margin.  The
last test checks the other side: with the checkpointer folded into the
supervisor, back-to-back pause rounds no longer hide a deadlock.
"""

import sys
import time

import pytest

from repro import (
    Context,
    DeadlockError,
    IncrCycles,
    ProgramBuilder,
    RunConfig,
    WaitUntil,
)
from repro.contexts import Collector, IterableSource, UnaryFunction
from repro.core import checkpoint as ckpt

SLOW_POLL = 5.0
BUDGET_S = 1.0
EXECUTORS = ["threaded", "free-threaded"]


def _pipeline(tokens=1, first_delay_s=0.0):
    """source -> +1 -> *2 -> sink over depth-1 channels.  The +1 stage
    can spend ``first_delay_s`` of host time on the first token."""

    def inc(x):
        if x == 0:
            time.sleep(first_delay_s)
        return x + 1

    builder = ProgramBuilder()
    links = [builder.bounded(1, latency=1) for _ in range(3)]
    builder.add(IterableSource(links[0][0], list(range(tokens))))
    builder.add(UnaryFunction(links[0][1], links[1][0], inc))
    builder.add(UnaryFunction(links[1][1], links[2][0], lambda x: x * 2))
    sink = builder.add(Collector(links[2][1]))
    return builder.build(), sink


def _timed_run(program, executor, **config):
    start = time.perf_counter()
    summary = program.run(
        executor, config=RunConfig(poll_interval=SLOW_POLL, **config)
    )
    return summary, time.perf_counter() - start


@pytest.mark.parametrize("executor", EXECUTORS)
def test_one_token_pipeline(executor):
    if executor == "free-threaded":
        from repro.core.executor.freethreaded import FreeThreadedExecutor

        if not FreeThreadedExecutor.parallel_capable():
            pytest.skip("GIL build: free-threaded falls back to another runtime")
    program, sink = _pipeline()
    summary, seconds = _timed_run(program, executor)
    assert sink.values == [2]
    assert summary.executor == executor
    assert seconds < BUDGET_S


def test_back_to_back_checkpoints(tmp_path):
    """Interval 0 pauses every thread over and over; each pause must wake
    the parked ones instead of waiting for their park to time out.  The
    first-token delay keeps the run alive until the supervisor's first
    round is under way, so at least one capture is certain."""
    program, sink = _pipeline(tokens=8, first_delay_s=0.05)
    _, seconds = _timed_run(
        program,
        "threaded",
        checkpoint_interval_s=0.0,
        checkpoint_path=str(tmp_path),
    )
    assert sink.values == [2 * (x + 1) for x in range(8)]
    assert ckpt.list_checkpoints(str(tmp_path))
    assert seconds < BUDGET_S


@pytest.mark.parametrize("checkpoint", [False, True])
def test_no_lost_wakeup_under_fast_switching(tmp_path, checkpoint):
    """Four threads on fewer cores, switching every 10 us: a wake lost
    between a park's registration and its wait would cost a 5 s poll."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for rep in range(3):
            program, sink = _pipeline(tokens=30)
            config = {}
            if checkpoint:
                config = dict(
                    checkpoint_interval_s=0.0,
                    checkpoint_path=str(tmp_path / str(rep)),
                )
            _, seconds = _timed_run(program, "threaded", **config)
            assert sink.values == [2 * (x + 1) for x in range(30)]
            assert seconds < BUDGET_S
    finally:
        sys.setswitchinterval(previous)


def test_metrics_sampler():
    program, sink = _pipeline()
    samples = []
    _, seconds = _timed_run(
        program, "threaded", metrics_interval_s=0.5, metrics_sink=samples.append
    )
    assert sink.values == [2]
    assert samples  # the final sample is taken at shutdown
    assert seconds < BUDGET_S


class _Clock(Context):
    """An unclustered context (no channels, so its own thread) whose
    clock moves only after a host-time delay, so the cluster waiting on
    it has gone idle by then."""

    def run(self):
        time.sleep(0.05)
        yield IncrCycles(100)


class _Gated(Context):
    def __init__(self, peer, out):
        super().__init__()
        self.peer, self.out = peer, out
        self.register(out)

    def run(self):
        now = yield WaitUntil(self.peer, 100)
        yield self.out.enqueue(now)


def test_cold_cluster_woken_by_foreign_clock():
    """A two-member cluster runs on one driver thread; its only way
    forward is the foreign clock passing the WaitUntil threshold."""
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(1)
    clock = builder.add(_Clock())
    builder.add(_Gated(clock, snd))
    sink = builder.add(Collector(rcv))
    summary, seconds = _timed_run(builder.build(), "threaded", superblocks="on")
    assert len(sink.values) == 1 and sink.values[0] >= 100
    assert summary.context_times[clock.name] == 100
    assert seconds < BUDGET_S


def test_deadlock_detected_between_back_to_back_checkpoints(tmp_path):
    """Pause rounds hold every thread still on purpose; a round in which
    every live thread acknowledged from a blocked op counts as a stalled
    observation, so a real deadlock is still diagnosed."""
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(1)
    s2, r2 = builder.bounded(1)
    builder.add(UnaryFunction(r1, s2, lambda x: x, name="ring_a"))
    builder.add(UnaryFunction(r2, s1, lambda x: x, name="ring_b"))
    with pytest.raises(DeadlockError) as info:
        builder.build().run(
            "threaded",
            config=RunConfig(
                poll_interval=0.01,
                deadlock_grace=0.2,
                checkpoint_interval_s=0.0,
                checkpoint_path=str(tmp_path),
            ),
        )
    assert "ring_a" in str(info.value) and "ring_b" in str(info.value)
