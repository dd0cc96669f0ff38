"""Tests for simulation tracing."""

from repro.core import ProgramBuilder, SequentialExecutor
from repro.contexts import Collector, RampSource, UnaryFunction
from repro.obs import Observability


def traced_pipeline(n=5, capture_payloads=False):
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(4, name="raw")
    s2, r2 = builder.bounded(4, name="doubled")
    builder.add(RampSource(s1, n, name="src"))
    builder.add(UnaryFunction(r1, s2, lambda x: 2 * x, name="double"))
    builder.add(Collector(r2, name="sink"))
    obs = Observability(metrics=False, capture_payloads=capture_payloads)
    SequentialExecutor(obs=obs).execute(builder.build())
    return obs.trace


class TestTracer:
    def test_records_channel_ops(self):
        tracer = traced_pipeline()
        assert len(tracer.for_channel("raw")) == 10  # 5 enqueues + 5 dequeues
        assert len(list(tracer.kinds("enqueue"))) == 10  # both channels

    def test_events_carry_context_names(self):
        tracer = traced_pipeline()
        assert {event.context for event in tracer} == {"src", "double", "sink"}

    def test_payloads_off_by_default(self):
        tracer = traced_pipeline()
        assert all(event.payload is None for event in tracer)

    def test_payloads_captured_when_enabled(self):
        tracer = traced_pipeline(capture_payloads=True)
        dequeued = [
            event.payload
            for event in tracer.for_channel("doubled")
            if event.kind == "dequeue"
        ]
        assert dequeued == [0, 2, 4, 6, 8]

    def test_completion_times_nondecreasing(self):
        tracer = traced_pipeline(n=20)
        times = tracer.completion_times("doubled")
        assert len(times) == 20
        assert times == sorted(times)

    def test_for_context_filter(self):
        tracer = traced_pipeline()
        src_events = tracer.for_context("src")
        assert src_events
        assert all(event.context == "src" for event in src_events)

    def test_advance_events_recorded(self):
        tracer = traced_pipeline()
        assert any(event.kind == "advance" for event in tracer)

    def test_tracing_does_not_change_results(self):
        from repro.contexts import Checker

        builder = ProgramBuilder()
        s1, r1 = builder.bounded(2)
        builder.add(RampSource(s1, 6))
        builder.add(Checker(r1, list(range(6))))
        untraced = SequentialExecutor().execute(builder.build())

        builder2 = ProgramBuilder()
        s2, r2 = builder2.bounded(2)
        builder2.add(RampSource(s2, 6))
        builder2.add(Checker(r2, list(range(6))))
        traced = SequentialExecutor(obs=Observability()).execute(
            builder2.build()
        )
        assert traced.elapsed_cycles == untraced.elapsed_cycles
