"""The four workloads: set-up, references, warm-up, then a measured window.

A kernel workload times *passes*: one pass builds and runs every program
of the workload once, and its latency is the summed ``Program.run``
time.  ``serve_mix`` times served requests, in segments.  After its
window each workload runs a profiled pass, in ``PROFILE_ROUNDS`` rounds:
its programs on ``sequential``, each once plain and once with an
:class:`~repro.obs.Observability` recording a trace and the
critical-path profile.

The host-speed loop (:mod:`hostspeed`) runs before every set-up
repetition, between passes and between serve segments, so each pass or
request is paired with the host speed measured around it.  That speed
only stands for work done in this process: ``Measured.in_process`` says
whether the measured passes or requests were.

In a traced run (``--trace 1``) every other pass or request records
spans and the rest do not, so the two halves give the tracing overhead.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.api import ProgramSpec, ServeClient

from hostspeed import NOMINAL_S, calibrate
from inputs import Case
from kernels import Ledger, build, encode, reference_cycles, run_case
from serving import REQUEST_TIMEOUT_S, Request, ServerProcess, closed_loop
from spans import Spans

#: Timed set-up repetitions, after one untimed warm-up repetition.
SETUP_REPS = 15
SERVE_SETUP_REPS = 7
MIN_PASSES = 5
#: Rounds of the profiled pass; the metric is the median round's rate.
PROFILE_ROUNDS = 3
MIN_REQUESTS = 100
SERVE_SEGMENTS = 10
#: One warm-up request per (graph, executor) of the serve pool.
SERVE_WARMUP = 9


@dataclass
class Measured:
    """Raw timings of one run, before they become metrics."""

    #: Each timed set-up repetition as (seconds, slowdown around it).
    setup: list[tuple[float, float]] = field(default_factory=list)
    #: Latency of each pass or served request, seconds.
    latencies: list[float] = field(default_factory=list)
    #: Simulated ops of each pass or request.
    ops: list[int] = field(default_factory=list)
    #: Whether that pass or request recorded spans.
    traced: list[bool] = field(default_factory=list)
    #: Host slowdown against nominal measured around that pass or request.
    slowdowns: list[float] = field(default_factory=list)
    #: Every host-speed loop time taken during the run.
    calibrations: list[float] = field(default_factory=list)
    #: Wall time of each measured serve segment, and its slowdown.
    segments: list[tuple[float, float]] = field(default_factory=list)
    #: Each profiled run as (round, ops, seconds, slowdown around it).
    profiled: list[tuple[int, int, float, float]] = field(default_factory=list)
    #: Whether the measured passes or requests ran in this process (on
    #: ``sequential``), so the host speed measured here applies to them.
    in_process: bool = True
    #: Sequential ``elapsed_cycles`` of every program: simulated results
    #: that must repeat exactly from commit to commit.
    cycles: dict[str, int] = field(default_factory=dict)
    #: ``/metrics`` payloads before and after the measured serve loop.
    serve_metrics: Optional[tuple[dict[str, Any], dict[str, Any]]] = None

    def calibrate(self) -> float:
        self.calibrations.append(calibrate())
        return self.calibrations[-1]


def profile_pass(
    programs: list[tuple[Case, ProgramSpec, int]],
    spans: Spans,
    ledger: Ledger,
    out: Measured,
    rounds: int = PROFILE_ROUNDS,
) -> None:
    if not programs or not rounds:
        return
    case, spec, cycles = programs[0]  # loads the profiler before timing
    run_case(case, spec, spans, ledger, cycles, "sequential", profiled=True, phase="warmup")
    for round_index in range(rounds):
        for case, spec, cycles in programs:
            gc.collect()
            run_case(case, spec, spans, ledger, cycles, executor="sequential", phase="profile")
            gc.collect()
            before = out.calibrate()
            run = run_case(
                case, spec, spans, ledger, cycles, "sequential", profiled=True, phase="profile"
            )
            after = out.calibrate()
            if run is not None:
                slowdown = (before + after) / 2 / NOMINAL_S
                out.profiled.append((round_index, run.ops, run.seconds, slowdown))


def kernel_workload(
    cases: list[Case], profiled: list[str], seconds: float, spans: Spans, ledger: Ledger
) -> Measured:
    """``profiled`` names the cases of one round of the profiled pass."""
    out = Measured(in_process=all(case.executor == "sequential" for case in cases))
    for rep in range(SETUP_REPS + 1):
        gc.collect()  # every repetition starts from the same heap state
        before = out.calibrate()
        with spans.span("setup"):
            start = time.perf_counter()
            specs = {case.name: encode(case, spans) for case in cases}
            for case in cases:
                build(specs[case.name], spans, case.name)
            seconds_taken = time.perf_counter() - start
        if rep:
            out.setup.append((seconds_taken, (before + out.calibrate()) / 2 / NOMINAL_S))

    cycles = out.cycles = reference_cycles(cases, specs, spans, ledger)
    if any(case.executor != "sequential" for case in cases):
        for case in cases:  # first forks and shuttle set-up, untimed
            run_case(case, specs[case.name], spans, ledger, cycles[case.name], phase="warmup")

    tracing = spans.enabled
    deadline = time.perf_counter() + seconds
    index = 0
    before = out.calibrate()
    while index < MIN_PASSES or time.perf_counter() < deadline:
        spans.enabled = tracing and index % 2 == 1
        gc.collect()
        with spans.span("pass", index=index):
            runs = [
                run_case(case, specs[case.name], spans, ledger, cycles[case.name])
                for case in cases
            ]
        after = out.calibrate()
        if all(run is not None for run in runs):
            out.latencies.append(sum(run.seconds for run in runs))
            out.ops.append(sum(run.ops for run in runs))
            out.traced.append(spans.enabled)
            out.slowdowns.append((before + after) / 2 / NOMINAL_S)
        spans.enabled = tracing
        before = after
        index += 1
    # Last, so the trace it holds never inflates forked workers' memory.
    by_name = {case.name: case for case in cases}
    profile_pass(
        [(by_name[name], specs[name], cycles[name]) for name in profiled], spans, ledger, out
    )
    return out


def serve_workload(
    pool: list[tuple[str, Case]],
    order: list[int],
    seconds: float,
    spans: Spans,
    ledger: Ledger,
    src_dir: str,
    log_path: str,
    min_requests: int = MIN_REQUESTS,
    setup_reps: int = SERVE_SETUP_REPS,
    profile_rounds: int = PROFILE_ROUNDS,
) -> Measured:
    """Set up (encode the pool, start the server) ``setup_reps`` times
    after one untimed warm-up, keep the last server, and drive the
    closed loop against it in ``SERVE_SEGMENTS`` segments, sending pool
    entries in ``order``.  Each round of the profiled pass runs each
    distinct request shape once."""
    out = Measured(in_process=False)
    server: Optional[ServerProcess] = None
    try:
        for rep in range(setup_reps + 1):
            if server is not None:
                ledger.check(server.stop() == 0, "repro.serve did not exit cleanly")
            server = ServerProcess(src_dir, log_path)
            gc.collect()
            before = out.calibrate()
            with spans.span("setup"):
                start = time.perf_counter()
                requests = [Request(tenant, case, encode(case, spans)) for tenant, case in pool]
                with spans.span("serve.start"):
                    address = server.start()
                seconds_taken = time.perf_counter() - start
            if rep:
                out.setup.append((seconds_taken, (before + out.calibrate()) / 2 / NOMINAL_S))

        for index, request in enumerate(requests):
            run = run_case(
                request.case, request.spec, spans, ledger, executor="sequential", phase="reference"
            )
            request.cycles = run.cycles if run is not None else -1
            out.cycles[f"{index}:{request.case.name}"] = request.cycles
        closed_loop(address, requests, 0.0, SERVE_WARMUP, Spans(False), ledger)
        schedule = [requests[index] for index in order]
        with ServeClient(address, timeout=REQUEST_TIMEOUT_S) as client:
            before_metrics = client.metrics()
            sent = SERVE_WARMUP
            before = out.calibrate()
            for _ in range(SERVE_SEGMENTS):
                loop = closed_loop(
                    address,
                    schedule,
                    seconds / SERVE_SEGMENTS,
                    -(-min_requests // SERVE_SEGMENTS),
                    spans,
                    ledger,
                    first_index=sent,
                )
                sent += loop.sent
                after = out.calibrate()
                slowdown = (before + after) / 2 / NOMINAL_S
                out.latencies += loop.latencies
                out.ops += loop.ops
                out.traced += loop.traced
                out.slowdowns += [slowdown] * len(loop.latencies)
                out.segments.append((loop.wall_s, slowdown))
                before = after
                if loop.aborted:
                    break
            out.serve_metrics = (before_metrics, client.metrics())
    finally:
        if server is not None:
            ledger.check(server.stop() == 0, "repro.serve did not exit cleanly")
    distinct: dict[str, Request] = {}
    for request in requests:
        distinct.setdefault(request.spec.shape_key(), request)
    profile_pass(
        [(r.case, r.spec, r.cycles) for r in distinct.values()], spans, ledger, out, profile_rounds
    )
    return out
