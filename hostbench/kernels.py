"""Build, run and check kernel programs through the public API.

Every run goes ``ProgramSpec.from_graph_inputs`` -> ``spec.build()`` ->
``Program.run(executor, config=RunConfig(...))``.  Only the
``Program.run`` call is timed; building, partition planning and the
correctness check sit outside it.  Each run is checked against the numpy
dense reference and against the ``elapsed_cycles`` of a sequential run
of the same input, and every check lands in the :class:`Ledger`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro import Observability, plan_clusters, plan_partition
from repro.api import ProgramSpec

from inputs import Case
from spans import Spans


@dataclass
class Ledger:
    """Attempted and failed checks; a failure keeps its reason.  Serve
    clients check from several threads, hence the lock."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.reasons.append(what)
        return ok


@dataclass
class Run:
    seconds: float
    ops: int
    cycles: int


def encode(case: Case, spans: Spans) -> ProgramSpec:
    with spans.span("spec.encode", program=case.name):
        return ProgramSpec.from_graph_inputs(
            case.graph,
            case.tensors,
            params=case.params,
            config=case.config,
            executor=case.executor,
        )


def build(spec: ProgramSpec, spans: Spans, name: str):
    with spans.span("spec.build", program=name):
        return spec.build()


def results_match(actual: np.ndarray, expected: np.ndarray) -> bool:
    return actual.shape == expected.shape and bool(
        np.allclose(actual, expected, rtol=1e-9, atol=1e-12)
    )


def run_case(
    case: Case,
    spec: ProgramSpec,
    spans: Spans,
    ledger: Ledger,
    ref_cycles: Optional[int] = None,
    executor: Optional[str] = None,
    profiled: bool = False,
    phase: str = "measure",
) -> Optional[Run]:
    """Build ``spec``, run it once and check it into ``ledger``; ``None``
    if building or running raised.

    ``ref_cycles`` is the sequential ``elapsed_cycles`` of the same
    input; when given, the run's cycles must equal it.  ``profiled`` attaches an
    :class:`Observability` recording a trace and the critical-path
    profile.
    """
    executor = executor or case.executor
    label = f"{case.name}/{executor}{'/profiled' if profiled else ''}"
    config = spec.run_config().replace(superblocks="auto")
    name = "run.profiled" if profiled else f"run.{executor}"
    counters: dict[str, Any] = {}
    plan = None
    try:  # any failure to build or run counts, typed or not
        built = build(spec, spans, case.name)
        program = built.program
        if spans.enabled:
            counters["cold_clusters"] = sum(
                1
                for cluster in plan_clusters(program, {id(ctx): 0 for ctx in program.contexts})
                if cluster.size >= 2
            )
            if executor == "process":
                with spans.span("partition.plan", program=case.name):
                    plan = plan_partition(program, config.workers)
        obs = Observability() if profiled else None
        with spans.span(name, program=case.name, phase=phase) as attrs:
            start = time.perf_counter()
            summary = program.run(executor, config=config, obs=obs)
            seconds = time.perf_counter() - start
    except Exception as exc:
        ledger.check(False, f"{label}: {type(exc).__name__}: {exc}")
        return None
    if spans.enabled:
        stats = [channel.stats for channel in program.channels]
        attrs.update(
            counters,
            ops=summary.ops_executed,
            switches=summary.context_switches,
            wakeups=summary.wakeups,
            steals=summary.steals,
            transitions=sum(s.enqueues + s.dequeues + s.peeks for s in stats),
        )
        if plan is not None:
            attrs["cut_channels"] = len(plan.cut)
            attrs["cut_records"] = sum(ch.stats.enqueues for ch in plan.cut)
    ledger.check(
        results_match(built.result_dense(), case.expected),
        f"{label}: result differs from the numpy reference",
    )
    if ref_cycles is not None:
        ledger.check(
            summary.elapsed_cycles == ref_cycles,
            f"{label}: {summary.elapsed_cycles} cycles, sequential gave {ref_cycles}",
        )
    if profiled:
        ledger.check(summary.profile is not None, f"{label}: no profile attached")
    return Run(seconds, summary.ops_executed, summary.elapsed_cycles)


def reference_cycles(
    cases: list[Case], specs: dict[str, ProgramSpec], spans: Spans, ledger: Ledger
) -> dict[str, int]:
    """Run every case once on ``sequential``: the cycle reference that
    every other executor must match (also the warm-up of lazy imports)."""
    cycles: dict[str, int] = {}
    for case in cases:
        run = run_case(
            case, specs[case.name], spans, ledger, executor="sequential", phase="reference"
        )
        # A failed reference leaves no cycles to match, so every later
        # run of the case fails its cycle check as well.
        cycles[case.name] = run.cycles if run is not None else -1
    return cycles
