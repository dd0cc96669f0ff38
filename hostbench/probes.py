"""Small layer probes for the traced run.

* The fixed-overhead probe times ``Program.run`` of a 4-context,
  1-token pipeline on ``sequential``, ``threaded`` and ``process``:
  nearly all of that time is the executor's per-run cost.
* The transport probe runs one sparse-MHA pipeline that the partitioner
  must cut across two workers, on ``sequential`` and on ``process``.
  Workloads that never run the process executor take their
  ``process.*`` and ``partition.*`` numbers from it.
"""

from __future__ import annotations

import time

import numpy as np

from repro import ProgramBuilder
from repro.api import RunConfig
from repro.contexts import Collector, IterableSource, UnaryFunction

from inputs import parallel_mha_case
from kernels import Ledger, encode, run_case
from spans import Spans

OVERHEAD_EXECUTORS = ("sequential", "threaded", "process")


def one_token_pipeline():
    """source -> +1 -> *2 -> sink, one token, depth-1 channels."""
    builder = ProgramBuilder()
    links = [builder.bounded(1, latency=1, name=f"probe{i}") for i in range(3)]
    builder.add(IterableSource(links[0][0], [1], name="probe_src"))
    builder.add(UnaryFunction(links[0][1], links[1][0], lambda x: x + 1, name="probe_inc"))
    builder.add(UnaryFunction(links[1][1], links[2][0], lambda x: x * 2, name="probe_dbl"))
    sink = builder.add(Collector(links[2][1], name="probe_sink"))
    return builder.build(), sink


def overhead_probe(spans: Spans, ledger: Ledger, reps: int = 5) -> None:
    """One untimed warm-up, then ``reps`` runs per executor, interleaved."""
    config = RunConfig(workers=2)
    for rep in range(reps + 1):
        for executor in OVERHEAD_EXECUTORS:
            program, sink = one_token_pipeline()
            start = time.perf_counter()
            try:
                program.run(executor, config=config)
            except Exception as exc:  # counted, never fatal
                ledger.check(False, f"overhead/{executor}: {type(exc).__name__}: {exc}")
                continue
            seconds = time.perf_counter() - start
            if ledger.check(sink.values == [4], f"overhead/{executor}: got {sink.values}") and rep:
                spans.add(f"overhead.{executor}", start, start + seconds)


def transport_probe(spans: Spans, ledger: Ledger, seed: int, reps: int = 2) -> None:
    case = parallel_mha_case(np.random.default_rng(seed), 2, 16, 1, workers=2)
    spec = encode(case, spans)
    reference = run_case(case, spec, spans, ledger, executor="sequential", phase="reference")
    cycles = reference.cycles if reference is not None else -1
    run_case(case, spec, spans, ledger, cycles, executor="process", phase="warmup")
    for _ in range(reps):
        run_case(case, spec, spans, ledger, cycles, executor="sequential")
        run_case(case, spec, spans, ledger, cycles, executor="process")
