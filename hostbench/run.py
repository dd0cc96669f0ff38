"""Layered host-time benchmark for the repro DAM simulator.

Usage (from the root of a checkout)::

    python3 hostbench/run.py --workload stream_seq --seed 1 --seconds 10 --trace 0

Workloads: ``stream_seq``, ``lockstep_seq``, ``parallel_proc`` and
``serve_mix`` (see ``BENCHMARK.json`` for why each was chosen and
``hostbench/layers.json`` for which layer metric should move which
end-to-end metric).  The program is driven only through its public
surface: ``ProgramSpec``, ``Program.run(executor, config=RunConfig(...))``,
``plan_partition`` / ``plan_clusters`` and ``python -m repro.serve`` with
``ServeClient``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records spans
around every layer call, adds the layer probes and prints the per-layer
metrics.  Either way every output is checked, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``fail_frac`` is ``failed / attempted``.
Host times and rates of work done in this process are reported at a
nominal host speed (see ``hostspeed.py``).  The line before the result
carries the stamp (git rev, CPU count, Python version, seed), the sample
counts, the host slowdown and the raw metrics; the same record, with
every sample, and in a traced run the spans, are written to
``hostbench/results/``.  Every process a run starts is stopped and
waited for before the result is printed.
"""

from __future__ import annotations

import argparse
import ctypes
import faulthandler
import glob
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
#: A run still going after this long dumps every thread's stack to
#: stderr, so a hang inside the program under test can be located.
HANG_DUMP_S = 150
#: How long processes get to end by themselves before they are killed.
STOP_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36

WORKLOADS = ("stream_seq", "lockstep_seq", "parallel_proc", "serve_mix")

#: name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "profiled_ops_per_s": "1/s",
    "req_ms_p50": "ms",
    "req_ms_p90": "ms",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "channel.transitions": "count",
    "channel.parks_per_transition": "ratio",
    "sequential.ns_per_op": "ns",
    "sequential.switches_per_op": "ratio",
    "sequential.overhead_ms": "ms",
    "superblock.cold_clusters": "count",
    "threaded.overhead_ms": "ms",
    "process.ns_per_op": "ns",
    "process.cut_channels": "count",
    "process.cut_records_per_s": "1/s",
    "process.steals": "count",
    "process.overhead_ms": "ms",
    "partition.plan_ms": "ms",
    "spec.build_ms": "ms",
    "spec.encode_ms": "ms",
    "serve.accept_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.server_run_ms": "ms",
    "serve.plan_hit_ratio": "ratio",
    "serve.coalesced_ratio": "ratio",
    "serve.shed": "count",
    "obs.profiled_over_plain": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.fail_frac": "ratio",
}


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def live_children() -> list[int]:
    """Pids of this process's live (or unreaped) children, except the
    multiprocessing resource tracker, which lives as long as we do."""
    multiprocessing.active_children()  # joins finished multiprocessing children
    pids: list[int] = []
    for pid in _child_pids():
        if _ended(pid):  # an adopted orphan that has exited: reap it
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        elif "resource_tracker" not in _cmdline(pid):
            pids.append(pid)
    return pids


def _ended(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            return handle.read().rpartition(")")[2].split()[0] in ("Z", "X")
    except (OSError, IndexError):  # reaped meanwhile
        return True


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().decode(errors="replace")
    except OSError:  # exited meanwhile
        return ""


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts, so a
    grandchild whose parent exits (the server's resource tracker, say) is
    reparented here and can be waited for instead of outliving the run."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1)
    except (OSError, AttributeError):
        pass


def _child_pids() -> list[int]:
    pids: list[int] = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path, encoding="ascii") as handle:
            pids.extend(int(pid) for pid in handle.read().split())
    return pids


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The multiprocessing resource tracker is told to exit by closing its
    pipe (left alone it would outlive us for a moment); every other child
    and adopted orphan gets ``STOP_GRACE_S`` to end and is then killed."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + STOP_GRACE_S
    while True:
        _reap()
        pids = _child_pids()
        if not pids:
            return
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


def check_leaks(shm_before: set[str], ledger) -> None:
    """No live children and no new shared-memory segments once the
    workload is done; workers may take a moment to exit."""
    deadline = time.monotonic() + 10.0
    while (live_children() or shm_segments() - shm_before) and time.monotonic() < deadline:
        time.sleep(0.05)
    ledger.check(not live_children(), f"leaked child processes {live_children()}")
    leaked = sorted(shm_segments() - shm_before)
    ledger.check(not leaked, f"leaked shm segments {leaked}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(args, spans, ledger):
    import numpy as np

    import inputs
    import probes
    import workloads

    rng = np.random.default_rng(args.seed)
    log_path = str(RESULTS / f"server-{args.workload}-seed{args.seed}.log")
    if args.workload in ("stream_seq", "lockstep_seq"):
        depth = 16 if args.workload == "stream_seq" else 1
        cases = inputs.kernel_mix(rng, depth, args.scale)
        measured = workloads.kernel_workload(
            cases, [case.name for case in cases], args.seconds, spans, ledger
        )
    elif args.workload == "parallel_proc":
        cases = inputs.parallel_mix(rng, args.scale)
        measured = workloads.kernel_workload(cases, ["mha_p1"] * 2, args.seconds, spans, ledger)
    else:
        pool = inputs.serve_pool(rng)
        measured = workloads.serve_workload(
            pool, inputs.serve_order(rng), args.seconds, spans, ledger, str(SRC), log_path,
            min_requests=workloads.MIN_REQUESTS if args.scale == "full" else 12,
        )

    serve_metrics = measured.serve_metrics
    if spans.enabled:
        spans.origin = "probe"
        probes.overhead_probe(spans, ledger)
        if args.workload != "parallel_proc":
            probes.transport_probe(spans, ledger, args.seed)
        if args.workload != "serve_mix":
            probe_rng = np.random.default_rng(args.seed)
            probe = workloads.serve_workload(
                inputs.serve_pool(probe_rng), inputs.serve_order(probe_rng), 0.0, spans, ledger,
                str(SRC), log_path, min_requests=24, setup_reps=0, profile_rounds=0,
            )
            serve_metrics = probe.serve_metrics
        spans.origin = "workload"
    return measured, serve_metrics


def end_to_end(measured, serving: bool, calibrated: bool = True) -> dict[str, float]:
    """End-to-end metrics at nominal host speed (``calibrated``) or raw.

    Only work done in this process is brought to nominal speed: set-up,
    the profiled pass and passes on ``sequential``.  Runs on ``process``
    and served requests spend their time in other processes, on cores
    whose speed the loop here does not see, so they are reported raw."""
    from spans import percentile

    def at_speed(seconds: float, slowdown: float, in_process: bool = True) -> float:
        return seconds / slowdown if calibrated and in_process else seconds

    local = measured.in_process
    lat = [at_speed(s, f, local) for s, f in zip(measured.latencies, measured.slowdowns)]
    if serving:
        wall = sum(at_speed(w, f, local) for w, f in measured.segments)
        ops_per_s = sum(measured.ops) / wall
        req_per_s = len(lat) / wall
    else:
        ops_per_s = statistics.median(o / s for o, s in zip(measured.ops, lat))
        req_per_s = len(lat) / sum(lat)
    rounds: dict[int, list[float]] = {}
    for round_index, ops, s, f in measured.profiled:
        totals = rounds.setdefault(round_index, [0, 0.0])
        totals[0] += ops
        totals[1] += at_speed(s, f)
    return {
        "setup_s": statistics.median(at_speed(s, f) for s, f in measured.setup),
        "ops_per_s": ops_per_s,
        "profiled_ops_per_s": statistics.median(ops / s for ops, s in rounds.values()),
        "req_ms_p50": statistics.median(lat) * 1e3,
        "req_ms_p90": percentile(lat, 90) * 1e3,
        "req_per_s": req_per_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def at_nominal_speed(values: dict[str, float], slowdown: float) -> dict[str, float]:
    """Scale per-layer times and rates by the run's host slowdown."""
    scale = {"s": 1 / slowdown, "ms": 1 / slowdown, "ns": 1 / slowdown, "1/s": slowdown}
    return {name: value * scale.get(PER_LAYER[name], 1.0) for name, value in values.items()}


def per_layer(spans, measured, serve_metrics, ledger) -> dict[str, float]:
    from serving import counter_total, histogram_total
    from spans import duration

    def total(records, key):
        return sum(rec["attrs"].get(key, 0) for rec in records)

    def mean(records, key):
        return total(records, key) / len(records)

    def busy(records):
        return sum(spans.self_time(rec) for rec in records)

    def median_ms(name):
        return statistics.median(duration(rec) for rec in spans.select((name,))) * 1e3

    measured_phases = ("measure", "profile")
    seq = spans.select(("run.sequential",), measured_phases)
    proc = spans.select(("run.process",), measured_phases)
    runs = spans.select(("run.sequential", "run.process"), measured_phases)
    plain = [rec for rec in seq if rec["attrs"]["phase"] == "profile"]
    profiled = spans.select(("run.profiled",), ("profile",))

    before, after = serve_metrics
    def delta(name):
        return counter_total(after, name) - counter_total(before, name)

    runs_n, runs_s = (
        a - b for a, b in zip(histogram_total(after, "run_seconds"), histogram_total(before, "run_seconds"))
    )
    hits = delta("plan_cache_hits")
    lat = [s / f for s, f in zip(measured.latencies, measured.slowdowns)]
    traced = [s for s, t in zip(lat, measured.traced) if t]
    untraced = [s for s, t in zip(lat, measured.traced) if not t]
    return {
        "channel.transitions": mean(runs, "transitions"),
        "channel.parks_per_transition": total(runs, "wakeups") / total(runs, "transitions"),
        "sequential.ns_per_op": busy(seq) / total(seq, "ops") * 1e9,
        "sequential.switches_per_op": total(seq, "switches") / total(seq, "ops"),
        "sequential.overhead_ms": median_ms("overhead.sequential"),
        "superblock.cold_clusters": mean(runs, "cold_clusters"),
        "threaded.overhead_ms": median_ms("overhead.threaded"),
        "process.ns_per_op": busy(proc) / total(proc, "ops") * 1e9,
        "process.cut_channels": mean(proc, "cut_channels"),
        "process.cut_records_per_s": total(proc, "cut_records") / busy(proc),
        "process.steals": mean(proc, "steals"),
        "process.overhead_ms": median_ms("overhead.process"),
        "partition.plan_ms": median_ms("partition.plan"),
        "spec.build_ms": median_ms("spec.build"),
        "spec.encode_ms": median_ms("spec.encode"),
        "serve.accept_ms": median_ms("serve.accept"),
        "serve.exec_ms": median_ms("serve.exec"),
        "serve.server_run_ms": runs_s / runs_n * 1e3,
        "serve.plan_hit_ratio": hits / (hits + delta("plan_cache_misses")),
        "serve.coalesced_ratio": delta("coalesced_requests") / delta("requests_total"),
        "serve.shed": delta("requests_shed"),
        "obs.profiled_over_plain": (busy(profiled) / total(profiled, "ops"))
        / (busy(plain) / total(plain, "ops")),
        "bench.trace_overhead": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "bench.fail_frac": ledger.failed / max(1, ledger.attempted),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="'smoke' runs the smallest inputs (the self-test)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import hostspeed
    from kernels import Ledger
    from spans import Spans

    RESULTS.mkdir(exist_ok=True)
    faulthandler.dump_traceback_later(HANG_DUMP_S)
    adopt_orphans()
    shm_before = shm_segments()
    spans = Spans(enabled=bool(args.trace))
    ledger = Ledger()
    started = time.perf_counter()
    try:
        measured, serve_metrics = run_workload(args, spans, ledger)
        check_leaks(shm_before, ledger)
    finally:
        stop_children()
    slowdown = hostspeed.slowdown(measured.calibrations)
    if args.trace:
        raw, units = per_layer(spans, measured, serve_metrics, ledger), PER_LAYER
        values = at_nominal_speed(raw, slowdown)
    else:
        serving = args.workload == "serve_mix"
        raw, units = end_to_end(measured, serving, calibrated=False), END_TO_END
        values = end_to_end(measured, serving)

    stamp = {
        "git_rev": git_rev(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "samples": {"setup": len(measured.setup), "requests": len(measured.latencies)},
        "latencies_ms": [round(s * 1e3, 3) for s in measured.latencies],
        "setup_runs": [[round(s, 6), round(f, 4)] for s, f in measured.setup],
        "profiled_runs": [[r, ops, round(s, 6), round(f, 4)] for r, ops, s, f in measured.profiled],
        "sim_cycles": measured.cycles,
        "run_wall_s": time.perf_counter() - started,
        "host_slowdown": slowdown,
        "raw_metrics": raw,
        "maxrss_mb": {
            "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        },
        "failures": ledger.reasons[:20],
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"stamp": stamp, **result}, handle, indent=1)
    if args.trace:
        spans.dump(RESULTS / f"{tag}-spans.json")
    brief = {k: v for k, v in stamp.items() if not k.endswith(("_ms", "_runs", "_cycles"))}
    print(json.dumps({"stamp": brief}))
    faulthandler.cancel_dump_traceback_later()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
