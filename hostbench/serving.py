"""A ``python -m repro.serve`` subprocess and a closed loop of clients.

Each client thread sends one request, reads the ndjson stream to its
end, and only then sends the next, the way a parameter-sweep script
waits for its replies.  The server runs one request at a time
(``--max-concurrent 1``), so the two clients queue behind each other
instead of sharing one interpreter's lock mid-run, which made latencies
swing from run to run.  A request is timed from send to the end of its
stream; the ``accepted`` and ``summary`` events split that into an
accept span and an exec span sharing the request's id.  Served results
are checked against the numpy reference and the sequential
``elapsed_cycles`` after the loop, outside the timed interval.
"""

from __future__ import annotations

import itertools
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.api import DamError, ProgramSpec, ServeClient, decode_tensor

from inputs import Case
from kernels import Ledger, results_match
from spans import Spans

STARTUP_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
#: A served request that takes longer than this counts as failed and
#: ends the measured loop (nothing in the mix takes a tenth of it).
REQUEST_TIMEOUT_S = 20.0
PR_SET_PDEATHSIG = 1


def _server_preexec() -> None:
    """Runs in the forked server before exec.  SIGINT goes back to its
    default, so the server's graceful KeyboardInterrupt shutdown works
    even when the benchmark was started with SIGINT ignored (as a
    background job is); and if the benchmark is killed, the kernel sends
    the server SIGTERM instead of leaving it behind."""
    import ctypes

    signal.signal(signal.SIGINT, signal.SIG_DFL)
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class ServerProcess:
    """``python -m repro.serve --port 0`` with the checkout's ``src`` on the path."""

    def __init__(self, src_dir: str, log_path: str):
        self.src_dir = src_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[tuple[str, int]] = None

    def start(self) -> tuple[str, int]:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.serve",
                    "--port",
                    "0",
                    "--max-concurrent",
                    "1",
                    "--queue-limit",
                    "8",
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                preexec_fn=_server_preexec,
            )
        line = self._first_line()
        # "repro.serve listening on http://HOST:PORT"
        host, _, port = line.rsplit("/", 1)[-1].partition(":")
        self.address = (host, int(port))
        client = ServeClient(self.address, timeout=STARTUP_TIMEOUT_S)
        try:
            deadline = time.monotonic() + STARTUP_TIMEOUT_S
            while not client.healthy():
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("repro.serve did not become healthy")
                time.sleep(0.01)
        finally:
            client.close()
        return self.address

    def _first_line(self) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(
                f"repro.serve did not start (see {self.log_path}): {line!r}"
            )
        return line.strip()

    def stop(self) -> Optional[int]:
        """Interrupt the server (it drains and shuts down) and reap it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        return proc.returncode


@dataclass
class Request:
    """One pool entry: the encoded spec plus what its run must produce."""

    tenant: str
    case: Case
    spec: ProgramSpec
    cycles: int = -1


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    ops: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    #: Requests sent, failed ones included.
    sent: int = 0
    aborted: bool = False


@dataclass
class Reply:
    request: Request
    rid: str
    sent: float
    accepted: float
    done: float
    summary: dict[str, Any]


def submit(client: ServeClient, request: Request, rid: str, ledger: Ledger) -> Optional[Reply]:
    """Send one request and read its stream to the end; ``None`` (and a
    failed check) on an error event, a refusal or a broken stream."""
    label = f"{rid} {request.case.name}/{request.case.executor}"
    accepted = summary = None
    sent = time.perf_counter()
    try:
        for event in client.submit_stream(request.spec, tenant=request.tenant, request_id=rid):
            kind = event.get("event")
            if kind == "accepted":
                accepted = time.perf_counter()
            elif kind == "summary":
                summary = event
            elif kind == "error":
                ledger.check(False, f"{label}: served error {event.get('error')}")
                return None
        done = time.perf_counter()
    except (DamError, OSError, ValueError) as exc:  # socket.timeout is an OSError
        ledger.check(False, f"{label}: {type(exc).__name__}: {exc}")
        return None
    if summary is None or accepted is None:
        ledger.check(False, f"{label}: stream ended without accepted/summary")
        return None
    return Reply(request, rid, sent, accepted, done, summary)


def check_reply(reply: Reply, ledger: Ledger) -> bool:
    """Check a served reply; only passing replies count as samples."""
    request = reply.request
    label = f"{reply.rid} {request.case.name}/{request.case.executor}"
    result = decode_tensor(reply.summary["result"])
    result = result.to_dense() if hasattr(result, "to_dense") else result
    cycles = reply.summary["summary"]["elapsed_cycles"]
    ok = ledger.check(
        results_match(result, request.case.expected),
        f"{label}: served result differs from the numpy reference",
    )
    ok &= ledger.check(
        cycles == request.cycles,
        f"{label}: served {cycles} cycles, sequential gave {request.cycles}",
    )
    return ok


def closed_loop(
    address: tuple[str, int],
    pool: list[Request],
    seconds: float,
    min_requests: int,
    spans: Spans,
    ledger: Ledger,
    clients: int = 2,
    first_index: int = 0,
) -> LoopResult:
    """``clients`` threads, each waiting for its reply before the next
    send, until ``seconds`` have passed and ``min_requests`` were sent.
    Replies are checked after the loop, so checking never competes with
    requests in flight.  In a traced run every other request records
    spans, so the untraced half measures what tracing costs."""
    replies: list[Reply] = []
    lock = threading.Lock()
    counter = itertools.count(first_index)
    sent = 0
    aborted = False
    start = time.perf_counter()
    deadline = start + seconds

    def worker() -> None:
        nonlocal sent, aborted
        with ServeClient(address, timeout=REQUEST_TIMEOUT_S) as client:
            while True:
                with lock:
                    if aborted or (sent >= min_requests and time.perf_counter() >= deadline):
                        return
                    index = next(counter)
                    sent += 1
                reply = submit(client, pool[index % len(pool)], f"r{index}", ledger)
                with lock:
                    if reply is None:
                        aborted = True
                    else:
                        replies.append(reply)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out = LoopResult(wall_s=time.perf_counter() - start, sent=sent, aborted=aborted)
    for reply in replies:
        if not check_reply(reply, ledger):
            continue
        traced = spans.enabled and int(reply.rid[1:]) % 2 == 0
        if traced:
            root = spans.add(
                "serve.request", reply.sent, reply.done, rid=reply.rid,
                executor=reply.request.case.executor,
            )
            spans.add("serve.accept", reply.sent, reply.accepted, rid=reply.rid, parent=root)
            spans.add("serve.exec", reply.accepted, reply.done, rid=reply.rid, parent=root)
        out.latencies.append(reply.done - reply.sent)
        out.traced.append(traced)
        out.ops.append(reply.summary["summary"]["ops_executed"])
    return out


def counter_total(snapshot: dict[str, Any], name: str) -> float:
    """Sum a counter over its labels in a ``/metrics`` payload."""
    counters = snapshot["metrics"]["counters"]
    return sum(v for k, v in counters.items() if k == name or k.startswith(name + "{"))


def histogram_total(snapshot: dict[str, Any], name: str) -> tuple[float, float]:
    """``(count, total)`` of a histogram summed over its labels."""
    count = total = 0.0
    for key, summary in snapshot["metrics"]["histograms"].items():
        if key == name or key.startswith(name + "{"):
            count += summary["count"]
            total += summary["total"]
    return count, total
