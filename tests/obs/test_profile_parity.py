"""The profiler's three entry points agree on every runtime.

``profile_trace`` reads a :class:`~repro.obs.TraceCollector` straight
from its per-context raw records; a bare ``TraceEvent`` iterable (the
merged query view) and a re-imported Chrome trace are grouped back into
records and go through the same index.  All three must give the same
report, on four SAM kernels, on the sequential, threaded and process
runtimes.  The buffer tests pin the lazily built event view.
"""

import json

import numpy as np
import pytest

from repro import Observability
from repro.core import RunConfig
from repro.obs import ContextTraceBuffer, events_from_chrome_trace, profile_trace
from repro.sam import CsfTensor
from repro.sam.graphs import build_mmadd, build_sddmm, build_sparse_mha, build_spmspm
from repro.sam.primitives import TimingParams
from repro.sam.tensor import random_dense


def _spmspm():
    b = random_dense(6, 6, density=0.3, seed=23)
    ct = random_dense(6, 6, density=0.3, seed=24)
    return build_spmspm(
        CsfTensor.from_dense(b, "cc"), CsfTensor.from_dense(ct, "cc"), depth=4
    )


def _mmadd():
    a = random_dense(6, 6, density=0.5, seed=21)
    b = random_dense(6, 6, density=0.5, seed=22)
    return build_mmadd(
        CsfTensor.from_dense(a, "cc"),
        CsfTensor.from_dense(b, "cc"),
        depth=3,
        timing=TimingParams(ii=2, stop_bubble=1),
    )


def _sddmm():
    rng = np.random.default_rng(31)
    s = random_dense(6, 6, density=0.4, seed=30)
    return build_sddmm(
        CsfTensor.from_dense(s, "cc"),
        rng.standard_normal((6, 4)),
        rng.standard_normal((6, 4)),
        depth=4,
        timing=TimingParams(ii=2),
    )


def _mha():
    rng = np.random.default_rng(3)
    heads, n, d = 2, 5, 3
    mask = (rng.random((heads, n, n)) < 0.5).astype(float)
    for h in range(heads):
        np.fill_diagonal(mask[h], 1.0)
    q, k, v = (rng.standard_normal((heads, n, d)) for _ in range(3))
    return build_sparse_mha(
        CsfTensor.from_dense(mask, "dcc"), q, k, v, depth=6, softmax_depth=32
    )


KERNELS = {"spmspm": _spmspm, "mmadd": _mmadd, "sddmm": _sddmm, "mha": _mha}
RUNS = {
    "sequential": RunConfig(),
    "threaded": RunConfig(),
    "process": RunConfig(workers=2),
}


def _profiles(kernel_name, executor):
    obs = Observability()
    summary = KERNELS[kernel_name]().run(
        executor=executor, config=RUNS[executor].replace(obs=obs)
    )
    meta = obs.channel_meta
    # Round-trip through JSON text, as a trace file on disk would.
    document = json.loads(json.dumps(obs.chrome_trace(), default=str))
    return summary.profile, {
        "records": profile_trace(obs.trace, channel_meta=meta).to_dict(),
        "events": profile_trace(obs.trace.events, channel_meta=meta).to_dict(),
        "chrome": profile_trace(*events_from_chrome_trace(document)).to_dict(),
    }


@pytest.mark.parametrize("executor", sorted(RUNS))
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_entry_points_agree(kernel_name, executor):
    attached, profiles = _profiles(kernel_name, executor)
    assert profiles["records"]["finish_time"] > 0
    assert profiles["records"]["critical_path"]["segments"]
    assert profiles["records"] == attached
    assert profiles["events"] == profiles["records"]
    assert profiles["chrome"] == profiles["records"]


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_runtimes_agree(kernel_name):
    reference, _ = _profiles(kernel_name, "sequential")
    for executor in ("threaded", "process"):
        attached, _ = _profiles(kernel_name, executor)
        assert attached == reference, executor


class TestBufferEventView:
    def test_seq_is_the_record_position(self):
        buf = ContextTraceBuffer("ctx")
        for t in range(5):
            buf.append("advance", None, t)
        buf.append("enqueue", "c", 7, payload="dropped")
        events = buf.events
        assert [event.seq for event in events] == list(range(6))
        assert all(event.context == "ctx" for event in events)
        assert events[5].channel == "c" and events[5].payload is None
        assert buf.records[5] == ("enqueue", "c", 7, None)

    def test_view_refreshes_after_later_append(self):
        buf = ContextTraceBuffer("ctx", capture_payloads=True)
        buf.append("enqueue", "c", 1, payload=10)
        first = buf.events
        assert len(first) == 1 and buf.events is first  # cached
        buf.append("dequeue", "d", 3, payload=11)
        events = buf.events
        assert len(events) == len(buf) == 2
        assert events[1].seq == 1
        assert (events[1].kind, events[1].time, events[1].payload) == (
            "dequeue", 3, 11,
        )
