"""Host speed calibration.

The 2-core machine this benchmark was tuned on changes speed by up to
+-25% over tens of seconds (its cores are shared), which swamps most
host-time differences a change can make.  A fixed pure-Python loop,
timed next to the measured work, tracks that drift: over 20-second
windows of ``stream_seq`` passes the raw pass time spread 20% (quartile
distance over median) while the ratio of pass time to loop time spread
3%.  The loop runs only interpreter code, so no change to ``repro`` can
move it.

Time-valued metrics of work done in the benchmark's own process are
therefore reported at a nominal host speed: ``raw * NOMINAL_S /
loop_time`` for times, ``raw * loop_time / NOMINAL_S`` for rates, where
``loop_time`` is the loop measured next to the sample.  Work done in
other processes (``process`` workers, the server) runs on cores whose
speed the loop does not see: brought to nominal speed, served latency
spread 17% over ten seeds against 5% raw, so those metrics stay raw.
The run record keeps the raw values and the speed factors.
"""

from __future__ import annotations

import statistics
import time

#: Loop time that defines the nominal host speed (about the loop's
#: median on a quiet 2-core Xeon VM under CPython 3.11).
NOMINAL_S = 0.02


def calibrate() -> float:
    """Seconds the fixed loop takes right now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(200_000):
        acc += i & 7
        table[i & 255] = acc
    return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    """How much slower than nominal the host ran over ``samples``."""
    return statistics.median(samples) / NOMINAL_S
