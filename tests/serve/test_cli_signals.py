"""``python -m repro.serve`` stops cleanly on SIGTERM and on SIGINT.

A server started as a background job has SIGINT ignored, so SIGTERM is
its only clean stop: it must drain, run ``shutdown()`` (which saves
``--plan-cache-path``) and exit 0.  SIGINT keeps working when it is not
ignored.
"""

import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
STOP_TIMEOUT_S = 10.0


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _start(plan_cache: Path, preexec) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve", "--port", "0",
            "--plan-cache-path", str(plan_cache),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        preexec_fn=preexec,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 30.0)
    line = proc.stdout.readline().decode() if ready else ""
    if "listening on" not in line:
        proc.kill()
        proc.wait()
        pytest.fail(f"repro.serve did not start: {line!r}")
    return proc


@pytest.mark.parametrize(
    "preexec, signum",
    [
        (_ignore_sigint, signal.SIGTERM),
        (_default_sigint, signal.SIGINT),
    ],
    ids=["sigterm-with-sigint-ignored", "sigint"],
)
def test_signal_drains_saves_plan_cache_and_exits_zero(tmp_path, preexec, signum):
    plan_cache = tmp_path / "plans.json"
    proc = _start(plan_cache, preexec)
    try:
        proc.send_signal(signum)
        assert proc.wait(timeout=STOP_TIMEOUT_S) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert plan_cache.exists()
    json.loads(plan_cache.read_text())
