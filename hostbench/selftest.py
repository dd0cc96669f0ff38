"""Fast self-test of the benchmark itself.

Runs every workload at its smallest size (``--scale smoke``), untraced
and traced, and asserts that each run exits 0, emits every metric
``BENCHMARK.json`` names with its unit, and failed nothing
(``fail_frac`` is 0).

Run from the root of a checkout:  python3 hostbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if declared[0] != END_TO_END or declared[1] != PER_LAYER:
        problems.append("BENCHMARK.json metrics or units differ from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: fail_frac is not 0: {done.stdout.splitlines()[-2]}")
            for name, unit in declared[trace].items():
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: metric {name} missing or without unit {unit}: {got}")
            print(f"ok   {where}: {len(result['metrics'])} metrics, {result['attempted']} checks")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
