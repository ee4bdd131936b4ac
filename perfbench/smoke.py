"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on its tiny population, untraced and traced, from the
root of the checkout, and asserts that each run exits 0, that its last line
has exactly the keys correct/attempted/failed/metrics, and that every metric
BENCHMARK.json names (plus unknown_frac, fail_frac and the raw times) is
printed with the unit BENCHMARK.json gives it.  Exits 1 and lists the problems otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402

TEXT_ONLY = {"unknown_frac": "ratio", "fail_frac": "ratio", "raw_wall_s": "s",
             "raw_op_s_p50": "s", "raw_op_s_tail": "s"}


def check_run(spec, workload, trace) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--population", "tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    where = f"{workload} trace={trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}: {out.stderr[-500:]}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] or not result["correct"]:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics/units {got} != {wanted}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            printed[parts[1]] = parts[3]
    for name, unit in {**wanted, **TEXT_ONLY}.items():
        if printed.get(name) != unit:
            problems.append(f"{where}: {name} printed as {printed.get(name)!r}, want {unit}")
    return problems


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    named = [w["name"] for w in spec["workloads"]]
    if sorted(named) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {named} != {list(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
