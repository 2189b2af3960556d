"""Smoke check of the benchmark itself, so the harness cannot rot.

    python3 perfbench/smoke.py

Runs every workload at a tiny size for one second, untraced and traced,
and fails unless each run exits 0, reports correct output, and prints
every metric BENCHMARK.json names with the unit it names, plus the human
lines a reader relies on (report sha256, failed_reviews, the tail's
percentile; in the traced run the rationale and the tracing overhead).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-1500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(
            f"{where}: missing {sorted(set(expected) - set(metrics))},"
            f" unexpected {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {name} printed as {got}, want a number in {unit}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]):
            problems.append(f"{where}: no human-readable line for {name} in {unit}")
    text = "\n".join(lines[:-1])
    wanted = ["report sha256: ", "failed_reviews "]
    wanted += ["rationale ", "trace.overhead_s"] if trace else ["review_tail_s is p"]
    problems += [f"{where}: no '{marker}' line" for marker in wanted if marker not in text]
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    problems = []
    for workload in spec["workloads"]:
        problems += check(workload["name"], 0, end_to_end)
        problems += check(workload["name"], 1, per_layer)
    for problem in problems:
        print(problem)
    print("smoke check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
