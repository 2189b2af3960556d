"""Benchmark a parent revision against the working tree in alternating pairs.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent HEAD

The committed files of the parent revision are exported (``git archive``)
into a temporary directory, which is removed at the end. Each of the 10
pairs then runs the benchmark command of BENCHMARK.json with
``--trace 0``, for its run_seconds on every workload, once in that copy
and once in the working tree. Every pair draws a fresh random seed, so
no seed tried while writing a change is reused, and switches which side
runs first from one pair to the next. The seeds are printed first. Every run's
result line is printed as it arrives, prefixed with ``run``. At the end,
for each workload and end-to-end metric, the summary gives:

- each side's median and quartiles;
- how many pairs the change won (ties count for neither side);
- whether a claimed gain would hold: the change wins at least nine tenths
  of the pairs, and the medians differ by more than the distance between
  the parent's quartiles;
- whether the metric stays within its BENCHMARK.json bound: the change's
  median is no worse than the parent's by more than the bound. Where the
  parent's own quartile distance is wider than the bound, and not every
  change run beats every parent run, the metric is "unresolved";
- each side's share of failed operations.

Nothing under perfbench/ is edited; both sides run their own copy.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
CLAIM_SHARE = 0.9
PAIRS = 10
RUN_TIMEOUT_S = 900


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


@dataclass
class MetricRows:
    """One workload's values of one end-to-end metric, pair by pair."""

    workload: str
    metric: str
    better: str  # "lower" or "higher"
    bound: float  # worsening allowed, as a share of the parent's median
    pairs: dict[int, dict[str, float]] = field(default_factory=dict)

    def side(self, name: str) -> list[float]:
        return [values[name] for _, values in sorted(self.pairs.items()) if name in values]

    def _gain(self, parent: float, change: float) -> float:
        """How much better the change reads: positive is better."""
        return parent - change if self.better == "lower" else change - parent

    def wins(self) -> tuple[int, int]:
        """(pairs the change won, complete pairs)."""
        complete = [values for values in self.pairs.values() if len(values) == 2]
        won = sum(1 for values in complete if self._gain(values["parent"], values["change"]) > 0)
        return won, len(complete)

    def claim_holds(self) -> bool:
        won, complete = self.wins()
        if not complete or won < CLAIM_SHARE * complete:
            return False
        p_q1, p_median, p_q3 = quartiles(self.side("parent"))
        _, c_median, _ = quartiles(self.side("change"))
        return self._gain(p_median, c_median) > p_q3 - p_q1

    def bound_status(self) -> str:
        parent, change = self.side("parent"), self.side("change")
        p_q1, p_median, p_q3 = quartiles(parent)
        _, c_median, _ = quartiles(change)
        worse = -self._gain(p_median, c_median)
        allowed = self.bound * abs(p_median)
        if worse > allowed:
            return "EXCEEDS BOUND"
        if p_q3 - p_q1 > allowed and not all(
            self._gain(p, c) > 0 for p in parent for c in change
        ):
            return "unresolved"
        return "within bound"


@dataclass
class Summary:
    rows: list[MetricRows]
    failed: dict[tuple[str, str], tuple[int, int]]  # (workload, side) -> (failed, attempted)


def parse_result(stdout: str) -> dict:
    """The benchmark's result: the JSON object on the last line of its output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"the last line is not a result: {lines[-1][:200]}")
    return result


def summarize(results: list[tuple[int, str, str, dict]], benchmark: dict) -> Summary:
    """Fold (pair, side, workload, result) records into per-metric rows."""
    metrics = benchmark["end_to_end"]
    rows: dict[tuple[str, str], MetricRows] = {}
    failed: dict[tuple[str, str], tuple[int, int]] = {}
    for pair, side, workload, result in results:
        done, tried = failed.get((workload, side), (0, 0))
        failed[(workload, side)] = (done + result["failed"], tried + result["attempted"])
        for metric in metrics:
            name = metric["name"]
            if name not in result["metrics"]:
                continue
            row = rows.setdefault(
                (workload, name),
                MetricRows(workload, name, metric["better"], metric["bound"]),
            )
            row.pairs.setdefault(pair, {})[side] = result["metrics"][name]["value"]
    order = {metric["name"]: position for position, metric in enumerate(metrics)}
    return Summary(
        sorted(rows.values(), key=lambda row: (row.workload, order[row.metric])), failed
    )


def format_summary(summary: Summary) -> str:
    lines = []
    workload = None
    for row in summary.rows:
        if row.workload != workload:
            workload = row.workload
            lines.append(f"\n{workload}")
            for side in SIDES:
                failed, attempted = summary.failed.get((workload, side), (0, 0))
                share = failed / attempted if attempted else 0.0
                lines.append(f"  {side} failed {failed} of {attempted} ({share:.4f})")
            lines.append(
                f"  {'metric':14s} {'parent q1 / median / q3':34s} {'change q1 / median / q3':34s}"
                f" {'wins':>6s}  claim  bound"
            )
        cells = []
        for side in SIDES:
            values = row.side(side)
            cells.append(
                " / ".join(f"{value:.6g}" for value in quartiles(values)) if values else "-"
            )
        won, complete = row.wins()
        claim = "holds" if row.claim_holds() else "no"
        lines.append(
            f"  {row.metric:14s} {cells[0]:34s} {cells[1]:34s} {won:>3d}/{complete:<2d}"
            f"  {claim:5s}  {row.bound_status()} ({row.bound:.0%})"
        )
    return "\n".join(lines).lstrip("\n")


def export_revision(revision: str, into: Path) -> None:
    """Write the committed files of revision under into."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter exists from Python 3.11.4 (and in 3.10.12 onwards).
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into, **safe)


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(
        [*argv, "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv)} in {checkout} exited {done.returncode}: {done.stderr[-2000:]}"
        )
    return parse_result(done.stdout)


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    seeds = random.SystemRandom().sample(range(1, 10**9), PAIRS)
    print("seeds", " ".join(map(str, seeds)), flush=True)
    results = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        export_revision(args.parent, Path(parent_dir))
        checkouts = {"parent": Path(parent_dir), "change": ROOT}
        for pair, seed in enumerate(seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    result = run_once(
                        checkouts[side],
                        benchmark["command"],
                        workload,
                        seed,
                        benchmark["run_seconds"],
                    )
                    results.append((pair, side, workload, result))
                    record = {"pair": pair, "side": side, "workload": workload, "seed": seed}
                    print("run", json.dumps({**record, "result": result}), flush=True)
    print(format_summary(summarize(results, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
