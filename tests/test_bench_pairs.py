"""The alternating-pairs summary of tools/bench_pairs.py, on canned result lines.

No benchmark runs here: each side's output is a made-up run of
perfbench/run.py whose last line is its JSON result.
"""

from __future__ import annotations

import importlib.util
import json
import sys

import pytest

from conftest import REPO_ROOT

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", REPO_ROOT / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("bench_pairs", bench_pairs)  # dataclasses look their module up
_SPEC.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _output(failed: int = 0, **metrics: float) -> str:
    """What perfbench/run.py prints: lines for people, then the result."""
    result = {
        "correct": failed == 0,
        "attempted": 40,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    }
    return "workload findings-dense seed 1\n  review_p50_s 0.1 s\n" + json.dumps(result) + "\n"


def _pairs(parent: list[dict], change: list[dict], workload="findings-dense", failed=(0, 0)):
    results = []
    for pair, (before, after) in enumerate(zip(parent, change)):
        for side, metrics, lost in zip(("parent", "change"), (before, after), failed):
            result = bench_pairs.parse_result(_output(lost, **metrics))
            results.append((pair, side, workload, result))
    return bench_pairs.summarize(results, BENCHMARK)


def _row(summary, metric, workload="findings-dense"):
    (row,) = [r for r in summary.rows if r.metric == metric and r.workload == workload]
    return row


def test_parse_result_reads_the_last_line_only():
    assert bench_pairs.parse_result(_output(review_p50_s=0.2))["metrics"] == {
        "review_p50_s": {"value": 0.2, "unit": "s"}
    }
    with pytest.raises(ValueError):
        bench_pairs.parse_result("")
    with pytest.raises(ValueError):
        bench_pairs.parse_result('{"correct": true}\n')


def test_quartiles_are_inclusive_and_a_single_run_is_its_own_spread():
    assert bench_pairs.quartiles([9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 4.0, 6.0, 8.0]) == (3.0, 5.0, 7.0)
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_a_steady_gain_holds_and_equal_counts_stay_within_their_bound():
    parent = [
        {"review_p50_s": 0.166 + 0.001 * (i % 3), "model_calls": 67.0, "peak_rss_mb": 30.0}
        for i in range(10)
    ]
    change = [
        {"review_p50_s": 0.158 + 0.001 * (i % 3), "model_calls": 67.0, "peak_rss_mb": 31.0}
        for i in range(10)
    ]
    summary = _pairs(parent, change)

    p50 = _row(summary, "review_p50_s")
    assert p50.wins() == (10, 10)
    assert p50.claim_holds()
    assert p50.bound_status() == "within bound"

    calls = _row(summary, "model_calls")
    assert calls.wins() == (0, 10)  # ties count for neither side
    assert not calls.claim_holds()
    assert calls.bound_status() == "within bound"

    rss = _row(summary, "peak_rss_mb")  # +3.3% against a 10% bound
    assert rss.wins() == (0, 10)
    assert rss.bound_status() == "within bound"
    assert [row.metric for row in summary.rows] == ["review_p50_s", "model_calls", "peak_rss_mb"]


def test_the_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    parent = [{"review_p50_s": 0.166} for _ in range(10)]
    nine = [{"review_p50_s": 0.158} for _ in range(9)] + [{"review_p50_s": 0.170}]
    eight = [{"review_p50_s": 0.158} for _ in range(8)] + [{"review_p50_s": 0.170}] * 2
    assert _row(_pairs(parent, nine), "review_p50_s").claim_holds()
    assert not _row(_pairs(parent, eight), "review_p50_s").claim_holds()

    # Ten wins, but by less than the parent's own quartile distance.
    spread = [{"review_p50_s": value} for value in (0.15, 0.18) * 5]
    close = [{"review_p50_s": value - 0.001} for value in (0.15, 0.18) * 5]
    row = _row(_pairs(spread, close), "review_p50_s")
    assert row.wins() == (10, 10)
    assert not row.claim_holds()


def test_bound_status_flags_a_regression_and_a_spread_too_wide_to_tell():
    parent = [{"peak_rss_mb": 30.0, "review_tail_s": value} for value in (0.1, 0.2) * 5]
    change = [{"peak_rss_mb": 33.5, "review_tail_s": value} for value in (0.11, 0.19) * 5]
    summary = _pairs(parent, change)
    assert _row(summary, "peak_rss_mb").bound_status() == "EXCEEDS BOUND"
    # Quartile distance 0.1 against 25% of a 0.15 median: too wide to tell.
    assert _row(summary, "review_tail_s").bound_status() == "unresolved"


def test_format_summary_reports_failures_wins_claim_and_bound_per_workload():
    parent = [{"review_p50_s": 0.166, "setup_s": 0.4} for _ in range(10)]
    change = [{"review_p50_s": 0.158, "setup_s": 0.6} for _ in range(10)]
    text = bench_pairs.format_summary(_pairs(parent, change, "library-build", failed=(0, 1)))
    lines = text.splitlines()
    assert lines[0] == "library-build"
    assert "parent failed 0 of 400 (0.0000)" in lines[1]
    assert "change failed 10 of 400 (0.0250)" in lines[2]
    (p50,) = [line for line in lines if line.lstrip().startswith("review_p50_s")]
    assert "10/10" in p50 and "holds" in p50 and "within bound (25%)" in p50
    (setup,) = [line for line in lines if line.lstrip().startswith("setup_s")]
    assert "0/10" in setup and "EXCEEDS BOUND" in setup
