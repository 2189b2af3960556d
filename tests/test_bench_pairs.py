"""The alternating-pairs summary of tools/bench_pairs.py, on canned result lines.

No benchmark runs here: each side's output is a made-up run of
perfbench/run.py whose last line is its JSON result.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from typing import Optional

import pytest

from conftest import REPO_ROOT

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", REPO_ROOT / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("bench_pairs", bench_pairs)  # dataclasses look their module up
_SPEC.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _output(
    failed: int = 0, golden_ok: bool = True, digest: Optional[str] = None, **metrics: float
) -> str:
    """What perfbench/run.py prints: lines for people, then the result."""
    result = {
        "correct": golden_ok and failed == 0,
        "attempted": 40,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    }
    digest_line = f"report sha256: {digest}\n" if digest is not None else ""
    head = f"workload findings-dense seed 1\n{digest_line}  review_p50_s 0.1 s\n"
    return head + json.dumps(result) + "\n"


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


def test_parse_result_reads_the_report_digest_when_there_is_one():
    assert bench_pairs.parse_result(_output(digest="09af"))["report_sha256"] == "09af"
    assert bench_pairs.parse_result(_output())["report_sha256"] is None


def test_identical_reports_are_counted_per_workload_and_unknown_without_a_digest():
    runs = []
    for pair in range(10):
        sides = {
            "pr-diff": (f"p{pair}", f"p{pair}"),
            "findings-dense": (f"d{pair}", f"d{pair}" if pair not in (2, 7) else "other"),
            "library-build": ("l", "l" if pair != 5 else None),
        }
        for workload, (parent, change) in sides.items():
            runs += [(workload, pair, "parent", parent), (workload, pair, "change", change)]
    runs.append(("pr-diff", 10, "parent", "p10"))  # an unfinished pair counts for neither
    results = [
        (pair, side, workload, bench_pairs.parse_result(_output(digest=digest, review_p50_s=0.1)))
        for workload, pair, side, digest in runs
    ]
    summary = bench_pairs.summarize(results, BENCHMARK)
    assert summary.identical_reports("pr-diff") == (10, 10)
    assert summary.identical_reports("findings-dense") == (8, 10)
    assert summary.identical_reports("library-build") is None

    lines = bench_pairs.format_summary(summary).splitlines()
    identical = {
        lines[index - 3]: line.strip()
        for index, line in enumerate(lines)
        if line.lstrip().startswith("reports identical")
    }
    assert identical == {
        "findings-dense": "reports identical in 8 of 10 pairs",
        "library-build": "reports identical unknown",
        "pr-diff": "reports identical in 10 of 10 pairs",
    }


def test_different_reports_do_not_change_the_exit_code(monkeypatch, capsys):
    def run_once(checkout, command, workload, seed, seconds):
        side = "parent" if checkout != bench_pairs.ROOT else "change"
        return bench_pairs.parse_result(_output(digest=side, review_p50_s=0.1))

    monkeypatch.setattr(bench_pairs, "export_revision", lambda revision, into: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", "HEAD"]) == 0
    assert capsys.readouterr().out.count("reports identical in 0 of 10 pairs") == 3


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


def _canned_run(wrong_side):
    """A run_once stand-in: every run correct but wrong_side's in pair 3."""
    calls = []

    def run_once(checkout, command, workload, seed, seconds):
        side = "parent" if checkout != bench_pairs.ROOT else "change"
        pair = sum(1 for call in calls if call == (side, workload))
        calls.append((side, workload))
        golden_ok = not (side == wrong_side and pair == 3 and workload == "findings-dense")
        value = 0.166 if side == "parent" else 0.158
        return bench_pairs.parse_result(_output(0, golden_ok, review_p50_s=value))

    return run_once


def test_a_golden_mismatch_counts_as_an_incorrect_run_even_with_no_failed_review():
    parent = [{"review_p50_s": 0.166} for _ in range(10)]
    change = [{"review_p50_s": 0.158} for _ in range(10)]
    results = []
    for pair, (before, after) in enumerate(zip(parent, change)):
        for side, metrics in (("parent", before), ("change", after)):
            output = _output(0, golden_ok=not (side == "change" and pair == 4), **metrics)
            results.append((pair, side, "findings-dense", bench_pairs.parse_result(output)))
    summary = bench_pairs.summarize(results, BENCHMARK)
    assert summary.failed[("findings-dense", "change")] == (0, 400)
    assert summary.incorrect == {
        ("findings-dense", "parent"): (0, 10),
        ("findings-dense", "change"): (1, 10),
    }
    assert summary.incorrect_runs() == 1
    lines = bench_pairs.format_summary(summary).splitlines()
    assert "parent failed 0 of 400 (0.0000), incorrect runs 0 of 10" in lines[1]
    assert "change failed 0 of 400 (0.0000), incorrect runs 1 of 10" in lines[2]
    assert lines[-1].startswith("INCORRECT: 1 run(s) not correct")


@pytest.mark.parametrize("wrong_side", [None, "parent", "change"])
def test_the_tool_exits_nonzero_when_any_run_is_incorrect(wrong_side, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "export_revision", lambda revision, into: None)
    monkeypatch.setattr(bench_pairs, "run_once", _canned_run(wrong_side))
    assert bench_pairs.main(["--parent", "HEAD"]) == (0 if wrong_side is None else 1)
    out = capsys.readouterr().out
    assert ("INCORRECT: 1 run(s)" in out) is (wrong_side is not None)


def _recording_run(ran):
    """A run_once stand-in that records (side, workload) and reads correct."""

    def run_once(checkout, command, workload, seed, seconds):
        ran.append(("parent" if checkout != bench_pairs.ROOT else "change", workload))
        return bench_pairs.parse_result(_output(review_p50_s=0.1))

    return run_once


@pytest.mark.parametrize(
    "chosen, expected",
    [
        ([], [workload["name"] for workload in BENCHMARK["workloads"]]),
        (["findings-dense"], ["findings-dense"]),
        (["findings-dense", "pr-diff", "findings-dense"], ["pr-diff", "findings-dense"]),
    ],
)
def test_workload_picks_the_workloads_run_in_benchmark_order(chosen, expected, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(bench_pairs, "export_revision", lambda revision, into: None)
    monkeypatch.setattr(bench_pairs, "run_once", _recording_run(ran))
    argv = ["--parent", "HEAD"] + [arg for name in chosen for arg in ("--workload", name)]
    assert bench_pairs.main(argv) == 0
    assert ran == [
        (side, workload)
        for pair in range(bench_pairs.PAIRS)
        for workload in expected
        for side in (bench_pairs.SIDES if pair % 2 == 0 else bench_pairs.SIDES[::-1])
    ]
    names = {workload["name"] for workload in BENCHMARK["workloads"]}
    headers = [line for line in capsys.readouterr().out.splitlines() if line in names]
    assert headers == sorted(expected)  # the summary covers the workloads run


def test_an_unknown_workload_is_refused_before_anything_runs(monkeypatch, capsys):
    exported = []
    monkeypatch.setattr(bench_pairs, "export_revision", lambda revision, into: exported.append(1))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--workload", "no-such-workload"])
    assert exit_info.value.code == 2
    assert exported == []
    assert "invalid choice: 'no-such-workload'" in capsys.readouterr().err
