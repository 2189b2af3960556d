"""Offline layered benchmark of the sgcr review pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pr-diff --seed 1 --seconds 30 --trace 0

The run generates its inputs from the seed, replays the golden fixtures as
an output check, times set-up in fresh interpreters, then reviews the
workload in a closed loop (one client, one process: the next review starts
when the previous one ends) for the given seconds. With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it spends half the time
untraced and half traced, and prints the per-layer metrics, the tracing
overhead and whether the workload's rationale holds. Times are adjusted
to a reference host speed (speed.py); the raw wall times are printed too.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REQUIRED = (
    "src/sgcr/__init__.py",
    "sample_specs",
    "tests/data/golden/expected_report.json",
    "tests/data/golden/fixtures",
)
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30  # a probe takes about 2 s; a run must end within 180 s

LAYERS = (
    "pipeline", "ingestion", "specs", "retrieval", "prompts", "gateway",
    "backends", "parsing", "explicit", "implicit", "matching", "report",
)


@dataclass
class Sample:
    seconds: float  # wall time at the reference host speed (speed.adjusted)
    wall: float
    reference: float  # the reference workload's seconds around the review
    record: object  # backend.CallRecord; None when the review raised
    ok: bool


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). With ten samples or fewer
    no such percentile exists and the median stands in for it.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11 if n > 10 else (n - 1) // 2
    return ordered[index], 100.0 * (index + 1) / n, n


def closed_loop(reviewer, seconds: float, expected: str, tracer=None) -> list[Sample]:
    """Review back to back until the time is up; at least one review.

    The reference workload runs before the first review and after each
    one, outside their times. A review is adjusted by the mean of the
    reference times just before and just after it.
    """
    samples: list[Sample] = []
    before = speed.reference_seconds()
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.review = len(samples) + 1
        started = time.perf_counter()
        try:
            text, record, wall, cpu = reviewer.review()
            ok = text == expected
        except Exception:
            # A review that raises is a failed review; the run goes on.
            traceback.print_exc()
            record, wall, ok = None, time.perf_counter() - started, False
            cpu = wall
        after = speed.reference_seconds()
        reference = (before + after) / 2
        samples.append(Sample(speed.adjusted(wall, cpu, reference), wall, reference, record, ok))
        before = after
    return samples


def probe_setup(inputs_path: Path) -> tuple[float, float, str]:
    """Run one cold start in a fresh interpreter.

    Returns (seconds, seconds at the reference host speed, report sha256).
    A probe that fails or hangs returns its wall time and an empty digest,
    which the caller counts as a failed review.
    """
    before = speed.reference_seconds()
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), inputs_path.as_posix()],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"set-up probe timed out after {PROBE_TIMEOUT_S} s", file=sys.stderr)
        wall = time.perf_counter() - started
        return wall, wall, ""
    if done.returncode != 0:
        print(f"set-up probe failed ({done.returncode}): {done.stderr[-2000:]}", file=sys.stderr)
        wall = time.perf_counter() - started
        return wall, wall, ""
    result = json.loads(done.stdout.strip().splitlines()[-1])
    reference = (before + speed.reference_seconds()) / 2
    setup = speed.adjusted(result["setup_s"], result["cpu_s"], reference)
    return result["setup_s"], setup, result["sha256"]


def end_to_end(samples: list[Sample], setups: list[float]) -> dict[str, tuple[float, str]]:
    times = [sample.seconds for sample in samples]
    records = [sample.record for sample in samples if sample.record is not None]
    value, _, _ = tail(times)
    return {
        "review_p50_s": (statistics.median(times), "s"),
        "review_tail_s": (value, "s"),
        "model_calls": (statistics.median(r.calls for r in records), "count"),
        "prompt_tokens": (statistics.median(r.prompt_chars / 4 for r in records), "tokens"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# -- per-layer metrics -----------------------------------------------------

Reading = Callable[[dict, object], float]


def _wall(name: str) -> Reading:
    return lambda totals, record: totals[name].wall


def _count(name: str) -> Reading:
    return lambda totals, record: totals[name].count


def _attr(name: str, key: str) -> Reading:
    return lambda totals, record: totals[name].attrs[key]


def _ratio(numerator: Reading, denominator: Reading) -> Reading:
    def read(totals, record) -> float:
        below = denominator(totals, record)
        return numerator(totals, record) / below if below else 0.0

    return read


NAMED_LAYER_METRICS: dict[str, tuple[str, Reading]] = {
    "ingestion.build_request_s": ("s", _wall("ingestion.build_request")),
    "ingestion.prompt_block_calls": ("count", _count("ingestion.prompt_block")),
    "ingestion.prompt_block_s": ("s", _wall("ingestion.prompt_block")),
    "specs.load_library_s": ("s", _wall("specs.load_library")),
    "specs.segment_s": ("s", _wall("specs.segment")),
    "specs.chunk_text_s": ("s", _wall("specs.chunk_text")),
    "specs.lookups": ("count", _count("specs.lookups")),
    "retrieval.build_index_s": ("s", _wall("retrieval.build_index")),
    "retrieval.embed_calls": ("count", _count("retrieval.embed_calls")),
    "retrieval.load_index_s": ("s", _wall("retrieval.load_index")),
    "retrieval.retrieve_calls": ("count", _count("retrieval.retrieve")),
    "retrieval.retrieve_s": ("s", _wall("retrieval.retrieve")),
    "prompts.render_calls": ("count", _count("prompts.render")),
    "prompts.render_s": ("s", _wall("prompts.render")),
    "gateway.ensembles": ("count", _count("gateway.ensemble")),
    "gateway.slot_attempts": ("count", _count("gateway.slot")),
    "gateway.slot_success_ratio": (
        "ratio", _ratio(_attr("gateway.ensemble", "slots_ok"), _count("gateway.slot"))
    ),
    "gateway.ensemble_s": ("s", _wall("gateway.ensemble")),
    "backends.calls": ("count", lambda totals, record: record.calls),
    "backends.call_depth": ("count", lambda totals, record: record.call_depth()),
    "backends.peak_inflight": ("count", lambda totals, record: record.peak_inflight),
    "backends.wait_s": ("s", lambda totals, record: record.busy_s()),
    "backends.model_cpu_s": ("s", lambda totals, record: record.model_cpu_s),
    "parsing.parse_s": ("s", _wall("parsing.parse")),
    "parsing.unparsable": ("count", _attr("parsing.parse", "unparsable")),
    "explicit.run_s": ("s", _wall("explicit.run")),
    "explicit.chunks": ("count", _count("explicit.review_chunk")),
    "explicit.review_chunk_s": ("s", _wall("explicit.review_chunk")),
    "explicit.aggregate_s": ("s", _wall("explicit.aggregate")),
    "explicit.synthesize_s": ("s", _wall("explicit.synthesize")),
    "explicit.quorum_kept_ratio": (
        "ratio", _ratio(_attr("explicit.aggregate", "kept"), _attr("explicit.aggregate", "candidates"))
    ),
    "implicit.run_s": ("s", _wall("implicit.run")),
    "implicit.propose_s": ("s", _wall("implicit.propose")),
    "implicit.ground_s": ("s", _wall("implicit.ground")),
    "implicit.verify_s": ("s", _wall("implicit.verify")),
    "implicit.proposals": ("count", _attr("implicit.run", "proposals")),
    "implicit.accept_ratio": (
        "ratio", _ratio(_attr("implicit.run", "accepted"), _attr("implicit.run", "proposals"))
    ),
    "matching.pair_checks": ("count", _count("matching.pair_checks")),
    "matching.cluster_input": ("count", _attr("matching.cluster", "input")),
    "matching.cluster_s": ("s", _wall("matching.cluster")),
    "report.consolidate_s": ("s", _wall("report.consolidate")),
    "report.patch_attempts": ("count", _attr("report.patches", "attempted")),
    "report.patches_s": ("s", _wall("report.patches")),
    "report.render_s": ("s", _wall("report.render")),
    "report.clusters": ("count", _attr("report.consolidate", "clusters")),
    "pipeline.run_review_s": ("s", _wall("pipeline.run_review")),
}


def _layer_sum(layer: str, field: str) -> Reading:
    def read(totals, record) -> float:
        return sum(
            getattr(entry, field)
            for name, entry in totals.items()
            if name.split(".")[0] == layer and entry.timed
        )

    return read


LAYER_METRICS = dict(NAMED_LAYER_METRICS)
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.spans"] = ("count", _layer_sum(_layer, "count"))
    LAYER_METRICS[f"{_layer}.self_s"] = ("s", _layer_sum(_layer, "self_wall"))
    LAYER_METRICS[f"{_layer}.self_cpu_s"] = ("s", _layer_sum(_layer, "self_cpu"))


def per_layer(samples: list[Sample], totals: dict) -> dict[str, tuple[float, str]]:
    """Median over traced reviews of each layer metric."""
    reviews = [
        (totals[review], sample.record)
        for review, sample in enumerate(samples, start=1)
        if sample.record is not None
    ]
    return {
        name: (statistics.median(read(t, r) for t, r in reviews), unit)
        for name, (unit, read) in LAYER_METRICS.items()
    }


def rationale(workload: str, samples: list[Sample], totals: dict) -> tuple[bool, str]:
    """Check in the trace that the workload stresses what its sentence says."""
    reviews = [
        (totals[review], sample)
        for review, sample in enumerate(samples, start=1)
        if sample.record is not None
    ]
    if workload == "pr-diff":
        share = statistics.median(s.record.busy_s() / s.wall for _, s in reviews)
        return share > 0.5, f"a model call is in flight for {share:.1%} of a review"

    def median_cpu(select: Callable[[str], Optional[str]]) -> dict[str, float]:
        per_review = []
        for review_totals, _ in reviews:
            groups: dict[str, float] = {}
            for name, entry in review_totals.items():
                group = select(name)
                if group is not None and entry.timed:
                    groups[group] = groups.get(group, 0.0) + entry.self_cpu
            per_review.append(groups)
        keys = {key for groups in per_review for key in groups}
        return {key: statistics.median(g.get(key, 0.0) for g in per_review) for key in keys}

    if workload == "library-build":
        spans = median_cpu(lambda name: name)
        largest = max(spans, key=spans.get)
        return largest == "retrieval.build_index", (
            f"largest self CPU span is {largest} ({spans[largest]:.4f} s per review)"
        )

    aggregation = {"explicit.aggregate", "explicit.synthesize"}
    groups = median_cpu(
        lambda name: "matching+aggregation"
        if name.split(".")[0] == "matching" or name in aggregation
        else name.split(".")[0]
    )
    largest = max(groups, key=groups.get)
    index_builds = sum(t["retrieval.build_index"].count for t, _ in reviews)
    return largest == "matching+aggregation" and index_builds == 0, (
        f"largest self CPU share is {largest}"
        f" ({groups[largest]:.4f} of {sum(groups.values()):.4f} s per review);"
        f" build_index ran {index_builds} time(s)"
    )


# -- command line ----------------------------------------------------------


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="review tiny inputs (used by smoke.py)"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).exists()]
    if missing:
        print(f"perfbench: not a sgcr checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    cpu = pin_to_one_cpu()
    print(f"pinned to CPU {cpu}" if cpu is not None else "not pinned: no CPU affinity here")
    # The command line logs warnings to stderr; the benchmark keeps stderr
    # for its own errors.
    logging.getLogger("sgcr").setLevel(logging.ERROR)

    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)
    inputs = workloads.prepare(workload, args.seed)
    try:
        return run(args, inputs)
    finally:
        shutil.rmtree(workloads.work_dir(workload, args.seed), ignore_errors=True)


def pin_to_one_cpu() -> Optional[int]:
    """Run this process and its children on one of the CPUs it may use.

    The program's threads overlap waiting, not computation: the interpreter
    lock lets one run Python at a time. Left free on a small shared VM,
    handing that lock between threads on different CPUs made the same
    review vary by a third between runs. Pinned, what remains is the
    host's own speed drift, which speed.py adjusts for. A change that adds
    process-level parallelism should also be measured unpinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def timed_run(args, reviewer, inputs, first_text: str, digest: str):
    """Set-up probes, then the closed loop: end-to-end metrics.

    Returns (metrics, attempted, failed) for the probes and the loop.
    """
    inputs_path = workloads.work_dir(inputs.workload, args.seed) / "inputs.json"
    index_path = Path(reviewer.config.index_path) if reviewer.config.index_path else None
    index_before = index_path.read_bytes() if index_path else b""
    setups, setup_walls, probe_failures = [], [], 0
    for _ in range(SETUP_PROBES):
        wall, seconds, probe_digest = probe_setup(inputs_path)
        setups.append(seconds)
        setup_walls.append(wall)
        # A probe's cold review must match, and so must the index it rebuilt.
        if probe_digest != digest or (index_path and index_path.read_bytes() != index_before):
            probe_failures += 1
    samples = closed_loop(reviewer, args.seconds, first_text)
    metrics = end_to_end(samples, setups)
    _, percentile, count = tail([s.seconds for s in samples])
    raw_tail, _, _ = tail([s.wall for s in samples])
    reference = statistics.median(s.reference for s in samples)
    print(f"{len(samples)} review(s) in a closed loop, one client")
    print(f"set-up probes: {', '.join(f'{seconds:.3f}' for seconds in setups)} s; {probe_failures} disagree")
    print(f"review_tail_s is p{percentile:.1f} of {count} reviews")
    print(
        f"raw wall times: review p50 {statistics.median(s.wall for s in samples):.4f} s,"
        f" tail {raw_tail:.4f} s, setup {statistics.median(setup_walls):.4f} s;"
        f" reference workload {reference * 1000:.2f} ms against {speed.REFERENCE_S * 1000:.0f} ms"
    )
    failed = probe_failures + sum(1 for sample in samples if not sample.ok)
    return metrics, len(samples) + SETUP_PROBES, failed


def traced_run(args, reviewer, name: str, first_text: str):
    """Half the time untraced, half traced, then one counting review.

    Returns (per-layer metrics, attempted, failed).
    """
    from tracing import Tracer

    untraced = closed_loop(reviewer, args.seconds / 2, first_text)
    tracer = Tracer()
    tracer.install_spans()
    try:
        traced = closed_loop(reviewer, args.seconds / 2, first_text, tracer)
    finally:
        tracer.uninstall()
    tracer.install_counters()
    try:
        counting = closed_loop(reviewer, 0, first_text)
    finally:
        tracer.uninstall()
    counts = tracer.read_counters()
    totals = tracer.totals()
    for review in range(1, len(traced) + 1):
        for counter, count in counts.items():
            totals[review][counter].count = count

    metrics = per_layer(traced, totals)
    untraced_p50 = statistics.median(s.seconds for s in untraced)
    traced_p50 = statistics.median(s.seconds for s in traced)
    metrics["trace.untraced_p50_s"] = (untraced_p50, "s")
    metrics["trace.traced_p50_s"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")

    spans_path = workloads.WORK_ROOT / f"spans-{name}-s{args.seed}.jsonl"
    with spans_path.open("w", encoding="utf-8") as out:
        for span in tracer.spans:
            out.write(json.dumps({
                "name": span.name, "review": span.review, "span": span.span_id,
                "parent": span.parent, "thread": span.thread, "start": span.start,
                "end": span.end, "cpu": span.cpu, "error": span.error,
            }) + "\n")
    holds, detail = rationale(name, traced, totals)
    print(f"traced {len(traced)} review(s) after {len(untraced)} untraced; spans in {spans_path}")
    if tracer.missing:
        print(f"not found, so not traced: {', '.join(tracer.missing)}")
    print(f"rationale {'holds' if holds else 'DOES NOT HOLD'}: {detail}")
    samples = untraced + traced + counting
    return metrics, len(samples), sum(1 for sample in samples if not sample.ok)


def run(args: argparse.Namespace, inputs) -> int:
    import harness

    name = inputs.workload.name
    golden_ok = harness.replay_golden()
    reviewer = harness.Reviewer(inputs)
    if inputs.workload.prebuilt_index:
        reviewer.build_index()
    first_text, first_record, _, _ = reviewer.review()
    problems = harness.check_report(first_text, first_record, frozenset(inputs.rule_ids))
    digest = sha256(first_text)

    print(f"workload {name} seed {args.seed}: {inputs.workload.why}")
    print(f"golden replay: {'ok' if golden_ok else 'MISMATCH'}")
    print(f"report sha256: {digest}")
    if args.trace:
        metrics, attempted, failed = traced_run(args, reviewer, name, first_text)
    else:
        metrics, attempted, failed = timed_run(args, reviewer, inputs, first_text, digest)
    # The first (cold) review is a review too, checked in depth.
    attempted += 1
    failed += 1 if problems else 0
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"failed_reviews {failed / attempted:.6f} ratio ({failed} of {attempted})")
    print_metrics(metrics)
    print(json.dumps({
        "correct": golden_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
