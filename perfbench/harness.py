"""One review through the public library path, and the output checks.

A review is what ``sgcr review`` does after start-up:
``build_review_request`` -> ``run_review`` -> ``render_report(..., "json")``.
Functions are looked up on their modules at call time, so the traced run's
wrappers see these calls too.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import sgcr.ingestion as ingestion
import sgcr.pipeline as pipeline
import sgcr.retrieval as retrieval
from sgcr.config import RunConfig, validate_config

from backend import AgreeingReviewer, BenchBackend, CallRecord
from workloads import Inputs

GOLDEN_DIR = Path("tests/data/golden")


class Reviewer:
    """A prepared workload, ready to be reviewed any number of times."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.config = RunConfig(**inputs.config)
        validate_config(self.config)
        workload = inputs.workload
        self.scripted = (
            AgreeingReviewer(workload.findings_pool, workload.findings_per_call)
            if workload.findings_per_call
            else None
        )
        self.diff_text = (
            Path(inputs.diff_path).read_text(encoding="utf-8") if inputs.diff_path else None
        )

    def build_index(self) -> None:
        """What ``sgcr specs index`` does: load, embed and save the library."""
        library = pipeline.load_rules(self.config)
        index = retrieval.build_index(library, pipeline.build_provider(self.config))
        retrieval.save_index(index, Path(self.config.index_path))

    def review(self) -> tuple[str, CallRecord, float, float]:
        """One timed review: the JSON report, the calls, wall and CPU seconds.

        CPU time is the whole process's, which on the one CPU the run is
        pinned to is the review's (its worker threads included).
        """
        backend = BenchBackend(self.inputs.workload.latency_s, self.scripted)
        start = time.perf_counter()
        cpu_start = time.process_time()
        if self.diff_text is not None:
            request = ingestion.build_review_request(
                diff_text=self.diff_text,
                repo_root=Path(self.inputs.repo_root),
                context_lines=self.config.context_lines,
            )
        else:
            request = ingestion.build_review_request(
                paths=[Path(path) for path in self.inputs.paths],
                context_lines=self.config.context_lines,
            )
        final = pipeline.run_review(self.config, request, backend=backend)
        text = pipeline.render_report(final, "json")
        cpu = time.process_time() - cpu_start
        return text, backend.record, time.perf_counter() - start, cpu


def replay_golden() -> bool:
    """Replay the recorded golden fixtures; the report must match byte for byte.

    The configuration mirrors the golden command in the test suite.
    """
    config = RunConfig(
        mode="full",
        backend="replay",
        specs_dir="sample_specs",
        chunk_budget=300,
        patches=True,
        fixtures_dir=(GOLDEN_DIR / "fixtures").as_posix(),
    )
    request = ingestion.build_review_request(paths=[GOLDEN_DIR / "input" / "Example.java"])
    text = pipeline.render_report(pipeline.run_review(config, request), "json")
    expected = (GOLDEN_DIR / "expected_report.json").read_text(encoding="utf-8")
    return text == expected


def check_report(text: str, record: CallRecord, rule_ids: frozenset[str]) -> list[str]:
    """Problems with one workload report; an empty list means it passed.

    Every cited rule must exist in the generated library, every confidence
    must lie in (0, 1], no pathway may have degraded, and the model calls
    the report accounts for must equal the calls the backend received.
    """
    payload = json.loads(text)
    problems = []
    for cluster in payload["clusters"]:
        finding = cluster["finding"]
        cited = set(finding["spec_ids"])
        if cluster["patch"] is not None:
            cited |= set(cluster["patch"]["constrained_by"])
        if cited - rule_ids:
            problems.append(f"{finding['finding_id']} cites unknown rules {sorted(cited - rule_ids)}")
        if not 0 < finding["confidence"] <= 1:
            problems.append(f"{finding['finding_id']} has confidence {finding['confidence']}")
    stats = payload["stats"]
    accounted = stats.get("patches", {}).get("attempted", 0)
    for name, pathway in stats["pathways"].items():
        if pathway["stats"].get("degraded"):
            problems.append(f"{name} pathway degraded: {pathway['stats'].get('error')}")
        accounted += pathway["stats"].get("model_calls", 0)
    if accounted != record.calls:
        problems.append(f"report accounts for {accounted} model calls, backend saw {record.calls}")
    return problems
