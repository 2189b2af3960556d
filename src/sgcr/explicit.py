"""Rule-grounded review pathway.

Every rule chunk is reviewed by an ensemble of n diversified calls that
all see the same code. Per-chunk candidate reviews are aggregated into a
partial result keeping only findings supported by a quorum of members,
then the partials are merged into one pathway report. Both steps cluster
and merge with the kernels in ``matching`` (``cluster_tagged`` and
``merge_to_maxima``), tagging each finding with its ensemble member or
rule chunk. Aggregation is deterministic by default; a model-backed mode
exists for semantic grouping but anything the model invents without
candidate support is dropped.

Every reviewer slot parses through the pathway's one parsing.FindingTable
(shared without a lock, it dies with the pathway; a race only rebuilds an
equal Finding), so agreeing members hold the same Finding objects, and
deterministic aggregation clusters each distinct object once.
"""

from __future__ import annotations

import json
import logging
from dataclasses import replace
from functools import partial
from types import SimpleNamespace
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import InvalidReviewRequest, NoCandidates, NoPartials
from .gateway import (
    DEFAULT_MAX_OUTPUT_TOKENS,
    CountedBackend,
    EnsembleConfig,
    ModelBackend,
    ModelRequest,
    PendingEnsemble,
    RunScope,
    call_model,
    collect_in_order,
    submit_ensemble,
)
from .ingestion import ReviewRequest, prompt_block
from .matching import TokenTable, cluster_tagged, findings_equivalent, merge_to_maxima
from .parsing import FindingTable, parse_findings_response
from .prompts import Role, render_prompt
from .specs import (
    DEFAULT_CHUNK_BUDGET,
    SpecChunk,
    SpecLibrary,
    chunk_prompt_text,
    segment_library,
)
from .types import (
    Finding,
    Pathway,
    PathwayReport,
    Value,
    finding_payload,
    freeze_stats,
    sort_findings,
    value_class,
)

logger = logging.getLogger(__name__)

AGGREGATION_MODES = ("deterministic", "model")


@value_class
class CandidateReview(Value):
    """Findings from one ensemble member for one rule chunk."""

    chunk_ordinal: int
    instance_index: int
    findings: tuple[Finding, ...]


@value_class
class AggregatedReview(Value):
    """Quorum-filtered findings for one rule chunk."""

    chunk_ordinal: int
    findings: tuple[Finding, ...]
    n_effective: int


def _reviewer_request(
    request: ReviewRequest, chunk: SpecChunk, library: SpecLibrary, ensemble: EnsembleConfig
) -> ModelRequest:
    prompt = render_prompt(
        Role.EXPLICIT_REVIEWER,
        {"code": prompt_block(request), "specs": chunk_prompt_text(library, chunk)},
    )
    return ModelRequest(
        role=Role.EXPLICIT_REVIEWER.value,
        prompt=prompt,
        temperature=ensemble.temperature,
        max_output_tokens=DEFAULT_MAX_OUTPUT_TOKENS,
    )


def review_chunk_ensemble(
    chunk: SpecChunk, slots: PendingEnsemble[list[Finding]]
) -> list[CandidateReview]:
    """Collect one chunk's reviewer ensemble: a candidate per present slot.

    The slots' parser is given the library, so findings arrive normalized:
    unknown cited rule ids stripped and the category resolved. Raises
    EnsembleError past the chunk's failure budget.
    """
    return [
        CandidateReview(
            chunk_ordinal=chunk.ordinal, instance_index=index, findings=tuple(findings)
        )
        for index, findings in enumerate(slots.collect())
        if findings is not None
    ]


def aggregate_candidates(
    chunk: SpecChunk,
    candidates: Sequence[CandidateReview],
    ensemble: EnsembleConfig,
    mode: str = "deterministic",
    backend: Optional[ModelBackend] = None,
    library: Optional[SpecLibrary] = None,
    *,
    tokens: Optional[TokenTable] = None,
) -> AggregatedReview:
    """Merge one chunk's candidate reviews into a quorum-filtered partial.

    Deterministic mode clusters equivalent findings and keeps groups whose
    support (distinct ensemble members) reaches the quorum. Each distinct
    Finding object is clustered once, tagged with its lowest member, and a
    group's support is the union of its objects' members; the merged
    finding takes the lowest instance's wording and is raised to the member
    maxima, except that confidence = support / present members and, with a
    library, the category is resolved from the union of cited rules (a
    member citing nothing does not pull it to maintainability). Model mode
    asks the aggregator role to group candidates instead; a returned
    finding's support is the members with a candidate equivalent to it
    directly (matching.findings_equivalent, not the closure), and a finding
    no member supports is an invention and dropped. tokens is the run's
    TokenTable for the clustering (matching.cluster_tagged) and the support
    checks (a fresh one when none is given).
    """
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if not candidates:
        raise NoCandidates(f"chunk {chunk.ordinal} has no candidate reviews")
    if tokens is None:
        tokens = TokenTable()
    n_effective = len({candidate.instance_index for candidate in candidates})
    entries = [
        (finding, candidate.instance_index)
        for candidate in sorted(candidates, key=lambda c: c.instance_index)
        for finding in candidate.findings
    ]

    if mode == "deterministic":
        # Members share the finding table's objects: cluster each once.
        holders: dict[int, set[int]] = {}
        distinct = []
        for entry in entries:
            held = holders.get(id(entry[0]))
            if held is None:
                held = holders[id(entry[0])] = set()
                distinct.append(entry)
            held.add(entry[1])
        merged: list[Finding] = []
        for group in cluster_tagged(distinct, tokens=tokens):
            members, instances = zip(*group)
            support = len(set().union(*[holders[id(member)] for member in members]))
            if support < ensemble.quorum:
                logger.debug(
                    "chunk %d: dropping finding %s (support %d < quorum %d)",
                    chunk.ordinal,
                    members[0].finding_id,
                    support,
                    ensemble.quorum,
                )
                continue
            # The group is in (sort key, instance) order, so the lowest
            # instance's first entry is its finding with the lowest key.
            winner = members[instances.index(min(instances))]
            merged.append(
                merge_to_maxima(
                    members, winner, confidence=support / n_effective, library=library
                )
            )
        return AggregatedReview(
            chunk_ordinal=chunk.ordinal,
            findings=tuple(sort_findings(merged)),
            n_effective=n_effective,
        )

    if backend is None:
        raise ValueError("model aggregation requires a backend")
    payload = json.dumps(
        [
            {
                "instance": candidate.instance_index,
                "findings": [finding_payload(f) for f in candidate.findings],
            }
            for candidate in sorted(candidates, key=lambda c: c.instance_index)
        ],
        sort_keys=True,
        indent=2,
    )
    prompt = render_prompt(Role.AGGREGATOR, {"candidates": payload})
    aggregator = ModelRequest(role=Role.AGGREGATOR.value, prompt=prompt, temperature=0.0)
    aggregated = call_model(
        backend, aggregator, lambda text: parse_findings_response(text, Pathway.EXPLICIT, library)
    )
    kept: list[Finding] = []
    for finding in aggregated:
        supporters = {
            instance
            for candidate_finding, instance in entries
            if findings_equivalent(finding, candidate_finding, tokens=tokens)
        }
        if not supporters:
            logger.warning(
                "aggregator invented finding %s with no candidate support; dropping",
                finding.finding_id,
            )
            continue
        kept.append(replace(finding, confidence=len(supporters) / n_effective))
    return AggregatedReview(
        chunk_ordinal=chunk.ordinal,
        findings=tuple(sort_findings(kept)),
        n_effective=n_effective,
    )


def synthesize_partials(
    partials: Sequence[AggregatedReview],
    backend: Optional[ModelBackend] = None,
    model_summary: bool = False,
    *,
    tokens: Optional[TokenTable] = None,
) -> PathwayReport:
    """Merge per-chunk partials into the pathway report.

    Cross-chunk duplicates (same code shown against different rule chunks)
    collapse to the highest-confidence member raised to the group maxima
    (merge_to_maxima). The summary is a plain count line unless a model
    summary is requested. tokens is the run's TokenTable for the
    clustering (matching.cluster_tagged).
    """
    if not partials:
        raise NoPartials("no partial reviews to synthesize")
    entries = [
        (finding, partial.chunk_ordinal)
        for partial in sorted(partials, key=lambda p: p.chunk_ordinal)
        for finding in partial.findings
    ]
    merged: list[Finding] = []
    for group in cluster_tagged(entries, tokens=tokens):
        members, _ = zip(*group)
        confidences = [finding.confidence for finding in members]
        # Group order is by sort key: the first most confident member wins.
        merged.append(merge_to_maxima(members, members[confidences.index(max(confidences))]))
    findings = tuple(sort_findings(merged))
    summary = (
        f"{len(findings)} rule-grounded finding(s) across {len(partials)} rule chunk(s)"
    )
    if model_summary:
        if backend is None:
            raise ValueError("a model summary requires a backend")
        payload = json.dumps(
            [finding_payload(f) for f in findings], sort_keys=True, indent=2
        )
        prompt = render_prompt(Role.SYNTHESIZER, {"candidates": payload})
        synthesizer = ModelRequest(role=Role.SYNTHESIZER.value, prompt=prompt, temperature=0.0)
        summary = call_model(backend, synthesizer, str.strip)
    return PathwayReport(pathway=Pathway.EXPLICIT, findings=findings, summary=summary)


class ChunkReviews(NamedTuple):
    """A library's chunks, each one's candidate reviews in chunk order, and
    the backend every call of the pathway goes through (calls, whose count
    is model_calls)."""

    chunks: list[SpecChunk]
    calls: CountedBackend
    candidates: Iterator[list[CandidateReview]]


def review_chunks(
    request: ReviewRequest,
    library: SpecLibrary,
    backend: ModelBackend,
    ensemble: EnsembleConfig,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    *,
    pool: RunScope,
) -> ChunkReviews:
    """Segment the rule library and put the first window of chunk ensembles on the pool.

    Chunk ensembles go on the run's call pool through the one ensemble
    window, gateway.collect_in_order, as the verifier ensembles do: the
    first window, at least min(chunks, MAX_INFLIGHT // n) ensembles, is on
    the pool when this returns, and each later one is submitted while its
    slots fit beside the unfinished ones under MAX_INFLIGHT, as candidates
    are read, so one slow slot leaves no freed worker idle.
    """
    if not request.units:
        raise InvalidReviewRequest("explicit review needs at least one unit")
    chunks = segment_library(library, chunk_budget)
    calls = CountedBackend(backend)
    table = FindingTable()

    def parse(text: str) -> list[Finding]:
        return parse_findings_response(text, Pathway.EXPLICIT, library, table=table)

    def submit(position: int) -> PendingEnsemble:
        reviewer = _reviewer_request(request, chunks[position], library, ensemble)
        return submit_ensemble(pool, calls, reviewer, ensemble, parse)

    def collect(position: int, slots: Optional[PendingEnsemble]) -> list[CandidateReview]:
        return review_chunk_ensemble(chunks[position], slots)

    return ChunkReviews(
        chunks, calls, collect_in_order(submit, collect, len(chunks), ensemble.n, pool=pool)
    )


def run_explicit(
    reviews: ChunkReviews,
    library: SpecLibrary,
    ensemble: EnsembleConfig,
    aggregation_mode: str = "deterministic",
    model_summary: bool = False,
    run_id: str = "",
    *,
    pool: RunScope,
    tokens: Optional[TokenTable] = None,
) -> PathwayReport:
    """Aggregate every chunk's reviews as they are collected, and synthesize.

    Reviews are collected and aggregated in chunk order, so the report is
    identical whatever the completion order. Model-mode aggregation and
    the model summary call from this thread, each attempt on the pool so
    it counts against its cap, and parse each reply inside the call's
    retries (gateway.call_model), as the slots do. Every call goes through
    reviews.calls, whose count is the model_calls stat, retries included.
    Aggregation and synthesis tokenize descriptions through tokens, the
    run's TokenTable (a fresh one when none is given). Raises EnsembleError
    when any chunk exceeds its failure budget.
    """
    if tokens is None:
        tokens = TokenTable()
    pooled = SimpleNamespace(complete=partial(pool.call, reviews.calls.complete))
    partials = []
    absent_total = 0
    for chunk, candidates in zip(reviews.chunks, reviews.candidates):
        absent_total += ensemble.n - len(candidates)
        partials.append(
            aggregate_candidates(
                chunk,
                candidates,
                ensemble,
                aggregation_mode,
                backend=pooled,
                library=library,
                tokens=tokens,
            )
        )
    report = synthesize_partials(partials, pooled, model_summary, tokens=tokens)
    stats = freeze_stats(
        {
            "pathway": Pathway.EXPLICIT.value,
            "chunks": len(reviews.chunks),
            "model_calls": reviews.calls.calls,
            "absent_slots": absent_total,
            "findings": len(report.findings),
            "run_id": run_id,
        }
    )
    return replace(report, stats=stats)
