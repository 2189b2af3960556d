"""Discovery pathway: propose issues freely, then make each one earn its place.

A single high-temperature call proposes hypothetical issues from the code
alone. Each issue is grounded by retrieving the closest rules from the
vector index, judged by a verifier ensemble that sees code, issue, and the
retrieved rules, and accepted only when a quorum of verifiers deems it
valid. Accepted issues become findings whose severity and cited rules come
from the verifiers, not the proposer. The verifier prompt's issue and
retrieved-rules blocks are written in prompts.

This pathway is exploratory, so by default it degrades to an empty report
instead of failing the run when something inside it breaks.
"""

from __future__ import annotations

import logging
from concurrent.futures import Future
from contextlib import suppress
from dataclasses import replace
from typing import Callable, Optional, Sequence

from .errors import EnsembleError, SgcrError, UnparsableResponse, WireError
from .gateway import (
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
from .parsing import parse_proposals_response, parse_verdict_response
from .prompts import Role, issue_block, render_prompt, rules_block
from .retrieval import (
    DEFAULT_SCORE_THRESHOLD,
    DEFAULT_TOP_K,
    EmbeddingProvider,
    RetrievedSpecSet,
    VectorIndex,
    embed_text,
    retrieve,
)
from .specs import SpecLibrary, resolve_category
from .types import (
    SEVERITY_RANK,
    Finding,
    HypotheticalIssue,
    Pathway,
    PathwayReport,
    Severity,
    Value,
    Verdict,
    VerifierVerdict,
    freeze_stats,
    sort_findings,
)

logger = logging.getLogger(__name__)

MAX_PROPOSALS = 20


class VerificationOutcome(Value):
    """Everything the pipeline learned about one proposed issue."""

    issue: HypotheticalIssue
    retrieved: RetrievedSpecSet
    verdicts: tuple[Optional[VerifierVerdict], ...]
    accepted: bool
    finding: Optional[Finding] = None


def propose_issues(
    request: ReviewRequest,
    backend: ModelBackend,
    temperature: float = 0.7,
    seed: int = 0,
    max_proposals: int = MAX_PROPOSALS,
) -> list[HypotheticalIssue]:
    """One proposer call (instance 0, seed seed), parsed inside its retries.

    A transport failure or an unparsable response after the call's
    retries, or a request the endpoint rejected (never retried), yields
    zero proposals rather than a failed run; discovery finding nothing is a
    valid outcome. Any other error, such as a replay fixture miss, is
    raised. Duplicate proposals (same content hash) collapse to the first
    occurrence and the list is capped in response order.
    """
    prompt = render_prompt(Role.PROPOSER, {"code": prompt_block(request)})
    base = ModelRequest(
        role=Role.PROPOSER.value, prompt=prompt, temperature=temperature, seed=seed
    )
    try:
        proposals = call_model(backend, base, parse_proposals_response)
    except (WireError, UnparsableResponse) as exc:
        logger.warning("proposer failed: %s", exc)
        return []
    seen: set[str] = set()
    unique: list[HypotheticalIssue] = []
    for issue in proposals:
        if issue.issue_id in seen:
            continue
        seen.add(issue.issue_id)
        unique.append(issue)
    if len(unique) > max_proposals:
        logger.info("capping %d proposals to %d", len(unique), max_proposals)
        unique = unique[:max_proposals]
    return unique


def ground_issue(
    issue: HypotheticalIssue,
    provider: EmbeddingProvider,
    index: VectorIndex,
    k: int = DEFAULT_TOP_K,
    threshold: float = DEFAULT_SCORE_THRESHOLD,
) -> RetrievedSpecSet:
    """Retrieve the rules closest to the issue description."""
    query = embed_text(provider, f"{issue.description} {issue.file}")
    return retrieve(index, query, k=k, threshold=threshold)


def _verifier_request(
    request: ReviewRequest,
    issue: HypotheticalIssue,
    retrieved: RetrievedSpecSet,
    library: SpecLibrary,
) -> ModelRequest:
    scores = [item.score for item in retrieved.scored]
    prompt = render_prompt(
        Role.VERIFIER,
        {
            "code": prompt_block(request),
            "issue": issue_block(issue),
            "retrieved_specs": rules_block(library, retrieved.spec_ids(), scores),
        },
    )
    # Verifiers judge rather than explore: seed-diversified but greedy.
    return ModelRequest(role=Role.VERIFIER.value, prompt=prompt, temperature=0.0)


def verify_issue(
    slots: PendingEnsemble[VerifierVerdict], retrieved: RetrievedSpecSet
) -> tuple[Optional[VerifierVerdict], ...]:
    """Collect one grounded issue's verifier ensemble, absent slots as None.

    Citations outside the retrieved set are stripped: a verifier may only
    justify its verdict with rules it was actually shown. Raises
    EnsembleError past the failure budget.
    """
    offered = set(retrieved.spec_ids())
    verdicts: list[Optional[VerifierVerdict]] = []
    for index_, verdict in enumerate(slots.collect()):
        if verdict is None:
            verdicts.append(None)
            continue
        kept = tuple(spec_id for spec_id in verdict.cited_spec_ids if spec_id in offered)
        rogue = set(verdict.cited_spec_ids) - set(kept)
        if rogue:
            logger.warning(
                "verifier %d cited rules outside the retrieved set %s; stripping",
                index_,
                sorted(rogue),
            )
        verdicts.append(replace(verdict, cited_spec_ids=kept, instance_index=index_))
    return tuple(verdicts)


def decide_quorum(
    verdicts: Sequence[Optional[VerifierVerdict]], quorum: int
) -> bool:
    valid = sum(
        1 for verdict in verdicts if verdict is not None and verdict.verdict is Verdict.VALID
    )
    return valid >= quorum


def _modal_severity(severities: Sequence[Severity]) -> Optional[Severity]:
    if not severities:
        return None
    counts: dict[Severity, int] = {}
    for severity in severities:
        counts[severity] = counts.get(severity, 0) + 1
    return min(counts, key=lambda severity: (-counts[severity], SEVERITY_RANK[severity]))


def _finding_from_issue(
    issue: HypotheticalIssue,
    verdicts: Sequence[Optional[VerifierVerdict]],
    library: SpecLibrary,
) -> Finding:
    """Build the accepted finding from the valid verdicts.

    Severity resolution order: most severe cited rule, else the modal
    severity the valid verifiers assigned (ties break toward more severe),
    else low. Confidence is the valid share of present verifiers.
    """
    present = [verdict for verdict in verdicts if verdict is not None]
    valid = [verdict for verdict in present if verdict.verdict is Verdict.VALID]
    spec_ids = tuple(
        sorted({spec_id for verdict in valid for spec_id in verdict.cited_spec_ids})
    )
    if spec_ids:
        severity = min(
            (library.get(spec_id).severity for spec_id in spec_ids),
            key=lambda severity: SEVERITY_RANK[severity],
        )
    else:
        voted = _modal_severity([v.severity for v in valid if v.severity is not None])
        severity = voted if voted is not None else Severity.LOW
    rationale = ""
    for verdict in sorted(valid, key=lambda v: v.instance_index):
        if verdict.justification:
            rationale = verdict.justification
            break
    return Finding(
        file=issue.file,
        start_line=issue.start_line,
        end_line=issue.end_line,
        description=issue.description,
        severity=severity,
        pathway=Pathway.IMPLICIT,
        rationale=rationale,
        spec_ids=spec_ids,
        confidence=len(valid) / len(present),
        category=resolve_category(spec_ids, library),
    )


def propose(
    request: ReviewRequest,
    backend: ModelBackend,
    ensemble: EnsembleConfig,
    max_proposals: int = MAX_PROPOSALS,
    *,
    pool: RunScope,
) -> Future:
    """Put the proposer call on the pool, at the ensemble's temperature and
    base seed: the Future of propose_issues's list."""
    return pool.submit(
        propose_issues,
        request,
        backend,
        temperature=ensemble.temperature,
        seed=ensemble.base_seed,
        max_proposals=max_proposals,
    )


def run_implicit(
    request: ReviewRequest,
    library: SpecLibrary,
    backend: ModelBackend,
    proposal: Future,
    provider: EmbeddingProvider,
    get_index: Callable[[], VectorIndex],
    ensemble: EnsembleConfig,
    k: int = DEFAULT_TOP_K,
    threshold: float = DEFAULT_SCORE_THRESHOLD,
    allow_ungrounded: bool = False,
    soft_fail: bool = True,
    *,
    pool: RunScope,
) -> PathwayReport:
    """Ground and verify the proposed issues, and assemble the discovery report.

    Every model and embedding call goes on the run's call pool, and every
    verifier call through backend. get_index() comes first, so a fresh
    index is built inside the pathway. Once the proposal (propose's Future)
    is in, every issue is grounded on the pool against that index, and in
    proposal order each grounded issue's verifier slots are submitted while
    they fit under MAX_INFLIGHT beside the unfinished ones
    (gateway.collect_in_order); outcomes are collected in proposal order.
    An issue that retrieves nothing is skipped unless ungrounded
    verification is allowed. A verification ensemble that exhausts its
    failure budget rejects that one issue rather than the pathway. With
    soft_fail (the default) any other error inside the pathway, a failed
    index build included, degrades it to an empty report carrying the error
    in its stats. The degraded report waits for the proposer call, so every
    call of the pathway is made, and counted, when it returns.
    """
    try:
        index = get_index()
        issues = pool.wait(proposal)
        groundings = [
            pool.submit(ground_issue, issue, provider, index, k=k, threshold=threshold)
            for issue in issues
        ]

        # Each verifier prompt holds a copy of the code block, so only a
        # pool's worth of ensembles is in flight at once.
        def submit(position: int) -> Optional[PendingEnsemble]:
            retrieved = pool.wait(groundings[position])
            if not (retrieved.scored or allow_ungrounded):
                return None
            verifier = _verifier_request(request, issues[position], retrieved, library)
            return submit_ensemble(pool, backend, verifier, ensemble, parse_verdict_response)

        def collect(position: int, slots: Optional[PendingEnsemble]):
            """The issue's outcome, or None if its verification failed."""
            issue, retrieved = issues[position], pool.wait(groundings[position])
            if slots is None:
                logger.info("issue %s retrieved no rules; skipping", issue.issue_id)
                return VerificationOutcome(
                    issue=issue, retrieved=retrieved, verdicts=(), accepted=False
                )
            try:
                verdicts = verify_issue(slots, retrieved)
            except EnsembleError as exc:
                logger.warning("verification of issue %s failed: %s", issue.issue_id, exc)
                return None
            accepted = decide_quorum(verdicts, ensemble.quorum)
            return VerificationOutcome(
                issue=issue,
                retrieved=retrieved,
                verdicts=verdicts,
                accepted=accepted,
                finding=_finding_from_issue(issue, verdicts, library) if accepted else None,
            )

        verified = list(collect_in_order(submit, collect, len(issues), ensemble.n, pool=pool))
        outcomes = [outcome for outcome in verified if outcome is not None]
        findings = sort_findings(
            [outcome.finding for outcome in outcomes if outcome.finding is not None]
        )
        stats = freeze_stats(
            {
                "proposals": len(issues),
                "accepted": sum(1 for o in outcomes if o.accepted),
                "rejected": sum(1 for o in outcomes if not o.accepted and o.verdicts),
                "ungrounded_skipped": sum(1 for o in outcomes if not o.verdicts),
                "verification_failures": len(verified) - len(outcomes),
            }
        )
        summary = f"{len(findings)} verified finding(s) from {len(issues)} proposed issue(s)"
        return PathwayReport(
            pathway=Pathway.IMPLICIT, findings=tuple(findings), summary=summary, stats=stats
        )
    except SgcrError as exc:
        if not soft_fail:
            raise
        logger.error("implicit pathway degraded: %s", exc)
        with suppress(SgcrError):
            pool.wait(proposal)
        return PathwayReport(
            pathway=Pathway.IMPLICIT,
            findings=(),
            summary="discovery pathway unavailable for this run",
            stats=freeze_stats({"degraded": True, "error": str(exc)}),
        )
