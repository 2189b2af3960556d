"""Discovery pathway: propose issues freely, then make each one earn its place.

A single high-temperature call proposes hypothetical issues from the code
alone. Each issue is grounded by retrieving the closest rules from the
vector index, judged by a verifier ensemble that sees code, issue, and the
retrieved rules, and accepted only when a quorum of verifiers deems it
valid. Accepted issues become findings whose severity and cited rules come
from the verifiers, not the proposer.

This pathway is exploratory, so by default it degrades to an empty report
instead of failing the run when something inside it breaks.
"""

from __future__ import annotations

import logging
from concurrent.futures import Executor, Future
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .errors import EnsembleError, SgcrError, UnparsableResponse, WireError
from .gateway import (
    EnsembleConfig,
    ModelBackend,
    ModelRequest,
    PendingEnsemble,
    run_slot,
    submit_ensemble,
)
from .ingestion import ReviewRequest, prompt_block
from .parsing import parse_proposals_response, parse_verdict_response
from .prompts import Role, render_prompt
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
    Verdict,
    VerifierVerdict,
    freeze_stats,
    sort_findings,
)

logger = logging.getLogger(__name__)

MAX_PROPOSALS = 20


@dataclass(frozen=True)
class VerificationOutcome:
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
) -> tuple[list[HypotheticalIssue], int]:
    """One proposer call, run as a one-slot ensemble (instance 0, seed seed).

    A transport failure or an unparsable response after the slot's
    retries, or a request the endpoint rejected (never retried), yields
    zero proposals rather than a failed run; discovery finding nothing is a
    valid outcome. Any other error, such as a replay fixture miss, is
    raised. Duplicate proposals (same content hash) collapse to the first
    occurrence and the list is capped in response order. Returns (issues,
    calls made).
    """
    prompt = render_prompt(Role.PROPOSER, {"code": prompt_block(request)})
    base = ModelRequest(
        role=Role.PROPOSER.value, prompt=prompt, temperature=temperature, seed=seed
    )
    proposals, error, calls = run_slot(backend, base, parse_proposals_response)
    if isinstance(error, (WireError, UnparsableResponse)):
        logger.warning("proposer failed after %d attempts: %s", calls, error)
        return [], calls
    if error is not None:
        raise error
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
    return unique, calls


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


def _issue_block(issue: HypotheticalIssue) -> str:
    return (
        f"{issue.file} lines {issue.start_line}..{issue.end_line}: {issue.description}"
    )


def _retrieved_block(retrieved: RetrievedSpecSet, library: SpecLibrary) -> str:
    if not retrieved.scored:
        return "(no rules retrieved for this issue)"
    parts = [
        f"score={item.score:.4f}\n{library.get(item.spec_id).prompt_text()}"
        for item in retrieved.scored
    ]
    return "\n\n".join(parts)


def _verifier_request(
    request: ReviewRequest,
    issue: HypotheticalIssue,
    retrieved: RetrievedSpecSet,
    library: SpecLibrary,
) -> ModelRequest:
    prompt = render_prompt(
        Role.VERIFIER,
        {
            "code": prompt_block(request),
            "issue": _issue_block(issue),
            "retrieved_specs": _retrieved_block(retrieved, library),
        },
    )
    # Verifiers judge rather than explore: seed-diversified but greedy.
    return ModelRequest(role=Role.VERIFIER.value, prompt=prompt, temperature=0.0)


def verify_issue(
    slots: PendingEnsemble[VerifierVerdict], retrieved: RetrievedSpecSet
) -> tuple[tuple[Optional[VerifierVerdict], ...], int]:
    """Collect one grounded issue's verifier ensemble: (verdicts, calls made).

    Citations outside the retrieved set are stripped: a verifier may only
    justify its verdict with rules it was actually shown. Raises
    EnsembleError, carrying the calls made, past the failure budget.
    """
    parsed, stats = slots.collect()
    offered = set(retrieved.spec_ids())
    verdicts: list[Optional[VerifierVerdict]] = []
    for index_, verdict in enumerate(parsed):
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
    return tuple(verdicts), stats.calls


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


def run_implicit(
    request: ReviewRequest,
    library: SpecLibrary,
    backend: ModelBackend,
    provider: EmbeddingProvider,
    get_index: Callable[[], VectorIndex],
    ensemble: EnsembleConfig,
    k: int = DEFAULT_TOP_K,
    threshold: float = DEFAULT_SCORE_THRESHOLD,
    max_proposals: int = MAX_PROPOSALS,
    allow_ungrounded: bool = False,
    soft_fail: bool = True,
    run_id: str = "",
    *,
    pool: Executor,
) -> PathwayReport:
    """Propose, ground, verify, and assemble the discovery report.

    Every model and embedding call goes on the run's call pool. The
    proposer call is submitted first and get_index, which loads or builds
    the index, runs while it is in flight. get_index may block first: in a
    full run the pipeline builds a fresh index only once the explicit
    pathway's first window of reviewer calls is on the pool. Its errors
    always propagate, because a broken index is a configuration problem,
    not a degraded pathway. Then every issue is grounded on the pool, and
    in proposal order each grounded issue's verifier slots are submitted;
    outcomes are collected in proposal order. An issue that retrieves
    nothing is skipped unless ungrounded verification is allowed. A
    verification ensemble that exhausts its failure budget rejects that
    one issue rather than the pathway, and its calls still count in the
    model_calls stat. With soft_fail (the default) any other error inside
    the pathway degrades it to an empty report carrying the error in its
    stats.
    """
    proposal = pool.submit(
        propose_issues,
        request,
        backend,
        temperature=ensemble.temperature,
        seed=ensemble.base_seed,
        max_proposals=max_proposals,
    )
    index = get_index()
    try:
        return _run_implicit(
            request,
            library,
            backend,
            provider,
            index,
            ensemble,
            k,
            threshold,
            allow_ungrounded,
            run_id,
            pool,
            proposal,
        )
    except SgcrError as exc:
        if not soft_fail:
            raise
        logger.error("implicit pathway degraded: %s", exc)
        stats = freeze_stats(
            {
                "pathway": Pathway.IMPLICIT.value,
                "degraded": True,
                "error": str(exc),
                "run_id": run_id,
            }
        )
        return PathwayReport(
            pathway=Pathway.IMPLICIT,
            findings=(),
            summary="discovery pathway unavailable for this run",
            stats=stats,
        )


def _run_implicit(
    request: ReviewRequest,
    library: SpecLibrary,
    backend: ModelBackend,
    provider: EmbeddingProvider,
    index: VectorIndex,
    ensemble: EnsembleConfig,
    k: int,
    threshold: float,
    allow_ungrounded: bool,
    run_id: str,
    pool: Executor,
    proposal: Future[tuple[list[HypotheticalIssue], int]],
) -> PathwayReport:
    issues, calls_total = proposal.result()
    groundings = [
        pool.submit(ground_issue, issue, provider, index, k=k, threshold=threshold)
        for issue in issues
    ]
    grounded: list[tuple[HypotheticalIssue, RetrievedSpecSet, Optional[PendingEnsemble]]] = []
    for issue, grounding in zip(issues, groundings):
        retrieved = grounding.result()
        slots = None
        if retrieved.scored or allow_ungrounded:
            slots = submit_ensemble(
                pool,
                backend,
                _verifier_request(request, issue, retrieved, library),
                ensemble,
                parse_verdict_response,
            )
        grounded.append((issue, retrieved, slots))

    ungrounded = 0
    verify_failures = 0
    outcomes: list[VerificationOutcome] = []
    for issue, retrieved, slots in grounded:
        if slots is None:
            logger.info("issue %s retrieved no rules; skipping", issue.issue_id)
            ungrounded += 1
            outcomes.append(
                VerificationOutcome(issue=issue, retrieved=retrieved, verdicts=(), accepted=False)
            )
            continue
        try:
            verdicts, calls_made = verify_issue(slots, retrieved)
        except EnsembleError as exc:
            logger.warning("verification of issue %s failed: %s", issue.issue_id, exc)
            verify_failures += 1
            calls_total += exc.calls
            continue
        calls_total += calls_made
        accepted = decide_quorum(verdicts, ensemble.quorum)
        outcomes.append(
            VerificationOutcome(
                issue=issue,
                retrieved=retrieved,
                verdicts=verdicts,
                accepted=accepted,
                finding=_finding_from_issue(issue, verdicts, library) if accepted else None,
            )
        )

    findings = sort_findings(
        [outcome.finding for outcome in outcomes if outcome.finding is not None]
    )
    accepted = sum(1 for o in outcomes if o.accepted)
    rejected = sum(1 for o in outcomes if not o.accepted and o.verdicts)
    stats = freeze_stats(
        {
            "pathway": Pathway.IMPLICIT.value,
            "proposals": len(issues),
            "accepted": accepted,
            "rejected": rejected,
            "ungrounded_skipped": ungrounded,
            "verification_failures": verify_failures,
            "model_calls": calls_total,
            "run_id": run_id,
        }
    )
    summary = (
        f"{len(findings)} verified finding(s) from {len(issues)} proposed issue(s)"
    )
    return PathwayReport(
        pathway=Pathway.IMPLICIT, findings=tuple(findings), summary=summary, stats=stats
    )
