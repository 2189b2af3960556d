"""Final consolidation: de-duplicate across pathways, rank, patch, render.

Findings from both pathways are clustered and merged by the shared
kernels in ``matching``. Each cluster keeps one representative whose
severity and confidence are raised to the member maxima, so agreement
between pathways never weakens a finding. Ranking is a total order
(severity, category, confidence, location) so rendered output is
byte-stable. Patch suggestions are generated per cluster against the exact
code snippet under review and discarded unless the diff parses and applies
cleanly; the patch prompt's finding and rules blocks are written in prompts.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _escape
from typing import Mapping, Optional, Sequence

from .errors import FixtureMiss, PatchDoesNotApply, SgcrError
from .gateway import ModelBackend, ModelRequest, RunScope, call_model
from .ingestion import ReviewRequest, apply_file_diff, parse_unified_diff, unit_for_location
from .matching import TokenTable, cluster_findings, merge_to_maxima
from .parsing import parse_patch_response
from .prompts import Role, finding_block, render_prompt, rules_block
from .specs import SpecLibrary
from .types import (
    CATEGORY_RANK,
    SEVERITY_RANK,
    Finding,
    PatchSuggestion,
    Pathway,
    PathwayReport,
    Severity,
    Value,
    finding_payload,
    patch_payload,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = "1"

# repr of a non-finite float -> its spelling in json.dumps output.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class FindingCluster(Value):
    """One de-duplicated finding plus the members that collapsed into it."""

    representative: Finding
    members: tuple[Finding, ...]
    pathways: tuple[str, ...]

    @property
    def duplicates(self) -> int:
        return len(self.members) - 1


class FinalReport(Value):
    """The consolidated review: clusters, summary and run accounting."""

    run_id: str
    mode: str
    clusters: tuple[FindingCluster, ...]
    summary: str
    pathway_reports: tuple[PathwayReport, ...]
    config_echo: tuple[tuple[str, object], ...] = ()
    patch_stats: tuple[tuple[str, int], ...] = ()
    schema_version: str = SCHEMA_VERSION


def compute_run_id(request: ReviewRequest, config: Mapping[str, object]) -> str:
    """Deterministic run identity from configuration and reviewed content."""
    units = [
        {
            "path": unit.path,
            "start_line": unit.start_line,
            "content_sha": hashlib.sha256(unit.content.encode("utf-8")).hexdigest()[:16],
        }
        for unit in request.units
    ]
    raw = json.dumps(
        {"config": dict(config), "units": units},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:12]


def dedupe(
    findings: Sequence[Finding], *, tokens: Optional[TokenTable] = None
) -> list[FindingCluster]:
    """Collapse equivalent findings across pathways into clusters.

    Each cluster's winner is the most severe, most confident member,
    explicit before implicit, then lowest finding id; it is raised to the
    member maxima by matching.merge_to_maxima. tokens is the run's
    TokenTable for the clustering (matching.cluster_findings).
    """
    clusters = []
    for group in cluster_findings(findings, tokens=tokens):
        members = tuple(group)
        winner = min(
            members,
            key=lambda finding: (
                SEVERITY_RANK[finding.severity],
                -finding.confidence,
                0 if finding.pathway is Pathway.EXPLICIT else 1,
                finding.finding_id,
            ),
        )
        pathways = tuple(sorted({finding.pathway.value for finding in members}))
        clusters.append(
            FindingCluster(
                representative=merge_to_maxima(members, winner),
                members=members,
                pathways=pathways,
            )
        )
    return clusters


def prioritize(clusters: Sequence[FindingCluster]) -> list[FindingCluster]:
    """Total order: severity, then category, then confidence, then location."""
    return sorted(
        clusters,
        key=lambda cluster: (
            SEVERITY_RANK[cluster.representative.severity],
            CATEGORY_RANK[cluster.representative.category],
            -cluster.representative.confidence,
            cluster.representative.sort_key(),
        ),
    )


def _count_by(clusters: Sequence[FindingCluster]) -> tuple[dict[str, int], dict[str, int]]:
    by_severity = {severity.value: 0 for severity in Severity}
    by_pathway = {"explicit": 0, "implicit": 0, "both": 0}
    for cluster in clusters:
        by_severity[cluster.representative.severity.value] += 1
        if len(cluster.pathways) > 1:
            by_pathway["both"] += 1
        else:
            by_pathway[cluster.pathways[0]] += 1
    return by_severity, by_pathway


def _summary_line(clusters: Sequence[FindingCluster]) -> str:
    by_severity, by_pathway = _count_by(clusters)
    severity_part = ", ".join(
        f"{by_severity[severity.value]} {severity.value}" for severity in Severity
    )
    return (
        f"{len(clusters)} finding(s) after de-duplication ({severity_part});"
        f" {by_pathway['explicit']} rule-grounded, {by_pathway['implicit']} discovered,"
        f" {by_pathway['both']} confirmed by both pathways"
    )


def consolidate(
    reports: Sequence[PathwayReport],
    run_id: str,
    mode: str,
    config_echo: Optional[Mapping[str, object]] = None,
    *,
    tokens: Optional[TokenTable] = None,
) -> FinalReport:
    """Merge pathway reports into the final prioritized report of run run_id.

    The reports are kept as given, stats included (the pipeline has added
    each one's accounting). tokens is the run's TokenTable, passed on to
    dedupe.
    """
    findings = [finding for report in reports for finding in report.findings]
    clusters = prioritize(dedupe(findings, tokens=tokens))
    echo = tuple(sorted((config_echo or {}).items()))
    return FinalReport(
        run_id=run_id,
        mode=mode,
        clusters=tuple(clusters),
        summary=_summary_line(clusters),
        pathway_reports=tuple(reports),
        config_echo=echo,
    )


def generate_patch(
    cluster: FindingCluster,
    request: ReviewRequest,
    library: SpecLibrary,
    backend: ModelBackend,
    seed: int = 0,
) -> Optional[PatchSuggestion]:
    """One patch for a cluster; None whenever the result is unusable.

    The call parses its reply inside its retries (gateway.call_model), so a
    reply that does not parse is resent; the diff is then parsed and
    applied once, and a diff that does not apply is not resent. The model
    sees the raw snippet (no line numbering) and must return a unified diff
    against that snippet alone: exactly one file section, at least one
    hunk, applying cleanly. Anything else is discarded, as is a call that
    fails or a reply that breaks the wire protocol; a bad patch is worse
    than no patch. Only a replay fixture miss is raised.
    """
    finding = cluster.representative
    unit = unit_for_location(request, finding.file, finding.start_line)
    if unit is None:
        logger.info(
            "no reviewed snippet for %s:%d; skipping patch",
            finding.file,
            finding.start_line,
        )
        return None
    cited = [spec_id for spec_id in finding.spec_ids if spec_id in library]
    if not cited:
        logger.info(
            "finding %s cites no known rules; skipping patch", finding.finding_id
        )
        return None
    finding_text = finding_block(finding, unit.start_line)
    prompt = render_prompt(
        Role.PATCH_GENERATOR,
        {"code": unit.content, "finding": finding_text, "specs": rules_block(library, cited)},
    )
    patch_request = ModelRequest(
        role=Role.PATCH_GENERATOR.value, prompt=prompt, temperature=0.0, seed=seed
    )
    try:
        diff_text, explanation = call_model(backend, patch_request, parse_patch_response)
        diffs = parse_unified_diff(diff_text)
        if len(diffs) != 1 or not diffs[0].hunks:
            raise PatchDoesNotApply(
                f"expected one file section with hunks, got {len(diffs)}"
            )
        apply_file_diff(unit.content, diffs[0])
    except FixtureMiss:
        raise
    except SgcrError as exc:
        logger.warning(
            "patch for finding %s discarded: %s", finding.finding_id, exc
        )
        return None
    return PatchSuggestion(
        unified_diff=diff_text,
        explanation=explanation,
        constrained_by=tuple(cited),
    )


def attach_patches(
    report: FinalReport,
    request: ReviewRequest,
    library: SpecLibrary,
    backend: ModelBackend,
    seed: int = 0,
    *,
    pool: RunScope,
) -> FinalReport:
    """Generate patches on the run's call pool, attach in cluster order.

    Every patch call is submitted at once. Clusters whose representative
    cites no known rule are skipped without a model call; generation
    failures only cost the patch. Outcome counts land in the report's
    patch_stats.
    """
    clusters = list(report.clusters)
    eligible = [
        index
        for index, cluster in enumerate(clusters)
        if any(spec_id in library for spec_id in cluster.representative.spec_ids)
    ]
    attached = 0
    futures = {
        index: pool.submit(generate_patch, clusters[index], request, library, backend, seed)
        for index in eligible
    }
    for index in eligible:
        patch = pool.wait(futures[index])
        if patch is None:
            continue
        cluster = clusters[index]
        clusters[index] = replace(
            cluster,
            representative=replace(cluster.representative, patch=patch),
        )
        attached += 1
    stats = {
        "attempted": len(eligible),
        "attached": attached,
        "skipped_uncited": len(clusters) - len(eligible),
    }
    return replace(
        report,
        clusters=tuple(clusters),
        patch_stats=tuple(sorted(stats.items())),
    )


def report_payload(report: FinalReport) -> dict[str, object]:
    """Schema v1 document: schema_version, summary, stats, clusters."""
    by_severity, by_pathway = _count_by(report.clusters)
    clusters = []
    for cluster in report.clusters:
        patch = cluster.representative.patch
        clusters.append(
            {
                "finding": finding_payload(cluster.representative),
                "duplicates": cluster.duplicates,
                "patch": patch_payload(patch) if patch is not None else None,
            }
        )
    stats: dict[str, object] = {
        "run_id": report.run_id,
        "mode": report.mode,
        "counts": {
            "total": len(report.clusters),
            "by_severity": by_severity,
            "by_pathway": by_pathway,
        },
        "pathways": {
            pathway_report.pathway.value: {
                "summary": pathway_report.summary,
                "stats": pathway_report.stats_dict(),
            }
            for pathway_report in report.pathway_reports
        },
        "config": dict(report.config_echo),
    }
    if report.patch_stats:
        stats["patches"] = dict(report.patch_stats)
    return {
        "schema_version": report.schema_version,
        "summary": report.summary,
        "stats": stats,
        "clusters": clusters,
    }


def _write_json(value: object, indent: str, parts: list[str]) -> None:
    """Append value as json.dumps(..., sort_keys=True, indent=2) writes it.

    Strings go through json's C escaper, ints and finite floats through
    their repr, non-finite floats as json spells them. Dict keys must be
    strings, as every key of report_payload is.
    """
    if isinstance(value, str):
        parts.append(_escape(value))
    elif value is None or value is True or value is False:
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        parts.append(_NON_FINITE.get(text, text))
    elif not isinstance(value, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        parts.append("{}" if isinstance(value, dict) else "[]")
    else:
        inner = indent + "  "
        is_dict = isinstance(value, dict)
        parts.append("{" if is_dict else "[")
        separator = "\n" + inner
        for item in sorted(value) if is_dict else value:
            parts.append(separator)
            separator = ",\n" + inner
            if is_dict:
                parts.append(_escape(item) + ": ")
                item = value[item]
            _write_json(item, inner, parts)
        parts.append("\n" + indent + ("}" if is_dict else "]"))


def render_json(report: FinalReport) -> str:
    """The report as JSON text, byte for byte
    json.dumps(report_payload(report), sort_keys=True, indent=2) + "\n".

    json.dumps with an indent runs the pure-Python encoder; _write_json
    writes the same bytes with one recursive call per value, escaping
    strings in C. report_payload stays the only owner of the schema.
    """
    parts: list[str] = []
    _write_json(report_payload(report), "", parts)
    parts.append("\n")
    return "".join(parts)


def render_markdown(report: FinalReport) -> str:
    lines = [
        "# Review report",
        "",
        f"- run: `{report.run_id}` (mode: {report.mode})",
        f"- {report.summary}",
    ]
    for severity in Severity:
        section = [
            cluster
            for cluster in report.clusters
            if cluster.representative.severity is severity
        ]
        if not section:
            continue
        lines += ["", f"## {severity.value.title()}", ""]
        for cluster in section:
            finding = cluster.representative
            anchor = f"{finding.file}:{finding.start_line}"
            if finding.end_line != finding.start_line:
                anchor += f"-{finding.end_line}"
            lines.append(
                f"- **{anchor}** [{finding.category.value}]"
                f" (confidence {finding.confidence:.2f}): {finding.description}"
            )
            if finding.spec_ids:
                lines.append(f"  - rules: {', '.join(finding.spec_ids)}")
            if finding.rationale:
                lines.append(f"  - rationale: {finding.rationale}")
            if cluster.duplicates:
                lines.append(
                    f"  - confirmed by {cluster.duplicates + 1} overlapping finding(s)"
                    f" ({', '.join(cluster.pathways)})"
                )
            if finding.patch is not None:
                lines.append("  - suggested patch:")
                lines.append("")
                lines.append("    ```diff")
                for diff_line in finding.patch.unified_diff.splitlines():
                    lines.append(f"    {diff_line}")
                lines.append("    ```")
    lines.append("")
    return "\n".join(lines)


def render(report: FinalReport, fmt: str = "json") -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "markdown":
        return render_markdown(report)
    raise SgcrError(f"unknown report format {fmt!r}")
