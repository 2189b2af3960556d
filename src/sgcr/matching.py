"""Equivalence between findings, deterministic clustering, and merging.

Two findings describe the same problem when they sit in the same file,
their line ranges overlap, and their descriptions share enough words
(token Jaccard at or above the threshold). Clustering is the transitive
closure of that relation, computed with union-find over a sorted input
so group membership and order never depend on arrival order. The input
is sorted by file, then start line, so a sweep that stops at the first
later finding in another file or starting past the current one's end
skips only pairs that cannot overlap; each distinct description is
tokenized once. A cluster merges into one finding raised to the member
maxima.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence, TypeVar

from .specs import SpecLibrary, resolve_category
from .types import CATEGORY_RANK, SEVERITY_RANK, Finding

JACCARD_THRESHOLD = 0.6

_TOKEN = re.compile(r"\w+")

Tag = TypeVar("Tag")


def tokenize(text: str) -> frozenset[str]:
    return frozenset(map(str.lower, _TOKEN.findall(text)))


def _jaccard(tokens_a: frozenset[str], tokens_b: frozenset[str]) -> float:
    if not tokens_a and not tokens_b:
        return 1.0
    shared = len(tokens_a & tokens_b)
    return shared / (len(tokens_a) + len(tokens_b) - shared)


def token_jaccard(a: str, b: str) -> float:
    """Jaccard similarity of word sets; two empty sets count as identical."""
    return _jaccard(tokenize(a), tokenize(b))


def ranges_overlap(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    return a_start <= b_end and b_start <= a_end


def findings_equivalent(a: Finding, b: Finding, threshold: float = JACCARD_THRESHOLD) -> bool:
    if a.file != b.file:
        return False
    if not ranges_overlap(a.start_line, a.end_line, b.start_line, b.end_line):
        return False
    return token_jaccard(a.description, b.description) >= threshold


def cluster_tagged(
    entries: Iterable[tuple[Finding, Tag]], threshold: float = JACCARD_THRESHOLD
) -> list[list[tuple[Finding, Tag]]]:
    """Partition (finding, tag) entries by equivalence of their findings.

    Entries are ordered by (finding.sort_key(), tag); groups are ordered
    by their first entry and keep entry order, so the result is a pure
    function of the set. The tag only breaks ties and travels along: the
    ensemble member or rule chunk an entry came from, say.
    """
    ordered = sorted(entries, key=lambda entry: (entry[0].sort_key(), entry[1]))
    # Ensemble members often repeat a description word for word; one token
    # set per distinct text keeps memory at the distinct descriptions.
    token_sets = {text: tokenize(text) for text in {finding.description for finding, _ in ordered}}
    tokens = [token_sets[finding.description] for finding, _ in ordered]
    parent = list(range(len(ordered)))

    def find(index: int) -> int:
        root = index
        while parent[root] != root:
            root = parent[root]
        while parent[index] != root:
            parent[index], index = root, parent[index]
        return root

    for i, (finding, _) in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            other = ordered[j][0]
            # Later entries start no earlier, so once one starts past this
            # end (or sits in a later file) none of the rest can overlap.
            if other.file != finding.file or other.start_line > finding.end_line:
                break
            root_i, root_j = find(i), find(j)
            if root_i != root_j and _jaccard(tokens[i], tokens[j]) >= threshold:
                parent[max(root_i, root_j)] = min(root_i, root_j)

    groups: dict[int, list[tuple[Finding, Tag]]] = {}
    for index, entry in enumerate(ordered):
        groups.setdefault(find(index), []).append(entry)
    return [groups[root] for root in sorted(groups)]


def cluster_findings(
    findings: Iterable[Finding], threshold: float = JACCARD_THRESHOLD
) -> list[list[Finding]]:
    """cluster_tagged with each finding's pathway as its tag, findings only."""
    return [
        [finding for finding, _ in group]
        for group in cluster_tagged(
            ((finding, finding.pathway.value) for finding in findings), threshold
        )
    ]


def merge_to_maxima(
    members: Sequence[Finding],
    winner: Finding,
    confidence: Optional[float] = None,
    library: Optional[SpecLibrary] = None,
) -> Finding:
    """The winner's wording and location with the members' strongest triage.

    Severity becomes the most severe among members and cited rules their
    sorted union. Confidence is the member maximum unless given (an
    aggregate's support share). Category is resolved from the union of
    cited rules with a library, else the highest-ranked among members. The
    result is built in one construction, keeping the winner's finding_id
    and patch; when no field would change, the winner itself is returned.
    """
    severity = min((member.severity for member in members), key=SEVERITY_RANK.__getitem__)
    spec_ids = tuple(sorted({spec_id for member in members for spec_id in member.spec_ids}))
    if confidence is None:
        confidence = max(member.confidence for member in members)
    category = (
        resolve_category(spec_ids, library)
        if library is not None
        else min((member.category for member in members), key=CATEGORY_RANK.__getitem__)
    )
    if (
        severity is winner.severity
        and confidence == winner.confidence
        and spec_ids == winner.spec_ids
        and category is winner.category
    ):
        return winner
    return Finding(
        file=winner.file,
        start_line=winner.start_line,
        end_line=winner.end_line,
        description=winner.description,
        severity=severity,
        pathway=winner.pathway,
        rationale=winner.rationale,
        spec_ids=spec_ids,
        confidence=confidence,
        category=category,
        patch=winner.patch,
        finding_id=winner.finding_id,
    )
