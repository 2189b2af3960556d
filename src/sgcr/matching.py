"""Equivalence between findings, deterministic clustering, and merging.

Two findings describe the same problem when they sit in the same file,
their line ranges overlap, and their descriptions share enough words
(token Jaccard at or above the threshold). Clustering is the transitive
closure of that relation, computed with union-find over a sorted input
so group membership and order never depend on arrival order. The input
is sorted by file, then start line, so a sweep that stops at the first
later finding in another file or starting past the current one's end
skips only pairs that cannot overlap. The sweep is one flat loop over
columns read once per entry (file, start line, end line, token set); the
only call it makes for a pair is the Jaccard of two different token sets.
Entries whose token sets are the same object, as repeated descriptions'
are, join on that identity alone, and an entry that repeats the file,
end line and token set of the one before it has no sweep of its own. Token sets come from a TokenTable,
which tokenizes each distinct description once: a run passes one table to
every clustering it does (the explicit pathway's quorum aggregation and
synthesis, then consolidation) and to model-mode support checks
(findings_equivalent), so a description repeated by ensemble members,
rule chunks and pathways is tokenized once per run; a caller that passes
none gets a fresh table per call. A cluster merges into one finding
raised to the member maxima.
"""

from __future__ import annotations

import re
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Sequence, TypeVar

from .specs import SpecLibrary, resolve_category
from .types import CATEGORY_RANK, SEVERITY_RANK, Finding

JACCARD_THRESHOLD = 0.6

_TOKEN = re.compile(r"\w+")

Tag = TypeVar("Tag")


def tokenize(text: str) -> frozenset[str]:
    return frozenset(map(str.lower, _TOKEN.findall(text)))


class TokenTable(dict):
    """Description -> tokenize(description), filled on a miss.

    It lives for one run and holds one token set per distinct description.
    Tokens are a pure function of the text, so a table shared between
    threads at worst tokenizes a text twice, and a single dict read or
    write is atomic.
    """

    def __missing__(self, text: str) -> frozenset[str]:
        tokens = self[text] = tokenize(text)
        return tokens


def _jaccard(tokens_a: frozenset[str], tokens_b: frozenset[str]) -> float:
    if not tokens_a and not tokens_b:
        return 1.0
    shared = len(tokens_a & tokens_b)
    return shared / (len(tokens_a) + len(tokens_b) - shared)


def ranges_overlap(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    return a_start <= b_end and b_start <= a_end


def findings_equivalent(
    a: Finding,
    b: Finding,
    threshold: float = JACCARD_THRESHOLD,
    *,
    tokens: Optional[TokenTable] = None,
) -> bool:
    """The equivalence of one pair, not its transitive closure.

    Token sets come from tokens, the run's TokenTable (a fresh one when
    none is given), and are compared by the kernel's Jaccard.
    """
    if a.file != b.file:
        return False
    if not ranges_overlap(a.start_line, a.end_line, b.start_line, b.end_line):
        return False
    table = TokenTable() if tokens is None else tokens
    return _jaccard(table[a.description], table[b.description]) >= threshold


_TAG = itemgetter(1)
_FINDING = itemgetter(0)
_COLUMNS = attrgetter("file", "start_line", "end_line", "description")


def _finding_sort_key(entry: tuple[Finding, object]) -> tuple[str, int, str]:
    return entry[0].sort_key()


def cluster_tagged(
    entries: Iterable[tuple[Finding, Tag]],
    threshold: float = JACCARD_THRESHOLD,
    *,
    tokens: Optional[TokenTable] = None,
) -> list[list[tuple[Finding, Tag]]]:
    """Partition (finding, tag) entries by equivalence of their findings.

    Entries are ordered by (finding.sort_key(), tag); groups are ordered
    by their first entry and keep entry order, so the result is a pure
    function of the set. The tag only breaks ties and travels along: the
    ensemble member or rule chunk an entry came from, say. Descriptions
    are tokenized through tokens, the run's TokenTable, so a text the run
    has already seen is not tokenized again; without one, each distinct
    description of this call is tokenized once.

    The sweep reads each entry's file, start line, end line and token set
    once, into columns, and compares entry i with each later entry j until
    the first one in another file or starting past i's end. A pair whose
    token sets are the same object (the table's set for one text) joins
    without an intersection whenever threshold <= 1, since its Jaccard is
    exactly 1.0; an entry with the file, end line and token set of the one
    before it (another member's copy of a finding, say) has no sweep of its
    own. Roots are found only for a pair that joins, by walking parent
    links inline with path halving; a union keeps the smaller root, so
    every link points to a smaller index and a group's root is its first
    entry.
    """
    # Two stable sorts: by tag, then by finding, give the (sort key, tag)
    # order without building a nested key tuple per entry.
    ordered = sorted(entries, key=_TAG)
    if not ordered:
        return []
    ordered.sort(key=_finding_sort_key)
    table = TokenTable() if tokens is None else tokens
    files, starts, ends, descriptions = zip(*map(_COLUMNS, map(_FINDING, ordered)))
    token_sets = list(map(table.__getitem__, descriptions))
    identical_join = threshold <= 1
    count = len(ordered)
    parent = list(range(count))
    for i in range(count - 1):
        file_i = files[i]
        end_i = ends[i]
        tokens_i = token_sets[i]
        # A sweep reads only its entry's file, end and token set. An entry
        # that repeats those of the one before it would repeat that one's
        # comparisons, and it starts within that one's lines, so that sweep
        # already joined it (unless threshold > 1, when nothing joins).
        if (
            i
            and tokens_i is token_sets[i - 1]
            and end_i == ends[i - 1]
            and file_i == files[i - 1]
        ):
            continue
        root_i = -1
        for j in range(i + 1, count):
            # Later entries start no earlier, so once one starts past this
            # end (or sits in a later file) none of the rest can overlap.
            if starts[j] > end_i or files[j] != file_i:
                break
            tokens_j = token_sets[j]
            if tokens_j is tokens_i:
                if not identical_join:
                    continue
            elif _jaccard(tokens_i, tokens_j) < threshold:
                continue
            # Path halving: each step links a node to its grandparent, so
            # walks stay short however the unions fell.
            if root_i < 0:
                root_i = i
                while parent[root_i] != root_i:
                    parent[root_i] = parent[parent[root_i]]
                    root_i = parent[root_i]
            root_j = j
            while parent[root_j] != root_j:
                parent[root_j] = parent[parent[root_j]]
                root_j = parent[root_j]
            if root_j < root_i:
                parent[root_i] = root_j
                root_i = root_j
            else:
                parent[root_j] = root_i

    # parent[x] <= x, so in index order each entry's parent already points
    # at its root, and a group's root is met before any other member.
    groups: dict[int, list[tuple[Finding, Tag]]] = {}
    for index, entry in enumerate(ordered):
        root = parent[index] = parent[parent[index]]
        groups.setdefault(root, []).append(entry)
    return list(groups.values())


def cluster_findings(
    findings: Iterable[Finding],
    threshold: float = JACCARD_THRESHOLD,
    *,
    tokens: Optional[TokenTable] = None,
) -> list[list[Finding]]:
    """cluster_tagged with each finding's pathway as its tag, findings only."""
    return [
        [finding for finding, _ in group]
        for group in cluster_tagged(
            ((finding, finding.pathway.value) for finding in findings), threshold, tokens=tokens
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
    cited rules with a library, else the highest-ranked among members.
    Severity, category and the confidence maximum are read in one pass over
    the members. The result is built in one construction, keeping the
    winner's finding_id and patch; when no field would change, the winner
    itself is returned. A group of one, most groups, skips the pass, and
    the sort when its rule ids are a tuple already sorted and distinct.
    """
    first = members[0]
    severity, top, category = first.severity, first.confidence, first.category
    if len(members) == 1:
        spec_ids = first.spec_ids
        if type(spec_ids) is not tuple or (
            len(spec_ids) > 1 and any(a >= b for a, b in zip(spec_ids, spec_ids[1:]))
        ):
            spec_ids = tuple(sorted(set(spec_ids)))
    else:
        severity_rank, category_rank = SEVERITY_RANK[severity], CATEGORY_RANK[category]
        for member in members:
            rank = SEVERITY_RANK[member.severity]
            if rank < severity_rank:
                severity, severity_rank = member.severity, rank
            rank = CATEGORY_RANK[member.category]
            if rank < category_rank:
                category, category_rank = member.category, rank
            if member.confidence > top:
                top = member.confidence
        spec_ids = tuple(sorted({spec_id for member in members for spec_id in member.spec_ids}))
    if confidence is None:
        confidence = top
    if library is not None:
        category = resolve_category(spec_ids, library)
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
