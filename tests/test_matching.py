"""Finding equivalence, deterministic clustering, and merging."""

from __future__ import annotations

import random
from dataclasses import replace

from conftest import make_finding, make_library, make_spec
from sgcr.matching import (
    JACCARD_THRESHOLD,
    cluster_findings,
    cluster_tagged,
    findings_equivalent,
    merge_to_maxima,
    ranges_overlap,
    token_jaccard,
    tokenize,
)
from sgcr.specs import resolve_category
from sgcr.types import (
    CATEGORY_RANK,
    SEVERITY_RANK,
    Category,
    PatchSuggestion,
    Pathway,
    Severity,
)


def test_tokenize_lowercases_and_dedupes():
    assert tokenize("Null CHECK null-check") == frozenset({"null", "check"})


def test_token_jaccard_examples():
    assert token_jaccard("", "") == 1.0
    assert token_jaccard("missing null check", "null check missing") == 1.0
    assert token_jaccard("alpha beta", "alpha gamma") == 1.0 / 3.0
    assert token_jaccard("alpha beta charlie", "alpha beta delta") == 0.5
    assert token_jaccard("alpha beta charlie", "alpha beta charlie delta") == 0.75


def test_ranges_overlap_boundaries():
    assert ranges_overlap(1, 5, 5, 9)
    assert ranges_overlap(5, 9, 1, 5)
    assert not ranges_overlap(1, 4, 5, 9)
    assert ranges_overlap(3, 3, 1, 10)


def test_equivalence_requires_same_file():
    a = make_finding(file="a.java", description="same words here")
    b = make_finding(file="b.java", description="same words here")
    assert not findings_equivalent(a, b)


def test_equivalence_requires_overlap():
    a = make_finding(start=1, end=3, description="same words here")
    b = make_finding(start=4, end=6, description="same words here")
    assert not findings_equivalent(a, b)


def test_equivalence_jaccard_threshold_is_inclusive():
    below = make_finding(description="alpha beta charlie")  # 0.5 against the other
    other = make_finding(description="alpha beta delta")
    assert not findings_equivalent(below, other)
    at_threshold = make_finding(description="alpha beta charlie")  # 3/5 = 0.6
    wider = make_finding(description="alpha beta charlie delta echo")
    assert token_jaccard(at_threshold.description, wider.description) == JACCARD_THRESHOLD
    assert findings_equivalent(at_threshold, wider)


def test_cluster_findings_transitive_chain():
    # a~b and b~c but a and c share too few words: one cluster regardless.
    a = make_finding(start=1, end=2, description="alpha beta charlie delta")
    b = make_finding(start=2, end=3, description="alpha beta charlie echo")
    c = make_finding(start=3, end=4, description="beta charlie echo foxtrot")
    assert not findings_equivalent(a, c)
    groups = cluster_findings([a, b, c])
    assert len(groups) == 1
    assert len(groups[0]) == 3


def test_cluster_findings_permutation_invariant():
    rng = random.Random(7)
    findings = [
        make_finding(start=1 + (index % 4) * 3, end=2 + (index % 4) * 3,
                     description=f"issue number {index % 5} alpha beta")
        for index in range(10)
    ]
    baseline = cluster_findings(findings)
    for _ in range(10):
        shuffled = findings[:]
        rng.shuffle(shuffled)
        assert cluster_findings(shuffled) == baseline


def test_cluster_groups_ordered_by_smallest_member():
    late = make_finding(file="z.java", description="zulu issue words")
    early = make_finding(file="a.java", description="alpha issue words")
    groups = cluster_findings([late, early])
    assert [group[0].file for group in groups] == ["a.java", "z.java"]


def _closure_oracle(entries):
    """All-pairs transitive closure of findings_equivalent, in sorted order."""
    ordered = sorted(entries, key=lambda entry: (entry[0].sort_key(), entry[1]))
    component = list(range(len(ordered)))
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if findings_equivalent(ordered[i][0], ordered[j][0]):
                old, new = max(component[i], component[j]), min(component[i], component[j])
                component = [new if label == old else label for label in component]
    groups = {}
    for label, entry in zip(component, ordered):
        groups.setdefault(label, []).append(entry)
    return [groups[label] for label in sorted(groups)]


def _random_description(rng):
    base = rng.choice(
        [
            "unchecked input reaches the query builder",
            "buffer is allocated inside the hot loop",
            "lock is released before the field update",
            "stream is never closed on the error path",
        ]
    ).split()
    roll = rng.random()
    if roll < 0.3:  # near duplicate: one word dropped
        del base[rng.randrange(len(base))]
    elif roll < 0.6:  # near duplicate: one or two words added
        base += rng.sample(["again", "here", "twice", "still", "now"], rng.randint(1, 2))
    return " ".join(base)


def test_cluster_tagged_matches_the_all_pairs_closure_on_random_inputs():
    rng = random.Random(2024)
    for trial in range(240):
        entries = []
        for _ in range(rng.randint(0, 40)):
            start = rng.randint(1, 60)
            finding = make_finding(
                file=rng.choice(["a.java", "b.java", "c.java"]),
                start=start,
                end=start + rng.randint(0, 40),
                description=_random_description(rng),
                pathway=rng.choice([Pathway.EXPLICIT, Pathway.IMPLICIT]),
            )
            entries.append((finding, rng.randrange(3)))
        rng.shuffle(entries)
        by_instance = cluster_tagged(entries)
        assert by_instance == _closure_oracle(entries), f"trial {trial}: instance tags"
        findings = [finding for finding, _ in entries]
        by_pathway = _closure_oracle([(finding, finding.pathway.value) for finding in findings])
        assert cluster_findings(findings) == [
            [finding for finding, _ in group] for group in by_pathway
        ], f"trial {trial}: pathway tags"


def _replace_reference(members, winner, confidence=None, library=None):
    """The merge as first written: dataclasses.replace of the winner."""
    raised = replace(
        winner,
        severity=min((m.severity for m in members), key=SEVERITY_RANK.__getitem__),
        confidence=max(m.confidence for m in members),
        spec_ids=tuple(sorted({spec_id for m in members for spec_id in m.spec_ids})),
        category=min((m.category for m in members), key=CATEGORY_RANK.__getitem__),
    )
    if confidence is None and library is None:
        return raised
    return replace(
        raised,
        confidence=raised.confidence if confidence is None else confidence,
        category=(
            raised.category if library is None else resolve_category(raised.spec_ids, library)
        ),
    )


_MERGE_LIBRARY = make_library(
    make_spec("sec.a", category=Category.SECURITY),
    make_spec("style.b", category=Category.STYLE),
    make_spec("perf.c", category=Category.PERFORMANCE),
)


def test_merge_to_maxima_matches_the_replace_reference_on_random_groups():
    rng = random.Random(77)
    patch = PatchSuggestion(unified_diff="--- a\n+++ b\n", explanation="e", constrained_by=())
    returned_winner = 0
    for trial in range(400):
        members = [
            make_finding(
                start=rng.randint(1, 5),
                description=rng.choice(["one", "two"]),
                severity=rng.choice(list(Severity)),
                confidence=rng.choice([0.5, 2 / 3, 1.0]),
                category=rng.choice(list(Category)),
                spec_ids=tuple(
                    rng.choices(["sec.a", "style.b", "perf.c", "gone.d"], k=rng.randint(0, 3))
                ),
                patch=rng.choice([None, patch]),
            )
            for _ in range(rng.randint(1, 3))
        ]
        winner = rng.choice(members)
        confidence = rng.choice([None, None, 1.0, winner.confidence, 1 / 3])
        library = rng.choice([None, _MERGE_LIBRARY])
        merged = merge_to_maxima(members, winner, confidence=confidence, library=library)
        expected = _replace_reference(members, winner, confidence, library)
        assert merged == expected, f"trial {trial}"
        if merged is winner:
            returned_winner += 1
        else:
            assert merged != winner, f"trial {trial}: an unchanged merge was rebuilt"
    assert returned_winner > 20


def test_a_singleton_merge_still_sorts_and_dedupes_its_rule_ids():
    tidy = make_finding(spec_ids=("perf.c", "sec.a"), category=Category.SECURITY)
    assert merge_to_maxima([tidy], tidy) is tidy
    untidy = make_finding(spec_ids=("sec.a", "perf.c", "sec.a"))
    merged = merge_to_maxima([untidy], untidy)
    assert merged.spec_ids == ("perf.c", "sec.a")
    assert merged.finding_id == untidy.finding_id
    assert replace(merged, spec_ids=untidy.spec_ids) == untidy
