"""Finding equivalence and deterministic clustering."""

from __future__ import annotations

import random

from conftest import make_finding
from sgcr.matching import (
    JACCARD_THRESHOLD,
    cluster_findings,
    cluster_tagged,
    findings_equivalent,
    ranges_overlap,
    token_jaccard,
    tokenize,
)
from sgcr.types import Pathway


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
