"""Finding equivalence, deterministic clustering, and merging."""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

from conftest import GOLDEN_DIR, REPO_ROOT, make_finding, make_library, make_spec
import sgcr.explicit
import sgcr.matching
from sgcr.config import RunConfig
from sgcr.ingestion import build_review_request
from sgcr.matching import (
    JACCARD_THRESHOLD,
    TokenTable,
    cluster_findings,
    cluster_tagged,
    findings_equivalent,
    merge_to_maxima,
    ranges_overlap,
    tokenize,
)
from sgcr.pipeline import render_report, run_review
from sgcr.specs import resolve_category
from sgcr.types import (
    CATEGORY_RANK,
    SEVERITY_RANK,
    Category,
    PatchSuggestion,
    Pathway,
    Severity,
)


def token_jaccard(a, b):
    """Jaccard similarity of word sets; two empty sets count as identical.

    The reference for the kernel's Jaccard: tokenizes both texts on every
    call, and divides by the size of the union set it builds.
    """
    tokens_a, tokens_b = tokenize(a), tokenize(b)
    if not tokens_a and not tokens_b:
        return 1.0
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


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


def _entry_order(entry):
    return (entry[0].sort_key(), entry[1])


def _equivalent_reference(a, b, threshold=JACCARD_THRESHOLD):
    """Same file, overlapping lines, reference Jaccard at or above threshold."""
    return (
        a.file == b.file
        and ranges_overlap(a.start_line, a.end_line, b.start_line, b.end_line)
        and token_jaccard(a.description, b.description) >= threshold
    )


def _closure_oracle(entries, threshold=JACCARD_THRESHOLD):
    """All-pairs transitive closure of _equivalent_reference, in sorted order."""
    ordered = sorted(entries, key=_entry_order)
    component = list(range(len(ordered)))
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if _equivalent_reference(ordered[i][0], ordered[j][0], threshold):
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


def _sweep_reference(entries, threshold=JACCARD_THRESHOLD):
    """The kernel as it was before its columns: a sweep calling find per pair."""
    ordered = sorted(entries, key=_entry_order)
    token_sets = [tokenize(finding.description) for finding, _ in ordered]
    parent = list(range(len(ordered)))

    def find(index):
        while parent[index] != index:
            index = parent[index]
        return index

    for i, (finding, _) in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            other = ordered[j][0]
            if other.file != finding.file or other.start_line > finding.end_line:
                break
            root_i, root_j = find(i), find(j)
            both = token_sets[i] | token_sets[j]
            jaccard = len(token_sets[i] & token_sets[j]) / len(both) if both else 1.0
            if root_i != root_j and jaccard >= threshold:
                parent[max(root_i, root_j)] = min(root_i, root_j)
    groups = {}
    for index, entry in enumerate(ordered):
        groups.setdefault(find(index), []).append(entry)
    return [groups[root] for root in sorted(groups)]


_CHAIN_WORDS = [f"w{index}" for index in range(40)]


def _edge_description(rng):
    roll = rng.random()
    if roll < 0.15:  # no word tokens: two of these score 1.0
        return rng.choice(["!!!", "?", "-- --"])
    if roll < 0.3:  # equal token sets from different strings
        return rng.choice(["Foo bar", "bar foo", "FOO  bar!", "foo bar baz"])
    return _random_description(rng)


def _chain(rng, file, length):
    """Findings that each overlap and share 3 of 5 words with the next only."""
    first = rng.randint(1, 20)
    return [
        (
            make_finding(
                file=file,
                start=first + step,
                end=first + step + 1,
                description=" ".join(_CHAIN_WORDS[step : step + 4]),
            ),
            rng.randrange(3),
        )
        for step in range(length)
    ]


def test_cluster_tagged_matches_the_closure_at_edge_thresholds_and_descriptions():
    files = ["a.java", "b.java", "c.java", "d/e.java"]
    rng = random.Random(1414)
    for trial in range(160):
        entries = []
        for _ in range(rng.randint(0, 30)):
            start = rng.randint(1, 30)
            finding = make_finding(
                file=rng.choice(files),
                start=start,
                end=start + rng.randint(0, 12),
                description=_edge_description(rng),
            )
            entries.append((finding, rng.randrange(3)))
        if rng.random() < 0.4:
            entries += _chain(rng, rng.choice(files), rng.randint(2, 30))
        rng.shuffle(entries)
        shared = TokenTable()
        for threshold in (0.0, JACCARD_THRESHOLD, 1.0, 1.01):
            expected = _closure_oracle(entries, threshold)
            assert _sweep_reference(entries, threshold) == expected, f"trial {trial}"
            assert cluster_tagged(entries, threshold) == expected, f"trial {trial} at {threshold}"
            assert cluster_tagged(entries, threshold, tokens=shared) == expected, (
                f"trial {trial} at {threshold}, shared table"
            )


def test_identical_and_wordless_descriptions_join_only_up_to_a_threshold_of_one():
    bangs = [(make_finding(start=2, description="!!!"), tag) for tag in (0, 1)]
    query = [(make_finding(start=2, end=3, description="?"), 2)]
    foo = [(make_finding(start=4, description=text), 0) for text in ("Foo bar", "bar foo")]
    for entries in (bangs, bangs + query, foo):
        ordered = sorted(entries, key=_entry_order)
        assert cluster_tagged(entries, 1.0) == [ordered]
        assert cluster_tagged(entries, 1.01) == [[entry] for entry in ordered]
    assert len(cluster_tagged(_chain(random.Random(3), "a.java", 30))) == 1
    assert len(cluster_tagged(_chain(random.Random(3), "a.java", 30), 1.0)) == 30


def test_an_entry_that_joins_two_earlier_groups_joins_them_all():
    # The hub sorts after "a" and "b", which are in different groups by
    # then; its first join moves its root, and its second must use the new one.
    def finding(start, end, words, finding_id):
        return make_finding(start=start, end=end, description=words, finding_id=finding_id)

    entries = [
        (finding(1, 4, "a1 a2 a3", "0a"), 0),
        (finding(1, 4, "b1 b2 b3", "0b"), 0),
        (finding(1, 4, "c1 c2 c3", "0c"), 0),
        (finding(2, 2, "a1 a2 a3 c1 c2 c3", "1"), 0),
        (finding(3, 3, "b1 b2 b3 c1 c2 c3", "2"), 0),
    ]
    assert cluster_tagged(entries, 0.5) == _closure_oracle(entries, 0.5) == [entries]


def test_an_entry_differing_from_the_one_before_only_in_file_or_end_sweeps_on():
    # Each pair below sorts next to each other (finding ids fix the order)
    # with equal token sets; the second one alone reaches the third entry.
    def entry(file, start, end, finding_id, tag=0):
        return (make_finding(file, start, end, "x y", finding_id=finding_id), tag)

    longer_end = [
        entry("a.java", 1, 1, "0"), entry("a.java", 1, 5, "1"), entry("a.java", 3, 3, "2")
    ]
    next_file = [
        entry("a.java", 1, 2, "0"), entry("b.java", 1, 2, "0"), entry("b.java", 2, 2, "1")
    ]
    copies = [entry("a.java", 1, 2, "0", tag) for tag in range(3)] + [entry("a.java", 2, 2, "1")]
    for entries in (longer_end, next_file, copies):
        assert cluster_tagged(entries) == _closure_oracle(entries)
    assert len(cluster_tagged(longer_end)) == 1
    assert [len(group) for group in cluster_tagged(next_file)] == [1, 2]
    assert len(cluster_tagged(copies)) == 1


def test_a_findings_dense_shaped_input_groups_alike_through_fresh_and_shared_tables():
    """Three members report the same 36 findings, some with near duplicates.

    Each member's descriptions are separate string objects, as parsed
    replies are, so only a table maps repeats to one token set.
    """
    rng = random.Random(36)
    words = [f"word{index}" for index in range(40)]
    pool = []
    for number in range(36):
        start = rng.randint(1, 120)
        pool.append((start, start + rng.randrange(3), rng.sample(words, 6), number))
    entries = []
    for member in range(3):
        for start, end, chosen, number in pool:
            tail = ["near", "line", str(start), "case", str(number)]
            texts = [" ".join(chosen + tail)]
            if rng.random() < 0.2:  # a near duplicate: one word dropped
                texts.append(" ".join(chosen[1:] + tail))
            for text in texts:
                finding = make_finding(file="Gen.java", start=start, end=end, description=text)
                entries.append((finding, member))
    rng.shuffle(entries)
    expected = _closure_oracle(entries)
    assert _sweep_reference(entries) == expected
    assert sum(len(group) >= 3 for group in expected) >= 36
    assert cluster_tagged(entries) == expected
    shared = TokenTable()
    assert cluster_tagged(entries, tokens=shared) == expected  # fills the table
    assert cluster_tagged(entries, tokens=shared) == expected  # reads it
    assert cluster_tagged(reversed(entries), tokens=shared) == expected


def test_findings_equivalent_is_the_direct_relation_through_any_table():
    def random_finding():
        start = rng.randint(1, 20)
        return make_finding(
            file=rng.choice(["a.java", "b.java"]),
            start=start,
            end=start + rng.randint(0, 6),
            description=_edge_description(rng),
        )

    rng = random.Random(61)
    shared = TokenTable()
    for trial in range(400):
        a, b = random_finding(), random_finding()
        threshold = rng.choice([0.0, JACCARD_THRESHOLD, 1.0, 1.01])
        direct = _equivalent_reference(a, b, threshold)
        assert findings_equivalent(a, b, threshold) is direct, f"trial {trial}"
        assert findings_equivalent(a, b, threshold, tokens=shared) is direct, f"trial {trial}"


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


def test_a_group_of_one_merges_as_the_general_path_and_the_reference_do():
    """A group of one skips the members' pass; merging the same finding
    twice takes the general path, and both must give the reference."""
    rng = random.Random(78)
    ids = ["sec.a", "style.b", "perf.c", "gone.d"]
    seen = set()
    for trial in range(600):
        spec_ids = rng.choices(ids, k=rng.randint(0, 4))
        if rng.random() < 0.5:
            spec_ids = sorted(set(spec_ids))
        member = make_finding(
            severity=rng.choice(list(Severity)),
            confidence=rng.choice([0.5, 2 / 3, 1.0]),
            category=rng.choice(list(Category)),
            spec_ids=tuple(spec_ids) if rng.random() < 0.8 else list(spec_ids),
        )
        confidence = rng.choice([None, member.confidence, 1 / 3, 1.0])
        library = rng.choice([None, _MERGE_LIBRARY])
        alone = merge_to_maxima([member], member, confidence=confidence, library=library)
        general = merge_to_maxima([member, member], member, confidence=confidence, library=library)
        expected = _replace_reference([member], member, confidence, library)
        assert alone == general == expected, f"trial {trial}"
        assert type(alone.spec_ids) is tuple, f"trial {trial}"
        assert (alone is member) is (general is member), f"trial {trial}"
        seen.add(
            (
                alone is member,
                type(member.spec_ids),
                list(member.spec_ids) == sorted(set(member.spec_ids)),
                confidence is None,
                library is None,
            )
        )
    # Kept and rebuilt, tuple and list ids, tidy and unsorted or duplicate
    # ids, with and without a confidence and a library.
    for position, values in enumerate(
        [(True, False), (tuple, list), (True, False), (True, False), (True, False)]
    ):
        assert {key[position] for key in seen} == set(values)


def test_a_singleton_merge_still_sorts_and_dedupes_its_rule_ids():
    tidy = make_finding(spec_ids=("perf.c", "sec.a"), category=Category.SECURITY)
    assert merge_to_maxima([tidy], tidy) is tidy
    untidy = make_finding(spec_ids=("sec.a", "perf.c", "sec.a"))
    merged = merge_to_maxima([untidy], untidy)
    assert merged.spec_ids == ("perf.c", "sec.a")
    assert merged.finding_id == untidy.finding_id
    assert replace(merged, spec_ids=untidy.spec_ids) == untidy


def test_a_token_table_tokenizes_each_text_once_and_is_shared_by_calls(monkeypatch):
    tokenized = []
    real = sgcr.matching.tokenize
    monkeypatch.setattr(
        sgcr.matching, "tokenize", lambda text: tokenized.append(text) or real(text)
    )
    findings = [make_finding(start=line, description="same words here") for line in (1, 1, 2)]
    table = TokenTable()
    first = cluster_findings(findings, tokens=table)
    assert cluster_findings(findings, tokens=table) == first == cluster_findings(findings)
    assert table == {"same words here": tokenize("same words here")}
    # Two calls on the table, then one call on a fresh table of its own.
    assert tokenized == ["same words here", "same words here"]


def test_a_review_run_tokenizes_each_distinct_description_once(monkeypatch):
    """The golden replay: quorum aggregation, synthesis and consolidation
    see many repeated descriptions, and each is tokenized once per run."""
    tokenized = []
    clustered = []
    real_tokenize = sgcr.matching.tokenize
    real_cluster = sgcr.matching.cluster_tagged

    def recording_cluster(entries, *args, **kwargs):
        entries = list(entries)
        clustered.extend(finding.description for finding, _ in entries)
        return real_cluster(entries, *args, **kwargs)

    monkeypatch.setattr(
        sgcr.matching, "tokenize", lambda text: tokenized.append(text) or real_tokenize(text)
    )
    monkeypatch.setattr(sgcr.matching, "cluster_tagged", recording_cluster)
    monkeypatch.setattr(sgcr.explicit, "cluster_tagged", recording_cluster)
    monkeypatch.chdir(REPO_ROOT)
    config = RunConfig(
        mode="full",
        backend="replay",
        fixtures_dir="tests/data/golden/fixtures",
        specs_dir="sample_specs",
        chunk_budget=300,
        patches=True,
    )
    request = build_review_request(paths=[Path("tests/data/golden/input/Example.java")])
    expected = (GOLDEN_DIR / "expected_report.json").read_text(encoding="utf-8")

    counts = []
    for _ in range(2):
        tokenized.clear()
        clustered.clear()
        assert render_report(run_review(config, request), "json") == expected
        assert len(clustered) > len(set(clustered))  # stages repeat descriptions
        assert sorted(tokenized) == sorted(set(clustered))
        counts.append(len(tokenized))
    # Nothing is kept across runs: the second run tokenizes as much again.
    assert counts[0] == counts[1] > 0
