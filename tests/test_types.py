"""Finding's hand-written constructor against the dataclass-generated one."""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Optional

import pytest

from sgcr.types import (
    Category,
    Finding,
    PatchSuggestion,
    Pathway,
    Severity,
    content_id,
    sort_findings,
)


@dataclass(frozen=True)
class _GeneratedFinding:
    """Finding as the dataclass decorator builds it, with the checks that
    __post_init__ made before the constructor was written by hand."""

    file: str
    start_line: int
    end_line: int
    description: str
    severity: Severity
    pathway: Pathway
    rationale: str = ""
    spec_ids: tuple[str, ...] = ()
    confidence: float = 1.0
    category: Category = Category.MAINTAINABILITY
    patch: Optional[PatchSuggestion] = None
    finding_id: str = field(default="")

    def __post_init__(self) -> None:
        if self.start_line < 1 or self.end_line < self.start_line:
            raise ValueError(
                f"invalid line range {self.start_line}..{self.end_line} for {self.file!r}"
            )
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if not self.finding_id:
            object.__setattr__(
                self,
                "finding_id",
                content_id(self.file, self.start_line, self.end_line, self.description),
            )


_PATCH = PatchSuggestion(unified_diff="--- a\n+++ b\n", explanation="e", constrained_by=("x",))


def _random_arguments(rng):
    start = rng.randint(1, 9)
    arguments = [
        rng.choice(["a.java", "b/c.py", "café.go"]),
        start,
        start + rng.randint(0, 3),
        rng.choice(["one issue", "Another issue", ""]),
        rng.choice(list(Severity)),
        rng.choice(list(Pathway)),
    ]
    optional = {
        "rationale": rng.choice(["", "because"]),
        "spec_ids": rng.choice([(), ("sec.a",), ("sec.a", "style.b")]),
        "confidence": rng.choice([0.0, 1 / 3, 2 / 3, 1.0]),
        "category": rng.choice(list(Category)),
        "patch": rng.choice([None, _PATCH]),
        "finding_id": rng.choice(["", "", "given-id"]),
    }
    # Some optional fields positionally, the rest by keyword, some omitted.
    names = list(optional)
    positional = rng.randint(0, len(names))
    arguments += [optional[name] for name in names[:positional]]
    keywords = {name: optional[name] for name in names[positional:] if rng.random() < 0.7}
    return arguments, keywords


def _fields(instance):
    return tuple(getattr(instance, f.name) for f in dataclasses.fields(instance))


def test_finding_matches_the_generated_constructor_on_random_arguments():
    rng = random.Random(11)
    for trial in range(300):
        arguments, keywords = _random_arguments(rng)
        finding = Finding(*arguments, **keywords)
        reference = _GeneratedFinding(*arguments, **keywords)
        assert _fields(finding) == _fields(reference), f"trial {trial}"
        assert repr(finding) == repr(reference).replace("_GeneratedFinding(", "Finding(", 1)
        assert finding.sort_key() == (finding.file, finding.start_line, finding.finding_id)

        twin = Finding(*arguments, **keywords)
        assert finding == twin and hash(finding) == hash(twin)
        assert hash(finding) == hash(_fields(reference))  # the dataclass hash of the fields
        other = dataclasses.replace(finding, rationale=finding.rationale + "!")
        assert other != finding
        assert other.finding_id == finding.finding_id  # replace carries the id along
        assert other.sort_key() == finding.sort_key()
        changed = dataclasses.replace(finding, start_line=finding.start_line + 1, end_line=20)
        assert changed.sort_key() == (finding.file, finding.start_line + 1, finding.finding_id)


def test_finding_ids_and_sort_keys_follow_the_location_and_wording():
    base = Finding("a.java", 3, 4, "same words", Severity.LOW, Pathway.EXPLICIT)
    assert base.finding_id == content_id("a.java", 3, 4, "same words")
    given = Finding("a.java", 3, 4, "same words", Severity.LOW, Pathway.EXPLICIT, finding_id="x")
    assert given.finding_id == "x" and given.sort_key() == ("a.java", 3, "x")
    assert given != base
    later = Finding("a.java", 9, 9, "same words", Severity.LOW, Pathway.EXPLICIT)
    assert sort_findings([later, base]) == [base, later]


def test_finding_is_frozen_and_keeps_only_its_fields_in_eq_and_repr():
    finding = Finding("a.java", 1, 1, "d", Severity.HIGH, Pathway.IMPLICIT)
    for name in ("file", "finding_id", "_sort_key", "new_attribute"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(finding, name, "x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        del finding.file
    assert [f.name for f in dataclasses.fields(finding)] == [
        f.name for f in dataclasses.fields(_GeneratedFinding)
    ]
    assert "_sort_key" not in repr(finding)
    assert set(dataclasses.asdict(finding)) == {f.name for f in dataclasses.fields(finding)}


@pytest.mark.parametrize(
    ("arguments", "keywords"),
    [
        (("a.java", 0, 1, "d", Severity.LOW, Pathway.EXPLICIT), {}),
        (("a.java", 5, 4, "d", Severity.LOW, Pathway.EXPLICIT), {}),
        (("a.java", 1, 1, "d", Severity.LOW, Pathway.EXPLICIT), {"confidence": 1.5}),
        (("a.java", 1, 1, "d", Severity.LOW, Pathway.EXPLICIT), {"confidence": -0.1}),
        (("a.java", 1, 1, "d", Severity.LOW, Pathway.EXPLICIT), {"confidence": float("nan")}),
        (("a.java", 0, 1, "d", Severity.LOW, Pathway.EXPLICIT), {"confidence": 2.0}),
    ],
)
def test_finding_raises_the_generated_constructors_errors(arguments, keywords):
    with pytest.raises(ValueError) as expected:
        _GeneratedFinding(*arguments, **keywords)
    with pytest.raises(ValueError) as raised:
        Finding(*arguments, **keywords)
    assert str(raised.value) == str(expected.value)
    plain = Finding("a.java", 1, 1, "d", Severity.LOW, Pathway.EXPLICIT)
    start, end = arguments[1:3]
    with pytest.raises(ValueError) as replaced:
        dataclasses.replace(plain, start_line=start, end_line=end, **keywords)
    assert str(replaced.value) == str(expected.value)
