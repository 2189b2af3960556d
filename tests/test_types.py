"""The value classes' shared methods, and Finding's own constructor,
against the methods the dataclass decorator generates."""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import dataclass, field
from typing import Optional

import pytest

import sgcr.backends
import sgcr.cli
import sgcr.config
import sgcr.explicit
import sgcr.implicit
import sgcr.report
from conftest import REPO_ROOT, make_library, make_spec
from sgcr.gateway import EnsembleConfig, ModelRequest, ensemble_requests
from sgcr.ingestion import ReviewRequest, ReviewUnit
from sgcr.types import (
    Category,
    Finding,
    HypotheticalIssue,
    PatchSuggestion,
    Pathway,
    Severity,
    Value,
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


# -- every value class against a dataclass-generated reference -------------


def _value_classes() -> list[type]:
    found, pending = [], [Value]
    while pending:
        for subclass in pending.pop().__subclasses__():
            found.append(subclass)
            pending.append(subclass)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


# Finding has its own constructor, checked above; every other class uses the
# shared one.
SHARED_INIT = [cls for cls in _value_classes() if cls.__init__ is Value.__init__]


def test_every_value_class_but_finding_uses_the_shared_constructor():
    names = {cls.__qualname__ for cls in SHARED_INIT}
    assert {
        "ModelRequest",
        "EnsembleConfig",
        "HypotheticalIssue",
        "Specification",
        "SpecLibrary",
        "EmbeddingVector",
        "ReviewRequest",
        "RunConfig",
        "FinalReport",
    } <= names
    assert len(SHARED_INIT) == 23
    assert [cls for cls in _value_classes() if cls not in SHARED_INIT] == [Finding]


def _reference(cls: type) -> type:
    """cls as dataclasses.make_dataclass builds it, frozen, with its
    __post_init__ if it has one."""
    spec = [
        (f.name, f.type)
        if f.default is dataclasses.MISSING
        else (f.name, f.type, field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True, namespace=namespace)


def _random_field_value(rng: random.Random, annotation: str) -> object:
    if annotation.startswith("Optional[") and rng.random() < 0.3:
        return None
    kind = annotation.removeprefix("Optional[")
    if kind.startswith("int"):
        return rng.randint(0, 6)
    if kind.startswith("float"):
        return rng.choice([0.0, 0.5, 1.0, 2.5])
    if kind.startswith("bool"):
        return rng.random() < 0.5
    if kind.startswith("tuple"):
        return tuple(rng.choice("abc") for _ in range(rng.randint(0, 2)))
    if kind.startswith("str") or kind.startswith("Literal"):
        return rng.choice(["", "a", "b c", "caf\u00e9"])
    return rng.choice([Severity.LOW, Category.STYLE, ("nested", 1), "other"])


def _random_call(rng: random.Random, cls: type) -> tuple[list, dict]:
    """Seeded arguments: a positional prefix, then some of the rest by
    keyword; a defaulted field is sometimes left out."""
    fields = dataclasses.fields(cls)
    values = {f.name: _random_field_value(rng, str(f.type)) for f in fields}
    positional = rng.randint(0, len(fields))
    arguments = [values[f.name] for f in fields[:positional]]
    keywords = {
        f.name: values[f.name]
        for f in fields[positional:]
        if f.default is dataclasses.MISSING or rng.random() < 0.6
    }
    return arguments, keywords


def _outcome(cls, arguments, keywords):
    try:
        return cls(*arguments, **keywords), None
    except Exception as error:  # the reference and the class must agree
        return None, (type(error), str(error).replace(cls.__qualname__ + ".__init__", ""))


def _field_values(instance) -> tuple:
    return tuple(getattr(instance, f.name) for f in dataclasses.fields(instance))


@pytest.mark.parametrize("cls", SHARED_INIT, ids=lambda cls: cls.__qualname__)
def test_a_value_class_matches_its_generated_reference_on_random_arguments(cls):
    reference = _reference(cls)
    rng = random.Random(cls.__qualname__)
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == [f.name for f in dataclasses.fields(reference)]
    built = 0
    for trial in range(60):
        arguments, keywords = _random_call(rng, cls)
        expected, expected_error = _outcome(reference, arguments, keywords)
        instance, error = _outcome(cls, arguments, keywords)
        if expected_error is not None:
            # A __post_init__ check: the same error, raised the same way.
            assert error is not None and error[0] is expected_error[0], f"trial {trial}"
            if expected_error[0] is ValueError:
                assert error == expected_error, f"trial {trial}"
            continue
        built += 1
        assert error is None, f"trial {trial}: {error}"
        assert _field_values(instance) == _field_values(expected), f"trial {trial}"
        assert repr(instance) == repr(expected)
        assert hash(instance) == hash(expected)
        assert dataclasses.asdict(instance) == dataclasses.asdict(expected)

        twin = cls(*arguments, **keywords)
        assert instance == twin and hash(instance) == hash(twin)
        assert instance != expected  # another class, as between two dataclasses
        name = rng.choice(names)
        other_value = _random_field_value(rng, str(dataclasses.fields(cls)[names.index(name)].type))
        replaced, replaced_error = _outcome(
            dataclasses.replace, [instance], {name: other_value}
        )
        expected_replaced, expected_replaced_error = _outcome(
            dataclasses.replace, [expected], {name: other_value}
        )
        assert (replaced_error is None) == (expected_replaced_error is None)
        if replaced is not None:
            assert type(replaced) is cls
            assert _field_values(replaced) == _field_values(expected_replaced)
            assert (replaced == instance) == (expected_replaced == expected)

        for attribute in (name, "new_attribute"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, attribute, other_value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(instance, attribute)
        assert _field_values(instance) == _field_values(twin)
    assert built >= 10


@pytest.mark.parametrize("cls", SHARED_INIT, ids=lambda cls: cls.__qualname__)
def test_a_value_class_raises_type_error_where_its_reference_does(cls):
    reference = _reference(cls)
    fields = dataclasses.fields(cls)
    rng = random.Random(7)
    values = {f.name: _random_field_value(rng, str(f.type)) for f in fields}
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    first = fields[0].name
    calls = [
        ([], {**values, "unknown_field": 1}),  # an unknown keyword
        ([values[first]], values),  # the first field twice
        ([*values.values(), 1], {}),  # one argument too many
    ]
    if required:
        calls.append(([], {k: v for k, v in values.items() if k != required[-1]}))
    defaulted = [f.name for f in fields if f.default is not dataclasses.MISSING]
    if defaulted and defaulted[-1] != first:
        # The first field twice, with a default left out: no more arguments
        # than fields.
        keywords = {k: v for k, v in values.items() if k != defaulted[-1]}
        calls.append(([values[first]], keywords))
    for arguments, keywords in calls:
        with pytest.raises(TypeError):
            reference(*arguments, **keywords)
        with pytest.raises(TypeError) as raised:
            cls(*arguments, **keywords)
        assert cls.__qualname__ in str(raised.value)


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: ModelRequest(role="", prompt="p"), "role must be non-empty"),
        (lambda: ModelRequest("r", "p", -1.0), "temperature must be >= 0"),
        (lambda: ModelRequest("r", "p", max_output_tokens=0), "max_output_tokens must be positive"),
        (lambda: EnsembleConfig(n=0), "ensemble size must be positive"),
        (lambda: EnsembleConfig(2, 3), "quorum must be in 1..2, got 3"),
        (lambda: HypotheticalIssue("a.py", 0, 1, "d"), "invalid line range 0..1 for 'a.py'"),
        (lambda: HypotheticalIssue("a.py", 1, 1, ""), "issue description must be non-empty"),
    ],
)
def test_post_init_checks_still_raise(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_a_value_field_with_a_default_factory_is_refused():
    with pytest.raises(TypeError, match="Listed: a Value field takes a plain default"):

        class Listed(Value):
            items: list = field(default_factory=list)

    # The refused class is gone, so no later walk of Value's subclasses meets it.
    gc.collect()
    assert "Listed" not in {cls.__name__ for cls in _value_classes()}


def test_post_init_still_fills_and_converts_fields():
    issue = HypotheticalIssue("a.py", 2, 3, "d")
    assert issue.issue_id == content_id("a.py", 2, 3, "d")
    assert dataclasses.replace(issue, description="e").issue_id == issue.issue_id
    assert ModelRequest(role=Severity.LOW, prompt="p").role == "low"


def _assert_only_fields_count(instance, fresh, cached: str) -> None:
    assert cached in vars(instance)
    assert instance == fresh and hash(instance) == hash(fresh)
    assert repr(instance) == repr(fresh)
    assert dataclasses.asdict(instance) == dataclasses.asdict(fresh)
    assert cached not in repr(instance)


def test_values_cached_in_the_instance_dict_never_enter_eq_hash_or_repr():
    request = ModelRequest(role="verifier", prompt="p", seed=2)
    request.fingerprint
    fresh = ModelRequest(role="verifier", prompt="p", seed=2)
    assert "_shared_prompt" not in vars(fresh)
    _assert_only_fields_count(request, fresh, "_shared_prompt")

    slot = ensemble_requests(request, EnsembleConfig(n=2, quorum=1))[1]
    slot.fingerprint
    fresh_slot = ModelRequest(role="verifier", prompt="p", seed=1, instance_index=1)
    _assert_only_fields_count(slot, fresh_slot, "_shared_prompt")

    library = make_library(make_spec("sec.a"), make_spec("sec.b"))
    assert library.get("sec.b") is library.specs[1]
    _assert_only_fields_count(library, make_library(*library.specs), "_by_id")

    units = (ReviewUnit("a.py", "x = 1\n", 1, ()),)
    review = ReviewRequest(units, "files")
    assert review.prompt_block == "FILE a.py (lines 1..1)\n    1 | x = 1"
    _assert_only_fields_count(review, ReviewRequest(units, "files"), "prompt_block")


# -- tooling guard: importing sgcr generates no function --------------------


_COUNT_GENERATED = textwrap.dedent(
    """
    import dataclasses

    made = []
    original = dataclasses._create_fn

    def counting(name, *args, **kwargs):
        made.append(name)
        return original(name, *args, **kwargs)

    dataclasses._create_fn = counting
    import sgcr
    import sgcr.cli
    at_import = len(made)

    @dataclasses.dataclass(frozen=True)
    class Probe:
        x: int

    # The hook is live: a plain dataclass still generates its methods.
    print(at_import, len(made) > at_import)
    """
)


@pytest.mark.skipif(
    not hasattr(dataclasses, "_create_fn"), reason="dataclasses generates functions another way"
)
def test_importing_sgcr_generates_no_function_through_dataclasses():
    environment = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _COUNT_GENERATED],
        capture_output=True,
        text=True,
        env=environment,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "True"]
