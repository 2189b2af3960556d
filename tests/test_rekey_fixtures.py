"""tools/rekey_fixtures.py and the names of the committed golden fixtures."""

from __future__ import annotations

import importlib.util
import json
import random
import shutil

import pytest

from conftest import GOLDEN_DIR, REPO_ROOT, LoggedMockBackend, reference_fingerprint
from sgcr.backends import RecordingBackend, ReplayBackend
from sgcr.errors import RequestRejected
from sgcr.gateway import ModelRequest, attempt_call

_SPEC = importlib.util.spec_from_file_location(
    "rekey_fixtures", REPO_ROOT / "tools" / "rekey_fixtures.py"
)
rekey_fixtures = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(rekey_fixtures)

FIXTURES = GOLDEN_DIR / "fixtures"


def _committed() -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(FIXTURES.glob("*.json"))}


def test_every_committed_fixture_is_named_by_its_stored_requests_fingerprint():
    committed = _committed()
    assert len(committed) > 20
    for name, data in committed.items():
        request = json.loads(data)["request"]
        assert sorted(request) == sorted(rekey_fixtures.CANONICAL_FIELDS), name
        assert name == reference_fingerprint(request) + ".json"


def test_rekeying_fixtures_under_scrambled_names_gives_back_the_committed_set(tmp_path):
    committed = _committed()
    names = list(committed)
    # Half the files take another fixture's name, so renames must not clobber.
    swapped = random.Random(26).sample(names, len(names))
    for index, (name, data) in enumerate(committed.items()):
        scrambled = swapped[index] if index % 2 else f"recorded-{index:03d}.json"
        (tmp_path / scrambled).write_bytes(data)
    (tmp_path / "notes.txt").write_text("not a fixture\n", encoding="utf-8")

    assert rekey_fixtures.main([str(tmp_path)]) == 0

    rekeyed = {path.name: path.read_bytes() for path in tmp_path.glob("*.json")}
    assert rekeyed == committed
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([*names, "notes.txt"])
    # A store already keyed is left as it is.
    assert rekey_fixtures.main([str(tmp_path)]) == 0
    assert {path.name: path.read_bytes() for path in tmp_path.glob("*.json")} == committed


def _store_with(tmp_path, bad: dict) -> list[str]:
    shutil.copytree(FIXTURES, tmp_path / "store")
    (tmp_path / "store" / "bad.json").write_text(json.dumps(bad), encoding="utf-8")
    return sorted(path.name for path in (tmp_path / "store").iterdir())


@pytest.mark.parametrize("field", rekey_fixtures.CANONICAL_FIELDS)
def test_a_fixture_whose_request_lacks_a_canonical_field_is_refused_and_nothing_renamed(
    tmp_path, capsys, field
):
    request = json.loads(next(iter(_committed().values())))["request"]
    del request[field]
    before = _store_with(tmp_path, {"request": request, "response_text": "{}"})

    assert rekey_fixtures.main([str(tmp_path / "store")]) == 2
    assert field in capsys.readouterr().err
    assert sorted(path.name for path in (tmp_path / "store").iterdir()) == before


@pytest.mark.parametrize("bad", [{"response_text": "{}"}, {"request": "p"}, ["request"]])
def test_a_file_that_is_not_a_fixture_is_refused(tmp_path, bad):
    before = _store_with(tmp_path, bad)
    assert rekey_fixtures.main([str(tmp_path / "store")]) == 2
    assert sorted(path.name for path in (tmp_path / "store").iterdir()) == before


def test_two_files_holding_one_request_are_refused(tmp_path, capsys):
    name, data = next(iter(_committed().items()))
    (tmp_path / name).write_bytes(data)
    (tmp_path / "copy.json").write_bytes(data)
    assert rekey_fixtures.main([str(tmp_path)]) == 2
    assert "same request" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([name, "copy.json"])


@pytest.mark.parametrize(
    "request_fields",
    [{"prompt": "smile \ud83d\ude00"}, {"role": "verifier \udbff\udfff", "prompt": "p"}],
)
def test_a_request_holding_a_surrogate_pair_as_two_code_points_is_refused_unrecorded(
    tmp_path, request_fields
):
    """Its fixture's JSON would give the pair back as one code point: the file
    would re-key to another name, and a replay of the request would miss."""
    delegate = LoggedMockBackend()
    recorder = RecordingBackend(delegate, tmp_path / "store")
    request = ModelRequest(**{"role": "proposer", **request_fields})
    with pytest.raises(RequestRejected, match="surrogate pair as two code points"):
        attempt_call(lambda: recorder.complete(request))
    assert delegate.call_log == []  # refused before the call, and never retried
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize(
    "prompt", ["smile \U0001f600", "lone \ud83d", "low then high \ude00\ud83d", "tail \udbff"]
)
def test_a_recorded_request_replays_and_its_fixture_keeps_its_name(tmp_path, prompt):
    store = tmp_path / "store"
    request = ModelRequest(role="verifier", prompt=prompt, seed=4)
    recorded = RecordingBackend(LoggedMockBackend(), store).complete(request)
    assert ReplayBackend(store).complete(request) == recorded
    [path] = store.iterdir()
    assert rekey_fixtures.fixture_name(path) == path.name
