"""Configuration loading, layering, and validation."""

from __future__ import annotations

import json
import re

import pytest

import sgcr.pipeline
from conftest import GOLDEN_DIR, REPO_ROOT, LoggedMockBackend
from sgcr.config import (
    DEFAULTS,
    RunConfig,
    env_overrides,
    load_config_file,
    merge_config,
    validate_config,
)
from sgcr.errors import ConfigError
from sgcr.ingestion import build_review_request
from sgcr.pipeline import build_provider, run_review
from sgcr.retrieval import MAX_MOCK_DIMENSION


def test_defaults_are_a_valid_mock_baseline():
    config = RunConfig()
    assert config.mode == "full"
    assert config.backend == "mock"
    assert config.ensemble_size == 3 and config.quorum == 2
    assert config.temperature == 0.7
    assert config.score_threshold == 0.35
    validate_config(RunConfig(mode="baseline"))  # no specs dir needed


def test_echo_hides_credentials_and_output_path():
    config = RunConfig(base_url="http://example.invalid", api_key="hush", output="x.json")
    echo = config.echo()
    assert "base_url" not in echo and "api_key" not in echo and "output" not in echo
    assert echo["mode"] == "full"
    assert echo["seed"] == 0


def test_load_config_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps({"mode": "explicit_only", "seed": 9, "temperature": 1, "patches": True}),
        encoding="utf-8",
    )
    values = load_config_file(path)
    assert values == {"mode": "explicit_only", "seed": 9, "temperature": 1.0, "patches": True}
    assert isinstance(values["temperature"], float)


@pytest.mark.parametrize(
    ("raw", "fragment"),
    [
        ("[]", "must contain a JSON object"),
        ("{not json", "not valid JSON"),
        ('{"verbosity": 3}', "unknown config keys"),
        ('{"seed": "nine"}', "must be an integer"),
        ('{"seed": true}', "must be an integer"),
        ('{"patches": 1}', "must be a boolean"),
        ('{"temperature": "hot"}', "must be a number"),
        ('{"mode": 7}', "must be a string"),
        ('{"chunk_budget": null}', "'chunk_budget' must be an integer"),
        ('{"temperature": null}', "'temperature' must be a number"),
        ('{"patches": null}', "'patches' must be a boolean"),
        ('{"model": null}', "'model' must be a string"),
        ('{"specs_dir": 3}', "'specs_dir' must be a string"),
    ],
)
def test_load_config_file_rejects_bad_content(tmp_path, raw, fragment):
    path = tmp_path / "run.json"
    path.write_text(raw, encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config_file(path)
    assert fragment in str(excinfo.value)


def test_load_config_file_takes_null_only_where_the_default_is_none(tmp_path):
    unset = sorted(key for key, default in DEFAULTS.items() if default is None)
    assert unset == [
        "api_key", "base_url", "fixtures_dir", "index_path", "language", "output", "specs_dir"
    ]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict.fromkeys(unset)), encoding="utf-8")
    assert load_config_file(path) == dict.fromkeys(unset)


@pytest.mark.parametrize(
    ("raw", "fragment"),
    [
        ('{"temperature": 1' + "0" * 400 + "}", "'temperature' is too large for a number"),
        ('{"seed": 1' + "0" * 5000 + "}", "not valid JSON"),
        ('{"seed": ' + "[" * 100_000 + "}", "not valid JSON"),
    ],
    ids=["400-digit-float", "5000-digit-int", "deep-nesting"],
)
def test_load_config_file_rejects_values_json_cannot_hold(tmp_path, raw, fragment):
    path = tmp_path / "run.json"
    path.write_text(raw, encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config_file(path)
    assert fragment in str(excinfo.value)


def test_load_config_file_requires_the_file(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        load_config_file(tmp_path / "absent.json")
    assert "not found" in str(excinfo.value)


def test_load_config_file_names_the_path_it_cannot_read(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file") as excinfo:
        load_config_file(tmp_path)  # a directory
    assert str(tmp_path) in str(excinfo.value)

    latin = tmp_path / "latin.json"
    latin.write_bytes('{"model": "caf\xe9"}'.encode("latin-1"))
    with pytest.raises(ConfigError, match="is not UTF-8 text") as excinfo:
        load_config_file(latin)
    assert str(latin) in str(excinfo.value)


def test_env_overrides_pick_up_only_set_variables():
    assert env_overrides({}) == {}
    assert env_overrides({"SGCR_BASE_URL": ""}) == {}
    assert env_overrides({"SGCR_BASE_URL": "http://example.invalid"}) == {
        "base_url": "http://example.invalid"
    }
    both = env_overrides(
        {"SGCR_BASE_URL": "http://example.invalid", "SGCR_API_KEY": "k"}
    )
    assert both == {"base_url": "http://example.invalid", "api_key": "k"}


def test_merge_config_later_sources_win():
    config = merge_config(
        file_values={"seed": 1, "mode": "explicit_only", "api_key": "from-file"},
        env_values={"api_key": "from-env"},
        flag_values={"seed": 2},
    )
    assert config.seed == 2  # flags beat the file
    assert config.mode == "explicit_only"  # file beats the defaults
    assert config.api_key == "from-env"  # env beats the file
    assert config.temperature == 0.7  # untouched default survives


def test_merge_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        merge_config(flag_values={"mystery": 1})


@pytest.mark.parametrize(
    ("overrides", "fragment"),
    [
        ({"mode": "hybrid"}, "mode must be one of"),
        ({"backend": "cloud"}, "backend must be one of"),
        ({"embedding": "tfidf"}, "embedding must be one of"),
        ({"format": "xml"}, "format must be one of"),
        ({"aggregation": "majority"}, "aggregation must be one of"),
        ({"ensemble_size": 0}, "ensemble_size must be at least 1"),
        ({"quorum": 4}, "quorum must be between 1 and ensemble_size"),
        ({"quorum": 0}, "quorum must be between 1 and ensemble_size"),
        ({"chunk_budget": 0}, "chunk_budget must be at least 1"),
        ({"temperature": -0.1}, "temperature must be non-negative"),
        ({"context_lines": -1}, "context_lines must be non-negative"),
        ({"max_proposals": -1}, "max_proposals must be non-negative"),
        ({"embedding_dimension": 0}, "embedding_dimension must be at least 1"),
        (
            {"embedding_dimension": MAX_MOCK_DIMENSION + 1},
            f"embedding_dimension must be at most {MAX_MOCK_DIMENSION} for mock embeddings;"
            f" got {MAX_MOCK_DIMENSION + 1}",
        ),
        ({"score_threshold": 1.5}, "score_threshold must be within [-1, 1]"),
        ({"score_threshold": -1.5}, "score_threshold must be within [-1, 1]"),
        ({"specs_dir": None}, "requires --specs-dir"),
        ({"backend": "replay", "fixtures_dir": None}, "requires --fixtures"),
        ({"backend": "record", "fixtures_dir": "fx"}, "requires a base URL"),
        (
            {"backend": "http", "base_url": "http://example.invalid", "api_key": None},
            "requires an API key",
        ),
        ({"embedding": "http", "base_url": None}, "http embedding requires a base URL"),
        (
            {"embedding": "http", "base_url": "http://example.invalid"},
            "http embedding requires an API key",
        ),
        ({"temperature": float("nan")}, "temperature must be a finite number"),
        ({"temperature": float("inf")}, "temperature must be a finite number"),
        ({"top_k": 0}, "top_k must be at least 1"),
        ({"top_k": -3}, "top_k must be at least 1"),
    ],
)
def test_validate_config_rejections(overrides, fragment):
    base = {"specs_dir": "rules"}
    base.update(overrides)
    with pytest.raises(ConfigError) as excinfo:
        validate_config(RunConfig(**base))
    assert fragment in str(excinfo.value)


def test_validate_config_caps_only_the_mock_dimension():
    validate_config(RunConfig(specs_dir="rules", embedding_dimension=MAX_MOCK_DIMENSION))
    # An http provider's dimension is whatever its replies hold, so the
    # mock setting is not checked against the cap there.
    validate_config(
        RunConfig(
            specs_dir="rules",
            embedding="http",
            base_url="http://example.invalid",
            api_key="key",
            embedding_dimension=10**8,
        )
    )



@pytest.mark.parametrize(
    "base_url",
    [
        "localhost:8000",
        "ftp://models.example",
        "http://",
        "https:///v1",
        "//models.example",
        "http://models.example:http",
        "http://models.example:70000",
        "http://models.example:0",
    ],
)
@pytest.mark.parametrize(
    "user, overrides",
    [
        ("backend 'http'", {"backend": "http"}),
        ("backend 'record'", {"backend": "record", "fixtures_dir": "fx"}),
        ("http embedding", {"embedding": "http"}),
    ],
)
def test_a_base_url_without_an_http_scheme_and_a_host_is_refused(base_url, user, overrides):
    """Such a URL names no endpoint: refused up front, not call by call mid-run."""
    config = RunConfig(specs_dir="rules", base_url=base_url, api_key="k", **overrides)
    with pytest.raises(ConfigError) as excinfo:
        validate_config(config)
    assert str(excinfo.value) == (
        f"{user} requires an http or https base URL with a host; got {base_url!r}"
    )
    # Runs that make no HTTP call do not read it.
    validate_config(RunConfig(specs_dir="rules", base_url=base_url))

def test_validate_config_accepts_complete_setups():
    validate_config(RunConfig(specs_dir="rules"))
    validate_config(RunConfig(specs_dir="rules", backend="replay", fixtures_dir="fx"))
    validate_config(
        RunConfig(
            specs_dir="rules",
            backend="http",
            base_url="http://example.invalid",
            api_key="k",
        )
    )
    validate_config(
        RunConfig(
            specs_dir="rules",
            embedding="http",
            base_url="http://example.invalid",
            api_key="k",
        )
    )
    # Explicit-only review never embeds, so http embedding needs no URL.
    validate_config(RunConfig(mode="explicit_only", specs_dir="rules", embedding="http"))


@pytest.mark.parametrize(
    ("overrides", "fragment"),
    [
        ({"temperature": float("nan")}, "temperature must be a finite number"),
        ({"temperature": float("inf")}, "temperature must be a finite number"),
        ({"embedding": "mokc"}, "embedding must be one of mock, http; got 'mokc'"),
        ({"top_k": 0}, "top_k must be at least 1"),
        ({"score_threshold": 5.0}, "score_threshold must be within [-1, 1]"),
        ({"max_proposals": -1}, "max_proposals must be non-negative"),
        ({"top_k": "3"}, "config key 'top_k' must be an integer"),
        ({"seed": 1.5}, "config key 'seed' must be an integer"),
    ],
    ids=["nan-temperature", "inf-temperature", "embedding-typo", "top-k-0", "threshold-5",
         "max-proposals-minus-1", "string-top-k", "float-seed"],
)
def test_run_review_refuses_the_values_the_cli_refuses_before_any_call(
    monkeypatch, overrides, fragment
):
    """A library caller's config is checked as the CLI's is: no NaN reaches
    the report, no typo becomes http embedding, and no run silently keeps
    nothing. Credentials are not asked for, since a caller may pass its own
    backend."""
    providers = []

    def counted_provider(config):
        providers.append(config)
        return build_provider(config)

    monkeypatch.setattr(sgcr.pipeline, "build_provider", counted_provider)
    config = RunConfig(specs_dir=str(REPO_ROOT / "sample_specs"), **overrides)
    request = build_review_request(paths=[GOLDEN_DIR / "input" / "Example.java"])
    backend = LoggedMockBackend()
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        run_review(config, request, backend=backend)
    assert backend.call_log == [] and providers == []


def test_build_provider_refuses_an_unknown_embedding():
    with pytest.raises(ConfigError, match="unknown embedding 'mokc'"):
        build_provider(RunConfig(embedding="mokc"))
