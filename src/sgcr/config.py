"""Run configuration: defaults, JSON config file, environment, CLI flags.

Precedence, lowest to highest: built-in defaults, config file values,
environment (SGCR_BASE_URL / SGCR_API_KEY), command-line flags. A setting
is declared once, as a RunConfig field made by setting(): its default, its
allowed values or minimum, its flag, help and environment variable, and
whether it is private. A config-file value must have its default's type
(``null`` only where the default is None), and ``cli`` builds each flag
from the field, so a new knob is one field. validate_values checks what
the settings hold, for the CLI and library runs alike; validate_config
adds what a run needs set up, and checks a base URL and the proxy that
reaches it with wire's rules, loading wire only for a run that makes HTTP
calls.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import field, fields, replace
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from .errors import ConfigError
from .explicit import AGGREGATION_MODES
from .implicit import MAX_PROPOSALS
from .ingestion import DEFAULT_CONTEXT_LINES
from .retrieval import (
    DEFAULT_MOCK_DIMENSION,
    DEFAULT_SCORE_THRESHOLD,
    DEFAULT_TOP_K,
    MAX_MOCK_DIMENSION,
)
from .specs import DEFAULT_CHUNK_BUDGET
from .types import Value

logger = logging.getLogger(__name__)

ENV_BASE_URL = "SGCR_BASE_URL"
ENV_API_KEY = "SGCR_API_KEY"


def setting(
    default: Any, *, choices: Sequence[str] = (), minimum: Optional[int] = None,
    flags: Optional[Sequence[str]] = None, help: Optional[str] = None,
    private: bool = False, env: Optional[str] = None,
) -> Any:
    """A RunConfig field that carries all the rest of its setting's declaration.

    flags None means the one flag --key-with-dashes (--no-key for a boolean
    that defaults to true), () no flag. A private setting stays out of
    report echoes and run identity.
    """
    metadata = dict(
        choices=tuple(choices), minimum=minimum, flags=flags, help=help, private=private, env=env
    )
    return field(default=default, metadata=metadata)


class RunConfig(Value):
    """Every run setting, with its built-in default."""

    mode: str = setting("full", choices=("full", "explicit_only", "implicit_only", "baseline"))
    backend: str = setting("mock", choices=("mock", "replay", "record", "http"))
    specs_dir: Optional[str] = setting(None, help="rules directory")
    language: Optional[str] = setting(None, help="only use rules for this language")
    chunk_budget: int = setting(DEFAULT_CHUNK_BUDGET, minimum=1)
    ensemble_size: int = setting(3, minimum=1)
    quorum: int = setting(2)
    temperature: float = setting(0.7, minimum=0)
    seed: int = setting(0)
    top_k: int = setting(DEFAULT_TOP_K, minimum=1)
    score_threshold: float = setting(
        DEFAULT_SCORE_THRESHOLD,
        flags=("--threshold", "--score-threshold"),
        help="minimum retrieval score",
    )
    context_lines: int = setting(DEFAULT_CONTEXT_LINES, minimum=0)
    aggregation: str = setting("deterministic", choices=AGGREGATION_MODES)
    format: str = setting("json", choices=("json", "markdown"))
    max_proposals: int = setting(MAX_PROPOSALS, minimum=0)
    implicit_soft_fail: bool = setting(True, help="let discovery pathway errors fail the run")
    allow_ungrounded: bool = setting(False, help="verify issues even when no rules were retrieved")
    patches: bool = setting(False, help="attach validated patch suggestions")
    model_summary: bool = setting(False, help="ask the model for the pathway summary text")
    fixtures_dir: Optional[str] = setting(None, flags=("--fixtures",), help="fixtures directory")
    index_path: Optional[str] = setting(
        None, flags=("--index",), help="prebuilt vector index file"
    )
    embedding: str = setting("mock", choices=("mock", "http"))
    embedding_dimension: int = setting(DEFAULT_MOCK_DIMENSION, minimum=1)
    base_url: Optional[str] = setting(None, private=True, env=ENV_BASE_URL)
    api_key: Optional[str] = setting(None, flags=(), private=True, env=ENV_API_KEY)
    model: str = setting("default")
    repo_root: str = setting(".", help="root for diff post-images")
    output: Optional[str] = setting(
        None, private=True, help="write the report here instead of stdout"
    )

    def echo(self) -> dict[str, object]:
        """Config as reported in output: everything except private keys."""
        return {key: getattr(self, key) for key in DEFAULTS if key not in PRIVATE}


SETTINGS = {f.name: f.metadata for f in fields(RunConfig)}
DEFAULTS: dict[str, object] = {f.name: f.default for f in fields(RunConfig)}
# The allowed values of each key that has a fixed set.
CHOICES = {key: meta["choices"] for key, meta in SETTINGS.items() if meta["choices"]}
PRIVATE = frozenset(key for key, meta in SETTINGS.items() if meta["private"])

_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _coerce(key: str, value: object) -> object:
    """value as key's setting: the type of its default (str when None)."""
    default = DEFAULTS[key]
    if value is None and default is None:
        return None
    kind = str if default is None else type(default)
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"config key {key!r} is too large for a number") from None
    if type(value) is not kind:
        raise ConfigError(f"config key {key!r} must be {_TYPE_NAMES[kind]}")
    return value


def load_config_file(path: Path) -> dict[str, object]:
    """Read a JSON config file, rejecting unknown keys.

    Every way the file can fail to read or decode raises ConfigError naming
    the path.
    """
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}")
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past the digit limit, or nesting
        # deeper than the decoder recurses.
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
    return {key: _coerce(key, value) for key, value in raw.items()}


def env_overrides(environ: Optional[Mapping[str, str]] = None) -> dict[str, object]:
    env = os.environ if environ is None else environ
    return {
        key: env[meta["env"]]
        for key, meta in SETTINGS.items()
        if meta["env"] and env.get(meta["env"])
    }


def merge_config(
    file_values: Optional[Mapping[str, object]] = None,
    env_values: Optional[Mapping[str, object]] = None,
    flag_values: Optional[Mapping[str, object]] = None,
) -> RunConfig:
    """Layer the three sources over the defaults; later sources win.

    flag_values must omit (not None out) flags the user did not pass.
    """
    config = RunConfig()
    for source in (file_values, env_values, flag_values):
        if not source:
            continue
        unknown = sorted(set(source) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        config = replace(config, **dict(source))
    return config


def validate_values(config: RunConfig) -> None:
    """Reject a setting that holds a value no run can use, a value of
    another type than its default included, as in a config file."""
    for key in DEFAULTS:
        _coerce(key, getattr(config, key))
    for key, allowed in CHOICES.items():
        value = getattr(config, key)
        if value not in allowed:
            raise ConfigError(f"{key} must be one of {', '.join(allowed)}; got {value!r}")
    if not math.isfinite(config.temperature):
        raise ConfigError(f"temperature must be a finite number; got {config.temperature}")
    for key, meta in SETTINGS.items():
        least = meta["minimum"]
        if least is not None and getattr(config, key) < least:
            floor = "non-negative" if least == 0 else f"at least {least}"
            raise ConfigError(f"{key} must be {floor}")
    if not 1 <= config.quorum <= config.ensemble_size:
        raise ConfigError(
            f"quorum must be between 1 and ensemble_size"
            f" ({config.ensemble_size}); got {config.quorum}"
        )
    if config.embedding == "mock" and config.embedding_dimension > MAX_MOCK_DIMENSION:
        raise ConfigError(
            f"embedding_dimension must be at most {MAX_MOCK_DIMENSION} for mock embeddings;"
            f" got {config.embedding_dimension}"
        )
    if not -1.0 <= config.score_threshold <= 1.0:
        raise ConfigError("score_threshold must be within [-1, 1]")


def validate_config(config: RunConfig) -> None:
    """Reject impossible or incomplete configurations up front: the values,
    then the rules, fixtures and endpoint that the run needs."""
    validate_values(config)
    if config.mode != "baseline" and not config.specs_dir:
        raise ConfigError(f"mode {config.mode!r} requires --specs-dir")
    if config.backend in ("replay", "record") and not config.fixtures_dir:
        raise ConfigError(f"backend {config.backend!r} requires --fixtures")
    users = [f"backend {config.backend!r}"] if config.backend in ("http", "record") else []
    # Queries are embedded at review time, so implicit modes always need
    # a provider, prebuilt index or not.
    if config.mode in ("full", "implicit_only") and config.embedding == "http":
        users.append("http embedding")
    for user in users:
        from .wire import check_base_url, proxy_route

        if not config.base_url:
            raise ConfigError(f"{user} requires a base URL (--base-url or {ENV_BASE_URL})")
        check_base_url(user, config.base_url)
        if not config.api_key:
            raise ConfigError(f"{user} requires an API key ({ENV_API_KEY})")
        # A proxy URL with a bad port would fail every call: refuse it now.
        proxy_route(config.base_url)
