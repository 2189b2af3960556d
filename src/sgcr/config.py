"""Run configuration: defaults, JSON config file, environment, CLI flags.

Precedence, lowest to highest: built-in defaults, config file values,
environment (SGCR_BASE_URL / SGCR_API_KEY), command-line flags. RunConfig
is the one declaration of every setting: a config-file value must have
its default's type (``null`` only where the default is None), a key with
a fixed set of values lists them in CHOICES, and the CLI takes every
parsed argument named after a key as a flag value. A new knob is a
RunConfig field, plus its flag in ``cli``. validate_config checks a base
URL and the proxy that reaches it with wire's rules (check_base_url,
proxy_route), and loads wire only for a run that makes HTTP calls.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import fields, replace
from pathlib import Path
from typing import Mapping, Optional

from .errors import ConfigError
from .explicit import AGGREGATION_MODES
from .implicit import MAX_PROPOSALS
from .ingestion import DEFAULT_CONTEXT_LINES
from .retrieval import DEFAULT_MOCK_DIMENSION, DEFAULT_SCORE_THRESHOLD, DEFAULT_TOP_K
from .specs import DEFAULT_CHUNK_BUDGET
from .types import Value, value_class

logger = logging.getLogger(__name__)

ENV_BASE_URL = "SGCR_BASE_URL"
ENV_API_KEY = "SGCR_API_KEY"

# Config keys that never appear in report echoes or run identity.
_PRIVATE_KEYS = ("api_key", "base_url", "output")


@value_class
class RunConfig(Value):
    """Every run setting, with its built-in default."""

    mode: str = "full"
    backend: str = "mock"
    specs_dir: Optional[str] = None
    language: Optional[str] = None
    chunk_budget: int = DEFAULT_CHUNK_BUDGET
    ensemble_size: int = 3
    quorum: int = 2
    temperature: float = 0.7
    seed: int = 0
    top_k: int = DEFAULT_TOP_K
    score_threshold: float = DEFAULT_SCORE_THRESHOLD
    context_lines: int = DEFAULT_CONTEXT_LINES
    aggregation: str = "deterministic"
    format: str = "json"
    max_proposals: int = MAX_PROPOSALS
    implicit_soft_fail: bool = True
    allow_ungrounded: bool = False
    patches: bool = False
    model_summary: bool = False
    fixtures_dir: Optional[str] = None
    index_path: Optional[str] = None
    embedding: str = "mock"
    embedding_dimension: int = DEFAULT_MOCK_DIMENSION
    base_url: Optional[str] = None
    api_key: Optional[str] = None
    model: str = "default"
    repo_root: str = "."
    output: Optional[str] = None

    def echo(self) -> dict[str, object]:
        """Config as reported in output: everything except private keys."""
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in _PRIVATE_KEYS
        }
        return payload


DEFAULTS: dict[str, object] = {f.name: f.default for f in fields(RunConfig)}

# The allowed values of each key that has a fixed set; argparse reads the same.
CHOICES: dict[str, tuple[str, ...]] = {
    "mode": ("full", "explicit_only", "implicit_only", "baseline"),
    "backend": ("mock", "replay", "record", "http"),
    "embedding": ("mock", "http"),
    "format": ("json", "markdown"),
    "aggregation": AGGREGATION_MODES,
}

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
    overrides: dict[str, object] = {}
    if env.get(ENV_BASE_URL):
        overrides["base_url"] = env[ENV_BASE_URL]
    if env.get(ENV_API_KEY):
        overrides["api_key"] = env[ENV_API_KEY]
    return overrides


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


def validate_config(config: RunConfig) -> None:
    """Reject impossible or incomplete configurations up front."""
    for key, allowed in CHOICES.items():
        value = getattr(config, key)
        if value not in allowed:
            raise ConfigError(f"{key} must be one of {', '.join(allowed)}; got {value!r}")
    if config.ensemble_size < 1:
        raise ConfigError("ensemble_size must be at least 1")
    if not 1 <= config.quorum <= config.ensemble_size:
        raise ConfigError(
            f"quorum must be between 1 and ensemble_size"
            f" ({config.ensemble_size}); got {config.quorum}"
        )
    if config.chunk_budget < 1:
        raise ConfigError("chunk_budget must be at least 1")
    if not math.isfinite(config.temperature):
        raise ConfigError(f"temperature must be a finite number; got {config.temperature}")
    if config.temperature < 0:
        raise ConfigError("temperature must be non-negative")
    if config.context_lines < 0:
        raise ConfigError("context_lines must be non-negative")
    if config.max_proposals < 0:
        raise ConfigError("max_proposals must be non-negative")
    if config.embedding_dimension < 1:
        raise ConfigError("embedding_dimension must be at least 1")
    if config.top_k < 1:
        raise ConfigError("top_k must be at least 1")
    if not -1.0 <= config.score_threshold <= 1.0:
        raise ConfigError("score_threshold must be within [-1, 1]")

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
