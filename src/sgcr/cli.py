"""Command-line interface.

Subcommands: ``review`` runs the pipeline over files or a diff, ``specs
validate`` checks a rules directory, ``specs index`` persists a vector
index for later runs. The report is the only thing written to stdout;
all diagnostics go to stderr. Exit codes: 0 success (a clean review with
zero findings is success), 2 configuration or input error (input that is
not UTF-8, an output directory that does not exist and an output that is a
directory included), 3 pipeline failure (a report or index that cannot be
written included).
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import closing
from pathlib import Path
from typing import Optional, Sequence

from .config import (
    CHOICES,
    DEFAULTS,
    RunConfig,
    env_overrides,
    load_config_file,
    merge_config,
    validate_config,
)
from .errors import ConfigError, DiffSyntaxError, InvalidReviewRequest, SgcrError
from .ingestion import build_review_request, decode_utf8
from .pipeline import build_provider, load_rules, render_report, run_review
from .retrieval import build_index, save_index

logger = logging.getLogger(__name__)


def _add_review_flags(parser: argparse.ArgumentParser) -> None:
    # Every default here is None so unset flags never mask config file
    # values; real defaults live on RunConfig.
    parser.add_argument("inputs", nargs="*", help="files to review (post-change state)")
    parser.add_argument("--diff", help="unified diff file to review ('-' for stdin)")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--mode", choices=CHOICES["mode"])
    parser.add_argument("--backend", choices=CHOICES["backend"])
    parser.add_argument("--specs-dir", dest="specs_dir", help="rules directory")
    parser.add_argument("--language", help="only use rules for this language")
    parser.add_argument("--chunk-budget", dest="chunk_budget", type=int)
    parser.add_argument("--ensemble-size", dest="ensemble_size", type=int)
    parser.add_argument("--quorum", type=int)
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--top-k", dest="top_k", type=int)
    parser.add_argument(
        "--threshold", "--score-threshold", dest="score_threshold", type=float,
        help="minimum retrieval score",
    )
    parser.add_argument("--context-lines", dest="context_lines", type=int)
    parser.add_argument("--aggregation", choices=CHOICES["aggregation"])
    parser.add_argument("--format", choices=CHOICES["format"])
    parser.add_argument("--max-proposals", dest="max_proposals", type=int)
    parser.add_argument(
        "--no-implicit-soft-fail",
        dest="implicit_soft_fail",
        action="store_false",
        default=None,
        help="let discovery pathway errors fail the run",
    )
    parser.add_argument(
        "--allow-ungrounded", action="store_true", default=None,
        help="verify issues even when no rules were retrieved",
    )
    parser.add_argument(
        "--patches", action="store_true", default=None,
        help="attach validated patch suggestions",
    )
    parser.add_argument(
        "--model-summary", dest="model_summary", action="store_true", default=None,
        help="ask the model for the pathway summary text",
    )
    parser.add_argument("--fixtures", dest="fixtures_dir", help="fixtures directory")
    parser.add_argument("--index", dest="index_path", help="prebuilt vector index file")
    parser.add_argument("--embedding", choices=CHOICES["embedding"])
    parser.add_argument("--embedding-dimension", dest="embedding_dimension", type=int)
    parser.add_argument("--base-url", dest="base_url")
    parser.add_argument("--model")
    parser.add_argument("--repo-root", dest="repo_root", help="root for diff post-images")
    parser.add_argument("--output", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcr", description="rule-grounded ensemble code review"
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true", help="log progress to stderr"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    review = commands.add_parser("review", help="review files or a diff")
    _add_review_flags(review)

    specs = commands.add_parser("specs", help="rules directory utilities")
    spec_commands = specs.add_subparsers(dest="specs_command", required=True)

    validate = spec_commands.add_parser("validate", help="check every rule file parses")
    validate.add_argument("--specs-dir", dest="specs_dir", required=True)
    validate.add_argument("--language")

    index = spec_commands.add_parser("index", help="embed rules and save the index")
    index.add_argument("--specs-dir", dest="specs_dir", required=True)
    index.add_argument("--output", required=True, help="where to write the index file")
    index.add_argument("--language")
    index.add_argument("--embedding", choices=CHOICES["embedding"])
    index.add_argument("--embedding-dimension", dest="embedding_dimension", type=int)
    index.add_argument("--base-url", dest="base_url")
    index.add_argument("--model")
    return parser


def _check_paths(config: RunConfig) -> None:
    if config.specs_dir and config.mode != "baseline" and not Path(config.specs_dir).is_dir():
        raise ConfigError(f"rules directory not found: {config.specs_dir}")
    if config.backend == "replay" and not Path(config.fixtures_dir or "").is_dir():
        raise ConfigError(f"fixtures directory not found: {config.fixtures_dir}")
    if config.index_path and not Path(config.index_path).is_file():
        raise ConfigError(f"index file not found: {config.index_path}")
    if config.output and not Path(config.output).parent.is_dir():
        raise ConfigError(f"output directory not found: {Path(config.output).parent}")
    if config.output and Path(config.output).is_dir():
        raise ConfigError(f"output is a directory: {config.output}")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The validated config of any subcommand: file, environment, then flags.

    Every parsed argument named after a config key is a flag value unless
    it is None, which argparse leaves for a flag that was not passed.
    """
    config_path = getattr(args, "config", None)
    file_values = load_config_file(Path(config_path)) if config_path else None
    flag_values = {
        key: value
        for key, value in vars(args).items()
        if key in DEFAULTS and value is not None
    }
    config = merge_config(file_values, env_overrides(), flag_values)
    validate_config(config)
    _check_paths(config)
    return config


def _read_diff(source: str) -> str:
    if source == "-":
        return decode_utf8(sys.stdin.buffer.read(), "standard input")
    path = Path(source)
    if not path.is_file():
        raise ConfigError(f"diff file not found: {path}")
    return decode_utf8(path.read_bytes(), path)


def _cmd_review(args: argparse.Namespace) -> int:
    try:
        config = _resolve_config(args)
        if bool(args.inputs) == bool(args.diff):
            raise ConfigError("pass either input files or --diff, not both or neither")
        if args.diff:
            request = build_review_request(
                diff_text=_read_diff(args.diff),
                repo_root=Path(config.repo_root),
                context_lines=config.context_lines,
            )
        else:
            request = build_review_request(
                paths=[Path(p) for p in args.inputs],
                context_lines=config.context_lines,
            )
    except (ConfigError, InvalidReviewRequest, DiffSyntaxError, FileNotFoundError) as exc:
        print(f"sgcr: {exc}", file=sys.stderr)
        return 2

    try:
        final = run_review(config, request)
        rendered = render_report(final, config.format)
    except SgcrError as exc:
        print(f"sgcr: {exc}", file=sys.stderr)
        return 3

    if config.output:
        try:
            Path(config.output).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            print(f"sgcr: cannot write the report to {config.output}: {exc}", file=sys.stderr)
            return 3
        logger.info("report written to %s", config.output)
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_specs_validate(args: argparse.Namespace) -> int:
    try:
        library = load_rules(_resolve_config(args))
    except SgcrError as exc:
        print(f"sgcr: {exc}", file=sys.stderr)
        return 2
    for spec in library.specs:
        sys.stdout.write(
            f"{spec.id}\t{spec.severity.value}\t{spec.category.value}\t{spec.title}\n"
        )
    sys.stdout.write(f"{len(library.specs)} specifications OK\n")
    return 0


def _cmd_specs_index(args: argparse.Namespace) -> int:
    try:
        config = _resolve_config(args)
        library = load_rules(config)
    except SgcrError as exc:
        print(f"sgcr: {exc}", file=sys.stderr)
        return 2
    try:
        with closing(build_provider(config)) as provider:
            index = build_index(library, provider)
        save_index(index, Path(config.output))
    except (SgcrError, OSError) as exc:
        print(f"sgcr: {exc}", file=sys.stderr)
        return 3
    print(
        f"indexed {len(index.entries)} rule(s) at dimension {index.dimension}"
        f" -> {config.output}",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command == "review":
        return _cmd_review(args)
    if args.specs_command == "validate":
        return _cmd_specs_validate(args)
    return _cmd_specs_index(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
