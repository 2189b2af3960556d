"""Rename a recorded fixture store's files to their requests' fingerprints.

A record run writes one ``<fingerprint>.json`` per request, holding the
whole canonical request, prompt included. When the fingerprint's definition
changes, those names go stale; this renames every ``*.json`` in DIR to the
fingerprint (``sgcr.gateway.request_fingerprint``) of the request that the
file holds. Contents are not touched. Run with sgcr importable:

    PYTHONPATH=src python3 tools/rekey_fixtures.py DIR

Every file is read and checked before any is renamed. A file that is not a
fixture (no ``request`` object, or one that lacks a canonical field), or
two files that hold the same request, make the tool exit 2 with nothing
renamed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from sgcr.gateway import CANONICAL_FIELDS, prompt_sha256, request_fingerprint

PENDING_SUFFIX = ".rekey"


def fixture_name(path: Path) -> str:
    """The file name the fixture at path should have; raises ValueError."""
    try:
        request = json.loads(path.read_text(encoding="utf-8"))["request"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a fixture ({exc!r})") from exc
    if not isinstance(request, dict):
        raise ValueError(f"{path}: request is not an object")
    missing = [name for name in CANONICAL_FIELDS if name not in request]
    if missing:
        raise ValueError(f"{path}: request lacks {', '.join(missing)}")
    return request_fingerprint(request, prompt_sha256(request["prompt"])) + ".json"


def plan(directory: Path) -> dict[Path, str]:
    """Each fixture file in directory with the name it should have."""
    names: dict[Path, str] = {}
    holders: dict[str, Path] = {}
    for path in sorted(directory.glob("*.json")):
        name = fixture_name(path)
        if name in holders:
            raise ValueError(f"{holders[name]} and {path} hold the same request")
        holders[name] = path
        names[path] = name
    return names


def rekey(directory: Path) -> int:
    """Rename directory's fixtures; the number of files renamed.

    Names may be swapped between files, so every move first goes to a
    pending name, and from there to its fingerprint.
    """
    moves = {path: name for path, name in plan(directory).items() if path.name != name}
    pending = []
    for path, name in moves.items():
        staged = directory / (name + PENDING_SUFFIX)
        path.rename(staged)
        pending.append((staged, directory / name))
    for staged, target in pending:
        staged.rename(target)
    return len(moves)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path, help="the fixture store to re-key")
    args = parser.parse_args(argv)
    if not args.directory.is_dir():
        print(f"{args.directory}: not a directory", file=sys.stderr)
        return 2
    try:
        renamed = rekey(args.directory)
    except ValueError as exc:
        print(f"refused, nothing renamed: {exc}", file=sys.stderr)
        return 2
    print(f"renamed {renamed} fixture(s) in {args.directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
