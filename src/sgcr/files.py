"""Whole-file writes: a file sgcr writes is either as it was or complete.

The report (``sgcr review --output``), the vector index (``sgcr specs
index``) and recorded fixtures all go through write_text_atomic.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union


def write_text_atomic(path: Union[str, Path], text: str) -> None:
    """Write text to path as UTF-8 so that no reader sees it half-written.

    The text goes to a new temporary file in the target's directory, which
    os.replace then renames over the target. If anything fails first (a
    full disk, a file size limit, text that does not encode), the
    temporary file is removed and the error propagates, leaving whatever
    file was at path as it was. As with Path.write_text, a symlink at path
    is followed and a new file's mode is 0666 less the umask. An existing
    path that is not a regular file (a device or a pipe, such as
    /dev/stdout) has nothing to replace and is written in place. Nothing is
    synced to disk: this guards against a process that fails or is killed,
    not against a power loss.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        Path(target).write_text(text, encoding="utf-8")
        return
    temporary = f"{target}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    handle = open(temporary, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(temporary, target)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise
