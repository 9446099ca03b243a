"""Text-file reads that fail with one clear error, and atomic writes for
checkpoints, reports and command output."""

from __future__ import annotations

import os
from pathlib import Path

from .errors import InputError


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at ``path``; a file that cannot be read or
    is not UTF-8 raises an ``InputError`` that names it as ``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from None


def write_text_atomic(path, text: str) -> None:
    """Write UTF-8 text to ``path`` through a temporary file in the same
    directory and ``os.replace``.  A reader sees the previous file or the new
    one, never a partial write, and a failed write removes its temporary
    file and leaves the previous file as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
