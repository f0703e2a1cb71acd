"""Small shared I/O helpers."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a uniquely named temp file in the same directory, fsync it, then
    rename it into place; concurrent writers never share a temp file."""
    path = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)  # mkstemp makes 0600; match open()
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
