"""Atomic text-file writes shared by the CLI and the trace writers."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_atomic(path, text, newline=None):
    """Write `text` to `path` through a temp file in the same directory
    and a rename, so readers see the old file or the whole new one,
    never a partial file.  `newline` is as for `open` ("" writes line
    endings untranslated)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
