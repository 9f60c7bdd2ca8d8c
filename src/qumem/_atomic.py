"""Atomic text-file writes shared by the CLI and the trace writers."""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def write_atomic(path, text, newline=None):
    """Write `text` to `path` through a temp file in the same directory
    and a rename, so readers see the old file or the whole new one,
    never a partial file.  The temp file is created with mode 0666
    under the umask, as `open` would create `path`.  `newline` is as for
    `open` ("" writes line endings untranslated)."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
