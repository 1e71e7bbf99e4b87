"""Whole-file replacement that an interrupt cannot tear."""

from __future__ import annotations

import os
from pathlib import Path


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``; readers see the old file or the new one.

    The text goes to a sibling temporary file that ``os.replace`` then moves
    over ``path``. If anything interrupts the write, including
    ``KeyboardInterrupt``, the old file stays as it was and the temporary file
    is removed. The data is not synced to disk, so this guards against
    interrupted or crashed processes, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
