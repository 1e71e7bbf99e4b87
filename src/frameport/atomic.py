"""Whole-file replacement that an interrupt cannot tear."""

from __future__ import annotations

import os
from pathlib import Path


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``; readers see the old file or the new one.

    The text goes to a sibling temporary file that ``os.replace`` then moves
    over ``path``. If anything interrupts the write, including
    ``KeyboardInterrupt``, the old file stays as it was and the temporary file
    is removed; an ``OSError`` is raised naming ``path``, not the temporary
    file. The data is not synced to disk, so this guards against interrupted
    or crashed processes, not against power loss.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        # report the file the caller asked for, not the hidden temporary
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
