"""Exception hierarchy shared across the package.

A class exists only where some caller reacts to it apart from its base:

- ``FrameportError``: the base; the CLI exits 3 (``pipeline error: ...``);
- ``ConfigError``: a bad flag, configuration or input file; exit 2;
- ``BackendUnavailable``: the completion backend failed; exit 4;
- ``ParseError``: source that does not parse; ``ingest`` skips the file,
  and ``eval`` scores such a prediction 0;
- ``ArityError``, ``DuplicateKeywordError``: a call that does not bind to
  its signature; ``ingest`` skips the file;
- ``UnmappedKeyword``: a keyword the dictionary lacks; the transpile path
  passes it through with a warning;
- ``SkeletonError`` and its ``MissingTranslationError``,
  ``ResidualPlaceholderError`` and ``ExpansionContextError``, plus
  ``PlaceholderMismatch`` and ``StopMarkerMissing`` (exit 4): transpile
  failures that ``eval`` names by class in its report rows.

Every other failure is a plain ``FrameportError`` with its message.

Every input file is read through ``reading``, which decodes it as UTF-8
inside ``loading``: a file that cannot be opened, read or decoded, or
whose contents do not parse or fail a check, ends in one ``ConfigError``
naming it. Only the source files ``ingest`` scans are read apart,
leniently, since an unreadable one is skipped rather than fatal.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class FrameportError(Exception):
    """Base class for all frameport errors."""


class ParseError(FrameportError):
    """Source text does not parse under the supported grammar subset."""


class ArityError(FrameportError):
    """A positional argument has no matching parameter in the signature."""


class DuplicateKeywordError(FrameportError):
    """A converted positional argument collides with an explicit keyword."""


class SkeletonError(FrameportError):
    """Generic skeleton construction/reinsertion failure."""


class MissingTranslationError(SkeletonError):
    """A placeholder in the target skeleton has no translation entry."""


class ResidualPlaceholderError(SkeletonError):
    """Reinsertion output still contains a placeholder token."""


class ExpansionContextError(SkeletonError):
    """A one-to-many expansion was requested outside a list/sequential context."""


class PlaceholderMismatch(FrameportError):
    """Placeholder indices of the target skeleton do not match the source."""

    def __init__(self, missing=(), duplicate=(), extra=()):
        self.missing = sorted(missing)
        self.duplicate = sorted(duplicate)
        self.extra = sorted(extra)
        super().__init__(
            f"placeholder mismatch: missing={self.missing} "
            f"duplicate={self.duplicate} extra={self.extra}"
        )


class BackendUnavailable(FrameportError):
    """Completion backend unreachable after retries."""


class StopMarkerMissing(BackendUnavailable):
    """Backend completion did not terminate at the template's stop marker."""


class UnmappedKeyword(FrameportError):
    """Dictionary lookup found no entry for the keyword."""


class ConfigError(FrameportError):
    """Invalid configuration file or flag combination."""


@contextmanager
def loading(what: str, path: str | Path) -> Iterator[None]:
    """Report an unreadable or malformed file as one ``ConfigError``.

    I/O errors, JSON syntax errors, missing keys, fields of the wrong type
    or value and frameport errors raised inside the block become
    ``cannot load {what} {path}: ...``. A ``ConfigError`` that already
    names a file, as ``{path}: ...`` or from an inner ``loading``, keeps
    its text.
    """
    try:
        yield
    except ConfigError as exc:
        if str(exc).startswith((f"{path}:", "cannot load ")):
            raise
        raise ConfigError(f"cannot load {what} {path}: {exc}") from None
    except KeyError as exc:
        raise ConfigError(f"cannot load {what} {path}: missing field {exc}") from None
    except (
        OSError, ValueError, TypeError, AttributeError, IndexError, FrameportError
    ) as exc:
        raise ConfigError(f"cannot load {what} {path}: {exc}") from None


@contextmanager
def reading(what: str, path: str | Path) -> Iterator[str]:
    """Yield the UTF-8 text of a file inside ``loading(what, path)``, so
    reading, decoding and parsing it fail as one ``ConfigError``."""
    with loading(what, path):
        yield Path(path).read_text(encoding="utf-8")
