"""Exception hierarchy shared across the package.

The class decides the CLI exit code: ``ConfigError`` and its subclasses
exit 2, ``BackendUnavailable`` and its subclasses 4, and every other
``FrameportError`` 3.

Every input file is read through ``reading``, which decodes it as UTF-8
inside ``loading``: a file that cannot be opened, read or decoded, or
whose text does not parse, ends in one ``ConfigError`` naming it. Only
the source files ``ingest`` scans are read apart, leniently, since an
unreadable one is skipped rather than fatal.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class FrameportError(Exception):
    """Base class for all frameport errors."""


class ParseError(FrameportError):
    """Source text does not parse under the supported grammar subset."""


class UnknownCallableError(FrameportError):
    """A framework-prefixed call is not in the signature database (strict mode)."""


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


class MissingVectorError(FrameportError):
    """File-backed embedding provider has no record for an occurrence."""


class DimensionMismatch(FrameportError):
    """Array shapes are inconsistent with the declared dimensions."""


class LabelOutOfRange(FrameportError):
    """A class label lies outside [0, num_classes)."""


class CacheMismatch(FrameportError):
    """Backward pass received a cache from a different forward configuration."""


class ZeroVectorError(FrameportError):
    """Cosine similarity requested for a zero-norm embedding."""


class EmptyVocabularyError(FrameportError):
    """Dictionary generation requires at least one keyword per framework."""


class NonFiniteScoreError(FrameportError):
    """A source callable scores NaN or -inf against every target group."""


class EmptyDictionaryError(FrameportError):
    """The induced dictionary has no pairs to score."""


class UnmappedKeyword(FrameportError):
    """Dictionary lookup found no entry for the keyword."""


class ConfigError(FrameportError):
    """Invalid configuration file or flag combination."""


class KOutOfRange(ConfigError):
    """CSLS neighborhood size is not in [1, min(m1, m2)]."""


@contextmanager
def loading(what: str, path: str | Path) -> Iterator[None]:
    """Report an unreadable or malformed file as one ``ConfigError``.

    I/O errors, JSON syntax errors, missing keys and fields of the wrong
    type or value raised inside the block become
    ``cannot load {what} {path}: ...``; frameport errors pass through.
    """
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"cannot load {what} {path}: missing field {exc}") from None
    except (OSError, ValueError, TypeError, AttributeError, IndexError) as exc:
        raise ConfigError(f"cannot load {what} {path}: {exc}") from None


@contextmanager
def reading(what: str, path: str | Path) -> Iterator[str]:
    """Yield the UTF-8 text of a file inside ``loading(what, path)``, so
    reading, decoding and parsing it fail as one ``ConfigError``."""
    with loading(what, path):
        yield Path(path).read_text(encoding="utf-8")
