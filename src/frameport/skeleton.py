"""Placeholder skeletons: keyword removal and translated reinsertion.

A skeleton replaces the i-th keyword occurrence with the literal token
``PLACEHOLDER_i``. Reinsertion parses the (translated) skeleton, applies
per-index translations, and unparses, so its output is always in
canonical rendering and placeholder-free.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from keyword import iskeyword
from typing import Mapping, Sequence

from frameport.canon import ApiKeyword, KeywordOccurrence, SourceUnit
from frameport.errors import (
    ExpansionContextError,
    MissingTranslationError,
    OverlapError,
    ParseError,
    ResidualPlaceholderError,
    SkeletonError,
)

PLACEHOLDER_RE = re.compile(r"PLACEHOLDER_([0-9]+)")


@dataclass(frozen=True)
class CodeSkeleton:
    """Source text with numbered placeholders plus the removed keywords."""

    text: str
    placeholders: tuple[tuple[int, ApiKeyword], ...]

    def indices(self) -> list[int]:
        return [i for i, _ in self.placeholders]


@dataclass(frozen=True)
class PlaceholderReport:
    """Multiset comparison of expected vs. found placeholder indices."""

    ok: bool
    missing: tuple[int, ...] = ()
    duplicate: tuple[int, ...] = ()
    extra: tuple[int, ...] = ()


def _placeholder_index(name: str | None) -> int | None:
    if name is None:
        return None
    match = re.fullmatch(r"PLACEHOLDER_([0-9]+)", name)
    return int(match.group(1)) if match else None


def to_skeleton(unit: SourceUnit, occs: Sequence[KeywordOccurrence]) -> CodeSkeleton:
    """Replace each occurrence span with its numbered placeholder."""
    if "PLACEHOLDER_" in unit.text:
        raise SkeletonError("input already contains placeholder tokens")
    data = unit.text.encode("utf-8")
    pieces: list[bytes] = []
    placeholders: list[tuple[int, ApiKeyword]] = []
    last_end = 0
    for i, occ in enumerate(occs, start=1):
        start, end = occ.span
        if not 0 <= start <= end <= len(data):
            raise SkeletonError(f"span {occ.span} out of range")
        if start < last_end:
            raise OverlapError(f"span {occ.span} overlaps a previous occurrence")
        pieces.append(data[last_end:start])
        pieces.append(f"PLACEHOLDER_{i}".encode("ascii"))
        placeholders.append((i, occ.keyword))
        last_end = end
    pieces.append(data[last_end:])
    return CodeSkeleton(
        text=b"".join(pieces).decode("utf-8"), placeholders=tuple(placeholders)
    )


def validate_placeholders(src: CodeSkeleton, out_text: str) -> PlaceholderReport:
    """Compare placeholder indices of a translated skeleton against 1..n."""
    expected = set(src.indices())
    counts: dict[int, int] = {}
    for match in PLACEHOLDER_RE.finditer(out_text):
        i = int(match.group(1))
        counts[i] = counts.get(i, 0) + 1
    missing = tuple(sorted(i for i in expected if counts.get(i, 0) == 0))
    duplicate = tuple(sorted(i for i, c in counts.items() if c > 1))
    extra = tuple(sorted(i for i in counts if i not in expected))
    ok = not (missing or duplicate or extra)
    return PlaceholderReport(ok=ok, missing=missing, duplicate=duplicate, extra=extra)


def _parse_fragment(index: int, fragment: str) -> ast.expr:
    # a dotted ASCII name is built directly; the parser would give the same
    # Name/Attribute chain (it NFKC-normalizes non-ASCII identifiers, so
    # those still go through it)
    parts = fragment.split(".")
    if fragment.isascii() and all(p.isidentifier() and not iskeyword(p) for p in parts):
        node: ast.expr = ast.Name(id=parts[0], ctx=ast.Load())
        for attr in parts[1:]:
            node = ast.Attribute(value=node, attr=attr, ctx=ast.Load())
        return node
    try:
        return ast.parse(fragment, mode="eval").body
    except (SyntaxError, ValueError):
        raise SkeletonError(
            f"translation for PLACEHOLDER_{index} is not an expression: {fragment!r}"
        ) from None


class _RenamePass(ast.NodeTransformer):
    """Apply single-fragment renames and argument drops in place."""

    def __init__(self, translations: Mapping[int, Sequence[str]]):
        self.translations = translations

    def _lookup(self, index: int) -> list[str]:
        if index not in self.translations:
            raise MissingTranslationError(f"no translation for PLACEHOLDER_{index}")
        return list(self.translations[index])

    def visit_Name(self, node: ast.Name) -> ast.expr:
        index = _placeholder_index(node.id)
        if index is None:
            return node
        fragments = self._lookup(index)
        if not fragments:
            raise SkeletonError(f"cannot drop callable PLACEHOLDER_{index}")
        if len(fragments) == 1:
            return _parse_fragment(index, fragments[0])
        return node  # expansion, handled structurally afterwards

    def visit_keyword(self, node: ast.keyword) -> ast.keyword | None:
        self.generic_visit(node)
        index = _placeholder_index(node.arg)
        if index is None:
            return node
        fragments = self._lookup(index)
        if not fragments:
            return None  # drop this argument
        if len(fragments) > 1:
            raise ExpansionContextError(
                f"parameter PLACEHOLDER_{index} cannot expand into new calls"
            )
        name = fragments[0]
        if not name.isidentifier():
            raise SkeletonError(
                f"translation for PLACEHOLDER_{index} is not a parameter name: {name!r}"
            )
        node.arg = name
        return node

    def visit_alias(self, node: ast.alias) -> ast.alias:
        for attr in ("name", "asname"):
            index = _placeholder_index(getattr(node, attr))
            if index is None:
                continue
            fragments = self._lookup(index)
            if len(fragments) != 1:
                raise ExpansionContextError(
                    f"import alias PLACEHOLDER_{index} must map to one name"
                )
            setattr(node, attr, fragments[0])
        return node


def _apply_expansions(tree: ast.AST, translations: Mapping[int, Sequence[str]]) -> None:
    """Expand multi-fragment callables inside element-list contexts."""
    for node in list(ast.walk(tree)):
        for field in ("elts", "args"):
            elements = getattr(node, field, None)
            if not isinstance(elements, list):
                continue
            rebuilt: list[ast.expr] = []
            for element in elements:
                if isinstance(element, ast.Call) and isinstance(element.func, ast.Name):
                    index = _placeholder_index(element.func.id)
                    if index is not None:
                        fragments = list(translations[index])
                        element.func = _parse_fragment(index, fragments[0])
                        rebuilt.append(element)
                        for extra in fragments[1:]:
                            rebuilt.append(_parse_fragment(index, extra))
                        continue
                rebuilt.append(element)
            setattr(node, field, rebuilt)


def reinsert(
    skeleton_text: str,
    translations: Mapping[int, Sequence[str]],
    framework: str = "",
    origin: str = "",
) -> SourceUnit:
    """Substitute translated keywords back into a skeleton.

    A translation entry is a fragment list: ``[name]`` renames the
    placeholder, ``[]`` drops the keyword argument it labels, and
    ``[name, call, ...]`` renames a callable and appends the extra calls
    right after the host call, which must sit in a list or argument
    sequence.
    """
    found = {int(m.group(1)) for m in PLACEHOLDER_RE.finditer(skeleton_text)}
    missing = sorted(i for i in found if i not in translations)
    if missing:
        raise MissingTranslationError(
            f"no translation for placeholder indices {missing}"
        )
    try:
        tree = ast.parse(skeleton_text)
    except (SyntaxError, ValueError) as exc:
        raise ParseError(f"skeleton does not parse: {exc}") from None
    tree = _RenamePass(translations).visit(tree)
    _apply_expansions(tree, translations)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and _placeholder_index(node.id) is not None:
            raise ExpansionContextError(
                f"{node.id} expands into new calls but is not inside a "
                "list or argument sequence"
            )
    ast.fix_missing_locations(tree)
    text = ast.unparse(tree)
    leftover = PLACEHOLDER_RE.search(text)
    if leftover:
        raise ResidualPlaceholderError(f"output still contains {leftover.group(0)}")
    return SourceUnit(text=text, framework=framework, origin=origin)


def identity_translations(skeleton: CodeSkeleton) -> dict[int, list[str]]:
    """Translations that reproduce the original keywords."""
    return {i: [keyword.text] for i, keyword in skeleton.placeholders}
