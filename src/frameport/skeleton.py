"""Placeholder skeletons: keyword removal and translated reinsertion.

A skeleton replaces the i-th keyword occurrence with the literal token
``PLACEHOLDER_i``. Reinsertion parses the (translated) skeleton, applies
per-index translations, rewrites the tree into the target's canonical
form and unparses it once, so its output is canonical and placeholder-free.
No pass walks the tree just to look for leftovers: the rename pass reports
an expansion outside a list or argument sequence and placeholder text in an
import (which the target rewrite may re-spell), and one search of the
output text finds any other placeholder text.
"""

from __future__ import annotations

import ast
import re
import unicodedata
from dataclasses import dataclass
from keyword import iskeyword
from typing import Mapping, Sequence

from frameport.canon import (
    ApiKeyword,
    KeywordOccurrence,
    SignatureDatabase,
    SourceUnit,
    _DispatchTransformer,
    _make_chain,
    parse_source,
    rewrite_tree,
)
from frameport.errors import (
    ExpansionContextError,
    MissingTranslationError,
    OverlapError,
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


def _is_name(text: str, dotted: bool) -> bool:
    parts = text.split(".") if dotted else [text]
    return all(p.isidentifier() and not iskeyword(p) for p in parts)


def _parse_fragment(index: int, fragment: str) -> ast.expr:
    # a dotted ASCII name is built directly; the parser would give the same
    # Name/Attribute chain (it NFKC-normalizes non-ASCII identifiers, so
    # those still go through it)
    if fragment.isascii() and _is_name(fragment, dotted=True):
        return _make_chain(fragment)
    try:
        return ast.parse(fragment, mode="eval").body
    except (SyntaxError, ValueError):
        raise SkeletonError(
            f"translation for PLACEHOLDER_{index} is not an expression: {fragment!r}"
        ) from None


def _identifier(index: int, name: str, dotted: bool, what: str) -> str:
    """``name`` as the parser reads an identifier (dotted if ``dotted``)."""
    name = unicodedata.normalize("NFKC", name)
    if not _is_name(name, dotted):
        raise SkeletonError(
            f"translation for PLACEHOLDER_{index} is not {what}: {name!r}"
        )
    return name


class _RenamePass(_DispatchTransformer):
    """Apply renames, argument drops and expansions in place; raise for an
    expansion that no sequence takes and for placeholder text in an import."""

    def __init__(self, translations: Mapping[int, Sequence[str]]):
        self.translations = translations
        # expansion names no list or argument sequence has taken yet
        self.unplaced: dict[ast.Name, int] = {}

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
        if len(fragments) > 1:
            self.unplaced[node] = index  # the enclosing sequence renames it
            return node
        if isinstance(node.ctx, ast.Load):
            return _parse_fragment(index, fragments[0])
        new = _make_chain(_identifier(index, fragments[0], True, "an assignable name"))
        new.ctx = node.ctx
        return new

    def visit_NamedExpr(self, node: ast.NamedExpr) -> ast.NamedExpr:
        self.generic_visit(node)
        if not isinstance(node.target, ast.Name):
            raise SkeletonError("an assignment expression needs a bare name target")
        return node

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
        node.arg = _identifier(index, fragments[0], False, "a parameter name")
        return node

    def _rename_aliases(self, node: ast.Import | ast.ImportFrom) -> ast.stmt:
        # ``import a.b`` takes a dotted module; every other import name is bare
        for alias in node.names:
            for attr, dotted in (("name", isinstance(node, ast.Import)), ("asname", False)):
                index = _placeholder_index(getattr(alias, attr))
                if index is None:
                    continue
                fragments = self._lookup(index)
                if len(fragments) != 1:
                    raise ExpansionContextError(
                        f"import alias PLACEHOLDER_{index} must map to one name"
                    )
                name = _identifier(index, fragments[0], dotted, "an import name")
                setattr(alias, attr, name)
        # the target rewrite may re-spell an import: look for leftovers here
        spelled = [getattr(node, "module", None)]
        spelled += [name for alias in node.names for name in (alias.name, alias.asname)]
        _raise_on_leftover(" ".join(filter(None, spelled)))
        return node

    visit_Import = visit_ImportFrom = _rename_aliases

    def visit_Module(self, node: ast.Module) -> ast.Module:
        self.generic_visit(node)
        for name in self.unplaced:
            raise ExpansionContextError(
                f"{name.id} expands into new calls but is not inside a "
                "list or argument sequence"
            )
        return node

    def generic_visit(self, node: ast.AST) -> ast.AST:
        super().generic_visit(node)
        for field in ("elts", "args"):
            elements = getattr(node, field, None)
            if isinstance(elements, list):
                setattr(node, field, [new for old in elements for new in self._expand(old)])
        return node

    def _expand(self, element: ast.AST) -> list[ast.AST]:
        # a call to a callable with several fragments is renamed, and its
        # extra calls follow it in the element list or argument sequence
        if isinstance(element, ast.Call) and element.func in self.unplaced:
            index = self.unplaced.pop(element.func)
            first, *extra = self.translations[index]
            element.func = _parse_fragment(index, first)
            return [element, *(_parse_fragment(index, f) for f in extra)]
        return [element]


def _raise_on_leftover(text: str) -> None:
    leftover = PLACEHOLDER_RE.search(text)
    if leftover:
        raise ResidualPlaceholderError(f"output still contains {leftover.group(0)}")


def reinsert(
    skeleton_text: str,
    translations: Mapping[int, Sequence[str]],
    db: SignatureDatabase,
    origin: str = "",
) -> SourceUnit:
    """Substitute translated keywords into a skeleton, in ``db``'s canonical form.

    A translation entry is a fragment list: ``[name]`` renames the
    placeholder, ``[]`` drops the keyword argument it labels, and
    ``[name, call, ...]`` renames a callable and appends the extra calls
    right after the host call, which must sit in a list or argument
    sequence.

    The rename pass raises for an expansion outside such a sequence and for
    placeholder text left in an import; any other placeholder text left in
    the output is found by one search of the unparsed text.
    """
    found = {int(m.group(1)) for m in PLACEHOLDER_RE.finditer(skeleton_text)}
    missing = sorted(i for i in found if i not in translations)
    if missing:
        raise MissingTranslationError(
            f"no translation for placeholder indices {missing}"
        )
    tree = parse_source(skeleton_text, "skeleton does not parse")
    tree = _RenamePass(translations).visit(tree)
    text = ast.unparse(rewrite_tree(tree, db))
    _raise_on_leftover(text)
    return SourceUnit(text, db.framework, origin)


def identity_translations(skeleton: CodeSkeleton) -> dict[int, list[str]]:
    """Translations that reproduce the original keywords."""
    return {i: [keyword.text] for i, keyword in skeleton.placeholders}
