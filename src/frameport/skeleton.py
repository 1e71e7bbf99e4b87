"""Placeholder skeletons: keyword removal and translated reinsertion.

A skeleton puts the name ``PLACEHOLDER_i`` in place of the i-th keyword
site, in text order, of the canonical tree and unparses it once; putting
the keywords back into that text gives the canonical unit. Reinsertion
parses the (translated) skeleton and runs one target rewrite that resolves
each placeholder as it meets it, then unparses once, so its output is
canonical and placeholder-free. No pass walks the tree just to look for
leftovers: the rewrite reports an expansion outside a list or argument
sequence and placeholder text in an import (which it may re-spell), and
one search of the output text finds any other placeholder text.
"""

from __future__ import annotations

import ast
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from keyword import iskeyword
from typing import Mapping, Sequence

from frameport.canon import (
    CALLABLE,
    ApiKeyword,
    KeywordSite,
    SignatureDatabase,
    SourceUnit,
    _make_chain,
    _Rewriter,
    parse_source,
)
from frameport.errors import (
    ExpansionContextError,
    MissingTranslationError,
    ResidualPlaceholderError,
    SkeletonError,
)

PLACEHOLDER_RE = re.compile(r"PLACEHOLDER_([0-9]+)")


@dataclass(frozen=True)
class CodeSkeleton:
    """Source text with numbered placeholders plus the removed keywords:
    ``PLACEHOLDER_i`` stands for ``keywords[i - 1]``."""

    text: str
    keywords: tuple[ApiKeyword, ...]

    def canonical_text(self) -> str:
        """The text with each placeholder's keyword put back: the
        canonical unit the skeleton was cut from."""
        return PLACEHOLDER_RE.sub(
            lambda m: self.keywords[int(m.group(1)) - 1].text, self.text
        )


@dataclass(frozen=True)
class PlaceholderReport:
    """Multiset comparison of expected vs. found placeholder indices."""

    missing: tuple[int, ...] = ()
    duplicate: tuple[int, ...] = ()
    extra: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not (self.missing or self.duplicate or self.extra)


def _placeholder_index(name: str | None) -> int | None:
    if name is None or not name.startswith("PLACEHOLDER_"):
        return None
    match = PLACEHOLDER_RE.fullmatch(name)
    return int(match.group(1)) if match else None


def to_skeleton(tree: ast.Module, sites: list[KeywordSite]) -> CodeSkeleton:
    """Put a placeholder name in place of each keyword site of a canonical
    tree (in place) and unparse it once.

    Placeholders are numbered in text order, and ``sites`` is put in that
    order: ``PLACEHOLDER_i`` stands for ``sites[i - 1]``. Every
    ``PLACEHOLDER_`` in the text must be one of the sites' names."""
    for k, (keyword, node, _) in enumerate(sites):
        if keyword.kind == CALLABLE:
            node.func = ast.Name(id=f"PLACEHOLDER_{k}", ctx=ast.Load())
        else:
            node.arg = f"PLACEHOLDER_{k}"
    text = ast.unparse(tree)
    if text.count("PLACEHOLDER_") != len(sites):
        raise SkeletonError("input already contains placeholder tokens")
    pieces = PLACEHOLDER_RE.split(text)  # text, walk index, text, ...
    sites[:] = [sites[int(k)] for k in pieces[1::2]]
    pieces[1::2] = [f"PLACEHOLDER_{i}" for i in range(1, len(sites) + 1)]
    return CodeSkeleton("".join(pieces), tuple(site.keyword for site in sites))


def validate_placeholders(src: CodeSkeleton, out_text: str) -> PlaceholderReport:
    """Compare placeholder indices of a translated skeleton against 1..n."""
    n = len(src.keywords)
    counts = Counter(int(i) for i in PLACEHOLDER_RE.findall(out_text))
    missing = tuple(i for i in range(1, n + 1) if i not in counts)
    duplicate = tuple(sorted(i for i, c in counts.items() if c > 1))
    extra = tuple(sorted(i for i in counts if not 1 <= i <= n))
    return PlaceholderReport(missing, duplicate, extra)


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


class _Reinserter(_Rewriter):
    """The target rewrite, resolving each placeholder as it meets it.

    Import names are renamed before the import scan reads them. A name is
    renamed and a keyword argument renamed or dropped before the rewrite
    reaches it; a callable with several fragments is renamed and bound by
    its enclosing list or argument sequence, which takes its extra calls.
    The trees a translation builds are rewritten with resolution off, so
    placeholder text they spell is left to the search of the output."""

    def __init__(
        self, translations: Mapping[int, Sequence[str]], db: SignatureDatabase, tree: ast.Module
    ):
        self.translations = translations
        self.resolving = True
        # expansion names no list or argument sequence has taken yet
        self.unplaced: dict[ast.Name, int] = {}
        super().__init__(db, tree, strict=False)

    def _canonical(self, node: ast.AST) -> ast.AST:
        """A tree a translation built, rewritten without resolving placeholders."""
        self.resolving = False
        node = self.visit(node)
        self.resolving = True
        return node

    def _rename(self, index: int, node: ast.Name) -> ast.expr:
        fragments = self.translations[index]
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

    def visit_Name(self, node: ast.Name) -> ast.expr:
        index = _placeholder_index(node.id) if self.resolving else None
        if index is None:
            return _Rewriter.visit_Name(self, node)
        new = self._rename(index, node)
        return node if new is node else self._canonical(new)

    def visit_Attribute(self, node: ast.Attribute) -> ast.expr:
        # the rewrite reads a dotted name whole: rename its first name first
        parent = node
        while isinstance(parent.value, ast.Attribute):
            parent = parent.value
        head = getattr(parent.value, "id", None) if self.resolving else None
        index = _placeholder_index(head)
        if index is None:
            return _Rewriter.visit_Attribute(self, node)
        parent.value = self._rename(index, parent.value)
        return self._canonical(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> ast.NamedExpr:
        self.generic_visit(node)
        if not isinstance(node.target, ast.Name):
            raise SkeletonError("an assignment expression needs a bare name target")
        return node

    def visit_keyword(self, node: ast.keyword) -> ast.keyword | None:
        self.generic_visit(node)
        index = _placeholder_index(node.arg) if self.resolving else None
        if index is None:
            return node
        fragments = self.translations[index]
        if not fragments:
            return None  # drop this argument
        if len(fragments) > 1:
            raise ExpansionContextError(
                f"parameter PLACEHOLDER_{index} cannot expand into new calls"
            )
        node.arg = _identifier(index, fragments[0], False, "a parameter name")
        return node

    def visit_Call(self, node: ast.Call) -> ast.expr:
        self.generic_visit(node)
        if self.unplaced:  # an expansion waits for a sequence to take it
            node.args = [new for old in node.args for new in self._expand(old)]
        # a callable with several fragments is bound once its sequence renames it
        return node if node.func in self.unplaced else self._bind(node)

    def _visit_elements(self, node: ast.List | ast.Tuple | ast.Set) -> ast.expr:
        self.generic_visit(node)
        if self.unplaced:
            node.elts = [new for old in node.elts for new in self._expand(old)]
        return node

    visit_List = visit_Tuple = visit_Set = _visit_elements

    def _rename_import(self, node: ast.Import | ast.ImportFrom) -> None:
        # ``import a.b`` takes a dotted module; every other import name is bare
        for alias in node.names:
            for attr, dotted in (("name", isinstance(node, ast.Import)), ("asname", False)):
                index = _placeholder_index(getattr(alias, attr))
                if index is None:
                    continue
                fragments = self.translations[index]
                if len(fragments) != 1:
                    raise ExpansionContextError(
                        f"import alias PLACEHOLDER_{index} must map to one name"
                    )
                name = _identifier(index, fragments[0], dotted, "an import name")
                setattr(alias, attr, name)
        # the rewrite may re-spell an import: look for leftovers here
        spelled = [getattr(node, "module", None)]
        spelled += [name for alias in node.names for name in (alias.name, alias.asname)]
        _raise_on_leftover(" ".join(filter(None, spelled)))

    def visit_Module(self, node: ast.Module) -> ast.Module:
        self.generic_visit(node)
        for name in self.unplaced:
            raise ExpansionContextError(
                f"{name.id} expands into new calls but is not inside a "
                "list or argument sequence"
            )
        return node

    def _expand(self, element: ast.expr) -> list[ast.expr]:
        # a call to a callable with several fragments is renamed and bound,
        # and its extra calls follow it in the element list or argument sequence
        index = self.unplaced.pop(getattr(element, "func", None), None)
        if index is None:
            return [element]
        first, *extra = (_parse_fragment(index, f) for f in self.translations[index])
        element.func = self._canonical(first)
        return [self._bind(element), *map(self._canonical, extra)]


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

    The rewrite raises for an expansion outside such a sequence and for
    placeholder text left in an import; any other placeholder text left in
    the output is found by one search of the unparsed text.
    """
    # the parser NFKC-normalizes identifiers: search the text as it reads it
    parsed = unicodedata.normalize("NFKC", skeleton_text)
    found = {int(i) for i in PLACEHOLDER_RE.findall(parsed)}
    if missing := sorted(found - translations.keys()):
        raise MissingTranslationError(f"no translation for placeholder indices {missing}")
    tree = parse_source(skeleton_text, "skeleton does not parse")
    text = ast.unparse(_Reinserter(translations, db, tree).visit(tree))
    _raise_on_leftover(text)
    return SourceUnit(text, db.framework, origin)

