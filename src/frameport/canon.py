"""Alias unification, argument binding, and API keyword extraction.

Canonical form: every recognized call uses its framework's canonical
callable name with keyword-only arguments listed in signature order, and
import statements establish the canonical short alias of each module.
:func:`rewrite_tree` is the one place that form is built, in one walk
over the statement lists (imports are statements) and one rewrite
traversal. :func:`canonicalize` renders the tree of
:func:`canonical_tree` with ``ast.unparse``, which makes a canonicalized
unit a fixed point of it; ingest cuts classes out of the same tree, eval
scoring reads text and calls off it, and reinsertion rewrites its own tree.
"""

from __future__ import annotations

import ast
import itertools
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping

from frameport.errors import (
    ArityError,
    ConfigError,
    DuplicateKeywordError,
    ParseError,
    UnknownCallableError,
    reading,
)

log = logging.getLogger(__name__)

CALLABLE = "callable"
PARAMETER = "parameter"

# Base-class spellings (canonical short form) that mark a class as a
# framework module definition.
DEFAULT_BASE_CLASSES: dict[str, tuple[str, ...]] = {
    "pytorch": ("nn.Module",),
    "keras": ("layers.Layer", "keras.Model"),
    "mxnet": ("nn.Block", "nn.HybridBlock"),
}


@dataclass(frozen=True)
class SourceUnit:
    """One piece of framework-dialect source code."""

    text: str
    framework: str
    origin: str = ""


@dataclass(frozen=True)
class ApiSignature:
    """A callable's canonical name and ordered parameter list."""

    canonical_name: str
    parameters: tuple[str, ...] = ()
    required_count: int = 0
    aliases: frozenset[str] = frozenset()
    # Variadic callables (container-style, e.g. sequential layer stacks)
    # accept arbitrary positional arguments and are exempt from binding.
    variadic: bool = False

    def __post_init__(self) -> None:
        if len(set(self.parameters)) != len(self.parameters):
            raise ConfigError(f"duplicate parameters in {self.canonical_name!r}")
        if not 0 <= self.required_count <= len(self.parameters):
            raise ConfigError(f"required_count out of range in {self.canonical_name!r}")
        if self.canonical_name in self.aliases:
            raise ConfigError(f"{self.canonical_name!r} lists itself as an alias")


@dataclass(frozen=True)
class ApiKeyword:
    """A vocabulary item: a callable name or a parameter name.

    ``id`` is the dense index assigned by a vocabulary; it does not take
    part in equality so the same keyword interns identically before and
    after ids are known.
    """

    framework: str
    kind: str
    text: str
    owner: str | None = None
    id: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (CALLABLE, PARAMETER):
            raise ConfigError(f"bad keyword kind {self.kind!r}")
        if self.kind == PARAMETER and not self.owner:
            raise ConfigError(f"parameter keyword {self.text!r} needs an owner")
        if self.kind == CALLABLE and self.owner is not None:
            raise ConfigError(f"callable keyword {self.text!r} cannot have an owner")

    def with_id(self, id: int) -> "ApiKeyword":
        return replace(self, id=id)


@dataclass(frozen=True)
class KeywordOccurrence:
    """One use of a keyword in canonicalized source.

    ``span`` is a byte range into the unit text (UTF-8); ``context`` is
    the enclosing class/function source with ``context_offset`` giving
    its byte position in the unit. Occurrences of a call and of its
    keyword arguments share ``call_id``. ``unit_ref`` optionally names
    the owning corpus unit as ``corpusid:unitid`` for external lookup.
    """

    keyword: ApiKeyword
    span: tuple[int, int]
    context: str
    context_offset: int = 0
    call_id: int = -1
    unit_ref: str = ""

    @property
    def span_in_context(self) -> tuple[int, int]:
        return (self.span[0] - self.context_offset, self.span[1] - self.context_offset)


def _split_prefixes(path: str) -> list[str]:
    """Dotted prefixes of ``path``, longest first."""
    parts = path.split(".")
    return [".".join(parts[:n]) for n in range(len(parts), 0, -1)]


def _replace_prefix(table: Mapping[str, str], dotted: str) -> str | None:
    """``dotted`` with its longest dotted prefix that ``table`` holds
    replaced by that prefix's value, or None when it holds none."""
    for prefix in _split_prefixes(dotted):
        value = table.get(prefix)
        if value is not None:
            return value + dotted[len(prefix):]
    return None


class SignatureDatabase:
    """Read-only table of a framework's modules, callables, and parameters."""

    def __init__(
        self,
        framework: str,
        import_aliases: Mapping[str, str],
        signatures: Iterable[ApiSignature],
        path_aliases: Mapping[str, str] | None = None,
    ) -> None:
        self.framework = framework
        self.import_aliases = dict(import_aliases)
        self.path_aliases = dict(path_aliases or {})
        self.signatures: dict[str, ApiSignature] = {}
        for sig in signatures:
            if sig.canonical_name in self.signatures:
                raise ConfigError(f"duplicate signature {sig.canonical_name!r}")
            self.signatures[sig.canonical_name] = sig

        shorts = list(self.import_aliases.values())
        if len(set(shorts)) != len(shorts):
            raise ConfigError(f"{framework}: import alias short names collide")
        self._shorts = set(shorts)

        self._name_index: dict[str, str] = {
            name: name for name in self.signatures
        }
        for sig in self.signatures.values():
            for alias in sig.aliases:
                if self._name_index.get(alias, sig.canonical_name) != sig.canonical_name:
                    raise ConfigError(f"alias {alias!r} is ambiguous")
                self._name_index[alias] = sig.canonical_name

        for target in self.path_aliases.values():
            if self.normalize_path(target) != target:
                raise ConfigError(f"path alias target {target!r} is not canonical")

    # -- path arithmetic ------------------------------------------------

    def normalize_path(self, path: str) -> str:
        """Replace the longest known non-canonical module prefix."""
        return _replace_prefix(self.path_aliases, path) or path

    def contract_path(self, path: str) -> str | None:
        """Rewrite the longest known module prefix to its short alias."""
        return _replace_prefix(self.import_aliases, path)

    def resolve_name(self, dotted: str) -> str:
        """Resolve callable aliases on the longest matching prefix."""
        return _replace_prefix(self._name_index, dotted) or dotted

    def signature_for(self, dotted: str) -> ApiSignature | None:
        canonical = self._name_index.get(dotted)
        if canonical is None:
            return None
        return self.signatures[canonical]

    def looks_framework_qualified(self, dotted: str) -> bool:
        return dotted.split(".", 1)[0] in self._shorts

    # -- serialization --------------------------------------------------

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SignatureDatabase":
        signatures = [
            ApiSignature(
                canonical_name=entry["canonical_name"],
                parameters=tuple(entry.get("parameters", ())),
                required_count=int(entry.get("required_count", 0)),
                aliases=frozenset(entry.get("aliases", ())),
                variadic=bool(entry.get("variadic", False)),
            )
            for entry in doc.get("signatures", ())
        ]
        return cls(
            framework=doc["framework"],
            import_aliases=doc.get("import_aliases", {}),
            signatures=signatures,
            path_aliases=doc.get("path_aliases", {}),
        )

    @classmethod
    def load(cls, path: str | Path) -> "SignatureDatabase":
        with reading("signature database", path) as text:
            return cls.from_dict(json.loads(text))


# -- AST helpers ---------------------------------------------------------


def _dotted_name(node: ast.AST) -> str | None:
    """Return ``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _make_chain(dotted: str) -> ast.expr:
    parts = dotted.split(".")
    node: ast.expr = ast.Name(id=parts[0], ctx=ast.Load())
    for attr in parts[1:]:
        node = ast.Attribute(value=node, attr=attr, ctx=ast.Load())
    return node


def _has_star_args(call: ast.Call) -> bool:
    return any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    )


def _line_starts(data: bytes) -> list[int]:
    """The byte offset of each line's start: 0, and one past each newline."""
    starts = [0]
    end = data.find(b"\n")
    while end >= 0:
        starts.append(end + 1)
        end = data.find(b"\n", end + 1)
    return starts


def _node_span(node: ast.AST, starts: list[int]) -> tuple[int, int]:
    return (
        starts[node.lineno - 1] + node.col_offset,
        starts[node.end_lineno - 1] + node.end_col_offset,
    )


def _import_names(node: ast.Import | ast.ImportFrom) -> list[tuple[ast.alias, str, str]] | None:
    """``(alias, spelled path, bound name)`` for each name of an import, or
    None for a relative import, whose paths are unknown."""
    if isinstance(node, ast.Import):
        return [(a, a.name, a.asname or a.name.split(".", 1)[0]) for a in node.names]
    if node.level or node.module is None:
        return None
    return [(a, f"{node.module}.{a.name}", a.asname or a.name) for a in node.names]


# the fields that hold statements, ``except`` handlers and ``match`` cases
_BLOCK_FIELDS = ("body", "handlers", "orelse", "finalbody", "cases")


def _scan_imports(
    tree: ast.AST, db: SignatureDatabase
) -> tuple[dict[str, str], set[str]]:
    """One walk over the statements: the normalized path each bound name
    stands for, and the modules whose canonical import the tree already
    spells. Imports are statements, so expressions are never visited; the
    walk is breadth first in field order, the order of ``ast.walk``, which
    decides the binding a name imported twice keeps."""
    bindings: dict[str, str] = {}
    preserved: set[str] = set()
    queue = [tree]
    for node in queue:  # the queue grows as it is read
        for field in _BLOCK_FIELDS:
            queue.extend(getattr(node, field, ()))
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias, path, bound in _import_names(node) or ():
            if alias.name == "*":
                continue
            normal = db.normalize_path(path)
            if db.import_aliases.get(path) == bound and normal == path:
                preserved.add(path)
            # a plain ``import a.b`` binds ``a`` alone
            plain = isinstance(node, ast.Import) and not alias.asname
            bindings[bound] = db.normalize_path(bound) if plain else normal
    for module_path, short in db.import_aliases.items():
        bindings.setdefault(short, module_path)
    return bindings, preserved


_AST = ast.AST

# forwards the deprecated ``visit_Num``, ``visit_Str``, ... handlers, which no
# pass defines; newer Pythons have no such method
_VISIT_CONSTANT = getattr(ast.NodeVisitor, "visit_Constant", None)


class _DispatchTransformer(ast.NodeTransformer):
    """``ast.NodeTransformer`` whose ``visit`` looks a node's handler up in a
    table keyed by node type, built once per class, instead of building the
    ``visit_<Type>`` name and calling ``getattr`` for every node. A type with
    no handler of the class, ``Constant`` included, goes straight to
    ``generic_visit``, as it does in ``ast.NodeTransformer``.

    ``generic_visit`` is one loop over the node's ``_fields`` in place of
    ``ast.iter_fields``' generator. It visits the children
    ``ast.NodeTransformer.generic_visit`` visits, in its order, and applies
    its rules: a list result is spliced into a list field, ``None`` deletes
    the child, any other result replaces it."""

    _handlers: dict[type, Callable] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {}
        for name in dir(cls):
            if not name.startswith("visit_"):
                continue
            handler = getattr(cls, name)
            node_type = getattr(ast, name[len("visit_"):], None)
            if isinstance(node_type, type) and handler is not _VISIT_CONSTANT:
                cls._handlers[node_type] = handler

    def visit(self, node: ast.AST):
        handler = self._handlers.get(type(node))
        if handler is None:
            return self.generic_visit(node)
        return handler(self, node)

    def generic_visit(self, node: ast.AST) -> ast.AST:
        visit = self.visit
        for field in node._fields:
            child = getattr(node, field, None)
            if isinstance(child, list):
                if not child:
                    continue
                kept = []
                for item in child:
                    if isinstance(item, _AST):
                        item = visit(item)
                        if item is None:
                            continue
                        if not isinstance(item, _AST):
                            kept.extend(item)
                            continue
                    kept.append(item)
                child[:] = kept
            elif isinstance(child, _AST):
                new = visit(child)
                if new is None:
                    delattr(node, field)
                elif new is not child:
                    setattr(node, field, new)
        return node


class _Rewriter(_DispatchTransformer):
    """Single canonicalization pass: imports, name uses, argument binding."""

    def __init__(self, db: SignatureDatabase, tree: ast.AST, strict: bool):
        self.db = db
        self.strict = strict
        # a canonical import the tree already spells counts as emitted
        self.bindings, self.emitted_modules = _scan_imports(tree, db)
        self._rewritten: dict[str, str] = {}

    def generic_visit(self, node: ast.AST) -> ast.AST:
        super().generic_visit(node)
        # a block whose imports were all rewritten away keeps a ``pass``, as
        # does a handler-less ``finally`` (unparse would drop the clause)
        body = getattr(node, "body", None)
        if isinstance(body, list) and not body and not isinstance(node, ast.Module):
            body.append(ast.Pass())
        if isinstance(node, ast.Try) and not node.handlers and not node.finalbody:
            node.finalbody.append(ast.Pass())
        return node

    # -- name resolution -------------------------------------------------

    def _rewrite_path(self, path: str) -> str:
        # memoized: the bindings are fixed once ``_scan_imports`` returns
        new = self._rewritten.get(path)
        if new is None:
            head, sep, rest = path.partition(".")
            base = self.bindings.get(head)
            expanded = base + sep + rest if base is not None else path
            expanded = self.db.normalize_path(expanded)
            contracted = self.db.contract_path(expanded)
            new = path if contracted is None else self.db.resolve_name(contracted)
            self._rewritten[path] = new
        return new

    def visit_Name(self, node: ast.Name) -> ast.expr:
        if not isinstance(node.ctx, ast.Load):
            return node
        new = self._rewrite_path(node.id)
        if new != node.id:
            return _make_chain(new)
        return node

    def visit_Attribute(self, node: ast.Attribute) -> ast.expr:
        dotted = _dotted_name(node)
        if dotted is None or not isinstance(node.ctx, ast.Load):
            return self.generic_visit(node)
        new = self._rewrite_path(dotted)
        if new != dotted:
            return _make_chain(new)
        return node

    # -- argument binding --------------------------------------------------

    def visit_Call(self, node: ast.Call) -> ast.expr:
        self.generic_visit(node)
        func_text = _dotted_name(node.func)
        if func_text is None:
            return node
        sig = self.db.signature_for(func_text)
        if sig is None:
            if self.strict and self.db.looks_framework_qualified(func_text):
                raise UnknownCallableError(
                    f"no signature for {func_text!r} ({self.db.framework})"
                )
            return node
        if _has_star_args(node):
            log.warning(
                "call to %s uses star expansion; left uncanonicalized", func_text
            )
            return node
        if sig.variadic:
            return node
        return bind_arguments(node, sig)

    # -- import statements -------------------------------------------------

    def _import_decision(self, bound_path: str, bound_name: str, spelled_path: str):
        """Decide whether one import binding stays or is rewritten.

        Returns ``None`` to keep the original spelling, else the module
        path whose canonical import replaces it.
        """
        short = self.db.import_aliases.get(bound_path)
        if short is not None:
            if bound_path == spelled_path and bound_name == short:
                return None
            return bound_path
        for prefix in _split_prefixes(bound_path)[1:]:
            if prefix in self.db.import_aliases:
                return prefix
        return None

    def _canonical_import(self, module_path: str) -> ast.stmt:
        short = self.db.import_aliases[module_path]
        if "." not in module_path and short == module_path:
            return ast.Import(names=[ast.alias(name=module_path)])
        return ast.Import(names=[ast.alias(name=module_path, asname=short)])

    def _emit(self, module_path: str, out: list[ast.stmt]) -> None:
        if module_path not in self.emitted_modules:
            self.emitted_modules.add(module_path)
            out.append(self._canonical_import(module_path))

    def visit_Import(self, node: ast.Import | ast.ImportFrom) -> list[ast.stmt]:
        names = _import_names(node)
        if names is None:
            return [node]
        kept: list[ast.alias] = []
        synthesized: list[ast.stmt] = []
        for alias, spelled, bound in names:
            path = self.db.normalize_path(spelled)
            if alias.name != "*":
                target = self._import_decision(path, bound, spelled)
                if target is not None:
                    self._emit(target, synthesized)
                    continue
            kept.append(alias)
            if path in self.db.import_aliases:
                self.emitted_modules.add(path)
        node.names = kept
        return [node] + synthesized if kept else synthesized

    visit_ImportFrom = visit_Import


# -- public operations -----------------------------------------------------


def bind_arguments(call: ast.Call, sig: ApiSignature) -> ast.Call:
    """Convert positionals to keywords and sort them in signature order.

    Keyword names absent from the signature keep their original relative
    order after all known parameters.
    """
    if _has_star_args(call):
        raise ArityError(f"{sig.canonical_name}: cannot bind star arguments")
    if len(call.args) > len(sig.parameters):
        raise ArityError(
            f"{sig.canonical_name} has {len(sig.parameters)} parameters, "
            f"got {len(call.args)} positional arguments"
        )
    by_name: dict[str, ast.keyword] = {}
    for param, arg in zip(sig.parameters, call.args):
        by_name[param] = ast.keyword(arg=param, value=arg)
    for kw in call.keywords:
        if kw.arg in by_name:
            raise DuplicateKeywordError(
                f"{sig.canonical_name} got multiple values for {kw.arg!r}"
            )
        by_name[kw.arg] = kw
    ordered = [by_name.pop(p) for p in sig.parameters if p in by_name]
    ordered.extend(by_name.values())
    return ast.Call(func=call.func, args=[], keywords=ordered)


def parse_source(text: str, label: str) -> ast.Module:
    """``ast.parse``, with a syntax error raised as ``ParseError("<label>: ...")``."""
    try:
        return ast.parse(text)
    except (SyntaxError, ValueError) as exc:
        raise ParseError(f"{label}: {exc}") from None


def rewrite_tree(
    tree: ast.Module, db: SignatureDatabase, strict: bool = False
) -> ast.Module:
    """Rewrite a parsed tree into canonical form, in place. The nodes it
    makes carry no source locations, which no consumer reads."""
    return _Rewriter(db, tree, strict).visit(tree)


def canonical_tree(
    unit: SourceUnit, db: SignatureDatabase, strict: bool = False
) -> ast.Module:
    """Parse a unit and rewrite the tree into canonical form."""
    if db.framework != unit.framework:
        raise ConfigError(
            f"database is for {db.framework!r}, unit is {unit.framework!r}"
        )
    return rewrite_tree(parse_source(unit.text, unit.origin or "<unit>"), db, strict)


def canonicalize(
    unit: SourceUnit, db: SignatureDatabase, strict: bool = False
) -> SourceUnit:
    """Rewrite a unit into canonical form (idempotent)."""
    return replace(unit, text=ast.unparse(canonical_tree(unit, db, strict)))


# node types that hold no call; the keyword walk does not enter them
_NO_CALLS = frozenset((ast.Constant, ast.Name, *ast.expr_context.__subclasses__()))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def extract_keywords(
    unit: SourceUnit, db: SignatureDatabase
) -> list[KeywordOccurrence]:
    """List keyword occurrences of a canonicalized unit in source order.

    Calls are numbered in the pre-order of ``ast.iter_child_nodes``; the
    walk loops over each node's ``_fields`` and does not enter a node that
    holds no call (``Constant``, ``Name``, an ``expr_context``). An
    occurrence's context is the innermost enclosing function or class,
    or the whole unit, decoded once per scope."""
    tree = parse_source(unit.text, unit.origin or "<unit>")
    data = unit.text.encode("utf-8")
    starts = _line_starts(data)
    occurrences: list[KeywordOccurrence] = []
    call_ids = itertools.count()
    contexts: dict[tuple[int, int], str] = {}

    def visit(node: ast.AST, ctx_span: tuple[int, int]) -> None:
        if isinstance(node, _SCOPES):
            ctx_span = _node_span(node, starts)
        if isinstance(node, ast.Call) and not _has_star_args(node):
            func_text = _dotted_name(node.func)
            sig = db.signatures.get(func_text) if func_text else None
            if sig is not None:
                found = [(CALLABLE, func_text, None, _node_span(node.func, starts))]
                for kw in node.keywords:
                    if kw.arg in sig.parameters:
                        start = starts[kw.lineno - 1] + kw.col_offset
                        end = start + len(kw.arg.encode("utf-8"))
                        found.append((PARAMETER, kw.arg, func_text, (start, end)))
                call_id = next(call_ids)
                context = contexts.get(ctx_span)
                if context is None:
                    context = data[ctx_span[0]:ctx_span[1]].decode("utf-8")
                    contexts[ctx_span] = context
                occurrences.extend(
                    KeywordOccurrence(
                        keyword=ApiKeyword(unit.framework, kind, text, owner),
                        span=span,
                        context=context,
                        context_offset=ctx_span[0],
                        call_id=call_id,
                    )
                    for kind, text, owner, span in found
                )
        for field in node._fields:
            child = getattr(node, field, None)
            if isinstance(child, list):
                for item in child:
                    if type(item) not in _NO_CALLS and isinstance(item, _AST):
                        visit(item, ctx_span)
            elif type(child) not in _NO_CALLS and isinstance(child, _AST):
                visit(child, ctx_span)

    visit(tree, (0, len(data)))
    occurrences.sort(key=lambda occ: occ.span)
    return occurrences


def extract_module_classes(
    file_text: str,
    dbs: Mapping[str, SignatureDatabase],
    origin: str = "",
) -> list[SourceUnit]:
    """Extract framework module classes from one source file.

    Files that fail to parse yield no units (the caller reports skips).
    Alias unification runs before classes are cut out so each unit
    canonicalizes standalone.
    """
    units: list[SourceUnit] = []
    for framework in sorted(dbs):
        patterns = set(DEFAULT_BASE_CLASSES.get(framework, ()))
        if not patterns:
            continue
        # the ParseError text is "<origin>: <SyntaxError>", as the warning wants
        whole = SourceUnit(file_text, framework, origin or "<text>")
        try:
            tree = canonical_tree(whole, dbs[framework])
        except ParseError as exc:
            log.warning("skipping unparseable file %s", exc)
            return []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {d for d in map(_dotted_name, node.bases) if d}
            if bases & patterns:
                label = f"{origin}:{node.name}" if origin else node.name
                units.append(
                    SourceUnit(
                        text=ast.unparse(node), framework=framework, origin=label
                    )
                )
    return units
