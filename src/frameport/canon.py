"""Alias unification, argument binding, and API keyword extraction.

Canonical form: every recognized call uses its framework's canonical
callable name with keyword-only arguments listed in signature order, and
import statements establish the canonical short alias of each module.
``_Rewriter`` is the one place that form is built, in one walk over the
statement lists (imports are statements) and one rewrite traversal.
:func:`canonicalize` returns the rewritten tree, whose ``ast.unparse``
text is a fixed point of it: the transpile path cuts its skeleton out of
that tree, ingest cuts classes out of the same rewrite, eval scoring
reads text and calls off it, and reinsertion resolves placeholders inside
a subclass of the rewrite. :func:`extract_keywords` is the one keyword
walk; corpus spans come from the nodes it finds in a parsed unit.
"""

from __future__ import annotations

import ast
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple

from frameport.errors import (
    ArityError,
    ConfigError,
    DuplicateKeywordError,
    FrameportError,
    ParseError,
    reading,
)

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

    ``context`` is the text of the unit the keyword occurs in (the unit's
    own string, not a copy), and ``span`` is a byte range into its UTF-8
    encoding, read off a node of the parsed unit. ``unit_ref`` optionally
    names the owning corpus unit as ``corpusid:unitid`` for external lookup.
    """

    keyword: ApiKeyword
    span: tuple[int, int]
    context: str
    unit_ref: str = ""


class KeywordSite(NamedTuple):
    """The node of one keyword in a tree: a call, whose ``func`` is the
    callable, or a keyword argument, whose ``arg`` is the parameter."""

    keyword: ApiKeyword
    node: ast.Call | ast.keyword
    call_id: int


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

        # a path can match a key of either table only if it starts with the key's first name
        self._first_names = {p.split(".", 1)[0] for p in [*self.import_aliases, *self.path_aliases]}

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
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            return True
    for kw in call.keywords:
        if kw.arg is None:
            return True
    return False


def _line_starts(data: bytes) -> list[int]:
    """The byte offset of each line's start: 0, and one past each newline."""
    return [0, *itertools.accumulate(len(line) + 1 for line in data.split(b"\n")[:-1])]


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
    tree: ast.AST, db: SignatureDatabase, rename: Callable = lambda node: None
) -> tuple[dict[str, str], set[str], list[ast.AST]]:
    """One walk over the statements: the normalized path each bound name
    stands for, the modules whose canonical import the tree already
    spells, and the nodes walked. Imports are statements, so expressions
    are never visited; the walk is breadth first in field order, the order
    of ``ast.walk``, which decides the binding a name imported twice
    keeps. ``rename`` edits each import statement before its names are
    read."""
    bindings: dict[str, str] = {}
    preserved: set[str] = set()
    queue = [tree]
    for node in queue:  # the queue grows as it is read
        for field in _BLOCK_FIELDS:
            queue.extend(getattr(node, field, ()))
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        rename(node)
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
    return bindings, preserved, queue


_AST = ast.AST

# fields that only ever hold an identifier, a number or None, never a node
_LEAF_FIELDS = frozenset(
    "id attr arg name asname module level kind type_comment is_async conversion simple tag".split()
)


class _ChildFields(dict):
    """Node type -> its ``_fields`` that may hold a node, built on first use."""

    def __missing__(self, node_type: type) -> tuple[str, ...]:
        fields = tuple(f for f in node_type._fields if f not in _LEAF_FIELDS)
        self[node_type] = fields
        return fields


_CHILD_FIELDS = _ChildFields()

# forwards the deprecated ``visit_Num``, ``visit_Str``, ... handlers, which no
# pass defines; newer Pythons have no such method
_VISIT_CONSTANT = getattr(ast.NodeVisitor, "visit_Constant", None)


class _DispatchTransformer(ast.NodeTransformer):
    """``ast.NodeTransformer`` whose ``visit`` looks a node's handler up in a
    table keyed by node type, built once per class, instead of building the
    ``visit_<Type>`` name and calling ``getattr`` for every node. A type with
    no handler of the class, ``Constant`` included, goes straight to
    ``generic_visit``, as it does in ``ast.NodeTransformer``.

    ``generic_visit`` is one loop over the node type's child fields (its
    ``_fields`` without the leaf fields) in place of ``ast.iter_fields``'
    generator. It visits the children ``ast.NodeTransformer.generic_visit``
    visits, in its order, and applies its rules: a list result is spliced
    into a list field, ``None`` deletes the child, any other result
    replaces it. A list field is written back only when a child changed."""

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
        for field in _CHILD_FIELDS[type(node)]:
            child = getattr(node, field, None)
            if isinstance(child, list):
                kept = []
                changed = False
                for item in child:
                    new = visit(item) if isinstance(item, _AST) else item
                    if new is not item:
                        changed = True
                        if new is None:
                            continue
                        if not isinstance(new, _AST):
                            kept.extend(new)
                            continue
                    kept.append(new)
                if changed:
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
        # a canonical import the tree already spells counts as emitted;
        # ``statements`` holds every statement, ``except`` handler and
        # ``match`` case of the tree, in the order of ``ast.walk``
        self.bindings, self.emitted_modules, self.statements = _scan_imports(
            tree, db, self._rename_import
        )
        self._rewritten: dict[str, str] = {}

    def _rename_import(self, node: ast.Import | ast.ImportFrom) -> None:
        """A subclass's hook: edit an import before the scan reads its names."""

    def _visit_block(self, node: ast.AST) -> ast.AST:
        self.generic_visit(node)
        # a block whose imports were all rewritten away keeps a ``pass``, as
        # does a handler-less ``finally`` (unparse would drop the clause)
        if not node.body:
            node.body.append(ast.Pass())
        if isinstance(node, ast.Try) and not node.handlers and not node.finalbody:
            node.finalbody.append(ast.Pass())
        return node

    # every node type with a statement-list ``body`` but the module
    # (``TryStar`` is skipped where ``ast`` has no such type)
    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_For = _visit_block
    visit_AsyncFor = visit_While = visit_If = visit_With = visit_AsyncWith = _visit_block
    visit_Try = visit_TryStar = visit_ExceptHandler = visit_match_case = _visit_block

    # -- name resolution -------------------------------------------------

    def _contract(self, path: str) -> str | None:
        """``path`` read through the file's bindings and shortened to the
        framework's module alias; None outside the framework's modules."""
        head, sep, rest = path.partition(".")
        base = self.bindings.get(head)
        if base is not None:
            path = base + sep + rest
        elif head not in self.db._first_names:
            return None  # no prefix of ``path`` is a key of either table
        return self.db.contract_path(self.db.normalize_path(path))

    def _rewrite_path(self, path: str) -> str:
        # memoized: the bindings are fixed once ``_scan_imports`` returns
        new = self._rewritten.get(path)
        if new is None:
            contracted = self._contract(path)
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
        return self._bind(self.generic_visit(node))

    def _bind(self, node: ast.Call) -> ast.expr:
        """A call whose parts are rewritten, bound to its callable's signature."""
        func_text = _dotted_name(node.func)
        if func_text is None:
            return node
        sig = self.db.signature_for(func_text)
        if sig is None:
            if self.strict and self.db.looks_framework_qualified(func_text):
                raise FrameportError(
                    f"no signature for {func_text!r} ({self.db.framework})"
                )
            return node
        star = _has_star_args(node)
        # without strict, the keyword walk reports a call with star arguments;
        # under strict, they end in the ArityError of bind_arguments
        if (star and not self.strict) or (sig.variadic and not star):
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


def canonicalize(
    unit: SourceUnit, db: SignatureDatabase, strict: bool = False
) -> ast.Module:
    """Parse a unit and rewrite the tree into canonical form; its
    ``ast.unparse`` text canonicalizes to itself. The nodes the rewrite
    makes carry no source locations, which no consumer reads."""
    if db.framework != unit.framework:
        raise ConfigError(f"database is for {db.framework!r}, unit is {unit.framework!r}")
    tree = parse_source(unit.text, unit.origin or "<unit>")
    return _Rewriter(db, tree, strict).visit(tree)


# node types that hold no call; the keyword walk does not enter them
_NO_CALLS = frozenset((ast.Constant, ast.Name, *ast.expr_context.__subclasses__()))


def extract_keywords(
    tree: ast.AST, db: SignatureDatabase, star_calls: list[str] | None = None
) -> list[KeywordSite]:
    """The keyword sites of a canonical tree, in the walk's order.

    A site is a call to a canonical callable of ``db`` without star
    arguments, and each of its keyword arguments that the signature
    names. Calls are numbered in the pre-order of ``ast.iter_child_nodes``;
    the walk loops over each node type's child fields and does not enter a
    node that holds no call (``Constant``, ``Name``, an ``expr_context``).
    The name of a known call with star arguments goes to ``star_calls``."""
    sites: list[KeywordSite] = []
    call_ids = itertools.count()
    fw = db.framework

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            func_text = _dotted_name(node.func)
            sig = db.signatures.get(func_text) if func_text else None
            if sig is not None and _has_star_args(node):
                if star_calls is not None:
                    star_calls.append(func_text)
            elif sig is not None:
                call_id = next(call_ids)
                sites.append(KeywordSite(ApiKeyword(fw, CALLABLE, func_text), node, call_id))
                sites.extend(
                    KeywordSite(ApiKeyword(fw, PARAMETER, kw.arg, func_text), kw, call_id)
                    for kw in node.keywords
                    if kw.arg in sig.parameters
                )
        for field in _CHILD_FIELDS[type(node)]:
            child = getattr(node, field, None)
            if isinstance(child, list):
                for item in child:
                    if type(item) not in _NO_CALLS and isinstance(item, _AST):
                        visit(item)
            elif type(child) not in _NO_CALLS and isinstance(child, _AST):
                visit(child)

    visit(tree)
    # the closure refers to itself: clear it, or the cycle keeps the tree
    # the sites hold alive until a cyclic collection
    del visit
    return sites


def keyword_occurrences(
    unit: SourceUnit, db: SignatureDatabase, unit_ref: str = ""
) -> list[KeywordOccurrence]:
    """The keyword occurrences of a canonical unit in source order, each
    with the unit text as its context and the span of its site's node."""
    starts = _line_starts(unit.text.encode("utf-8"))
    tree = parse_source(unit.text, unit.origin or "<unit>")
    occurrences = []
    for keyword, node, _ in extract_keywords(tree, db):
        start, end = _node_span(node.func if keyword.kind == CALLABLE else node, starts)
        if keyword.kind == PARAMETER:  # the argument's name, not its value
            end = start + len(node.arg.encode("utf-8"))
        occurrences.append(KeywordOccurrence(keyword, (start, end), unit.text, unit_ref))
    occurrences.sort(key=lambda occ: occ.span)
    return occurrences


def extract_module_classes(
    file_text: str,
    dbs: Mapping[str, SignatureDatabase],
    origin: str = "",
    trees: list[ast.ClassDef] | None = None,
) -> list[SourceUnit]:
    """Extract framework module classes from one source file.

    A file that does not parse raises ``ParseError("<origin>: ...")``.
    Alias unification runs before classes are cut out so each unit
    canonicalizes standalone. A base counts for a framework only if, read
    through the file's imports, it names one of the framework's base
    classes; a first name the file does not bind stands for the module
    the framework's database aliases to it.

    The file is parsed once, and rewritten only for a framework it has
    classes of, so only those frameworks can fail it with an ``ArityError``
    or ``DuplicateKeywordError``. A rewrite changes the tree, so a file
    with classes of a second framework is parsed again for it. Each unit's
    rewritten class node, whose ``ast.unparse`` is the unit's text, is
    appended to ``trees`` when given.
    """
    label = origin or "<text>"
    tree = parse_source(file_text, label)
    # every framework's classes are picked before any rewrite, which leaves
    # a base outside the framework's modules as spelled, where it may match
    # a pattern; a class is a statement, so the import scan has walked them
    # all. A class is kept as its index in the scan's statement order, the
    # same in every parse of the file.
    picked: list[tuple[str, _Rewriter, list[int]]] = []
    for framework in sorted(dbs):
        patterns = set(DEFAULT_BASE_CLASSES.get(framework, ()))
        if not patterns:
            continue
        db = dbs[framework]
        rewriter = _Rewriter(db, tree, strict=False)
        classes = []
        for i, node in enumerate(rewriter.statements):
            if isinstance(node, ast.ClassDef):
                bases = filter(None, map(_dotted_name, node.bases))
                paths = filter(None, map(rewriter._contract, bases))
                if set(map(db.resolve_name, paths)) & patterns:
                    classes.append(i)
        if classes:
            picked.append((framework, rewriter, classes))
    units: list[SourceUnit] = []
    for n, (framework, rewriter, classes) in enumerate(picked):
        if n:  # the rewrite before this one changed the tree
            tree = parse_source(file_text, label)
            rewriter = _Rewriter(dbs[framework], tree, strict=False)
        rewriter.visit(tree)
        for i in classes:
            node = rewriter.statements[i]
            name = f"{origin}:{node.name}" if origin else node.name
            units.append(SourceUnit(text=ast.unparse(node), framework=framework, origin=name))
            if trees is not None:
                trees.append(node)
    return units
