"""Canonicalizer: alias unification, argument binding, keyword
extraction spans, and module-class harvesting."""

from __future__ import annotations

import ast
import gc
import inspect
import json
import sys
import weakref

import numpy as np
import pytest

from frameport.canon import (
    CALLABLE,
    DEFAULT_BASE_CLASSES,
    PARAMETER,
    ApiKeyword,
    ApiSignature,
    KeywordOccurrence,
    SignatureDatabase,
    SourceUnit,
    _CHILD_FIELDS,
    _LEAF_FIELDS,
    _DispatchTransformer,
    _Rewriter,
    _dotted_name,
    _has_star_args,
    _import_names,
    _line_starts,
    _node_span,
    _scan_imports,
    bind_arguments,
    canonicalize,
    extract_keywords,
    extract_module_classes,
    keyword_occurrences,
)
from frameport.errors import (
    ArityError,
    ConfigError,
    DuplicateKeywordError,
    FrameportError,
    ParseError,
)
from frameport.pipeline import default_database
from helpers import HAND_WRITTEN_UNIT, fuzz_pytorch_unit

PT = default_database("pytorch")
KS = default_database("keras")


def canon(text: str, db=PT) -> str:
    return ast.unparse(canonicalize(SourceUnit(text, db.framework), db))


def test_positional_arguments_become_keywords():
    out = canon("import torch.nn as nn\nfc = nn.Linear(128, 64)\n")
    assert out == "import torch.nn as nn\nfc = nn.Linear(in_features=128, out_features=64)"


def test_keyword_arguments_are_reordered_to_signature_order():
    out = canon("import torch.nn as nn\nfc = nn.Linear(out_features=64, in_features=128)\n")
    assert out.endswith("nn.Linear(in_features=128, out_features=64)")


def test_qualified_use_contracts_to_short_alias():
    out = canon("import torch\nfc = torch.nn.Linear(128, 64)\n")
    assert out == "import torch\nfc = nn.Linear(in_features=128, out_features=64)"


def test_callable_alias_and_path_alias_resolve():
    out = canon("import tensorflow as tf\np = tf.keras.layers.MaxPool2D(2)\n", KS)
    assert out == "import tensorflow as tf\np = layers.MaxPooling2D(pool_size=2)"


def test_from_import_is_rewritten_to_canonical_module_import():
    out = canon("from keras.layers import Dense\nd = Dense(10, activation='relu')\n", KS)
    assert out == (
        "import tensorflow.keras.layers as layers\n"
        "d = layers.Dense(units=10, activation='relu')"
    )


def test_aliased_bare_module_import_becomes_the_plain_import():
    out = canon("import torch as th\nx = th.zeros(3)\n")
    assert out == "import torch\nx = torch.zeros(3)"


def test_canonical_import_spelling_is_preserved():
    src = "from torch import nn\nx = nn.ReLU()"
    assert canon(src) == src


def test_variadic_callable_keeps_positional_arguments():
    src = "import torch.nn as nn\ns = nn.Sequential(nn.ReLU(), nn.Flatten())"
    assert canon(src) == src


def test_star_arguments_are_left_alone():
    src = "import torch.nn as nn\nfc = nn.Linear(*args)"
    assert canon(src) == src


def test_canonicalize_is_idempotent():
    sources = [
        "import torch.nn as nn\nfc = nn.Linear(128, 64)\n",
        "import torch\nfc = torch.nn.Linear(128, 64)\n",
        "from keras.layers import Dense\nd = Dense(10)\n",
        "import tensorflow as tf\np = tf.keras.layers.MaxPool2D(2)\n",
        "x = 1\n",
    ]
    for src in sources:
        db = KS if "keras" in src or "tf" in src else PT
        once = canon(src, db)
        assert canon(once, db) == once, src


def test_empty_module_stays_empty():
    assert canon("") == ""
    assert canon("\n\n") == ""


def test_framework_mismatch_is_rejected():
    with pytest.raises(ConfigError):
        canonicalize(SourceUnit("x = 1", "keras"), PT)


def test_syntax_error_raises_parse_error():
    with pytest.raises(ParseError):
        canon("def broken(:\n")


def test_strict_mode_rejects_unknown_framework_callables():
    src = "import torch.nn as nn\nx = nn.Bogus(3)\n"
    assert canon(src) == src.rstrip("\n")  # lenient: left as-is
    with pytest.raises(
        FrameportError, match=r"^no signature for 'nn\.Bogus' \(pytorch\)$"
    ):
        canonicalize(SourceUnit(src, "pytorch"), PT, strict=True)


def test_too_many_positionals_raise_arity_error():
    with pytest.raises(ArityError):
        canon("import torch.nn as nn\nfc = nn.Linear(1, 2, True, 4)\n")


def test_positional_and_keyword_collision_raises():
    with pytest.raises(DuplicateKeywordError):
        canon("import torch.nn as nn\nfc = nn.Linear(128, in_features=3)\n")


def test_bind_arguments_matches_inspect_signature_binding():
    sig = PT.signatures["nn.Conv2d"]
    ns: dict = {}
    spelled = [
        p if i < sig.required_count else f"{p}=None"
        for i, p in enumerate(sig.parameters)
    ]
    exec(f"def probe({', '.join(spelled)}): pass", ns)
    call = ast.parse("f(3, 16, 3, padding=1)").body[0].value
    bound = bind_arguments(call, sig)
    oracle = inspect.signature(ns["probe"]).bind(3, 16, 3, padding=1)
    assert [kw.arg for kw in bound.keywords] == list(oracle.arguments)
    assert [ast.literal_eval(kw.value) for kw in bound.keywords] == list(
        oracle.arguments.values()
    )


def test_unknown_keywords_keep_relative_order_after_known_ones():
    sig = ApiSignature("f", parameters=("a", "b"))
    call = ast.parse("f(zz=1, b=2, aa=3, a=4)").body[0].value
    bound = bind_arguments(call, sig)
    assert [kw.arg for kw in bound.keywords] == ["a", "b", "zz", "aa"]


def test_extract_keywords_spans_and_call_ids():
    text = (
        "import torch.nn as nn\n\n"
        "class Net(nn.Module):\n\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "        self.fc = nn.Linear(in_features=4, out_features=2)\n\n"
        "    def forward(self, x):\n"
        "        return self.fc(x)\n"
    )
    unit = SourceUnit(canon(text), "pytorch")
    occs = keyword_occurrences(unit, PT)
    data = unit.text.encode("utf-8")
    assert [(o.keyword.kind, o.keyword.text) for o in occs] == [
        (CALLABLE, "nn.Linear"),
        (PARAMETER, "in_features"),
        (PARAMETER, "out_features"),
    ]
    for occ in occs:
        assert data[occ.span[0]:occ.span[1]].decode() == occ.keyword.text
        # the context is the unit text itself, which ``span`` indexes
        assert occ.context is unit.text
        a, b = occ.span
        assert occ.context.encode()[a:b].decode() == occ.keyword.text
    sites = extract_keywords(ast.parse(unit.text), PT)
    assert len({s.call_id for s in sites}) == 1
    assert all(o.keyword.owner == "nn.Linear" for o in occs[1:])
    assert [o.span for o in occs] == sorted(o.span for o in occs)


def test_extract_keywords_separate_calls_get_distinct_ids():
    text = "import torch.nn as nn\na = nn.ReLU()\nb = nn.ReLU()\n"
    unit = SourceUnit(canon(text), "pytorch")
    occs = keyword_occurrences(unit, PT)
    assert [o.keyword.text for o in occs] == ["nn.ReLU", "nn.ReLU"]
    sites = extract_keywords(ast.parse(unit.text), PT)
    assert sites[0].call_id != sites[1].call_id


def test_extract_keywords_skips_unknown_parameter_names():
    text = "import torch.nn as nn\nfc = nn.Linear(in_features=4, wat=1)\n"
    occs = extract_keywords(ast.parse(text), PT)
    assert [o.keyword.text for o in occs] == ["nn.Linear", "in_features"]


def test_extract_keywords_leaves_no_cycle_that_holds_the_tree():
    # the sites point into the tree: once they and the tree are dropped,
    # reference counting alone must free every node, without waiting for a
    # cyclic collection
    gc.disable()
    try:
        tree = ast.parse("import torch.nn as nn\nfc = nn.Sequential(nn.Linear(4, 2), *a)\n")
        sites = extract_keywords(tree, PT, star_calls=[])
        assert [s.keyword.text for s in sites] == ["nn.Linear"]
        ref = weakref.ref(sites[0].node)
        del tree, sites
        assert ref() is None
    finally:
        gc.enable()


def _line_starts_by_byte(data: bytes) -> list[int]:
    starts = [0]
    for i, byte in enumerate(data):
        if byte == 0x0A:
            starts.append(i + 1)
    return starts


def test_line_starts_match_the_per_byte_loop():
    for text in ("", "x = 1", "x = 1\n", "\n\n", "é = 'ü'\n€\n\n  ✓ ñ"):
        data = text.encode("utf-8")
        assert _line_starts(data) == _line_starts_by_byte(data), text


def _extract_keywords_by_iter_child_nodes(unit, db):
    """The keyword walk over every child ``ast.iter_child_nodes`` yields,
    with the unit text as every occurrence's context."""
    starts = _line_starts_by_byte(unit.text.encode("utf-8"))
    occurrences = []

    def visit(node):
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
                occurrences.extend(
                    KeywordOccurrence(
                        ApiKeyword(unit.framework, kind, text, owner),
                        span, unit.text,
                    )
                    for kind, text, owner, span in found
                )
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(unit.text))
    occurrences.sort(key=lambda occ: occ.span)
    return occurrences


def _occurrence_fields(occs) -> list[tuple]:
    return [
        (o.keyword, o.span, o.context, o.unit_ref)
        for o in occs
    ]


def test_extract_keywords_matches_the_walk_over_every_child():
    rng = np.random.default_rng(47)
    units = [
        SourceUnit(canon(fuzz_pytorch_unit(rng)), "pytorch")
        for _ in range(1000)
    ]
    hand = SourceUnit(HAND_WRITTEN_UNIT, "pytorch")
    for unit in units + [hand]:
        got = keyword_occurrences(unit, PT)
        want = _extract_keywords_by_iter_child_nodes(unit, PT)
        assert _occurrence_fields(got) == _occurrence_fields(want), unit.text
    # every known call of the hand-written unit is found (``nn.Tanh`` is
    # unknown, the starred ``nn.Sequential`` call is skipped), each with
    # the unit text as its context
    hand_occs = keyword_occurrences(hand, PT)
    hand_sites = extract_keywords(ast.parse(hand.text), PT)
    assert len({s.call_id for s in hand_sites}) == 17
    assert all(o.context is hand.text for o in hand_occs)


def test_every_keyword_span_lies_inside_its_context():
    rng = np.random.default_rng(47)
    units = [
        SourceUnit(canon(fuzz_pytorch_unit(rng)), "pytorch")
        for _ in range(1000)
    ]
    hand = SourceUnit(HAND_WRITTEN_UNIT, "pytorch")
    for unit in units + [hand]:
        for occ in keyword_occurrences(unit, PT):
            context = occ.context.encode("utf-8")
            lo, hi = occ.span
            assert 0 <= lo < hi <= len(context), (occ, unit.text)
            assert context[lo:hi].decode("utf-8") == occ.keyword.text


class _Edits:
    """Handlers that use every rule of ``generic_visit``: a list result is
    spliced in, ``None`` deletes the child, a node replaces it."""

    def visit(self, node):
        self.log.append(type(node).__name__)
        return super().visit(node)

    def visit_Pass(self, node):
        return [node, ast.Pass()]

    def visit_Expr(self, node):
        if isinstance(node.value, ast.Constant):
            return None
        return self.generic_visit(node)

    def visit_keyword(self, node):
        return None if node.arg == "bias" else self.generic_visit(node)

    def visit_Starred(self, node):
        return None  # deletes from a list

    def visit_Await(self, node):
        return None  # deletes a field

    def visit_Name(self, node):
        return ast.Name(id=node.id.upper(), ctx=node.ctx)


class _NodeTransformerEdits(_Edits, ast.NodeTransformer):
    pass


class _DispatchEdits(_Edits, _DispatchTransformer):
    pass


def test_generic_visit_matches_node_transformer():
    rng = np.random.default_rng(53)
    texts = [fuzz_pytorch_unit(rng) for _ in range(300)] + [
        HAND_WRITTEN_UNIT,
        "global a, b\nif x:\n    pass\n'doc'\nf(*a, bias=1, c=2)\nfor *a, b in c: pass\n"
        "async def h():\n    await g()\n    return await k()\n",
    ]
    for text in texts:
        results = []
        for transformer in (_NodeTransformerEdits(), _DispatchEdits()):
            transformer.log = []
            tree = transformer.visit(ast.parse(text))
            results.append((transformer.log, ast.dump(tree)))
        assert results[0] == results[1], text


# every syntax of Python 3.10, with type comments; newer forms are added below
EVERY_SYNTAX = """\
from . import a as b
from ..m import (c, d as e)
import os.path as osp, sys
global g
@deco(1, k=2)
@other
class C(B, metaclass=M, **kw):
    x: int = 1
    (z): int
    def m(self, a, /, b: int = 2, *args, c, d=3, **kwargs) -> None:  # type: ignore[misc]
        h = lambda p, q=1, *r, s=2, **t: p
        def inner():
            nonlocal h
        return f"{a!r:>{b}} {c!s} {d!a} {x=}"
async def co(a):  # type: (int) -> None
    async with a as (b, c), d:
        pass
    async for i in a:
        await i
    else:
        pass
    return [j async for j in a if j]
def gen():
    yield 1
    yield from g()
x = 1  # type: int
for i, *j in k:  # type: int
    continue
else:
    y = 1
while x:
    break
with open(p) as fh:  # type: ignore
    pass
try:
    raise E from F
except (E, F) as err:
    pass
except G:
    pass
else:
    pass
finally:
    del x[0], y.z
assert x, "m"
if (n := len(a)) > 10:
    pass
elif not x:
    pass
x += 1; x @= y; x **= 2
v = a if b else c
w = {k: v for k, v in d.items()}, {s for s in t}, (g for g in h), [*a, *b], {**a, 'k': 1}
s = a[1:2:3, ..., None], b'bytes', 1j, -x, ~x, a < b <= c is not d in e not in f
match command.split():
    case [action]:
        pass
    case Point(1, y=2) if obj:
        pass
    case {"k": v, **rest}:
        pass
    case [1, *others]:
        pass
    case (None | True) | -1 | 1+2j | "s" as whole:
        pass
    case _:
        pass
"""
if sys.version_info >= (3, 11):
    EVERY_SYNTAX += "try:\n    pass\nexcept* E as eg:\n    pass\n"
if sys.version_info >= (3, 12):
    EVERY_SYNTAX += (
        "type Alias[T: int] = list[T]\n"
        "def tp[T, *Ts, **P](x: T) -> T:\n    pass\n"
        "class K[T]:\n    pass\n"
    )
if sys.version_info >= (3, 13):
    EVERY_SYNTAX += "def td[T = int]():\n    pass\n"
if sys.version_info >= (3, 14):
    EVERY_SYNTAX += "u = t'{a!r:>{b}}'\n"


def _node_types(cls=ast.AST):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_types(sub)


def test_skipped_fields_never_hold_a_node():
    rng = np.random.default_rng(53)  # the units of the visit-order test
    trees = [ast.parse(fuzz_pytorch_unit(rng)) for _ in range(300)]
    trees.append(ast.parse(EVERY_SYNTAX, type_comments=True))
    seen = set()
    for tree in trees:
        for node in ast.walk(tree):
            for field in set(node._fields) - set(_CHILD_FIELDS[type(node)]):
                value = getattr(node, field, None)
                assert value is None or isinstance(value, (str, int)), (node, field)
                seen.add(field)
    assert seen == _LEAF_FIELDS  # the module exercises every skipped field
    leaf_types = (str, int, str | None, int | None)
    for cls in _node_types():
        for field, declared in getattr(cls, "_field_types", {}).items():
            if field in _LEAF_FIELDS:
                assert declared in leaf_types, (cls, field, declared)


def test_extract_module_classes_splits_by_framework():
    text = (
        "import torch.nn as nn\n"
        "from tensorflow.keras import layers\n\n"
        "class A(nn.Module):\n    def forward(self, x):\n        return x\n\n"
        "class B(layers.Layer):\n    def call(self, x):\n        return x\n\n"
        "class C:\n    pass\n"
    )
    units = extract_module_classes(text, {"pytorch": PT, "keras": KS}, origin="m.py")
    got = {(u.framework, u.origin) for u in units}
    assert got == {("pytorch", "m.py:A"), ("keras", "m.py:B")}
    for u in units:
        assert u.text.startswith("class ")
        # each unit canonicalizes standalone
        canonicalize(u, PT if u.framework == "pytorch" else KS)


def test_extract_module_classes_counts_a_base_only_through_its_framework_imports():
    dbs = {"pytorch": PT, "mxnet": default_database("mxnet")}
    # MXNet's rewrite leaves ``nn.Block`` as it is, but here ``nn`` is torch.nn
    text = "import torch.nn as nn\n\nclass P(nn.Block):\n    pass\n"
    assert extract_module_classes(text, dbs, origin="block.py") == []
    for text in (
        "from mxnet.gluon import nn\n\nclass P(nn.Block):\n    pass\n",
        "import torch.nn as nn\nfrom mxnet.gluon import nn as gnn\n\n"
        "class P(gnn.Block):\n    pass\n",
        "import mxnet as mx\n\nclass P(mx.gluon.nn.Block):\n    pass\n",
        "class P(nn.Block):\n    pass\n",  # an unbound name means MXNet's module
    ):
        units = extract_module_classes(text, dbs, origin="block.py")
        assert [(u.framework, u.origin) for u in units] == [("mxnet", "block.py:P")]


NESTED_CLASSES = """\
import torch.nn as nn

class Outer(nn.Module):
    class InOuter(nn.Module):
        pass

    def forward(self, x):
        class InMethod(nn.Module):
            pass
        return x
if flag:
    class InIf(nn.Module):
        pass
else:
    class InElse(nn.Module):
        if deep:
            class InIfInElse(nn.Module):
                pass
try:
    class InTry(nn.Module):
        pass
except ImportError:
    class InExcept(nn.Module):
        pass
finally:
    class InFinally(nn.Module):
        pass
def build():
    class InFunction(nn.Module):
        pass
    return InFunction
class Last(nn.Module):
    pass
"""


def test_extract_module_classes_keeps_the_order_of_ast_walk():
    units = extract_module_classes(NESTED_CLASSES, {"pytorch": PT})
    walked = [
        node.name for node in ast.walk(ast.parse(NESTED_CLASSES))
        if isinstance(node, ast.ClassDef)
    ]
    # breadth first: the module's classes, then those one block deeper, ...
    assert walked == [
        "Outer", "Last", "InOuter", "InIf", "InElse", "InTry", "InFinally",
        "InFunction", "InMethod", "InExcept", "InIfInElse",
    ]
    assert [u.origin for u in units] == walked


def test_extract_module_classes_raises_parse_error_for_bad_files(caplog):
    with pytest.raises(SyntaxError) as err:
        ast.parse("def broken(:\n")
    with pytest.raises(ParseError) as raised:
        extract_module_classes("def broken(:\n", {"pytorch": PT}, origin="m.py")
    assert str(raised.value) == f"m.py: {err.value}"
    assert caplog.records == []


def test_extract_module_classes_parses_once_per_patterned_framework(monkeypatch):
    text = "import torch.nn as nn\n\nclass A(nn.Module):\n    pass\n"
    real_parse = ast.parse
    calls = []

    def counting_parse(*args, **kwargs):
        calls.append(args)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    dbs = {"pytorch": PT, "keras": KS}
    # a framework the file has no class of costs no parse
    assert len(extract_module_classes(text, dbs)) == 1
    assert len(calls) == 1
    calls.clear()
    extract_module_classes(text, {"pytorch": PT})
    assert len(calls) == 1
    calls.clear()
    # the first rewrite changes the tree, so a second framework parses again
    assert len(extract_module_classes(TWO_FRAMEWORKS, dbs)) == 4
    assert len(calls) == 2


# imports at module level, in a class body and in a method, classes of both
# frameworks interleaved, one nested in the other, and calls that bind
TWO_FRAMEWORKS = """\
import torch
import torch.nn as nn
from tensorflow import keras
from tensorflow.keras import layers as L

class Head(L.Layer):
    import torch.nn as tnn

    def __init__(self):
        self.d = L.Dense(4, 'relu')
        self.t = tnn.Linear(2, 3)

class Net(torch.nn.Module):
    from tensorflow.keras import layers

    def __init__(self):
        self.fc = nn.Linear(4, 2, bias=False)
        self.k = layers.Dense(8)

    def forward(self, x):
        import tensorflow.keras.layers as kl
        class Inner(kl.Layer):
            def call(self, y):
                return kl.Flatten()(y)
        return self.fc(x)

class Model(keras.Model):
    def build(self):
        return nn.Sequential(nn.ReLU(), L.Dropout(0.5))

class Plain:
    pass
"""


def _extract_one_parse_per_framework(file_text, dbs, origin=""):
    """``extract_module_classes`` as a fresh parse and rewrite per framework."""
    units = []
    for framework in sorted(dbs):
        patterns = set(DEFAULT_BASE_CLASSES.get(framework, ()))
        if not patterns:
            continue
        db = dbs[framework]
        tree = ast.parse(file_text)
        rewriter = _Rewriter(db, tree, strict=False)
        classes = []
        for node in rewriter.statements:
            if isinstance(node, ast.ClassDef):
                bases = filter(None, map(_dotted_name, node.bases))
                paths = filter(None, map(rewriter._contract, bases))
                if set(map(db.resolve_name, paths)) & patterns:
                    classes.append(node)
        rewriter.visit(tree)
        for node in classes:
            label = f"{origin}:{node.name}" if origin else node.name
            units.append(SourceUnit(ast.unparse(node), framework, label))
    return units


def test_extract_module_classes_of_two_frameworks_equal_one_parse_per_framework():
    dbs = {"pytorch": PT, "keras": KS, "mxnet": default_database("mxnet")}
    rng = np.random.default_rng(25)
    texts = [TWO_FRAMEWORKS, NESTED_CLASSES, HAND_WRITTEN_UNIT]
    texts += [fuzz_pytorch_unit(rng) + TWO_FRAMEWORKS for _ in range(20)]
    for text in texts:
        trees = []
        units = extract_module_classes(text, dbs, origin="m.py", trees=trees)
        assert units == _extract_one_parse_per_framework(text, dbs, origin="m.py")
        assert [ast.unparse(tree) for tree in trees] == [u.text for u in units]
    units = extract_module_classes(TWO_FRAMEWORKS, dbs)
    assert [(u.framework, u.origin) for u in units] == [
        ("keras", "Head"), ("keras", "Model"), ("keras", "Inner"), ("pytorch", "Net"),
    ]
    # each class is cut out of its own framework's rewrite
    assert "tnn.Linear(2, 3)" in units[0].text
    assert "layers.Dense(units=4, activation='relu')" in units[0].text
    assert "nn.Linear(in_features=4, out_features=2, bias=False)" in units[3].text
    assert "layers.Dense(8)" in units[3].text


def test_extract_module_classes_rewrites_only_for_frameworks_with_classes():
    # a Keras call with too many arguments fails only the Keras rewrite
    text = (
        "import torch.nn as nn\nfrom tensorflow.keras import layers\n\n"
        "head = layers.Dense(1, 2, 3, 4)\n\n"
        "class Net(nn.Module):\n    pass\n"
    )
    units = extract_module_classes(text, {"pytorch": PT, "keras": KS})
    assert [(u.framework, u.text) for u in units] == [
        ("pytorch", "class Net(nn.Module):\n    pass"),
    ]
    with pytest.raises(ArityError):
        extract_module_classes(text + "\nclass Head(layers.Layer):\n    pass\n",
                               {"pytorch": PT, "keras": KS})


def test_keyword_validation():
    with pytest.raises(ConfigError):
        ApiKeyword("pytorch", "verb", "x")
    with pytest.raises(ConfigError):
        ApiKeyword("pytorch", PARAMETER, "p")  # parameters need an owner
    with pytest.raises(ConfigError):
        ApiKeyword("pytorch", CALLABLE, "f", owner="g")


def test_signature_database_validation_and_round_trip(tmp_path):
    with pytest.raises(ConfigError):
        ApiSignature("f", parameters=("a", "a"))
    with pytest.raises(ConfigError):
        ApiSignature("f", parameters=("a",), required_count=2)
    with pytest.raises(ConfigError):
        SignatureDatabase("x", {}, [ApiSignature("f"), ApiSignature("f")])
    with pytest.raises(ConfigError):
        SignatureDatabase("x", {"a.b": "s", "c.d": "s"}, [])
    path = tmp_path / "db.json"
    path.write_text(json.dumps({
        "framework": "x",
        "import_aliases": {"x.nn": "nn"},
        "signatures": [{"canonical_name": "nn.F", "aliases": ["nn.G"],
                        "parameters": ["a", "b"], "required_count": 1, "variadic": True}],
    }))
    back = SignatureDatabase.load(path)
    assert (back.framework, dict(back.import_aliases)) == ("x", {"x.nn": "nn"})
    assert back.signature_for("nn.G") == ApiSignature(
        "nn.F", ("a", "b"), 1, frozenset({"nn.G"}), variadic=True
    )
    with pytest.raises(ConfigError):
        SignatureDatabase.load(tmp_path / "missing.json")
    # a database that fails a check names its file
    doc = json.loads(path.read_text())
    doc["signatures"] *= 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as info:
        SignatureDatabase.load(path)
    assert str(info.value) == (
        f"cannot load signature database {path}: duplicate signature 'nn.F'"
    )


def test_path_arithmetic():
    assert KS.normalize_path("keras.layers.Dense") == "tensorflow.keras.layers.Dense"
    assert KS.contract_path("tensorflow.keras.layers.Dense") == "layers.Dense"
    assert KS.contract_path("numpy.array") is None
    assert KS.resolve_name("layers.MaxPool2D") == "layers.MaxPooling2D"
    assert PT.looks_framework_qualified("nn.Linear")
    assert not PT.looks_framework_qualified("np.zeros")


# each block's only statement repeats an import the module already spells
# in canonical form, so the rewrite drops it
EMPTIED_BLOCKS = {
    "if x:\n    import torch.nn\n": "if x:\n    pass",
    "for i in x:\n    import torch.nn\n": "for i in x:\n    pass",
    "while x:\n    import torch.nn\n": "while x:\n    pass",
    "with a:\n    import torch.nn\n": "with a:\n    pass",
    "try:\n    import torch.nn\nfinally:\n    y = 1\n": "try:\n    pass\nfinally:\n    y = 1",
    "try:\n    x = 1\nexcept E:\n    import torch.nn\n":
        "try:\n    x = 1\nexcept E:\n    pass",
    "def f():\n    import torch.nn\n": "\ndef f():\n    pass",
    "class C:\n    import torch.nn\n": "\nclass C:\n    pass",
    "match x:\n    case 1:\n        import torch.nn\n": "match x:\n    case 1:\n        pass",
    "async def f():\n    async for a in b:\n        import torch.nn\n"
    "    async with c:\n        import torch.nn\n":
        "\nasync def f():\n    async for a in b:\n        pass\n"
        "    async with c:\n        pass",
}
if sys.version_info >= (3, 11):
    EMPTIED_BLOCKS["try:\n    x = 1\nexcept* E:\n    import torch.nn\n"] = (
        "try:\n    x = 1\nexcept* E:\n    pass"
    )


def test_blocks_emptied_by_the_import_rewrite_keep_a_pass():
    # the second ``import torch.nn`` is dropped: its module is already imported
    cases = {
        "import torch.nn as nn\nif x:\n    import torch.nn\n":
            "import torch.nn as nn\nif x:\n    pass",
        "import torch.nn as nn\ntry:\n    x = 1\nfinally:\n    import torch.nn\n":
            "import torch.nn as nn\ntry:\n    x = 1\nfinally:\n    pass",
        "import torch.nn as nn\ntry:\n    x = 1\nexcept E:\n    y = 2\nfinally:\n    import torch.nn\n":
            "import torch.nn as nn\ntry:\n    x = 1\nexcept E:\n    y = 2",
    }
    for src, want in EMPTIED_BLOCKS.items():
        cases["import torch.nn as nn\n" + src] = "import torch.nn as nn\n" + want
    for src, want in cases.items():
        out = canon(src)
        assert out == want, src
        assert canon(out) == out, src


def test_every_block_type_has_the_block_handler():
    # a concrete class's docstring is its ASDL signature, ``If(expr test,
    # stmt* body, stmt* orelse)``; a parse's root may stay empty
    blocks = {
        cls for cls in _node_types()
        if (cls.__doc__ or "").startswith(cls.__name__ + "(")
        and "stmt* body" in cls.__doc__
    } - {ast.Module, ast.Interactive}
    assert {ast.If, ast.ExceptHandler, ast.match_case} <= blocks
    for cls in blocks:
        assert _Rewriter._handlers.get(cls) is _Rewriter._visit_block, cls


def test_a_first_name_no_table_starts_is_left_as_spelled():
    cases = {
        # ``self`` and ``np`` start no key of either table, and ``F``, bound
        # to ``torch.nn.functional`` by default, contracts back to itself
        "y = self.fc(x)\nz = np.zeros(3)\nw = F.relu(x)\n":
            "y = self.fc(x)\nz = np.zeros(3)\nw = F.relu(x)",
        # ``torch`` starts a key of the tables
        "layer = torch.nn.Linear(3, 4)\n":
            "layer = nn.Linear(in_features=3, out_features=4)",
        "import torch.nn as tnn\nlayer = tnn.Linear(3, 4)\n":
            "import torch.nn as nn\nlayer = nn.Linear(in_features=3, out_features=4)",
        "from torch import nn as N\nlayer = N.Linear(3, 4)\n":
            "import torch.nn as nn\nlayer = nn.Linear(in_features=3, out_features=4)",
    }
    for src, want in cases.items():
        assert canon(src) == want, src
    # no import binds ``tensorflow``, but it starts a key of keras' tables
    assert canon("d = tensorflow.keras.layers.Dense(3)\n", KS) == "d = layers.Dense(units=3)"
    # the early return gives what the two prefix scans give
    paths = ["self.fc", "np.zeros", "F.relu", "torch.nn.Linear", "tnn.Linear", "tf.keras.x",
             "keras.layers.Dense", "tensorflow.keras.layers.Dense", "layers.MaxPool2D",
             "mx.gluon.nn.Dense", "mxnet.gluon", "old.sub.f", "nn", "x"]
    # a path alias whose first name starts no import alias
    moved = SignatureDatabase("moved", {"pkg.sub": "sub"}, [], {"old.sub": "pkg.sub"})
    for db in (PT, KS, default_database("mxnet"), moved):
        tree = ast.parse("import torch.nn as tnn\nimport tensorflow as tf")
        rewriter = _Rewriter(db, tree, strict=False)
        for path in paths:
            head, sep, rest = path.partition(".")
            base = rewriter.bindings.get(head)
            full = base + sep + rest if base is not None else path
            assert rewriter._contract(path) == db.contract_path(db.normalize_path(full))


def _scan_imports_over_every_node(tree, db, walk=ast.walk):
    """The former ``_scan_imports``, which ran ``ast.walk`` over every node
    (``walk`` is bound here, so a test that counts ``ast.walk`` calls does
    not count this one's)."""
    bindings = {}
    preserved = set()
    for node in walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias, path, bound in _import_names(node) or ():
            if alias.name == "*":
                continue
            normal = db.normalize_path(path)
            if db.import_aliases.get(path) == bound and normal == path:
                preserved.add(path)
            plain = isinstance(node, ast.Import) and not alias.asname
            bindings[bound] = db.normalize_path(bound) if plain else normal
    for module_path, short in db.import_aliases.items():
        bindings.setdefault(short, module_path)
    return bindings, preserved


# imports in every kind of block, most names bound more than once, so the
# binding each name keeps depends on the order the imports are seen in
NESTED_IMPORTS = [
    # a depth-first walk would let the module-level import bind ``L`` last
    "def f():\n    import tensorflow.keras.layers as L\nimport tensorflow as L\n",
    # at one depth: ``try`` body, then handlers, then ``else``, then ``finally``
    """\
try:
    if b:
        import torch.optim as b
except E:
    import torch.nn as a
    import torch.nn.init as b
else:
    if c:
        import torch as a
        import torch.utils as c
finally:
    if d:
        import torch.nn.functional as c
""",
    """\
import torch.nn as nn
if x:
    import torch.nn.functional as F
elif y:
    import torch as F
else:
    from torch import nn as F
try:
    import torch.optim as opt
except ImportError:
    import torch.nn.init as opt
except (ValueError, TypeError) as e:
    from torch.nn import init as nn
else:
    import torch.nn as opt
finally:
    import torch.nn.functional as nn
with open(p) as fh:
    import torch.utils as u
    with g():
        import torch.nn as u
match cmd:
    case 1:
        import torch.nn.functional as m
    case _:
        from torch import nn as m
async def h():
    import torch as m
    async with a:
        import tensorflow.keras as t
    async for i in b:
        import torch.nn as t
    else:
        import keras.layers as t
class C(nn.Module):
    import torch.nn as nn
    from tensorflow.keras import layers

    def forward(self):
        from torch.nn import functional as u
        from keras import *
for i in r:
    import torch as opt
else:
    import torch.nn as F
while z:
    import keras.layers as L
else:
    from . import L
    import tensorflow.keras
""",
]


def test_statement_import_scan_matches_the_walk_over_every_node(monkeypatch):
    real_walk = ast.walk
    walks = []
    monkeypatch.setattr(ast, "walk", lambda node: walks.append(node) or real_walk(node))
    rng = np.random.default_rng(61)
    texts = [fuzz_pytorch_unit(rng) for _ in range(1000)] + NESTED_IMPORTS
    for text in texts:
        tree = ast.parse(text)
        statements = [node for node in real_walk(tree) if isinstance(node, ast.stmt)]
        for db in (PT, KS):
            bindings, preserved, walked = _scan_imports(tree, db)
            assert (bindings, preserved) == _scan_imports_over_every_node(tree, db), text
            # the walked nodes hold every statement, in the order of ast.walk
            assert [node for node in walked if isinstance(node, ast.stmt)] == statements
    assert walks == []  # the scan visits statements only
    # the shadowing case binds the function's import, as ``ast.walk`` does
    bindings, _, _ = _scan_imports(ast.parse(NESTED_IMPORTS[0]), KS)
    assert bindings["L"] == "tensorflow.keras.layers"
