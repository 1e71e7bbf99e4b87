"""Canonicalizer: alias unification, argument binding, keyword
extraction spans, and module-class harvesting."""

from __future__ import annotations

import ast
import inspect
import itertools
import json

import numpy as np
import pytest

from frameport.canon import (
    CALLABLE,
    PARAMETER,
    ApiKeyword,
    ApiSignature,
    KeywordOccurrence,
    SignatureDatabase,
    SourceUnit,
    _DispatchTransformer,
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
)
from frameport.errors import (
    ArityError,
    ConfigError,
    DuplicateKeywordError,
    ParseError,
    UnknownCallableError,
)
from frameport.pipeline import default_database
from helpers import fuzz_pytorch_unit

PT = default_database("pytorch")
KS = default_database("keras")


def canon(text: str, db=PT) -> str:
    return canonicalize(SourceUnit(text, db.framework), db).text


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
    with pytest.raises(UnknownCallableError):
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
    unit = canonicalize(SourceUnit(text, "pytorch"), PT)
    occs = extract_keywords(unit, PT)
    data = unit.text.encode("utf-8")
    assert [(o.keyword.kind, o.keyword.text) for o in occs] == [
        (CALLABLE, "nn.Linear"),
        (PARAMETER, "in_features"),
        (PARAMETER, "out_features"),
    ]
    for occ in occs:
        assert data[occ.span[0]:occ.span[1]].decode() == occ.keyword.text
        a, b = occ.span_in_context
        assert occ.context.encode()[a:b].decode() == occ.keyword.text
    assert len({o.call_id for o in occs}) == 1
    assert all(o.keyword.owner == "nn.Linear" for o in occs[1:])
    # context is the innermost enclosing definition
    assert occs[0].context.startswith("def __init__")
    assert [o.span for o in occs] == sorted(o.span for o in occs)


def test_extract_keywords_separate_calls_get_distinct_ids():
    text = "import torch.nn as nn\na = nn.ReLU()\nb = nn.ReLU()\n"
    unit = canonicalize(SourceUnit(text, "pytorch"), PT)
    occs = extract_keywords(unit, PT)
    assert [o.keyword.text for o in occs] == ["nn.ReLU", "nn.ReLU"]
    assert occs[0].call_id != occs[1].call_id


def test_extract_keywords_skips_unknown_parameter_names():
    text = "import torch.nn as nn\nfc = nn.Linear(in_features=4, wat=1)\n"
    occs = extract_keywords(SourceUnit(text, "pytorch"), PT)
    assert [o.keyword.text for o in occs] == ["nn.Linear", "in_features"]


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
    decoding a context per call."""
    data = unit.text.encode("utf-8")
    starts = _line_starts_by_byte(data)
    occurrences = []
    call_ids = itertools.count()

    def visit(node, ctx_span):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
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
                context = data[ctx_span[0]:ctx_span[1]].decode("utf-8")
                occurrences.extend(
                    KeywordOccurrence(
                        ApiKeyword(unit.framework, kind, text, owner),
                        span, context, ctx_span[0], call_id,
                    )
                    for kind, text, owner, span in found
                )
        for child in ast.iter_child_nodes(node):
            visit(child, ctx_span)

    visit(ast.parse(unit.text), (0, len(data)))
    occurrences.sort(key=lambda occ: occ.span)
    return occurrences


# every construct that nests a call somewhere the walk must enter
HAND_WRITTEN_UNIT = """\
import torch.nn as nn


@nn.utils.wrap(nn.Flatten(start_dim=1, end_dim=-1))
class Net(nn.Module):

    def __init__(self, act=lambda x=nn.ReLU(inplace=True): x, n=3):
        super().__init__()
        self.fc = nn.Linear(in_features=4, out_features=2) if act else nn.Dropout(p=0.5)
        self.layers = [nn.Linear(in_features=k, out_features=k) for k in range(n) if nn.Dropout(p=0.1)]
        self.tag = f"é {nn.Conv2d(in_channels=1, out_channels=2, kernel_size=3)!r} ü"
        self.seq = nn.Sequential(*[nn.ReLU(inplace=False)], nn.Tanh())
        self.w = nn.Linear(in_features=1, out_features=1).weight
        self.head = nn.Linear(in_features=nn.Linear(in_features=2, out_features=2), out_features=nn.ReLU())

    async def forward(self, x: nn.Linear(in_features=1, out_features=1)):
        match x:
            case nn.Linear(in_features=4):
                return nn.Dropout(p=0.2)(x)
            case [_, *rest] if nn.ReLU(inplace=True):
                return [nn.Linear(in_features=y, out_features=2) for y in rest]
        return {k: nn.BatchNorm2d(num_features=k) for k in x}
"""


def _occurrence_fields(occs) -> list[tuple]:
    return [
        (o.keyword, o.span, o.context, o.context_offset, o.call_id, o.unit_ref)
        for o in occs
    ]


def test_extract_keywords_matches_the_walk_over_every_child():
    rng = np.random.default_rng(47)
    units = [
        canonicalize(SourceUnit(fuzz_pytorch_unit(rng), "pytorch"), PT)
        for _ in range(1000)
    ]
    hand = SourceUnit(HAND_WRITTEN_UNIT, "pytorch")
    for unit in units + [hand]:
        got = extract_keywords(unit, PT)
        want = _extract_keywords_by_iter_child_nodes(unit, PT)
        assert _occurrence_fields(got) == _occurrence_fields(want), unit.text
    # every known call of the hand-written unit is found (``nn.Tanh`` is
    # unknown, the starred ``nn.Sequential`` call is skipped), in 3 scopes
    hand_occs = extract_keywords(hand, PT)
    assert len({o.call_id for o in hand_occs}) == 17
    assert len({o.context_offset for o in hand_occs}) == 3


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


def test_extract_module_classes_tolerates_bad_files(caplog):
    with pytest.raises(SyntaxError) as err:
        ast.parse("def broken(:\n")
    with caplog.at_level("WARNING", logger="frameport.canon"):
        assert extract_module_classes("def broken(:\n", {"pytorch": PT}, origin="m.py") == []
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping unparseable file m.py: {err.value}"
    ]


def test_extract_module_classes_parses_once_per_patterned_framework(monkeypatch):
    text = "import torch.nn as nn\n\nclass A(nn.Module):\n    pass\n"
    real_parse = ast.parse
    calls = []

    def counting_parse(*args, **kwargs):
        calls.append(args)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    dbs = {"pytorch": PT, "keras": KS}
    assert len(extract_module_classes(text, dbs)) == 1
    assert len(calls) == 2
    calls.clear()
    extract_module_classes(text, {"pytorch": PT})
    assert len(calls) == 1


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


def test_path_arithmetic():
    assert KS.normalize_path("keras.layers.Dense") == "tensorflow.keras.layers.Dense"
    assert KS.contract_path("tensorflow.keras.layers.Dense") == "layers.Dense"
    assert KS.contract_path("numpy.array") is None
    assert KS.resolve_name("layers.MaxPool2D") == "layers.MaxPooling2D"
    assert PT.looks_framework_qualified("nn.Linear")
    assert not PT.looks_framework_qualified("np.zeros")


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
    for src, want in cases.items():
        out = canon(src)
        assert out == want, src
        assert canon(out) == out, src


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
        for db in (PT, KS):
            assert _scan_imports(tree, db) == _scan_imports_over_every_node(tree, db), text
    assert walks == []  # the scan visits statements only
    # the shadowing case binds the function's import, as ``ast.walk`` does
    bindings, _ = _scan_imports(ast.parse(NESTED_IMPORTS[0]), KS)
    assert bindings["L"] == "tensorflow.keras.layers"
