"""Skeleton extraction and translated reinsertion."""

from __future__ import annotations

import ast
from collections import Counter

import numpy as np
import pytest

from frameport import canon, skeleton
from frameport.canon import (
    CALLABLE,
    SourceUnit,
    canonicalize,
    extract_keywords,
    keyword_occurrences,
)
from frameport.errors import (
    ExpansionContextError,
    FrameportError,
    MissingTranslationError,
    ParseError,
    ResidualPlaceholderError,
    SkeletonError,
)
from frameport.pipeline import (
    build_translations,
    default_database,
    default_dictionary,
    default_template,
    transpile_source,
    transpile_unit,
)
from frameport.skeleton import (
    PLACEHOLDER_RE,
    _parse_fragment,
    _placeholder_index,
    reinsert,
    to_skeleton,
    validate_placeholders,
)
from helpers import HAND_WRITTEN_UNIT, fuzz_pytorch_unit, identity_translations

PT = default_database("pytorch")
KS = default_database("keras")


def _skeleton(text: str, db=PT):
    tree = canonicalize(SourceUnit(text, db.framework), db)
    unit = SourceUnit(ast.unparse(tree), db.framework)
    occs = extract_keywords(tree, db)
    return unit, occs, to_skeleton(tree, occs)


def test_placeholders_are_numbered_in_source_order():
    _, occs, skel = _skeleton(
        "import torch.nn as nn\nfc = nn.Linear(128, 64)\ng = nn.ReLU()\n"
    )
    assert skel.text == (
        "import torch.nn as nn\n"
        "fc = PLACEHOLDER_1(PLACEHOLDER_2=128, PLACEHOLDER_3=64)\n"
        "g = PLACEHOLDER_4()"
    )
    assert [k.text for k in skel.keywords] == [
        "nn.Linear", "in_features", "out_features", "nn.ReLU",
    ]


def test_existing_placeholder_token_is_rejected():
    unit = SourceUnit("PLACEHOLDER_1 = 2", "pytorch")
    with pytest.raises(SkeletonError):
        to_skeleton(ast.parse(unit.text), [])


def test_validate_placeholders_reports_each_defect_kind():
    _, _, skel = _skeleton("import torch.nn as nn\nfc = nn.Linear(4, 2)\n")
    assert validate_placeholders(skel, skel.text).ok
    report = validate_placeholders(
        skel, "PLACEHOLDER_1(PLACEHOLDER_2=1, PLACEHOLDER_2=2, PLACEHOLDER_9=3)"
    )
    assert not report.ok
    assert report.missing == (3,)
    assert report.duplicate == (2,)
    assert report.extra == (9,)


def test_identity_round_trip_reproduces_canonical_text():
    unit, _, skel = _skeleton(
        "import torch.nn as nn\n\nclass Net(nn.Module):\n\n"
        "    def __init__(self):\n        self.fc = nn.Linear(8, 4)\n"
    )
    back = reinsert(skel.text, identity_translations(skel), PT)
    assert back.text == unit.text
    assert back.framework == "pytorch"


def test_rename_and_drop():
    _, _, skel = _skeleton(
        "import torch.nn as nn\nfc = nn.Linear(in_features=8, out_features=4)\n"
    )
    out = reinsert(
        skel.text,
        {1: ["layers.Dense"], 2: [], 3: ["units"]},
        KS,
    )
    assert "layers.Dense(units=4)" in out.text
    assert "in_features" not in out.text


def test_expansion_appends_call_after_host_in_list_context():
    _, _, skel = _skeleton(
        "import torch.nn as nn\nstack = [nn.Linear(8, 4), nn.Flatten()]\n"
    )
    out = reinsert(
        skel.text,
        {1: ["layers.Dense", "layers.ReLU()"], 2: [], 3: ["units"], 4: ["layers.Flatten"]},
        KS,
    )
    assert "[layers.Dense(units=4), layers.ReLU(), layers.Flatten()]" in out.text


def test_expansion_works_in_argument_sequences():
    _, _, skel = _skeleton(
        "import torch.nn as nn\ns = nn.Sequential(nn.Linear(8, 4))\n"
    )
    # a host outside the keras database keeps its positional arguments
    translations = {
        1: ["Stack"],
        2: ["layers.Dense", "layers.ReLU()"],
        3: [],
        4: ["units"],
    }
    out = reinsert(skel.text, translations, KS)
    assert out.text == "import torch.nn as nn\ns = Stack(layers.Dense(units=4), layers.ReLU())"


@pytest.mark.xfail(
    strict=True,
    reason="keras.Sequential is not variadic: positional layers bind to layers= and name=",
)
def test_expansion_into_keras_sequential_gives_a_layer_list():
    _, _, skel = _skeleton(
        "import torch.nn as nn\ns = nn.Sequential(nn.Linear(8, 4))\n"
    )
    translations = {
        1: ["keras.Sequential"],
        2: ["layers.Dense", "layers.ReLU()"],
        3: [],
        4: ["units"],
    }
    out = reinsert(skel.text, translations, KS)
    assert "keras.Sequential(layers=[layers.Dense(units=4), layers.ReLU()])" in out.text


def test_expansion_outside_sequence_context_fails():
    _, _, skel = _skeleton("import torch.nn as nn\nact = nn.ReLU()\n")
    with pytest.raises(ExpansionContextError):
        reinsert(skel.text, {1: ["layers.ReLU", "layers.Dropout(0.5)"]}, KS)


def test_parameter_cannot_expand():
    _, _, skel = _skeleton("import torch.nn as nn\nfc = nn.Linear(in_features=8)\n")
    with pytest.raises(ExpansionContextError):
        reinsert(skel.text, {1: ["layers.Dense"], 2: ["a", "b()"]}, KS)


def test_import_alias_placeholders_are_renamed():
    # a bound alias, a dotted module of ``import`` and a ``from`` import name
    cases = [
        ("import numpy as PLACEHOLDER_1\nx = PLACEHOLDER_1.zeros(3)\n", "np",
         "import numpy as np\nx = np.zeros(3)"),
        ("import PLACEHOLDER_1 as m\nx = m.norm(v)\n", "numpy.linalg",
         "import numpy.linalg as m\nx = m.norm(v)"),
        ("from os import PLACEHOLDER_1\n", "path", "from os import path"),
    ]
    for text, name, expected in cases:
        assert reinsert(text, {1: [name]}, PT).text == expected


def test_import_alias_placeholder_cannot_expand():
    with pytest.raises(ExpansionContextError, match="must map to one name"):
        reinsert("import numpy as PLACEHOLDER_1\n", {1: ["np", "onp"]}, PT)


def test_missing_translation_is_reported_with_indices():
    _, _, skel = _skeleton("import torch.nn as nn\nx = nn.ReLU()\n")
    with pytest.raises(MissingTranslationError) as exc:
        reinsert(skel.text, {}, PT)
    assert "[1]" in str(exc.value)
    # the parser reads a fullwidth digit as an ASCII one (NFKC)
    with pytest.raises(MissingTranslationError, match=r"indices \[9\]"):
        reinsert("x = PLACEHOLDER_\uff19()\n", {1: ["a"]}, PT)


def test_callable_translation_must_not_be_empty():
    _, _, skel = _skeleton("import torch.nn as nn\nx = nn.ReLU()\n")
    with pytest.raises(SkeletonError):
        reinsert(skel.text, {1: []}, PT)


def test_bad_fragments_are_rejected():
    _, _, skel = _skeleton("import torch.nn as nn\nx = nn.ReLU()\n")
    with pytest.raises(SkeletonError):
        reinsert(skel.text, {1: ["not a name ("]}, PT)
    _, _, skel2 = _skeleton("import torch.nn as nn\nx = nn.Linear(in_features=1)\n")
    with pytest.raises(SkeletonError):
        reinsert(skel2.text, {1: ["nn.Linear"], 2: ["not-an-identifier"]}, PT)


def test_fragments_build_the_trees_the_parser_builds(monkeypatch):
    names = ["nn", "nn.ReLU", "tf.keras.layers.Dense", "match", "_x.y2"]
    others = ["nn.ReLU()", "layers.Dense(units=3)", "None", "a . b", "\ufb01", "1.5"]
    expected = {f: ast.dump(ast.parse(f, mode="eval").body) for f in names + others}
    parses = []
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        parses.append(source)
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    for fragment in names + others:
        assert ast.dump(_parse_fragment(1, fragment)) == expected[fragment], fragment
    assert parses == others  # plain dotted names never reach the parser
    for bad in ("a..b", "class.x", "nn.", "not a name ("):
        with pytest.raises(SkeletonError) as info:
            _parse_fragment(7, bad)
        assert str(info.value) == (
            f"translation for PLACEHOLDER_7 is not an expression: {bad!r}"
        )


def test_unparseable_skeleton_raises_parse_error():
    with pytest.raises(ParseError):
        reinsert("def broken(:\n", {}, PT)


def test_residual_placeholder_in_string_literal_is_caught():
    # a placeholder smuggled inside a string survives the AST passes
    with pytest.raises(ResidualPlaceholderError):
        reinsert("x = 'PLACEHOLDER_7'", {7: ["y"]}, PT)


def test_translation_that_spells_a_placeholder_is_a_residual():
    # the rename pass does not look inside the trees it builds
    cases = [
        ("x = PLACEHOLDER_1()", {1: ["PLACEHOLDER_9"]}, "PLACEHOLDER_9"),
        ("x = [PLACEHOLDER_1()]", {1: ["PLACEHOLDER_9"]}, "PLACEHOLDER_9"),
        ("x = [PLACEHOLDER_1()]", {1: ["layers.ReLU", "f(PLACEHOLDER_3)"]}, "PLACEHOLDER_3"),
    ]
    for text, translations, leftover in cases:
        with pytest.raises(ResidualPlaceholderError) as info:
            reinsert(text, translations, KS)
        assert str(info.value) == f"output still contains {leftover}"


def test_skeleton_of_unit_without_keywords_is_the_unit():
    unit = SourceUnit("x = 1 + 2", "pytorch")
    skel = to_skeleton(ast.parse(unit.text), [])
    assert skel.text == unit.text and skel.keywords == ()
    assert validate_placeholders(skel, skel.text).ok
    assert reinsert(skel.text, {}, PT).text == "x = 1 + 2"


def test_placeholder_keywords_preserved_in_skeleton_metadata():
    _, occs, skel = _skeleton("import torch.nn as nn\nx = nn.Dropout(p=0.5)\n")
    assert [k.kind for k in skel.keywords] == [CALLABLE, "parameter"]
    assert list(skel.keywords) == [o.keyword for o in occs]


# -- the skeleton cut from the canonical tree against the former span splice ----


def _spliced_skeleton(text: str, db) -> tuple[str, list]:
    """The former ``to_skeleton`` on a canonical text: the span of each
    keyword occurrence, in source order, replaced by its numbered
    placeholder. Returns the skeleton text and the keywords in order."""
    if "PLACEHOLDER_" in text:
        raise SkeletonError("input already contains placeholder tokens")
    occs = keyword_occurrences(SourceUnit(text, db.framework), db)
    data = text.encode("utf-8")
    pieces: list[bytes] = []
    last_end = 0
    for i, occ in enumerate(occs, start=1):
        start, end = occ.span
        assert last_end <= start <= end <= len(data), occ
        pieces += [data[last_end:start], f"PLACEHOLDER_{i}".encode("ascii")]
        last_end = end
    pieces.append(data[last_end:])
    return b"".join(pieces).decode("utf-8"), [occ.keyword for occ in occs]


def test_skeleton_from_the_tree_matches_the_span_splice():
    rng = np.random.default_rng(1312)
    loaded = (KS, default_dictionary("pytorch", "keras"), default_template("pytorch", "keras"))
    texts = [fuzz_pytorch_unit(rng) for _ in range(1000)] + [HAND_WRITTEN_UNIT]
    for text in texts:
        canonical = ast.unparse(canonicalize(SourceUnit(text, "pytorch"), PT))
        want_text, want_keywords = _spliced_skeleton(canonical, PT)
        result = transpile_unit(SourceUnit(text, "pytorch", "unit.py"), PT, *loaded)
        assert result.skeleton.text == want_text, text
        assert result.skeleton.keywords == tuple(want_keywords)
        assert result.skeleton.canonical_text() == canonical


def test_placeholder_text_is_rejected_in_code_and_passes_in_a_comment():
    # ``PLACEHOLDER_`` counts wherever it is spelled, a string or a name
    for text in (
        "x = 'PLACEHOLDER_1'\n",
        "import torch.nn as nn\nfc = nn.Linear(4, 2)\nx = 'PLACEHOLDER_1'\n",
        "PLACEHOLDER_x = 1\n",
    ):
        with pytest.raises(SkeletonError) as info:
            transpile_source(text, "pytorch", "keras")
        assert type(info.value) is SkeletonError, text
        assert str(info.value) == "input already contains placeholder tokens"
    result = transpile_source(
        "import torch.nn as nn\n# PLACEHOLDER_1\nfc = nn.Linear(4, 2)\n", "pytorch", "keras"
    )
    assert result.output.text == "from tensorflow.keras import layers\nfc = layers.Dense(units=2)"
    assert result.skeleton.text == (
        "import torch.nn as nn\nfc = PLACEHOLDER_1(PLACEHOLDER_2=4, PLACEHOLDER_3=2)"
    )


# -- the fused reinsert against the former two text round trips ------------------


class _TextRenamePass(ast.NodeTransformer):
    """The former rename pass, which left invalid names to the re-parse."""

    def __init__(self, translations):
        self.translations = translations

    def _lookup(self, index):
        if index not in self.translations:
            raise MissingTranslationError(f"no translation for PLACEHOLDER_{index}")
        return list(self.translations[index])

    def visit_Name(self, node):
        index = _placeholder_index(node.id)
        if index is None:
            return node
        fragments = self._lookup(index)
        if not fragments:
            raise SkeletonError(f"cannot drop callable PLACEHOLDER_{index}")
        if len(fragments) == 1:
            return _parse_fragment(index, fragments[0])
        return node

    def visit_keyword(self, node):
        self.generic_visit(node)
        index = _placeholder_index(node.arg)
        if index is None:
            return node
        fragments = self._lookup(index)
        if not fragments:
            return None
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

    def visit_alias(self, node):
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


def _text_expansions(tree, translations):
    """The former expansion walk, run after the rename pass."""
    for node in list(ast.walk(tree)):
        for field in ("elts", "args"):
            elements = getattr(node, field, None)
            if not isinstance(elements, list):
                continue
            rebuilt = []
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


def _reinsert_then_canonicalize(skeleton_text, translations, db):
    """Reinsert into text, then parse and canonicalize that text again."""
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
    tree = _TextRenamePass(translations).visit(tree)
    _text_expansions(tree, translations)
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
    return ast.unparse(canonicalize(SourceUnit(text, db.framework), db))


# translations that unparse to code the parser rejects: the former design
# raised ParseError from the re-parse, the fused one rejects them itself
UNPARSEABLE_TRANSLATIONS = [
    ("f(PLACEHOLDER_1=1)", {1: ["class"]}),
    ("PLACEHOLDER_1 = 3", {1: ["layers.Dense()"]}),
    ("from tensorflow.keras import PLACEHOLDER_1", {1: ["keras.layers"]}),
    ("import keras as PLACEHOLDER_1", {1: ["None"]}),
    ("import PLACEHOLDER_1", {1: ["keras.1x"]}),
    ("del PLACEHOLDER_1", {1: ["f(x)"]}),
    ("for PLACEHOLDER_1 in y:\n    pass", {1: ["a + b"]}),
    ("y = (PLACEHOLDER_1 := 3)", {1: ["layers.x"]}),
]

# inputs with one defect each: placeholder text that survives renames, and
# errors from expansion, lookup and the target's argument binding
SINGLE_DEFECT_CASES = [
    ("x = PLACEHOLDER_1()", {1: ["layers.ReLU", "layers.Dropout(0.5)"]}, KS),
    ("x = [PLACEHOLDER_1(), PLACEHOLDER_2()]", {1: ["layers.ReLU"]}, KS),
    ("x = PLACEHOLDER_1(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)", {1: ["layers.ReLU"]}, KS),
    ("x = PLACEHOLDER_1(4, PLACEHOLDER_2=3)", {1: ["layers.Dense"], 2: ["units"]}, KS),
    ("x = 'PLACEHOLDER_7'", {7: ["y"]}, KS),
    ("x = b'PLACEHOLDER_7'", {7: ["y"]}, KS),
    ("x = 'PLACEHOLDER\\x5f7'", {}, KS),
    ("x = nn.PLACEHOLDER_2()", {2: ["y"]}, PT),
    ("def PLACEHOLDER_3():\n    pass", {3: ["f"]}, PT),
    ("x = PLACEHOLDER_1()", {1: ["layers.PLACEHOLDER_9"]}, KS),
    ("f(PLACEHOLDER_1x=2)", {1: ["units"]}, KS),
    # the canonical rewrite would re-spell both lines as ``nn``
    ("import torch.nn as PLACEHOLDER_1x\ny = PLACEHOLDER_1x.Linear(1, 2)", {1: ["z"]}, PT),
    ("import tensorflow.keras.PLACEHOLDER_4", {4: ["layers"]}, KS),
]


def _fuzz_translated_to_keras():
    """The units of the acceptance fuzz check, translated by the bundled
    pytorch -> keras dictionary."""
    rng = np.random.default_rng(1312)
    dictionary = default_dictionary("pytorch", "keras")
    for _ in range(1000):
        tree = canonicalize(SourceUnit(fuzz_pytorch_unit(rng), "pytorch"), PT)
        occs = extract_keywords(tree, PT)
        skel = to_skeleton(tree, occs)
        translations, _ = build_translations(occs, dictionary)
        yield skel.text, translations, KS


def test_fused_reinsert_matches_reinsert_then_canonicalize():
    outcomes = Counter()
    for text, translations, db in [*_fuzz_translated_to_keras(), *SINGLE_DEFECT_CASES]:
        try:
            want = _reinsert_then_canonicalize(text, translations, db)
        except FrameportError as exc:
            with pytest.raises(FrameportError) as info:
                reinsert(text, translations, db)
            assert type(info.value) is type(exc), (text, exc, info.value)
            assert str(info.value) == str(exc)
            outcomes[type(exc).__name__] += 1
        else:
            got = reinsert(text, translations, db)
            assert got.text == want, text
            assert got.framework == db.framework
            outcomes["equal"] += 1
    assert outcomes["equal"] == 1000, outcomes
    assert outcomes["ResidualPlaceholderError"] == len(SINGLE_DEFECT_CASES) - 4, outcomes


# -- the dispatch-table transformer base against ast.NodeTransformer ----------


class _PlainRewriter(canon._Rewriter):
    """The canonical rewrite on ``ast.NodeTransformer``'s own dispatch
    (a ``visit_<Type>`` name and a ``getattr`` per node) and without the
    path memo; logs every node it visits."""

    log: list = []

    def visit(self, node):
        self.log.append(type(node))
        return ast.NodeTransformer.visit(self, node)

    def _rewrite_path(self, path: str) -> str:
        head, sep, rest = path.partition(".")
        base = self.bindings.get(head)
        expanded = base + sep + rest if base is not None else path
        expanded = self.db.normalize_path(expanded)
        contracted = self.db.contract_path(expanded)
        if contracted is None:
            return path
        return self.db.resolve_name(contracted)


class _PlainReinserter(skeleton._Reinserter):
    """The placeholder-resolving target rewrite on ``ast.NodeTransformer``'s
    own dispatch."""

    log: list = []

    def visit(self, node):
        self.log.append(type(node))
        return ast.NodeTransformer.visit(self, node)


class _LoggedRewriter(canon._Rewriter):
    log: list = []

    def visit(self, node):
        self.log.append(type(node))
        return super().visit(node)


class _LoggedReinserter(skeleton._Reinserter):
    log: list = []

    def visit(self, node):
        self.log.append(type(node))
        return super().visit(node)


def _fuzz_passes(rewriter, reinserter, monkeypatch) -> list[tuple]:
    """Per acceptance fuzz unit: the canonical text, the identity and the
    pytorch -> keras reinsertion (or its error), and the node types the two
    passes visited, in order."""
    monkeypatch.setattr(canon, "_Rewriter", rewriter)
    monkeypatch.setattr(skeleton, "_Reinserter", reinserter)
    rng = np.random.default_rng(1312)
    dictionary = default_dictionary("pytorch", "keras")
    results = []
    for _ in range(1000):
        log = []
        monkeypatch.setattr(rewriter, "log", log)
        monkeypatch.setattr(reinserter, "log", log)
        tree = canonicalize(SourceUnit(fuzz_pytorch_unit(rng), "pytorch"), PT)
        unit = SourceUnit(ast.unparse(tree), "pytorch")
        occs = extract_keywords(tree, PT)
        skel = to_skeleton(tree, occs)
        identity = reinsert(skel.text, identity_translations(skel), PT).text
        try:
            translated = reinsert(skel.text, build_translations(occs, dictionary)[0], KS).text
        except FrameportError as exc:
            translated = repr(exc)
        results.append((unit.text, identity, translated, log))
    return results


def test_dispatch_table_matches_node_transformer_dispatch(monkeypatch):
    want = _fuzz_passes(_PlainRewriter, _PlainReinserter, monkeypatch)
    got = _fuzz_passes(_LoggedRewriter, _LoggedReinserter, monkeypatch)
    assert len(got) == len(want) == 1000
    for (*texts, log), (*want_texts, want_log) in zip(got, want):
        assert texts == want_texts
        assert log == want_log
    assert any(ast.Constant in log for *_, log in got)


def test_dispatch_table_holds_the_handler_node_transformer_would_call():
    # a Constant without visit_Num/visit_Str handlers is generic_visit's
    forwarder = getattr(ast.NodeVisitor, "visit_Constant", None)
    node_types = [
        t for t in vars(ast).values() if isinstance(t, type) and issubclass(t, ast.AST)
    ]
    for transformer in (canon._Rewriter, skeleton._Reinserter):
        for node_type in node_types:
            want = getattr(transformer, f"visit_{node_type.__name__}", None)
            assert transformer._handlers.get(node_type) is (
                None if want is forwarder else want
            ), (transformer, node_type)


def test_translations_the_parser_rejects_raise_skeleton_error():
    for text, translations in UNPARSEABLE_TRANSLATIONS:
        with pytest.raises(ParseError):
            _reinsert_then_canonicalize(text, translations, KS)
        with pytest.raises(SkeletonError) as info:
            reinsert(text, translations, KS)
        assert type(info.value) is SkeletonError, text
