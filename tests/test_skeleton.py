"""Skeleton extraction and translated reinsertion."""

from __future__ import annotations

import ast
from dataclasses import replace

import pytest

from frameport.canon import (
    CALLABLE,
    SourceUnit,
    canonicalize,
    extract_keywords,
)
from frameport.errors import (
    ExpansionContextError,
    MissingTranslationError,
    OverlapError,
    ParseError,
    ResidualPlaceholderError,
    SkeletonError,
)
from frameport.pipeline import default_database
from frameport.skeleton import (
    _parse_fragment,
    identity_translations,
    reinsert,
    to_skeleton,
    validate_placeholders,
)

PT = default_database("pytorch")


def _skeleton(text: str, db=PT):
    unit = canonicalize(SourceUnit(text, db.framework), db)
    occs = extract_keywords(unit, db)
    return unit, occs, to_skeleton(unit, occs)


def test_placeholders_are_numbered_in_source_order():
    _, occs, skel = _skeleton(
        "import torch.nn as nn\nfc = nn.Linear(128, 64)\ng = nn.ReLU()\n"
    )
    assert skel.indices() == [1, 2, 3, 4]
    assert skel.text == (
        "import torch.nn as nn\n"
        "fc = PLACEHOLDER_1(PLACEHOLDER_2=128, PLACEHOLDER_3=64)\n"
        "g = PLACEHOLDER_4()"
    )
    assert [k.text for _, k in skel.placeholders] == [
        "nn.Linear", "in_features", "out_features", "nn.ReLU",
    ]


def test_existing_placeholder_token_is_rejected():
    unit = SourceUnit("PLACEHOLDER_1 = 2", "pytorch")
    with pytest.raises(SkeletonError):
        to_skeleton(unit, [])


def test_overlapping_spans_are_rejected():
    unit, occs, _ = _skeleton("import torch.nn as nn\nx = nn.ReLU()\n")
    clone = replace(occs[0], span=(occs[0].span[0] + 1, occs[0].span[1] + 1))
    with pytest.raises(OverlapError):
        to_skeleton(unit, [occs[0], clone])
    bad = replace(occs[0], span=(0, 10_000))
    with pytest.raises(SkeletonError):
        to_skeleton(unit, [bad])


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
    back = reinsert(skel.text, identity_translations(skel), "pytorch")
    assert back.text == unit.text
    assert back.framework == "pytorch"


def test_rename_and_drop():
    _, _, skel = _skeleton(
        "import torch.nn as nn\nfc = nn.Linear(in_features=8, out_features=4)\n"
    )
    out = reinsert(
        skel.text,
        {1: ["layers.Dense"], 2: [], 3: ["units"]},
        "keras",
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
        "keras",
    )
    assert "[layers.Dense(units=4), layers.ReLU(), layers.Flatten()]" in out.text


def test_expansion_works_in_argument_sequences():
    _, _, skel = _skeleton(
        "import torch.nn as nn\ns = nn.Sequential(nn.Linear(8, 4))\n"
    )
    translations = {
        1: ["keras.Sequential"],
        2: ["layers.Dense", "layers.ReLU()"],
        3: [],
        4: ["units"],
    }
    out = reinsert(skel.text, translations, "keras")
    assert "keras.Sequential(layers.Dense(units=4), layers.ReLU())" in out.text


def test_expansion_outside_sequence_context_fails():
    _, _, skel = _skeleton("import torch.nn as nn\nact = nn.ReLU()\n")
    with pytest.raises(ExpansionContextError):
        reinsert(skel.text, {1: ["layers.ReLU", "layers.Dropout(0.5)"]}, "keras")


def test_parameter_cannot_expand():
    _, _, skel = _skeleton("import torch.nn as nn\nfc = nn.Linear(in_features=8)\n")
    with pytest.raises(ExpansionContextError):
        reinsert(skel.text, {1: ["layers.Dense"], 2: ["a", "b()"]}, "keras")


def test_missing_translation_is_reported_with_indices():
    _, _, skel = _skeleton("import torch.nn as nn\nx = nn.ReLU()\n")
    with pytest.raises(MissingTranslationError) as exc:
        reinsert(skel.text, {})
    assert "[1]" in str(exc.value)


def test_callable_translation_must_not_be_empty():
    _, _, skel = _skeleton("import torch.nn as nn\nx = nn.ReLU()\n")
    with pytest.raises(SkeletonError):
        reinsert(skel.text, {1: []})


def test_bad_fragments_are_rejected():
    _, _, skel = _skeleton("import torch.nn as nn\nx = nn.ReLU()\n")
    with pytest.raises(SkeletonError):
        reinsert(skel.text, {1: ["not a name ("]})
    _, _, skel2 = _skeleton("import torch.nn as nn\nx = nn.Linear(in_features=1)\n")
    with pytest.raises(SkeletonError):
        reinsert(skel2.text, {1: ["nn.Linear"], 2: ["not-an-identifier"]})


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
        reinsert("def broken(:\n", {})


def test_residual_placeholder_in_string_literal_is_caught():
    # a placeholder smuggled inside a string survives the AST passes
    with pytest.raises(ResidualPlaceholderError):
        reinsert("x = 'PLACEHOLDER_7'", {7: ["y"]})


def test_skeleton_of_unit_without_keywords_is_the_unit():
    unit = SourceUnit("x = 1 + 2", "pytorch")
    skel = to_skeleton(unit, [])
    assert skel.text == unit.text and skel.placeholders == ()
    assert validate_placeholders(skel, skel.text).ok
    assert reinsert(skel.text, {}).text == "x = 1 + 2"


def test_placeholder_keywords_preserved_in_skeleton_metadata():
    _, occs, skel = _skeleton("import torch.nn as nn\nx = nn.Dropout(p=0.5)\n")
    assert [(i, k.kind) for i, k in skel.placeholders] == [
        (1, CALLABLE), (2, "parameter"),
    ]
    assert [k for _, k in skel.placeholders] == [o.keyword for o in occs]
