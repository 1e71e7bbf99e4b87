"""End-to-end unit translation through the five-stage pipeline."""

from __future__ import annotations

import ast
from dataclasses import replace

import pytest

from frameport.canon import CALLABLE, PARAMETER, ApiKeyword, SourceUnit
from frameport.dictionary import KeywordDictionary
from frameport.errors import (
    ConfigError,
    ExpansionContextError,
    ParseError,
    PlaceholderMismatch,
    UnknownCallableError,
)
from frameport.pipeline import (
    build_translations,
    default_database,
    default_dictionary,
    default_template,
    fixture_path,
    transpile_source,
    transpile_unit,
)

FIG_INPUT = (
    "import torch.nn as nn\n\n"
    "class Net(nn.Module):\n\n"
    "    def __init__(self):\n"
    "        super().__init__()\n"
    "        self.fc = nn.Linear(128, 64)\n\n"
    "    def forward(self, x):\n"
    "        return self.fc(x)\n"
)

FIG_OUTPUT = (
    "from tensorflow.keras import layers\n\n"
    "class Net(layers.Layer):\n\n"
    "    def __init__(self):\n"
    "        super().__init__()\n"
    "        self.fc = layers.Dense(units=64)\n\n"
    "    def call(self, x):\n"
    "        return self.fc(x)"
)


def test_module_class_translates_byte_exactly():
    result = transpile_source(FIG_INPUT, "pytorch", "keras")
    assert result.output.text == FIG_OUTPUT
    assert result.output.framework == "keras"
    assert result.warnings == ()
    assert result.report.ok
    # the intermediate stages are all exposed
    assert "PLACEHOLDER_1" in result.skeleton.text
    assert "PLACEHOLDER_1" in result.completion
    assert "def call(" in result.completion
    assert result.canonical_source.text.startswith("import torch.nn as nn")


def test_transpile_unit_makes_no_ast_walk(monkeypatch):
    cases = [
        (FIG_INPUT, "pytorch", "keras", FIG_OUTPUT),
        (
            "from tensorflow.keras import layers\n"
            "stack = [layers.Dense(64, activation='relu')]\n",
            "keras",
            "pytorch",
            "import torch.nn as nn\nstack = [nn.Linear(out_features=64), nn.ReLU()]",
        ),
    ]
    fixtures = [
        (default_database(src), default_database(tgt), default_dictionary(src, tgt),
         default_template(src, tgt))
        for _, src, tgt, _ in cases
    ]
    real_walk = ast.walk
    calls = []

    def counting_walk(node):
        calls.append(node)
        return real_walk(node)

    monkeypatch.setattr(ast, "walk", counting_walk)
    for (text, src, _, want), loaded in zip(cases, fixtures):
        result = transpile_unit(SourceUnit(text, src), *loaded)
        assert result.output.text == want
    assert calls == []


def test_unmappable_source_parameter_is_dropped():
    result = transpile_source(
        "import torch.nn as nn\nconv = nn.Conv2d(3, 16, 3)\n", "pytorch", "keras"
    )
    assert result.output.text == (
        "from tensorflow.keras import layers\n"
        "conv = layers.Conv2D(filters=16, kernel_size=3)"
    )


def test_expansion_emits_extra_call_after_host():
    result = transpile_source(
        "from tensorflow.keras import layers\n"
        "stack = [layers.Dense(64, activation='relu')]\n",
        "keras",
        "pytorch",
    )
    assert result.output.text == (
        "import torch.nn as nn\n"
        "stack = [nn.Linear(out_features=64), nn.ReLU()]"
    )


def test_unknown_callable_passes_through_with_warning():
    result = transpile_source(
        "import torch.nn as nn\nx = nn.Sigmoid()\n", "pytorch", "keras"
    )
    assert result.output.text == "from tensorflow.keras import layers\nx = nn.Sigmoid()"
    assert len(result.warnings) == 1
    assert "nn.Sigmoid" in result.warnings[0]


def test_empty_input_stays_empty():
    result = transpile_source("", "pytorch", "keras")
    assert result.output.text == ""


def test_unparseable_input_raises():
    with pytest.raises(ParseError):
        transpile_source("def broken(:\n", "pytorch", "keras")


def test_strict_mode_propagates_to_canonicalization():
    text = "import torch.nn as nn\nx = nn.Bogus(1)\n"
    transpile_source(text, "pytorch", "keras")  # lenient passes through
    with pytest.raises(UnknownCallableError):
        transpile_source(text, "pytorch", "keras", strict=True)


def test_dictionary_framework_validation():
    src_db = default_database("pytorch")
    tgt_db = default_database("keras")
    template = default_template("pytorch", "keras")
    unit = SourceUnit("x = 1", "pytorch")
    backwards = default_dictionary("keras", "pytorch")
    with pytest.raises(ConfigError):
        transpile_unit(unit, src_db, tgt_db, backwards, template)
    mismatched = KeywordDictionary("pytorch", "mxnet", 5.0, ())
    with pytest.raises(ConfigError):
        transpile_unit(unit, src_db, tgt_db, mismatched, template)


def test_backend_losing_a_placeholder_raises_mismatch(monkeypatch):
    def lossy(skel, tmpl, cfg):
        return skel.text.replace("PLACEHOLDER_2=", "lost=")

    monkeypatch.setattr("frameport.pipeline.transpile_skeleton", lossy)
    with pytest.raises(PlaceholderMismatch) as exc:
        transpile_source(
            "import torch.nn as nn\nfc = nn.Linear(4, 2)\n", "pytorch", "keras"
        )
    assert exc.value.missing == [2]
    assert exc.value.duplicate == [] and exc.value.extra == []


def test_fixture_lookup_errors():
    with pytest.raises(ConfigError):
        fixture_path("no_such_file.json")
    with pytest.raises(ConfigError):
        default_database("theano")
    with pytest.raises(ConfigError):
        default_dictionary("pytorch", "mxnet")  # pair ships without one


def _occ(kw, call_id):
    from frameport.canon import KeywordOccurrence

    return KeywordOccurrence(keyword=kw, span=(0, 1), context="", call_id=call_id)


def test_build_translations_routes_each_kind():
    dictionary = default_dictionary("keras", "pytorch")
    occs = [
        _occ(ApiKeyword("keras", CALLABLE, "layers.Dense"), call_id=0),
        _occ(ApiKeyword("keras", PARAMETER, "units", owner="layers.Dense"), call_id=0),
        _occ(ApiKeyword("keras", PARAMETER, "activation", owner="layers.Dense"), call_id=0),
        _occ(ApiKeyword("keras", CALLABLE, "layers.Mystery"), call_id=1),
    ]
    translations, warnings = build_translations(occs, dictionary)
    assert translations[1] == ["nn.Linear", "nn.ReLU()"]  # host + expansion
    assert translations[2] == ["out_features"]
    assert translations[3] == []  # the expanding slot itself empties
    assert translations[4] == ["layers.Mystery"]  # passthrough
    assert len(warnings) == 1 and "layers.Mystery" in warnings[0]


def test_build_translations_requires_a_captured_host():
    dictionary = default_dictionary("keras", "pytorch")
    alone = [
        _occ(ApiKeyword("keras", PARAMETER, "activation", owner="layers.Dense"), call_id=3),
    ]
    with pytest.raises(ExpansionContextError):
        build_translations(alone, dictionary)


def test_round_trip_preserves_call_structure():
    # pytorch -> keras -> pytorch comes back to the same canonical calls
    there = transpile_source(FIG_INPUT, "pytorch", "keras")
    back = transpile_source(there.output.text, "keras", "pytorch")
    assert "nn.Linear(out_features=64)" in back.output.text
    assert "def forward(self, x):" in back.output.text
    assert "class Net(nn.Module):" in back.output.text


def test_origin_is_carried_to_the_output():
    result = transpile_source(
        "import torch.nn as nn\nx = nn.ReLU()\n",
        "pytorch",
        "keras",
        origin="models.py:Net",
    )
    assert result.output.origin == "models.py:Net"
