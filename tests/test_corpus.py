"""Corpus ingestion: file filters, notebooks, dedup, vocabulary ids,
and on-disk round trips."""

from __future__ import annotations

import ast
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from frameport.canon import CALLABLE, PARAMETER, SourceUnit, extract_keywords, parse_source
from frameport.corpus import (
    CorpusManifest,
    build_vocab,
    extract_occurrences,
    ingest,
    load_corpus,
    notebook_extract,
    save_corpus,
    vocab_keywords,
)
from frameport.pipeline import default_database
from helpers import HAND_WRITTEN_UNIT, KS_FILE, PT_FILE, fuzz_pytorch_unit

PT = default_database("pytorch")
KS = default_database("keras")
DBS = {"pytorch": PT, "keras": KS}

PT_CLASS = (
    "import torch.nn as nn\n\n"
    "class Net(nn.Module):\n"
    "    def __init__(self):\n"
    "        super().__init__()\n"
    "        self.fc = nn.Linear(4, 2)\n"
)
KS_CLASS = (
    "from tensorflow.keras import layers\n\n"
    "class Head(layers.Layer):\n"
    "    def call(self, x):\n"
    "        return layers.Dense(3)(x)\n"
)


def _tree(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(PT_CLASS)
    (tmp_path / "sub" / "b.py").write_text(KS_CLASS)
    (tmp_path / "sub" / "dup.py").write_text(PT_CLASS)  # same class text
    (tmp_path / "plain.py").write_text("x = 1\n")  # no marker
    (tmp_path / "broken.py").write_text("import torch\ndef oops(:\n")
    (tmp_path / "script.py").write_text("import torch\nx = 1\n")  # no classes
    (tmp_path / "notes.txt").write_text("torch torch torch")
    return tmp_path


def test_ingest_collects_filters_and_dedups(tmp_path, caplog):
    root = _tree(tmp_path)
    result = ingest([root], DBS)
    assert [u.origin for u in result.units["pytorch"]] == [f"{root}/a.py:Net"]
    assert len(result.units["keras"]) == 1
    reasons = dict(result.skipped)
    assert reasons[f"{root}/plain.py"] == "no framework marker"
    assert reasons[f"{root}/script.py"] == "no framework classes"
    with pytest.raises(SyntaxError) as err:
        ast.parse("import torch\ndef oops(:\n")
    assert reasons[f"{root}/broken.py"] == (
        f"does not parse: {root}/broken.py: {err.value}"
    )
    assert caplog.records == []
    assert f"{root}/notes.txt" not in reasons  # filtered before reading
    stats = result.manifest.frameworks["pytorch"]
    assert stats.unit_count == 1
    assert len(stats.content_hash) == 64


def test_ingest_is_deterministic(tmp_path):
    root = _tree(tmp_path)
    a = ingest([root], DBS)
    b = ingest([root], DBS)
    assert a.manifest.to_dict() == b.manifest.to_dict()
    assert [u.text for u in a.units["pytorch"]] == [
        u.text for u in b.units["pytorch"]
    ]


def test_ingest_size_cap_and_exclude(tmp_path):
    root = _tree(tmp_path)
    big = root / "big.py"
    big.write_text("import torch\n" + "# pad\n" * 200)
    result = ingest([root], DBS, size_cap=64)
    reasons = dict(result.skipped)
    assert reasons[str(big)].startswith("size ")
    result = ingest([root], DBS, exclude=("*sub*",))
    assert result.units["keras"] == []
    assert len(result.units["pytorch"]) == 1  # a.py survives, dup.py excluded


def test_ingest_accepts_single_files_and_custom_markers(tmp_path):
    f = tmp_path / "one.py"
    f.write_text(PT_CLASS)
    result = ingest([f], {"pytorch": PT})
    assert len(result.units["pytorch"]) == 1
    result = ingest([f], {"pytorch": PT}, markers=("no-such-marker",))
    assert result.units["pytorch"] == []


def test_notebook_cells_are_concatenated_without_magics(tmp_path):
    nb = {
        "cells": [
            {"cell_type": "markdown", "source": ["# title\n"]},
            {"cell_type": "code", "source": ["%matplotlib inline\n", "import torch.nn as nn\n"]},
            {"cell_type": "code", "source": "!pip install x\nclass Net(nn.Module):\n    pass\n"},
        ]
    }
    text = notebook_extract(json.dumps(nb))
    assert "%matplotlib" not in text and "!pip" not in text
    assert "import torch.nn as nn" in text and "class Net" in text
    path = tmp_path / "model.ipynb"
    path.write_text(json.dumps(nb))
    result = ingest([path], {"pytorch": PT})
    assert len(result.units["pytorch"]) == 1
    bad = tmp_path / "bad.ipynb"
    bad.write_text("torch {not json")
    result = ingest([bad], {"pytorch": PT})
    assert dict(result.skipped)[str(bad)].startswith("bad notebook")


def _vocab_of_texts(units, db):
    """The vocabulary of the keywords ``extract_keywords`` finds in each
    unit's text, parsed again."""
    counts = Counter()
    for u in units:
        tree = parse_source(u.text, u.origin or "<unit>")
        counts.update(site.keyword for site in extract_keywords(tree, db))
    return build_vocab(counts)


def test_vocab_orders_by_count_then_kind_then_text():
    units = [
        SourceUnit(
            "import torch.nn as nn\n"
            "a = nn.ReLU()\nb = nn.ReLU()\nc = nn.Linear(in_features=1)\n",
            "pytorch",
        )
    ]
    vocab = _vocab_of_texts(units, PT)
    assert [(e.keyword.kind, e.keyword.text, e.count) for e in vocab] == [
        (CALLABLE, "nn.ReLU", 2),
        (CALLABLE, "nn.Linear", 1),
        (PARAMETER, "in_features", 1),
    ]
    assert [e.keyword.id for e in vocab] == [0, 1, 2]
    assert [k.id for k in vocab_keywords(vocab)] == [0, 1, 2]


def test_vocab_breaks_count_ties_lexicographically():
    units = [
        SourceUnit("import torch.nn as nn\nz = nn.Softmax(dim=1)\na = nn.Flatten()\n", "pytorch")
    ]
    vocab = _vocab_of_texts(units, PT)
    texts = [e.keyword.text for e in vocab]
    assert texts == ["nn.Flatten", "nn.Softmax", "dim"]  # callables first, a-z


def _vocab_records(vocab):
    return [(e.keyword.id, e.keyword.kind, e.keyword.text, e.keyword.owner, e.count)
            for e in vocab]


def test_vocab_from_the_class_trees_equals_the_vocab_of_the_unit_texts(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    rng = np.random.default_rng(25)
    files = {"hand.py": HAND_WRITTEN_UNIT, "pt.py": PT_FILE, "ks.py": KS_FILE}
    files.update((f"fuzz{i}.py", fuzz_pytorch_unit(rng)) for i in range(40))
    gen.write_tree(tmp_path / "helpers", files)
    gen.write_tree(tmp_path / "gen", gen.corpus_files(101, 30))
    for root in ("helpers", "gen"):
        result = ingest([tmp_path / root], DBS)
        for fw, db in DBS.items():
            units = result.units[fw]
            assert units
            # ingest counts on the class trees; the reference parses each
            # unit's text
            assert _vocab_records(result.manifest.frameworks[fw].vocabulary) == (
                _vocab_records(_vocab_of_texts(units, db))
            )


def test_extract_occurrences_tags_unit_refs():
    units = [
        SourceUnit("import torch.nn as nn\nx = nn.ReLU()\n", "pytorch"),
        SourceUnit("import torch.nn as nn\ny = nn.Flatten()\n", "pytorch"),
    ]
    occs = extract_occurrences(units, PT, "pytorch")
    assert [o.unit_ref for o in occs] == ["pytorch:0", "pytorch:1"]
    assert [o.keyword.text for o in occs] == ["nn.ReLU", "nn.Flatten"]


def test_save_and_load_round_trip(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    root = _tree(src)
    result = ingest([root], DBS)
    out = tmp_path / "corpus"
    save_corpus(out, result)
    assert (out / "manifest.json").exists()
    assert (out / "units_pytorch.jsonl").exists()
    assert (out / "skipped.jsonl").exists()
    back = load_corpus(out)
    assert back.manifest.to_dict() == result.manifest.to_dict()
    assert back.units["pytorch"] == result.units["pytorch"]
    assert back.units["keras"] == result.units["keras"]


def test_manifest_round_trip_rebuilds_keyword_ids(tmp_path):
    root = _tree(tmp_path)
    manifest = ingest([root], DBS).manifest
    doc = manifest.to_dict()
    assert doc["version"] == 1
    back = CorpusManifest.from_dict(doc)
    for fw, stats in manifest.frameworks.items():
        got = back.frameworks[fw]
        assert got.unit_count == stats.unit_count
        assert got.content_hash == stats.content_hash
        assert [
            (e.keyword.id, e.keyword.kind, e.keyword.text, e.keyword.owner, e.count)
            for e in got.vocabulary
        ] == [
            (e.keyword.id, e.keyword.kind, e.keyword.text, e.keyword.owner, e.count)
            for e in stats.vocabulary
        ]


def test_reingest_after_save_is_idempotent(tmp_path):
    root = _tree(tmp_path)
    first = ingest([root], DBS)
    # canonical unit text re-ingests to the same canonical text (the
    # marker comment is needed because the cut-out class drops imports)
    unit = first.units["pytorch"][0]
    f = tmp_path / "canon.py"
    f.write_text("# torch\n" + unit.text + "\n")
    again = ingest([f], {"pytorch": PT})
    assert again.units["pytorch"][0].text == unit.text
