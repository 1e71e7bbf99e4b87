"""Scoring metrics against brute-force oracles, plus the multi-seed
evaluation harness."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import frameport.evaluate
from frameport.canon import CALLABLE, PARAMETER, ApiKeyword, SourceUnit
from frameport.errors import ConfigError, ParseError, PlaceholderMismatch
from frameport.evaluate import (
    EvalExample,
    call_bag,
    exact_match,
    f1,
    load_eval_set,
    mrr,
    precision_at_k,
    run_suite,
)
from frameport.pipeline import default_database

PT = default_database("pytorch")
KS = default_database("keras")


def _unit(text, fw="pytorch"):
    return SourceUnit(text, fw)


def test_call_bag_fingerprints_ignore_argument_spelling():
    a = call_bag(_unit("import torch.nn as nn\nx = nn.Linear(4, 2)\n"), PT)
    b = call_bag(_unit("import torch.nn as nn\nx = nn.Linear(out_features=2, in_features=4)\n"), PT)
    assert a == b and sum(a.values()) == 1
    ((name, args, kwargs),) = a.keys()
    assert name == "nn.Linear" and args == ()
    assert kwargs == (("in_features", "4"), ("out_features", "2"))


def test_call_bag_counts_duplicates():
    bag = call_bag(_unit("import torch.nn as nn\na = nn.ReLU()\nb = nn.ReLU()\n"), PT)
    assert sum(bag.values()) == 2 and len(bag) == 1


def test_f1_formula_matches_counter_intersection():
    pred = _unit(
        "import torch.nn as nn\n"
        "a = nn.ReLU()\nb = nn.Linear(1, 2)\nc = nn.Flatten()\n"
    )
    gold = _unit(
        "import torch.nn as nn\n"
        "a = nn.ReLU()\nb = nn.Linear(1, 3)\nd = nn.Dropout(0.5)\n"
    )
    got = f1(pred, gold, PT)
    inter = sum((call_bag(pred, PT) & call_bag(gold, PT)).values())
    n_pred = sum(call_bag(pred, PT).values())
    n_gold = sum(call_bag(gold, PT).values())
    assert math.isclose(got, 2 * inter / (n_pred + n_gold), rel_tol=1e-12)
    assert math.isclose(got, 2 * 1 / 6, rel_tol=1e-12)  # only nn.ReLU matches


def test_f1_no_semantic_equivalence():
    pred = _unit("import torch.nn as nn\nx = nn.Dropout(p=0.5)\n")
    gold = _unit("import torch.nn as nn\nx = nn.Dropout(p=1 / 2)\n")
    assert f1(pred, gold, PT) == 0.0


def test_f1_edge_cases():
    assert f1(_unit("x = 1"), _unit("y = 2"), PT) == 1.0  # both bags empty
    assert f1(_unit("def broken(:"), _unit("import torch.nn as nn\nx = nn.ReLU()\n"), PT) == 0.0
    assert f1(_unit(""), _unit("import torch.nn as nn\nx = nn.ReLU()\n"), PT) == 0.0


def test_exact_match_is_byte_equality_after_canonicalization():
    a = _unit("import torch.nn as nn\nfc = nn.Linear(4, 2)\n")
    b = _unit("import torch.nn as nn\nfc = nn.Linear(in_features=4, out_features=2)\n")
    assert exact_match(a, b, PT)
    c = _unit("import torch.nn as nn\nfc = nn.Linear(4, 3)\n")
    assert not exact_match(a, c, PT)
    assert not exact_match(_unit("def broken(:"), a, PT)


def _ranking_fixture():
    vocab1 = [
        ApiKeyword("a", CALLABLE, "f").with_id(0),
        ApiKeyword("a", PARAMETER, "p", owner="f").with_id(1),
        ApiKeyword("a", CALLABLE, "g").with_id(2),
    ]
    vocab2 = [
        ApiKeyword("b", CALLABLE, "F").with_id(0),
        ApiKeyword("b", PARAMETER, "q", owner="F").with_id(1),
        ApiKeyword("b", CALLABLE, "G").with_id(2),
        ApiKeyword("b", PARAMETER, "r", owner="G").with_id(3),
    ]
    gold = [
        ((CALLABLE, "f", None), (CALLABLE, "F", None)),
        ((PARAMETER, "p", "f"), (PARAMETER, "q", "F")),
        ((CALLABLE, "g", None), (CALLABLE, "G", None)),
    ]
    return vocab1, vocab2, gold


def test_precision_at_k_counts_same_kind_candidates_only():
    vocab1, vocab2, gold = _ranking_fixture()
    # rows: f, p, g; cols: F, q, G, r
    scores = np.array([
        [0.9, 99.0, 0.1, 99.0],   # parameter columns are noise for callables
        [99.0, 0.4, 99.0, 0.6],   # p ranks q second among {q, r}
        [0.8, 0.0, 0.2, 0.0],     # g's gold G ranks second among {F, G}
    ])
    assert precision_at_k(scores, gold, vocab1, vocab2, k=1) == pytest.approx(1 / 3)
    assert precision_at_k(scores, gold, vocab1, vocab2, k=2) == 1.0
    expected_mrr = (1 / 1 + 1 / 2 + 1 / 2) / 3
    assert mrr(scores, gold, vocab1, vocab2) == pytest.approx(expected_mrr)


def test_ranking_ties_charge_the_gold_pair():
    vocab1, vocab2, gold = _ranking_fixture()
    scores = np.zeros((3, 4))  # all ties: gold rank = number of candidates
    assert precision_at_k(scores, gold, vocab1, vocab2, k=1) == 0.0
    assert precision_at_k(scores, gold, vocab1, vocab2, k=2) == 1.0
    assert mrr(scores, gold, vocab1, vocab2) == pytest.approx(0.5)


def test_ranking_handles_missing_vocab_entries():
    vocab1, vocab2, gold = _ranking_fixture()
    gold = gold + [((CALLABLE, "ghost", None), (CALLABLE, "F", None))]
    scores = np.eye(3, 4) * 5
    p = precision_at_k(scores, gold, vocab1, vocab2, k=1)
    assert p == pytest.approx(3 / 4)  # the ghost pair is an automatic miss
    with pytest.raises(ConfigError):
        precision_at_k(scores, [], vocab1, vocab2, k=1)
    with pytest.raises(ConfigError):
        precision_at_k(scores, gold, vocab1, vocab2, k=0)
    with pytest.raises(ConfigError):
        mrr(scores, [], vocab1, vocab2)


def _per_pair_gold_ranks(values, gold_pairs, vocab1, vocab2):
    """Reference ranking: one membership scan and one gather per pair."""
    idx1 = {(kw.kind, kw.text, kw.owner): kw.id for kw in vocab1}
    idx2 = {(kw.kind, kw.text, kw.owner): kw.id for kw in vocab2}
    kind_ids = {}
    for kw in vocab2:
        kind_ids.setdefault(kw.kind, []).append(kw.id)
    kind_cols = {kind: np.asarray(ids) for kind, ids in kind_ids.items()}
    ranks = []
    for src_key, tgt_key in gold_pairs:
        i = idx1.get(tuple(src_key))
        j = idx2.get(tuple(tgt_key))
        if i is None or j is None:
            continue
        cands = kind_cols.get(src_key[0])
        if cands is None or j not in cands:
            ranks.append(float("inf"))
        else:
            ranks.append(int((values[i, cands] >= values[i, j]).sum()))
    return ranks


def test_gold_ranks_match_the_per_pair_ranking():
    rng = np.random.default_rng(12)
    kinds = [CALLABLE, PARAMETER]

    def keyword(framework, i):
        kind = kinds[int(rng.integers(2))]
        owner = "o" if kind == PARAMETER else None
        return ApiKeyword(framework, kind, f"k{i}", owner=owner).with_id(i)

    left_out = infinite = 0
    for trial in range(30):
        m1, m2 = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        vocab1 = [keyword("a", i) for i in range(m1)]
        vocab2 = [keyword("b", j) for j in range(m2)]
        values = rng.standard_normal((m1, m2))
        if trial % 2:
            values = np.round(values)  # ties
        gold = []
        for _ in range(int(rng.integers(1, 2 * m1 + 2))):
            src = vocab1[int(rng.integers(m1))]
            tgt = vocab2[int(rng.integers(m2))]
            src_key = (src.kind, src.text, src.owner)
            tgt_key = (tgt.kind, tgt.text, tgt.owner)
            roll = rng.random()
            if roll < 0.1:
                src_key = (src.kind, "missing", src.owner)
            elif roll < 0.2:
                tgt_key = (tgt.kind, "missing", tgt.owner)
            gold.append((src_key, tgt_key))
        got = frameport.evaluate._gold_ranks(values, gold, vocab1, vocab2)
        ref = _per_pair_gold_ranks(values, gold, vocab1, vocab2)
        assert got == ref
        assert [type(r) for r in got] == [type(r) for r in ref]
        left_out += len(gold) - len(got)
        infinite += got.count(float("inf"))
    assert left_out > 0 and infinite > 0  # missing pairs and cross-kind targets


def test_ranking_brute_force_on_random_matrices():
    rng = np.random.default_rng(11)
    m1, m2 = 8, 9
    vocab1 = [ApiKeyword("a", CALLABLE, f"c{i}").with_id(i) for i in range(m1)]
    vocab2 = [ApiKeyword("b", CALLABLE, f"d{j}").with_id(j) for j in range(m2)]
    for trial in range(20):
        scores = rng.standard_normal((m1, m2))
        if trial % 2:
            scores = np.round(scores)  # forced ties, charged to the gold pair
        gold = [
            ((CALLABLE, f"c{i}", None), (CALLABLE, f"d{int(rng.integers(m2))}", None))
            for i in range(m1)
        ]
        gold_ids = [int(t[1][1][1:]) for t in gold]
        for k in (1, 3, m2):
            hits = 0
            rr = 0.0
            for i, j in enumerate(gold_ids):
                rank = int(np.sum(scores[i] >= scores[i, j]))
                if rank <= k:
                    hits += 1
                if k == 1:
                    rr += 1.0 / rank
            assert precision_at_k(scores, gold, vocab1, vocab2, k=k) == pytest.approx(
                hits / m1, abs=1e-12
            )
            if k == 1:
                assert mrr(scores, gold, vocab1, vocab2) == pytest.approx(
                    rr / m1, abs=1e-12
                )


def test_load_eval_set_parses_records_and_pairs(tmp_path):
    path = tmp_path / "eval.jsonl"
    rec = {
        "id": "ex1",
        "src_framework": "pytorch",
        "tgt_framework": "keras",
        "source": "import torch.nn as nn\nx = nn.ReLU()\n",
        "gold": "from tensorflow.keras import layers\nx = layers.ReLU()\n",
        "gold_keyword_pairs": [
            [["callable", "nn.ReLU"], ["callable", "layers.ReLU"]],
            [["parameter", "p", "nn.Dropout"], ["parameter", "rate", "layers.Dropout"]],
        ],
    }
    path.write_text(json.dumps(rec) + "\n\n")
    examples = load_eval_set(path)
    assert len(examples) == 1
    ex = examples[0]
    # gold_keyword_pairs is not part of an example; the loader ignores it
    assert ex == EvalExample(
        "ex1", "pytorch", "keras", rec["source"], rec["gold"]
    )
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{oops\n")
    with pytest.raises(ConfigError):
        load_eval_set(bad)


def _examples():
    return [
        EvalExample(
            id="relu",
            src_framework="pytorch",
            tgt_framework="keras",
            source="import torch.nn as nn\nx = nn.ReLU()\n",
            gold="from tensorflow.keras import layers\nx = layers.ReLU()\n",
        ),
        EvalExample(
            id="dense",
            src_framework="pytorch",
            tgt_framework="keras",
            source="import torch.nn as nn\nx = nn.Linear(4, 2)\n",
            gold="from tensorflow.keras import layers\nx = layers.Dense(units=2)\n",
        ),
    ]


def test_run_suite_aggregates_and_writes_artifacts(tmp_path):
    examples = _examples()

    def perfect(ex, seed):
        return ex.gold

    report = run_suite(
        perfect, examples, {"keras": KS}, seeds=(1, 2), artifacts_dir=tmp_path / "art"
    )
    assert report.mean == {"f1": 1.0, "em": 1.0, "examples": 2}
    assert [s["seed"] for s in report.seeds] == [1, 2]
    assert (tmp_path / "art" / "relu" / "pred.py").read_text().startswith(
        "from tensorflow.keras import layers"
    )
    assert "reference output" in (tmp_path / "art" / "dense" / "gold_test.py").read_text()
    out = tmp_path / "report.json"
    report.save(out)
    doc = json.loads(out.read_text())
    assert doc["version"] == 1 and doc["mean"]["f1"] == 1.0


def test_run_suite_scores_failures_as_zero_with_reason():
    examples = _examples()

    def flaky(ex, seed):
        if ex.id == "dense":
            raise PlaceholderMismatch("placeholder check failed: missing [2]")
        return ex.gold

    report = run_suite(flaky, examples, {"keras": KS}, seeds=(7,))
    rows = {r["id"]: r for r in report.seeds[0]["examples"]}
    assert rows["relu"]["f1"] == 1.0 and rows["relu"]["error"] is None
    assert rows["dense"]["f1"] == 0.0 and not rows["dense"]["em"]
    assert rows["dense"]["error"].startswith("PlaceholderMismatch")
    assert report.mean["f1"] == 0.5


def test_run_suite_empty_set():
    report = run_suite(lambda ex, seed: "", [], {"keras": KS})
    assert report.mean == {"f1": None, "em": None, "examples": 0}
    assert report.seeds == []


def test_run_suite_scores_wrong_but_parseable_output():
    examples = _examples()[:1]

    def wrong(ex, seed):
        return "from tensorflow.keras import layers\nx = layers.Softmax()\n"

    report = run_suite(wrong, examples, {"keras": KS}, seeds=(3,))
    row = report.seeds[0]["examples"][0]
    assert row["f1"] == 0.0 and row["em"] is False and row["error"] is None


def test_run_suite_canonicalizes_each_prediction_once_and_each_gold_once(monkeypatch):
    examples = _examples()
    seeds = (1, 2, 3)
    real = frameport.evaluate.canonical_tree
    calls = []

    def counting(unit, db, strict=False):
        calls.append(unit.origin)
        return real(unit, db, strict)

    monkeypatch.setattr(frameport.evaluate, "canonical_tree", counting)
    report = run_suite(lambda ex, seed: ex.gold, examples, {"keras": KS}, seeds=seeds)
    assert report.mean["f1"] == 1.0 and report.mean["em"] == 1.0
    assert len(calls) == 2 * len(examples)
    assert sorted(o for o in calls if o.endswith(":gold")) == ["dense:gold", "relu:gold"]


def test_run_suite_unparseable_gold_raises_only_when_scored():
    bad = [replace(_examples()[0], gold="def broken(:")]

    def failing(ex, seed):
        raise PlaceholderMismatch("placeholder check failed")

    report = run_suite(failing, bad, {"keras": KS}, seeds=(1, 2))
    assert report.mean["f1"] == 0.0
    with pytest.raises(ParseError):
        run_suite(lambda ex, seed: "x = 1\n", bad, {"keras": KS}, seeds=(1,))
