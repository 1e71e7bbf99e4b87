"""Scoring: F1 over call bags, exact match, dictionary ranking metrics,
and the multi-seed evaluation harness.

Calls compare textually after canonicalization; there is no semantic
equivalence (``2*2`` never matches ``4``). Both F1 and EM come from one
canonical tree per side, and the harness canonicalizes each gold at most
once per suite. An eval-set record holds ``id`` and the strings
``src_framework``, ``tgt_framework``, ``source`` and ``gold``; other keys
are ignored. Ranking metrics restrict candidates to the
keyword's own kind and charge ties at the worst rank.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from frameport.atomic import write_text_atomic
from frameport.canon import (
    ApiKeyword,
    SignatureDatabase,
    SourceUnit,
    canonicalize,
)
from frameport.dictionary import ScoreMatrix, _values
from frameport.errors import ConfigError, FrameportError, ParseError, loading, reading
from frameport.keyword_dictionary import vocab_index

import ast


@dataclass(frozen=True)
class EvalExample:
    id: str
    src_framework: str
    tgt_framework: str
    source: str
    gold: str


def load_eval_set(path: str | Path) -> list[EvalExample]:
    """Parse the JSONL eval-set format.

    Each id names its example's artifact directory, so it must be a unique
    single path component."""
    examples = []
    seen: set[str] = set()
    with reading("eval set", path) as text:
        for ln, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            with loading("eval set", f"{path}:{ln}"):
                rec = json.loads(line)
                ex_id = str(rec["id"])
                if ex_id in ("", ".", "..") or "/" in ex_id or "\0" in ex_id:
                    raise ValueError(f"id {ex_id!r} is not a directory name")
                if ex_id in seen:
                    raise ValueError(f"id {ex_id!r} is repeated")
                seen.add(ex_id)
                fields = {
                    k: rec[k] for k in ("src_framework", "tgt_framework", "source", "gold")
                }
                for key, value in fields.items():
                    if not isinstance(value, str):
                        raise TypeError(f"{key} {value!r} is not a string")
                examples.append(EvalExample(id=ex_id, **fields))
    return examples


# -- call bags ---------------------------------------------------------------

Fingerprint = tuple[str, tuple[str, ...], tuple[tuple[str, str], ...]]


def _tree_call_bag(tree: ast.AST) -> Counter:
    """Multiset of call fingerprints in a canonical tree.

    A fingerprint is (callee text, positional value texts, sorted keyword
    (name, value text) pairs), so pre-canonical argument order never
    matters.
    """
    bag: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fp: Fingerprint = (
                ast.unparse(node.func),
                tuple(ast.unparse(a) for a in node.args),
                tuple(
                    sorted(
                        (kw.arg or "**", ast.unparse(kw.value))
                        for kw in node.keywords
                    )
                ),
            )
            bag[fp] += 1
    return bag


def _text_and_bag(unit: SourceUnit, db: SignatureDatabase) -> tuple[str, Counter]:
    """Canonical text and call bag of a unit, from one canonical tree."""
    tree = canonicalize(unit, db)
    return ast.unparse(tree), _tree_call_bag(tree)


def _bag_f1(pred_bag: Counter, gold_bag: Counter) -> float:
    """2*n_match / (n_pred + n_truth); 1.0 if both bags are empty."""
    n_pred = sum(pred_bag.values())
    n_truth = sum(gold_bag.values())
    if n_pred + n_truth == 0:
        return 1.0
    n_match = sum((pred_bag & gold_bag).values())
    return 2.0 * n_match / (n_pred + n_truth)


def _score(
    pred: SourceUnit, gold: tuple[str, Counter], db: SignatureDatabase
) -> tuple[float, bool]:
    """(F1, EM) of a prediction against a gold's canonical text and call
    bag; an unparseable prediction scores (0, False)."""
    try:
        pred_text, pred_bag = _text_and_bag(pred, db)
    except ParseError:
        return 0.0, False
    return _bag_f1(pred_bag, gold[1]), pred_text == gold[0]


# -- dictionary ranking metrics ----------------------------------------------


KeyTriple = tuple[str, str, str | None]


def _gold_ranks(
    scores: ScoreMatrix | np.ndarray,
    gold_pairs: Sequence[tuple[KeyTriple, KeyTriple]],
    vocab1: Sequence[ApiKeyword],
    vocab2: Sequence[ApiKeyword],
) -> list[float]:
    """Gold-pessimal rank of each resolvable gold pair among same-kind
    candidates: ties count against the gold target.

    Pairs missing from either vocab are left out; a gold target of another
    kind than its source ranks at infinity.
    """
    if not gold_pairs:
        raise ConfigError("no gold pairs to score")
    values = _values(scores)
    idx1, idx2 = vocab_index(vocab1), vocab_index(vocab2)
    kind_ids: dict[str, list[int]] = {}
    for kw in vocab2:
        kind_ids.setdefault(kw.kind, []).append(kw.id)
    kind_members = {kind: set(ids) for kind, ids in kind_ids.items()}
    ranks: list[float] = []
    # per kind: positions in ``ranks``, source rows and gold columns
    ranked: dict[str, tuple[list[int], list[int], list[int]]] = {}
    for src_key, tgt_key in gold_pairs:
        i = idx1.get(tuple(src_key))
        j = idx2.get(tuple(tgt_key))
        if i is None or j is None:
            continue
        ranks.append(float("inf"))
        if j in kind_members.get(src_key[0], ()):
            at, rows, golds = ranked.setdefault(src_key[0], ([], [], []))
            at.append(len(ranks) - 1)
            rows.append(i)
            golds.append(j)
    for kind, (at, rows, golds) in ranked.items():
        gold = values[rows, golds]
        beaten = values[np.ix_(rows, kind_ids[kind])] >= gold[:, None]
        for pos, rank in zip(at, beaten.sum(axis=1).tolist()):
            ranks[pos] = rank
    return ranks


def precision_at_k(
    scores: ScoreMatrix | np.ndarray,
    gold_pairs: Sequence[tuple[KeyTriple, KeyTriple]],
    vocab1: Sequence[ApiKeyword],
    vocab2: Sequence[ApiKeyword],
    k: int,
) -> float:
    """Fraction of gold sources whose target ranks in the top k among
    same-kind candidates. Pairs missing from either vocab count as misses.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    ranks = _gold_ranks(scores, gold_pairs, vocab1, vocab2)
    return sum(1 for r in ranks if r <= k) / len(gold_pairs)


def mrr(
    scores: ScoreMatrix | np.ndarray,
    gold_pairs: Sequence[tuple[KeyTriple, KeyTriple]],
    vocab1: Sequence[ApiKeyword],
    vocab2: Sequence[ApiKeyword],
) -> float:
    """Mean reciprocal gold-pessimal rank; missing pairs contribute 0."""
    ranks = _gold_ranks(scores, gold_pairs, vocab1, vocab2)
    return sum(1.0 / r for r in ranks) / len(gold_pairs)


# -- evaluation harness ------------------------------------------------------


@dataclass
class EvalReport:
    seeds: list[dict] = field(default_factory=list)
    mean: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"version": 1, "seeds": self.seeds, "mean": self.mean}

    def save(self, path: str | Path) -> None:
        write_text_atomic(path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def run_suite(
    transpile_fn: Callable[[EvalExample, int], str],
    examples: Sequence[EvalExample],
    dbs: Mapping[str, SignatureDatabase],
    seeds: Sequence[int] = (10, 20, 30, 40, 50),
    artifacts_dir: str | Path | None = None,
) -> EvalReport:
    """Score every example under every seed.

    A pipeline failure (placeholder mismatch, backend error, unparseable
    output) scores that example F1=0, EM=false instead of aborting. With
    ``artifacts_dir`` set, the first seed's predictions are written as
    ``{id}/pred.py`` next to a ``gold_test.py`` reference for an external
    execution harness.
    """
    report = EvalReport()
    if not examples:
        report.mean = {"f1": None, "em": None, "examples": 0}
        return report
    first_preds: dict[str, str] = {}
    # canonical gold text and call bag per example index, made at the
    # example's first successful prediction so an unparseable gold raises
    # only where scoring needs it
    golds: dict[int, tuple[str, Counter]] = {}
    for seed in seeds:
        rows = []
        for n, ex in enumerate(examples):
            tgt_db = dbs[ex.tgt_framework]
            error: str | None = None
            try:
                pred_text = transpile_fn(ex, seed)
            except FrameportError as exc:
                pred_text = ""
                error = f"{type(exc).__name__}: {exc}"
            if seed == seeds[0]:
                first_preds[ex.id] = pred_text
            row_f1, row_em = 0.0, False
            if error is None:
                if n not in golds:
                    golds[n] = _text_and_bag(
                        SourceUnit(ex.gold, ex.tgt_framework, f"{ex.id}:gold"), tgt_db
                    )
                pred_unit = SourceUnit(pred_text, ex.tgt_framework, f"{ex.id}:pred")
                row_f1, row_em = _score(pred_unit, golds[n], tgt_db)
            rows.append(
                {"id": ex.id, "f1": row_f1, "em": row_em, "error": error}
            )
        report.seeds.append(
            {
                "seed": seed,
                "examples": rows,
                "f1": sum(r["f1"] for r in rows) / len(rows),
                "em": sum(1 for r in rows if r["em"]) / len(rows),
            }
        )
    report.mean = {
        "f1": sum(s["f1"] for s in report.seeds) / len(report.seeds),
        "em": sum(s["em"] for s in report.seeds) / len(report.seeds),
        "examples": len(examples),
    }
    if artifacts_dir is not None:
        base = Path(artifacts_dir)
        for ex in examples:
            exdir = base / ex.id
            exdir.mkdir(parents=True, exist_ok=True)
            write_text_atomic(exdir / "pred.py", first_preds.get(ex.id, "") + "\n")
            write_text_atomic(
                exdir / "gold_test.py",
                f"# reference output for example {ex.id}; compare against pred.py\n"
                + ex.gold
                + "\n"
            )
    return report
