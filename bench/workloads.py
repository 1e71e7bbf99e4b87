"""The three benchmark workloads.

Each workload has untimed ``prepare`` (writes its inputs), ``before`` (the
inputs of one op), a timed ``run`` and an untimed ``check``. ``instrument``
installs the tracing wrappers for one op, and ``layer_metrics`` turns a
trace summary into the per-layer numbers. Every workload reports every
per-layer metric; a layer it never reaches reads 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import frameport.cli
import frameport.corpus
import frameport.dictionary
import frameport.evaluate
import frameport.llm
import frameport.nn
import frameport.pipeline
import frameport.train
from frameport.canon import ApiKeyword, ApiSignature, SignatureDatabase
from frameport.corpus import load_corpus, vocab_keywords
from frameport.dictionary import COSINE, dictionary_pairs, score_matrix
from frameport.evaluate import mrr, precision_at_k
from frameport.pipeline import default_dictionary
from frameport.train import TrainConfig, load_checkpoint

import gen
from spans import Summary, Tracer


class OpFailed(Exception):
    """An op returned a non-zero exit code or produced a wrong output."""


def gold_p_at_1(values: np.ndarray, gold_ids, tgt_kinds: list[str]) -> float:
    """P@1 computed without frameport: rank among same-kind targets, ties
    counted against the gold target, unresolved pairs counted as misses."""
    kinds = np.asarray(tgt_kinds)
    hits = 0
    for i, j, kind in gold_ids:
        if i < 0 or j < 0 or kinds[j] != kind:
            continue
        row = values[i, kinds == kind]
        if int(np.sum(row >= values[i, j])) <= 1:
            hits += 1
    return hits / len(gold_ids)


def _gold_ids(pairs, vocab1, vocab2):
    idx1 = {(k.kind, k.text, k.owner): k.id for k in vocab1}
    idx2 = {(k.kind, k.text, k.owner): k.id for k in vocab2}
    return [
        (idx1.get(tuple(s), -1), idx2.get(tuple(t), -1), s[0]) for s, t in pairs
    ]


def _cli(argv: list[str], sink: io.StringIO) -> None:
    """Run one command in process; its stdout and stderr go to ``sink``."""
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = frameport.cli.main(argv)
    if rc != 0:
        raise OpFailed(f"{argv[0]} exited {rc}: {sink.getvalue()[-300:]}")


# -- per-layer metrics ------------------------------------------------------------

# name -> unit, in report order; every workload reports all of them
LAYER_UNITS = {
    # transpile path (canon, skeleton, llm, dictionary lookups, pipeline)
    "canon.canonicalize_src_ms": "ms/op",
    "canon.canonicalize_tgt_ms": "ms/op",
    "canon.extract_keywords_ms": "ms/op",
    "canon.ast_parses_per_unit": "count/unit",
    "canon.ast_unparses_per_unit": "count/unit",
    "skeleton.to_skeleton_ms": "ms/op",
    "skeleton.validate_ms": "ms/op",
    "skeleton.reinsert_ms": "ms/op",
    "llm.backend_ms": "ms/op",
    "llm.prompt_bytes": "bytes/unit",
    "dictionary.lookup_ms": "ms/op",
    "pipeline.fixture_load_ms": "ms/op",
    "pipeline.fixture_loads": "count/op",
    "pipeline.keywords_per_unit": "count/unit",
    "pipeline.unmapped_keywords": "count/unit",
    "pipeline.placeholder_mismatches": "count/unit",
    # learning commands (cli, corpus, embeddings, evaluate)
    "cli.ingest_s": "s/op",
    "cli.train_s": "s/op",
    "cli.dict_s": "s/op",
    "cli.eval_s": "s/op",
    "corpus.extract_classes_ms": "ms/file",
    "corpus.build_vocab_s": "s/op",
    "corpus.extract_occurrences_s": "s/op",
    "corpus.save_s": "s/op",
    "corpus.load_s": "s/op",
    "corpus.files_seen": "count/op",
    "corpus.files_skipped": "count/op",
    "corpus.ast_parses_per_file": "count/file",
    "embeddings.embed_s": "s/op",
    "evaluate.run_suite_s": "s/op",
    "evaluate.transpile_calls": "count/op",
    "train.checkpoint_write_ms": "ms/call",
    # training step (train, nn)
    "train.step_ms": "ms/step",
    "train.samples_per_s": "1/s",
    "nn.forward_ms": "ms/step",
    "nn.backward_ms": "ms/step",
    "nn.adam_ms": "ms/step",
    "nn.forward_calls_per_step": "count/step",
    "nn.backward_calls_per_step": "count/step",
    # checkpoint selection (train, dictionary, evaluate)
    "train.select_ms": "ms/checkpoint",
    "train.checkpoints": "count/op",
    "dictionary.generate_ms": "ms/call",
    "dictionary.generate_calls": "count/op",
    "dictionary.group_similarity_calls": "count/op",
    "dictionary.score_matrix_ms": "ms/call",
    "evaluate.rank_ms": "ms/checkpoint",
    # quality read back from the evaluate layer's outputs
    "evaluate.learn_p_at_1": "frac",
    "evaluate.learn_eval_f1": "frac",
    "evaluate.learn_eval_em": "frac",
    "evaluate.align_p_at_1": "frac",
    "evaluate.align_mrr": "frac",
}


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def layer_metrics(s: Summary, n_ops: int) -> dict[str, float]:
    """Per-layer numbers from a trace of ``n_ops`` ops (see LAYER_UNITS)."""
    ms = 1000.0
    units = s.calls.get("pipeline.transpile_unit", 0)
    steps = s.calls.get("train.step", 0)
    checkpoints = s.calls.get("train.select", 0)
    files = s.counters.get("corpus.files_seen", 0)

    def per_op(name: str, scale: float = 1.0) -> float:
        return _per(s.total.get(name, 0.0) * scale, n_ops)

    def per_call(name: str) -> float:
        return _per(s.total.get(name, 0.0) * ms, s.calls.get(name, 0))

    def in_step(name: str) -> float:
        return _per(s.within_time.get(("train.step", name), 0.0) * ms, steps)

    def in_unit(counter: str) -> float:
        return _per(s.within.get(("pipeline.transpile_unit", counter), 0), units)

    return {
        "canon.canonicalize_src_ms": per_op("canon.canonicalize_src", ms),
        "canon.canonicalize_tgt_ms": per_op("canon.canonicalize_tgt", ms),
        "canon.extract_keywords_ms": per_op("canon.extract_keywords", ms),
        "canon.ast_parses_per_unit": in_unit("ast.parse"),
        "canon.ast_unparses_per_unit": in_unit("ast.unparse"),
        "skeleton.to_skeleton_ms": per_op("skeleton.to_skeleton", ms),
        "skeleton.validate_ms": per_op("skeleton.validate", ms),
        "skeleton.reinsert_ms": per_op("skeleton.reinsert", ms),
        "llm.backend_ms": per_op("llm.backend", ms),
        "llm.prompt_bytes": in_unit("llm.prompt_bytes"),
        "dictionary.lookup_ms": per_op("dictionary.lookup", ms),
        "pipeline.fixture_load_ms": per_op("pipeline.fixture_load", ms),
        "pipeline.fixture_loads": _per(s.calls.get("pipeline.fixture_load", 0), n_ops),
        "pipeline.keywords_per_unit": in_unit("pipeline.keywords"),
        "pipeline.unmapped_keywords": in_unit("pipeline.unmapped_keywords"),
        "pipeline.placeholder_mismatches": in_unit("pipeline.placeholder_mismatches"),
        "cli.ingest_s": per_op("cli.ingest"),
        "cli.train_s": per_op("cli.train"),
        "cli.dict_s": per_op("cli.dict"),
        "cli.eval_s": per_op("cli.eval"),
        "corpus.extract_classes_ms": per_call("corpus.extract_classes"),
        "corpus.build_vocab_s": per_op("corpus.build_vocab"),
        "corpus.extract_occurrences_s": per_op("corpus.extract_occurrences"),
        "corpus.save_s": per_op("corpus.save"),
        "corpus.load_s": per_op("corpus.load"),
        "corpus.files_seen": _per(files, n_ops),
        "corpus.files_skipped": _per(s.counters.get("corpus.files_skipped", 0), n_ops),
        "corpus.ast_parses_per_file": _per(
            s.within.get(("corpus.ingest", "ast.parse"), 0), files
        ),
        "embeddings.embed_s": per_op("embeddings.embed"),
        "evaluate.run_suite_s": per_op("evaluate.run_suite"),
        "evaluate.transpile_calls": _per(
            s.within.get(("evaluate.run_suite", "pipeline.transpile_unit"), 0), n_ops
        ),
        "train.checkpoint_write_ms": per_call("train.checkpoint_write"),
        "train.step_ms": per_call("train.step"),
        "train.samples_per_s": _per(
            s.counters.get("train.samples", 0), s.total.get("train.step", 0.0)
        ),
        "nn.forward_ms": in_step("nn.forward"),
        "nn.backward_ms": in_step("nn.backward"),
        "nn.adam_ms": in_step("nn.adam"),
        "nn.forward_calls_per_step": _per(s.within.get(("train.step", "nn.forward"), 0), steps),
        "nn.backward_calls_per_step": _per(
            s.within.get(("train.step", "nn.backward"), 0), steps
        ),
        "train.select_ms": per_call("train.select"),
        "train.checkpoints": _per(checkpoints, n_ops),
        "dictionary.generate_ms": per_call("dictionary.generate"),
        "dictionary.generate_calls": _per(s.calls.get("dictionary.generate", 0), n_ops),
        "dictionary.group_similarity_calls": _per(
            s.counters.get("dictionary.group_similarity", 0), n_ops
        ),
        "dictionary.score_matrix_ms": per_call("dictionary.score_matrix"),
        "evaluate.rank_ms": _per(
            s.within_time.get(("train.select", "evaluate.rank"), 0.0) * ms, checkpoints
        ),
    }


def instrument_transpile_path(tracer: Tracer) -> None:
    """Spans along the per-unit path, shared by transpile and eval."""
    cli, pipeline = frameport.cli, frameport.pipeline
    for attr in ("default_database", "default_dictionary", "default_template"):
        tracer.wrap(cli, attr, "pipeline.fixture_load")
    tracer.wrap(cli, "transpile_unit", "pipeline.transpile_unit")

    canon_calls: dict[int, int] = {}

    def canon_name(parent) -> str:
        # transpile_unit canonicalizes the source first, the target last
        key = parent[0] if parent else -1
        canon_calls[key] = canon_calls.get(key, 0) + 1
        return "canon.canonicalize_src" if canon_calls[key] == 1 else "canon.canonicalize_tgt"

    tracer.wrap(pipeline, "canonicalize", canon_name)
    tracer.wrap(
        pipeline,
        "extract_keywords",
        "canon.extract_keywords",
        after=lambda t, r, a, k: t.add("pipeline.keywords", len(r)),
    )
    tracer.wrap(pipeline, "to_skeleton", "skeleton.to_skeleton")
    tracer.wrap(pipeline, "transpile_skeleton", "llm.backend")
    tracer.count(
        frameport.llm, "render_prompt", "llm.prompt_bytes", lambda r: len(r.encode())
    )
    tracer.wrap(
        pipeline,
        "validate_placeholders",
        "skeleton.validate",
        after=lambda t, r, a, k: t.add("pipeline.placeholder_mismatches", 0 if r.ok else 1),
    )
    tracer.wrap(
        pipeline,
        "build_translations",
        "pipeline.build_translations",
        after=lambda t, r, a, k: t.add("pipeline.unmapped_keywords", len(r[1])),
    )
    tracer.wrap(pipeline, "lookup", "dictionary.lookup")
    tracer.wrap(pipeline, "reinsert", "skeleton.reinsert")
    tracer.count(ast, "parse", "ast.parse")
    tracer.count(ast, "unparse", "ast.unparse")


def instrument_training(tracer: Tracer) -> None:
    """Spans inside train.train: steps, their nn calls, and selection."""
    tracer.wrap(
        frameport.train,
        "train_step",
        "train.step",
        after=lambda t, r, a, k: t.add("train.samples", len(a[1].h1) + len(a[1].h2)),
        step=True,
    )
    tracer.wrap(frameport.nn, "forward", "nn.forward")
    tracer.wrap(frameport.nn, "backward", "nn.backward")
    tracer.wrap(frameport.nn, "adam_step", "nn.adam")
    tracer.wrap(frameport.dictionary, "score_matrix", "dictionary.score_matrix")
    tracer.count(frameport.dictionary, "group_similarity", "dictionary.group_similarity")


# -- transpile-mix ------------------------------------------------------------------


class TranspileMix:
    """Closed loop of one caller: one ``transpile`` command per unit."""

    name = "transpile-mix"
    # at least ten samples beyond the p99 of op latency
    min_ops = 1100

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.sink = io.StringIO()
        self.src = work / "unit_in.py"
        self.out = work / "unit_out.py"
        self.matched = 0
        self.checked = 0

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        # one warm-up unit from outside the measured stream
        unit = gen.transpile_unit(self.seed, 10**9)
        self.run(0, self.before_unit(unit))

    def before_unit(self, unit: gen.TranspileUnit) -> gen.TranspileUnit:
        self.src.write_text(unit.source, encoding="utf-8")
        self.out.unlink(missing_ok=True)
        self.sink.seek(0)
        self.sink.truncate()
        return unit

    def before(self, i: int) -> gen.TranspileUnit:
        return self.before_unit(gen.transpile_unit(self.seed, i))

    def run(self, i: int, unit: gen.TranspileUnit) -> None:
        _cli(
            [
                "transpile",
                "--from", unit.src_framework,
                "--to", unit.tgt_framework,
                "--input", str(self.src),
                "--output", str(self.out),
            ],
            self.sink,
        )

    def check(self, i: int, unit: gen.TranspileUnit) -> None:
        self.checked += 1
        got = self.out.read_bytes()
        if got != (unit.expected + "\n").encode("utf-8"):
            raise OpFailed(f"unit {i} ({unit.name}): output differs from the table")
        self.matched += 1

    def instrument(self, tracer: Tracer) -> None:
        tracer.wrap(frameport.cli, "cmd_transpile", "cli.transpile")
        instrument_transpile_path(tracer)

    def quality(self) -> dict[str, float]:
        return {"transpile_em": _per(self.matched, self.checked)}

    primary = "transpile_em"
    workload_names = {
        "op_p50_ms": ("transpile_p50_ms", 1.0, "ms"),
        "op_p99_ms": ("transpile_p99_ms", 1.0, "ms"),
        "ops_per_s": ("transpile_units_per_s", 1.0, "1/s"),
    }


# -- learn-corpus ----------------------------------------------------------------------


class LearnCorpus:
    """ingest -> train --provider hash -> dict -> eval, as a user runs them."""

    name = "learn-corpus"
    min_ops = 1
    files_per_side = 12
    eval_examples = 12
    train_args = [
        "--provider", "hash",
        "--total-samples", "32000",
        "--checkpoint-every", "100",
    ]

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.sink = io.StringIO()
        self.results: list[tuple[float, float, float]] = []
        self.gold_pairs = dictionary_pairs(default_dictionary("pytorch", "keras"))

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        # one warm-up pass on inputs outside the measured stream
        warm = 10**9
        self.run(warm, self.before(warm))
        shutil.rmtree(self.work / f"pass{warm}")

    def before(self, i: int) -> tuple[Path, list[dict]]:
        """A fresh directory with pass ``i``'s own tree and eval suite."""
        d = self.work / f"pass{i}"
        shutil.rmtree(d, ignore_errors=True)
        (d / "dicts").mkdir(parents=True)
        gen.write_tree(d / "tree", gen.corpus_files(self.seed, self.files_per_side, i))
        examples = gen.eval_examples(self.seed, self.eval_examples, i)
        gen.write_eval_set(d / "evalset.jsonl", examples)
        self.sink.seek(0)
        self.sink.truncate()
        return d, examples

    def run(self, i: int, inputs: tuple[Path, list[dict]]) -> None:
        d = inputs[0]
        pair = ["--src-framework", "pytorch", "--tgt-framework", "keras"]
        _cli(
            ["ingest", "--root", str(d / "tree"), "--out", str(d / "corpus"),
             "--framework", "pytorch", "--framework", "keras"],
            self.sink,
        )
        _cli(
            ["train", "--corpus", str(d / "corpus"), *pair, "--out", str(d / "run"),
             *self.train_args],
            self.sink,
        )
        _cli(
            ["dict", "--checkpoint", str(d / "run" / "checkpoint_best.json"),
             "--corpus", str(d / "corpus"), *pair,
             "--out", str(d / "dicts" / "dict_pytorch_keras.json")],
            self.sink,
        )
        _cli(
            ["eval", "--eval-set", str(d / "evalset.jsonl"),
             "--out", str(d / "eval"), "--dictionary-dir", str(d / "dicts")],
            self.sink,
        )

    def check(self, i: int, inputs: tuple[Path, list[dict]]) -> None:
        d, examples = inputs
        try:
            report = json.loads((d / "eval" / "report.json").read_text())
            f1, em = float(report["mean"]["f1"]), float(report["mean"]["em"])
            # EM recomputed from the predictions eval wrote and the gold text
            # the generator built
            own = [
                (d / "eval" / "artifacts" / ex["id"] / "pred.py").read_text()
                == ex["gold"] + "\n"
                for ex in examples
            ]
            if abs(em - sum(own) / len(own)) > 1e-12:
                raise OpFailed(f"pass {i}: report em {em} but predictions give {sum(own)}/{len(own)}")
            state = load_checkpoint(d / "run" / "checkpoint_best.json")
            corpus = load_corpus(d / "corpus")
            vocab1 = vocab_keywords(corpus.manifest.frameworks["pytorch"].vocabulary)
            vocab2 = vocab_keywords(corpus.manifest.frameworks["keras"].vocabulary)
            scores = score_matrix(*state.model.output_embeddings, COSINE)
            p1 = precision_at_k(scores, self.gold_pairs, vocab1, vocab2, 1)
            own_p1 = gold_p_at_1(
                scores.values,
                _gold_ids(self.gold_pairs, vocab1, vocab2),
                [k.kind for k in vocab2],
            )
            if p1 != own_p1:
                raise OpFailed(f"pass {i}: precision_at_k {p1} but direct ranking {own_p1}")
            if self.results and self.results[0] != (p1, f1, em):
                raise OpFailed(f"pass {i}: quality {(p1, f1, em)} differs from pass 0")
            self.results.append((p1, f1, em))
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def instrument(self, tracer: Tracer) -> None:
        cli, corpus = frameport.cli, frameport.corpus
        for cmd in ("ingest", "train", "dict", "eval"):
            tracer.wrap(cli, f"cmd_{cmd}", f"cli.{cmd}")
        tracer.wrap(
            cli,
            "ingest",
            "corpus.ingest",
            after=lambda t, r, a, k: t.add("corpus.files_skipped", len(r.skipped)),
        )
        tracer.count(corpus, "_iter_files", "corpus.files_seen", len)
        tracer.wrap(corpus, "extract_module_classes", "corpus.extract_classes")
        tracer.wrap(corpus, "build_vocab", "corpus.build_vocab")
        tracer.wrap(cli, "save_corpus", "corpus.save")
        tracer.wrap(cli, "load_corpus", "corpus.load")
        tracer.wrap(cli, "extract_occurrences", "corpus.extract_occurrences")
        tracer.wrap(cli, "embed_batch", "embeddings.embed")
        tracer.wrap(cli, "train", "train.train")
        tracer.wrap_returned(cli, "_make_selector", "train.select")
        tracer.wrap(cli, "generate_dictionary", "dictionary.generate")
        tracer.wrap(cli, "save_checkpoint", "train.checkpoint_write")
        tracer.wrap(cli, "run_suite", "evaluate.run_suite")
        instrument_training(tracer)
        instrument_transpile_path(tracer)

    def quality(self) -> dict[str, float]:
        p1, f1, em = self.results[0] if self.results else (0.0, 0.0, 0.0)
        return {"learn_p_at_1": p1, "learn_eval_f1": f1, "learn_eval_em": em}

    primary = "learn_eval_f1"
    workload_names = {"op_p50_ms": ("learn_s", 0.001, "s")}


# -- align-large-vocab ---------------------------------------------------------------


class AlignLargeVocab:
    """train.train on rotated clusters, with MUSE-style selection."""

    name = "align-large-vocab"
    min_ops = 1
    groups = 300
    dim = 32
    occurrences = 20
    sigma = 0.1
    theta_deg = 15.0
    config = dict(
        total_samples=25600, batch_size=128, peak_lr=2e-2, seed=10, checkpoint_every=100
    )

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.results: list[tuple[float, float]] = []
        self.checkpoint_p1: list[float] = []

    def prepare(self) -> None:
        self.data = gen.alignment_data(
            self.seed, self.groups, self.dim, self.occurrences, self.sigma, self.theta_deg
        )
        self.vocab1 = self._vocab(self.data.vocab1, "synthf")
        self.vocab2 = self._vocab(self.data.vocab2, "synthg")
        self.db1 = self._database(self.vocab1, "synthf")
        self.db2 = self._database(self.vocab2, "synthg")
        self.gold_ids = _gold_ids(self.data.gold, self.vocab1, self.vocab2)

    @staticmethod
    def _vocab(keywords, framework: str) -> list[ApiKeyword]:
        return [
            ApiKeyword(framework, k.kind, k.text, k.owner).with_id(i)
            for i, k in enumerate(keywords)
        ]

    @staticmethod
    def _database(vocab, framework: str) -> SignatureDatabase:
        params: dict[str, list[str]] = {}
        for k in vocab:
            if k.owner:
                params.setdefault(k.owner, []).append(k.text)
        return SignatureDatabase(
            framework,
            {},
            [
                ApiSignature(k.text, tuple(params.get(k.text, ())))
                for k in vocab
                if k.owner is None
            ],
        )

    def select(self, model) -> float:
        """Selection criterion plus gold ranking metrics at one checkpoint."""
        e1, e2 = model.output_embeddings
        induced = frameport.dictionary.generate_dictionary(
            e1, e2, self.vocab1, self.vocab2, self.db1, self.db2
        )
        scores = frameport.dictionary.score_matrix(e1, e2, COSINE)
        self.checkpoint_p1.append(
            frameport.evaluate.precision_at_k(scores, self.data.gold, self.vocab1, self.vocab2, 1)
        )
        frameport.evaluate.mrr(scores, self.data.gold, self.vocab1, self.vocab2)
        return frameport.train.avg_cosine_similarity(model, induced, self.vocab1, self.vocab2)

    def before(self, i: int) -> None:
        self.checkpoint_p1 = []

    def run(self, i: int, _: None) -> None:
        d = self.data
        m = (len(self.vocab1), len(self.vocab2))
        self.result = frameport.train.train(
            d.h1, d.y1, d.h2, d.y2, TrainConfig(**self.config),
            selector=self.select, vocab_sizes=m,
        )

    def check(self, i: int, _: None) -> None:
        result = self.result
        if not self.checkpoint_p1 or not all(
            math.isfinite(score) for _, score in result.checkpoint_scores
        ):
            raise OpFailed(f"run {i}: selection produced no finite scores")
        scores = score_matrix(*result.best_model.output_embeddings, COSINE)
        p1 = precision_at_k(scores, self.data.gold, self.vocab1, self.vocab2, 1)
        own = gold_p_at_1(scores.values, self.gold_ids, [k.kind for k in self.vocab2])
        if p1 != own:
            raise OpFailed(f"run {i}: precision_at_k {p1} but direct ranking {own}")
        quality = (p1, mrr(scores, self.data.gold, self.vocab1, self.vocab2))
        if self.results and self.results[0] != quality:
            raise OpFailed(f"run {i}: quality {quality} differs from run 0")
        self.results.append(quality)

    def instrument(self, tracer: Tracer) -> None:
        tracer.wrap(frameport.train, "train", "train.train")
        tracer.wrap(self, "select", "train.select")
        tracer.wrap(frameport.dictionary, "generate_dictionary", "dictionary.generate")
        tracer.wrap(frameport.evaluate, "precision_at_k", "evaluate.rank")
        tracer.wrap(frameport.evaluate, "mrr", "evaluate.rank")
        instrument_training(tracer)

    def quality(self) -> dict[str, float]:
        p1, m = self.results[0] if self.results else (0.0, 0.0)
        return {"align_p_at_1": p1, "align_mrr": m}

    primary = "align_p_at_1"
    workload_names = {"op_p50_ms": ("align_s", 0.001, "s")}


WORKLOADS = {w.name: w for w in (TranspileMix, LearnCorpus, AlignLargeVocab)}
