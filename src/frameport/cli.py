"""Command-line interface tying the toolchain together.

Subcommands cover the full workflow: ``ingest`` builds a corpus from
file trees, ``train`` aligns keyword embeddings adversarially, ``dict``
induces a keyword dictionary from a checkpoint, ``transpile`` runs the
five-stage translation on a file or stdin, ``eval`` scores an example
suite, and ``inspect`` examines vocabularies, neighbor rankings, and
dictionary diffs.

Exit codes: 0 success, 2 usage or configuration error, 3 pipeline
failure, 4 completion-backend failure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .atomic import write_text_atomic
from .canon import CALLABLE, PARAMETER, ApiKeyword, SignatureDatabase, SourceUnit
from .errors import (
    BackendUnavailable,
    ConfigError,
    EmptyVocabularyError,
    FrameportError,
    loading,
    reading,
)
from .keyword_dictionary import KeywordDictionary, vocab_index
from .llm import BackendConfig, load_template
from .pipeline import (
    FRAMEWORKS,
    default_database,
    default_dictionary,
    default_template,
    transpile_unit,
)

# The modules only some commands use, with the names this module takes
# from each. A command imports its own (the last column of _COMMANDS) when
# argparse dispatches to it and _CommandParser builds its parser, so
# ``transpile`` loads none of them, nor numpy. Each name is also a module
# attribute from the start: reading it imports its module (PEP 562).
# Either way a name already bound, say replaced by a test, keeps its value.
_DEFERRED = {
    "frameport.bpe": ("bpe_train",),
    "frameport.corpus": (
        "DEFAULT_INCLUDE",
        "DEFAULT_MARKERS",
        "DEFAULT_SIZE_CAP",
        "VocabEntry",
        "_vocab_record",
        "extract_occurrences",
        "ingest",
        "load_corpus",
        "save_corpus",
        "vocab_keywords",
    ),
    "frameport.dictionary": (
        "COSINE",
        "DOT",
        "csls_rescale",
        "generate_dictionary",
        "score_matrix",
    ),
    "frameport.embeddings": (
        "ContextWindowProvider",
        "FileBackedProvider",
        "HashProvider",
        "embed_batch",
    ),
    "frameport.evaluate": ("EvalExample", "load_eval_set", "run_suite"),
    "frameport.train": (
        "BATCH_GRID",
        "LR_GRID",
        "GridCell",
        "Optimizers",
        "TrainConfig",
        "TrainState",
        "avg_cosine_similarity",
        "grid_search",
        "load_checkpoint",
        "save_checkpoint",
        "train",
    ),
}
_MODULE_OF = {name: module for module, names in _DEFERRED.items() for name in names}


def _import_deferred(modules: Sequence[str]) -> None:
    """Bind the ``_DEFERRED`` names of ``modules`` that are not yet bound."""
    namespace = globals()
    for module in modules:
        loaded = importlib.import_module(module)
        for name in _DEFERRED[module]:
            namespace.setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    # called only for a name that is not (yet) a global
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _import_deferred((_MODULE_OF[name],))
    return globals()[name]


def _emit(args: argparse.Namespace, payload: dict, lines: Sequence[str]) -> None:
    """Print either a JSON document or plain text lines."""
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_databases(frameworks: Sequence[str]) -> dict[str, SignatureDatabase]:
    return {fw: default_database(fw) for fw in frameworks}


def _vocabulary(corpus, fw: str) -> list[VocabEntry]:
    if fw not in corpus.manifest.frameworks:
        raise ConfigError(f"corpus has no framework {fw!r}")
    return corpus.manifest.frameworks[fw].vocabulary


def _load_pair(args: argparse.Namespace):
    """The corpus plus both sides' vocabularies and signature databases."""
    corpus = load_corpus(args.corpus)
    src, tgt = args.src_framework, args.tgt_framework
    vocabs = tuple(vocab_keywords(_vocabulary(corpus, fw)) for fw in (src, tgt))
    return corpus, vocabs, (default_database(src), default_database(tgt))


# -- ingest ------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    dbs = _load_databases(args.frameworks or FRAMEWORKS)
    result = ingest(
        args.roots,
        dbs,
        include=args.include or DEFAULT_INCLUDE,
        exclude=args.exclude or (),
        markers=args.markers or DEFAULT_MARKERS,
        size_cap=args.size_cap,
    )
    if not args.dry_run:
        save_corpus(args.out, result)
    counts = {fw: len(units) for fw, units in sorted(result.units.items())}
    vocab_sizes = {
        fw: len(st.vocabulary)
        for fw, st in sorted(result.manifest.frameworks.items())
    }
    payload = {
        "units": counts,
        "vocabulary": vocab_sizes,
        "skipped": len(result.skipped),
        "written": not args.dry_run,
    }
    lines = [
        f"{fw}: {n} units, {vocab_sizes[fw]} vocabulary keywords"
        for fw, n in counts.items()
    ]
    lines.append(f"skipped {len(result.skipped)} files")
    if args.dry_run:
        lines.append("dry run: nothing written")
    else:
        lines.append(f"corpus written to {args.out}")
    _emit(args, payload, lines)
    return 0


# -- train -------------------------------------------------------------------


def _build_provider(args: argparse.Namespace, texts: Sequence[str]):
    spec = args.provider
    if spec.startswith("file:"):
        return FileBackedProvider(spec[len("file:") :])
    if spec == "hash":
        return HashProvider(args.provider_dim)
    if spec == "context-window":
        vocab = bpe_train(texts, merge_count=args.bpe_merges)
        return ContextWindowProvider.train(
            texts, vocab, dim=args.provider_dim, seed=args.seed
        )
    raise ConfigError(
        f"unknown provider {spec!r}; expected hash, context-window, or file:PATH"
    )


def _framework_arrays(occs, vocab, provider) -> tuple[np.ndarray, np.ndarray]:
    """Stack occurrence embeddings and vocabulary-id labels for one side."""
    import numpy as np

    index = vocab_index(vocab)
    kept, labels = [], []
    for occ in occs:
        kw = occ.keyword
        kid = index.get((kw.kind, kw.text, kw.owner))
        if kid is None:
            continue
        kept.append(occ)
        labels.append(kid)
    if not kept:
        raise EmptyVocabularyError("no keyword occurrences to train on")
    return embed_batch(provider, kept), np.asarray(labels, dtype=np.int64)


def _train_inputs(args: argparse.Namespace, resume: TrainState | None):
    corpus, (vocab1, vocab2), (db1, db2) = _load_pair(args)
    src, tgt = args.src_framework, args.tgt_framework
    occs1 = extract_occurrences(corpus.units[src], db1, src)
    occs2 = extract_occurrences(corpus.units[tgt], db2, tgt)
    texts = [u.text for u in corpus.units[src]] + [u.text for u in corpus.units[tgt]]
    provider = _build_provider(args, texts)
    if resume is not None and resume.model.generator.dims[0] != provider.dim:
        raise ConfigError(
            f"{args.resume} expects embeddings of width "
            f"{resume.model.generator.dims[0]}, but the provider gives width "
            f"{provider.dim}"
        )
    H1, y1 = _framework_arrays(occs1, vocab1, provider)
    H2, y2 = _framework_arrays(occs2, vocab2, provider)
    return (H1, y1, H2, y2), (vocab1, vocab2), (db1, db2)


def _make_selector(vocab1, vocab2, db1, db2, tau: float):
    def selector(model) -> float:
        E1, E2 = model.output_embeddings
        induced = generate_dictionary(
            E1, E2, vocab1, vocab2, db1, db2, measure=COSINE, tau=tau
        )
        return avg_cosine_similarity(model, induced, vocab1, vocab2)

    return selector


def _cell_record(cell) -> dict:
    return {
        "peak_lr": cell.peak_lr,
        "batch_size": cell.batch_size,
        "avg_cos_sim": cell.score,
    }


def cmd_train(args: argparse.Namespace) -> int:
    if args.resume and args.grid:
        raise ConfigError("--resume cannot be combined with --grid")
    resume = load_checkpoint(args.resume) if args.resume else None
    if resume is None:
        cfg = TrainConfig(
            d=args.d,
            peak_lr=args.peak_lr,
            batch_size=args.batch_size,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
        )
    elif not resume.sampler_state:
        raise ConfigError(
            f"{args.resume} is a snapshot without sampler state; "
            "--resume needs the run's checkpoint.json"
        )
    else:
        cfg = resume.cfg
    if args.total_samples is not None:
        cfg = replace(cfg, total_samples=args.total_samples)
    if args.grid:
        # every cell's config is checked before any work, as a single run's is
        for lr in args.lrs:
            for n in args.batch_sizes:
                replace(cfg, peak_lr=lr, batch_size=n)

    (H1, y1, H2, y2), (vocab1, vocab2), (db1, db2) = _train_inputs(args, resume)
    sizes = (len(vocab1), len(vocab2))
    selector = _make_selector(vocab1, vocab2, db1, db2, args.tau)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.jsonl"
    ckpt = out / "checkpoint.json"

    if args.grid:
        with open(metrics_path, "w") as fh:

            def on_cell(cell) -> None:
                fh.write(json.dumps(_cell_record(cell)) + "\n")

            result = grid_search(
                H1,
                y1,
                H2,
                y2,
                cfg,
                selector,
                lrs=args.lrs,
                batch_sizes=args.batch_sizes,
                on_cell=on_cell,
                vocab_sizes=sizes,
            )
        best, model = result.best_cfg, result.best_model
        save_checkpoint(
            ckpt, TrainState(model, Optimizers.init(model), best.total_steps, best)
        )
        write_text_atomic(
            out / "grid.json",
            json.dumps(
                {
                    "cells": [_cell_record(cell) for cell in result.cells],
                    "best": _cell_record(
                        GridCell(best.peak_lr, best.batch_size, result.best_score)
                    ),
                },
                indent=2,
            )
            + "\n"
        )
        payload = {
            "mode": "grid",
            "best_peak_lr": best.peak_lr,
            "best_batch_size": best.batch_size,
            "avg_cos_sim": result.best_score,
            "checkpoint": str(ckpt),
        }
        lines = [
            f"grid best: lr={best.peak_lr} batch={best.batch_size} "
            f"avg_cos_sim={result.best_score:.4f}",
            f"checkpoint written to {ckpt}",
        ]
        _emit(args, payload, lines)
        return 0

    interrupted = {"flag": False}

    def _on_sigint(signum, frame) -> None:
        interrupted["flag"] = True

    previous = signal.signal(signal.SIGINT, _on_sigint)
    mode = "a" if args.resume else "w"
    try:
        with open(metrics_path, mode) as fh:

            def on_record(rec: dict) -> None:
                fh.write(json.dumps(rec) + "\n")

            result = train(
                H1,
                y1,
                H2,
                y2,
                cfg,
                selector=selector,
                on_record=on_record,
                resume=resume,
                vocab_sizes=sizes,
                stop=lambda: interrupted["flag"],
            )
    finally:
        signal.signal(signal.SIGINT, previous)

    step = result.state.step
    save_checkpoint(ckpt, result.state)
    best_ckpt = out / "checkpoint_best.json"
    best = TrainState(result.best_model, Optimizers.init(result.best_model), step, cfg)
    save_checkpoint(best_ckpt, best)
    if interrupted["flag"]:
        print(f"interrupted: checkpoint saved at step {step}", file=sys.stderr)
    payload = {
        "mode": "train",
        "steps": step,
        "avg_cos_sim": result.best_score,
        "checkpoint": str(ckpt),
        "best_checkpoint": str(best_ckpt),
        "interrupted": interrupted["flag"],
    }
    lines = [
        f"trained to step {step}, best avg_cos_sim={result.best_score:.4f}",
        f"checkpoint written to {ckpt}",
    ]
    _emit(args, payload, lines)
    return 0


# -- dict --------------------------------------------------------------------


def _measure_args(args: argparse.Namespace) -> tuple[str, int | None]:
    if args.measure == "csls":
        return DOT, args.k if args.k is not None else 10
    if args.k is not None:
        raise ConfigError("--k only applies to --measure csls")
    return args.measure, None


def cmd_dict(args: argparse.Namespace) -> int:
    state = load_checkpoint(args.checkpoint)
    _, (vocab1, vocab2), (db1, db2) = _load_pair(args)
    E1, E2 = state.model.output_embeddings
    measure, csls_k = _measure_args(args)
    dictionary = generate_dictionary(
        E1,
        E2,
        vocab1,
        vocab2,
        db1,
        db2,
        measure=measure,
        tau=args.tau,
        drop_floor=args.drop_floor,
        csls_k=csls_k,
    )
    dictionary.save(args.out)
    n_params = sum(len(g.params) for g in dictionary.groups)
    n_exp = sum(len(g.expansions) for g in dictionary.groups)
    payload = {
        "groups": len(dictionary.groups),
        "params": n_params,
        "expansions": n_exp,
        "out": str(args.out),
    }
    lines = [
        f"{len(dictionary.groups)} groups, {n_params} parameter entries, "
        f"{n_exp} expansions",
        f"dictionary written to {args.out}",
    ]
    _emit(args, payload, lines)
    return 0


# -- transpile ----------------------------------------------------------------


def _read_input(path: str) -> str:
    if path != "-":
        with reading("input", path) as text:
            return text
    with loading("input", path):
        # stdin decodes bytes that are not UTF-8 to lone surrogates, which
        # do not encode, so such input fails as it does from a file
        return sys.stdin.read().encode("utf-8").decode("utf-8")


def _write_output(path: str, text: str) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        write_text_atomic(path, text)


def cmd_transpile(args: argparse.Namespace) -> int:
    src, tgt = args.src_framework, args.tgt_framework
    src_db, tgt_db = default_database(src), default_database(tgt)
    if args.dictionary:
        dictionary = KeywordDictionary.load(args.dictionary)
    else:
        dictionary = default_dictionary(src, tgt)
    if args.template is None:
        template = default_template(src, tgt)
    else:
        template = load_template(args.template, src, tgt)
    backend_cfg = BackendConfig.load(args.backend) if args.backend else BackendConfig()
    if args.seed is not None:
        backend_cfg = replace(backend_cfg, seed=args.seed)
    text = _read_input(args.input)
    unit = SourceUnit(text=text, framework=src, origin=args.input)
    result = transpile_unit(
        unit, src_db, tgt_db, dictionary, template, backend_cfg, strict=args.strict
    )
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    # a JSON summary takes stdout; the output still goes to a named file
    if args.format == "text" or args.output != "-":
        _write_output(args.output, result.output.text)
    if args.format == "json":
        payload = {
            "output": result.output.text,
            "skeleton": result.skeleton.text,
            "warnings": list(result.warnings),
        }
        _emit(args, payload, ())
    return 0


# -- eval ----------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    examples = load_eval_set(args.eval_set)
    frameworks = sorted(
        {ex.src_framework for ex in examples} | {ex.tgt_framework for ex in examples}
    )
    dbs = _load_databases(frameworks or list(FRAMEWORKS))
    backend_cfg = BackendConfig.load(args.backend) if args.backend else BackendConfig()

    # Loaded up front so that a missing or malformed dictionary ends the
    # run instead of becoming one failed row per example.
    pairs: dict[tuple[str, str], tuple] = {}
    directions = dict.fromkeys((ex.src_framework, ex.tgt_framework) for ex in examples)
    for src, tgt in directions:
        if args.dictionary_dir:
            path = Path(args.dictionary_dir) / f"dict_{src}_{tgt}.json"
            dictionary = KeywordDictionary.load(path)
        else:
            dictionary = default_dictionary(src, tgt)
        pairs[src, tgt] = (dictionary, default_template(src, tgt))

    def transpile_once(ex, cfg: BackendConfig) -> str:
        dictionary, template = pairs[ex.src_framework, ex.tgt_framework]
        unit = SourceUnit(text=ex.source, framework=ex.src_framework, origin=ex.id)
        result = transpile_unit(
            unit,
            dbs[ex.src_framework],
            dbs[ex.tgt_framework],
            dictionary,
            template,
            cfg,
        )
        return result.output.text

    # The mock backend is deterministic, so every seed after the first
    # replays its result (or error) instead of transpiling again. The key is
    # the whole example: direction, source text, and the id that error
    # messages name.
    replay: dict[EvalExample, str | FrameportError] = {}

    def transpile_fn(ex, seed: int) -> str:
        if backend_cfg.kind != "mock-rules":
            return transpile_once(ex, replace(backend_cfg, seed=seed))
        if ex not in replay:
            try:
                replay[ex] = transpile_once(ex, backend_cfg)
            except FrameportError as exc:
                replay[ex] = exc
        if isinstance(replay[ex], FrameportError):
            raise replay[ex]
        return replay[ex]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = run_suite(
        transpile_fn,
        examples,
        dbs,
        seeds=args.seeds,
        artifacts_dir=out / "artifacts",
    )
    report_path = out / "report.json"
    report.save(report_path)
    payload = report.to_dict()
    payload["report"] = str(report_path)
    mean = report.mean
    lines = [
        f"{len(examples)} examples x {len(args.seeds)} seeds",
        f"mean f1={mean['f1']} em={mean['em']}",
        f"report written to {report_path}",
    ]
    _emit(args, payload, lines)
    return 0


# -- inspect -------------------------------------------------------------------


def _find_keyword(vocab: Sequence[ApiKeyword], wanted: ApiKeyword) -> ApiKeyword:
    for kw in vocab:
        if kw == wanted:
            return kw
    where = f" of {wanted.owner}" if wanted.owner else ""
    raise ConfigError(f"{wanted.kind} {wanted.text!r}{where} is not in the vocabulary")


def cmd_inspect_vocab(args: argparse.Namespace) -> int:
    entries = _vocabulary(load_corpus(args.corpus), args.framework)
    records = [_vocab_record(e) for e in entries]
    if args.kind:
        records = [r for r in records if r["kind"] == args.kind]
    records = records[: args.limit] if args.limit else records
    payload = {"framework": args.framework, "entries": records}
    lines = [
        f"{r['id']:>4}  {r['count']:>6}  {r['kind']:<9} "
        + (f"{r['owner']}." if r["owner"] else "")
        + r["text"]
        for r in records
    ]
    _emit(args, payload, lines)
    return 0


def cmd_inspect_neighbors(args: argparse.Namespace) -> int:
    # before any file is read: ApiKeyword rejects a parameter without an
    # owner and a callable with one
    wanted = ApiKeyword(args.src_framework, args.kind, args.keyword, args.owner)
    state = load_checkpoint(args.checkpoint)
    _, (vocab1, vocab2), _ = _load_pair(args)
    kw = _find_keyword(vocab1, wanted)
    E1, E2 = state.model.output_embeddings
    measure, csls_k = _measure_args(args)
    s = score_matrix(E1, E2, measure)
    if csls_k is not None:
        s = csls_rescale(s, csls_k)
    candidates = [c for c in vocab2 if c.kind == kw.kind]
    row = s.values[kw.id]
    ranked = sorted(candidates, key=lambda c: (-row[c.id], c.id))[: args.top]
    payload = {
        "keyword": {"kind": kw.kind, "text": kw.text, "owner": kw.owner},
        "measure": s.measure,
        "neighbors": [
            {
                "kind": c.kind,
                "text": c.text,
                "owner": c.owner,
                "score": float(row[c.id]),
            }
            for c in ranked
        ],
    }
    lines = [
        f"{float(row[c.id]):>10.4f}  "
        + (f"{c.owner}." if c.owner else "")
        + c.text
        for c in ranked
    ]
    _emit(args, payload, lines)
    return 0


def _group_parts(g) -> dict:
    return {
        "target": g.tgt_callable,
        "params": [(p.src, p.tgt) for p in g.params],
        "expansions": [(e.src_param, e.new_call) for e in g.expansions],
    }


def cmd_inspect_diff(args: argparse.Namespace) -> int:
    old = KeywordDictionary.load(args.old)
    new = KeywordDictionary.load(args.new)
    old_groups = {g.src_callable: g for g in old.groups}
    new_groups = {g.src_callable: g for g in new.groups}
    changes: list[dict] = []
    for name in sorted(old_groups.keys() | new_groups.keys()):
        a, b = old_groups.get(name), new_groups.get(name)
        if a is None:
            changes.append({"src_callable": name, "change": "added"})
        elif b is None:
            changes.append({"src_callable": name, "change": "removed"})
        else:
            old_parts, new_parts = _group_parts(a), _group_parts(b)
            parts = [k for k in old_parts if old_parts[k] != new_parts[k]]
            if parts:
                changes.append(
                    {
                        "src_callable": name,
                        "change": "changed",
                        "parts": parts,
                        "old_tgt": a.tgt_callable,
                        "new_tgt": b.tgt_callable,
                    }
                )
    payload = {"changes": changes}
    lines = []
    for c in changes:
        line = f"{c['change']:<8} {c['src_callable']}"
        if c["change"] == "changed":
            named = [
                f"target {c['old_tgt']} -> {c['new_tgt']}" if part == "target" else part
                for part in c["parts"]
            ]
            line += f" ({', '.join(named)})"
        lines.append(line)
    _emit(args, payload, lines)
    return 0


# -- parser ---------------------------------------------------------------------


def _csv(cast):
    """An argparse type for a comma list of ``cast`` values."""

    def parse(raw: str) -> list:
        try:
            values = [cast(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {cast.__name__} list: {raw!r}"
            )
        return values

    return parse


def _count(raw: str) -> int:
    """An argparse type for an integer that is not negative."""
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not an integer >= 0: {raw!r}")
    return value


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="Output format for the command summary.",
    )


def _add_measure(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--measure",
        choices=("cosine", "dot", "csls"),
        default="cosine",
        help="Similarity measure; csls rescales dot scores by neighborhood.",
    )
    p.add_argument(
        "--k", type=int, default=None, help="Neighborhood size for --measure csls."
    )


def _ingest_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--root", dest="roots", action="append", required=True,
                   help="Directory to scan; repeatable.")
    p.add_argument("--out", required=True, help="Corpus output directory.")
    p.add_argument("--framework", dest="frameworks", action="append",
                   choices=FRAMEWORKS, default=None,
                   help="Framework to collect; repeatable (default: all).")
    p.add_argument("--include", action="append", default=None,
                   help="Filename glob to include; repeatable (default: *.py, *.ipynb).")
    p.add_argument("--exclude", action="append", default=None,
                   help="Path glob to exclude; repeatable.")
    p.add_argument("--marker", dest="markers", action="append", default=None,
                   help="Substring a file must mention; repeatable (default: torch, keras, mxnet).")
    p.add_argument("--size-cap", type=_count, default=DEFAULT_SIZE_CAP,
                   help="Skip files larger than this many bytes.")
    p.add_argument("--dry-run", action="store_true",
                   help="Report counts without writing the corpus.")
    _add_format(p)
    p.set_defaults(func=cmd_ingest)


def _train_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="Corpus directory from ingest.")
    p.add_argument("--src-framework", required=True, choices=FRAMEWORKS)
    p.add_argument("--tgt-framework", required=True, choices=FRAMEWORKS)
    p.add_argument("--out", required=True, help="Directory for checkpoints and metrics.")
    p.add_argument("--provider", default="hash",
                   help="Embedding provider: hash, context-window, or file:PATH.")
    p.add_argument("--provider-dim", type=int, default=64,
                   help="Embedding width d_b for generated providers.")
    p.add_argument("--bpe-merges", type=int, default=200,
                   help="BPE merges when training a context-window provider.")
    p.add_argument("--d", type=int, default=64, help="Aligned hidden width d.")
    p.add_argument("--peak-lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--total-samples", type=int, default=None,
                   help="Samples drawn per side over the whole run (default 1536000).")
    p.add_argument("--checkpoint-every", type=int, default=500,
                   help="Steps between model-selection checkpoints.")
    p.add_argument("--tau", type=float, default=5.0,
                   help="Expansion threshold used by the selection dictionary.")
    p.add_argument("--seed", type=int, default=10)
    p.add_argument("--grid", action="store_true",
                   help="Search the (peak_lr, batch_size) grid instead of one cell.")
    p.add_argument("--lrs", type=_csv(float), default=list(LR_GRID),
                   help="Grid learning rates as a comma list.")
    p.add_argument("--batch-sizes", type=_csv(int), default=list(BATCH_GRID),
                   help="Grid batch sizes as a comma list.")
    p.add_argument("--resume", default=None, help="Checkpoint file to continue from.")
    _add_format(p)
    p.set_defaults(func=cmd_train)


def _dict_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True, help="Corpus the checkpoint was trained on.")
    p.add_argument("--src-framework", required=True, choices=FRAMEWORKS)
    p.add_argument("--tgt-framework", required=True, choices=FRAMEWORKS)
    p.add_argument("--out", required=True, help="Dictionary JSON path.")
    _add_measure(p)
    p.add_argument("--tau", type=float, default=5.0,
                   help="Parameter-to-callable expansion threshold.")
    p.add_argument("--drop-floor", type=float, default=float("-inf"),
                   help="Scores below this floor drop the parameter outright.")
    _add_format(p)
    p.set_defaults(func=cmd_dict)


def _transpile_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="src_framework", required=True, choices=FRAMEWORKS)
    p.add_argument("--to", dest="tgt_framework", required=True, choices=FRAMEWORKS)
    p.add_argument("--input", default="-", help="Input file, or - for stdin.")
    p.add_argument("--output", default="-", help="Output file, or - for stdout.")
    p.add_argument("--dictionary", default=None,
                   help="Keyword dictionary JSON (default: bundled fixture).")
    p.add_argument("--template", default=None,
                   help="Prompt template file (default: bundled fixture).")
    p.add_argument("--backend", default=None,
                   help="Backend config JSON (default: offline mock).")
    p.add_argument("--strict", action="store_true",
                   help="Fail on unknown callables instead of passing them through.")
    p.add_argument("--seed", type=int, default=None,
                   help="Sampling seed sent to HTTP backends (default: the "
                   "backend config's); the mock is deterministic.")
    _add_format(p)
    p.set_defaults(func=cmd_transpile)


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eval-set", required=True, help="JSONL examples file.")
    p.add_argument("--out", required=True, help="Directory for report and artifacts.")
    p.add_argument("--seeds", type=_csv(int), default=[10, 20, 30, 40, 50],
                   help="Run seeds as a comma list.")
    p.add_argument("--dictionary-dir", default=None,
                   help="Directory of dict_<src>_<tgt>.json files (default: bundled).")
    p.add_argument("--backend", default=None,
                   help="Backend config JSON (default: offline mock).")
    _add_format(p)
    p.set_defaults(func=cmd_eval)


def _vocab_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--framework", required=True, choices=FRAMEWORKS)
    p.add_argument("--kind", choices=(CALLABLE, PARAMETER), default=None)
    p.add_argument("--limit", type=_count, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_inspect_vocab)


def _neighbors_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--src-framework", required=True, choices=FRAMEWORKS)
    p.add_argument("--tgt-framework", required=True, choices=FRAMEWORKS)
    p.add_argument("--keyword", required=True, help="Keyword text to look up.")
    p.add_argument("--kind", choices=(CALLABLE, PARAMETER), default=CALLABLE)
    p.add_argument("--owner", default=None,
                   help="Owning callable (required for parameters).")
    p.add_argument("--top", type=_count, default=5)
    _add_measure(p)
    _add_format(p)
    p.set_defaults(func=cmd_inspect_neighbors)


def _diff_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--old", required=True)
    p.add_argument("--new", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_inspect_diff)


def _inspect_arguments(p: argparse.ArgumentParser) -> None:
    _add_commands(p.add_subparsers(dest="what", required=True), _INSPECT)


_CORPUS = "frameport.corpus"
_DICTIONARY = "frameport.dictionary"
_TRAIN = "frameport.train"

# (name, help, add-arguments function, _DEFERRED modules) of each command,
# in usage order
_COMMANDS = (
    ("ingest", "Scan file trees into a training corpus.", _ingest_arguments,
     (_CORPUS,)),
    ("train", "Align keyword embeddings adversarially.", _train_arguments,
     (_CORPUS, "frameport.bpe", "frameport.embeddings", _DICTIONARY, _TRAIN)),
    ("dict", "Induce a keyword dictionary from a checkpoint.", _dict_arguments,
     (_CORPUS, _DICTIONARY, _TRAIN)),
    ("transpile", "Translate one file or stdin.", _transpile_arguments, ()),
    ("eval", "Score a transpilation example suite.", _eval_arguments,
     ("frameport.evaluate",)),
    ("inspect", "Examine corpora, rankings, and dictionaries.", _inspect_arguments,
     ()),
)
_INSPECT = (
    ("vocab", "List a framework's keyword vocabulary.", _vocab_arguments,
     (_CORPUS,)),
    ("neighbors", "Top-scoring candidates for one keyword.", _neighbors_arguments,
     (_CORPUS, _DICTIONARY, _TRAIN)),
    ("diff", "Compare the mappings of two dictionaries.", _diff_arguments, ()),
)


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, built when argparse hands it the rest of the
    command line: only then does it run ``ArgumentParser.__init__`` with
    the keyword arguments ``add_parser`` gave, import the command's modules
    and add its arguments. So only the command that runs pays for them;
    argparse reads nothing else of a command's parser until it dispatches."""

    def __init__(self, *, add_arguments, modules, **kwargs) -> None:
        self._pending = (kwargs, add_arguments, modules)

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            kwargs, add_arguments, modules = self._pending
            self._pending = None
            super().__init__(**kwargs)
            _import_deferred(modules)
            add_arguments(self)
        return super().parse_known_args(args, namespace)


def _add_commands(sub: argparse._SubParsersAction, commands) -> None:
    for name, help, add_arguments, modules in commands:
        sub.add_parser(name, help=help, add_arguments=add_arguments, modules=modules)


def build_parser() -> argparse.ArgumentParser:
    """The ``frameport`` parser: every command is registered with its help,
    and argparse adds a command's arguments when it dispatches to it."""
    parser = argparse.ArgumentParser(
        prog="frameport",
        description="Source-to-source transpiler between deep-learning framework dialects.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )
    _add_commands(sub, _COMMANDS)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BackendUnavailable as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 4
    except FrameportError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
