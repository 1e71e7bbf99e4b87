"""Saves replace whole files: an interrupted save keeps the old file."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from frameport import atomic
from frameport import train as ft
from frameport.canon import SourceUnit
from frameport.cli import main
from frameport.corpus import CorpusManifest, IngestResult, save_corpus
from frameport.dictionary import KeywordDictionary
from frameport.evaluate import EvalExample, EvalReport, run_suite
from frameport.pipeline import default_database
from helpers import KS_FILE, PT_FILE


def _save_checkpoint(path):
    cfg = ft.TrainConfig(d=8, batch_size=4, total_samples=8, seed=9)
    model = ft.AlignmentModel.create(cfg, 6, [4, 5], np.random.default_rng(14))
    ft.save_checkpoint(path, ft.TrainState(model, ft.Optimizers.init(model), 2, cfg))


def _save_dictionary(path):
    KeywordDictionary("a", "b", 5.0).save(path)


def _save_manifest(path):
    save_corpus(path.parent, IngestResult(manifest=CorpusManifest(), units={}))


def _save_report(path):
    EvalReport(seeds=[{"seed": 1}], mean={"f1": 1.0}).save(path)


CORPUS_FILES = {"manifest.json", "units_pytorch.jsonl", "skipped.jsonl"}


def _save_corpus_file(path):
    """Save a one-unit corpus with one skipped file; keep only ``path``."""
    result = IngestResult(
        manifest=CorpusManifest(),
        units={"pytorch": [SourceUnit("x = 1", "pytorch", "a.py:A")]},
        skipped=[("b.py", "no framework marker")],
    )
    try:
        save_corpus(path.parent, result)
    finally:
        for name in CORPUS_FILES - {path.name}:
            (path.parent / name).unlink(missing_ok=True)


def _save_grid(path):
    """Run a one-cell ``train --grid`` into ``path``'s directory; keep only ``path``."""
    work = path.parent / "work"
    try:
        (work / "tree").mkdir(parents=True)
        (work / "tree" / "pt.py").write_text(PT_FILE)
        (work / "tree" / "ks.py").write_text(KS_FILE)
        assert main([
            "ingest", "--root", str(work / "tree"), "--out", str(work / "corpus"),
            "--framework", "pytorch", "--framework", "keras",
        ]) == 0
        assert main([
            "train", "--corpus", str(work / "corpus"), "--out", str(path.parent),
            "--src-framework", "pytorch", "--tgt-framework", "keras",
            "--provider", "hash", "--provider-dim", "8", "--d", "8",
            "--grid", "--lrs", "0.001", "--batch-sizes", "8", "--total-samples", "16",
        ]) == 0
    finally:
        shutil.rmtree(work)
        for name in ("checkpoint.json", "metrics.jsonl"):
            (path.parent / name).unlink(missing_ok=True)


EVAL_ARTIFACTS = {"pred.py", "gold_test.py"}


def _save_eval_artifact(path):
    """Score one example with its artifacts in ``path``'s directory; keep only ``path``."""
    example = EvalExample(
        id=path.parent.name, src_framework="pytorch", tgt_framework="keras",
        source="x = 1\n", gold="x = 1",
    )
    try:
        run_suite(lambda ex, seed: ex.gold, [example],
                  {"keras": default_database("keras")}, seeds=[1],
                  artifacts_dir=path.parent.parent)
    finally:
        for name in EVAL_ARTIFACTS - {path.name}:
            (path.parent / name).unlink(missing_ok=True)


def _save_transpile_output(path):
    """Transpile a two-line pytorch file into ``path``; keep only ``path``."""
    source = path.parent / "source.py"
    try:
        source.write_text("import torch.nn as nn\nfc = nn.Linear(4, 2)\n", encoding="utf-8")
        assert main([
            "transpile", "--from", "pytorch", "--to", "keras",
            "--input", str(source), "--output", str(path),
        ]) == 0
    finally:
        source.unlink(missing_ok=True)


SAVERS = {
    "checkpoint.json": _save_checkpoint,
    "dict.json": _save_dictionary,
    "manifest.json": _save_manifest,
    "report.json": _save_report,
    "units_pytorch.jsonl": _save_corpus_file,
    "skipped.jsonl": _save_corpus_file,
    "grid.json": _save_grid,
    "pred.py": _save_eval_artifact,
    "gold_test.py": _save_eval_artifact,
    "out.py": _save_transpile_output,
}

# how a whole saved file starts, where it is not JSON
STARTS = {
    "pred.py": "x = 1\n",
    "gold_test.py": "# reference output",
    "out.py": "from tensorflow.keras import layers\nfc = layers.Dense(units=2)\n",
}


class _TornFile:
    """A file whose write stores half the text, then is interrupted.

    Only the temporary file of ``target`` tears; other files a saver writes
    on the way are written whole.
    """

    target = ""

    def __init__(self, file, *args, **kwargs):
        self.fh = open(file, *args, **kwargs)
        self.tears = Path(file).name.startswith(f".{self.target}.")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        if not self.tears:
            return self.fh.write(text)
        self.fh.write(text[: len(text) // 2])
        raise KeyboardInterrupt


@pytest.mark.parametrize("name", sorted(SAVERS))
def test_interrupted_save_keeps_the_old_file_and_no_temporary(tmp_path, monkeypatch, name):
    path = tmp_path / name
    path.write_text("old contents\n")
    monkeypatch.setattr(_TornFile, "target", name)
    monkeypatch.setattr(atomic, "open", _TornFile, raising=False)
    with pytest.raises(KeyboardInterrupt):
        SAVERS[name](path)
    assert path.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]

    monkeypatch.undo()
    SAVERS[name](path)
    assert path.read_text().startswith(STARTS.get(name, "{"))
    assert [p.name for p in tmp_path.iterdir()] == [name]
