"""Saves replace whole files: an interrupted save keeps the old file."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from frameport import atomic
from frameport import train as ft
from frameport.canon import SourceUnit
from frameport.corpus import CorpusManifest, IngestResult, save_corpus
from frameport.dictionary import KeywordDictionary
from frameport.evaluate import EvalReport


def _save_checkpoint(path):
    cfg = ft.TrainConfig(d=8, batch_size=4, total_samples=8, seed=9)
    model = ft.AlignmentModel.create(cfg, 6, [4, 5], np.random.default_rng(14))
    ft.save_checkpoint(path, model, ft.Optimizers.init(model), 2, cfg)


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


SAVERS = {
    "checkpoint.json": _save_checkpoint,
    "dict.json": _save_dictionary,
    "manifest.json": _save_manifest,
    "report.json": _save_report,
    "units_pytorch.jsonl": _save_corpus_file,
    "skipped.jsonl": _save_corpus_file,
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
    assert path.read_text().startswith("{")
    assert [p.name for p in tmp_path.iterdir()] == [name]
