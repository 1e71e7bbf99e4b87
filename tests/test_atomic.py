"""Saves replace whole files: an interrupted save keeps the old file."""

from __future__ import annotations

import numpy as np
import pytest

from frameport import atomic
from frameport import train as ft
from frameport.corpus import CorpusManifest, IngestResult, save_corpus
from frameport.dictionary import KeywordDictionary


def _save_checkpoint(path):
    cfg = ft.TrainConfig(d=8, batch_size=4, total_samples=8, seed=9)
    model = ft.AlignmentModel.create(cfg, 6, [4, 5], np.random.default_rng(14))
    ft.save_checkpoint(path, model, ft.Optimizers.init(model), 2, cfg)


def _save_dictionary(path):
    KeywordDictionary("a", "b", 5.0).save(path)


def _save_manifest(path):
    save_corpus(path.parent, IngestResult(manifest=CorpusManifest(), units={}))


SAVERS = {
    "checkpoint.json": _save_checkpoint,
    "dict.json": _save_dictionary,
    "manifest.json": _save_manifest,
}


class _TornFile:
    """A file whose write stores half the text, then is interrupted."""

    def __init__(self, *args, **kwargs):
        self.fh = open(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise KeyboardInterrupt


@pytest.mark.parametrize("name", sorted(SAVERS))
def test_interrupted_save_keeps_the_old_file_and_no_temporary(tmp_path, monkeypatch, name):
    path = tmp_path / name
    path.write_text("old contents\n")
    monkeypatch.setattr(atomic, "open", _TornFile, raising=False)
    with pytest.raises(KeyboardInterrupt):
        SAVERS[name](path)
    assert path.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]

    monkeypatch.undo()
    SAVERS[name](path)
    assert path.read_text().startswith("{")
    assert [p.name for p in tmp_path.iterdir()] == [name]
