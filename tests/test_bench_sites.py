"""The benchmark's tracing wrappers still reach the code they time.

``bench/workloads.py`` replaces functions by name where the program looks
them up (``frameport.cli.train``, ``frameport.pipeline.lookup``), and its
per-layer metrics read 0 when a command no longer looks a name up there.
These tests load the bench modules as they are, install and remove every
workload's wrappers, and run the commands under them on tiny inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import frameport.cli as cli
from helpers import KS_FILE, PT_FILE

BENCH = Path(__file__).resolve().parents[1] / "bench"

NET = (
    "import torch.nn as nn\n\n"
    "class Net(nn.Module):\n\n"
    "    def __init__(self):\n"
    "        super().__init__()\n"
    "        self.fc = nn.Linear(128, 64)\n\n"
    "    def forward(self, x):\n"
    "        return self.fc(x)\n"
)


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads, spans


@pytest.mark.parametrize(
    "name", ["transpile-mix", "learn-corpus", "align-large-vocab"]
)
def test_every_wrapper_installs_and_restores(bench, name, tmp_path):
    workloads, spans = bench
    wl = workloads.WORKLOADS[name](seed=1, work=tmp_path)
    tracer = spans.Tracer()
    try:
        wl.instrument(tracer)
        patches = list(tracer._patches)
    finally:
        tracer.restore()
    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr


def _traced(bench, name, tmp_path, commands) -> set[str]:
    """Names of the spans recorded while ``commands`` run under the
    wrappers of workload ``name``."""
    workloads, spans = bench
    wl = workloads.WORKLOADS[name](seed=1, work=tmp_path)
    tracer = spans.Tracer()
    sink = io.StringIO()
    try:
        wl.instrument(tracer)
        for argv in commands:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                assert cli.main(argv) == 0, sink.getvalue()
    finally:
        tracer.restore()
    return {span[spans.NAME] for span in tracer.spans}


def test_transpile_runs_through_the_wrapped_names(bench, tmp_path):
    (tmp_path / "net.py").write_text(NET)
    names = _traced(bench, "transpile-mix", tmp_path, [
        ["transpile", "--from", "pytorch", "--to", "keras",
         "--input", str(tmp_path / "net.py"), "--output", str(tmp_path / "out.py")],
    ])
    assert {
        "cli.transpile",
        "pipeline.fixture_load",
        "pipeline.transpile_unit",
        "canon.extract_keywords",
        "skeleton.to_skeleton",
        "llm.backend",
        "dictionary.lookup",
        "skeleton.reinsert",
    } <= names


def test_learning_commands_run_through_the_wrapped_names(bench, tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "pt.py").write_text(PT_FILE)
    (tree / "ks.py").write_text(KS_FILE)
    (tmp_path / "dicts").mkdir()
    (tmp_path / "evalset.jsonl").write_text(json.dumps({
        "id": "net", "src_framework": "pytorch", "tgt_framework": "keras",
        "source": NET, "gold": "",
    }) + "\n")
    corpus, run = str(tmp_path / "corpus"), tmp_path / "run"
    pair = ["--src-framework", "pytorch", "--tgt-framework", "keras"]
    names = _traced(bench, "learn-corpus", tmp_path, [
        ["ingest", "--root", str(tree), "--out", corpus,
         "--framework", "pytorch", "--framework", "keras"],
        ["train", "--corpus", corpus, *pair, "--out", str(run),
         "--provider", "hash", "--provider-dim", "8", "--d", "8",
         "--batch-size", "8", "--total-samples", "32", "--checkpoint-every", "2"],
        ["dict", "--checkpoint", str(run / "checkpoint_best.json"),
         "--corpus", corpus, *pair,
         "--out", str(tmp_path / "dicts" / "dict_pytorch_keras.json")],
        ["eval", "--eval-set", str(tmp_path / "evalset.jsonl"),
         "--out", str(tmp_path / "eval"), "--seeds", "1",
         "--dictionary-dir", str(tmp_path / "dicts")],
    ])
    assert {
        "cli.ingest",
        "cli.train",
        "cli.dict",
        "cli.eval",
        "corpus.ingest",
        "corpus.save",
        "corpus.load",
        "corpus.extract_occurrences",
        "embeddings.embed",
        "train.train",
        "train.step",
        "train.select",
        "train.checkpoint_write",
        "dictionary.generate",
        "evaluate.run_suite",
        "pipeline.transpile_unit",
    } <= names
