"""Command-line workflows: every subcommand, exit codes, and artifacts."""

from __future__ import annotations

import argparse
import http.server
import io
import json
import socket
import threading
from dataclasses import replace

import numpy as np
import pytest

import frameport.cli as cli
from frameport import nn as fnn
from frameport.cli import main
from frameport.dictionary import Expansion, KeywordDictionary
from frameport.errors import BackendUnavailable
from frameport.llm import BackendConfig, MockRulesBackend
from frameport.pipeline import fixture_path
from frameport.train import load_checkpoint
from helpers import KS_FILE, PT_FILE

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

SMALL = [
    "--provider", "hash", "--provider-dim", "8", "--d", "8",
    "--batch-size", "8", "--checkpoint-every", "4", "--seed", "10",
]


def _train_argv(corpus, out, *extra: str) -> list[str]:
    return [
        "train", "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras",
        "--out", str(out), *SMALL, *extra,
    ]


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    (root / "pt.py").write_text(PT_FILE)
    (root / "ks.py").write_text(KS_FILE)
    return root


@pytest.fixture(scope="module")
def corpus(tree, tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main([
        "ingest", "--root", str(tree), "--out", str(out),
        "--framework", "pytorch", "--framework", "keras",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(_train_argv(corpus, out, "--total-samples", "64"))
    assert rc == 0
    return out


# -- usage errors --------------------------------------------------------------


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2


def test_missing_required_flag_is_a_usage_error(tree):
    assert main(["ingest", "--root", str(tree)]) == 2


def test_bad_grid_list_is_a_usage_error(corpus, tmp_path):
    argv = _train_argv(corpus, tmp_path, "--grid", "--lrs", "fast,faster")
    assert main(argv) == 2


# -- help and usage goldens ------------------------------------------------------

# stdout, stderr and exit code of every help screen and of typical usage
# errors, byte for byte; argparse wraps at the terminal width, pinned to 80
# columns by COLUMNS. Building only the chosen command's arguments changes
# none of them.
CLI_GOLDENS = [
    (
        ["--help"],
        0,
        (
            "usage: frameport [-h] {ingest,train,dict,transpile,eval,inspect} ...\n"
            "\n"
            "Source-to-source transpiler between deep-learning framework dialects.\n"
            "\n"
            "positional arguments:\n"
            "  {ingest,train,dict,transpile,eval,inspect}\n"
            "    ingest              Scan file trees into a training corpus.\n"
            "    train               Align keyword embeddings adversarially.\n"
            "    dict                Induce a keyword dictionary from a checkpoint.\n"
            "    transpile           Translate one file or stdin.\n"
            "    eval                Score a transpilation example suite.\n"
            "    inspect             Examine corpora, rankings, and dictionaries.\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        ["ingest", "--help"],
        0,
        (
            "usage: frameport ingest [-h] --root ROOTS --out OUT\n"
            "                        [--framework {keras,mxnet,pytorch}]\n"
            "                        [--include INCLUDE] [--exclude EXCLUDE]\n"
            "                        [--marker MARKERS] [--size-cap SIZE_CAP] [--dry-run]\n"
            "                        [--format {text,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --root ROOTS          Directory to scan; repeatable.\n"
            "  --out OUT             Corpus output directory.\n"
            "  --framework {keras,mxnet,pytorch}\n"
            "                        Framework to collect; repeatable (default: all).\n"
            "  --include INCLUDE     Filename glob to include; repeatable (default: *.py,\n"
            "                        *.ipynb).\n"
            "  --exclude EXCLUDE     Path glob to exclude; repeatable.\n"
            "  --marker MARKERS      Substring a file must mention; repeatable (default:\n"
            "                        torch, keras, mxnet).\n"
            "  --size-cap SIZE_CAP   Skip files larger than this many bytes.\n"
            "  --dry-run             Report counts without writing the corpus.\n"
            "  --format {text,json}  Output format for the command summary.\n"
        ),
        "",
    ),
    (
        ["train", "--help"],
        0,
        (
            "usage: frameport train [-h] --corpus CORPUS --src-framework\n"
            "                       {keras,mxnet,pytorch} --tgt-framework\n"
            "                       {keras,mxnet,pytorch} --out OUT [--provider PROVIDER]\n"
            "                       [--provider-dim PROVIDER_DIM] [--bpe-merges BPE_MERGES]\n"
            "                       [--d D] [--peak-lr PEAK_LR] [--batch-size BATCH_SIZE]\n"
            "                       [--total-samples TOTAL_SAMPLES]\n"
            "                       [--checkpoint-every CHECKPOINT_EVERY] [--tau TAU]\n"
            "                       [--seed SEED] [--grid] [--lrs LRS]\n"
            "                       [--batch-sizes BATCH_SIZES] [--resume RESUME]\n"
            "                       [--format {text,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --corpus CORPUS       Corpus directory from ingest.\n"
            "  --src-framework {keras,mxnet,pytorch}\n"
            "  --tgt-framework {keras,mxnet,pytorch}\n"
            "  --out OUT             Directory for checkpoints and metrics.\n"
            "  --provider PROVIDER   Embedding provider: hash, context-window, or\n"
            "                        file:PATH.\n"
            "  --provider-dim PROVIDER_DIM\n"
            "                        Embedding width d_b for generated providers.\n"
            "  --bpe-merges BPE_MERGES\n"
            "                        BPE merges when training a context-window provider.\n"
            "  --d D                 Aligned hidden width d.\n"
            "  --peak-lr PEAK_LR\n"
            "  --batch-size BATCH_SIZE\n"
            "  --total-samples TOTAL_SAMPLES\n"
            "                        Samples drawn per side over the whole run (default\n"
            "                        1536000).\n"
            "  --checkpoint-every CHECKPOINT_EVERY\n"
            "                        Steps between model-selection checkpoints.\n"
            "  --tau TAU             Expansion threshold used by the selection dictionary.\n"
            "  --seed SEED\n"
            "  --grid                Search the (peak_lr, batch_size) grid instead of one\n"
            "                        cell.\n"
            "  --lrs LRS             Grid learning rates as a comma list.\n"
            "  --batch-sizes BATCH_SIZES\n"
            "                        Grid batch sizes as a comma list.\n"
            "  --resume RESUME       Checkpoint file to continue from.\n"
            "  --format {text,json}  Output format for the command summary.\n"
        ),
        "",
    ),
    (
        ["dict", "--help"],
        0,
        (
            "usage: frameport dict [-h] --checkpoint CHECKPOINT --corpus CORPUS\n"
            "                      --src-framework {keras,mxnet,pytorch} --tgt-framework\n"
            "                      {keras,mxnet,pytorch} --out OUT\n"
            "                      [--measure {cosine,dot,csls}] [--k K] [--tau TAU]\n"
            "                      [--drop-floor DROP_FLOOR] [--format {text,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --checkpoint CHECKPOINT\n"
            "  --corpus CORPUS       Corpus the checkpoint was trained on.\n"
            "  --src-framework {keras,mxnet,pytorch}\n"
            "  --tgt-framework {keras,mxnet,pytorch}\n"
            "  --out OUT             Dictionary JSON path.\n"
            "  --measure {cosine,dot,csls}\n"
            "                        Similarity measure; csls rescales dot scores by\n"
            "                        neighborhood.\n"
            "  --k K                 Neighborhood size for --measure csls.\n"
            "  --tau TAU             Parameter-to-callable expansion threshold.\n"
            "  --drop-floor DROP_FLOOR\n"
            "                        Scores below this floor drop the parameter outright.\n"
            "  --format {text,json}  Output format for the command summary.\n"
        ),
        "",
    ),
    (
        ["transpile", "--help"],
        0,
        (
            "usage: frameport transpile [-h] --from {keras,mxnet,pytorch} --to\n"
            "                           {keras,mxnet,pytorch} [--input INPUT]\n"
            "                           [--output OUTPUT] [--dictionary DICTIONARY]\n"
            "                           [--template TEMPLATE] [--backend BACKEND]\n"
            "                           [--strict] [--seed SEED] [--format {text,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --from {keras,mxnet,pytorch}\n"
            "  --to {keras,mxnet,pytorch}\n"
            "  --input INPUT         Input file, or - for stdin.\n"
            "  --output OUTPUT       Output file, or - for stdout.\n"
            "  --dictionary DICTIONARY\n"
            "                        Keyword dictionary JSON (default: bundled fixture).\n"
            "  --template TEMPLATE   Prompt template file (default: bundled fixture).\n"
            "  --backend BACKEND     Backend config JSON (default: offline mock).\n"
            "  --strict              Fail on unknown callables instead of passing them\n"
            "                        through.\n"
            "  --seed SEED           Sampling seed sent to HTTP backends (default: the\n"
            "                        backend config's); the mock is deterministic.\n"
            "  --format {text,json}  Output format for the command summary.\n"
        ),
        "",
    ),
    (
        ["eval", "--help"],
        0,
        (
            "usage: frameport eval [-h] --eval-set EVAL_SET --out OUT [--seeds SEEDS]\n"
            "                      [--dictionary-dir DICTIONARY_DIR] [--backend BACKEND]\n"
            "                      [--format {text,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --eval-set EVAL_SET   JSONL examples file.\n"
            "  --out OUT             Directory for report and artifacts.\n"
            "  --seeds SEEDS         Run seeds as a comma list.\n"
            "  --dictionary-dir DICTIONARY_DIR\n"
            "                        Directory of dict_<src>_<tgt>.json files (default:\n"
            "                        bundled).\n"
            "  --backend BACKEND     Backend config JSON (default: offline mock).\n"
            "  --format {text,json}  Output format for the command summary.\n"
        ),
        "",
    ),
    (
        ["inspect", "--help"],
        0,
        (
            "usage: frameport inspect [-h] {vocab,neighbors,diff} ...\n"
            "\n"
            "positional arguments:\n"
            "  {vocab,neighbors,diff}\n"
            "    vocab               List a framework's keyword vocabulary.\n"
            "    neighbors           Top-scoring candidates for one keyword.\n"
            "    diff                Compare the mappings of two dictionaries.\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        ["inspect", "vocab", "--help"],
        0,
        (
            "usage: frameport inspect vocab [-h] --corpus CORPUS --framework\n"
            "                               {keras,mxnet,pytorch}\n"
            "                               [--kind {callable,parameter}] [--limit LIMIT]\n"
            "                               [--format {text,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --corpus CORPUS\n"
            "  --framework {keras,mxnet,pytorch}\n"
            "  --kind {callable,parameter}\n"
            "  --limit LIMIT\n"
            "  --format {text,json}  Output format for the command summary.\n"
        ),
        "",
    ),
    (
        ["inspect", "neighbors", "--help"],
        0,
        (
            "usage: frameport inspect neighbors [-h] --checkpoint CHECKPOINT --corpus\n"
            "                                   CORPUS --src-framework\n"
            "                                   {keras,mxnet,pytorch} --tgt-framework\n"
            "                                   {keras,mxnet,pytorch} --keyword KEYWORD\n"
            "                                   [--kind {callable,parameter}]\n"
            "                                   [--owner OWNER] [--top TOP]\n"
            "                                   [--measure {cosine,dot,csls}] [--k K]\n"
            "                                   [--format {text,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --checkpoint CHECKPOINT\n"
            "  --corpus CORPUS\n"
            "  --src-framework {keras,mxnet,pytorch}\n"
            "  --tgt-framework {keras,mxnet,pytorch}\n"
            "  --keyword KEYWORD     Keyword text to look up.\n"
            "  --kind {callable,parameter}\n"
            "  --owner OWNER         Owning callable (required for parameters).\n"
            "  --top TOP\n"
            "  --measure {cosine,dot,csls}\n"
            "                        Similarity measure; csls rescales dot scores by\n"
            "                        neighborhood.\n"
            "  --k K                 Neighborhood size for --measure csls.\n"
            "  --format {text,json}  Output format for the command summary.\n"
        ),
        "",
    ),
    (
        ["inspect", "diff", "--help"],
        0,
        (
            "usage: frameport inspect diff [-h] --old OLD --new NEW [--format {text,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --old OLD\n"
            "  --new NEW\n"
            "  --format {text,json}  Output format for the command summary.\n"
        ),
        "",
    ),
    (
        [],
        2,
        "",
        (
            "usage: frameport [-h] {ingest,train,dict,transpile,eval,inspect} ...\n"
            "frameport: error: the following arguments are required: command\n"
        ),
    ),
    (
        ["no-such-command"],
        2,
        "",
        (
            "usage: frameport [-h] {ingest,train,dict,transpile,eval,inspect} ...\n"
            "frameport: error: argument command: invalid choice: 'no-such-command' (choose from 'ingest', 'train', 'dict', 'transpile', 'eval', 'inspect')\n"
        ),
    ),
    (
        ["transpile", "--to", "keras"],
        2,
        "",
        (
            "usage: frameport transpile [-h] --from {keras,mxnet,pytorch} --to\n"
            "                           {keras,mxnet,pytorch} [--input INPUT]\n"
            "                           [--output OUTPUT] [--dictionary DICTIONARY]\n"
            "                           [--template TEMPLATE] [--backend BACKEND]\n"
            "                           [--strict] [--seed SEED] [--format {text,json}]\n"
            "frameport transpile: error: the following arguments are required: --from\n"
        ),
    ),
    (
        ["transpile", "--from", "tensorflow", "--to", "keras"],
        2,
        "",
        (
            "usage: frameport transpile [-h] --from {keras,mxnet,pytorch} --to\n"
            "                           {keras,mxnet,pytorch} [--input INPUT]\n"
            "                           [--output OUTPUT] [--dictionary DICTIONARY]\n"
            "                           [--template TEMPLATE] [--backend BACKEND]\n"
            "                           [--strict] [--seed SEED] [--format {text,json}]\n"
            "frameport transpile: error: argument --from: invalid choice: 'tensorflow' (choose from 'keras', 'mxnet', 'pytorch')\n"
        ),
    ),
    (
        ["transpile", "--from", "pytorch", "--to", "keras", "--bogus"],
        2,
        "",
        (
            "usage: frameport [-h] {ingest,train,dict,transpile,eval,inspect} ...\n"
            "frameport: error: unrecognized arguments: --bogus\n"
        ),
    ),
    (
        ["inspect"],
        2,
        "",
        (
            "usage: frameport inspect [-h] {vocab,neighbors,diff} ...\n"
            "frameport inspect: error: the following arguments are required: what\n"
        ),
    ),
]


@pytest.mark.parametrize(
    "argv, code, out, err",
    CLI_GOLDENS,
    ids=[" ".join(argv) or "<no command>" for argv, *_ in CLI_GOLDENS],
)
def test_help_and_usage_errors_match_goldens(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


# -- ingest ----------------------------------------------------------------------


def test_ingest_reports_counts_and_writes_corpus(tree, tmp_path, capsys):
    out = tmp_path / "corpus"
    capsys.readouterr()
    rc = main([
        "ingest", "--root", str(tree), "--out", str(out),
        "--framework", "pytorch", "--framework", "keras",
        "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["units"] == {"keras": 1, "pytorch": 1}
    assert payload["vocabulary"]["pytorch"] > 0
    assert payload["vocabulary"]["keras"] > 0
    assert payload["skipped"] == 0
    assert payload["written"] is True
    assert (out / "manifest.json").is_file()
    assert (out / "units_pytorch.jsonl").is_file()
    assert (out / "units_keras.jsonl").is_file()


def test_ingest_dry_run_writes_nothing(tree, tmp_path, capsys):
    out = tmp_path / "corpus"
    capsys.readouterr()
    rc = main([
        "ingest", "--root", str(tree), "--out", str(out),
        "--dry-run", "--format", "json",
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["written"] is False
    assert not out.exists()


def test_ingest_root_that_does_not_exist_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "corpus"
    missing = tmp_path / "no_such_tree"
    capsys.readouterr()
    assert main(["ingest", "--root", str(missing), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: ingest root {missing} does not exist\n"
    assert not out.exists()


def test_ingest_root_that_is_a_file_is_read_whatever_its_name(tmp_path, capsys):
    notes = tmp_path / "notes.txt"
    notes.write_text(PT_FILE)
    argv = ["ingest", "--root", str(notes), "--framework", "pytorch", "--format", "json"]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "corpus")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["units"] == {"pytorch": 1} and payload["skipped"] == 0
    # --exclude still applies to a file root
    assert main([*argv, "--out", str(tmp_path / "none"), "--exclude", "*notes*"]) == 0
    assert json.loads(capsys.readouterr().out)["units"] == {"pytorch": 0}


# -- train -----------------------------------------------------------------------


def test_train_writes_metrics_and_checkpoints(run_dir):
    records = [
        json.loads(line)
        for line in (run_dir / "metrics.jsonl").read_text().splitlines()
    ]
    losses = [r for r in records if "L_D" in r]
    checkpoints = [r for r in records if "avg_cos_sim" in r]
    assert [r["step"] for r in losses] == list(range(1, 9))
    assert all(
        set(r) == {"step", "lr", "L_CE_1", "L_CE_2", "L_D", "L_G"} for r in losses
    )
    assert [r["step"] for r in checkpoints] == [4, 8]

    state = load_checkpoint(run_dir / "checkpoint.json")
    assert state.step == 8
    assert state.cfg.d == 8
    assert state.cfg.total_samples == 64
    best = load_checkpoint(run_dir / "checkpoint_best.json")
    assert best.cfg.d == 8


def test_train_json_summary(corpus, tmp_path, capsys):
    capsys.readouterr()
    rc = main(
        _train_argv(corpus, tmp_path, "--total-samples", "16", "--format", "json")
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "train"
    assert payload["steps"] == 2
    assert payload["interrupted"] is False
    assert (tmp_path / "checkpoint.json").is_file()
    assert (tmp_path / "checkpoint_best.json").is_file()


def test_train_resume_extends_the_same_run(corpus, tmp_path, capsys):
    rc = main(_train_argv(corpus, tmp_path, "--total-samples", "32"))
    assert rc == 0
    capsys.readouterr()
    rc = main(
        _train_argv(
            corpus, tmp_path,
            "--total-samples", "64",
            "--resume", str(tmp_path / "checkpoint.json"),
            "--format", "json",
        )
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 8
    records = [
        json.loads(line)
        for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
    ]
    losses = [r for r in records if "L_D" in r]
    checkpoints = [r for r in records if "avg_cos_sim" in r]
    assert [r["step"] for r in losses] == list(range(1, 9))
    assert [r["step"] for r in checkpoints] == [4, 8]
    assert load_checkpoint(tmp_path / "checkpoint.json").step == 8


def test_train_grid_reports_every_cell(corpus, tmp_path, capsys):
    capsys.readouterr()
    rc = main(
        _train_argv(
            corpus, tmp_path,
            "--grid", "--lrs", "0.0005,0.001", "--batch-sizes", "8",
            "--total-samples", "32", "--format", "json",
        )
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "grid"
    grid = json.loads((tmp_path / "grid.json").read_text())
    cells = {(c["peak_lr"], c["batch_size"]) for c in grid["cells"]}
    assert cells == {(0.0005, 8), (0.001, 8)}
    assert (grid["best"]["peak_lr"], grid["best"]["batch_size"]) in cells
    assert payload["best_peak_lr"] == grid["best"]["peak_lr"]
    metrics_lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(metrics_lines) == 2
    assert load_checkpoint(tmp_path / "checkpoint.json").cfg.batch_size == 8


def test_train_grid_cannot_resume(corpus, tmp_path, run_dir):
    argv = _train_argv(
        corpus, tmp_path,
        "--grid", "--total-samples", "16",
        "--resume", str(run_dir / "checkpoint.json"),
    )
    assert main(argv) == 2


def test_train_grid_with_resume_fails_before_any_work(tmp_path, capsys):
    # neither the corpus nor the checkpoint exists: the flag pair is
    # rejected before either is read and before --out is created
    out = tmp_path / "out"
    argv = _train_argv(
        tmp_path / "no-corpus", out,
        "--grid", "--resume", str(tmp_path / "no-checkpoint.json"),
    )
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--resume" in err and "--grid" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--d", "0"], "need d >= 1, got 0"),
        (["--checkpoint-every", "-3"], "need checkpoint_every >= 0, got -3"),
        (["--peak-lr", "-1"], "need a finite peak_lr > 0, got -1.0"),
        (["--grid", "--lrs", "1e-3,0"], "need a finite peak_lr > 0, got 0.0"),
    ],
    ids=["d-0", "checkpoint-every-negative", "peak-lr-negative", "grid-lr-0"],
)
def test_train_config_that_breaks_training_fails_before_any_work(
    corpus, tmp_path, capsys, extra, message
):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_train_argv(corpus, out, "--total-samples", "64", *extra)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_resume_from_a_snapshot_fails_before_any_work(
    run_dir, corpus, tmp_path, capsys
):
    grid = tmp_path / "grid"
    assert main(_train_argv(
        corpus, grid, "--grid", "--lrs", "0.001", "--batch-sizes", "8",
        "--total-samples", "16",
    )) == 0
    for snapshot in (run_dir / "checkpoint_best.json", grid / "checkpoint.json"):
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(_train_argv(corpus, out, "--resume", str(snapshot))) == 2
        assert capsys.readouterr().err == (
            f"error: {snapshot} is a snapshot without sampler state; "
            "--resume needs the run's checkpoint.json\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("extra", [("--total-samples", "128"), ()])
def test_train_resume_with_another_provider_width_fails_before_any_work(
    extra, run_dir, corpus, tmp_path, monkeypatch, capsys
):
    # with steps left, and with none left (the checkpoint's total is spent)
    def no_embedding(*args, **kwargs):
        raise AssertionError("embedded occurrences")

    monkeypatch.setattr(cli, "embed_batch", no_embedding)
    ckpt = run_dir / "checkpoint.json"
    out = tmp_path / "out"
    capsys.readouterr()
    argv = _train_argv(corpus, out, "--provider-dim", "16", "--resume", str(ckpt))
    assert main([*argv, *extra]) == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt} expects embeddings of width 8, "
        "but the provider gives width 16\n"
    )
    assert not out.exists()


def _assert_snapshot(path, step: int) -> None:
    """A snapshot checkpoint: the run's step, fresh Adam moments, and no
    sampler or dropout state."""
    doc = json.loads(path.read_text())
    assert doc["step"] == step
    assert doc["sampler_state"] == {} and doc["dropout_state"] == {}
    opt = load_checkpoint(path).opt
    for adam in (opt.joint, opt.disc, opt.gen_adv):
        assert adam.step == 0
        assert all(not m.any() for m in adam.m) and all(not v.any() for v in adam.v)


def test_snapshot_checkpoints_hold_fresh_optimizers_at_the_final_step(
    run_dir, corpus, tmp_path
):
    _assert_snapshot(run_dir / "checkpoint_best.json", 8)
    rc = main(
        _train_argv(
            corpus, tmp_path,
            "--grid", "--lrs", "0.0005,0.001", "--batch-sizes", "8,16",
            "--total-samples", "32",
        )
    )
    assert rc == 0
    best = json.loads((tmp_path / "grid.json").read_text())["best"]
    _assert_snapshot(tmp_path / "checkpoint.json", 32 // best["batch_size"])


def test_train_missing_corpus_is_a_config_error(tmp_path):
    argv = _train_argv(tmp_path / "nope", tmp_path / "out", "--total-samples", "16")
    assert main(argv) == 2


def test_train_unknown_provider_is_a_config_error(corpus, tmp_path):
    argv = _train_argv(corpus, tmp_path, "--total-samples", "16")
    argv[argv.index("hash")] = "quantum"
    assert main(argv) == 2


def test_train_context_window_provider_runs(corpus, tmp_path):
    argv = _train_argv(corpus, tmp_path, "--bpe-merges", "20", "--total-samples", "64")
    argv[argv.index("hash")] = "context-window"
    assert main(argv) == 0
    assert (tmp_path / "checkpoint.json").is_file()
    assert (tmp_path / "checkpoint_best.json").is_file()


def test_train_framework_missing_from_corpus(corpus, tmp_path):
    argv = _train_argv(corpus, tmp_path, "--total-samples", "16")
    argv[argv.index("keras")] = "mxnet"
    assert main(argv) == 2


# -- dict ------------------------------------------------------------------------


def test_dict_induces_and_saves_a_dictionary(run_dir, corpus, tmp_path, capsys):
    out = tmp_path / "dict.json"
    capsys.readouterr()
    rc = main([
        "dict", "--checkpoint", str(run_dir / "checkpoint_best.json"),
        "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras",
        "--out", str(out), "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    dictionary = KeywordDictionary.load(out)
    assert dictionary.src_framework == "pytorch"
    assert dictionary.tgt_framework == "keras"
    assert payload["groups"] == len(dictionary.groups) > 0
    assert payload["params"] == sum(len(g.params) for g in dictionary.groups)
    srcs = {g.src_callable for g in dictionary.groups}
    assert srcs <= {"nn.Linear", "nn.ReLU", "nn.Flatten"}


def test_dict_unwritable_output_names_only_the_output_path(
    run_dir, corpus, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    rc = main([
        "dict", "--checkpoint", str(run_dir / "checkpoint_best.json"),
        "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras",
        "--out", "nodir/d.json",
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: [Errno 2] No such file or directory: 'nodir/d.json'\n"
    )


def test_dict_non_finite_embeddings_exit_3_with_one_line(run_dir, corpus, tmp_path, capsys):
    doc = json.loads((run_dir / "checkpoint_best.json").read_text())
    E1 = fnn.decode_array(doc["model"]["output_embeddings"][0])
    doc["model"]["output_embeddings"][0] = fnn.encode_array(np.full_like(E1, np.nan))
    checkpoint = tmp_path / "nan.json"
    checkpoint.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main([
        "dict", "--checkpoint", str(checkpoint), "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras",
        "--out", str(tmp_path / "d.json"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("pipeline error: source callable 'nn.") and err.count("\n") == 1
    assert not (tmp_path / "d.json").exists()


def test_dict_csls_measure_works(run_dir, corpus, tmp_path):
    rc = main([
        "dict", "--checkpoint", str(run_dir / "checkpoint.json"),
        "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras",
        "--out", str(tmp_path / "d.json"), "--measure", "csls", "--k", "2",
    ])
    assert rc == 0
    assert (tmp_path / "d.json").is_file()


def test_dict_k_without_csls_is_a_config_error(run_dir, corpus, tmp_path):
    rc = main([
        "dict", "--checkpoint", str(run_dir / "checkpoint.json"),
        "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras",
        "--out", str(tmp_path / "d.json"), "--k", "2",
    ])
    assert rc == 2


def test_dict_oversized_csls_k_is_rejected(run_dir, corpus, tmp_path):
    rc = main([
        "dict", "--checkpoint", str(run_dir / "checkpoint.json"),
        "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras",
        "--out", str(tmp_path / "d.json"), "--measure", "csls", "--k", "99",
    ])
    assert rc == 2


# -- transpile ---------------------------------------------------------------------


def test_transpile_stdin_to_stdout(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(FIG_INPUT))
    capsys.readouterr()
    rc = main(["transpile", "--from", "pytorch", "--to", "keras"])
    assert rc == 0
    assert capsys.readouterr().out == FIG_OUTPUT + "\n"


def test_transpile_file_to_file(tmp_path):
    src = tmp_path / "net.py"
    dst = tmp_path / "net_keras.py"
    src.write_text(FIG_INPUT)
    rc = main([
        "transpile", "--from", "pytorch", "--to", "keras",
        "--input", str(src), "--output", str(dst),
    ])
    assert rc == 0
    assert dst.read_text() == FIG_OUTPUT + "\n"


def test_transpile_json_exposes_the_skeleton(tmp_path, capsys):
    src = tmp_path / "net.py"
    src.write_text(FIG_INPUT)
    capsys.readouterr()
    rc = main([
        "transpile", "--from", "pytorch", "--to", "keras",
        "--input", str(src), "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["output"] == FIG_OUTPUT
    assert "PLACEHOLDER_1" in payload["skeleton"]
    assert payload["warnings"] == []


def test_transpile_json_still_writes_the_output_file(tmp_path, capsys):
    src = tmp_path / "net.py"
    dst = tmp_path / "net_keras.py"
    src.write_text(FIG_INPUT)
    capsys.readouterr()
    rc = main([
        "transpile", "--from", "pytorch", "--to", "keras",
        "--input", str(src), "--output", str(dst), "--format", "json",
    ])
    assert rc == 0
    assert dst.read_text() == FIG_OUTPUT + "\n"
    payload = json.loads(capsys.readouterr().out)
    assert payload["output"] == FIG_OUTPUT
    assert "PLACEHOLDER_1" in payload["skeleton"]


def test_transpile_explicit_dictionary_flag(tmp_path, capsys):
    src = tmp_path / "net.py"
    src.write_text(FIG_INPUT)
    capsys.readouterr()
    rc = main([
        "transpile", "--from", "pytorch", "--to", "keras",
        "--input", str(src),
        "--dictionary", str(fixture_path("dict_pytorch_keras.json")),
    ])
    assert rc == 0
    assert capsys.readouterr().out == FIG_OUTPUT + "\n"


def test_transpile_parse_error_exits_3(tmp_path, capsys):
    src = tmp_path / "bad.py"
    src.write_text("import torch.nn as nn\ndef oops(:\n")
    capsys.readouterr()
    rc = main([
        "transpile", "--from", "pytorch", "--to", "keras", "--input", str(src)
    ])
    assert rc == 3
    assert "pipeline error:" in capsys.readouterr().err


def test_transpile_missing_input_exits_2(tmp_path):
    rc = main([
        "transpile", "--from", "pytorch", "--to", "keras",
        "--input", str(tmp_path / "ghost.py"),
    ])
    assert rc == 2


def test_transpile_unwritable_output_names_the_output_path(tmp_path, capsys):
    src = tmp_path / "net.py"
    src.write_text(FIG_INPUT)
    dst = tmp_path / "missing" / "dir" / "x.py"
    capsys.readouterr()
    rc = main([
        "transpile", "--from", "pytorch", "--to", "keras",
        "--input", str(src), "--output", str(dst),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"'{dst}'" in err
    assert ".tmp" not in err
    assert not dst.parent.exists()


def test_transpile_pair_without_bundled_dictionary_exits_2(tmp_path, capsys):
    # the error names the two flags that give a learned dictionary
    src = tmp_path / "net.py"
    src.write_text(FIG_INPUT)
    eval_set = tmp_path / "examples.jsonl"
    eval_set.write_text(json.dumps({
        "id": "fig", "src_framework": "pytorch", "tgt_framework": "mxnet",
        "source": FIG_INPUT, "gold": "",
    }) + "\n")
    for argv in (
        ["transpile", "--from", "pytorch", "--to", "mxnet", "--input", str(src)],
        ["eval", "--eval-set", str(eval_set), "--out", str(tmp_path / "out")],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: no bundled fixture named 'dict_pytorch_mxnet.json'; a pair "
            "without a bundled dictionary needs a learned one, given with "
            "transpile --dictionary or eval --dictionary-dir\n"
        )


def test_transpile_unmapped_callable_warns_on_stderr(tmp_path, capsys):
    src = tmp_path / "net.py"
    src.write_text("import torch.nn as nn\ngate = nn.Sigmoid()\n")
    capsys.readouterr()
    rc = main([
        "transpile", "--from", "pytorch", "--to", "keras", "--input", str(src)
    ])
    assert rc == 0
    assert "warning:" in capsys.readouterr().err


def test_transpile_strict_rejects_unknown_callables(tmp_path):
    src = tmp_path / "net.py"
    src.write_text("import torch.nn as nn\nx = nn.Bogus(1)\n")
    rc = main([
        "transpile", "--from", "pytorch", "--to", "keras",
        "--input", str(src), "--strict",
    ])
    assert rc == 3


def test_transpile_seed_reaches_the_backend_config(tmp_path, monkeypatch):
    src = tmp_path / "net.py"
    src.write_text(FIG_INPUT)
    backend = tmp_path / "backend.json"
    backend.write_text(json.dumps({"kind": "mock-rules", "seed": 3}))
    seeds = []
    real = cli.transpile_unit

    def recording(unit, src_db, tgt_db, dictionary, template, cfg, **kwargs):
        seeds.append(cfg.seed)
        return real(unit, src_db, tgt_db, dictionary, template, cfg, **kwargs)

    monkeypatch.setattr(cli, "transpile_unit", recording)
    base = ["transpile", "--from", "pytorch", "--to", "keras", "--input", str(src)]
    for extra in ([], ["--seed", "7"], ["--backend", str(backend)],
                  ["--backend", str(backend), "--seed", "7"]):
        assert main([*base, "--output", str(tmp_path / "out.py"), *extra]) == 0
    assert seeds == [None, 7, 3, 7]


# -- eval ------------------------------------------------------------------------


def _write_eval_set(path) -> None:
    rows = [
        {
            "id": "fig",
            "src_framework": "pytorch",
            "tgt_framework": "keras",
            "source": FIG_INPUT,
            "gold": FIG_OUTPUT,
        },
        {
            "id": "conv",
            "src_framework": "pytorch",
            "tgt_framework": "keras",
            "source": "import torch.nn as nn\nconv = nn.Conv2d(3, 16, 3)\n",
            "gold": (
                "from tensorflow.keras import layers\n"
                "conv = layers.Conv2D(filters=16, kernel_size=3)"
            ),
        },
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_eval_scores_a_suite_and_writes_artifacts(tmp_path, capsys):
    eval_set = tmp_path / "examples.jsonl"
    _write_eval_set(eval_set)
    out = tmp_path / "evalout"
    capsys.readouterr()
    rc = main([
        "eval", "--eval-set", str(eval_set), "--out", str(out),
        "--seeds", "10,20", "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["mean"] == {"f1": 1.0, "em": 1.0, "examples": 2}
    assert len(payload["seeds"]) == 2
    assert all(r["error"] is None for s in payload["seeds"] for r in s["examples"])
    report = json.loads((out / "report.json").read_text())
    assert report["mean"]["f1"] == 1.0
    assert (out / "artifacts" / "fig" / "pred.py").read_text() == FIG_OUTPUT + "\n"
    gold_test = (out / "artifacts" / "fig" / "gold_test.py").read_text()
    assert gold_test.startswith("# reference output")


def test_eval_transpiles_each_example_once_with_the_mock_backend(
    tmp_path, capsys, monkeypatch
):
    eval_set = tmp_path / "examples.jsonl"
    _write_eval_set(eval_set)
    # a third example whose transpile fails: every seed reports its error
    with eval_set.open("a") as fh:
        fh.write(json.dumps({
            "id": "broken", "src_framework": "pytorch", "tgt_framework": "keras",
            "source": "x = (", "gold": "x = 1",
        }) + "\n")
    calls = []
    real = cli.transpile_unit

    def counting(unit, *args, **kwargs):
        calls.append(unit.origin)
        return real(unit, *args, **kwargs)

    monkeypatch.setattr(cli, "transpile_unit", counting)
    capsys.readouterr()
    rc = main([
        "eval", "--eval-set", str(eval_set), "--out", str(tmp_path / "out"),
        "--seeds", "10,20,30", "--format", "json",
    ])
    assert rc == 0
    assert calls == ["fig", "conv", "broken"]
    payload = json.loads(capsys.readouterr().out)
    errors = [s["examples"][2]["error"] for s in payload["seeds"]]
    assert errors[0].startswith("ParseError: broken:") and errors == errors[:1] * 3
    assert [s["f1"] for s in payload["seeds"]] == [2 / 3] * 3


def test_eval_calls_an_http_backend_once_per_seed(tmp_path, monkeypatch):
    eval_set = tmp_path / "examples.jsonl"
    _write_eval_set(eval_set)
    backend = tmp_path / "backend.json"
    backend.write_text(json.dumps(
        {"kind": "http-completion", "endpoint": "http://127.0.0.1:9/v1"}
    ))
    calls = []

    def unavailable(unit, *args, **kwargs):
        calls.append(unit.origin)
        raise BackendUnavailable("no backend in tests")

    monkeypatch.setattr(cli, "transpile_unit", unavailable)
    rc = main([
        "eval", "--eval-set", str(eval_set), "--out", str(tmp_path / "out"),
        "--seeds", "10,20", "--backend", str(backend),
    ])
    assert rc == 0
    assert calls == ["fig", "conv", "fig", "conv"]


class _MockOverHttp(http.server.BaseHTTPRequestHandler):
    """A completion endpoint that answers as the offline mock and records
    the seed of every request in ``seeds``."""

    seeds: list = []

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.seeds.append(payload.get("seed"))
        completion = MockRulesBackend().complete(
            payload["prompt"], payload["stop"][0], BackendConfig()
        )
        body = json.dumps(
            {"choices": [{"text": completion.text, "finish_reason": "stop"}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def test_eval_sends_each_seed_to_an_http_backend(tmp_path, capsys, monkeypatch):
    eval_set = tmp_path / "examples.jsonl"
    _write_eval_set(eval_set)
    monkeypatch.setattr(_MockOverHttp, "seeds", [])
    server = http.server.HTTPServer(("127.0.0.1", 0), _MockOverHttp)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        backend = tmp_path / "backend.json"
        backend.write_text(json.dumps({
            "kind": "http-completion",
            "endpoint": f"http://127.0.0.1:{server.server_port}/v1",
            "retries": 0,
        }))
        capsys.readouterr()
        rc = main([
            "eval", "--eval-set", str(eval_set), "--out", str(tmp_path / "out"),
            "--seeds", "10,20,30,40,50", "--backend", str(backend), "--format", "json",
        ])
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert rc == 0
    # one request per example and seed, seeds outermost
    assert _MockOverHttp.seeds == [seed for seed in (10, 20, 30, 40, 50) for _ in "ab"]
    payload = json.loads(capsys.readouterr().out)
    assert [s["f1"] for s in payload["seeds"]] == [1.0] * 5


def test_unreachable_backend_exits_4(tmp_path, capsys, monkeypatch):
    # a localhost port just bound and closed refuses the connection
    monkeypatch.setenv("no_proxy", "*")
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    backend = tmp_path / "backend.json"
    backend.write_text(json.dumps({
        "kind": "http-completion",
        "endpoint": f"http://127.0.0.1:{port}/v1",
        "retries": 0,
    }))
    source, output = tmp_path / "net.py", tmp_path / "out.py"
    source.write_text(FIG_INPUT)
    capsys.readouterr()
    rc = main([*_TRANSPILE, "--input", str(source), "--output", str(output),
               "--backend", str(backend)])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("backend error: backend unreachable after retries: ")
    assert not output.exists()


def test_eval_empty_set_reports_no_examples(tmp_path, capsys):
    eval_set = tmp_path / "examples.jsonl"
    eval_set.write_text("\n\n")
    capsys.readouterr()
    rc = main([
        "eval", "--eval-set", str(eval_set), "--out", str(tmp_path / "out"),
        "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean"] == {"f1": None, "em": None, "examples": 0}


def test_eval_missing_dictionary_dir_pair_exits_2(tmp_path):
    eval_set = tmp_path / "examples.jsonl"
    _write_eval_set(eval_set)
    (tmp_path / "dicts").mkdir()
    rc = main([
        "eval", "--eval-set", str(eval_set), "--out", str(tmp_path / "out"),
        "--dictionary-dir", str(tmp_path / "dicts"),
    ])
    assert rc == 2


@pytest.mark.parametrize("flag", ["--seeds", "--lrs", "--batch-sizes"])
def test_empty_comma_list_is_a_usage_error_before_any_work(
    flag, corpus, tmp_path, capsys
):
    # argparse rejects the list before eval runs a suite of no seeds, or
    # train embeds the corpus and creates --out
    out = tmp_path / "out"
    if flag == "--seeds":
        eval_set = tmp_path / "examples.jsonl"
        _write_eval_set(eval_set)
        argv = ["eval", "--eval-set", str(eval_set), "--out", str(out), flag, ","]
    else:
        argv = _train_argv(corpus, out, "--grid", "--total-samples", "16", flag, ",")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: not a comma-separated" in err
    assert "Traceback" not in err
    assert not out.exists()


def _count_argv(flag, value, tree, corpus, run_dir, out):
    if flag == "--size-cap":
        return ["ingest", "--root", str(tree), "--out", str(out), flag, value]
    if flag == "--limit":
        return ["inspect", "vocab", "--corpus", str(corpus),
                "--framework", "pytorch", flag, value]
    return [
        "inspect", "neighbors", "--checkpoint", str(run_dir / "checkpoint.json"),
        "--corpus", str(corpus), "--src-framework", "pytorch",
        "--tgt-framework", "keras", "--keyword", "nn.Linear", flag, value,
    ]


@pytest.mark.parametrize(
    "flag, value", [("--size-cap", "-1"), ("--limit", "-2"), ("--top", "-1")]
)
def test_negative_count_is_a_usage_error_before_any_work(
    flag, value, tree, corpus, run_dir, tmp_path, capsys
):
    # ingest would skip every file and write an empty corpus, and inspect
    # would drop entries from the end of its list
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_count_argv(flag, value, tree, corpus, run_dir, out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: not an integer >= 0: '{value}'" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()
    # zero is still a count
    assert main(_count_argv(flag, "0", tree, corpus, run_dir, out)) == 0


# -- malformed input files ------------------------------------------------------


def _broken_checkpoint(tmp_path, corpus):
    path = tmp_path / "checkpoint.json"
    path.write_text("not json\n")
    argv = [
        "dict", "--checkpoint", str(path), "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras",
        "--out", str(tmp_path / "dict.json"),
    ]
    return argv, path


def _broken_manifest(tmp_path, corpus):
    path = tmp_path / "manifest.json"
    path.write_text('{"frameworks": {"pytorch": {"unit_count": 1}}}\n')
    return ["inspect", "vocab", "--corpus", str(tmp_path), "--framework", "pytorch"], path


def _broken_dictionary(tmp_path, corpus):
    path = tmp_path / "new.json"
    path.write_text('{"groups": [\n')
    bundled = fixture_path("dict_pytorch_keras.json")
    return ["inspect", "diff", "--old", str(bundled), "--new", str(path)], path


def _broken_eval_set(tmp_path, corpus):
    path = tmp_path / "examples.jsonl"
    _write_eval_set(path)
    rows = path.read_text().splitlines()
    row = json.loads(rows[1])
    del row["src_framework"]
    path.write_text(rows[0] + "\n" + json.dumps(row) + "\n")
    return ["eval", "--eval-set", str(path), "--out", str(tmp_path / "out")], f"{path}:2"


def _not_utf8(path):
    # a Latin-1 "é" is the byte 0xE9, which starts no UTF-8 sequence
    path.write_bytes(b"# caf\xe9\n")
    return path


_TRANSPILE = ["transpile", "--from", "pytorch", "--to", "keras"]


def _not_utf8_input(tmp_path, corpus):
    path = _not_utf8(tmp_path / "net.py")
    return [*_TRANSPILE, "--input", str(path)], path


def _not_utf8_stdin(tmp_path, corpus):
    # the test feeds stdin NOT_UTF8_STDIN
    return [*_TRANSPILE, "--input", "-"], "-"


def _not_utf8_template(tmp_path, corpus):
    source = tmp_path / "net.py"
    source.write_text(FIG_INPUT)
    path = _not_utf8(tmp_path / "template.txt")
    return [*_TRANSPILE, "--input", str(source), "--template", str(path)], path


def _not_utf8_eval_set(tmp_path, corpus):
    path = _not_utf8(tmp_path / "examples.jsonl")
    return ["eval", "--eval-set", str(path), "--out", str(tmp_path / "out")], path


def _not_utf8_embedding_file(tmp_path, corpus):
    path = _not_utf8(tmp_path / "vectors.txt")
    return _train_argv(corpus, tmp_path / "out", "--provider", f"file:{path}"), path


def _partial_float_embedding_file(tmp_path, corpus):
    path = tmp_path / "vectors.txt"
    # a 5-byte payload is not a whole number of float32 values
    path.write_text("d_b=3\nk\tMTIzNDU=\n")
    return _train_argv(corpus, tmp_path / "out", "--provider", f"file:{path}"), path


# stdin decodes a byte that is not UTF-8 to a lone surrogate
NOT_UTF8_STDIN = b"# caf\xe9\n".decode("utf-8", "surrogateescape")


@pytest.mark.parametrize("make", [
    _broken_checkpoint, _broken_manifest, _broken_dictionary, _broken_eval_set,
    _not_utf8_input, _not_utf8_stdin, _not_utf8_template, _not_utf8_eval_set,
    _not_utf8_embedding_file, _partial_float_embedding_file,
])
def test_malformed_input_file_exits_2_with_one_line_naming_it(
    make, corpus, tmp_path, capsys, monkeypatch
):
    argv, path = make(tmp_path, corpus)
    monkeypatch.setattr("sys.stdin", io.StringIO(NOT_UTF8_STDIN))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load ") and err.count("\n") == 1
    assert f" {path}: " in err
    assert not (tmp_path / "out").exists()


# -- inspect ---------------------------------------------------------------------


def test_inspect_vocab_lists_and_filters(corpus, capsys):
    capsys.readouterr()
    rc = main([
        "inspect", "vocab", "--corpus", str(corpus),
        "--framework", "pytorch", "--format", "json",
    ])
    assert rc == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    texts = {e["text"] for e in entries}
    assert {"nn.Linear", "nn.ReLU", "nn.Flatten"} <= texts
    assert "in_features" in texts

    capsys.readouterr()
    rc = main([
        "inspect", "vocab", "--corpus", str(corpus),
        "--framework", "pytorch", "--kind", "callable", "--limit", "2",
        "--format", "json",
    ])
    assert rc == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert len(entries) == 2
    assert all(e["kind"] == "callable" for e in entries)


def test_inspect_vocab_unknown_framework_exits_2(corpus):
    rc = main([
        "inspect", "vocab", "--corpus", str(corpus), "--framework", "mxnet"
    ])
    assert rc == 2


def test_inspect_neighbors_ranks_same_kind_candidates(run_dir, corpus, capsys):
    capsys.readouterr()
    rc = main([
        "inspect", "neighbors", "--checkpoint", str(run_dir / "checkpoint.json"),
        "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras",
        "--keyword", "nn.Linear", "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["keyword"] == {
        "kind": "callable", "text": "nn.Linear", "owner": None
    }
    assert payload["measure"] == "cosine"
    neighbors = payload["neighbors"]
    assert neighbors
    assert all(n["kind"] == "callable" for n in neighbors)
    scores = [n["score"] for n in neighbors]
    assert scores == sorted(scores, reverse=True)


def test_inspect_neighbors_csls_tag_and_parameters(run_dir, corpus, capsys):
    capsys.readouterr()
    rc = main([
        "inspect", "neighbors", "--checkpoint", str(run_dir / "checkpoint.json"),
        "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras",
        "--keyword", "in_features", "--kind", "parameter", "--owner", "nn.Linear",
        "--measure", "csls", "--k", "2", "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["measure"] == "csls(2, dot)"
    assert all(n["kind"] == "parameter" for n in payload["neighbors"])


def test_inspect_neighbors_unknown_keyword_exits_2(run_dir, corpus):
    rc = main([
        "inspect", "neighbors", "--checkpoint", str(run_dir / "checkpoint.json"),
        "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras",
        "--keyword", "nn.Transformer",
    ])
    assert rc == 2


@pytest.mark.parametrize("flags, message", [
    (["--keyword", "in_features", "--kind", "parameter"],
     "parameter keyword 'in_features' needs an owner"),
    (["--keyword", "nn.Linear", "--owner", "nn.Conv2d"],
     "callable keyword 'nn.Linear' cannot have an owner"),
])
def test_inspect_neighbors_owner_rule_exits_2_before_loading(
    flags, message, corpus, tmp_path, capsys
):
    # the checkpoint does not exist: the keyword is rejected before it is read
    capsys.readouterr()
    rc = main([
        "inspect", "neighbors", "--checkpoint", str(tmp_path / "missing.json"),
        "--corpus", str(corpus),
        "--src-framework", "pytorch", "--tgt-framework", "keras", *flags,
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_inspect_diff_reports_changes(tmp_path, capsys):
    bundled = fixture_path("dict_pytorch_keras.json")
    capsys.readouterr()
    rc = main([
        "inspect", "diff", "--old", str(bundled), "--new", str(bundled),
        "--format", "json",
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"changes": []}

    original = KeywordDictionary.load(bundled)
    groups = list(original.groups)
    groups[0] = replace(groups[0], tgt_callable="layers.Identity")
    modified = replace(original, groups=tuple(groups[:-1]))
    new_path = tmp_path / "new.json"
    modified.save(new_path)
    capsys.readouterr()
    rc = main([
        "inspect", "diff", "--old", str(bundled), "--new", str(new_path),
        "--format", "json",
    ])
    assert rc == 0
    changes = json.loads(capsys.readouterr().out)["changes"]
    kinds = {c["src_callable"]: c["change"] for c in changes}
    assert kinds[original.groups[0].src_callable] == "changed"
    assert kinds[original.groups[-1].src_callable] == "removed"
    assert len(changes) == 2


def test_inspect_diff_reports_an_added_group(tmp_path, capsys):
    bundled = fixture_path("dict_pytorch_keras.json")
    original = KeywordDictionary.load(bundled)
    old_path = tmp_path / "old.json"
    replace(original, groups=original.groups[1:]).save(old_path)
    added = original.groups[0].src_callable
    argv = ["inspect", "diff", "--old", str(old_path), "--new", str(bundled)]
    capsys.readouterr()
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "changes": [{"src_callable": added, "change": "added"}]
    }
    assert main(argv) == 0
    assert capsys.readouterr().out == f"added    {added}\n"


def test_inspect_diff_names_the_parts_that_changed(tmp_path, capsys):
    bundled = fixture_path("dict_pytorch_keras.json")
    original = KeywordDictionary.load(bundled)
    groups = list(original.groups)
    # same target, one parameter fewer
    groups[1] = replace(groups[1], params=groups[1].params[:-1])
    # new target and a new expansion
    groups[3] = replace(
        groups[3],
        tgt_callable="layers.Activation",
        expansions=(Expansion("inplace", "layers.ReLU()", 1.0),),
    )
    new_path = tmp_path / "new.json"
    replace(original, groups=tuple(groups)).save(new_path)
    argv = ["inspect", "diff", "--old", str(bundled), "--new", str(new_path)]
    capsys.readouterr()
    assert main([*argv, "--format", "json"]) == 0
    changes = json.loads(capsys.readouterr().out)["changes"]
    assert [(c["src_callable"], c["parts"]) for c in changes] == [
        ("nn.Conv2d", ["params"]),
        ("nn.ReLU", ["target", "expansions"]),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "changed  nn.Conv2d (params)",
        "changed  nn.ReLU (target layers.ReLU -> layers.Activation, expansions)",
    ]


# -- parsers built on dispatch ----------------------------------------------------


def _counting_parser_inits(monkeypatch) -> list:
    """The ``prog`` of every ``ArgumentParser.__init__`` that runs from now on."""
    progs = []
    real_init = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    return progs


def test_only_the_dispatched_parsers_are_initialised(monkeypatch, capsys):
    progs = _counting_parser_inits(monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO(FIG_INPUT))
    capsys.readouterr()
    assert main(["transpile", "--from", "pytorch", "--to", "keras"]) == 0
    assert capsys.readouterr().out == FIG_OUTPUT + "\n"
    assert progs == ["frameport", "frameport transpile"]

    progs.clear()
    bundled = str(fixture_path("dict_pytorch_keras.json"))
    assert main(["inspect", "diff", "--old", bundled, "--new", bundled]) == 0
    assert progs == ["frameport", "frameport inspect", "frameport inspect diff"]


@pytest.mark.parametrize(
    "argv, prog, dest, choices",
    [
        (["transpil"], "frameport", "command",
         ["ingest", "train", "dict", "transpile", "eval", "inspect"]),
        (["inspect", "difff", "--old", "a"], "frameport inspect", "what",
         ["vocab", "neighbors", "diff"]),
    ],
)
def test_unknown_command_is_a_usage_error_listing_every_choice(
    argv, prog, dest, choices, capsys
):
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, message = err.splitlines()
    assert usage.startswith(f"usage: {prog} [-h] {{{','.join(choices)}}}")
    bad = argv[prog.count(" ")]
    head = f"{prog}: error: argument {dest}: invalid choice: {bad!r} (choose from "
    assert message.startswith(head)
    listed = message[len(head):].rstrip(")").split(", ")
    assert [name.strip("'") for name in listed] == choices
