"""What a ``transpile`` process loads: only the transpile path.

Every ``frameport transpile`` is a fresh interpreter, so an import it does
not need is paid on every file translated. The learning modules, numpy,
``logging`` and the HTTP stack must stay out of ``sys.modules``, and the
README's quick start must run, byte for byte, with numpy made
unimportable. ``ingest``, ``inspect vocab`` and ``inspect diff`` import no
numpy either.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from frameport.pipeline import fixture_path
from helpers import KS_FILE, PT_FILE

ROOT = Path(__file__).resolve().parents[1]

# modules only the learning commands, or an HTTP backend, need
UNUSED = [
    "numpy",
    "logging",
    "urllib.request",
    "frameport.bpe",
    "frameport.corpus",
    "frameport.dictionary",
    "frameport.embeddings",
    "frameport.evaluate",
    "frameport.nn",
    "frameport.train",
]

# run in a child interpreter: argv[1] is "block" to make numpy
# unimportable first, argv[2] the statement to run (it may set the exit
# code ``rc``); the UNUSED modules that got loaded are printed to stderr
# as one JSON line
CHILD = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
rc = 0
exec(sys.argv[2])
loaded = [name for name in sys.argv[3:] if sys.modules.get(name) is not None]
print(json.dumps(loaded), file=sys.stderr)
sys.exit(rc)
"""


def _quick_start() -> tuple[str, list[str], str]:
    """The README quick start: net.py, the command's argv, its output."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("\n```", 1)[0]
    source, run = block.split("$ cat net.py\n", 1)[1].split("\n\n$ ", 1)
    command, expected = run.split("\n", 1)
    argv = command.split()
    assert argv[0] == "frameport"
    return source + "\n", argv[1:], expected + "\n"


def _child(tmp_path: Path, mode: str, statement: str) -> tuple[str, list[str]]:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, mode, statement, *UNUSED],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    *_, loaded = done.stderr.splitlines()
    return done.stdout, json.loads(loaded)


@pytest.mark.parametrize("mode", ["load", "block"])
def test_transpile_loads_only_the_transpile_path(tmp_path, mode):
    source, argv, expected = _quick_start()
    (tmp_path / "net.py").write_text(source, encoding="utf-8")
    statement = f"from frameport.cli import main; rc = main({argv!r})"
    out, loaded = _child(tmp_path, mode, statement)
    assert out == expected
    assert loaded == []


@pytest.mark.parametrize("mode", ["load", "block"])
def test_importing_the_package_loads_only_the_transpile_path(tmp_path, mode):
    out, loaded = _child(tmp_path, mode, "import frameport")
    assert out == ""
    assert loaded == []


@pytest.mark.parametrize("mode", ["load", "block"])
def test_ingest_and_inspect_vocab_and_diff_import_no_numpy(tmp_path, mode):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "pt.py").write_text(PT_FILE, encoding="utf-8")
    (tree / "ks.py").write_text(KS_FILE, encoding="utf-8")
    bundled = str(fixture_path("dict_pytorch_keras.json"))
    commands = [
        ["ingest", "--root", "tree", "--out", "corpus",
         "--framework", "pytorch", "--framework", "keras"],
        ["inspect", "vocab", "--corpus", "corpus", "--framework", "pytorch"],
        ["inspect", "diff", "--old", bundled, "--new", bundled],
    ]
    statement = (
        "from frameport.cli import main\n"
        f"rc = max(main(argv) for argv in {commands!r})"
    )
    out, loaded = _child(tmp_path, mode, statement)
    assert "corpus written to corpus" in out
    assert "parameter nn.Linear.in_features" in out
    assert (tmp_path / "corpus" / "manifest.json").is_file()
    assert "numpy" not in loaded
