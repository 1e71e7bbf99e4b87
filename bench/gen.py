"""Seeded inputs for the benchmark workloads, with their expected outputs.

Nothing here imports frameport. Expected transpile outputs are assembled
from the hand-written per-layer tables below, and the alignment gold
pairing comes from the generator's own construction, so the checks in
``workloads.py`` compare the program against values it did not produce.
The same seed always yields byte-identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# -- per-layer tables ---------------------------------------------------------
#
# Each row is (source call, expected target call). The expected side is the
# canonical rendering the translation must produce: positional arguments
# bound to keywords in the target signature's order, parameters without a
# counterpart dropped, and callables the bundled dictionary does not know
# passed through unchanged.

PT_TO_KERAS = (
    ("nn.Linear({a}, {b})", "layers.Dense(units={b})"),
    (
        "nn.Linear(in_features={a}, out_features={b}, bias=False)",
        "layers.Dense(units={b}, use_bias=False)",
    ),
    ("torch.nn.Linear({a}, {b})", "layers.Dense(units={b})"),
    ("nn.Conv2d({a}, {b}, {k})", "layers.Conv2D(filters={b}, kernel_size={k})"),
    (
        "nn.Conv2d({a}, {b}, kernel_size={k}, stride={s}, padding={p})",
        "layers.Conv2D(filters={b}, kernel_size={k}, strides={s}, padding={p})",
    ),
    ("nn.MaxPool2d({k})", "layers.MaxPooling2D(pool_size={k})"),
    (
        "nn.MaxPool2d({k}, stride={s}, padding={p})",
        "layers.MaxPooling2D(pool_size={k}, strides={s}, padding={p})",
    ),
    ("nn.ReLU()", "layers.ReLU()"),
    ("nn.ReLU(inplace=True)", "layers.ReLU()"),
    ("nn.Dropout({r})", "layers.Dropout(rate={r})"),
    ("nn.Embedding({n}, {a})", "layers.Embedding(input_dim={n}, output_dim={a})"),
    ("nn.BatchNorm2d({a})", "layers.BatchNormalization()"),
    (
        "nn.BatchNorm2d({a}, eps={e}, momentum={m})",
        "layers.BatchNormalization(momentum={m}, epsilon={e})",
    ),
    ("nn.LSTM({a}, {b})", "layers.LSTM(units={b})"),
    ("nn.Flatten()", "layers.Flatten()"),
    ("nn.Softmax(dim={d})", "layers.Softmax(axis={d})"),
    ("nn.Sigmoid()", "nn.Sigmoid()"),
)

KERAS_TO_PT = (
    ("layers.Dense({b})", "nn.Linear(out_features={b})"),
    ("layers.Dense({b}, use_bias=False)", "nn.Linear(out_features={b}, bias=False)"),
    ("layers.Conv2D({b}, {k})", "nn.Conv2d(out_channels={b}, kernel_size={k})"),
    (
        "layers.Conv2D({b}, {k}, strides={s}, padding='same')",
        "nn.Conv2d(out_channels={b}, kernel_size={k}, stride={s}, padding='same')",
    ),
    ("layers.MaxPooling2D({k})", "nn.MaxPool2d(kernel_size={k})"),
    (
        "layers.MaxPool2D(pool_size={k}, strides={s})",
        "nn.MaxPool2d(kernel_size={k}, stride={s})",
    ),
    ("layers.ReLU()", "nn.ReLU()"),
    ("layers.Dropout({r})", "nn.Dropout(p={r})"),
    (
        "layers.Embedding({n}, {a})",
        "nn.Embedding(num_embeddings={n}, embedding_dim={a})",
    ),
    (
        "layers.BatchNormalization(momentum={m}, epsilon={e})",
        "nn.BatchNorm2d(eps={e}, momentum={m})",
    ),
    ("layers.LSTM({b})", "nn.LSTM(hidden_size={b})"),
    ("layers.Flatten()", "nn.Flatten()"),
    ("layers.Softmax(axis={d})", "nn.Softmax(dim={d})"),
    # the activation parameter expands into a trailing call, which needs a
    # list around the host call
    (
        "[layers.Dense({b}, activation='relu'), layers.Dropout({r})]",
        "[nn.Linear(out_features={b}), nn.ReLU(), nn.Dropout(p={r})]",
    ),
)

# Container calls appear only in the learning corpus: the bundled pair maps
# nn.Sequential to keras.Sequential, whose signature is not variadic, so a
# transpiled container would not bind.
PT_CONTAINER = "nn.Sequential(nn.Linear({a}, {b}), nn.ReLU())"
KERAS_CONTAINER = "keras.Sequential([layers.Dense({b}), layers.ReLU()])"

# Integer pools are disjoint within every call, so a keyword mapped to the
# wrong name can never match the gold output by an accident of values.
_VALUES = {
    "a": (8, 16, 32),
    "b": (64, 128, 256),
    "k": (3, 5, 7),
    "s": (2, 4),
    "p": (0, 1),
    "r": (0.1, 0.2, 0.25, 0.5),
    "n": (1000, 5000, 10000),
    "e": (0.001, 0.01),
    "m": (0.1, 0.9),
    "d": (1, -1),
}

_NAMES = ("Net", "Block", "Encoder", "Decoder", "Head", "Stem", "Tower", "Cell")

PROFILES = {
    "pytorch": {
        "import": "import torch.nn as nn",
        "base": "nn.Module",
        "method": "forward",
    },
    "keras": {
        "import": "from tensorflow.keras import layers",
        "base": "layers.Layer",
        "method": "call",
    },
}

MIN_LAYERS = 1
MAX_LAYERS = 64


def _draw_values(rng: np.random.Generator) -> dict:
    return {key: pool[int(rng.integers(len(pool)))] for key, pool in _VALUES.items()}


def _class_text(
    name: str, framework: str, calls: list[str], comments: list[bool] | None = None
) -> str:
    """One module class: layers assigned in __init__, applied in order."""
    prof = PROFILES[framework]
    lines = [
        f"class {name}({prof['base']}):",
        "",
        "    def __init__(self):",
        "        super().__init__()",
    ]
    for i, call in enumerate(calls):
        note = f"  # layer {i}" if comments and comments[i] else ""
        lines.append(f"        self.l{i} = {call}{note}")
    lines += ["", f"    def {prof['method']}(self, x):"]
    lines += [f"        x = self.l{i}(x)" for i in range(len(calls))]
    lines.append("        return x")
    return "\n".join(lines)


@dataclass(frozen=True)
class TranspileUnit:
    """One source module and the exact bytes its translation must produce."""

    name: str
    src_framework: str
    tgt_framework: str
    source: str
    expected: str  # canonical target text, without the trailing newline


def make_unit(
    rng: np.random.Generator,
    index: int,
    src: str,
    tgt: str,
    n_layers: int,
    row_ids: list[int] | None = None,
) -> TranspileUnit:
    """One unit of ``n_layers`` table rows, drawn at random unless given."""
    table = PT_TO_KERAS if src == "pytorch" else KERAS_TO_PT
    if row_ids is None:
        row_ids = [int(rng.integers(len(table))) for _ in range(n_layers)]
    rows = [table[i] for i in row_ids]
    values = [_draw_values(rng) for _ in range(n_layers)]
    comments = [bool(rng.random() < 0.2) for _ in range(n_layers)]
    name = f"{_NAMES[int(rng.integers(len(_NAMES)))]}{index}"
    src_calls = [row[0].format(**v) for row, v in zip(rows, values)]
    tgt_calls = [row[1].format(**v) for row, v in zip(rows, values)]
    # the source is deliberately not in canonical layout (two blank lines,
    # no blank line between methods, trailing comments)
    source = (
        PROFILES[src]["import"]
        + "\n\n\n"
        + _class_text(name, src, src_calls, comments).replace("\n\n    def", "\n    def")
        + "\n"
    )
    expected = PROFILES[tgt]["import"] + "\n\n" + _class_text(name, tgt, tgt_calls)
    return TranspileUnit(name, src, tgt, source, expected)


BLOCK = 256

# Sizes of one block of units: the BLOCK quantiles of a log-uniform
# distribution over MIN_LAYERS..MAX_LAYERS, so small modules are common and
# the size range is continuous. Every block holds exactly this multiset.
BLOCK_SIZES = tuple(
    round(MIN_LAYERS * (MAX_LAYERS / MIN_LAYERS) ** ((j + 0.5) / BLOCK))
    for j in range(BLOCK)
)


def transpile_unit(seed: int, index: int) -> TranspileUnit:
    """Unit ``index`` of the endless transpile stream for ``seed``.

    Each block of BLOCK consecutive units has the same size mix in a seeded
    order, while layer kinds, arguments and names are drawn per unit. Even
    indices translate pytorch->keras, odd ones keras->pytorch. A unit
    depends only on (seed, index), so a run can draw as many as it needs.
    """
    block, slot = divmod(index, BLOCK)
    order = np.random.default_rng([seed, 1, block]).permutation(BLOCK)
    rng = np.random.default_rng([seed, 1, block, slot])
    src, tgt = ("pytorch", "keras") if index % 2 == 0 else ("keras", "pytorch")
    return make_unit(rng, index, src, tgt, BLOCK_SIZES[int(order[slot])])


# -- learning corpus ------------------------------------------------------------
#
# The layer kinds of the corpus and of the eval suite come from a constant
# structure seed; the run seed and the part draw names, argument values and
# comments.
# The hash embedding provider sees only keyword text, so every seed poses
# the same alignment problem and the learned dictionary, P@1, F1 and EM
# repeat exactly, while ingest and eval still parse different source text.
STRUCTURE_SEED = 2303


def _deal(rng: np.random.Generator, n_rows: int, count: int) -> list[int]:
    """``count`` row ids dealt from shuffled copies of a table of n_rows."""
    deck: list[int] = []
    while len(deck) < count:
        deck.extend(int(r) for r in rng.permutation(n_rows))
    return deck[:count]


def eval_examples(seed: int, count: int, part: int = 0) -> list[dict]:
    """A fixed-size pytorch->keras suite in the ``eval --eval-set`` format.

    Examples hold 1 to 8 layers, and every layer kind occurs equally often.
    Each ``part`` has its own text with the same layer kinds.
    """
    rng = np.random.default_rng([seed, 2, part])
    sizes = [1 + i % 8 for i in range(count)]
    deck = _deal(np.random.default_rng([STRUCTURE_SEED, 2]), len(PT_TO_KERAS), sum(sizes))
    out = []
    for i, n in enumerate(sizes):
        rows, deck = deck[:n], deck[n:]
        unit = make_unit(rng, i, "pytorch", "keras", n, rows)
        out.append(
            {
                "id": f"ex{i:03d}",
                "src_framework": "pytorch",
                "tgt_framework": "keras",
                "source": unit.source,
                "gold": unit.expected,
            }
        )
    return out


def corpus_files(seed: int, files_per_side: int, part: int = 0) -> dict[str, str]:
    """Relative path -> text for a tree of unpaired class files.

    Both sides use the source column of their transpile table, plus a
    container call, so every pair of the bundled pytorch->keras dictionary
    occurs. Each file holds two classes of 2 to 12 layers. One file in
    eight per side, and at least one, mentions no framework and is skipped
    by ingest. Each ``part`` has its own text with the same layer kinds.
    """
    rng = np.random.default_rng([seed, 3, part])
    structure = np.random.default_rng([STRUCTURE_SEED, 3])
    files: dict[str, str] = {}
    for side, table, container, header in (
        ("pytorch", PT_TO_KERAS, PT_CONTAINER, "import torch.nn as nn"),
        (
            "keras",
            KERAS_TO_PT,
            KERAS_CONTAINER,
            "from tensorflow import keras\nfrom tensorflow.keras import layers",
        ),
    ):
        templates = [row[0] for row in table] + [container]
        for f in range(files_per_side):
            classes = []
            for c in range(2):
                n_layers = 2 + (f * 2 + c) % 11
                rows = structure.integers(len(templates), size=n_layers)
                calls = [templates[int(r)].format(**_draw_values(rng)) for r in rows]
                name = f"{_NAMES[int(rng.integers(len(_NAMES)))]}{f}x{c}"
                classes.append(_class_text(name, side, calls))
            files[f"{side}/model_{f:03d}.py"] = (
                header + "\n\n\n" + "\n\n\n".join(classes) + "\n"
            )
    for f in range(max(1, files_per_side // 8)):
        files[f"misc/util_{f:03d}.py"] = (
            f"def helper_{f}(x):\n    return x * {int(rng.integers(2, 9))}\n"
        )
    return files


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def write_eval_set(path: Path, examples: list[dict]) -> None:
    path.write_text("".join(json.dumps(ex) + "\n" for ex in examples))


# -- rotated-cluster embeddings ---------------------------------------------------


@dataclass(frozen=True)
class Keyword:
    """(kind, text, owner) of one synthetic vocabulary entry, in id order."""

    kind: str
    text: str
    owner: str | None


@dataclass
class AlignmentData:
    vocab1: list[Keyword]
    vocab2: list[Keyword]
    h1: np.ndarray
    y1: np.ndarray
    h2: np.ndarray
    y2: np.ndarray
    gold: list[tuple[tuple, tuple]]  # ((kind, text, owner), (kind, text, owner))


def _rotation(rng: np.random.Generator, dim: int, theta_deg: float) -> np.ndarray:
    """Orthogonal map rotating every plane of a random basis by theta."""
    theta = np.deg2rad(theta_deg)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    block = np.zeros((dim, dim))
    for i in range(0, dim, 2):
        block[i, i] = block[i + 1, i + 1] = np.cos(theta)
        block[i, i + 1] = -np.sin(theta)
        block[i + 1, i] = np.sin(theta)
    return q @ block @ q.T


def alignment_data(
    seed: int,
    groups: int,
    dim: int,
    occurrences: int,
    sigma: float,
    theta_deg: float,
) -> AlignmentData:
    """Two vocabularies of ``groups`` callables with 0-3 parameters each.

    The parameter counts are a fixed multiset (a quarter of the groups each
    with 0, 1, 2 and 3 parameters), so every seed has the same vocabulary
    size. Side two reuses side one's cluster centres under a vocabulary
    order shuffled within equal-sized groups and parameter order shuffled
    within each group, then rotates them; both sides add occurrence noise.
    """
    rng = np.random.default_rng([seed, 4])
    sizes = rng.permutation(np.arange(groups) % 4)

    def build(prefix: str, order: list[int]):
        vocab: list[Keyword] = []
        keys: list[tuple] = []
        for slot, g in enumerate(order):
            head = f"{prefix}{slot:03d}"
            vocab.append(Keyword("callable", head, None))
            keys.append(("c", g))
            perm = rng.permutation(int(sizes[g]))
            for t in range(int(sizes[g])):
                vocab.append(Keyword("parameter", f"q{t}", head))
                keys.append(("p", g, int(perm[t])))
        return vocab, keys

    order1 = list(range(groups))
    order2 = np.array(order1)
    for size in range(4):
        bucket = np.array([g for g in order1 if sizes[g] == size])
        order2[bucket] = rng.permutation(bucket)
    vocab1, keys1 = build("f", order1)
    vocab2, keys2 = build("g", [int(g) for g in order2])

    centre = {key: rng.standard_normal(dim) for key in keys1}
    rot = _rotation(rng, dim, theta_deg)
    c1 = np.stack([centre[key] for key in keys1])
    c2 = np.stack([centre[key] for key in keys2]) @ rot.T
    h1 = np.repeat(c1, occurrences, axis=0)
    h1 = (h1 + sigma * rng.standard_normal(h1.shape)).astype(np.float32)
    h2 = np.repeat(c2, occurrences, axis=0)
    h2 = (h2 + sigma * rng.standard_normal(h2.shape)).astype(np.float32)
    y = np.repeat(np.arange(len(vocab1)), occurrences)

    slot_of = {key: j for j, key in enumerate(keys2)}
    gold = []
    for i, kw in enumerate(vocab1):
        tgt = vocab2[slot_of[keys1[i]]]
        gold.append(((kw.kind, kw.text, kw.owner), (tgt.kind, tgt.text, tgt.owner)))
    return AlignmentData(vocab1, vocab2, h1, y, h2, y.copy(), gold)
