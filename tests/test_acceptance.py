"""Whole-system acceptance checks with explicit pass/fail verdicts.

Each test prints one ``[acceptance] <name>: PASS`` line on success (run
pytest with ``-s`` to see them live; failures carry the same line in the
assertion message), so the suite doubles as a release checklist:

* analytic gradients of all four training losses against float64
  central finite differences over random model shapes,
* recovery of a known keyword pairing from synthetic rotated corpora,
  including the unsupervised grid-selection criterion,
* byte-exact golden transpilations through the command line,
* threshold-triggered call expansion induced from a score matrix,
* overlap and ranking metrics against brute-force re-derivations,
* hubness rescaling against its direct formula,
* canonicalize / skeleton / serialization round trips under fuzz,
* bit-identical reports from two independent end-to-end workflows.
"""

from __future__ import annotations

import ast
import hashlib
import heapq
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from frameport.canon import (
    CALLABLE,
    PARAMETER,
    ApiKeyword,
    SignatureDatabase,
    SourceUnit,
    canonicalize,
    extract_keywords,
)
from frameport.cli import main
from frameport.dictionary import (
    COSINE,
    DOT,
    Expansion,
    GroupEntry,
    KeywordDictionary,
    ParamEntry,
    ScoreMatrix,
    csls_rescale,
    generate_dictionary,
    score_matrix,
)
from frameport.evaluate import mrr, precision_at_k
from frameport.pipeline import default_database, transpile_source
from frameport.skeleton import (
    reinsert,
    to_skeleton,
    validate_placeholders,
)
from frameport.train import (
    BATCH_GRID,
    LR_GRID,
    TrainConfig,
    avg_cosine_similarity,
    grid_cells,
    grid_search,
    gradients,
    load_checkpoint,
    save_checkpoint,
    train,
)
from helpers import (
    FD_EPS,
    check_model_gradients,
    exact_match,
    f1,
    fd_gradients,
    fuzz_pytorch_unit,
    identity_translations,
    random_alignment_model,
    rel_error,
)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- gradient correctness ------------------------------------------------------


def test_analytic_gradients_match_finite_differences():
    """Fifty random model shapes, every loss, worst relative error < 1e-4.

    The classifier losses are additionally isolated at the output
    embedding block each one alone touches, so no cancellation between
    the two corpora can mask a per-loss error. The sweep has a 60 second
    budget.
    """
    rng = np.random.default_rng(20260814)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(50):
        d_b = int(rng.integers(3, 8))
        d = int(rng.integers(3, 7))
        m1 = int(rng.integers(4, 10))
        m2 = int(rng.integers(4, 10))
        model, batch, cfg = random_alignment_model(rng, d_b=d_b, d=d, m1=m1, m2=m2)
        train_mode = i % 2 == 1

        worst = max(worst, check_model_gradients(model, batch, cfg, train_mode))

        def run():
            drop_rng = np.random.default_rng(123) if train_mode else None
            return gradients(
                model,
                batch,
                label_smoothing=cfg.label_smoothing,
                train_mode=train_mode,
                rng=drop_rng,
            )

        analytic, _ = run()
        for loss_name, block in (("L_CE_1", -2), ("L_CE_2", -1)):

            def scalar():
                _, losses = run()
                return losses[loss_name]

            numeric = fd_gradients(scalar, [model.output_embeddings[block]], FD_EPS)
            worst = max(
                worst,
                rel_error(
                    np.asarray(analytic["joint"][block], dtype=np.float64),
                    numeric[0],
                ),
            )
    elapsed = time.monotonic() - t0
    _verdict(
        "gradient-check",
        worst < 1e-4 and elapsed < 60.0,
        f"worst rel err {worst:.2e} over 50 models in {elapsed:.1f}s",
    )


# -- synthetic alignment recovery ----------------------------------------------

_N_GROUPS = 20
_D_B = 32
_SIGMA = 0.1
_N_OCC = 40
_THETA_DEG = 15.0
_SAMPLE_BUDGET = 30_000


def _rotation(rng: np.random.Generator, theta_deg: float) -> np.ndarray:
    """Orthogonal map rotating every plane of a random basis by theta."""
    theta = np.deg2rad(theta_deg)
    q = np.linalg.qr(rng.standard_normal((_D_B, _D_B)))[0]
    block = np.zeros((_D_B, _D_B))
    for i in range(0, _D_B, 2):
        block[i, i] = block[i + 1, i + 1] = np.cos(theta)
        block[i, i + 1] = -np.sin(theta)
        block[i + 1, i] = np.sin(theta)
    return q @ block @ q.T


def _synthetic_corpora(seed: int):
    """Two context corpora describing the same callable groups.

    Side one holds 20 callables with one parameter each, giving every
    keyword its own gaussian context cluster. Side two reuses the same
    cluster centers under a shuffled vocabulary order (shuffles stay
    within a keyword kind, as real framework vocabularies do) and maps
    them through a fixed orthogonal rotation, then both sides add
    occurrence noise. The generator returns the gold pairing it built,
    so recovery is checkable exactly.
    """
    rng = np.random.default_rng(seed)
    sizes = [1] * _N_GROUPS

    def build(prefix: str, order: list[int]):
        vocab: list[ApiKeyword] = []
        keys: list[tuple] = []
        for slot, g in enumerate(order):
            vocab.append(ApiKeyword(f"synth{prefix}", CALLABLE, f"{prefix}{slot:02d}"))
            keys.append(("c", g))
            param_perm = rng.permutation(sizes[g])
            for t in range(sizes[g]):
                vocab.append(
                    ApiKeyword(
                        f"synth{prefix}",
                        PARAMETER,
                        f"q{t}",
                        owner=f"{prefix}{slot:02d}",
                    )
                )
                keys.append(("p", g, int(param_perm[t])))
        return [kw.with_id(i) for i, kw in enumerate(vocab)], keys

    order1 = list(range(_N_GROUPS))
    order2 = np.array(order1)
    for size in set(sizes):
        bucket = [g for g in order1 if sizes[g] == size]
        order2[np.array(bucket)] = rng.permutation(bucket)
    vocab1, keys1 = build("f", order1)
    vocab2, keys2 = build("g", list(order2))
    m = len(vocab1)

    center_of = {key: rng.standard_normal(_D_B) for key in keys1}
    rot = _rotation(rng, _THETA_DEG)
    c1 = np.stack([center_of[key] for key in keys1])
    c2 = np.stack([center_of[key] for key in keys2]) @ rot.T
    h1 = np.repeat(c1, _N_OCC, axis=0)
    h1 = (h1 + _SIGMA * rng.standard_normal(h1.shape)).astype(np.float32)
    h2 = np.repeat(c2, _N_OCC, axis=0)
    h2 = (h2 + _SIGMA * rng.standard_normal(h2.shape)).astype(np.float32)
    y = np.repeat(np.arange(m), _N_OCC)

    slot_of = {key: j for j, key in enumerate(keys2)}
    gold = []
    for i, kw in enumerate(vocab1):
        tgt = vocab2[slot_of[keys1[i]]]
        gold.append(((kw.kind, kw.text, kw.owner), (tgt.kind, tgt.text, tgt.owner)))
    return vocab1, vocab2, h1, y, h2, y.copy(), gold


def test_alignment_recovers_synthetic_keyword_pairing():
    """Adversarial alignment finds a rotated vocabulary's gold pairing.

    A 468-step run (30k samples at batch 64, the smallest grid batch;
    fewer steps leave the output embeddings dominated by their random
    initialization regardless of the data) must reach precision@1 of at
    least 0.90 against the generator's gold pairing. The full 3x3
    hyperparameter grid must then pick, by mean output-embedding cosine
    over its own induced dictionary, a cell whose precision@1 is within
    0.05 of the best cell's. Budget: ten minutes.
    """
    t0 = time.monotonic()
    vocab1, vocab2, h1, y1, h2, y2, gold = _synthetic_corpora(seed=7)
    m = len(vocab1)
    db1 = SignatureDatabase("synthf", {}, [])
    db2 = SignatureDatabase("synthg", {}, [])

    cfg = TrainConfig(total_samples=_SAMPLE_BUDGET, batch_size=64, seed=10)
    result = train(h1, y1, h2, y2, cfg, vocab_sizes=(m, m), selector=lambda model: 0.0)
    e1, e2 = result.state.model.output_embeddings
    p1 = precision_at_k(score_matrix(e1, e2, COSINE), gold, vocab1, vocab2, 1)

    cell_p1: list[float] = []

    def selector(model) -> float:
        se1, se2 = model.output_embeddings
        induced = generate_dictionary(se1, se2, vocab1, vocab2, db1, db2)
        cell_p1.append(
            precision_at_k(score_matrix(se1, se2, COSINE), gold, vocab1, vocab2, 1)
        )
        return avg_cosine_similarity(model, induced, vocab1, vocab2)

    base = TrainConfig(total_samples=_SAMPLE_BUDGET, seed=10)
    grid = grid_search(
        h1,
        y1,
        h2,
        y2,
        grid_cells(base, LR_GRID, BATCH_GRID),
        selector,
        vocab_sizes=(m, m),
    )
    # every cell finishes below the checkpoint interval, so the selector
    # ran exactly once per cell, on its final model
    assert len(cell_p1) == len(grid.cells)
    by_cell = {
        (c.peak_lr, c.batch_size): (c.avg_cos_sim, cell_p1[i])
        for i, c in enumerate(grid.cells)
    }
    selected = (grid.best.state.cfg.peak_lr, grid.best.state.cfg.batch_size)
    selected_p1 = by_cell[selected][1]
    best_p1 = max(p for _, p in by_cell.values())
    elapsed = time.monotonic() - t0

    _verdict(
        "synthetic-alignment",
        p1 >= 0.90 and selected_p1 >= best_p1 - 0.05 and elapsed < 600.0,
        f"p@1 {p1:.3f}, selected cell {selected} p@1 {selected_p1:.3f} "
        f"vs grid best {best_p1:.3f}, {elapsed:.1f}s",
    )


# -- golden transpilations through the command line ----------------------------

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
CONV_INPUT = "import torch.nn as nn\nconv = nn.Conv2d(3, 16, 3)\n"
CONV_OUTPUT = (
    "from tensorflow.keras import layers\n"
    "conv = layers.Conv2D(filters=16, kernel_size=3)"
)


def test_cli_transpile_matches_goldens_byte_for_byte(tmp_path):
    """The transpile command reproduces both reference outputs exactly.

    The module case exercises class translation plus the dropped
    in_features parameter; the convolution case drops in_channels while
    renaming the surviving parameters.
    """
    ok = True
    details = []
    for name, src, want in (
        ("module", FIG_INPUT, FIG_OUTPUT),
        ("conv", CONV_INPUT, CONV_OUTPUT),
    ):
        inp = tmp_path / f"{name}_in.py"
        out = tmp_path / f"{name}_out.py"
        inp.write_text(src)
        rc = main(
            [
                "transpile",
                "--from",
                "pytorch",
                "--to",
                "keras",
                "--input",
                str(inp),
                "--output",
                str(out),
            ]
        )
        got = out.read_bytes() if out.is_file() else b""
        case_ok = rc == 0 and got == (want + "\n").encode()
        ok = ok and case_ok
        details.append(f"{name} {'ok' if case_ok else 'MISMATCH'}")
    _verdict("golden-transpile", ok, ", ".join(details))


# -- threshold-triggered expansion ---------------------------------------------


def test_score_threshold_turns_parameter_into_expansion():
    """A parameter scoring above tau against a callable becomes a call.

    The score matrix is laid out by hand: with identity source
    embeddings and dot scores, the target embedding matrix IS the score
    matrix, so every decision the generator makes is readable off the
    numbers. The induced dictionary must then drive a real
    transpilation that appends the expanded call after its host.
    """
    keras_db = default_database("keras")
    pytorch_db = default_database("pytorch")
    vocab_keras = [
        kw.with_id(i)
        for i, kw in enumerate(
            [
                ApiKeyword("keras", CALLABLE, "layers.Dense"),
                ApiKeyword("keras", PARAMETER, "units", owner="layers.Dense"),
                ApiKeyword("keras", PARAMETER, "activation", owner="layers.Dense"),
            ]
        )
    ]
    vocab_pt = [
        kw.with_id(i)
        for i, kw in enumerate(
            [
                ApiKeyword("pytorch", CALLABLE, "nn.Linear"),
                ApiKeyword("pytorch", PARAMETER, "out_features", owner="nn.Linear"),
                ApiKeyword("pytorch", CALLABLE, "nn.ReLU"),
            ]
        )
    ]
    # rows: Dense, units, activation / cols: Linear, out_features, ReLU
    scores = np.array(
        [
            [10.0, 0.0, 1.0],
            [0.0, 9.0, 0.2],
            [0.3, 6.0, 7.0],
        ]
    )
    induced = generate_dictionary(
        np.eye(3),
        scores,
        vocab_keras,
        vocab_pt,
        keras_db,
        pytorch_db,
        measure=DOT,
        tau=5.0,
    )
    group = induced.group_for("layers.Dense")
    structure_ok = (
        induced.src_framework == "keras"
        and induced.tgt_framework == "pytorch"
        and group is not None
        and group.tgt_callable == "nn.Linear"
        and group.score == 25.0  # 10 callable + 9 units + 6 activation
        and group.params == (ParamEntry(src="units", tgt="out_features", score=9.0),)
        and group.expansions
        == (Expansion(src_param="activation", new_call="nn.ReLU()", score=7.0),)
    )

    result = transpile_source(
        "from tensorflow.keras import layers\n"
        "stack = [layers.Dense(64, activation='relu')]\n",
        "keras",
        "pytorch",
        dictionary=induced,
    )
    want = "import torch.nn as nn\nstack = [nn.Linear(out_features=64), nn.ReLU()]"
    _verdict(
        "threshold-expansion",
        structure_ok and result.output.text == want,
        f"structure {'ok' if structure_ok else 'WRONG'}, "
        f"output {'ok' if result.output.text == want else 'MISMATCH'}",
    )


# -- metrics against brute force -----------------------------------------------

_CANONICAL_CALLS = [
    "nn.Linear(in_features=3, out_features=4)",
    "nn.ReLU()",
    "nn.Dropout(p=0.5)",
    "nn.Flatten()",
    "nn.Conv2d(in_channels=1, out_channels=8, kernel_size=3)",
    "mystery_helper(1, 'a')",
]


def _calls_unit(calls: list[str]) -> SourceUnit:
    text = "import torch.nn as nn\n" + "".join(
        f"x{i} = {c}\n" for i, c in enumerate(calls)
    )
    return SourceUnit(text=text, framework="pytorch", origin="fixture")


def _expected_f1(pred: list[str], gold: list[str]) -> float:
    n_pred, n_gold = len(pred), len(gold)
    if n_pred + n_gold == 0:
        return 1.0
    n_match = sum((Counter(pred) & Counter(gold)).values())
    return 2.0 * n_match / (n_pred + n_gold)


def _brute_rank(values: np.ndarray, i: int, j: int, pool: list[int]) -> float:
    if j not in pool:
        return math.inf
    return float(np.sum(values[i, np.asarray(pool)] >= values[i, j]))


def test_metrics_match_brute_force_re_derivations():
    """F1/EM and precision@k/MRR agree with independent oracles to 1e-12.

    Overlap fixtures are built generatively from a pool of canonical
    calls, so the expected F1 comes from the construction itself, never
    from the code under test; the hand spot check pins the formula
    2*n_match / (n_pred + n_truth). Ranking fixtures use quantized
    scores to force ties, plus gold pairs that are missing from a vocab
    or point across kinds, and compare against a vectorized
    re-derivation of the gold-pessimal rank.
    """
    db = default_database("pytorch")
    rng = np.random.default_rng(977)

    # the generative oracle is only valid if pool calls are canonical
    probe = _calls_unit(_CANONICAL_CALLS)
    assert ast.unparse(canonicalize(probe, db)) == probe.text.rstrip("\n")

    worst_overlap = 0.0
    for t in range(200):
        n_gold = int(rng.integers(0, 6))
        gold = [
            _CANONICAL_CALLS[int(rng.integers(len(_CANONICAL_CALLS)))]
            for _ in range(n_gold)
        ]
        gold_unit = _calls_unit(gold)
        mode = t % 10
        if mode == 3:
            pred_unit = SourceUnit(
                text="def (broken\n", framework="pytorch", origin="fixture"
            )
            expected, em_expected = 0.0, False
        else:
            pred = list(gold)
            if mode == 1:
                rng.shuffle(pred)
            elif mode == 2:
                pred = []
            elif mode >= 4:
                for _ in range(int(rng.integers(1, 4))):
                    op = int(rng.integers(3))
                    if op == 0 and pred:
                        pred.pop(int(rng.integers(len(pred))))
                    elif op == 1:
                        pred.insert(
                            int(rng.integers(len(pred) + 1)),
                            _CANONICAL_CALLS[int(rng.integers(len(_CANONICAL_CALLS)))],
                        )
                    elif op == 2 and pred:
                        pred[int(rng.integers(len(pred)))] = _CANONICAL_CALLS[
                            int(rng.integers(len(_CANONICAL_CALLS)))
                        ]
            pred_unit = _calls_unit(pred)
            expected = _expected_f1(pred, gold)
            em_expected = pred == gold
        worst_overlap = max(worst_overlap, abs(f1(pred_unit, gold_unit, db) - expected))
        assert exact_match(pred_unit, gold_unit, db) == em_expected, (t, mode)

    # formula spot check: 2 predicted, 4 gold, exactly 1 shared call
    spot = f1(
        _calls_unit([_CANONICAL_CALLS[0], _CANONICAL_CALLS[5]]),
        _calls_unit(_CANONICAL_CALLS[0:4]),
        db,
    )
    worst_overlap = max(worst_overlap, abs(spot - 2.0 * 1 / (2 + 4)))

    worst_rank = 0.0
    for t in range(200):
        n1, n2 = int(rng.integers(4, 25)), int(rng.integers(4, 25))

        def make_vocab(n: int, side: str) -> list[ApiKeyword]:
            vocab = []
            for i in range(n):
                if rng.random() < 0.5:
                    kw = ApiKeyword("alpha", CALLABLE, f"{side}c{i}")
                else:
                    kw = ApiKeyword(
                        "alpha",
                        PARAMETER,
                        f"{side}p{i}",
                        owner=f"{side}own{int(rng.integers(2))}",
                    )
                vocab.append(kw.with_id(i))
            return vocab

        vocab1 = make_vocab(n1, "s")
        vocab2 = make_vocab(n2, "t")
        values = np.round(rng.standard_normal((n1, n2)), 1)  # ties on purpose
        idx1 = {(kw.kind, kw.text, kw.owner): kw.id for kw in vocab1}
        idx2 = {(kw.kind, kw.text, kw.owner): kw.id for kw in vocab2}
        pools = {
            kind: [kw.id for kw in vocab2 if kw.kind == kind]
            for kind in (CALLABLE, PARAMETER)
        }

        pairs = []
        for _ in range(8):
            src = vocab1[int(rng.integers(n1))]
            roll = rng.random()
            if roll < 0.1:
                pairs.append(
                    ((src.kind, src.text, src.owner), (CALLABLE, "ghost", None))
                )
                continue
            if roll < 0.2:
                tgt_triple = (PARAMETER, "ghost", "own")
                pairs.append(((PARAMETER, "ghost", "own"), tgt_triple))
                continue
            same_kind = [kw for kw in vocab2 if kw.kind == src.kind]
            other_kind = [kw for kw in vocab2 if kw.kind != src.kind]
            if roll < 0.4 and other_kind:
                tgt = other_kind[int(rng.integers(len(other_kind)))]
            elif same_kind:
                tgt = same_kind[int(rng.integers(len(same_kind)))]
            else:
                tgt = vocab2[int(rng.integers(n2))]
            pairs.append(
                ((src.kind, src.text, src.owner), (tgt.kind, tgt.text, tgt.owner))
            )

        k = int(rng.choice([1, 2, 5]))
        arg = ScoreMatrix(values, DOT) if t % 2 else values
        hits = 0
        reciprocal = 0.0
        for src_triple, tgt_triple in pairs:
            i = idx1.get(src_triple)
            j = idx2.get(tgt_triple)
            if i is None or j is None:
                continue
            rank = _brute_rank(values, i, j, pools[src_triple[0]])
            if rank <= k:
                hits += 1
            if math.isfinite(rank):
                reciprocal += 1.0 / rank
        worst_rank = max(
            worst_rank,
            abs(precision_at_k(arg, pairs, vocab1, vocab2, k) - hits / len(pairs)),
            abs(mrr(arg, pairs, vocab1, vocab2) - reciprocal / len(pairs)),
        )

    _verdict(
        "metrics-vs-brute-force",
        worst_overlap <= 1e-12 and worst_rank <= 1e-12,
        f"overlap dev {worst_overlap:.1e}, ranking dev {worst_rank:.1e}, "
        "200 fixtures each",
    )


# -- hubness rescaling ----------------------------------------------------------


def test_csls_matches_direct_formula():
    """Rescaled scores equal 2*s - row top-k mean - col top-k mean.

    The oracle recomputes neighborhoods with heapq instead of sorting,
    at 1e-9 over 50x50 matrices for K in {5, 10, 20}; a constant matrix
    must rescale to all zeros.
    """
    rng = np.random.default_rng(431)
    worst = 0.0
    tags_ok = True
    for k in (5, 10, 20):
        for _ in range(3):
            values = rng.standard_normal((50, 50))
            out = csls_rescale(ScoreMatrix(values, DOT), k)
            tags_ok = tags_ok and out.measure == f"csls({k}, {DOT})"
            row_top = [
                sum(heapq.nlargest(k, values[i, :])) / k for i in range(50)
            ]
            col_top = [
                sum(heapq.nlargest(k, values[:, j])) / k for j in range(50)
            ]
            for i in range(50):
                for j in range(50):
                    direct = 2.0 * values[i, j] - row_top[i] - col_top[j]
                    worst = max(worst, abs(out.values[i, j] - direct))

    constant = csls_rescale(ScoreMatrix(np.full((50, 50), 3.7), DOT), 10)
    const_dev = float(np.abs(constant.values).max())
    _verdict(
        "csls-direct-formula",
        worst < 1e-9 and const_dev < 1e-9 and tags_ok,
        f"max dev {worst:.1e}, constant-matrix dev {const_dev:.1e}",
    )


# -- round trips under fuzz -----------------------------------------------------


def _random_dictionary(rng: np.random.Generator) -> KeywordDictionary:
    groups = []
    for gi in range(int(rng.integers(1, 6))):
        params = tuple(
            ParamEntry(
                src=f"p{gi}_{k}",
                tgt=None if rng.random() < 0.3 else f"q{gi}_{k}",
                score=float(rng.standard_normal()),
            )
            for k in range(int(rng.integers(0, 4)))
        )
        expansions = tuple(
            Expansion(
                src_param=f"e{gi}_{k}",
                new_call=f"tgt.Call{gi}{k}()",
                score=float(rng.standard_normal()),
            )
            for k in range(int(rng.integers(0, 3)))
        )
        groups.append(
            GroupEntry(
                src_callable=f"src.C{gi}",
                tgt_callable=f"tgt.C{int(rng.integers(9))}",
                score=float(rng.standard_normal()),
                params=params,
                expansions=expansions,
            )
        )
    return KeywordDictionary(
        src_framework="pytorch",
        tgt_framework="keras",
        tau=float(rng.uniform(0.0, 9.0)),
        groups=tuple(groups),
    )


def test_round_trips_hold_under_fuzz(tmp_path):
    """A thousand fuzzed units plus serialization round trips.

    For every fuzzed source unit: canonicalization is idempotent, the
    skeleton validates against itself, and reinserting the identity
    translations reproduces the canonical text byte for byte. Random
    dictionaries and a real training checkpoint must survive
    save/load/save with bit-identical files.
    """
    db = default_database("pytorch")
    rng = np.random.default_rng(1312)
    checked = 0
    for i in range(1000):
        unit = SourceUnit(
            text=fuzz_pytorch_unit(rng), framework="pytorch", origin=f"fuzz{i}"
        )
        tree = canonicalize(unit, db)
        canon = SourceUnit(ast.unparse(tree), "pytorch")
        assert ast.unparse(canonicalize(canon, db)) == canon.text, unit.text
        occs = extract_keywords(tree, db)
        skeleton = to_skeleton(tree, occs)
        assert validate_placeholders(skeleton, skeleton.text).ok
        rebuilt = reinsert(skeleton.text, identity_translations(skeleton), db)
        assert rebuilt.text == canon.text, unit.text
        checked += 1

    dict_ok = True
    for i in range(40):
        original = _random_dictionary(rng)
        path = tmp_path / f"dict{i}.json"
        original.save(path)
        loaded = KeywordDictionary.load(path)
        resaved = tmp_path / f"dict{i}_resaved.json"
        loaded.save(resaved)
        dict_ok = (
            dict_ok
            and loaded == original
            and path.read_bytes() == resaved.read_bytes()
        )

    h = rng.standard_normal((120, 6)).astype(np.float32)
    y1 = rng.integers(0, 5, 120)
    y2 = rng.integers(0, 6, 120)
    cfg = TrainConfig(d=8, total_samples=64, batch_size=8, seed=10)
    result = train(h, y1, h.copy(), y2, cfg, vocab_sizes=(5, 6), selector=lambda model: 0.0)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, result.state)
    state = load_checkpoint(ckpt)
    resaved = tmp_path / "checkpoint_resaved.json"
    save_checkpoint(resaved, state)
    ckpt_ok = (
        state.step == result.state.step
        and state.cfg == cfg
        and all(
            np.array_equal(a, b)
            for a, b in zip(
                result.state.model.generator.parameters()
                + result.state.model.discriminator.parameters()
                + list(result.state.model.output_embeddings),
                state.model.generator.parameters()
                + state.model.discriminator.parameters()
                + list(state.model.output_embeddings),
            )
        )
        and json.dumps(state.opt.to_dict(state.model), sort_keys=True)
        == json.dumps(result.state.opt.to_dict(result.state.model), sort_keys=True)
        and ckpt.read_bytes() == resaved.read_bytes()
    )

    _verdict(
        "fuzzed-round-trips",
        checked == 1000 and dict_ok and ckpt_ok,
        f"{checked} units, dictionaries {'ok' if dict_ok else 'BROKEN'}, "
        f"checkpoint {'ok' if ckpt_ok else 'BROKEN'}",
    )


# -- end-to-end reproducibility --------------------------------------------------

PT_FILE = (
    "import torch.nn as nn\n\n"
    "class Net(nn.Module):\n"
    "    def __init__(self):\n"
    "        super().__init__()\n"
    "        self.fc1 = nn.Linear(4, 8)\n"
    "        self.fc2 = nn.Linear(8, 2)\n"
    "        self.act = nn.ReLU()\n"
    "        self.flat = nn.Flatten()\n"
)
KS_FILE = (
    "from tensorflow.keras import layers\n\n"
    "class Net(layers.Layer):\n"
    "    def __init__(self):\n"
    "        super().__init__()\n"
    "        self.fc1 = layers.Dense(8)\n"
    "        self.fc2 = layers.Dense(2)\n"
    "        self.act = layers.ReLU()\n"
    "        self.flat = layers.Flatten()\n"
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _workflow(base: Path) -> dict[str, str]:
    """ingest -> train -> dict -> eval inside one directory; hash artifacts."""
    tree = base / "tree"
    tree.mkdir(parents=True)
    (tree / "pt.py").write_text(PT_FILE)
    (tree / "ks.py").write_text(KS_FILE)
    corpus = base / "corpus"
    assert (
        main(
            [
                "ingest",
                "--root",
                str(tree),
                "--out",
                str(corpus),
                "--framework",
                "pytorch",
                "--framework",
                "keras",
            ]
        )
        == 0
    )
    run = base / "run"
    assert (
        main(
            [
                "train",
                "--corpus",
                str(corpus),
                "--src-framework",
                "pytorch",
                "--tgt-framework",
                "keras",
                "--out",
                str(run),
                "--provider",
                "hash",
                "--provider-dim",
                "8",
                "--d",
                "8",
                "--batch-size",
                "8",
                "--total-samples",
                "64",
                "--checkpoint-every",
                "4",
                "--seed",
                "10",
            ]
        )
        == 0
    )
    dicts = base / "dicts"
    dicts.mkdir()
    dict_file = dicts / "dict_pytorch_keras.json"
    assert (
        main(
            [
                "dict",
                "--checkpoint",
                str(run / "checkpoint.json"),
                "--corpus",
                str(corpus),
                "--src-framework",
                "pytorch",
                "--tgt-framework",
                "keras",
                "--out",
                str(dict_file),
            ]
        )
        == 0
    )
    eval_set = base / "evalset.jsonl"
    examples = [
        {
            "id": "fig",
            "src_framework": "pytorch",
            "tgt_framework": "keras",
            "source": FIG_INPUT,
            "gold": FIG_OUTPUT,
        },
        {
            "id": "relu",
            "src_framework": "pytorch",
            "tgt_framework": "keras",
            "source": "import torch.nn as nn\nact = nn.ReLU()\n",
            "gold": "from tensorflow.keras import layers\nact = layers.ReLU()",
        },
    ]
    eval_set.write_text("".join(json.dumps(ex) + "\n" for ex in examples))
    eval_dir = base / "eval"
    assert (
        main(
            [
                "eval",
                "--eval-set",
                str(eval_set),
                "--out",
                str(eval_dir),
                "--seeds",
                "10",
                "--dictionary-dir",
                str(dicts),
            ]
        )
        == 0
    )
    return {
        "report": _sha256(eval_dir / "report.json"),
        "dictionary": _sha256(dict_file),
        "checkpoint": _sha256(run / "checkpoint.json"),
    }


def test_full_workflow_is_bit_reproducible(tmp_path, capsys):
    """Two independent seeded workflow runs hash to identical artifacts."""
    first = _workflow(tmp_path / "a")
    second = _workflow(tmp_path / "b")
    capsys.readouterr()  # the subcommands' own status lines are not under test
    _verdict(
        "workflow-reproducibility",
        first == second,
        f"report {first['report'][:12]} vs {second['report'][:12]}",
    )
