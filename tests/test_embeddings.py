"""Embedding providers: hash reproducibility, file format, context windows."""

from __future__ import annotations

import base64
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from frameport import embeddings
from frameport.bpe import (
    bpe_encode,
    bpe_encode_with_offsets,
    bpe_train,
    pretokenize,
    token_spans_overlapping,
)
from frameport.canon import (
    CALLABLE,
    PARAMETER,
    ApiKeyword,
    KeywordOccurrence,
    SourceUnit,
    extract_module_classes,
)
from frameport.corpus import extract_occurrences
from frameport.embeddings import (
    _CONTEXT_WEIGHT,
    _WINDOW,
    ContextWindowProvider,
    FileBackedProvider,
    HashProvider,
    embed_batch,
    occurrence_key,
)
from frameport.errors import ConfigError, FrameportError
from frameport.pipeline import default_database


def write_embedding_file(path, dim, records):
    """Emit the file-backed format (base64 payloads)."""
    with open(path, "w") as fh:
        fh.write(f"d_b={dim}\n")
        for key, vec in records:
            arr = np.asarray(vec, dtype="<f4")
            if arr.shape != (dim,):
                raise FrameportError(f"record {key!r} has shape {arr.shape}")
            fh.write(f"{key}\t{base64.b64encode(arr.tobytes()).decode('ascii')}\n")


def _occ(text="nn.Linear", kind=CALLABLE, owner=None, context=None, span=(0, 9),
         unit_ref="pytorch:0"):
    kw = ApiKeyword("pytorch", kind, text, owner=owner)
    return KeywordOccurrence(
        keyword=kw,
        span=span,
        context=context if context is not None else text,
        unit_ref=unit_ref,
    )


def test_occurrence_key_format():
    occ = _occ(span=(12, 21), unit_ref="pytorch:7")
    assert occurrence_key(occ) == "pytorch:7:12:21"


def test_hash_provider_matches_sha256_seeded_token_mean():
    provider = HashProvider(dim=16)
    got = embed_batch(provider, [_occ("nn.Linear")])[0]

    def token_vec(token: str) -> np.ndarray:
        digest = hashlib.sha256(token.encode()).digest()
        seed = int.from_bytes(digest[:8], "little")
        return np.random.default_rng(seed).standard_normal(16).astype(np.float32)

    expected = np.stack([token_vec(t) for t in ("nn", ".", "Linear")]).mean(axis=0)
    assert np.array_equal(got, expected)


def test_hash_provider_ignores_context_and_is_stable_across_instances():
    a = HashProvider(dim=8)
    b = HashProvider(dim=8)
    occ1 = _occ("nn.ReLU", context="x = nn.ReLU()", span=(4, 11))
    occ2 = _occ("nn.ReLU", context="totally different place", span=(0, 7))
    v1 = embed_batch(a, [occ1])[0]
    v2 = embed_batch(a, [occ2])[0]
    v3 = embed_batch(b, [occ1])[0]
    assert np.array_equal(v1, v2)
    assert np.array_equal(v1, v3)
    with pytest.raises(ConfigError):
        HashProvider(dim=0)


def test_hash_provider_memo_equals_the_per_occurrence_mean_bitwise():
    provider = HashProvider(dim=64)
    texts = ["nn.Linear", "in_features", "layers.Conv2D", "nn.ReLU", "x"]
    occs = [_occ(texts[i % len(texts)], span=(i, i + 1)) for i in range(23)]
    got = embed_batch(provider, occs)
    fresh = HashProvider(dim=64)
    for row, occ in zip(got, occs, strict=True):
        tokens = pretokenize(occ.keyword.text)
        expected = np.stack([fresh._token_vector(t) for t in tokens]).mean(axis=0)
        assert row.dtype == expected.dtype
        assert np.array_equal(row.view(np.uint32), expected.view(np.uint32))
    # one shared, read-only vector per distinct keyword text
    assert provider._vector(occs[0]) is provider._vector(occs[5])
    assert not provider._vector(occs[0]).flags.writeable


def test_file_backed_round_trip_and_lookup(tmp_path):
    rng = np.random.default_rng(0)
    vecs = {f"pytorch:0:{i}:{i + 3}": rng.standard_normal(5).astype(np.float32)
            for i in range(4)}
    path = tmp_path / "emb.txt"
    write_embedding_file(path, 5, vecs.items())
    provider = FileBackedProvider(path)
    assert provider.dim == 5
    occs = [_occ("abc", span=(i, i + 3), unit_ref="pytorch:0") for i in range(4)]
    assert np.array_equal(embed_batch(provider, occs), np.stack(list(vecs.values())))
    with pytest.raises(
        FrameportError, match=r"^occurrence 0: no vector for occurrence 'pytorch:0:90:93'$"
    ):
        embed_batch(provider, [_occ("abc", span=(90, 93))])


def test_file_backed_accepts_hex_payloads(tmp_path):
    vec = np.arange(3, dtype="<f4")
    path = tmp_path / "hex.txt"
    path.write_text(f"d_b=3\npytorch:0:0:3\t{vec.tobytes().hex()}\n")
    provider = FileBackedProvider(path)
    assert np.array_equal(
        embed_batch(provider, [_occ("abc", span=(0, 3))])[0], vec
    )


@pytest.mark.parametrize("dim", [3, 768])
def test_file_backed_reads_written_zero_vectors(tmp_path, dim):
    # base64 of zero bytes is all "A", which is also a string of hex digits
    path = tmp_path / "zeros.txt"
    write_embedding_file(path, dim, [("pytorch:0:0:3", np.zeros(dim))])
    provider = FileBackedProvider(path)
    got = embed_batch(provider, [_occ("abc", span=(0, 3))])[0]
    assert np.array_equal(got, np.zeros(dim, np.float32))


def test_file_backed_format_errors(tmp_path):
    cases = {
        "no_header.txt": "pytorch:0:0:3\tdeadbeef\n",
        "bad_dim.txt": "d_b=zero\n",
        "neg_dim.txt": "d_b=-3\n",
        "no_tab.txt": "d_b=3\nk deadbeef\n",
        "bad_payload.txt": "d_b=3\nk\t!!!not-encodable!!!\n",
    }
    for name, content in cases.items():
        p = tmp_path / name
        p.write_text(content)
        with pytest.raises(ConfigError):
            FileBackedProvider(p)
    wrong = tmp_path / "wrong_width.txt"
    # 2 floats as base64; 4 floats as hex, which is not 8 * d_b digits long
    # and so decodes as base64 to 6 floats
    for payload, floats in (
        (base64.b64encode(np.arange(2, dtype="<f4").tobytes()).decode(), 2),
        (np.arange(4, dtype="<f4").tobytes().hex(), 6),
    ):
        wrong.write_text(f"d_b=3\nk\t{payload}\n")
        with pytest.raises(ConfigError) as exc:
            FileBackedProvider(wrong)
        assert str(exc.value) == (
            f"cannot load embedding file {wrong}: line 2: {floats} floats, expected 3"
        )
    with pytest.raises(FrameportError, match=r"^record 'k' has shape \(2,\)$"):
        write_embedding_file(tmp_path / "w.txt", 3, [("k", np.zeros(2))])


def _trained_provider():
    texts = [
        "fc = nn.Linear(in_features=4, out_features=2)\n" * 3,
        "act = nn.ReLU()\npool = nn.MaxPool2d(kernel_size=2)\n" * 2,
    ]
    vocab = bpe_train(texts, 40)
    return texts, vocab, ContextWindowProvider.train(texts, vocab, dim=12)


def test_context_window_provider_separates_contexts():
    _, _, provider = _trained_provider()
    ctx_a = "fc = nn.Linear(in_features=4)"
    ctx_b = "y = nn.Linear(out_features=2)"
    occ_a = _occ("nn.Linear", context=ctx_a, span=(5, 14))
    occ_b = _occ("nn.Linear", context=ctx_b, span=(4, 13))
    va = embed_batch(provider, [occ_a])[0]
    vb = embed_batch(provider, [occ_b])[0]
    assert va.shape == (12,) and vb.shape == (12,)
    assert not np.array_equal(va, vb)  # same keyword, different surroundings
    # deterministic re-train produces identical vectors
    _, _, provider2 = _trained_provider()
    assert np.array_equal(va, embed_batch(provider2, [occ_a])[0])


def test_context_window_span_outside_context_fails():
    _, _, provider = _trained_provider()
    occ = _occ("nn.Linear", context="short", span=(100, 109))
    with pytest.raises(
        FrameportError,
        match=r"^occurrence 0: keyword span \(100, 109\) matches no tokens in its unit$",
    ):
        embed_batch(provider, [occ])


_THREE_UNITS = [
    "class A(nn.Module):\n"
    "    def __init__(self):\n"
    "        self.fc = nn.Linear(in_features=4, out_features=2)\n"
    "    def forward(self, x):\n"
    "        return nn.ReLU()(self.fc(x))\n",
    "class B(nn.Module):\n"
    "    def __init__(self):\n"
    "        self.pool = nn.MaxPool2d(kernel_size=2)\n"
    "        self.act = nn.ReLU()\n",
    "class C(nn.Module):\n"
    "    def __init__(self):\n"
    "        self.fc = nn.Linear(in_features=2, out_features=4)\n",
]


def _three_unit_occurrences():
    units = [SourceUnit(text, "pytorch") for text in _THREE_UNITS]
    return extract_occurrences(units, default_database("pytorch"), "pytorch")


def test_context_window_encodes_each_unit_once(monkeypatch):
    _, _, provider = _trained_provider()
    occs = _three_unit_occurrences()
    assert len(occs) > 3
    calls = []

    def counting(vocab, text):
        calls.append(text)
        return bpe_encode_with_offsets(vocab, text)

    monkeypatch.setattr(embeddings, "bpe_encode_with_offsets", counting)
    rows = embed_batch(provider, occs)
    assert calls == _THREE_UNITS
    # reusing a unit's encoding gives the vectors a fresh encoding gives
    for occ, row in zip(occs, rows):
        fresh = ContextWindowProvider(provider._vocab, provider._vectors)
        assert np.array_equal(embed_batch(fresh, [occ])[0], row)


def test_context_window_takes_the_window_across_scope_edges():
    _, _, provider = _trained_provider()
    occ = _three_unit_occurrences()[2]  # ``out_features``, last in ``__init__``
    assert occ.keyword.text == "out_features"
    encoded = bpe_encode_with_offsets(provider._vocab, occ.context)
    (k,) = token_spans_overlapping(encoded, occ.span)
    ids = [tid for tid, _ in encoded]
    # the right window ends past the end of ``__init__``
    init_end = occ.context.index(")\n    def forward") + 1
    assert encoded[k + _WINDOW][1][0] >= init_end
    window = ids[k - _WINDOW : k] + ids[k + 1 : k + 1 + _WINDOW]
    want = provider._vectors[ids[k]] + _CONTEXT_WEIGHT * provider._vectors[window].mean(axis=0)
    assert np.array_equal(embed_batch(provider, [occ])[0], want)


def test_context_window_vector_table_validation():
    texts = ["tiny corpus"]
    vocab = bpe_train(texts, 2)
    with pytest.raises(
        FrameportError,
        match=rf"^vector table \(3, 4\) does not match vocab size {vocab.size}$",
    ):
        ContextWindowProvider(vocab, np.zeros((3, 4), np.float32))
    with pytest.raises(ConfigError):
        ContextWindowProvider.train([], vocab)
    provider = ContextWindowProvider(
        vocab, np.ones((vocab.size, 4), np.float32)
    )
    with pytest.raises(ValueError):
        provider._vectors[0, 0] = 9.0  # table is read-only


def test_context_window_rejects_a_corpus_without_pairs_and_a_zero_width():
    vocab = bpe_train(["tiny corpus"], 2)
    with pytest.raises(ConfigError):  # one token co-occurs with nothing
        ContextWindowProvider.train(["x"], vocab)
    for dim in (0, -1):
        with pytest.raises(ConfigError):
            ContextWindowProvider.train(["tiny corpus"], vocab, dim=dim)


def _ppmi_svd_by_loops(texts, vocab, dim):
    """Window counts, positive PMI and the truncated SVD, pair by pair."""
    v = vocab.size
    counts = np.zeros((v, v))
    for text in texts:
        ids = bpe_encode(vocab, text)
        for i, center in enumerate(ids):
            for j in range(max(0, i - _WINDOW), min(len(ids), i + _WINDOW + 1)):
                if j != i:
                    counts[center, ids[j]] += 1.0
    total = counts.sum()
    totals = counts.sum(axis=1)
    ppmi = np.zeros((v, v))
    for a, b in zip(*np.nonzero(counts)):
        ppmi[a, b] = max(0.0, np.log(counts[a, b] * total / (totals[a] * totals[b])))
    u, s, _ = np.linalg.svd(ppmi)
    k = min(dim, v)
    vectors = np.zeros((v, dim))
    vectors[:, :k] = u[:, :k] * np.sqrt(s[:k])
    return vectors.astype(np.float32)


def test_context_window_vectors_match_the_pairwise_ppmi_svd():
    texts, vocab, _ = _trained_provider()
    texts = texts + ["", "x", "a b"]  # streams shorter than the window
    provider = ContextWindowProvider.train(texts, vocab, dim=12)
    want = _ppmi_svd_by_loops(texts, vocab, 12)
    assert provider._vectors.tobytes() == want.tobytes()


def test_context_window_dim_past_the_vocabulary_pads_zero_columns():
    texts = ["fc = nn.Linear(4, 2)\n", "act = nn.ReLU()\n"]
    vocab = bpe_train(texts, 3)
    dim = vocab.size + 5
    provider = ContextWindowProvider.train(texts, vocab, dim=dim)
    assert provider.dim == dim
    assert not provider._vectors[:, vocab.size:].any()
    assert provider._vectors[:, : vocab.size].any()
    want = _ppmi_svd_by_loops(texts, vocab, dim)
    assert provider._vectors.tobytes() == want.tobytes()


def test_context_window_vectors_are_finite_on_a_60_file_tree():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    dbs = {f: default_database(f) for f in ("pytorch", "keras")}
    units = [
        unit
        for origin, text in sorted(gen.corpus_files(101, 60).items())
        for unit in extract_module_classes(text, dbs, origin)
    ]
    texts = [u.text for u in units]
    vocab = bpe_train(texts, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        provider = ContextWindowProvider.train(texts, vocab, dim=64)
    assert provider._vectors.shape == (vocab.size, 64)
    assert np.isfinite(provider._vectors).all()


def test_embed_batch_prefixes_the_failing_index():
    provider = HashProvider(dim=4)
    good = _occ("nn.ReLU")
    with pytest.raises(ConfigError) as exc:
        embed_batch(provider, [good, _occ("")])
    assert str(exc.value).startswith("occurrence 1:")
    out = embed_batch(provider, [good, good])
    assert out.shape == (2, 4) and out.dtype == np.float32


def test_embed_batch_validates_shape_and_finiteness():
    class Bad(HashProvider):
        def _vector(self, occ):
            return np.zeros(self.dim + 1, np.float32)

    with pytest.raises(
        FrameportError,
        match=r"^occurrence 0: provider returned shape \(5,\), declared d_b=4$",
    ):
        embed_batch(Bad(4), [_occ()])

    class Inf(HashProvider):
        def _vector(self, occ):
            return np.full(self.dim, np.inf, np.float32)

    with pytest.raises(
        FrameportError, match=r"^occurrence 0: non-finite embedding entries$"
    ):
        embed_batch(Inf(4), [_occ()])

