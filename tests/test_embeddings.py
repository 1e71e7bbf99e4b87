"""Embedding providers: hash reproducibility, file format, context windows."""

from __future__ import annotations

import base64
import hashlib

import numpy as np
import pytest

from frameport.bpe import bpe_train
from frameport.canon import CALLABLE, PARAMETER, ApiKeyword, KeywordOccurrence
from frameport.embeddings import (
    ContextWindowProvider,
    FileBackedProvider,
    HashProvider,
    embed_batch,
    occurrence_key,
    write_embedding_file,
)
from frameport.errors import ConfigError, DimensionMismatch, MissingVectorError


def _occ(text="nn.Linear", kind=CALLABLE, owner=None, context=None, span=(0, 9),
         unit_ref="pytorch:0", context_offset=0):
    kw = ApiKeyword("pytorch", kind, text, owner=owner)
    return KeywordOccurrence(
        keyword=kw,
        span=span,
        context=context if context is not None else text,
        context_offset=context_offset,
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
    with pytest.raises(MissingVectorError):
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
    for payload in (
        base64.b64encode(np.arange(2, dtype="<f4").tobytes()).decode(),
        np.arange(4, dtype="<f4").tobytes().hex(),
    ):
        wrong.write_text(f"d_b=3\nk\t{payload}\n")
        with pytest.raises(DimensionMismatch):
            FileBackedProvider(wrong)
    with pytest.raises(DimensionMismatch):
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
    with pytest.raises(MissingVectorError):
        embed_batch(provider, [occ])


def test_context_window_honors_context_offset():
    _, _, provider = _trained_provider()
    ctx = "fc = nn.Linear(in_features=4)"
    shifted = _occ("nn.Linear", context=ctx, span=(105, 114), context_offset=100)
    plain = _occ("nn.Linear", context=ctx, span=(5, 14))
    assert np.array_equal(
        embed_batch(provider, [shifted])[0],
        embed_batch(provider, [plain])[0],
    )


def test_context_window_vector_table_validation():
    texts = ["tiny corpus"]
    vocab = bpe_train(texts, 2)
    with pytest.raises(DimensionMismatch):
        ContextWindowProvider(vocab, np.zeros((3, 4), np.float32))
    with pytest.raises(ConfigError):
        ContextWindowProvider.train([], vocab)
    provider = ContextWindowProvider(
        vocab, np.ones((vocab.size, 4), np.float32)
    )
    with pytest.raises(ValueError):
        provider._vectors[0, 0] = 9.0  # table is read-only


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

    with pytest.raises(DimensionMismatch):
        embed_batch(Bad(4), [_occ()])

    class Inf(HashProvider):
        def _vector(self, occ):
            return np.full(self.dim, np.inf, np.float32)

    with pytest.raises(DimensionMismatch):
        embed_batch(Inf(4), [_occ()])

