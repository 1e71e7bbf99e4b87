"""Byte-pair encoder: training oracle, lossless round trips, offsets."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from frameport.bpe import (
    SPECIAL_TOKENS,
    BpeVocab,
    bpe_decode,
    bpe_encode,
    bpe_encode_with_offsets,
    bpe_train,
    pretokenize,
    token_spans_overlapping,
)
from frameport.errors import ConfigError


def test_special_tokens_take_the_first_ids():
    vocab = BpeVocab(merges=())
    assert vocab.tokens[:3] == SPECIAL_TOKENS
    assert [vocab.token_to_id[t] for t in SPECIAL_TOKENS] == [0, 1, 2]
    assert vocab.size == 3 + 256


def test_pretokenizer_splits_identifiers_numbers_space_symbols():
    assert pretokenize("nn.Conv2d(3, 16)") == [
        "nn", ".", "Conv2d", "(", "3", ",", " ", "16", ")",
    ]
    assert pretokenize("") == []
    assert pretokenize("  \n") == ["  \n"]


def test_empty_text_encodes_to_no_tokens():
    vocab = bpe_train(["some corpus"], 4)
    assert bpe_encode(vocab, "") == []
    assert bpe_decode(vocab, []) == ""


def test_training_matches_brute_force_pair_counting():
    texts = ["ababab abab", "banana band", "aa bb ab"]
    merge_count = 6
    vocab = bpe_train(texts, merge_count)

    # independent reimplementation: merge the most frequent pair each
    # round, ties to the lexicographically smallest pair
    words = Counter()
    for t in texts:
        for pre in pretokenize(t):
            words[tuple(chr(b) for b in pre.encode())] += 1
    expected = []
    words = dict(words)
    for _ in range(merge_count):
        pairs = Counter()
        for w, c in words.items():
            for p in zip(w, w[1:]):
                pairs[p] += c
        if not pairs:
            break
        top = max(pairs.values())
        best = min(p for p, c in pairs.items() if c == top)
        expected.append(best)
        out_words = {}
        for w, c in words.items():
            merged, i = [], 0
            while i < len(w):
                if i + 1 < len(w) and (w[i], w[i + 1]) == best:
                    merged.append(w[i] + w[i + 1])
                    i += 2
                else:
                    merged.append(w[i])
                    i += 1
            key = tuple(merged)
            out_words[key] = out_words.get(key, 0) + c
        words = out_words
    assert list(vocab.merges) == expected


def test_merges_apply_by_rank_to_single_token():
    # enough merges to collapse the identifier into one token
    vocab = bpe_train(["Conv2d " * 50], 10)
    ids = bpe_encode(vocab, "Conv2d")
    assert len(ids) == 1
    assert vocab.tokens[ids[0]] == "Conv2d"


def test_merges_never_cross_pretoken_boundaries():
    vocab = bpe_train(["a.b " * 100], 8)
    ids = bpe_encode(vocab, "a.b")
    assert all("." == vocab.tokens[t] or "." not in vocab.tokens[t] for t in ids)
    assert len(ids) == 3  # "a", ".", "b" cannot merge across the symbol


def test_round_trip_is_lossless_on_fuzzed_text():
    rng = np.random.default_rng(7)
    alphabet = list("abz019_.,() \n\t") + ["é", "λ", "嗨", "🙂"]
    vocab = bpe_train(["def f(x):\n    return x + 1\n", "λx: é 嗨"], 30)
    for _ in range(200):
        n = int(rng.integers(0, 40))
        text = "".join(rng.choice(alphabet) for _ in range(n))
        assert bpe_decode(vocab, bpe_encode(vocab, text)) == text


def test_offsets_tile_the_byte_string():
    vocab = bpe_train(["padding=1, padding=2"], 12)
    text = "x = Conv2d(padding=1) é"
    encoded = bpe_encode_with_offsets(vocab, text)
    data = text.encode("utf-8")
    pos = 0
    for tid, (start, end) in encoded:
        assert start == pos and end > start
        assert vocab.tokens[tid].encode("latin-1") == data[start:end]
        pos = end
    assert pos == len(data)


def test_token_spans_overlapping_selects_intersecting_tokens():
    vocab = BpeVocab(merges=())
    text = "abc def"
    encoded = bpe_encode_with_offsets(vocab, text)  # one token per byte
    assert token_spans_overlapping(encoded, (4, 7)) == [4, 5, 6]
    assert token_spans_overlapping(encoded, (0, 1)) == [0]
    assert token_spans_overlapping(encoded, (3, 3)) == []


def test_decode_skips_special_ids():
    vocab = BpeVocab(merges=())
    pad, mask = vocab.token_to_id[SPECIAL_TOKENS[0]], vocab.token_to_id[SPECIAL_TOKENS[2]]
    ids = [pad] + bpe_encode(vocab, "hi") + [mask]
    assert bpe_decode(vocab, ids) == "hi"


def test_training_validation_and_determinism():
    with pytest.raises(ConfigError):
        bpe_train([], 5)
    with pytest.raises(ConfigError):
        bpe_train(["x"], -1)
    a = bpe_train(["the same corpus"] * 3, 9)
    b = bpe_train(["the same corpus"] * 3, 9)
    assert a == b
    # merge budget larger than possible pairs just stops early
    tiny = bpe_train(["aa"], 500)
    assert len(tiny.merges) < 500


def test_vocab_serialization_round_trip():
    vocab = bpe_train(["serialize me please"], 11)
    back = BpeVocab.from_dict(json.loads(json.dumps(vocab.to_dict())))
    assert back == vocab
    assert back.token_to_id == vocab.token_to_id
