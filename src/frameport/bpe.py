"""Byte-pair encoding over UTF-8 bytes.

The initial alphabet is all 256 byte values, so every string encodes
without an unknown-token fallback and decoding is lossless. Merges are
learned and applied within pre-tokens (identifier / number / whitespace /
single-symbol chunks), never across them.

Token strings map bytes through latin-1, which keeps the vocab JSON
human-readable for ASCII while staying a bijection.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from frameport.errors import ConfigError

PAD = "<pad>"
UNK = "<unk>"
MASK = "<mask>"
SPECIAL_TOKENS = (PAD, UNK, MASK)

_PRETOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\s+|[^\sA-Za-z0-9_]")


def pretokenize(text: str) -> list[str]:
    """Split text into chunks that merges never cross."""
    return _PRETOKEN_RE.findall(text)


def _byte_tokens(pretoken: str) -> tuple[str, ...]:
    return tuple(chr(b) for b in pretoken.encode("utf-8"))


@dataclass(frozen=True)
class BpeVocab:
    """Ordered merge list plus the token table it induces."""

    merges: tuple[tuple[str, str], ...]
    tokens: tuple[str, ...] = field(init=False, repr=False, compare=False)
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    _ranks: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    # (token id, byte width) of each piece of each pre-token encoded so far
    _pieces: dict[str, tuple[tuple[int, int], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        tokens = SPECIAL_TOKENS + tuple(chr(b) for b in range(256))
        tokens += tuple(a + b for a, b in self.merges)
        token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(token_to_id) != len(tokens):
            raise ConfigError("duplicate tokens in vocabulary")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "token_to_id", token_to_id)
        object.__setattr__(self, "_ranks", {p: r for r, p in enumerate(self.merges)})
        object.__setattr__(self, "_pieces", {})

    @property
    def size(self) -> int:
        return len(self.tokens)

    def to_dict(self) -> dict:
        return {"version": 1, "merges": [list(p) for p in self.merges]}

    @classmethod
    def from_dict(cls, doc: dict) -> "BpeVocab":
        return cls(merges=tuple((a, b) for a, b in doc["merges"]))


def bpe_train(texts: Iterable[str], merge_count: int) -> BpeVocab:
    """Learn up to merge_count merges from a text stream.

    The most frequent adjacent pair wins each round; frequency ties go to
    the lexicographically smallest pair so training is deterministic.
    """
    if merge_count < 0:
        raise ConfigError("merge_count must be >= 0")
    word_counts: Counter[tuple[str, ...]] = Counter()
    saw_text = False
    for text in texts:
        saw_text = True
        for pre in pretokenize(text):
            word_counts[_byte_tokens(pre)] += 1
    if not saw_text:
        raise ConfigError("cannot train BPE on an empty stream")
    merges: list[tuple[str, str]] = []
    words = dict(word_counts)
    for _ in range(merge_count):
        pair_counts: Counter[tuple[str, str]] = Counter()
        for word, count in words.items():
            for pair in zip(word, word[1:]):
                pair_counts[pair] += count
        if not pair_counts:
            break
        best_count = max(pair_counts.values())
        best = min(p for p, c in pair_counts.items() if c == best_count)
        merges.append(best)
        new_words: dict[tuple[str, ...], int] = {}
        for word, count in words.items():
            key = _join_pair(word, best)
            new_words[key] = new_words.get(key, 0) + count
        words = new_words
    return BpeVocab(merges=tuple(merges))


def _join_pair(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    """Join each occurrence of ``pair`` in ``symbols``, scanning left to right."""
    a, b = pair
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _merge_word(vocab: BpeVocab, word: tuple[str, ...]) -> tuple[str, ...]:
    ranks = vocab._ranks
    symbols = word
    while len(symbols) > 1:
        best_rank = None
        for pair in zip(symbols, symbols[1:]):
            r = ranks.get(pair)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_pair = pair
        if best_rank is None:
            break
        symbols = _join_pair(symbols, best_pair)
    return symbols


def bpe_encode(vocab: BpeVocab, text: str) -> list[int]:
    """Encode text to token ids; the tokens' bytes join back to the text."""
    return [tid for tid, _ in bpe_encode_with_offsets(vocab, text)]


def bpe_encode_with_offsets(
    vocab: BpeVocab, text: str
) -> list[tuple[int, tuple[int, int]]]:
    """Encode and report each token's (start, end) byte span in the text.

    Each distinct pre-token is merged once per vocabulary."""
    out: list[tuple[int, tuple[int, int]]] = []
    pos = 0
    memo = vocab._pieces
    for pre in pretokenize(text):
        pieces = memo.get(pre)
        if pieces is None:
            pieces = memo[pre] = tuple(
                (vocab.token_to_id[sym], len(sym))  # one latin-1 char per byte
                for sym in _merge_word(vocab, _byte_tokens(pre))
            )
        for tid, width in pieces:
            out.append((tid, (pos, pos + width)))
            pos += width
    return out


def token_spans_overlapping(
    encoded: list[tuple[int, tuple[int, int]]], span: tuple[int, int]
) -> list[int]:
    """Positions of encoded tokens whose byte span intersects ``span``.

    Token spans are sorted (they tile the text), so the tokens that end
    after ``lo`` and the tokens that start before ``hi`` are a suffix and a
    prefix, and two bisections find them."""
    lo, hi = span
    first = bisect_right(encoded, lo, key=lambda tok: tok[1][1])
    return list(range(first, bisect_left(encoded, hi, key=lambda tok: tok[1][0])))
