"""Contextual embeddings for keyword occurrences.

A provider turns a KeywordOccurrence into one d_b-dimensional vector by
average-pooling the subword vectors of the keyword's tokens inside its
unit, and ``embed_batch`` stacks a sequence of occurrences into one
float32 ``(n, d_b)`` matrix. A provider is any object with a ``dim``
property, its width d_b, and a ``_vector(occ)`` method that returns one
vector of that width; ``embed_batch`` checks the shape and finiteness of
each. Three providers keep that contract:

- ``FileBackedProvider``: vectors precomputed offline, keyed per
  occurrence, with hex or base64 payloads;
- ``HashProvider``: per-token vectors seeded from a content hash, so
  identical keyword text embeds identically across runs;
- ``ContextWindowProvider``: count-based token vectors (positive PMI over
  window co-occurrences, then one truncated SVD), mixed with the average
  of the _WINDOW tokens on each side of the keyword in its unit's token
  stream, the window the counts use, so occurrences of the same keyword
  in different surroundings separate. It encodes a unit once for a run
  of consecutive occurrences from that unit, as ``embed_batch`` gets
  them in unit order. It is deterministic; its window and context weight
  are module constants, and only the width varies.

Provider vectors are read-only once constructed; training never writes
back.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import string
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from frameport.bpe import (
    BpeVocab,
    bpe_encode,
    bpe_encode_with_offsets,
    pretokenize,
    token_spans_overlapping,
)
from frameport.canon import KeywordOccurrence
from frameport.errors import ConfigError, FrameportError, reading

# ContextWindowProvider: tokens of context on each side of a keyword (also
# the co-occurrence window), and the weight of the context term
_WINDOW = 4
_CONTEXT_WEIGHT = 0.5


def occurrence_key(occ: KeywordOccurrence) -> str:
    """Stable lookup key: corpusid:unitid:spanstart:spanend."""
    return f"{occ.unit_ref}:{occ.span[0]}:{occ.span[1]}"


def embed_batch(
    provider: FileBackedProvider | HashProvider | ContextWindowProvider,
    occs: Sequence[KeywordOccurrence],
) -> np.ndarray:
    """Row i is occurrence i's vector; a failure names the occurrence."""
    out = np.empty((len(occs), provider.dim), dtype=np.float32)
    for i, occ in enumerate(occs):
        try:
            vec = np.asarray(provider._vector(occ), dtype=np.float32)
            if vec.shape != (provider.dim,):
                raise FrameportError(
                    f"provider returned shape {vec.shape}, declared d_b={provider.dim}"
                )
            if not np.all(np.isfinite(vec)):
                raise FrameportError("non-finite embedding entries")
        except Exception as exc:
            raise type(exc)(f"occurrence {i}: {exc}") from exc
        out[i] = vec
    return out


class FileBackedProvider:
    """Vectors loaded from a text file.

    Format: header line ``d_b=<int>``, then one record per occurrence:
    ``corpusid:unitid:spanstart:spanend<TAB><payload>`` where the payload
    is the f32 little-endian vector as hex or base64. A payload is hex only
    when it is exactly ``8 * d_b`` hex digits; anything else is base64,
    whose alphabet also contains every hex digit.
    """

    def __init__(self, path: str | Path):
        # inside the reader, a bad d_b or a payload that is not d_b whole
        # floats fails as a malformed file
        with reading("embedding file", path) as text:
            lines = text.splitlines()
            if not lines or not lines[0].startswith("d_b="):
                raise ConfigError(f"{path}: missing d_b=<int> header")
            self._dim = int(lines[0][4:])
            if self._dim <= 0:
                raise ConfigError(f"{path}: d_b must be positive")
            self._table: dict[str, np.ndarray] = {}
            for ln, line in enumerate(lines[1:], start=2):
                if not line.strip():
                    continue
                key, _, payload = line.partition("\t")
                if not payload:
                    raise ConfigError(f"{path}:{ln}: expected key<TAB>payload")
                raw = _decode_payload(payload.strip(), self._dim, path, ln)
                vec = np.frombuffer(raw, dtype="<f4")
                if vec.shape != (self._dim,):
                    raise FrameportError(
                        f"line {ln}: {vec.shape[0]} floats, expected {self._dim}"
                    )
                self._table[key] = vec.astype(np.float32)

    @property
    def dim(self) -> int:
        return self._dim

    def _vector(self, occ: KeywordOccurrence) -> np.ndarray:
        key = occurrence_key(occ)
        vec = self._table.get(key)
        if vec is None:
            raise FrameportError(f"no vector for occurrence {key!r}")
        return vec


def _decode_payload(payload: str, dim: int, path, ln: int) -> bytes:
    if len(payload) == 8 * dim and all(c in string.hexdigits for c in payload):
        return binascii.unhexlify(payload)
    try:
        return base64.b64decode(payload, validate=True)
    except binascii.Error as exc:
        raise ConfigError(f"{path}:{ln}: payload is neither hex nor base64") from exc


class HashProvider:
    """Content-hashed static vectors; reproducible across processes.

    Each pre-token of the keyword text gets a unit-free gaussian vector
    seeded by sha256 of the token, and the occurrence embeds as the mean
    over those tokens. Context is ignored by construction, so each distinct
    keyword text's mean is computed once and shared, read-only, by all its
    occurrences.
    """

    def __init__(self, dim: int = 64):
        if dim <= 0:
            raise ConfigError("d_b must be positive")
        self._dim = dim
        self._cache: dict[str, np.ndarray] = {}
        self._means: dict[str, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self._dim

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self._cache.get(token)
        if vec is None:
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            seed = int.from_bytes(digest[:8], "little")
            vec = (
                np.random.default_rng(seed)
                .standard_normal(self._dim)
                .astype(np.float32)
            )
            self._cache[token] = vec
        return vec

    def _vector(self, occ: KeywordOccurrence) -> np.ndarray:
        text = occ.keyword.text
        vec = self._means.get(text)
        if vec is None:
            tokens = pretokenize(text)
            if not tokens:
                raise ConfigError(f"keyword {text!r} has no tokens")
            vec = np.stack([self._token_vector(t) for t in tokens]).mean(axis=0)
            vec.flags.writeable = False
            self._means[text] = vec
        return vec


class ContextWindowProvider:
    """Count-based token vectors plus a local-context average.

    The occurrence vector is mean(keyword-token vectors) + _CONTEXT_WEIGHT
    * mean(vectors of the _WINDOW tokens on each side in the unit). The
    context term makes occurrences of one keyword differ by surroundings.
    """

    def __init__(self, vocab: BpeVocab, vectors: np.ndarray):
        if vectors.ndim != 2 or vectors.shape[0] != vocab.size:
            raise FrameportError(
                f"vector table {vectors.shape} does not match vocab size {vocab.size}"
            )
        self._vocab = vocab
        self._vectors = vectors.astype(np.float32)
        self._vectors.flags.writeable = False
        # the last unit encoded, reused while its occurrences follow
        self._unit_text: str | None = None
        self._encoded: list[tuple[int, tuple[int, int]]] = []

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    @classmethod
    def train(
        cls, texts: Iterable[str], vocab: BpeVocab, dim: int = 64
    ) -> "ContextWindowProvider":
        """PPMI over window co-occurrences, then one truncated SVD.

        Levy, Goldberg & Dagan (2015): count each (token, token within
        _WINDOW) pair in both directions, take max(0, log(c*N / (r_i*r_j)))
        on the nonzero counts, and keep U[:, :k] * sqrt(S[:k]) with
        k = min(dim, vocab size); columns past k are zero. The count
        matrix takes vocab size squared times 8 bytes.
        """
        if dim <= 0:
            raise ConfigError("d_b must be positive")
        v = vocab.size
        counts = np.zeros((v, v))
        for text in texts:
            ids = np.asarray(bpe_encode(vocab, text), dtype=np.intp)
            for offset in range(1, _WINDOW + 1):
                np.add.at(counts, (ids[:-offset], ids[offset:]), 1.0)
        counts += counts.T
        rows, cols = np.nonzero(counts)
        if rows.size == 0:
            raise ConfigError("cannot train on a corpus with no co-occurring tokens")
        totals = counts.sum(axis=1)
        c = counts[rows, cols]
        pmi = np.log(c * counts.sum() / (totals[rows] * totals[cols]))
        counts[rows, cols] = np.maximum(pmi, 0.0)  # PPMI; zero counts stay 0
        u, s, _ = np.linalg.svd(counts)
        k = min(dim, v)
        vectors = np.zeros((v, dim))
        vectors[:, :k] = u[:, :k] * np.sqrt(s[:k])
        return cls(vocab, vectors)

    def _vector(self, occ: KeywordOccurrence) -> np.ndarray:
        if occ.context != self._unit_text:
            self._encoded = bpe_encode_with_offsets(self._vocab, occ.context)
            self._unit_text = occ.context
        encoded = self._encoded
        positions = token_spans_overlapping(encoded, occ.span)
        if not positions:
            raise FrameportError(
                f"keyword span {occ.span} matches no tokens in its unit"
            )
        ids = [encoded[k][0] for k in positions]
        kw_mean = self._vectors[ids].mean(axis=0)
        lo = max(0, positions[0] - _WINDOW)
        hi = min(len(encoded), positions[-1] + 1 + _WINDOW)
        ctx_ids = [
            encoded[k][0] for k in range(lo, hi) if k not in positions
        ]
        if ctx_ids:
            kw_mean = kw_mean + _CONTEXT_WEIGHT * self._vectors[ctx_ids].mean(axis=0)
        return kw_mean
