"""Contextual embeddings for keyword occurrences.

A provider turns a KeywordOccurrence into one d_b-dimensional vector by
average-pooling the subword vectors of the keyword's tokens inside its
context, and ``embed_batch`` stacks a sequence of occurrences into one
float32 ``(n, d_b)`` matrix. A provider is any object with a ``dim``
property, its width d_b, and a ``_vector(occ)`` method that returns one
vector of that width; ``embed_batch`` checks the shape and finiteness of
each. Three providers keep that contract:

- ``FileBackedProvider``: vectors precomputed offline, keyed per
  occurrence, with hex or base64 payloads;
- ``HashProvider``: per-token vectors seeded from a content hash, so
  identical keyword text embeds identically across runs;
- ``ContextWindowProvider``: skip-gram vectors trained in one pass over
  the corpus, mixed with a projected local-context average so occurrences
  of the same keyword in different surroundings separate. Its window,
  negative-sample count, learning rate and context weight are module
  constants; only the width and the seed vary.

Providers are read-only once constructed; training never writes back.
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
    bpe_encode_with_offsets,
    pretokenize,
    token_spans_overlapping,
)
from frameport.canon import KeywordOccurrence
from frameport.errors import (
    ConfigError,
    DimensionMismatch,
    MissingVectorError,
    reading,
)

# ContextWindowProvider: tokens of context on each side of a keyword (also
# the skip-gram window), negative samples per context token, skip-gram
# learning rate, and the weight of the projected context term
_WINDOW = 4
_NEGATIVES = 4
_LR = 0.05
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
                raise DimensionMismatch(
                    f"provider returned shape {vec.shape}, declared d_b={provider.dim}"
                )
            if not np.all(np.isfinite(vec)):
                raise DimensionMismatch("non-finite embedding entries")
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
        # inside the reader, a bad d_b or a payload that is not whole floats
        # fails as a malformed file
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
                    raise DimensionMismatch(
                        f"{path}:{ln}: {vec.shape[0]} floats, expected {self._dim}"
                    )
                self._table[key] = vec.astype(np.float32)

    @property
    def dim(self) -> int:
        return self._dim

    def _vector(self, occ: KeywordOccurrence) -> np.ndarray:
        key = occurrence_key(occ)
        vec = self._table.get(key)
        if vec is None:
            raise MissingVectorError(f"no vector for occurrence {key!r}")
        return vec


def _decode_payload(payload: str, dim: int, path, ln: int) -> bytes:
    if len(payload) == 8 * dim and all(c in string.hexdigits for c in payload):
        return binascii.unhexlify(payload)
    try:
        return base64.b64decode(payload, validate=True)
    except binascii.Error as exc:
        raise ConfigError(f"{path}:{ln}: payload is neither hex nor base64") from exc


def write_embedding_file(
    path: str | Path, dim: int, records: Iterable[tuple[str, np.ndarray]]
) -> None:
    """Emit the file-backed format (base64 payloads)."""
    with open(path, "w") as fh:
        fh.write(f"d_b={dim}\n")
        for key, vec in records:
            arr = np.asarray(vec, dtype="<f4")
            if arr.shape != (dim,):
                raise DimensionMismatch(f"record {key!r} has shape {arr.shape}")
            fh.write(f"{key}\t{base64.b64encode(arr.tobytes()).decode('ascii')}\n")


class HashProvider:
    """Content-hashed static vectors; reproducible across processes.

    Each pre-token of the keyword text gets a unit-free gaussian vector
    seeded by sha256 of the token, and the occurrence embeds as the mean
    over those tokens. Context is ignored by construction.
    """

    def __init__(self, dim: int = 64):
        if dim <= 0:
            raise ConfigError("d_b must be positive")
        self._dim = dim
        self._cache: dict[str, np.ndarray] = {}

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
        tokens = pretokenize(occ.keyword.text)
        if not tokens:
            raise ConfigError(f"keyword {occ.keyword.text!r} has no tokens")
        stack = np.stack([self._token_vector(t) for t in tokens])
        return stack.mean(axis=0)


class ContextWindowProvider:
    """Skip-gram token vectors plus a projected local-context average.

    The occurrence vector is mean(keyword-token vectors) + _CONTEXT_WEIGHT
    * R @ mean(vectors of the _WINDOW tokens on each side), with R a fixed
    seeded projection. The context term makes occurrences of one keyword
    differ by surroundings.
    """

    def __init__(self, vocab: BpeVocab, vectors: np.ndarray, seed: int = 0):
        if vectors.ndim != 2 or vectors.shape[0] != vocab.size:
            raise DimensionMismatch(
                f"vector table {vectors.shape} does not match vocab size {vocab.size}"
            )
        self._vocab = vocab
        self._vectors = vectors.astype(np.float32)
        self._vectors.flags.writeable = False
        d = vectors.shape[1]
        self._projection = (
            np.random.default_rng(seed).standard_normal((d, d)).astype(np.float32)
            / np.sqrt(d)
        )

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    @classmethod
    def train(
        cls, texts: Iterable[str], vocab: BpeVocab, dim: int = 64, seed: int = 0
    ) -> "ContextWindowProvider":
        """One pass of skip-gram with negative sampling over BPE token streams."""
        rng = np.random.default_rng(seed)
        v = vocab.size
        w_in = ((rng.random((v, dim)) - 0.5) / dim).astype(np.float32)
        w_out = np.zeros((v, dim), dtype=np.float32)
        streams = [
            [tid for tid, _ in bpe_encode_with_offsets(vocab, t)] for t in texts
        ]
        if not any(streams):
            raise ConfigError("cannot train on an empty corpus")
        for stream in streams:
            n = len(stream)
            for i, center in enumerate(stream):
                lo = max(0, i - _WINDOW)
                hi = min(n, i + _WINDOW + 1)
                for j in range(lo, hi):
                    if j == i:
                        continue
                    ctx = stream[j]
                    targets = [(ctx, 1.0)]
                    for neg in rng.integers(0, v, size=_NEGATIVES):
                        targets.append((int(neg), 0.0))
                    vi = w_in[center]
                    for tid, label in targets:
                        vo = w_out[tid]
                        score = 1.0 / (1.0 + np.exp(-np.clip(vi @ vo, -30, 30)))
                        g = _LR * (label - score)
                        w_out[tid] = vo + g * vi
                        vi = vi + g * vo
                    w_in[center] = vi
        return cls(vocab, w_in, seed=seed)

    def _vector(self, occ: KeywordOccurrence) -> np.ndarray:
        encoded = bpe_encode_with_offsets(self._vocab, occ.context)
        positions = token_spans_overlapping(encoded, occ.span_in_context)
        if not positions:
            raise MissingVectorError(
                f"keyword span {occ.span_in_context} matches no tokens in context"
            )
        ids = [encoded[k][0] for k in positions]
        kw_mean = self._vectors[ids].mean(axis=0)
        lo = max(0, positions[0] - _WINDOW)
        hi = min(len(encoded), positions[-1] + 1 + _WINDOW)
        ctx_ids = [
            encoded[k][0] for k in range(lo, hi) if k not in positions
        ]
        if ctx_ids:
            ctx_mean = self._vectors[ctx_ids].mean(axis=0)
            kw_mean = kw_mean + _CONTEXT_WEIGHT * (self._projection @ ctx_mean)
        return kw_mean

