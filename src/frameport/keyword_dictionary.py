"""The keyword dictionary: its records, their JSON file, and lookup.

A dictionary maps each source callable to a target callable (a group),
and each of its parameters to a target parameter, to nothing (dropped),
or to a new zero-argument call (an expansion). This module is all of the
dictionary that the transpile path reads, and it imports no numpy.
Scoring keyword pairs and inducing a dictionary from embeddings live in
``frameport.dictionary``, which imports numpy and builds these records.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from frameport.atomic import write_text_atomic
from frameport.canon import CALLABLE, PARAMETER, ApiKeyword
from frameport.errors import ConfigError, UnmappedKeyword, reading

RENAME = "rename"
DROP = "drop"
EXPAND = "expand"


@dataclass(frozen=True)
class ParamEntry:
    src: str
    tgt: str | None  # None means the parameter is dropped
    score: float


@dataclass(frozen=True)
class Expansion:
    src_param: str
    new_call: str  # rendered zero-argument call, e.g. "nn.ReLU()"
    score: float


@dataclass(frozen=True)
class GroupEntry:
    src_callable: str
    tgt_callable: str
    score: float
    params: tuple[ParamEntry, ...] = ()
    expansions: tuple[Expansion, ...] = ()


@dataclass(frozen=True)
class KeywordDictionary:
    src_framework: str
    tgt_framework: str
    tau: float
    groups: tuple[GroupEntry, ...] = ()

    def __post_init__(self) -> None:
        by_src: dict[str, GroupEntry] = {}
        for g in self.groups:
            if g.src_callable in by_src:
                raise ConfigError(f"duplicate source callable {g.src_callable!r}")
            by_src[g.src_callable] = g
        # an attribute, not a field, so that asdict and == see only the groups
        object.__setattr__(self, "_by_src", by_src)

    def group_for(self, src_callable: str) -> GroupEntry | None:
        return self._by_src.get(src_callable)

    def to_dict(self) -> dict:
        return {"version": 1, **asdict(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "KeywordDictionary":
        groups = tuple(
            GroupEntry(
                src_callable=g["src_callable"],
                tgt_callable=g["tgt_callable"],
                score=float(g["score"]),
                params=tuple(
                    ParamEntry(src=p["src"], tgt=p["tgt"], score=float(p["score"]))
                    for p in g.get("params", [])
                ),
                expansions=tuple(
                    Expansion(
                        src_param=e["src_param"],
                        new_call=e["new_call"],
                        score=float(e["score"]),
                    )
                    for e in g.get("expansions", [])
                ),
            )
            for g in doc["groups"]
        )
        return cls(
            src_framework=doc["src_framework"],
            tgt_framework=doc["tgt_framework"],
            tau=float(doc["tau"]),
            groups=groups,
        )

    def save(self, path: str | Path) -> None:
        write_text_atomic(path, json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "KeywordDictionary":
        with reading("keyword dictionary", path) as text:
            return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Translation:
    """What the pipeline should do with one keyword occurrence."""

    kind: str  # rename | drop | expand
    new_name: str | None = None
    new_call: str | None = None


def lookup(dictionary: KeywordDictionary, kw: ApiKeyword) -> Translation:
    """Resolve a keyword; parameters resolve inside their owner's group."""
    if kw.kind == CALLABLE:
        g = dictionary.group_for(kw.text)
        if g is None:
            raise UnmappedKeyword(f"callable {kw.text!r} not in dictionary")
        return Translation(kind=RENAME, new_name=g.tgt_callable)
    g = dictionary.group_for(kw.owner)
    if g is None:
        raise UnmappedKeyword(f"no group for owner {kw.owner!r}")
    for e in g.expansions:
        if e.src_param == kw.text:
            return Translation(kind=EXPAND, new_call=e.new_call)
    for p in g.params:
        if p.src == kw.text:
            if p.tgt is None:
                return Translation(kind=DROP)
            return Translation(kind=RENAME, new_name=p.tgt)
    raise UnmappedKeyword(f"parameter {kw.text!r} not in group {kw.owner!r}")


def dictionary_pairs(
    dictionary: KeywordDictionary,
) -> list[tuple[tuple[str, str, str | None], tuple[str, str, str | None]]]:
    """All (kind, text, owner) rename pairs, callables then parameters."""
    pairs = []
    for g in dictionary.groups:
        pairs.append(
            ((CALLABLE, g.src_callable, None), (CALLABLE, g.tgt_callable, None))
        )
        for p in g.params:
            if p.tgt is not None:
                pairs.append(
                    (
                        (PARAMETER, p.src, g.src_callable),
                        (PARAMETER, p.tgt, g.tgt_callable),
                    )
                )
    return pairs


def vocab_index(
    vocab: Sequence[ApiKeyword],
) -> Mapping[tuple[str, str, str | None], int]:
    """Map (kind, text, owner) to embedding column id."""
    return {(kw.kind, kw.text, kw.owner): kw.id for kw in vocab}
