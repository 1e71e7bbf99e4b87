"""Corpus construction: scan file trees, extract framework classes,
deduplicate, and index keyword vocabularies.

Traversal is path-sorted and deduplication hashes canonicalized class
text, so the same tree always produces the same unit ids, vocabulary
ids, and manifest hash.
"""

from __future__ import annotations

import ast
import fnmatch
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from frameport.atomic import write_text_atomic
from frameport.canon import (
    ApiKeyword,
    KeywordOccurrence,
    SignatureDatabase,
    SourceUnit,
    extract_keywords,
    extract_module_classes,
    keyword_occurrences,
)
from frameport.errors import (
    ArityError,
    ConfigError,
    DuplicateKeywordError,
    ParseError,
    reading,
)

DEFAULT_MARKERS = ("torch", "keras", "mxnet")
DEFAULT_INCLUDE = ("*.py", "*.ipynb")
DEFAULT_SIZE_CAP = 1_000_000


@dataclass(frozen=True)
class VocabEntry:
    keyword: ApiKeyword  # id assigned
    count: int


@dataclass
class FrameworkStats:
    unit_count: int
    content_hash: str
    vocabulary: list[VocabEntry] = field(default_factory=list)
    bpe_vocab: str | None = None


def _vocab_record(e: VocabEntry) -> dict:
    kw = e.keyword
    return {
        "id": kw.id,
        "kind": kw.kind,
        "text": kw.text,
        "owner": kw.owner,
        "count": e.count,
    }


@dataclass
class CorpusManifest:
    frameworks: dict[str, FrameworkStats] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "frameworks": {
                fw: {
                    "unit_count": st.unit_count,
                    "content_hash": st.content_hash,
                    "bpe_vocab": st.bpe_vocab,
                    "vocabulary": [_vocab_record(e) for e in st.vocabulary],
                }
                for fw, st in sorted(self.frameworks.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CorpusManifest":
        out = cls()
        for fw, st in doc["frameworks"].items():
            # an id is its keyword's embedding column
            for i, v in enumerate(st["vocabulary"]):
                if v["id"] != i:
                    raise ValueError(f"{fw} vocabulary entry {i} has id {v['id']!r}")
            out.frameworks[fw] = FrameworkStats(
                unit_count=st["unit_count"],
                content_hash=st["content_hash"],
                bpe_vocab=st.get("bpe_vocab"),
                vocabulary=[
                    VocabEntry(
                        keyword=ApiKeyword(
                            framework=fw,
                            kind=v["kind"],
                            text=v["text"],
                            owner=v.get("owner"),
                        ).with_id(v["id"]),
                        count=v["count"],
                    )
                    for v in st["vocabulary"]
                ],
            )
        return out


@dataclass
class IngestResult:
    manifest: CorpusManifest
    units: dict[str, list[SourceUnit]]
    skipped: list[tuple[str, str]] = field(default_factory=list)


def _content_hash(texts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def notebook_extract(ipynb_text: str) -> str:
    """Concatenate a notebook's code cells, dropping magic/shell lines."""
    doc = json.loads(ipynb_text)
    cells = doc.get("cells", []) if isinstance(doc, dict) else None
    if not isinstance(cells, list) or not all(isinstance(c, dict) for c in cells):
        raise TypeError("a notebook is an object with a list of cell objects")
    parts: list[str] = []
    for cell in cells:
        if cell.get("cell_type") != "code":
            continue
        source = cell.get("source", [])
        text = "".join(source) if isinstance(source, list) else str(source)
        kept = [
            line
            for line in text.splitlines()
            if not line.lstrip().startswith(("%", "!"))
        ]
        parts.append("\n".join(kept))
    return "\n".join(p for p in parts if p.strip())


def _iter_files(
    roots: Sequence[str | Path],
    include: Sequence[str],
    exclude: Sequence[str],
) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        rootp = Path(root)
        if not rootp.exists():
            raise ConfigError(f"ingest root {root} does not exist")
        if rootp.is_file():
            # a file named as a root is a candidate whatever its name (as in
            # ripgrep): the include globs pick among the files a walk finds
            candidates = [rootp]
        else:
            candidates = sorted(
                p
                for p in rootp.rglob("*")
                if p.is_file() and any(fnmatch.fnmatch(p.name, g) for g in include)
            )
        for p in candidates:
            if not any(fnmatch.fnmatch(str(p), g) for g in exclude):
                files.append(p)
    return files


def ingest(
    roots: Sequence[str | Path],
    dbs: Mapping[str, SignatureDatabase],
    include: Sequence[str] = DEFAULT_INCLUDE,
    exclude: Sequence[str] = (),
    markers: Sequence[str] = DEFAULT_MARKERS,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> IngestResult:
    """Scan trees and build the per-framework unit lists and manifest.

    Files failing any filter are skipped with a reason, never fatally.
    """
    units: dict[str, list[SourceUnit]] = {fw: [] for fw in dbs}
    # keyword counts of the kept units, taken on the class trees the
    # rewrite left; a tree is dropped with its file, as trees take many
    # times the memory of their text
    keywords: dict[str, Counter[ApiKeyword]] = {fw: Counter() for fw in dbs}
    seen: dict[str, set[str]] = {fw: set() for fw in dbs}
    skipped: list[tuple[str, str]] = []
    for path in _iter_files(roots, include, exclude):
        try:
            size = path.stat().st_size
            if size > size_cap:
                skipped.append((str(path), f"size {size} > cap {size_cap}"))
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            skipped.append((str(path), f"unreadable: {exc}"))
            continue
        if markers and not any(m in text for m in markers):
            skipped.append((str(path), "no framework marker"))
            continue
        if path.suffix == ".ipynb":
            try:
                text = notebook_extract(text)
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                skipped.append((str(path), f"bad notebook: {exc}"))
                continue
        file_trees: list[ast.ClassDef] = []
        try:
            extracted = extract_module_classes(text, dbs, origin=str(path), trees=file_trees)
        except ParseError as exc:
            skipped.append((str(path), f"does not parse: {exc}"))
            continue
        except (ArityError, DuplicateKeywordError) as exc:
            skipped.append((str(path), f"does not canonicalize: {exc}"))
            continue
        if not extracted:
            skipped.append((str(path), "no framework classes"))
            continue
        for unit, tree in zip(extracted, file_trees):
            digest = hashlib.sha256(unit.text.encode("utf-8")).hexdigest()
            if digest in seen[unit.framework]:
                continue
            seen[unit.framework].add(digest)
            units[unit.framework].append(unit)
            keywords[unit.framework].update(
                site.keyword for site in extract_keywords(tree, dbs[unit.framework])
            )
    manifest = CorpusManifest()
    for fw, fw_units in units.items():
        manifest.frameworks[fw] = FrameworkStats(
            unit_count=len(fw_units),
            content_hash=_content_hash(u.text for u in fw_units),
            vocabulary=build_vocab(keywords[fw]),
        )
    return IngestResult(manifest=manifest, units=units, skipped=skipped)


def build_vocab(counts: Counter[ApiKeyword]) -> list[VocabEntry]:
    """Order keyword counts by count desc, then lexicographic.

    Ids are dense from 0 in that order, pinning embedding columns.
    """
    ordered = sorted(
        counts.items(),
        key=lambda item: (-item[1], item[0].kind, item[0].text, item[0].owner or ""),
    )
    return [
        VocabEntry(keyword=kw.with_id(i), count=count)
        for i, (kw, count) in enumerate(ordered)
    ]


def vocab_keywords(entries: Sequence[VocabEntry]) -> list[ApiKeyword]:
    return [e.keyword for e in entries]


def extract_occurrences(
    units: Sequence[SourceUnit], db: SignatureDatabase, framework: str
) -> list[KeywordOccurrence]:
    """All keyword occurrences of a unit list, in unit order.

    Each occurrence is tagged with ``unit_ref = "<framework>:<index>"``
    so file-backed embedding providers can address it.
    """
    occs: list[KeywordOccurrence] = []
    for i, unit in enumerate(units):
        occs += keyword_occurrences(unit, db, unit_ref=f"{framework}:{i}")
    return occs


# -- persistence -------------------------------------------------------------


def _write_jsonl(path: Path, records: Iterable[dict]) -> None:
    write_text_atomic(path, "".join(json.dumps(r) + "\n" for r in records))


def save_corpus(directory: str | Path, result: IngestResult) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for fw, fw_units in result.units.items():
        _write_jsonl(
            d / f"units_{fw}.jsonl",
            ({"id": i, "origin": u.origin, "text": u.text} for i, u in enumerate(fw_units)),
        )
    write_text_atomic(
        d / "manifest.json", json.dumps(result.manifest.to_dict(), indent=2) + "\n"
    )
    if result.skipped:
        _write_jsonl(d / "skipped.jsonl", ({"path": p, "reason": r} for p, r in result.skipped))


def load_corpus(directory: str | Path) -> IngestResult:
    d = Path(directory)
    path = d / "manifest.json"
    with reading("corpus manifest", path) as text:
        manifest = CorpusManifest.from_dict(json.loads(text))
    units: dict[str, list[SourceUnit]] = {}
    for fw, stats in manifest.frameworks.items():
        path = d / f"units_{fw}.jsonl"
        with reading("corpus units", path) as text:
            records = [json.loads(line) for line in text.splitlines() if line.strip()]
            if len(records) != stats.unit_count:
                raise ValueError(
                    f"{len(records)} units, the manifest counts {stats.unit_count}"
                )
            for rec in records:
                if not isinstance(rec["text"], str):
                    raise TypeError(f"unit text {rec['text']!r} is not a string")
                rec["text"].encode("utf-8")  # JSON can spell lone surrogates
            units[fw] = [
                SourceUnit(text=rec["text"], framework=fw, origin=rec.get("origin", ""))
                for rec in records
            ]
    return IngestResult(manifest=manifest, units=units)
