"""End-to-end translation of source units between framework dialects.

One call to ``transpile_unit`` runs the whole chain: canonicalize the
input into a tree, find its API keywords in one walk of that tree, swap
each for a numbered placeholder and unparse the skeleton, have a
completion backend translate it, resolve each keyword through the
dictionary, and reinsert the results, whose one target rewrite resolves
the placeholders before its one unparse. So a unit is parsed once per
side, plus the translations that are not plain dotted names.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .canon import (
    CALLABLE,
    KeywordSite,
    SignatureDatabase,
    SourceUnit,
    canonicalize,
    extract_keywords,
)
from .errors import (
    ConfigError,
    ExpansionContextError,
    PlaceholderMismatch,
    UnmappedKeyword,
)
from .keyword_dictionary import KeywordDictionary, lookup
from .llm import BackendConfig, PromptTemplate, load_template, transpile_skeleton
from .skeleton import CodeSkeleton, reinsert, to_skeleton, validate_placeholders

FRAMEWORKS = ("keras", "mxnet", "pytorch")

# the data files bundled with the package
_FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    """Absolute path of a data file bundled with the package."""
    path = _FIXTURES / name
    if not path.is_file():
        raise ConfigError(f"no bundled fixture named {name!r}")
    return path


def default_database(framework: str) -> SignatureDatabase:
    """Load the signature database shipped for one framework."""
    if framework not in FRAMEWORKS:
        raise ConfigError(
            f"unknown framework {framework!r}; expected one of {FRAMEWORKS}"
        )
    return SignatureDatabase.load(fixture_path(f"{framework}.json"))


def default_template(src_framework: str, tgt_framework: str) -> PromptTemplate:
    """Load the bundled few-shot prompt template for a framework pair."""
    name = f"template_{src_framework}_{tgt_framework}.txt"
    return load_template(fixture_path(name), src_framework, tgt_framework)


def default_dictionary(src_framework: str, tgt_framework: str) -> KeywordDictionary:
    """Load the bundled keyword dictionary for a framework pair."""
    try:
        path = fixture_path(f"dict_{src_framework}_{tgt_framework}.json")
    except ConfigError as exc:
        raise ConfigError(
            f"{exc}; a pair without a bundled dictionary needs a learned one, "
            "given with transpile --dictionary or eval --dictionary-dir"
        ) from None
    return KeywordDictionary.load(path)


@dataclass(frozen=True)
class TranspileResult:
    """Everything produced while translating one unit.

    ``output`` is the final target-dialect unit. The intermediate stages
    are kept for inspection: the placeholder skeleton, whose
    ``canonical_text()`` is the canonicalized input, and the raw backend
    completion, whose placeholders matched the skeleton's (a mismatch
    raises ``PlaceholderMismatch`` instead). ``warnings`` lists the known
    calls with star arguments and the keywords that passed through
    untranslated.
    """

    output: SourceUnit
    skeleton: CodeSkeleton
    completion: str
    warnings: tuple[str, ...] = ()


def build_translations(
    occs: Sequence[KeywordSite],
    dictionary: KeywordDictionary,
) -> tuple[dict[int, list[str]], list[str]]:
    """Resolve keyword sites into reinsertion fragments per placeholder.

    Placeholder index ``i`` names ``occs[i - 1]``, the order ``to_skeleton``
    leaves the sites in, and its slot holds the fragment list ``lookup``
    returns. An expansion also appends its new call to the slot of the
    enclosing call's callable, so the extra call is emitted right after
    the translated one. Keywords missing from the dictionary pass through
    unchanged and are reported in the returned warning list.
    """
    host_slot: dict[int, int] = {}
    for i, occ in enumerate(occs, start=1):
        if occ.keyword.kind == CALLABLE:
            host_slot.setdefault(occ.call_id, i)
    translations: dict[int, list[str]] = {}
    warnings: list[str] = []
    for i, occ in enumerate(occs, start=1):
        kw = occ.keyword
        try:
            translations[i], new_call = lookup(dictionary, kw)
        except UnmappedKeyword as exc:
            warnings.append(str(exc))
            translations[i] = [kw.text]
            continue
        if new_call is not None:
            host = host_slot.get(occ.call_id)
            if host is None:
                raise ExpansionContextError(
                    f"parameter {kw.text!r} expands to {new_call!r} "
                    "but its enclosing call was not captured"
                )
            translations[host].append(new_call)
    return translations, warnings


def transpile_unit(
    unit: SourceUnit,
    src_db: SignatureDatabase,
    tgt_db: SignatureDatabase,
    dictionary: KeywordDictionary,
    template: PromptTemplate,
    backend_cfg: BackendConfig | None = None,
    strict: bool = False,
) -> TranspileResult:
    """Translate one unit end to end.

    Raises ``PlaceholderMismatch`` when the backend loses or duplicates
    placeholders, and propagates parse, backend, and configuration
    errors from the individual stages.
    """
    if dictionary.src_framework != src_db.framework:
        raise ConfigError(
            f"dictionary translates from {dictionary.src_framework!r} "
            f"but the source database is {src_db.framework!r}"
        )
    if dictionary.tgt_framework != tgt_db.framework:
        raise ConfigError(
            f"dictionary translates to {dictionary.tgt_framework!r} "
            f"but the target database is {tgt_db.framework!r}"
        )
    cfg = backend_cfg if backend_cfg is not None else BackendConfig()
    tree = canonicalize(unit, src_db, strict=strict)
    star_calls: list[str] = []
    sites = extract_keywords(tree, src_db, star_calls)
    skeleton = to_skeleton(tree, sites)
    completion = transpile_skeleton(skeleton.text, template, cfg)
    report = validate_placeholders(skeleton, completion)
    if not report.ok:
        raise PlaceholderMismatch(report.missing, report.duplicate, report.extra)
    translations, unmapped = build_translations(sites, dictionary)
    output = reinsert(completion, translations, tgt_db, origin=unit.origin)
    passed = [f"{name}: a call with star arguments passes through untranslated"
              for name in star_calls]
    return TranspileResult(
        output=output,
        skeleton=skeleton,
        completion=completion,
        warnings=(*passed, *unmapped),
    )


def transpile_source(
    text: str,
    src_framework: str,
    tgt_framework: str,
    dictionary: KeywordDictionary | None = None,
    backend_cfg: BackendConfig | None = None,
    strict: bool = False,
    origin: str = "",
) -> TranspileResult:
    """Translate raw source text using the bundled fixtures as defaults."""
    src_db = default_database(src_framework)
    tgt_db = default_database(tgt_framework)
    if dictionary is None:
        dictionary = default_dictionary(src_framework, tgt_framework)
    template = default_template(src_framework, tgt_framework)
    unit = SourceUnit(text=text, framework=src_framework, origin=origin)
    return transpile_unit(
        unit, src_db, tgt_db, dictionary, template, backend_cfg, strict=strict
    )
