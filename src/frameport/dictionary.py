"""Induce an API keyword dictionary from aligned output embeddings.

This module is the numpy half of the dictionary: keyword-pair scores
(cosine, dot, CSLS) and induction. The records it builds
(``KeywordDictionary`` and its entries), their JSON file, ``lookup`` and
the modes of an entry live in the numpy-free
``frameport.keyword_dictionary``, which the transpile path reads; the
entry classes and ``dictionary_pairs`` are importable from here too.

Matching is hierarchical: callables and their parameters form groups;
groups pair up greedily by summed similarity, then parameters pair up
one-to-one inside each matched group. Parameters the target group cannot
absorb are dropped, and a parameter scoring above the threshold tau
against some target callable becomes a one-to-many expansion that emits a
new zero-argument call.

Group matching runs on arrays, not per group pair. The callable block
of the score matrix is gathered once; each target group's best score for
every source parameter is one segment max (``np.maximum.reduceat``) over
its parameter columns; and source parameter slot k is added to all rows at
once, in parameter order, so every group score is the same float64 sum the
scalar definition ``group_similarity`` accumulates. Expansion candidates
come from one batched argmax over the parameter-by-target-callable block.
Only the one-to-one parameter matching inside a matched group stays a
small per-group loop.

Ties break the same way everywhere, so generation is deterministic: a
source group takes the target group with the smallest callable text among
equal scores, an expansion takes the first target callable in vocabulary
order, and in-group parameter pairs take lower indices first. NaN and -inf
group scores never win; a source callable with no other score is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from frameport.canon import (
    CALLABLE,
    PARAMETER,
    ApiKeyword,
    SignatureDatabase,
)
from frameport.errors import ConfigError, FrameportError
from frameport.keyword_dictionary import (
    Expansion,
    GroupEntry,
    KeywordDictionary,
    ParamEntry,
    dictionary_pairs,
)

COSINE = "cosine"
DOT = "dot"


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Keyword-pair scores: rows = source vocab ids, cols = target."""

    values: np.ndarray
    measure: str


def score_matrix(
    E1: np.ndarray, E2: np.ndarray, measure: str = COSINE, csls_k: int | None = None
) -> ScoreMatrix:
    """Pairwise scores between embedding columns of the two sides, CSLS
    rescaled over ``csls_k`` neighbors when it is given."""
    if E1.ndim != 2 or E2.ndim != 2 or E1.shape[0] != E2.shape[0]:
        raise FrameportError(
            f"embedding matrices {E1.shape} / {E2.shape} do not share a row dim"
        )
    a = E1.astype(np.float64).T  # (m1, d)
    b = E2.astype(np.float64).T  # (m2, d)
    if measure == DOT:
        s = ScoreMatrix(values=a @ b.T, measure=DOT)
    elif measure == COSINE:
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        if np.any(na == 0) or np.any(nb == 0):
            side = 1 if np.any(na == 0) else 2
            raise FrameportError(f"zero-norm embedding on side {side}")
        s = ScoreMatrix(values=(a / na[:, None]) @ (b / nb[:, None]).T, measure=COSINE)
    else:
        raise ConfigError(f"unknown measure {measure!r}")
    return s if csls_k is None else csls_rescale(s, csls_k)


def csls_rescale(s: ScoreMatrix, k: int) -> ScoreMatrix:
    """Hubness correction: 2*s_ij minus each side's mean top-k neighborhood."""
    values = s.values
    m1, m2 = values.shape
    if k < 1 or k > min(m1, m2):
        raise ConfigError(f"K={k} outside [1, {min(m1, m2)}]")
    # mean of the k largest entries per row / per column
    row_top = np.sort(values, axis=1)[:, -k:].mean(axis=1)
    col_top = np.sort(values, axis=0)[-k:, :].mean(axis=0)
    out = 2.0 * values - row_top[:, None] - col_top[None, :]
    return ScoreMatrix(values=out, measure=f"csls({k}, {s.measure})")


def _values(s: ScoreMatrix | np.ndarray) -> np.ndarray:
    return s.values if isinstance(s, ScoreMatrix) else np.asarray(s)


@dataclass(frozen=True)
class KeywordGroup:
    """A callable keyword together with its parameter keywords."""

    callable_kw: ApiKeyword
    parameters: tuple[ApiKeyword, ...] = ()

    def __post_init__(self) -> None:
        if self.callable_kw.kind != CALLABLE:
            raise ConfigError(f"group head {self.callable_kw.text!r} is not a callable")
        for p in self.parameters:
            if p.kind != PARAMETER or p.owner != self.callable_kw.text:
                raise ConfigError(
                    f"parameter {p.text!r} does not belong to {self.callable_kw.text!r}"
                )


def build_groups(vocab: Sequence[ApiKeyword]) -> list[KeywordGroup]:
    """Group the vocabulary by callable ownership, in vocab order."""
    for kw in vocab:
        if kw.id < 0:
            raise ConfigError(f"vocab keyword {kw.text!r} has no id")
    params_by_owner: dict[str, list[ApiKeyword]] = {}
    for kw in vocab:
        if kw.kind == PARAMETER and kw.owner:
            params_by_owner.setdefault(kw.owner, []).append(kw)
    groups = []
    for kw in vocab:
        if kw.kind == CALLABLE:
            groups.append(
                KeywordGroup(
                    callable_kw=kw,
                    parameters=tuple(params_by_owner.get(kw.text, ())),
                )
            )
    return groups


def group_similarity(
    g1: KeywordGroup, g2: KeywordGroup, s: ScoreMatrix | np.ndarray
) -> float:
    """Callable-pair score plus each source parameter's best in-group score."""
    values = _values(s)
    total = float(values[g1.callable_kw.id, g2.callable_kw.id])
    if g2.parameters:
        cols = [q.id for q in g2.parameters]
        for p in g1.parameters:
            total += float(values[p.id, cols].max())
    return total


def _group_similarities(
    values: np.ndarray,
    groups1: Sequence[KeywordGroup],
    groups2: Sequence[KeywordGroup],
) -> np.ndarray:
    """``group_similarity`` of every (source, target) group pair, as a matrix.

    Source parameter slot k is added to every row at once, in parameter
    order, so each entry is the same float64 sum ``group_similarity``
    accumulates. Target groups without parameters receive ``-0.0``, the
    addition that leaves every value, signed zeros included, unchanged.
    """
    sims = values[[g.callable_kw.id for g in groups1]][
        :, [g.callable_kw.id for g in groups2]
    ]
    src_sizes = np.array([len(g.parameters) for g in groups1])
    tgt_sizes = np.array([len(g.parameters) for g in groups2])
    if not src_sizes.any() or not tgt_sizes.any():
        return sims
    src_param_ids = [p.id for g in groups1 for p in g.parameters]
    tgt_param_ids = [q.id for g in groups2 for q in g.parameters]
    has_params = tgt_sizes > 0
    seg_starts = np.cumsum(tgt_sizes[has_params]) - tgt_sizes[has_params]
    # best in-group score of each source parameter against each target group
    param_best = np.full((len(src_param_ids), len(groups2)), -0.0)
    param_best[:, has_params] = np.maximum.reduceat(
        values[src_param_ids][:, tgt_param_ids], seg_starts, axis=1
    )
    src_offsets = np.cumsum(src_sizes) - src_sizes
    for k in range(int(src_sizes.max())):
        rows = np.flatnonzero(src_sizes > k)
        sims[rows] += param_best[src_offsets[rows] + k]
    return sims


def _best_target_groups(
    sims: np.ndarray,
    groups1: Sequence[KeywordGroup],
    groups2: Sequence[KeywordGroup],
) -> tuple[list[int], np.ndarray]:
    """Index into ``groups2`` of each source group's match, and its score.

    The highest similarity wins; among equal ones, the target callable
    with the smallest text. NaN and -inf never win.
    """
    by_text = sorted(range(len(groups2)), key=lambda j: groups2[j].callable_kw.text)
    ranked = sims[:, by_text]
    ranked[np.isnan(ranked)] = -np.inf
    picks = np.argmax(ranked, axis=1)
    best_sims = ranked[np.arange(len(groups1)), picks]
    hopeless = np.flatnonzero(best_sims == -np.inf)
    if hopeless.size:
        raise FrameportError(
            f"source callable {groups1[hopeless[0]].callable_kw.text!r} scores "
            "NaN or -inf against every target group"
        )
    return [by_text[j] for j in picks], best_sims


def generate_dictionary(
    E1: np.ndarray,
    E2: np.ndarray,
    vocab1: Sequence[ApiKeyword],
    vocab2: Sequence[ApiKeyword],
    db1: SignatureDatabase,
    db2: SignatureDatabase,
    measure: str = COSINE,
    tau: float = 5.0,
    drop_floor: float = -math.inf,
    csls_k: int | None = None,
) -> KeywordDictionary:
    """Two-step hierarchical generation from embedding matrices.

    E1/E2 have one column per vocab keyword, indexed by keyword id.
    """
    if E1.shape[1] != len(vocab1) or E2.shape[1] != len(vocab2):
        raise FrameportError(
            f"embedding columns {E1.shape[1]}/{E2.shape[1]} != vocab sizes "
            f"{len(vocab1)}/{len(vocab2)}"
        )
    groups1 = build_groups(vocab1)
    groups2 = build_groups(vocab2)
    if not groups1 or not groups2:
        raise FrameportError("both sides need at least one callable group")
    values = score_matrix(E1, E2, measure, csls_k).values
    best, best_sims = _best_target_groups(
        _group_similarities(values, groups1, groups2), groups1, groups2
    )
    # each source parameter's best target callable, first id among equals
    src_param_ids = [p.id for g in groups1 for p in g.parameters]
    tgt_callable_ids = [g.callable_kw.id for g in groups2]
    call_scores = values[src_param_ids][:, tgt_callable_ids]
    expand_to = np.argmax(call_scores, axis=1)

    entries: list[GroupEntry] = []
    row = 0
    for g1, bi, best_sim in zip(groups1, best, best_sims):
        best_g2 = groups2[bi]
        # expansions take precedence over in-group parameter matching
        expansions: list[Expansion] = []
        matchable: list[ApiKeyword] = []
        for p in g1.parameters:
            j = int(expand_to[row])
            score = float(call_scores[row, j])
            row += 1
            if score > tau:
                expansions.append(
                    Expansion(
                        src_param=p.text,
                        new_call=f"{groups2[j].callable_kw.text}()",
                        score=score,
                    )
                )
            else:
                matchable.append(p)

        # one-to-one greedy by descending score; leftovers are dropped
        candidates = sorted(
            (
                (-float(values[p.id, q.id]), pi, qi)
                for pi, p in enumerate(matchable)
                for qi, q in enumerate(best_g2.parameters)
            ),
        )
        assigned: dict[int, tuple[str, float]] = {}
        used_tgt: set[int] = set()
        for neg_score, pi, qi in candidates:
            if pi in assigned or qi in used_tgt:
                continue
            score = -neg_score
            if score <= drop_floor:
                continue
            assigned[pi] = (best_g2.parameters[qi].text, score)
            used_tgt.add(qi)
        params = tuple(
            ParamEntry(
                src=p.text,
                tgt=assigned[pi][0] if pi in assigned else None,
                score=assigned[pi][1] if pi in assigned else 0.0,
            )
            for pi, p in enumerate(matchable)
        )
        entries.append(
            GroupEntry(
                src_callable=g1.callable_kw.text,
                tgt_callable=best_g2.callable_kw.text,
                score=float(best_sim),
                params=params,
                expansions=tuple(expansions),
            )
        )
    return KeywordDictionary(
        src_framework=db1.framework,
        tgt_framework=db2.framework,
        tau=tau,
        groups=tuple(entries),
    )
