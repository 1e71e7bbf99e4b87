"""Dictionary generation: score measures, hubness rescaling, hierarchical
greedy matching, expansions, and lookup."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from frameport.canon import (
    CALLABLE,
    PARAMETER,
    ApiKeyword,
    SignatureDatabase,
)
from frameport.dictionary import (
    COSINE,
    DOT,
    DROP,
    EXPAND,
    RENAME,
    Expansion,
    GroupEntry,
    KeywordDictionary,
    KeywordGroup,
    ParamEntry,
    build_groups,
    csls_rescale,
    generate_dictionary,
    group_similarity,
    lookup,
    score_matrix,
)
from frameport.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyVocabularyError,
    KOutOfRange,
    NonFiniteScoreError,
    UnmappedKeyword,
    ZeroVectorError,
)
from frameport.pipeline import fixture_path


def _kw(framework, kind, text, owner=None, id=-1):
    return ApiKeyword(framework, kind, text, owner=owner).with_id(id)


def test_score_matrix_dot_and_cosine_hand_values():
    E1 = np.array([[1.0, 0.0], [0.0, 2.0]])  # columns: (1,0), (0,2)
    E2 = np.array([[3.0, 1.0], [4.0, 0.0]])  # columns: (3,4), (1,0)
    dot = score_matrix(E1, E2, DOT)
    assert dot.measure == DOT and dot.shape == (2, 2)
    assert np.allclose(dot.values, [[3.0, 1.0], [8.0, 0.0]])
    cos = score_matrix(E1, E2, COSINE)
    assert math.isclose(cos.values[0, 0], 3 / 5, rel_tol=1e-12)
    assert math.isclose(cos.values[1, 0], 4 / 5, rel_tol=1e-12)
    assert math.isclose(cos.values[0, 1], 1.0, rel_tol=1e-12)
    assert cos.values[1, 1] == 0.0


def test_score_matrix_validation():
    with pytest.raises(DimensionMismatch):
        score_matrix(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ZeroVectorError):
        score_matrix(np.zeros((2, 1)), np.ones((2, 1)), COSINE)
    with pytest.raises(ConfigError):
        score_matrix(np.ones((2, 1)), np.ones((2, 1)), "manhattan")
    # dot tolerates zero vectors
    assert score_matrix(np.zeros((2, 1)), np.ones((2, 1)), DOT).values[0, 0] == 0.0


def test_csls_matches_direct_formula():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((6, 5))
    s = score_matrix(np.eye(6), values, DOT)  # values pass through
    assert np.allclose(s.values, values)
    for k in (1, 2, 5):
        rescaled = csls_rescale(s, k)
        expected = np.empty_like(values)
        for i in range(6):
            for j in range(5):
                row_top = np.mean(sorted(values[i, :], reverse=True)[:k])
                col_top = np.mean(sorted(values[:, j], reverse=True)[:k])
                expected[i, j] = 2 * values[i, j] - row_top - col_top
        assert np.allclose(rescaled.values, expected, atol=1e-12)
        assert rescaled.measure == f"csls({k}, dot)"


def test_csls_of_constant_matrix_is_zero():
    s = score_matrix(np.eye(3), np.full((3, 4), 2.5), DOT)
    assert np.allclose(csls_rescale(s, 2).values, 0.0)


def test_csls_k_bounds():
    s = score_matrix(np.eye(3), np.ones((3, 4)), DOT)
    for bad in (0, -1, 4):
        with pytest.raises(KOutOfRange):
            csls_rescale(s, bad)
    csls_rescale(s, 3)  # k == min(m1, m2) is allowed


def test_build_groups_and_validation():
    vocab = [
        _kw("a", CALLABLE, "f", id=0),
        _kw("a", PARAMETER, "p", owner="f", id=1),
        _kw("a", PARAMETER, "q", owner="f", id=2),
        _kw("a", CALLABLE, "g", id=3),
    ]
    groups = build_groups(vocab)
    assert [g.callable_kw.text for g in groups] == ["f", "g"]
    assert [p.text for p in groups[0].parameters] == ["p", "q"]
    assert groups[1].parameters == ()
    with pytest.raises(ConfigError):
        build_groups([ApiKeyword("a", CALLABLE, "f")])  # no id assigned
    with pytest.raises(ConfigError):
        KeywordGroup(callable_kw=vocab[1])  # head must be a callable
    with pytest.raises(ConfigError):
        KeywordGroup(callable_kw=vocab[0], parameters=(
            _kw("a", PARAMETER, "x", owner="other", id=9),
        ))


def test_group_similarity_is_callable_plus_best_param_scores():
    g1 = KeywordGroup(
        callable_kw=_kw("a", CALLABLE, "f", id=0),
        parameters=(
            _kw("a", PARAMETER, "p", owner="f", id=1),
            _kw("a", PARAMETER, "q", owner="f", id=2),
        ),
    )
    g2 = KeywordGroup(
        callable_kw=_kw("b", CALLABLE, "F", id=0),
        parameters=(_kw("b", PARAMETER, "r", owner="F", id=1),),
    )
    values = np.array([
        [9.0, 0.0],
        [0.0, 8.0],
        [0.0, 3.0],
    ])
    assert group_similarity(g1, g2, values) == 9.0 + 8.0 + 3.0
    bare = KeywordGroup(callable_kw=_kw("b", CALLABLE, "F", id=0))
    assert group_similarity(g1, bare, values) == 9.0


def _dbs():
    return SignatureDatabase("a", {}, []), SignatureDatabase("b", {}, [])


def _scenario():
    """Engineered sides where the intended matches are unambiguous.

    With E1 the identity, the dot score matrix equals E2 row-for-row, so
    the scores below are written directly as the desired matrix.
    """
    vocab1 = [
        _kw("a", CALLABLE, "f1", id=0),
        _kw("a", PARAMETER, "p1", owner="f1", id=1),
        _kw("a", PARAMETER, "p2", owner="f1", id=2),
        _kw("a", CALLABLE, "g1", id=3),
        _kw("a", PARAMETER, "act", owner="f1", id=4),
    ]
    vocab2 = [
        _kw("b", CALLABLE, "F2", id=0),
        _kw("b", PARAMETER, "q1", owner="F2", id=1),
        _kw("b", CALLABLE, "G2", id=2),
    ]
    scores = np.array([
        # F2    q1    G2
        [9.0, 0.0, 1.0],   # f1
        [0.2, 8.0, 0.1],   # p1
        [0.1, 3.0, 0.2],   # p2
        [2.0, 0.0, 7.0],   # g1
        [0.3, 7.0, 6.0],   # act: beats tau against G2, despite q1=7
    ])
    E1 = np.eye(5)
    E2 = scores.copy()  # (m1=5 rows) -> E2 must be (d=5, m2=3)
    return vocab1, vocab2, E1, E2


def test_generate_dictionary_matches_groups_params_and_drops():
    vocab1, vocab2, E1, E2 = _scenario()
    db1, db2 = _dbs()
    d = generate_dictionary(E1, E2, vocab1, vocab2, db1, db2, measure=DOT, tau=5.0)
    assert d.src_framework == "a" and d.tgt_framework == "b" and d.tau == 5.0
    by_src = {g.src_callable: g for g in d.groups}
    assert set(by_src) == {"f1", "g1"}
    f1 = by_src["f1"]
    assert f1.tgt_callable == "F2"
    assert f1.score == 9.0 + 8.0 + 3.0 + 7.0  # act's best in-group column is q1
    params = {p.src: p for p in f1.params}
    assert params["p1"].tgt == "q1" and params["p1"].score == 8.0
    assert params["p2"].tgt is None and params["p2"].score == 0.0  # q1 taken
    assert by_src["g1"].tgt_callable == "G2" and by_src["g1"].params == ()


def test_generate_dictionary_expansion_beats_parameter_match():
    vocab1, vocab2, E1, E2 = _scenario()
    db1, db2 = _dbs()
    d = generate_dictionary(E1, E2, vocab1, vocab2, db1, db2, measure=DOT, tau=5.0)
    f1 = next(g for g in d.groups if g.src_callable == "f1")
    assert f1.expansions == (Expansion(src_param="act", new_call="G2()", score=6.0),)
    assert "act" not in {p.src for p in f1.params}
    # raising tau above the callable score turns act back into a parameter,
    # where p1's higher bid (8.0 > 7.0) keeps the only slot
    d2 = generate_dictionary(E1, E2, vocab1, vocab2, db1, db2, measure=DOT, tau=6.5)
    f1 = next(g for g in d2.groups if g.src_callable == "f1")
    assert f1.expansions == ()
    by_src = {p.src: p for p in f1.params}
    assert by_src["p1"].tgt == "q1" and by_src["p1"].score == 8.0
    assert by_src["act"].tgt is None and by_src["act"].score == 0.0


def test_generate_dictionary_drop_floor():
    vocab1, vocab2, E1, E2 = _scenario()
    db1, db2 = _dbs()
    d = generate_dictionary(
        E1, E2, vocab1, vocab2, db1, db2, measure=DOT, tau=5.0, drop_floor=8.0
    )
    f1 = next(g for g in d.groups if g.src_callable == "f1")
    assert all(p.tgt is None for p in f1.params)  # 8.0 <= floor drops p1 too


def test_generate_dictionary_breaks_group_ties_lexicographically():
    vocab1 = [_kw("a", CALLABLE, "x", id=0)]
    vocab2 = [_kw("b", CALLABLE, "zed", id=0), _kw("b", CALLABLE, "abel", id=1)]
    db1, db2 = _dbs()
    d = generate_dictionary(
        np.eye(1), np.array([[4.0, 4.0]]), vocab1, vocab2, db1, db2, measure=DOT
    )
    assert d.groups[0].tgt_callable == "abel"


def test_generate_dictionary_with_csls_changes_scores():
    vocab1, vocab2, E1, E2 = _scenario()
    db1, db2 = _dbs()
    plain = generate_dictionary(E1, E2, vocab1, vocab2, db1, db2, measure=DOT)
    rescaled = generate_dictionary(
        E1, E2, vocab1, vocab2, db1, db2, measure=DOT, csls_k=2
    )
    assert {g.src_callable for g in rescaled.groups} == {
        g.src_callable for g in plain.groups
    }
    assert rescaled.groups[0].score != plain.groups[0].score


def test_generate_dictionary_validation():
    vocab1, vocab2, E1, E2 = _scenario()
    db1, db2 = _dbs()
    with pytest.raises(DimensionMismatch):
        generate_dictionary(E1[:, :2], E2, vocab1, vocab2, db1, db2)
    only_params = [_kw("a", PARAMETER, "p", owner="f", id=0)]
    with pytest.raises(EmptyVocabularyError):
        generate_dictionary(
            np.eye(1), np.eye(1), only_params, vocab2[:1], db1, db2, measure=DOT
        )


def _sample_dictionary():
    return KeywordDictionary(
        src_framework="a",
        tgt_framework="b",
        tau=5.0,
        groups=(
            GroupEntry(
                src_callable="f",
                tgt_callable="F",
                score=9.0,
                params=(
                    ParamEntry(src="keep", tgt="kept", score=7.0),
                    ParamEntry(src="gone", tgt=None, score=0.0),
                ),
                expansions=(Expansion(src_param="act", new_call="R()", score=6.0),),
            ),
        ),
    )


def test_dictionary_serialization_round_trip(tmp_path):
    d = _sample_dictionary()
    doc = d.to_dict()
    assert doc["version"] == 1
    assert KeywordDictionary.from_dict(doc) == d
    path = tmp_path / "dict.json"
    d.save(path)
    assert KeywordDictionary.load(path) == d
    with pytest.raises(ConfigError):
        KeywordDictionary(
            "a", "b", 5.0,
            groups=(
                GroupEntry("f", "F", 1.0),
                GroupEntry("f", "G", 1.0),
            ),
        )


def test_lookup_resolves_each_translation_kind():
    d = _sample_dictionary()
    t = lookup(d, ApiKeyword("a", CALLABLE, "f"))
    assert (t.kind, t.new_name) == (RENAME, "F")
    t = lookup(d, ApiKeyword("a", PARAMETER, "keep", owner="f"))
    assert (t.kind, t.new_name) == (RENAME, "kept")
    t = lookup(d, ApiKeyword("a", PARAMETER, "gone", owner="f"))
    assert t.kind == DROP and t.new_name is None
    t = lookup(d, ApiKeyword("a", PARAMETER, "act", owner="f"))
    assert (t.kind, t.new_call) == (EXPAND, "R()")


def test_lookup_unmapped_paths():
    d = _sample_dictionary()
    with pytest.raises(UnmappedKeyword):
        lookup(d, ApiKeyword("a", CALLABLE, "mystery"))
    with pytest.raises(UnmappedKeyword):
        lookup(d, ApiKeyword("a", PARAMETER, "keep", owner="mystery"))
    with pytest.raises(UnmappedKeyword):
        lookup(d, ApiKeyword("a", PARAMETER, "unknown", owner="f"))


def _reference_generate_dictionary(
    E1, E2, vocab1, vocab2, db1, db2, measure=COSINE, tau=5.0,
    drop_floor=-math.inf, csls_k=None,
):
    """The per-group-pair loop generate_dictionary replaced, kept as its oracle."""
    groups1 = build_groups(vocab1)
    groups2 = build_groups(vocab2)
    s = score_matrix(E1, E2, measure)
    if csls_k is not None:
        s = csls_rescale(s, csls_k)
    values = s.values
    tgt_callable_ids = [g.callable_kw.id for g in groups2]
    tgt_callable_text = {g.callable_kw.id: g.callable_kw.text for g in groups2}
    entries = []
    for g1 in groups1:
        best_g2 = None
        best_sim = -math.inf
        for g2 in groups2:
            sim = group_similarity(g1, g2, s)
            if sim > best_sim or (
                sim == best_sim
                and best_g2 is not None
                and g2.callable_kw.text < best_g2.callable_kw.text
            ):
                best_sim = sim
                best_g2 = g2
        if best_g2 is None:
            return None  # no finite group score for g1
        expansions = []
        matchable = []
        for p in g1.parameters:
            call_scores = values[p.id, tgt_callable_ids]
            j = int(np.argmax(call_scores))
            if float(call_scores[j]) > tau:
                expansions.append(
                    Expansion(
                        src_param=p.text,
                        new_call=f"{tgt_callable_text[tgt_callable_ids[j]]}()",
                        score=float(call_scores[j]),
                    )
                )
            else:
                matchable.append(p)
        candidates = sorted(
            (-float(values[p.id, q.id]), pi, qi)
            for pi, p in enumerate(matchable)
            for qi, q in enumerate(best_g2.parameters)
        )
        assigned = {}
        used_tgt = set()
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
                score=best_sim,
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


def _random_vocab(rng, framework, n_groups, max_params):
    """Callables with 0..max_params parameters each, texts out of id order."""
    names = [f"{framework}{i}" for i in rng.permutation(n_groups)]
    vocab = []
    for name in names:
        vocab.append(_kw(framework, CALLABLE, name, id=len(vocab)))
        for k in range(int(rng.integers(0, max_params + 1))):
            vocab.append(_kw(framework, PARAMETER, f"p{k}", owner=name, id=len(vocab)))
    return vocab


def test_generate_dictionary_matches_per_pair_loop_on_random_matrices():
    rng = np.random.default_rng(7)
    db1, db2 = _dbs()
    for case in range(400):
        vocab1 = _random_vocab(rng, "a", int(rng.integers(1, 7)), int(rng.integers(0, 5)))
        vocab2 = _random_vocab(rng, "b", int(rng.integers(1, 7)), int(rng.integers(0, 5)))
        d = int(rng.integers(1, 5))
        E1 = rng.standard_normal((d, len(vocab1)))
        E2 = rng.standard_normal((d, len(vocab2)))
        if case % 2:  # integer embeddings force equal scores
            E1, E2 = np.round(E1), np.round(E2)
        if case % 7 == 3:  # a non-finite target column other groups outscore
            E2[:, int(rng.integers(0, len(vocab2)))] = rng.choice([np.nan, -np.inf])
        measure = DOT if case % 3 else COSINE
        kwargs = dict(
            measure=measure,
            tau=float(rng.choice([0.0, 0.5, 1.0, 5.0, math.inf])),
            drop_floor=float(rng.choice([-math.inf, -0.5, 0.0, 0.5])),
        )
        if case % 5 == 0:
            kwargs["csls_k"] = int(rng.integers(1, min(len(vocab1), len(vocab2)) + 1))
        with np.errstate(invalid="ignore"):
            try:
                expected = _reference_generate_dictionary(
                    E1, E2, vocab1, vocab2, db1, db2, **kwargs
                )
            except ZeroVectorError:
                with pytest.raises(ZeroVectorError):
                    generate_dictionary(E1, E2, vocab1, vocab2, db1, db2, **kwargs)
                continue
            if expected is None:
                with pytest.raises(NonFiniteScoreError):
                    generate_dictionary(E1, E2, vocab1, vocab2, db1, db2, **kwargs)
                continue
            got = generate_dictionary(E1, E2, vocab1, vocab2, db1, db2, **kwargs)
        assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict()), case


def test_generate_dictionary_skips_non_finite_groups_and_names_a_hopeless_callable():
    vocab1, vocab2, E1, E2 = _scenario()
    db1, db2 = _dbs()
    # F2's column turns NaN: f1 falls back to G2, the only finite group
    E2 = E2.copy()
    E2[:, 0] = np.nan
    d = generate_dictionary(E1, E2, vocab1, vocab2, db1, db2, measure=DOT)
    assert [g.tgt_callable for g in d.groups] == ["G2", "G2"]
    # a NaN embedding for g1 scores NaN against every target group
    E1 = E1.copy()
    E1[:, 3] = np.nan
    with pytest.raises(NonFiniteScoreError, match="'g1'"):
        generate_dictionary(E1, E2, vocab1, vocab2, db1, db2, measure=DOT)


@pytest.mark.parametrize("name", ["dict_pytorch_keras.json", "dict_keras_pytorch.json"])
def test_saving_a_bundled_dictionary_reproduces_its_file(name, tmp_path):
    bundled = fixture_path(name)
    KeywordDictionary.load(bundled).save(tmp_path / name)
    assert (tmp_path / name).read_bytes() == bundled.read_bytes()
