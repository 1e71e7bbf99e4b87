"""Adversarial alignment trainer: loss identities, per-role gradients
against finite differences, determinism, resume, and grid selection."""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest

from frameport import nn as fnn
from frameport import train as ft
from frameport.canon import CALLABLE, PARAMETER, ApiKeyword
from frameport.dictionary import KeywordDictionary, GroupEntry, ParamEntry
from frameport.errors import ConfigError, EmptyDictionaryError
from helpers import check_model_gradients, random_alignment_model, to_f64


def _toy_data(rng, n1=60, n2=50, d_b=8, m1=5, m2=6):
    H1 = rng.standard_normal((n1, d_b)).astype(np.float32)
    H2 = rng.standard_normal((n2, d_b)).astype(np.float32)
    y1 = rng.integers(0, m1, n1)
    y2 = rng.integers(0, m2, n2)
    return H1, y1, H2, y2


def test_config_validation_and_steps():
    cfg = ft.TrainConfig(batch_size=64, total_samples=1000)
    assert cfg.total_steps == 15
    assert ft.TrainConfig(total_samples=0).total_steps == 0
    with pytest.raises(ConfigError):
        ft.TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        ft.TrainConfig(total_samples=-1)


def test_model_create_shapes():
    rng = np.random.default_rng(0)
    cfg = ft.TrainConfig(d=16, gen_hidden=1, disc_hidden=2, total_samples=0)
    model = ft.AlignmentModel.create(cfg, d_b=10, vocab_sizes=[7, 9], rng=rng)
    assert model.generator.dims == (10, 16, 16)
    assert model.discriminator.dims == (16, 16, 16, 1)
    assert model.output_embeddings[0].shape == (16, 7)
    assert model.output_embeddings[1].shape == (16, 9)
    assert model.generator.activation == fnn.RELU
    assert model.discriminator.activation == fnn.LEAKY_RELU


def test_zero_logit_discriminator_gives_ln2_for_any_smoothing():
    rng = np.random.default_rng(1)
    model, batch, cfg = random_alignment_model(rng)
    for layer in model.discriminator.weights:
        layer[:] = 0.0
    for b in model.discriminator.biases:
        b[:] = 0.0
    for eps in (0.0, 0.1, 0.4):
        L = ft.gradients(model, batch, label_smoothing=eps)[1]
        assert math.isclose(L["L_D"], math.log(2), abs_tol=1e-12)
        assert math.isclose(L["L_G"], math.log(2), abs_tol=1e-12)


def test_uniform_classifier_gives_ln_k():
    rng = np.random.default_rng(2)
    model, batch, _ = random_alignment_model(rng, m1=7, m2=8)
    model.output_embeddings[0][:] = 0.0
    model.output_embeddings[1][:] = 0.0
    for eps in (0.0, 0.1):
        L = ft.gradients(model, batch, label_smoothing=eps)[1]
        assert math.isclose(L["L_CE_1"], math.log(7), abs_tol=1e-12)
        assert math.isclose(L["L_CE_2"], math.log(8), abs_tol=1e-12)


def test_adversarial_loss_pair_identity():
    # L_D and L_G share logits; with targets t and 1-t their sum equals
    # the sum of both smoothed BCEs computed directly from the logits.
    rng = np.random.default_rng(3)
    model, batch, cfg = random_alignment_model(rng)
    eps = 0.1
    L = ft.gradients(model, batch, label_smoothing=eps)[1]
    z1, _ = fnn.forward(model.generator, batch.h1)
    z2, _ = fnn.forward(model.generator, batch.h2)
    logits, _ = fnn.forward(model.discriminator, np.vstack([z1, z2]))
    logits = logits[:, 0]
    t = np.concatenate([np.zeros(len(z1)), np.ones(len(z2))])
    t_s = t * (1 - eps) + eps / 2
    ref_d, _ = fnn.binary_cross_entropy(logits, t_s)
    ref_g, _ = fnn.binary_cross_entropy(logits, 1 - t_s)
    assert math.isclose(L["L_D"], float(ref_d), rel_tol=1e-12)
    assert math.isclose(L["L_G"], float(ref_g), rel_tol=1e-12)


def test_role_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(3):
        model, batch, cfg = random_alignment_model(rng)
        worst = max(worst, check_model_gradients(model, batch, cfg, train_mode=False))
    assert worst < 1e-4, worst


def test_role_gradients_with_shared_dropout_masks():
    rng = np.random.default_rng(5)
    model, batch, cfg = random_alignment_model(rng)
    worst = check_model_gradients(model, batch, cfg, train_mode=True)
    assert worst < 1e-4, worst


def test_gradients_leave_inputs_untouched():
    rng = np.random.default_rng(6)
    model, batch, cfg = random_alignment_model(rng)
    before = (batch.h1.copy(), batch.h2.copy())
    ft.train_step(model, batch, ft.Optimizers.init(model), cfg, lr=1e-3,
                  rng=np.random.default_rng(0))
    assert np.array_equal(batch.h1, before[0])
    assert np.array_equal(batch.h2, before[1])


def test_zero_lr_step_changes_nothing():
    rng = np.random.default_rng(7)
    H1, y1, H2, y2 = _toy_data(rng)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16 * 3, dropout=0.1,
                         seed=3)
    model = ft.AlignmentModel.create(cfg, 8, [5, 6], np.random.default_rng(0))
    snapshot = [p.copy() for p in model.parameters()]
    opt = ft.Optimizers.init(model)
    sampler = ft.BatchSampler(H1, y1, H2, y2, cfg.batch_size, seed=1)
    ft.train_step(model, sampler.next_batch(), opt, cfg, lr=0.0,
                  rng=np.random.default_rng(1))
    for p, s in zip(model.parameters(), snapshot):
        assert np.array_equal(p, s)


def test_training_is_bit_deterministic():
    rng = np.random.default_rng(8)
    H1, y1, H2, y2 = _toy_data(rng)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16 * 10, seed=11)
    a_records, b_records = [], []
    a = ft.train(H1, y1, H2, y2, cfg, on_record=a_records.append, vocab_sizes=(5, 6))
    b = ft.train(H1, y1, H2, y2, cfg, on_record=b_records.append, vocab_sizes=(5, 6))
    for pa, pb in zip(a.state.model.parameters(), b.state.model.parameters()):
        assert np.array_equal(pa, pb)
    assert a_records == b_records


def test_cross_entropy_decreases_on_separable_data():
    rng = np.random.default_rng(9)
    m1, m2, d_b = 5, 6, 8
    centers1 = rng.standard_normal((m1, d_b)) * 3
    centers2 = rng.standard_normal((m2, d_b)) * 3
    y1 = rng.integers(0, m1, 400)
    y2 = rng.integers(0, m2, 400)
    H1 = (centers1[y1] + 0.1 * rng.standard_normal((400, d_b))).astype(np.float32)
    H2 = (centers2[y2] + 0.1 * rng.standard_normal((400, d_b))).astype(np.float32)
    cfg = ft.TrainConfig(d=16, batch_size=32, total_samples=32 * 150, seed=5,
                         peak_lr=1e-3)
    records = []
    ft.train(H1, y1, H2, y2, cfg, on_record=records.append, vocab_sizes=(m1, m2))
    last = records[-1]
    assert last["L_CE_1"] < math.log(m1)
    assert last["L_CE_2"] < math.log(m2)


def test_stop_then_resume_equals_uninterrupted_run(tmp_path):
    rng = np.random.default_rng(10)
    H1, y1, H2, y2 = _toy_data(rng)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16 * 12,
                         checkpoint_every=4, seed=21)
    full = ft.train(H1, y1, H2, y2, cfg, vocab_sizes=(5, 6))

    seen = {"n": 0}

    def count(rec):
        if "lr" in rec:
            seen["n"] += 1

    part = ft.train(H1, y1, H2, y2, cfg, on_record=count, vocab_sizes=(5, 6),
                    stop=lambda: seen["n"] >= 5)
    assert part.state.step == 5
    path = tmp_path / "ck.json"
    ft.save_checkpoint(path, part.state)
    state = ft.load_checkpoint(path)
    resumed = ft.train(H1, y1, H2, y2, cfg, resume=state, vocab_sizes=(5, 6))
    assert resumed.state.step == full.state.step
    for a, b in zip(resumed.state.model.parameters(), full.state.model.parameters()):
        assert np.array_equal(a, b)


def test_zero_step_run_checkpoints_the_init():
    rng = np.random.default_rng(11)
    H1, y1, H2, y2 = _toy_data(rng)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=0, seed=2)
    result = ft.train(H1, y1, H2, y2, cfg, selector=lambda m: 0.25,
                      vocab_sizes=(5, 6))
    assert result.state.step == 0
    assert result.checkpoint_scores == [(0, 0.25)]
    assert result.best_score == 0.25


def test_selector_keeps_best_snapshot():
    rng = np.random.default_rng(12)
    H1, y1, H2, y2 = _toy_data(rng)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16 * 9,
                         checkpoint_every=3, seed=4)
    scores = iter([0.3, 0.9, 0.1])
    snaps = []

    def selector(model):
        snaps.append(copy.deepcopy(model))
        return next(scores)

    result = ft.train(H1, y1, H2, y2, cfg, selector=selector, vocab_sizes=(5, 6))
    assert result.best_score == 0.9
    assert [s for _, s in result.checkpoint_scores] == [0.3, 0.9, 0.1]
    for a, b in zip(result.best_model.parameters(), snaps[1].parameters()):
        assert np.array_equal(a, b)


def test_grid_search_tie_breaks_to_smaller_lr_then_batch():
    rng = np.random.default_rng(13)
    H1, y1, H2, y2 = _toy_data(rng)
    base = ft.TrainConfig(d=8, batch_size=16, total_samples=32, seed=6)
    result = ft.grid_search(H1, y1, H2, y2, base, selector=lambda m: 1.0,
                            lrs=[1e-3, 2e-4], batch_sizes=[32, 16],
                            vocab_sizes=(5, 6))
    assert result.best_cfg.peak_lr == 2e-4
    assert result.best_cfg.batch_size == 16
    assert len(result.cells) == 4
    # cells iterate in ascending (lr, batch) order
    assert [(c.peak_lr, c.batch_size) for c in result.cells] == [
        (2e-4, 16), (2e-4, 32), (1e-3, 16), (1e-3, 32)
    ]
    with pytest.raises(ConfigError):
        ft.grid_search(H1, y1, H2, y2, base, selector=lambda m: 0.0, lrs=[],
                       vocab_sizes=(5, 6))


def test_checkpoint_file_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    cfg = ft.TrainConfig(d=8, batch_size=4, total_samples=8, seed=9)
    model = ft.AlignmentModel.create(cfg, 6, [4, 5], rng)
    opt = ft.Optimizers.init(model)
    sampler = ft.BatchSampler(np.ones((3, 6), np.float32), np.zeros(3, int),
                              np.ones((3, 6), np.float32), np.zeros(3, int),
                              batch_size=4, seed=1)
    path = tmp_path / "state.json"
    drop = np.random.default_rng(3).bit_generator.state
    ft.save_checkpoint(path, ft.TrainState(model, opt, 2, cfg, sampler.state(), drop))
    state = ft.load_checkpoint(path)
    assert state.step == 2
    assert state.cfg == cfg
    for a, b in zip(state.model.parameters(), model.parameters()):
        assert np.array_equal(a, b)
    doc = json.loads(path.read_text())
    assert doc["version"] == 1


def test_sampler_sides_are_independent_and_stateful():
    rng = np.random.default_rng(15)
    H1, y1, H2, y2 = _toy_data(rng)
    a = ft.BatchSampler(H1, y1, H2, y2, 8, seed=42)
    b = ft.BatchSampler(H1, y1, H2, y2, 8, seed=42)
    first = a.next_batch()
    b.set_state(a.state())  # after syncing states the streams coincide
    x, y = a.next_batch(), b.next_batch()
    assert np.array_equal(x.h1, y.h1) and np.array_equal(x.h2, y.h2)
    # side-2 draws do not perturb side-1's stream
    fresh = ft.BatchSampler(H1, y1, H2, y2, 8, seed=42)
    again = fresh.next_batch()
    assert np.array_equal(first.h1, again.h1)
    with pytest.raises(ConfigError):
        ft.BatchSampler(H1[:0], y1[:0], H2, y2, 8)


def test_metrics_records_have_expected_keys():
    rng = np.random.default_rng(16)
    H1, y1, H2, y2 = _toy_data(rng)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16 * 4,
                         checkpoint_every=2, seed=7)
    records = []
    ft.train(H1, y1, H2, y2, cfg, selector=lambda m: 0.0,
             on_record=records.append, vocab_sizes=(5, 6))
    step_recs = [r for r in records if "lr" in r]
    sel_recs = [r for r in records if "avg_cos_sim" in r]
    assert len(step_recs) == 4 and len(sel_recs) == 2
    assert set(step_recs[0]) == {"step", "lr", "L_CE_1", "L_CE_2", "L_D", "L_G"}
    assert set(sel_recs[0]) == {"step", "avg_cos_sim"}


def test_avg_cosine_similarity_hand_value():
    rng = np.random.default_rng(17)
    cfg = ft.TrainConfig(d=2, total_samples=0)
    model = ft.AlignmentModel.create(cfg, 4, [2, 2], rng)
    v1 = [
        ApiKeyword("a", CALLABLE, "f").with_id(0),
        ApiKeyword("a", PARAMETER, "p", owner="f").with_id(1),
    ]
    v2 = [
        ApiKeyword("b", CALLABLE, "g").with_id(0),
        ApiKeyword("b", PARAMETER, "q", owner="g").with_id(1),
    ]
    model.output_embeddings[0] = np.array([[1, 0], [0, 1]], np.float32)
    model.output_embeddings[1] = np.array([[1, 1], [0, 1]], np.float32)
    dictionary = KeywordDictionary(
        src_framework="a", tgt_framework="b", tau=5.0,
        groups=(GroupEntry("f", "g", 1.0, (ParamEntry("p", "q", 1.0),)),),
    )
    value = ft.avg_cosine_similarity(model, dictionary, v1, v2)
    # pairs: (e1[:,0], e2[:,0]) cos=1; (e1[:,1], e2[:,1]) cos=1/sqrt(2)
    assert math.isclose(value, (1 + 1 / math.sqrt(2)) / 2, rel_tol=1e-12)
    empty = KeywordDictionary("a", "b", 5.0, ())
    with pytest.raises(EmptyDictionaryError):
        ft.avg_cosine_similarity(model, empty, v1, v2)


def _per_side_gradients(model, batch, label_smoothing, train_mode, rng):
    """The former per-side step: one generator forward per side, and the
    CE and adversarial generator backward calls run per side and summed."""
    E1, E2 = model.output_embeddings
    z1, c1 = fnn.forward(model.generator, batch.h1, train_mode=train_mode, rng=rng)
    z2, c2 = fnn.forward(model.generator, batch.h2, train_mode=train_mode, rng=rng)
    l_ce1, dlogits1 = fnn.softmax_cross_entropy(z1 @ E1, batch.y1, label_smoothing)
    l_ce2, dlogits2 = fnn.softmax_cross_entropy(z2 @ E2, batch.y2, label_smoothing)
    d_in = np.concatenate([z1, z2], axis=0)
    d_logit, dc = fnn.forward(model.discriminator, d_in, train_mode=train_mode, rng=rng)
    t = np.concatenate([np.zeros(len(z1)), np.ones(len(z2))])
    targets = t * (1.0 - label_smoothing) + label_smoothing / 2.0
    l_d, g_true = fnn.binary_cross_entropy(d_logit, targets)
    l_g, g_rev = fnn.binary_cross_entropy(d_logit, 1.0 - targets)

    g_gen1, _ = fnn.backward(model.generator, c1, dlogits1 @ E1.T)
    g_gen2, _ = fnn.backward(model.generator, c2, dlogits2 @ E2.T)
    joint = [a + b for a, b in zip(g_gen1, g_gen2)] + [z1.T @ dlogits1, z2.T @ dlogits2]
    g_disc, _ = fnn.backward(model.discriminator, dc, g_true)
    _, dz_adv = fnn.backward(model.discriminator, dc, g_rev)
    n1 = len(z1)
    g_adv1, _ = fnn.backward(model.generator, c1, dz_adv[:n1])
    g_adv2, _ = fnn.backward(model.generator, c2, dz_adv[n1:])
    adv = [a + b for a, b in zip(g_adv1, g_adv2)]
    losses = {"L_CE_1": l_ce1, "L_CE_2": l_ce2, "L_D": l_d, "L_G": l_g}
    return {"joint": joint, "disc": g_disc, "gen_adv": adv}, losses


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_step_matches_the_per_side_step(dtype):
    rng = np.random.default_rng(18)
    sizes = [(1, 1), (1, 7), (9, 1), (5, 4), (16, 3), (3, 16)]
    for trial in range(24):
        n1, n2 = sizes[trial % len(sizes)]
        d_b, d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        m1, m2 = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        cfg = ft.TrainConfig(d=d, total_samples=0, dropout=0.2,
                             disc_hidden=int(rng.integers(1, 3)))
        model = ft.AlignmentModel.create(cfg, d_b, [m1, m2], rng)
        if dtype is np.float64:
            model = ft.AlignmentModel.from_dict(model.to_dict())
            for p in model.parameters():
                p += rng.uniform(-0.1, 0.1, size=p.shape)
        batch = ft.TrainBatch(
            h1=rng.standard_normal((n1, d_b)).astype(dtype),
            y1=rng.integers(0, m1, n1),
            h2=rng.standard_normal((n2, d_b)).astype(dtype),
            y2=rng.integers(0, m2, n2),
        )
        eps = float(rng.choice([0.0, 0.1]))
        for train_mode in (False, True):
            seed = int(rng.integers(1 << 30))
            got_g, got_l = ft.gradients(model, batch, eps, train_mode,
                                        np.random.default_rng(seed))
            ref_g, ref_l = _per_side_gradients(model, batch, eps, train_mode,
                                               np.random.default_rng(seed))
            assert set(got_l) == set(ref_l)
            for key, ref in ref_l.items():
                assert math.isclose(got_l[key], ref, rel_tol=1e-5, abs_tol=1e-12), key
            for role, ref in ref_g.items():
                assert [a.shape for a in got_g[role]] == [b.shape for b in ref]
                scale = max(float(np.abs(b).max()) for b in ref)
                err = max(float(np.abs(a - b).max()) for a, b in zip(got_g[role], ref))
                assert err <= 1e-5 * scale, (role, err / scale)


def _four_full_backward_gradients(model, batch, label_smoothing, train_mode, rng):
    """The step with every backward call computing all of its gradients,
    including the ones the step discards."""
    E1, E2 = model.output_embeddings
    n1 = len(batch.h1)
    h = np.concatenate([batch.h1, batch.h2], axis=0)
    z, gen_cache = fnn.forward(model.generator, h, train_mode=train_mode, rng=rng)
    z1, z2 = z[:n1], z[n1:]
    l_ce1, dlogits1 = fnn.softmax_cross_entropy(z1 @ E1, batch.y1, label_smoothing)
    l_ce2, dlogits2 = fnn.softmax_cross_entropy(z2 @ E2, batch.y2, label_smoothing)
    d_logit, disc_cache = fnn.forward(
        model.discriminator, z, train_mode=train_mode, rng=rng
    )
    t = np.concatenate([np.zeros(n1), np.ones(len(z2))])
    targets = t * (1.0 - label_smoothing) + label_smoothing / 2.0
    l_d, g_true = fnn.binary_cross_entropy(d_logit, targets)
    l_g, g_rev = fnn.binary_cross_entropy(d_logit, 1.0 - targets)
    dz_ce = np.concatenate([dlogits1 @ E1.T, dlogits2 @ E2.T], axis=0)
    g_gen, _ = fnn.backward(model.generator, gen_cache, dz_ce)
    joint = g_gen + [z1.T @ dlogits1, z2.T @ dlogits2]
    g_disc, _ = fnn.backward(model.discriminator, disc_cache, g_true)
    _, dz_adv = fnn.backward(model.discriminator, disc_cache, g_rev)
    adv, _ = fnn.backward(model.generator, gen_cache, dz_adv)
    losses = {"L_CE_1": l_ce1, "L_CE_2": l_ce2, "L_D": l_d, "L_G": l_g}
    return {"joint": joint, "disc": g_disc, "gen_adv": adv}, losses


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gradients_equal_the_full_backward_step_bitwise(dtype):
    rng = np.random.default_rng(20)
    uint = np.uint32 if dtype is np.float32 else np.uint64
    for trial in range(12):
        n1, n2 = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        d_b, d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        m1, m2 = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        cfg = ft.TrainConfig(d=d, total_samples=0, dropout=0.2,
                             disc_hidden=int(rng.integers(1, 3)))
        model = ft.AlignmentModel.create(cfg, d_b, [m1, m2], rng)
        if dtype is np.float64:
            model = ft.AlignmentModel.from_dict(model.to_dict())
            model.generator = to_f64(model.generator)
            model.discriminator = to_f64(model.discriminator)
            model.output_embeddings = [e.astype(dtype) for e in model.output_embeddings]
        batch = ft.TrainBatch(
            h1=rng.standard_normal((n1, d_b)).astype(dtype),
            y1=rng.integers(0, m1, n1),
            h2=rng.standard_normal((n2, d_b)).astype(dtype),
            y2=rng.integers(0, m2, n2),
        )
        eps = float(rng.choice([0.0, 0.1]))
        for train_mode in (False, True):
            seed = int(rng.integers(1 << 30))
            got_g, got_l = ft.gradients(model, batch, eps, train_mode,
                                        np.random.default_rng(seed))
            ref_g, ref_l = _four_full_backward_gradients(
                model, batch, eps, train_mode, np.random.default_rng(seed)
            )
            assert got_l == ref_l
            assert set(got_g) == set(ref_g)
            for role, ref in ref_g.items():
                for a, b in zip(got_g[role], ref, strict=True):
                    assert a.dtype == b.dtype == dtype and a.shape == b.shape
                    assert np.array_equal(a.view(uint), b.view(uint)), role


def test_one_step_makes_two_forward_and_four_backward_calls(monkeypatch):
    calls = {"forward": 0, "backward": 0}
    for name in calls:
        real = getattr(fnn, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(fnn, name, counted)
    model, batch, cfg = random_alignment_model(np.random.default_rng(19))
    ft.gradients(model, batch, cfg.label_smoothing, train_mode=True,
                 rng=np.random.default_rng(0))
    assert calls == {"forward": 2, "backward": 4}
