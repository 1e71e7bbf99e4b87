"""Adversarial alignment trainer: loss identities, per-role gradients
against finite differences, determinism, resume, and grid selection."""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from frameport import nn as fnn
from frameport import train as ft
from frameport.canon import CALLABLE, PARAMETER, ApiKeyword
from frameport.dictionary import KeywordDictionary, GroupEntry, ParamEntry
from frameport.errors import ConfigError, FrameportError
from frameport.keyword_dictionary import dictionary_pairs, vocab_index
from helpers import (
    binary_cross_entropy,
    check_model_gradients,
    random_alignment_model,
    to_f64,
)


def _toy_data(rng, n1=60, n2=50, d_b=8, m1=5, m2=6):
    H1 = rng.standard_normal((n1, d_b)).astype(np.float32)
    H2 = rng.standard_normal((n2, d_b)).astype(np.float32)
    y1 = rng.integers(0, m1, n1)
    y2 = rng.integers(0, m2, n2)
    return H1, y1, H2, y2


def _constant(model) -> float:
    """A selector that scores every snapshot the same."""
    return 0.0


def test_config_validation_and_steps():
    cfg = ft.TrainConfig(batch_size=64, total_samples=1000)
    assert cfg.total_steps == 15
    assert ft.TrainConfig(total_samples=0).total_steps == 0
    with pytest.raises(ConfigError):
        ft.TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        ft.TrainConfig(total_samples=-1)


def test_lr_schedule_warmup_and_decay():
    cfg = ft.TrainConfig(peak_lr=1e-3, batch_size=1, total_samples=100)
    assert cfg.lr_at(0) == 0.0
    assert math.isclose(cfg.lr_at(5), 1e-3 * 5 / 10, rel_tol=1e-15)
    assert math.isclose(cfg.lr_at(10), 1e-3, rel_tol=1e-15)
    assert math.isclose(cfg.lr_at(40), 1e-3 * math.sqrt(10 / 40), rel_tol=1e-12)
    assert math.isclose(cfg.lr_at(100), 1e-3 * math.sqrt(0.1), rel_tol=1e-12)
    # ten warmup steps: the peak is reached at step 10, not before
    assert cfg.lr_at(9) < cfg.lr_at(10) and cfg.lr_at(11) < cfg.lr_at(10)
    # warmup never collapses to zero steps
    short = ft.TrainConfig(peak_lr=1.0, batch_size=1, total_samples=3)
    assert short.lr_at(1) == 1.0
    assert math.isclose(short.lr_at(2), math.sqrt(1 / 2), rel_tol=1e-15)
    with pytest.raises(ConfigError):
        cfg.lr_at(-1)


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
    ref_d, _ = binary_cross_entropy(logits, t_s)
    ref_g, _ = binary_cross_entropy(logits, 1 - t_s)
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
    ft.train_step(model, batch, ft._bind(model), ft.Optimizers.init(model), cfg,
                  lr=1e-3, rng=np.random.default_rng(0))
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
    sampler = ft.BatchSampler(H1, y1, H2, y2, cfg.batch_size,
                              seed=np.random.SeedSequence(1))
    ft.train_step(model, sampler.next_batch(), ft._bind(model), opt, cfg, lr=0.0,
                  rng=np.random.default_rng(1))
    for p, s in zip(model.parameters(), snapshot):
        assert np.array_equal(p, s)


def test_training_is_bit_deterministic():
    rng = np.random.default_rng(8)
    H1, y1, H2, y2 = _toy_data(rng)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16 * 10, seed=11)
    a_records, b_records = [], []
    a = ft.train(H1, y1, H2, y2, cfg, on_record=a_records.append, vocab_sizes=(5, 6),
                 selector=_constant)
    b = ft.train(H1, y1, H2, y2, cfg, on_record=b_records.append, vocab_sizes=(5, 6),
                 selector=_constant)
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
    ft.train(H1, y1, H2, y2, cfg, on_record=records.append, vocab_sizes=(m1, m2),
             selector=_constant)
    last = [rec for rec in records if "lr" in rec][-1]
    assert last["L_CE_1"] < math.log(m1)
    assert last["L_CE_2"] < math.log(m2)


def test_stop_then_resume_equals_uninterrupted_run(tmp_path):
    rng = np.random.default_rng(10)
    H1, y1, H2, y2 = _toy_data(rng)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16 * 12,
                         checkpoint_every=4, seed=21)
    full = ft.train(H1, y1, H2, y2, cfg, vocab_sizes=(5, 6), selector=_constant)

    seen = {"n": 0}

    def count(rec):
        if "lr" in rec:
            seen["n"] += 1

    part = ft.train(H1, y1, H2, y2, cfg, on_record=count, vocab_sizes=(5, 6),
                    selector=_constant, stop=lambda: seen["n"] >= 5)
    assert part.state.step == 5
    path = tmp_path / "ck.json"
    ft.save_checkpoint(path, part.state)
    state = ft.load_checkpoint(path)
    resumed = ft.train(H1, y1, H2, y2, cfg, resume=state, vocab_sizes=(5, 6),
                       selector=_constant)
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


def test_resume_keeps_the_best_snapshot_of_the_steps_before_it(tmp_path):
    rng = np.random.default_rng(12)
    H1, y1, H2, y2 = _toy_data(rng)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16 * 8,
                         checkpoint_every=2, seed=4)
    scores = iter([0.9, 0.5, 0.4, 0.3])
    snaps = []

    def selector(model):
        snaps.append(copy.deepcopy(model))
        return next(scores)

    part = ft.train(H1, y1, H2, y2, cfg, selector=selector, vocab_sizes=(5, 6),
                    stop=lambda: len(snaps) >= 2)
    assert part.state.step == 4 and part.best_score == 0.9
    path = tmp_path / "ck.json"
    ft.save_checkpoint(path, part.state)
    state = ft.load_checkpoint(path)
    assert state.best_score == 0.9
    rest = ft.train(H1, y1, H2, y2, cfg, selector=selector, vocab_sizes=(5, 6),
                    resume=state)
    assert rest.state.step == 8
    assert [s for _, s in rest.checkpoint_scores] == [0.4, 0.3]
    assert rest.best_score == rest.state.best_score == 0.9
    for a, b in zip(rest.best_model.parameters(), snaps[0].parameters(), strict=True):
        assert np.array_equal(a, b)


def test_a_checkpoint_without_a_best_snapshot_loads_as_minus_inf(tmp_path):
    rng = np.random.default_rng(12)
    H1, y1, H2, y2 = _toy_data(rng)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16 * 4,
                         checkpoint_every=2, seed=4)
    part = ft.train(H1, y1, H2, y2, cfg, selector=lambda m: 0.9, vocab_sizes=(5, 6))
    path = tmp_path / "ck.json"
    ft.save_checkpoint(path, part.state)
    doc = json.loads(path.read_text())
    assert doc["best_score"] == 0.9
    del doc["best_score"], doc["best_model"]
    path.write_text(json.dumps(doc) + "\n")
    state = ft.load_checkpoint(path)
    assert state.best_model is None and state.best_score == -np.inf
    cfg = replace(cfg, total_samples=16 * 6)
    rest = ft.train(H1, y1, H2, y2, cfg, selector=lambda m: 0.1, vocab_sizes=(5, 6),
                    resume=state)
    assert rest.best_score == 0.1


def test_grid_search_tie_breaks_to_smaller_lr_then_batch():
    rng = np.random.default_rng(13)
    H1, y1, H2, y2 = _toy_data(rng)
    base = ft.TrainConfig(d=8, batch_size=16, total_samples=32, seed=6)
    cells = ft.grid_cells(base, [1e-3, 2e-4], [32, 16])
    result = ft.grid_search(H1, y1, H2, y2, cells, selector=lambda m: 1.0,
                            vocab_sizes=(5, 6))
    assert result.best.state.cfg.peak_lr == 2e-4
    assert result.best.state.cfg.batch_size == 16
    assert len(result.cells) == 4
    # cells iterate in ascending (lr, batch) order
    assert [(c.peak_lr, c.batch_size) for c in result.cells] == [
        (2e-4, 16), (2e-4, 32), (1e-3, 16), (1e-3, 32)
    ]
    assert result.best_cell is result.cells[0]
    with pytest.raises(ConfigError):
        ft.grid_cells(base, [], [16])


def test_grid_cells_orders_the_grid_and_checks_every_cell():
    base = ft.TrainConfig(d=8, seed=6, checkpoint_every=3)
    cells = ft.grid_cells(base, [1e-3, 2e-4, 5e-4], [256, 64])
    assert [(c.peak_lr, c.batch_size) for c in cells] == [
        (2e-4, 64), (2e-4, 256), (5e-4, 64), (5e-4, 256), (1e-3, 64), (1e-3, 256)
    ]
    # every other field is the base config's
    assert {replace(c, peak_lr=base.peak_lr, batch_size=base.batch_size)
            for c in cells} == {base}
    for lrs, sizes in (([], [64]), ([1e-3], []), ([], [])):
        with pytest.raises(ConfigError, match="empty hyperparameter grid"):
            ft.grid_cells(base, lrs, sizes)
    # an invalid cell fails when the grid is built, before any cell trains
    with pytest.raises(ConfigError, match="need a finite peak_lr > 0, got 0.0"):
        ft.grid_cells(base, [1e-3, 0.0], [64])
    with pytest.raises(ConfigError, match="batch_size >= 1"):
        ft.grid_cells(base, [1e-3], [64, 0])


def test_checkpoint_file_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    cfg = ft.TrainConfig(d=8, batch_size=4, total_samples=8, seed=9)
    model = ft.AlignmentModel.create(cfg, 6, [4, 5], rng)
    opt = ft.Optimizers.init(model)
    sampler = ft.BatchSampler(np.ones((3, 6), np.float32), np.zeros(3, int),
                              np.ones((3, 6), np.float32), np.zeros(3, int),
                              batch_size=4, seed=np.random.SeedSequence(1))
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
    a = ft.BatchSampler(H1, y1, H2, y2, 8, seed=np.random.SeedSequence(42))
    b = ft.BatchSampler(H1, y1, H2, y2, 8, seed=np.random.SeedSequence(42))
    first = a.next_batch()
    b.set_state(a.state())  # after syncing states the streams coincide
    x, y = a.next_batch(), b.next_batch()
    assert np.array_equal(x.h1, y.h1) and np.array_equal(x.h2, y.h2)
    # side-2 draws do not perturb side-1's stream
    fresh = ft.BatchSampler(H1, y1, H2, y2, 8, seed=np.random.SeedSequence(42))
    again = fresh.next_batch()
    assert np.array_equal(first.h1, again.h1)
    with pytest.raises(ConfigError):
        ft.BatchSampler(H1[:0], y1[:0], H2, y2, 8,
                        seed=np.random.SeedSequence(0))


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
    with pytest.raises(FrameportError, match=r"^dictionary induced no keyword pairs$"):
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
    l_d, g_true = binary_cross_entropy(d_logit, targets)
    l_g, g_rev = binary_cross_entropy(d_logit, 1.0 - targets)

    g_gen1, _ = fnn.backward(c1, dlogits1 @ E1.T)
    g_gen2, _ = fnn.backward(c2, dlogits2 @ E2.T)
    joint = [a + b for a, b in zip(g_gen1, g_gen2)] + [z1.T @ dlogits1, z2.T @ dlogits2]
    g_disc, _ = fnn.backward(dc, g_true)
    _, dz_adv = fnn.backward(dc, g_rev)
    n1 = len(z1)
    g_adv1, _ = fnn.backward(c1, dz_adv[:n1])
    g_adv2, _ = fnn.backward(c2, dz_adv[n1:])
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
    l_d, g_true = binary_cross_entropy(d_logit, targets)
    l_g, g_rev = binary_cross_entropy(d_logit, 1.0 - targets)
    dz_ce = np.concatenate([dlogits1 @ E1.T, dlogits2 @ E2.T], axis=0)
    g_gen, _ = fnn.backward(gen_cache, dz_ce)
    joint = g_gen + [z1.T @ dlogits1, z2.T @ dlogits2]
    g_disc, _ = fnn.backward(disc_cache, g_true)
    _, dz_adv = fnn.backward(disc_cache, g_rev)
    adv, _ = fnn.backward(gen_cache, dz_adv)
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


def _per_tensor_adam(params, grads, state, lr):
    """Adam over a list of tensors, one tensor at a time, each with its own
    moment arrays in ``state``, in ``nn.adam_step``'s order of operations."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v, strict=True):
        scratch = (1.0 - b1) * g
        m *= b1
        m += scratch
        np.square(g, out=scratch)
        scratch *= 1.0 - b2
        v *= b2
        v += scratch
        denom = v / (1.0 - b2**t)
        np.sqrt(denom, out=denom)
        denom += state.eps
        update = m / (1.0 - b1**t)
        update *= lr
        update /= denom
        p -= update.astype(p.dtype, copy=False)


def _per_tensor_train_step(model, batch, roles, opt, cfg, lr, rng=None, losses=True,
                           pool=None):
    """The step with one Adam update per tensor. On a run's first step each
    role's flat moments are replaced by per-tensor copies, which ``opt``
    keeps as lists from then on."""
    grads, step_losses = ft.gradients(
        model, batch, cfg.label_smoothing, train_mode=cfg.dropout > 0, rng=rng,
        losses=losses, pool=pool,
    )
    for role, params in ft._role_params(model).items():
        state = getattr(opt, role)
        if isinstance(state.m, np.ndarray):
            state.m = [a.copy() for a in ft._tile(state.m, params)]
            state.v = [a.copy() for a in ft._tile(state.v, params)]
        _per_tensor_adam(params, grads[role], state, lr)
    return step_losses


def _flat_opt(opt):
    """``opt`` with per-tensor moment lists joined into flat vectors."""
    return ft.Optimizers(**{
        role: replace(s, m=np.concatenate(s.m, axis=None),
                      v=np.concatenate(s.v, axis=None))
        if isinstance(s.m, list) else s
        for role, s in vars(opt).items()
    })


def _per_tensor_encoding(opt):
    """A checkpoint's optimizers section, encoded from per-tensor lists."""
    return {
        role: {"m": [fnn.encode_array(a) for a in s.m],
               "v": [fnn.encode_array(a) for a in s.v],
               "step": s.step, "beta1": s.beta1, "beta2": s.beta2, "eps": s.eps}
        for role, s in vars(opt).items()
    }


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _assert_same_run(got, ref, got_records, ref_records, tmp_path):
    """``got`` and ``ref`` ran the same bits; ``ref``'s moments may be the
    per-tensor lists of ``_per_tensor_train_step``."""
    assert got_records == ref_records
    assert got.checkpoint_scores == ref.checkpoint_scores
    assert got.state.step == ref.state.step
    pairs = [
        (got.state.model.parameters(), ref.state.model.parameters()),
        (got.best_model.parameters(), ref.best_model.parameters()),
    ]
    ref_opt = _flat_opt(ref.state.opt)
    for role in ("joint", "disc", "gen_adv"):
        a, b = getattr(got.state.opt, role), getattr(ref_opt, role)
        assert a.step == b.step
        pairs += [([a.m], [b.m]), ([a.v], [b.v])]
    for xs, ys in pairs:
        for x, y in zip(xs, ys, strict=True):
            assert x.dtype == y.dtype and np.array_equal(_bits(x), _bits(y))
    ft.save_checkpoint(tmp_path / "got.json", got.state)
    ft.save_checkpoint(tmp_path / "ref.json", replace(ref.state, opt=ref_opt))
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
    if isinstance(ref.state.opt.joint.m, list):
        # the flat moments are saved as the per-tensor arrays, byte for byte
        saved = json.loads((tmp_path / "got.json").read_text())["optimizers"]
        assert json.dumps(saved) == json.dumps(_per_tensor_encoding(ref.state.opt))


def test_arena_run_equals_the_per_tensor_step_bitwise(tmp_path, monkeypatch):
    rng = np.random.default_rng(24)
    H1, y1, H2, y2 = _toy_data(rng, m1=9, m2=7)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16 * 12, dropout=0.2,
                         checkpoint_every=4, seed=31, peak_lr=5e-2)
    arenas = []

    def selector(model):
        params = model.parameters()
        arena = params[0].base
        # every model tensor is a view of one buffer while the run trains
        assert arena is not None and arena.ndim == 1
        assert all(p.base is arena and np.shares_memory(p, arena) for p in params)
        arenas.append(arena)
        E1, E2 = model.output_embeddings
        return float(np.sum(E1, dtype=np.float64) - np.sum(E2, dtype=np.float64))

    def run(step, stop_at=None, resume=None):
        monkeypatch.setattr(ft, "train_step", step)
        records = []

        def stop():
            return stop_at is not None and sum("lr" in r for r in records) >= stop_at

        result = ft.train(H1, y1, H2, y2, cfg, vocab_sizes=(9, 7), selector=selector,
                          on_record=records.append, stop=stop, resume=resume)
        return result, records

    real_step = ft.train_step
    got, got_records = run(real_step)
    ref, ref_records = run(_per_tensor_train_step)
    assert got.state.step == 12 and len(got.checkpoint_scores) == 3
    _assert_same_run(got, ref, got_records, ref_records, tmp_path)
    # the best snapshot is a copy: it shares no memory with the arena
    arena = got.state.model.parameters()[0].base
    assert arena is arenas[0]
    for p in got.best_model.parameters():
        assert not np.shares_memory(p, arena)

    # stopped at step 5, saved, loaded and resumed to step 12
    resumed = []
    for step in (real_step, _per_tensor_train_step):
        part, records = run(step, stop_at=5)
        assert part.state.step == 5
        part.state.opt = _flat_opt(part.state.opt)
        ft.save_checkpoint(tmp_path / "part.json", part.state)
        state = ft.load_checkpoint(tmp_path / "part.json")
        rest, more = run(step, resume=state)
        resumed.append((rest, records + more))
    (got, got_records), (ref, ref_records) = resumed
    assert got.state.step == 12
    _assert_same_run(got, ref, got_records, ref_records, tmp_path)


def test_gradients_without_the_losses_keep_the_gradient_bits():
    rng = np.random.default_rng(25)
    f64_model, f64_batch, _ = random_alignment_model(rng)
    cfg = ft.TrainConfig(d=5, total_samples=0, dropout=0.2)
    f32_model = ft.AlignmentModel.create(cfg, 6, [7, 8], rng)
    f32_batch = ft.TrainBatch(f64_batch.h1.astype(np.float32), f64_batch.y1,
                              f64_batch.h2.astype(np.float32), f64_batch.y2)
    for model, batch in ((f32_model, f32_batch), (f64_model, f64_batch)):
        for train_mode in (False, True):
            got_g, got_l = ft.gradients(model, batch, 0.1, train_mode,
                                        np.random.default_rng(3), losses=False)
            ref_g, ref_l = ft.gradients(model, batch, 0.1, train_mode,
                                        np.random.default_rng(3))
            assert got_l == {} and set(ref_l) == {"L_CE_1", "L_CE_2", "L_D", "L_G"}
            for role, ref in ref_g.items():
                for a, b in zip(got_g[role], ref, strict=True):
                    assert a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b))


def test_a_run_without_on_record_equals_a_recorded_run_bitwise(tmp_path):
    rng = np.random.default_rng(26)
    H1, y1, H2, y2 = _toy_data(rng, m1=9, m2=7)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16 * 12, dropout=0.2,
                         checkpoint_every=4, seed=32, peak_lr=5e-2)

    def selector(model):
        E1, E2 = model.output_embeddings
        return float(np.sum(E1, dtype=np.float64) - np.sum(E2, dtype=np.float64))

    records = []
    recorded = ft.train(H1, y1, H2, y2, cfg, vocab_sizes=(9, 7), selector=selector,
                        on_record=records.append)
    assert sum("L_D" in r for r in records) == 12
    silent = ft.train(H1, y1, H2, y2, cfg, vocab_sizes=(9, 7), selector=selector)
    assert silent.best_score == recorded.best_score
    _assert_same_run(silent, recorded, [], [], tmp_path)


def _per_pair_avg_cosine_similarity(model, dictionary, vocab1, vocab2):
    """One float64 dot product and two norms per pair, summed in a loop."""
    pairs = dictionary_pairs(dictionary)
    idx1 = vocab_index(vocab1)
    idx2 = vocab_index(vocab2)
    E1, E2 = model.output_embeddings
    total = 0.0
    for src_key, tgt_key in pairs:
        a = E1[:, idx1[src_key]].astype(np.float64)
        b = E2[:, idx2[tgt_key]].astype(np.float64)
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        total += float(a @ b / denom) if denom > 0 else 0.0
    return total / len(pairs)


def test_avg_cosine_similarity_matches_the_per_pair_loop_bitwise():
    rng = np.random.default_rng(25)
    for trial in range(40):
        d = int(rng.choice([1, 2, 7, 32, 64, 65]))
        n1, n2 = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        v1 = [ApiKeyword("a", CALLABLE, f"f{i}").with_id(i) for i in range(n1)]
        v2 = [ApiKeyword("b", CALLABLE, f"g{i}").with_id(i) for i in range(n2)]
        p1 = [ApiKeyword("a", PARAMETER, "p", owner=f"f{i}").with_id(n1 + i)
              for i in range(n1)]
        p2 = [ApiKeyword("b", PARAMETER, "q", owner=f"g{i}").with_id(n2 + i)
              for i in range(n2)]
        scale = 10.0 ** rng.integers(-3, 4)
        E1 = (rng.standard_normal((d, 2 * n1)) * scale).astype(np.float32)
        E2 = (rng.standard_normal((d, 2 * n2)) * scale).astype(np.float32)
        E1[:, rng.integers(0, 2 * n1, 2)] = 0.0
        E2[:, rng.integers(0, 2 * n2, 2)] = 0.0
        model = ft.AlignmentModel.create(
            ft.TrainConfig(d=d, total_samples=0), 4, [2 * n1, 2 * n2], rng
        )
        model.output_embeddings[:] = [E1, E2]
        # a one-pair dictionary every fourth trial; otherwise targets repeat
        # across groups and a repeated parameter entry repeats a pair
        n_groups = 1 if trial % 4 == 0 else int(rng.integers(1, n1 + 1))
        renamed, dropped = ParamEntry("p", "q", 1.0), ParamEntry("p", None, 1.0)
        groups = []
        for i in rng.permutation(n1)[:n_groups]:
            params = () if trial % 4 == 0 else ((renamed, dropped, renamed),
                                               (renamed,), ())[int(rng.integers(0, 3))]
            groups.append(GroupEntry(f"f{i}", f"g{rng.integers(0, n2)}", 1.0, params))
        dictionary = KeywordDictionary("a", "b", 5.0, tuple(groups))
        got = ft.avg_cosine_similarity(model, dictionary, v1 + p1, v2 + p2)
        ref = _per_pair_avg_cosine_similarity(model, dictionary, v1 + p1, v2 + p2)
        assert type(got) is float
        assert np.float64(got).view(np.uint64) == np.float64(ref).view(np.uint64), trial


# -- the two-thread step -----------------------------------------------------

# keywords per side: a batch of 128 then has 128 x 256 = 32768 logits per
# side, the least that runs a step on two threads
_WIDE = 256


def _wide_data(rng, m=_WIDE):
    return _toy_data(rng, n1=600, n2=600, d_b=8, m1=m, m2=m)


_WIDE_CFG = ft.TrainConfig(d=8, batch_size=128, total_samples=128 * 24, dropout=0.2,
                           checkpoint_every=8, seed=41, peak_lr=5e-2)


def _embedding_sum(model) -> float:
    E1, E2 = model.output_embeddings
    return float(np.sum(E1, dtype=np.float64) - np.sum(E2, dtype=np.float64))


def _usable_cpus(monkeypatch, cpus) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def _side_threads(monkeypatch, worker_delay: float = 0.0) -> list[bool]:
    """For each ``_vocab_side`` call, whether it ran on the main thread.
    A call on another thread first sleeps ``worker_delay`` seconds."""
    on_main = []
    real = ft._vocab_side

    def side(*args):
        here = threading.current_thread() is threading.main_thread()
        on_main.append(here)
        if not here:
            time.sleep(worker_delay)
        return real(*args)

    monkeypatch.setattr(ft, "_vocab_side", side)
    return on_main


def test_a_wide_run_on_two_threads_equals_the_inline_run_bytewise(tmp_path, monkeypatch):
    H1, y1, H2, y2 = _wide_data(np.random.default_rng(40))
    _usable_cpus(monkeypatch, (0, 1))
    # side 2 ends after the main thread's other work, so a step that read
    # its rows before joining it would read unwritten memory
    on_main = _side_threads(monkeypatch, worker_delay=0.005)

    def run(path):
        records = []
        result = ft.train(H1, y1, H2, y2, _WIDE_CFG, vocab_sizes=(_WIDE, _WIDE),
                          selector=_embedding_sum, on_record=records.append)
        # the whole TrainState: model, optimizers, step, sampler and
        # dropout states, and the best snapshot
        ft.save_checkpoint(path, result.state)
        return path.read_bytes(), result.checkpoint_scores, records

    # frequent thread switches, to bring out a read that races a write
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = run(tmp_path / "threaded.json")
    finally:
        sys.setswitchinterval(interval)
    # side 1 ran here and side 2 on the worker, at each of the 24 steps
    assert (on_main.count(True), on_main.count(False)) == (24, 24)
    on_main.clear()
    monkeypatch.setattr(ft, "_THREADED_STEP_MIN_LOGITS", 128 * _WIDE + 1)
    inline = run(tmp_path / "inline.json")
    assert on_main == [True] * 48
    assert len(threaded[1]) == 3 and sum("lr" in r for r in threaded[2]) == 24
    assert threaded == inline


def test_the_step_thread_calls_no_function_the_benchmark_traces(monkeypatch):
    # bench/spans.Tracer keeps one span stack, which a traced call on the
    # worker thread would corrupt
    H1, y1, H2, y2 = _wide_data(np.random.default_rng(41))
    _usable_cpus(monkeypatch, (0, 1))
    on_main = _side_threads(monkeypatch)
    off_main = []
    for owner, name in ((fnn, "forward"), (fnn, "backward"), (fnn, "adam_step"),
                        (ft, "train_step")):
        real = getattr(owner, name)

        def traced(*args, _name=name, _real=real, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, traced)
    cfg = replace(_WIDE_CFG, total_samples=128 * 6)
    ft.train(H1, y1, H2, y2, cfg, vocab_sizes=(_WIDE, _WIDE), selector=_embedding_sum)
    assert on_main.count(False) == 6
    assert off_main == []


@pytest.mark.parametrize("m, cpus", [(_WIDE - 1, (0, 1)), (_WIDE, (0,))])
def test_a_narrow_or_one_cpu_run_starts_no_thread(m, cpus, monkeypatch):
    H1, y1, H2, y2 = _wide_data(np.random.default_rng(42), m=m)
    _usable_cpus(monkeypatch, cpus)
    on_main = _side_threads(monkeypatch)
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    cfg = replace(_WIDE_CFG, total_samples=128 * 4)
    ft.train(H1, y1, H2, y2, cfg, vocab_sizes=(m, m), selector=_embedding_sum)
    assert on_main == [True] * 8
    assert started == []


def test_importing_train_and_a_narrow_run_load_no_thread_pool():
    code = """
import sys
import numpy as np
from frameport import train as ft
assert "concurrent.futures" not in sys.modules
rng = np.random.default_rng(0)
H, y = rng.standard_normal((50, 4)).astype(np.float32), rng.integers(0, 30, 50)
cfg = ft.TrainConfig(d=4, batch_size=128, total_samples=128 * 2)
ft.train(H, y, H, y, cfg, vocab_sizes=(30, 30), selector=lambda model: 0.0)
assert "concurrent.futures" not in sys.modules
"""
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_an_error_on_side_2_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    H1, y1, H2, y2 = _wide_data(np.random.default_rng(43))
    y2 = np.full_like(y2, _WIDE)  # no side-2 label is in the vocabulary
    _usable_cpus(monkeypatch, (0, 1))
    on_main = _side_threads(monkeypatch)
    errors = []
    for gate in (ft._THREADED_STEP_MIN_LOGITS, 128 * _WIDE + 1):
        monkeypatch.setattr(ft, "_THREADED_STEP_MIN_LOGITS", gate)
        with pytest.raises(FrameportError) as info:
            ft.train(H1, y1, H2, y2, _WIDE_CFG, vocab_sizes=(_WIDE, _WIDE),
                     selector=_embedding_sum)
        errors.append((type(info.value), str(info.value)))
        assert not any(t.name.startswith("frameport-step") for t in threading.enumerate())
    assert errors == [(FrameportError, f"labels must lie in [0, {_WIDE})")] * 2
    # the two-thread run failed on the worker, at its first step; the
    # inline run failed after side 1, on this thread
    assert sorted(on_main[:2]) == [False, True] and on_main[2:] == [True, True]


@pytest.mark.parametrize("failing", ["side 1", "side 2"])
def test_gradients_raise_only_after_side_2_stops_writing(failing, monkeypatch):
    model, batch, _ = random_alignment_model(np.random.default_rng(44))
    real = ft._vocab_side
    side_2_done = threading.Event()

    def side(*args):
        if threading.current_thread() is threading.main_thread():
            if failing == "side 1":
                raise FrameportError("side 1 failed")
            return real(*args)
        time.sleep(0.2)
        if failing == "side 2":
            raise FrameportError("side 2 failed")
        result = real(*args)
        side_2_done.set()
        return result

    monkeypatch.setattr(ft, "_vocab_side", side)
    with ThreadPoolExecutor(max_workers=1) as pool:
        with pytest.raises(FrameportError, match=f"^{failing} failed$"):
            ft.gradients(model, batch, 0.1, train_mode=True,
                         rng=np.random.default_rng(0), pool=pool)
        # side 1's error left only after side 2 had written its last result
        assert side_2_done.is_set() == (failing == "side 1")


def test_train_config_rejects_a_negative_seed(tmp_path):
    with pytest.raises(ConfigError, match=r"^need seed >= 0, got -1$"):
        ft.TrainConfig(seed=-1)
    rng = np.random.default_rng(45)
    H1, y1, H2, y2 = _toy_data(rng)
    cfg = ft.TrainConfig(d=8, batch_size=16, total_samples=16)
    result = ft.train(H1, y1, H2, y2, cfg, vocab_sizes=(5, 6), selector=_constant)
    path = tmp_path / "ck.json"
    ft.save_checkpoint(path, result.state)
    doc = json.loads(path.read_text())
    doc["config"]["seed"] = -1
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as info:
        ft.load_checkpoint(path)
    assert str(info.value) == f"cannot load checkpoint {path}: need seed >= 0, got -1"
