"""Domain-adversarial alignment of keyword embeddings.

Each training step draws one independent batch per framework, stacks
the two (side 1 first) into one generator batch, runs a single forward
pass that yields all four losses, then applies three in-order parameter
updates from gradients taken at the step's starting point:

1. generator + both output-embedding matrices, on L_CE_1 + L_CE_2;
2. discriminator, on L_D (hidden states treated as constants);
3. generator again, on L_G (the reversed-label loss), through the
   discriminator as it stood during the forward pass.

The three roles keep separate Adam states because the two generator
losses run at different scales. Contextual embeddings are inputs only;
no gradient ever reaches the provider.

A run is one ``TrainState``: model, optimizers, step, config, and the
sampler and dropout generator states. ``train`` resumes from one and
returns one (with the best snapshot under the selection criterion), and
``save_checkpoint``/``load_checkpoint`` write and read it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from frameport import nn
from frameport.atomic import write_text_atomic
from frameport.canon import ApiKeyword
from frameport.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyDictionaryError,
    reading,
)
from frameport.keyword_dictionary import (
    KeywordDictionary,
    dictionary_pairs,
    vocab_index,
)

LR_GRID = (2e-4, 5e-4, 1e-3)
BATCH_GRID = (64, 128, 256)
DEFAULT_TOTAL_SAMPLES = 1_536_000


@dataclass(frozen=True)
class TrainConfig:
    d: int = 64
    peak_lr: float = 1e-3
    batch_size: int = 128
    total_samples: int = DEFAULT_TOTAL_SAMPLES
    warmup_fraction: float = 0.10
    label_smoothing: float = 0.1
    dropout: float = 0.1
    leaky_slope: float = 0.01
    gen_hidden: int = 1
    disc_hidden: int = 2
    seed: int = 10
    checkpoint_every: int = 500

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.total_samples < 0:
            raise ConfigError("need batch_size >= 1 and total_samples >= 0")

    @property
    def total_steps(self) -> int:
        return self.total_samples // self.batch_size

    @property
    def schedule(self) -> nn.LrSchedule:
        return nn.LrSchedule(
            peak_lr=self.peak_lr,
            total_steps=self.total_steps,
            warmup_fraction=self.warmup_fraction,
        )


@dataclass
class AlignmentModel:
    """Generator, discriminator, and per-framework output embeddings.

    output_embeddings[l] has shape (d, m_l); column i is keyword i's
    vector, and hidden-state logits are z @ E.
    """

    generator: nn.Mlp
    discriminator: nn.Mlp
    output_embeddings: list[np.ndarray]

    def __post_init__(self) -> None:
        d = self.generator.dims[-1]
        if self.discriminator.dims[0] != d or self.discriminator.dims[-1] != 1:
            raise DimensionMismatch(
                f"discriminator dims {self.discriminator.dims} do not accept d={d}"
            )
        for E in self.output_embeddings:
            if E.ndim != 2 or E.shape[0] != d:
                raise DimensionMismatch(f"output embedding shape {E.shape}, d={d}")

    @classmethod
    def create(
        cls,
        cfg: TrainConfig,
        d_b: int,
        vocab_sizes: Sequence[int],
        rng: np.random.Generator,
    ) -> "AlignmentModel":
        gen = nn.Mlp.create(
            [d_b] + [cfg.d] * cfg.gen_hidden + [cfg.d],
            activation=nn.RELU,
            dropout=cfg.dropout,
            rng=rng,
        )
        disc = nn.Mlp.create(
            [cfg.d] * (cfg.disc_hidden + 1) + [1],
            activation=nn.LEAKY_RELU,
            leaky_slope=cfg.leaky_slope,
            dropout=cfg.dropout,
            rng=rng,
        )
        embeds = [
            (rng.standard_normal((cfg.d, m)) / np.sqrt(cfg.d)).astype(np.float32)
            for m in vocab_sizes
        ]
        return cls(generator=gen, discriminator=disc, output_embeddings=embeds)

    def parameters(self) -> list[np.ndarray]:
        return (
            self.generator.parameters()
            + self.discriminator.parameters()
            + list(self.output_embeddings)
        )

    def to_dict(self) -> dict:
        return {
            "generator": self.generator.to_dict(),
            "discriminator": self.discriminator.to_dict(),
            "output_embeddings": [nn.encode_array(E) for E in self.output_embeddings],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AlignmentModel":
        return cls(
            generator=nn.Mlp.from_dict(doc["generator"]),
            discriminator=nn.Mlp.from_dict(doc["discriminator"]),
            output_embeddings=[
                nn.decode_array(E) for E in doc["output_embeddings"]
            ],
        )


@dataclass(frozen=True)
class TrainBatch:
    """One independently sampled batch per framework."""

    h1: np.ndarray
    y1: np.ndarray
    h2: np.ndarray
    y2: np.ndarray

    def __post_init__(self) -> None:
        if self.h1.ndim != 2 or self.h2.ndim != 2:
            raise DimensionMismatch("batch embeddings must be 2-d")
        if len(self.y1) != len(self.h1) or len(self.y2) != len(self.h2):
            raise DimensionMismatch("labels do not match embeddings")


def _role_params(model: AlignmentModel) -> dict[str, list[np.ndarray]]:
    """The parameters each optimizer role updates, in update order."""
    return {
        "joint": model.generator.parameters() + list(model.output_embeddings),
        "disc": model.discriminator.parameters(),
        "gen_adv": model.generator.parameters(),
    }


@dataclass
class Optimizers:
    joint: nn.AdamState
    disc: nn.AdamState
    gen_adv: nn.AdamState

    @classmethod
    def init(cls, model: AlignmentModel) -> "Optimizers":
        return cls(
            **{role: nn.AdamState.init(p) for role, p in _role_params(model).items()}
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).to_dict() for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "Optimizers":
        return cls(
            **{f.name: nn.AdamState.from_dict(doc[f.name]) for f in fields(cls)}
        )


def _smoothed_targets(n1: int, n2: int, smoothing: float) -> np.ndarray:
    t = np.concatenate([np.zeros(n1), np.ones(n2)])
    return t * (1.0 - smoothing) + smoothing / 2.0


def gradients(
    model: AlignmentModel,
    batch: TrainBatch,
    label_smoothing: float = 0.0,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[dict[str, list[np.ndarray]], dict[str, float]]:
    """Per-role gradients and all four losses from one shared forward pass.

    Both sides go through the generator as one stacked batch, side 1
    first, so each generator pass (forward, CE backward, adversarial
    backward) runs once per step. No backward pass computes a gradient
    the step discards: neither generator pass nor the true-label
    discriminator pass yields an input gradient, and the reversed-label
    discriminator pass yields only the gradient for the hidden states.

    joint: d(L_CE_1 + L_CE_2) over generator params then E1, E2;
    disc: dL_D over discriminator params (hidden states constant);
    gen_adv: dL_G over generator params, through the forward-time
    discriminator.
    """
    E1, E2 = model.output_embeddings
    n1, n2 = len(batch.h1), len(batch.h2)
    h = np.concatenate([batch.h1, batch.h2], axis=0)
    z, gen_cache = nn.forward(model.generator, h, train_mode=train_mode, rng=rng)
    z1, z2 = z[:n1], z[n1:]
    l_ce1, dlogits1 = nn.softmax_cross_entropy(z1 @ E1, batch.y1, label_smoothing)
    l_ce2, dlogits2 = nn.softmax_cross_entropy(z2 @ E2, batch.y2, label_smoothing)
    d_logit, disc_cache = nn.forward(
        model.discriminator, z, train_mode=train_mode, rng=rng
    )
    targets = _smoothed_targets(n1, n2, label_smoothing)
    l_d, g_true = nn.binary_cross_entropy(d_logit, targets)
    l_g, g_rev = nn.binary_cross_entropy(d_logit, 1.0 - targets)

    dz_ce = np.concatenate([dlogits1 @ E1.T, dlogits2 @ E2.T], axis=0)
    g_gen, _ = nn.backward(model.generator, gen_cache, dz_ce, input_grad=False)
    joint_grads = g_gen + [z1.T @ dlogits1, z2.T @ dlogits2]

    g_disc, _ = nn.backward(model.discriminator, disc_cache, g_true, input_grad=False)

    _, dz_adv = nn.backward(model.discriminator, disc_cache, g_rev, param_grads=False)
    adv_grads, _ = nn.backward(model.generator, gen_cache, dz_adv, input_grad=False)

    return (
        {"joint": joint_grads, "disc": g_disc, "gen_adv": adv_grads},
        {"L_CE_1": l_ce1, "L_CE_2": l_ce2, "L_D": l_d, "L_G": l_g},
    )


def train_step(
    model: AlignmentModel,
    batch: TrainBatch,
    opt: Optimizers,
    cfg: TrainConfig,
    lr: float,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """One step: gradients at the starting parameters, then the three
    role updates in order."""
    grads, step_losses = gradients(
        model, batch, cfg.label_smoothing, train_mode=cfg.dropout > 0, rng=rng
    )
    for role, params in _role_params(model).items():
        nn.adam_step(params, grads[role], getattr(opt, role), lr)
    return step_losses


class BatchSampler:
    """Uniform with-replacement sampling, one independent stream per side."""

    def __init__(
        self,
        H1: np.ndarray,
        y1: np.ndarray,
        H2: np.ndarray,
        y2: np.ndarray,
        batch_size: int,
        seed: int | np.random.SeedSequence = 0,
    ):
        if len(H1) == 0 or len(H2) == 0:
            raise ConfigError("cannot sample from an empty corpus side")
        self.H1, self.y1, self.H2, self.y2 = H1, y1, H2, y2
        self.batch_size = batch_size
        ss = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        c1, c2 = ss.spawn(2)
        self._rng1 = np.random.default_rng(c1)
        self._rng2 = np.random.default_rng(c2)

    def next_batch(self) -> TrainBatch:
        i1 = self._rng1.integers(0, len(self.H1), size=self.batch_size)
        i2 = self._rng2.integers(0, len(self.H2), size=self.batch_size)
        return TrainBatch(
            h1=self.H1[i1], y1=self.y1[i1], h2=self.H2[i2], y2=self.y2[i2]
        )

    def state(self) -> dict:
        return {
            "rng1": self._rng1.bit_generator.state,
            "rng2": self._rng2.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        self._rng1.bit_generator.state = state["rng1"]
        self._rng2.bit_generator.state = state["rng2"]


def avg_cosine_similarity(
    model: AlignmentModel,
    dictionary: KeywordDictionary,
    vocab1: Sequence[ApiKeyword],
    vocab2: Sequence[ApiKeyword],
) -> float:
    """Mean cosine between output-embedding pairs the dictionary maps."""
    pairs = dictionary_pairs(dictionary)
    if not pairs:
        raise EmptyDictionaryError("dictionary induced no keyword pairs")
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


@dataclass
class TrainState:
    """One training run, as a checkpoint file holds it and ``train``
    resumes from it. Snapshots (the best model, a grid winner) carry
    fresh optimizers and no sampler or dropout state."""

    model: AlignmentModel
    opt: Optimizers
    step: int
    cfg: TrainConfig
    sampler_state: dict = field(default_factory=dict)
    dropout_state: dict = field(default_factory=dict)


@dataclass
class TrainResult:
    state: TrainState
    best_model: AlignmentModel
    best_score: float
    checkpoint_scores: list[tuple[int, float]]


def train(
    H1: np.ndarray,
    y1: np.ndarray,
    H2: np.ndarray,
    y2: np.ndarray,
    cfg: TrainConfig,
    vocab_sizes: tuple[int, int],
    selector: Callable[[AlignmentModel], float] | None = None,
    on_record: Callable[[dict], None] | None = None,
    resume: TrainState | None = None,
    stop: Callable[[], bool] | None = None,
) -> TrainResult:
    """Full training loop with checkpoint-time model selection.

    ``vocab_sizes`` gives the keyword count of each side, the widths of
    the output embeddings. ``selector`` scores a model snapshot (typically
    average cosine similarity of the dictionary it induces); the
    best-scoring snapshot is kept alongside the final state. Each step's losses and each
    checkpoint's score go to ``on_record``. ``resume`` continues a saved
    ``TrainState`` under ``cfg``. ``stop`` is polled before each step so
    callers can end training early at a step boundary and still get a
    consistent, resumable state. The loop is single-threaded and
    bit-reproducible for a given config.
    """
    d_b = H1.shape[1]
    if H2.shape[1] != d_b:
        raise DimensionMismatch("both sides must share the provider dimension d_b")
    s_batch, s_drop, s_init = np.random.SeedSequence(cfg.seed).spawn(3)
    sampler = BatchSampler(H1, y1, H2, y2, cfg.batch_size, seed=s_batch)
    rng_drop = np.random.default_rng(s_drop)
    if resume is not None:
        model, opt, start_step = resume.model, resume.opt, resume.step
        sampler.set_state(resume.sampler_state)
        rng_drop.bit_generator.state = resume.dropout_state
    else:
        model = AlignmentModel.create(
            cfg, d_b, vocab_sizes, np.random.default_rng(s_init)
        )
        opt = Optimizers.init(model)
        start_step = 0

    schedule = cfg.schedule
    checkpoint_scores: list[tuple[int, float]] = []
    best_model = copy.deepcopy(model)
    best_score = -np.inf

    def checkpoint(step: int) -> None:
        nonlocal best_model, best_score
        if selector is None:
            return
        score = selector(model)
        checkpoint_scores.append((step, score))
        if on_record:
            on_record({"step": step, "avg_cos_sim": score})
        if score > best_score:
            best_score = score
            best_model = copy.deepcopy(model)

    step = start_step
    for next_step in range(start_step + 1, schedule.total_steps + 1):
        if stop is not None and stop():
            break
        step = next_step
        batch = sampler.next_batch()
        lr = schedule.lr_at(step)
        loss_rec = train_step(model, batch, opt, cfg, lr, rng=rng_drop)
        if on_record:
            on_record({"step": step, "lr": lr, **loss_rec})
        if cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
            checkpoint(step)
    if (
        not cfg.checkpoint_every
        or step % cfg.checkpoint_every != 0
        or not checkpoint_scores
    ):
        checkpoint(step)
    if selector is None:
        best_model = model
        best_score = float("nan")
    state = TrainState(
        model, opt, step, cfg, sampler.state(), rng_drop.bit_generator.state
    )
    return TrainResult(state, best_model, best_score, checkpoint_scores)


@dataclass
class GridCell:
    peak_lr: float
    batch_size: int
    score: float


@dataclass
class GridResult:
    best_cfg: TrainConfig
    best_model: AlignmentModel
    best_score: float
    cells: list[GridCell]


def grid_search(
    H1: np.ndarray,
    y1: np.ndarray,
    H2: np.ndarray,
    y2: np.ndarray,
    base_cfg: TrainConfig,
    selector: Callable[[AlignmentModel], float],
    vocab_sizes: tuple[int, int],
    lrs: Sequence[float] = LR_GRID,
    batch_sizes: Sequence[int] = BATCH_GRID,
    on_cell: Callable[[GridCell], None] | None = None,
) -> GridResult:
    """Train every (lr, N) cell; pick the best unsupervised-criterion score.

    Cells iterate in ascending (lr, N) order and the argmax keeps only
    strictly larger scores, so ties resolve to smaller lr, then smaller N.
    """
    if not lrs or not batch_sizes:
        raise ConfigError("empty hyperparameter grid")
    cells: list[GridCell] = []
    best: tuple[float, TrainConfig, AlignmentModel] | None = None
    for lr in sorted(lrs):
        for n in sorted(batch_sizes):
            cfg = replace(base_cfg, peak_lr=lr, batch_size=n)
            result = train(H1, y1, H2, y2, cfg, vocab_sizes, selector=selector)
            cell = GridCell(peak_lr=lr, batch_size=n, score=result.best_score)
            cells.append(cell)
            if on_cell:
                on_cell(cell)
            if best is None or result.best_score > best[0]:
                best = (result.best_score, cfg, result.best_model)
    assert best is not None
    return GridResult(
        best_cfg=best[1], best_model=best[2], best_score=best[0], cells=cells
    )


def save_checkpoint(path: str | Path, state: TrainState) -> None:
    doc = {
        "version": 1,
        "step": state.step,
        "config": asdict(state.cfg),
        "model": state.model.to_dict(),
        "optimizers": state.opt.to_dict(),
        "sampler_state": state.sampler_state,
        "dropout_state": state.dropout_state,
    }
    write_text_atomic(path, json.dumps(doc) + "\n")


def load_checkpoint(path: str | Path) -> TrainState:
    with reading("checkpoint", path) as text:
        doc = json.loads(text)
        if doc.get("version") != 1:
            raise ConfigError(f"{path}: unsupported checkpoint version")
        return TrainState(
            model=AlignmentModel.from_dict(doc["model"]),
            opt=Optimizers.from_dict(doc["optimizers"]),
            step=int(doc["step"]),
            cfg=TrainConfig(**doc["config"]),
            sampler_state=doc["sampler_state"],
            dropout_state=doc["dropout_state"],
        )
