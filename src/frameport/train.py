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
no gradient ever reaches the provider. A run keeps every trained tensor
in one flat arena laid out so that each role is one slice (``_Arena``),
and each role's update is one whole-vector Adam step.

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
        if self.d < 1:
            raise ConfigError(f"need d >= 1, got {self.d}")
        if not 0.0 < self.peak_lr < float("inf"):
            raise ConfigError(f"need a finite peak_lr > 0, got {self.peak_lr}")
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"need checkpoint_every >= 0, got {self.checkpoint_every}"
            )

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
        """Generator | E1 | E2 | discriminator: the training arena's order."""
        return (
            self.generator.parameters()
            + list(self.output_embeddings)
            + self.discriminator.parameters()
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
    out: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
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

    The E1 and E2 gradients are written into ``out`` where it holds
    arrays (the arena's gradient buffer) instead of into new ones.
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
    joint_grads = g_gen + [
        np.matmul(z1.T, dlogits1, out=out[0]),
        np.matmul(z2.T, dlogits2, out=out[1]),
    ]

    g_disc, _ = nn.backward(model.discriminator, disc_cache, g_true, input_grad=False)

    _, dz_adv = nn.backward(model.discriminator, disc_cache, g_rev, param_grads=False)
    adv_grads, _ = nn.backward(model.generator, gen_cache, dz_adv, input_grad=False)

    return (
        {"joint": joint_grads, "disc": g_disc, "gen_adv": adv_grads},
        {"L_CE_1": l_ce1, "L_CE_2": l_ce2, "L_D": l_d, "L_G": l_g},
    )


def _tile(flat: np.ndarray, like: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Views of consecutive pieces of ``flat``, shaped like ``like``."""
    views = []
    start = 0
    for a in like:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return views


def _pack(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A flat copy of ``arrays`` in order, and a view of it per array."""
    flat = np.concatenate(arrays, axis=None)
    return flat, _tile(flat, arrays)


class _Arena(Optimizers):
    """The run's optimizers with the model bound to one parameter arena.

    Binding copies ``model.parameters()`` (generator | E1 | E2 |
    discriminator) into one flat buffer and rebinds the model's arrays to
    views of it, so that each role in ``_role_params`` is one slice: joint
    ``[0:g+e]``, gen_adv ``[0:g]`` and disc ``[g+e:]``. Each role's Adam
    moments are likewise copied into one flat pair, and its ``AdamState``
    keeps per-tensor views of them (the form a checkpoint stores). A step
    writes each role's gradient into one flat buffer, in the dtype the
    gradients have for the arena and the batch, and updates the role with
    one ``nn.adam_step`` over whole vectors, which applies the same
    operations to the same elements as one call per tensor.
    """

    def __init__(self, model: AlignmentModel, opt: Optimizers) -> None:
        super().__init__(opt.joint, opt.disc, opt.gen_adv)
        gen, disc = model.generator, model.discriminator
        params, views = _pack(model.parameters())
        gen_end = 2 * len(gen.weights)
        embeds_end = gen_end + len(model.output_embeddings)
        for mlp, mlp_views in ((gen, views[:gen_end]), (disc, views[embeds_end:])):
            mlp.weights[:], mlp.biases[:] = mlp_views[0::2], mlp_views[1::2]
        model.output_embeddings[:] = views[gen_end:embeds_end]
        offsets = np.cumsum([0] + [v.size for v in views])
        start = {id(view): int(offset) for view, offset in zip(views, offsets)}
        # role -> (parameter slice, flat first and second moments, the
        # role's parameters, which its gradient views are shaped like)
        self.roles = {}
        for role, role_params in _role_params(model).items():
            lo = start[id(role_params[0])]
            theta = params[lo : lo + sum(p.size for p in role_params)]
            state = getattr(self, role)
            m, state.m[:] = _pack(state.m)
            v, state.v[:] = _pack(state.v)
            self.roles[role] = (theta, m, v, role_params)

    def step(
        self,
        model: AlignmentModel,
        batch: TrainBatch,
        cfg: TrainConfig,
        lr: float,
        rng: np.random.Generator | None,
    ) -> dict[str, float]:
        # the gradient buffers live for one step: kept for the run, they
        # would also be resident through checkpoint selection, which sets
        # the peak memory
        flat, views = {}, {}
        for role, (theta, _, _, params) in self.roles.items():
            flat[role] = np.empty(theta.size, np.result_type(theta, batch.h1, batch.h2))
            views[role] = _tile(flat[role], params)
        # the joint role lists E1 and E2 last: their gradients are written
        # straight into its buffer and the smaller ones are copied in
        grads, step_losses = gradients(
            model, batch, cfg.label_smoothing, cfg.dropout > 0, rng,
            out=tuple(views["joint"][-2:]),
        )
        for role, (theta, m, v, _) in self.roles.items():
            for view, g in zip(views[role], grads[role]):
                if g is not view:
                    view[...] = g
            state = getattr(self, role)
            whole = replace(state, m=[m], v=[v])
            nn.adam_step([theta], [flat[role]], whole, lr)
            state.step = whole.step
        return step_losses


def train_step(
    model: AlignmentModel,
    batch: TrainBatch,
    opt: Optimizers,
    cfg: TrainConfig,
    lr: float,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """One step: gradients at the starting parameters, then the three
    role updates in order. ``train`` passes the arena it bound the model
    to; other optimizers are bound to a fresh arena for this step."""
    if not isinstance(opt, _Arena):
        opt = _Arena(model, opt)
    return opt.step(model, batch, cfg, lr, rng)


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
    """Mean cosine between output-embedding pairs the dictionary maps.

    Each pair's dot product and norms are single ``dot`` calls on float64
    copies of its two columns, and the cosines are summed left to right in
    pair order.
    """
    pairs = dictionary_pairs(dictionary)
    if not pairs:
        raise EmptyDictionaryError("dictionary induced no keyword pairs")
    idx1 = vocab_index(vocab1)
    idx2 = vocab_index(vocab2)
    E1, E2 = model.output_embeddings
    # row k of A and B is pair k's column, contiguous; a batch of (1, d) @
    # (d, 1) products runs numpy's vector dot once per row, the same call
    # as ``a @ b`` and ``np.linalg.norm`` on one pair
    A = E1.T[[idx1[src] for src, _ in pairs]].astype(np.float64)
    B = E2.T[[idx2[tgt] for _, tgt in pairs]].astype(np.float64)
    rows, cols = A[:, None, :], B[:, :, None]
    dots = np.matmul(rows, cols).ravel()
    denom = np.sqrt(np.matmul(rows, A[:, :, None]).ravel())
    denom *= np.sqrt(np.matmul(B[:, None, :], cols).ravel())
    cos = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    return float(np.cumsum(cos)[-1]) / len(pairs)


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
    arena = _Arena(model, opt)

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
        loss_rec = train_step(model, batch, arena, cfg, lr, rng=rng_drop)
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
