"""Domain-adversarial alignment of keyword embeddings.

Each training step draws one independent batch per framework, stacks
the two (side 1 first) into one generator batch, runs a single forward
pass that yields the gradients of all four losses (and the losses
themselves only when a caller records them), then applies three
in-order parameter updates from gradients taken at the step's starting
point:

1. generator + both output-embedding matrices, on L_CE_1 + L_CE_2;
2. discriminator, on L_D (hidden states treated as constants);
3. generator again, on L_G (the reversed-label loss), through the
   discriminator as it stood during the forward pass.

The three roles keep separate Adam states because the two generator
losses run at different scales. Contextual embeddings are inputs only;
no gradient ever reaches the provider. A run keeps every trained tensor
in one flat arena laid out so that each role is one slice (``_bind``),
and each role's update is one whole-vector Adam step on the role's flat
moments. In a run with wide vocabularies, each step runs side 2's
vocabulary-wide products and cross entropy on a second thread; training
is bit-reproducible on one or two threads.

A run is one ``TrainState``: model, optimizers, step, config, the
sampler and dropout generator states, and the best snapshot under the
selection criterion with its score. ``train`` resumes from one and
returns one, and ``save_checkpoint``/``load_checkpoint`` write and read
it.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from frameport import nn
from frameport.atomic import write_text_atomic
from frameport.canon import ApiKeyword
from frameport.errors import ConfigError, FrameportError, reading
from frameport.keyword_dictionary import (
    KeywordDictionary,
    dictionary_pairs,
    vocab_index,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

LR_GRID = (2e-4, 5e-4, 1e-3)
BATCH_GRID = (64, 128, 256)
DEFAULT_TOTAL_SAMPLES = 1_536_000
# A run steps on two threads (see ``gradients``) only when each side's
# logits block, batch_size x vocabulary width, holds at least this many
# entries. Measured at batch 128, d 64 and d_b 32 on a 2-core x86_64 VM
# with one BLAS thread, the threaded step took 21% longer at width 40 and
# 7% longer at 150, where two threads of small numpy calls contend for the
# interpreter lock, about as long at 256, and 12% to 17% less at 750.
# PyTorch's intra-op grain size, the work below which it does not split a
# loop across threads, is the same 32768 elements.
_THREADED_STEP_MIN_LOGITS = 32768


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
        if self.seed < 0:
            raise ConfigError(f"need seed >= 0, got {self.seed}")

    @property
    def total_steps(self) -> int:
        return self.total_samples // self.batch_size

    def lr_at(self, step: int) -> float:
        """Linear warmup to the peak, then inverse square-root decay."""
        if step < 0:
            raise ConfigError("negative step")
        w = max(1, round(self.total_steps * self.warmup_fraction))
        if step <= w:
            return self.peak_lr * step / w
        return self.peak_lr * float(np.sqrt(w / step))


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
            raise FrameportError(
                f"discriminator dims {self.discriminator.dims} do not accept d={d}"
            )
        for E in self.output_embeddings:
            if E.ndim != 2 or E.shape[0] != d:
                raise FrameportError(f"output embedding shape {E.shape}, d={d}")

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
            raise FrameportError("batch embeddings must be 2-d")
        if len(self.y1) != len(self.h1) or len(self.y2) != len(self.h2):
            raise FrameportError("labels do not match embeddings")


def _role_params(model: AlignmentModel) -> dict[str, list[np.ndarray]]:
    """The parameters each optimizer role updates, in update order."""
    return {
        "joint": model.generator.parameters() + list(model.output_embeddings),
        "disc": model.discriminator.parameters(),
        "gen_adv": model.generator.parameters(),
    }


@dataclass
class Optimizers:
    """One Adam state per role, over the role's parameters as one vector.

    A checkpoint stores each role's moments split into per-tensor arrays
    shaped like the role's parameters in ``model``.
    """

    joint: nn.AdamState
    disc: nn.AdamState
    gen_adv: nn.AdamState

    @classmethod
    def init(cls, model: AlignmentModel) -> "Optimizers":
        return cls(**{
            role: nn.AdamState.init(np.concatenate(params, axis=None))
            for role, params in _role_params(model).items()
        })

    def to_dict(self, model: AlignmentModel) -> dict:
        doc = {}
        for role, like in _role_params(model).items():
            state = getattr(self, role)
            split = {
                k: [nn.encode_array(a) for a in _tile(getattr(state, k), like)]
                for k in ("m", "v")
            }
            doc[role] = {**vars(state), **split}
        return doc

    @classmethod
    def from_dict(cls, doc: dict, model: AlignmentModel) -> "Optimizers":
        def state(role: str, like: list[np.ndarray]) -> nn.AdamState:
            d = doc[role]
            flat = []
            for k in ("m", "v"):
                arrays = [nn.decode_array(a) for a in d[k]]
                if [a.shape for a in arrays] != [a.shape for a in like]:
                    raise FrameportError(
                        f"optimizer {role} {k} does not match the model's parameter shapes"
                    )
                flat.append(np.concatenate(arrays, axis=None))
            step = int(d["step"])
            if step < 0:
                raise FrameportError(f"optimizer {role} has negative step {step}")
            return nn.AdamState(*flat, step, d["beta1"], d["beta2"], d["eps"])

        return cls(**{role: state(role, like) for role, like in _role_params(model).items()})


def _smoothed_targets(n1: int, n2: int, smoothing: float) -> np.ndarray:
    t = np.concatenate([np.zeros(n1), np.ones(n2)])
    return t * (1.0 - smoothing) + smoothing / 2.0


def _vocab_side(
    z: np.ndarray,
    E: np.ndarray,
    y: np.ndarray,
    label_smoothing: float,
    losses: bool,
    dz: np.ndarray,
    dE: np.ndarray | None,
) -> tuple[float | None, np.ndarray]:
    """One side's vocabulary-wide work: logits ``z @ E``, the smoothed cross
    entropy, its gradient for ``z`` written into ``dz`` and its gradient
    for ``E``, written into ``dE`` where that is an array. Returns the loss
    (None with ``losses=False``) and the ``E`` gradient.

    It may run on a worker thread, so it calls nothing but numpy and
    ``nn.softmax_cross_entropy``, and writes only into ``dz`` and ``dE``.
    """
    loss, dlogits = nn.softmax_cross_entropy(z @ E, y, label_smoothing, loss=losses)
    np.matmul(dlogits, E.T, out=dz)
    return loss, np.matmul(z.T, dlogits, out=dE)


def gradients(
    model: AlignmentModel,
    batch: TrainBatch,
    label_smoothing: float = 0.0,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    out: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
    losses: bool = True,
    pool: Executor | None = None,
) -> tuple[dict[str, list[np.ndarray]], dict[str, float]]:
    """Per-role gradients, and the four losses, from one shared forward pass.

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
    ``losses=False`` skips the operations only the losses need and
    returns ``{}`` for them; the gradients are the same, bit for bit.

    With a ``pool``, side 2's vocabulary-wide work (``_vocab_side``) runs
    on one of its threads while this one runs side 1's, the discriminator
    passes and the BCE; without one it runs here, after side 1's. Each
    side does the same operations on its own rows either way, and the
    dropout draws stay on this thread in one order, so the results are the
    same, bit for bit. Nothing returns or raises before side 2 has stopped
    writing, and an error on side 2 is raised here.
    """
    E1, E2 = model.output_embeddings
    n1, n2 = len(batch.h1), len(batch.h2)
    h = np.concatenate([batch.h1, batch.h2], axis=0)
    z, gen_cache = nn.forward(model.generator, h, train_mode=train_mode, rng=rng)
    z1, z2 = z[:n1], z[n1:]
    # the dtype of the logits' gradient, and so of its product with E1.T
    dz_ce = np.empty((n1 + n2, E1.shape[0]), np.result_type(z, E1))
    side2 = (z2, E2, batch.y2, label_smoothing, losses, dz_ce[n1:], out[1])
    future = None if pool is None else pool.submit(_vocab_side, *side2)
    try:
        l_ce1, g_E1 = _vocab_side(
            z1, E1, batch.y1, label_smoothing, losses, dz_ce[:n1], out[0]
        )
        if future is None:
            l_ce2, g_E2 = _vocab_side(*side2)
        d_logit, disc_cache = nn.forward(
            model.discriminator, z, train_mode=train_mode, rng=rng
        )
        targets = _smoothed_targets(n1, n2, label_smoothing)
        (l_d, g_true), (l_g, g_rev) = nn.binary_cross_entropies(
            d_logit, (targets, 1.0 - targets), loss=losses
        )
        g_disc, _ = nn.backward(disc_cache, g_true, input_grad=False)
        _, dz_adv = nn.backward(disc_cache, g_rev, param_grads=False)
    except BaseException:
        if future is not None:
            future.exception()  # waits until side 2 has stopped writing
        raise
    if future is not None:
        l_ce2, g_E2 = future.result()

    g_gen, _ = nn.backward(gen_cache, dz_ce, input_grad=False)
    adv_grads, _ = nn.backward(gen_cache, dz_adv, input_grad=False)

    grads = {"joint": g_gen + [g_E1, g_E2], "disc": g_disc, "gen_adv": adv_grads}
    if not losses:
        return grads, {}
    return grads, {"L_CE_1": l_ce1, "L_CE_2": l_ce2, "L_D": l_d, "L_G": l_g}


def _tile(flat: np.ndarray, like: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Views of consecutive pieces of ``flat``, shaped like ``like``."""
    views = []
    start = 0
    for a in like:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return views


def _bind(model: AlignmentModel) -> dict[str, np.ndarray]:
    """Bind the model to one flat parameter arena; return each role's slice.

    Copies ``model.parameters()`` (generator | E1 | E2 | discriminator)
    into one buffer and rebinds the model's arrays to views of it, so that
    each role in ``_role_params`` is one slice: joint ``[0:g+e]``, gen_adv
    ``[0:g]`` and disc ``[g+e:]``.
    """
    gen, disc = model.generator, model.discriminator
    params = model.parameters()
    arena = np.concatenate(params, axis=None)
    views = _tile(arena, params)
    gen_end = 2 * len(gen.weights)
    embeds_end = gen_end + len(model.output_embeddings)
    for mlp, mlp_views in ((gen, views[:gen_end]), (disc, views[embeds_end:])):
        mlp.weights[:], mlp.biases[:] = mlp_views[0::2], mlp_views[1::2]
    model.output_embeddings[:] = views[gen_end:embeds_end]
    offsets = np.cumsum([0] + [v.size for v in views])
    start = {id(view): int(offset) for view, offset in zip(views, offsets)}
    roles = {}
    for role, role_params in _role_params(model).items():
        lo = start[id(role_params[0])]
        roles[role] = arena[lo : lo + sum(p.size for p in role_params)]
    return roles


def train_step(
    model: AlignmentModel,
    batch: TrainBatch,
    roles: dict[str, np.ndarray],
    opt: Optimizers,
    cfg: TrainConfig,
    lr: float,
    rng: np.random.Generator | None,
    losses: bool = True,
    pool: Executor | None = None,
) -> dict[str, float]:
    """One step on the model ``_bind`` returned ``roles`` for: gradients at
    the starting parameters, then the three role updates in order. Each
    role's gradient is written into one flat buffer, in the dtype the
    gradients have for the arena and the batch, and the role is updated
    with one ``nn.adam_step`` over whole vectors, which applies the same
    operations to the same elements as one call per tensor. Returns the
    step's four losses, or ``{}`` with ``losses=False``, which skips
    computing them and leaves the update bit for bit the same. ``pool``
    goes to ``gradients``."""
    # the gradient buffers live for one step: kept for the run, they
    # would also be resident through checkpoint selection, which sets
    # the peak memory
    flat, views = {}, {}
    for role, params in _role_params(model).items():
        theta = roles[role]
        flat[role] = np.empty(theta.size, np.result_type(theta, batch.h1, batch.h2))
        views[role] = _tile(flat[role], params)
    # the joint role lists E1 and E2 last: their gradients are written
    # straight into its buffer and the smaller ones are copied in
    grads, step_losses = gradients(
        model, batch, cfg.label_smoothing, cfg.dropout > 0, rng,
        out=tuple(views["joint"][-2:]), losses=losses, pool=pool,
    )
    for role, theta in roles.items():
        for view, g in zip(views[role], grads[role]):
            if g is not view:
                view[...] = g
        nn.adam_step(theta, flat[role], getattr(opt, role), lr)
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
        seed: np.random.SeedSequence,
    ):
        if len(H1) == 0 or len(H2) == 0:
            raise ConfigError("cannot sample from an empty corpus side")
        self.H1, self.y1, self.H2, self.y2 = H1, y1, H2, y2
        self.batch_size = batch_size
        c1, c2 = seed.spawn(2)
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
        raise FrameportError("dictionary induced no keyword pairs")
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
    resumes from it, with the best snapshot under its selector so far.
    Snapshots (the best model, a grid winner) carry fresh optimizers, no
    sampler or dropout state and no best snapshot."""

    model: AlignmentModel
    opt: Optimizers
    step: int
    cfg: TrainConfig
    sampler_state: dict = field(default_factory=dict)
    dropout_state: dict = field(default_factory=dict)
    best_model: AlignmentModel | None = None
    best_score: float = -np.inf


@dataclass
class TrainResult:
    state: TrainState
    best_model: AlignmentModel
    best_score: float
    checkpoint_scores: list[tuple[int, float]]


def _step_pool(batch_size: int, model: AlignmentModel) -> contextlib.AbstractContextManager:
    """A one-thread pool for a run's steps where each side's logits block
    holds at least ``_THREADED_STEP_MIN_LOGITS`` entries and the process
    may use two CPUs; otherwise a context that gives None."""
    widths = [E.shape[1] for E in model.output_embeddings]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if batch_size * min(widths) < _THREADED_STEP_MIN_LOGITS or cpus < 2:
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="frameport-step")


def train(
    H1: np.ndarray,
    y1: np.ndarray,
    H2: np.ndarray,
    y2: np.ndarray,
    cfg: TrainConfig,
    vocab_sizes: tuple[int, int],
    selector: Callable[[AlignmentModel], float],
    on_record: Callable[[dict], None] | None = None,
    resume: TrainState | None = None,
    stop: Callable[[], bool] | None = None,
) -> TrainResult:
    """Full training loop with checkpoint-time model selection.

    ``vocab_sizes`` gives the keyword count of each side, the widths of
    the output embeddings. ``selector`` scores a model snapshot (typically
    average cosine similarity of the dictionary it induces); the
    best-scoring snapshot is kept alongside the final state, and in it.
    Each step's losses and each checkpoint's score go to ``on_record``;
    without it no step computes its losses. ``resume`` continues a saved
    ``TrainState`` under ``cfg``, from its best snapshot and score.
    ``stop`` is polled before each step so callers can end training early
    at a step boundary and still get a consistent, resumable state. The
    run ends with a checkpoint unless its last step was one, or it took no
    step after a saved state whose best snapshot scored that state's step.
    The loop is bit-reproducible on one or two threads for a given
    config: a step runs the two sides' vocabulary-wide work on two threads
    (``gradients``) only where ``_step_pool`` finds that faster, with the
    same results.
    """
    d_b = H1.shape[1]
    if H2.shape[1] != d_b:
        raise FrameportError("both sides must share the provider dimension d_b")
    s_batch, s_drop, s_init = np.random.SeedSequence(cfg.seed).spawn(3)
    sampler = BatchSampler(H1, y1, H2, y2, cfg.batch_size, seed=s_batch)
    rng_drop = np.random.default_rng(s_drop)
    if resume is not None:
        model, opt, start_step = resume.model, resume.opt, resume.step
        best_model, best_score = resume.best_model, resume.best_score
        sampler.set_state(resume.sampler_state)
        rng_drop.bit_generator.state = resume.dropout_state
    else:
        model = AlignmentModel.create(
            cfg, d_b, vocab_sizes, np.random.default_rng(s_init)
        )
        opt = Optimizers.init(model)
        start_step = 0
        best_model, best_score = None, -np.inf
    roles = _bind(model)
    # the last step a score was taken at
    scored = None if best_model is None else start_step
    if best_model is None:
        best_model = copy.deepcopy(model)

    checkpoint_scores: list[tuple[int, float]] = []

    def checkpoint(step: int) -> None:
        nonlocal best_model, best_score, scored
        scored = step
        score = selector(model)
        checkpoint_scores.append((step, score))
        if on_record:
            on_record({"step": step, "avg_cos_sim": score})
        if score > best_score:
            best_score = score
            best_model = copy.deepcopy(model)

    step = start_step
    # leaving the block shuts the pool down and joins its thread
    with _step_pool(cfg.batch_size, model) as pool:
        for next_step in range(start_step + 1, cfg.total_steps + 1):
            if stop is not None and stop():
                break
            step = next_step
            batch = sampler.next_batch()
            lr = cfg.lr_at(step)
            loss_rec = train_step(model, batch, roles, opt, cfg, lr, rng=rng_drop,
                                  losses=on_record is not None, pool=pool)
            if on_record:
                on_record({"step": step, "lr": lr, **loss_rec})
            if cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
                checkpoint(step)
    if scored != step:
        checkpoint(step)
    state = TrainState(
        model, opt, step, cfg, sampler.state(), rng_drop.bit_generator.state,
        best_model, best_score,
    )
    return TrainResult(state, best_model, best_score, checkpoint_scores)


@dataclass
class GridCell:
    peak_lr: float
    batch_size: int
    avg_cos_sim: float


@dataclass
class GridResult:
    best: TrainResult  # the winning cell's run
    best_cell: GridCell  # its record in ``cells``
    cells: list[GridCell]


def grid_cells(
    cfg: TrainConfig, lrs: Sequence[float], batch_sizes: Sequence[int]
) -> list[TrainConfig]:
    """Each (lr, N) cell's config, ``cfg`` with that peak lr and batch
    size, in ascending (lr, N) order; a cell that is no valid config
    raises ``ConfigError`` here, before any cell trains."""
    if not lrs or not batch_sizes:
        raise ConfigError("empty hyperparameter grid")
    pairs = itertools.product(sorted(lrs), sorted(batch_sizes))
    return [replace(cfg, peak_lr=lr, batch_size=n) for lr, n in pairs]


def grid_search(
    H1: np.ndarray,
    y1: np.ndarray,
    H2: np.ndarray,
    y2: np.ndarray,
    cells: Sequence[TrainConfig],
    selector: Callable[[AlignmentModel], float],
    vocab_sizes: tuple[int, int],
    on_cell: Callable[[GridCell], None] | None = None,
    stop: Callable[[], bool] | None = None,
) -> GridResult:
    """Train each config of ``cells``, at least one, as ``grid_cells``
    builds them, in order; pick the best unsupervised-criterion score.

    The argmax keeps only strictly larger scores, so ties resolve to the
    earlier cell: in ``grid_cells`` order, smaller lr, then smaller N.
    ``stop`` goes to each cell's ``train`` and is polled after each cell,
    so a stopped grid holds the cells that ran, the last one possibly
    cut short, and at least one.
    """
    records: list[GridCell] = []
    best: TrainResult | None = None
    for cfg in cells:
        result = train(H1, y1, H2, y2, cfg, vocab_sizes, selector=selector, stop=stop)
        cell = GridCell(cfg.peak_lr, cfg.batch_size, result.best_score)
        records.append(cell)
        if on_cell:
            on_cell(cell)
        if best is None or result.best_score > best.best_score:
            best, best_cell = result, cell
        if stop is not None and stop():
            break
    return GridResult(best, best_cell, records)


def save_checkpoint(path: str | Path, state: TrainState) -> None:
    doc = {
        "version": 1,
        "step": state.step,
        "config": asdict(state.cfg),
        "model": state.model.to_dict(),
        "optimizers": state.opt.to_dict(state.model),
        "sampler_state": state.sampler_state,
        "dropout_state": state.dropout_state,
    }
    if state.best_model is not None:
        doc["best_score"] = state.best_score
        doc["best_model"] = state.best_model.to_dict()
    write_text_atomic(path, json.dumps(doc) + "\n")


def load_checkpoint(path: str | Path) -> TrainState:
    with reading("checkpoint", path) as text:
        doc = json.loads(text)
        if doc.get("version") != 1:
            raise ConfigError(f"{path}: unsupported checkpoint version")
        best = doc.get("best_model")
        step = int(doc["step"])
        if step < 0:
            raise FrameportError(f"negative step {step}")
        model = AlignmentModel.from_dict(doc["model"])
        return TrainState(
            model=model,
            opt=Optimizers.from_dict(doc["optimizers"], model),
            step=step,
            cfg=TrainConfig(**doc["config"]),
            sampler_state=doc["sampler_state"],
            dropout_state=doc["dropout_state"],
            best_model=None if best is None else AlignmentModel.from_dict(best),
            best_score=float(doc.get("best_score", -np.inf)),
        )
