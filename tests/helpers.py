"""Shared test utilities: finite-difference oracles, fuzz generators and
one-pair forms of the scoring and reinsertion helpers.

Gradient checks follow the standard recipe: perturb each parameter by
eps in float64, compare the central difference against the analytic
gradient with relative error max(|a - b|) / max(|a|, |b|, floor). The
eps of 5e-6 sits near the float64 central-difference optimum of
(machine eps)^(1/3), where cancellation noise is about 5e-11 absolute
for unit-scale losses. The floor of 1e-6 keeps elements whose
magnitude sits at that noise level from dominating the metric; such
elements are checked absolutely instead of relatively.
"""

from __future__ import annotations

import numpy as np

from frameport import nn as fnn
from frameport.evaluate import _score, _text_and_bag
from frameport.train import AlignmentModel, TrainBatch, TrainConfig, gradients

# every construct that nests a call somewhere the walk must enter
HAND_WRITTEN_UNIT = """\
import torch.nn as nn


@nn.utils.wrap(nn.Flatten(start_dim=1, end_dim=-1))
class Net(nn.Module):

    def __init__(self, act=lambda x=nn.ReLU(inplace=True): x, n=3):
        super().__init__()
        self.fc = nn.Linear(in_features=4, out_features=2) if act else nn.Dropout(p=0.5)
        self.layers = [nn.Linear(in_features=k, out_features=k) for k in range(n) if nn.Dropout(p=0.1)]
        self.tag = f"é {nn.Conv2d(in_channels=1, out_channels=2, kernel_size=3)!r} ü"
        self.seq = nn.Sequential(*[nn.ReLU(inplace=False)], nn.Tanh())
        self.w = nn.Linear(in_features=1, out_features=1).weight
        self.head = nn.Linear(in_features=nn.Linear(in_features=2, out_features=2), out_features=nn.ReLU())

    async def forward(self, x: nn.Linear(in_features=1, out_features=1)):
        match x:
            case nn.Linear(in_features=4):
                return nn.Dropout(p=0.2)(x)
            case [_, *rest] if nn.ReLU(inplace=True):
                return [nn.Linear(in_features=y, out_features=2) for y in rest]
        return {k: nn.BatchNorm2d(num_features=k) for k in x}
"""


def call_bag(unit, db):
    """Multiset of call fingerprints after canonicalization."""
    return _text_and_bag(unit, db)[1]


def f1(pred, gold, db) -> float:
    """Call-bag F1 of one pair, scored the way ``run_suite`` scores a row."""
    return _score(pred, _text_and_bag(gold, db), db)[0]


def exact_match(pred, gold, db) -> bool:
    """Byte equality after canonicalizing both sides, as ``run_suite``
    scores it; an unparseable prediction never matches."""
    return _score(pred, _text_and_bag(gold, db), db)[1]


def identity_translations(skeleton) -> dict[int, list[str]]:
    """Translations that reproduce a skeleton's original keywords."""
    return {i: [kw.text] for i, kw in enumerate(skeleton.keywords, start=1)}


def binary_cross_entropy(logits, targets, loss: bool = True):
    """Mean BCE of one logit array against one target set, and its gradient."""
    return fnn.binary_cross_entropies(logits, [targets], loss)[0]


FD_EPS = 5e-6
REL_FLOOR = 1e-6

# one small module per framework, enough to ingest and train on
PT_FILE = (
    "import torch.nn as nn\n\n"
    "class Net(nn.Module):\n"
    "    def __init__(self):\n"
    "        super().__init__()\n"
    "        self.fc1 = nn.Linear(4, 8)\n"
    "        self.fc2 = nn.Linear(8, 2)\n"
    "        self.act = nn.ReLU()\n"
    "        self.flat = nn.Flatten()\n"
)
KS_FILE = (
    "from tensorflow.keras import layers\n\n"
    "class Net(layers.Layer):\n"
    "    def __init__(self):\n"
    "        super().__init__()\n"
    "        self.fc1 = layers.Dense(8)\n"
    "        self.fc2 = layers.Dense(2)\n"
    "        self.act = layers.ReLU()\n"
    "        self.flat = layers.Flatten()\n"
)


def to_f64(mlp: fnn.Mlp) -> fnn.Mlp:
    return fnn.Mlp(
        weights=[w.astype(np.float64) for w in mlp.weights],
        biases=[b.astype(np.float64) for b in mlp.biases],
        activation=mlp.activation,
        leaky_slope=mlp.leaky_slope,
        dropout=mlp.dropout,
    )


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    diff = np.abs(analytic - numeric)
    scale = np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR
    )
    return float((diff / scale).max()) if diff.size else 0.0


def fd_gradients(loss_fn, params: list[np.ndarray], eps: float = FD_EPS):
    """Central-difference gradient of loss_fn() w.r.t. each array in params."""
    grads = []
    for p in params:
        g = np.zeros_like(p, dtype=np.float64)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn()
            flat[i] = orig - eps
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def random_mlp(rng: np.random.Generator, max_width: int = 10) -> fnn.Mlp:
    depth = int(rng.integers(1, 4))
    dims = [int(rng.integers(2, max_width + 1)) for _ in range(depth + 1)]
    activation = fnn.RELU if rng.random() < 0.5 else fnn.LEAKY_RELU
    dropout = float(rng.choice([0.0, 0.1, 0.3]))
    mlp = fnn.Mlp.create(
        dims,
        activation=activation,
        dropout=dropout,
        rng=rng,
        leaky_slope=0.01,
    )
    mlp = to_f64(mlp)
    # bias away from activation kinks so finite differences stay two-sided
    for b in mlp.biases:
        b += rng.uniform(-0.5, 0.5, size=b.shape)
    return mlp


def random_alignment_model(
    rng: np.random.Generator, d_b: int = 6, d: int = 5, m1: int = 7, m2: int = 8
) -> tuple[AlignmentModel, TrainBatch, TrainConfig]:
    cfg = TrainConfig(
        d=d, batch_size=4, total_samples=0, dropout=0.1, seed=int(rng.integers(1 << 30))
    )
    model = AlignmentModel.create(cfg, d_b, [m1, m2], rng)
    model.generator = to_f64(model.generator)
    model.discriminator = to_f64(model.discriminator)
    # bias away from activation kinks so finite differences stay two-sided
    for mlp in (model.generator, model.discriminator):
        for b in mlp.biases:
            b += rng.uniform(-0.5, 0.5, size=b.shape)
    model.output_embeddings = [
        e.astype(np.float64) for e in model.output_embeddings
    ]
    n1, n2 = 5, 4
    batch = TrainBatch(
        h1=rng.standard_normal((n1, d_b)),
        y1=rng.integers(0, m1, n1),
        h2=rng.standard_normal((n2, d_b)),
        y2=rng.integers(0, m2, n2),
    )
    return model, batch, cfg


def check_model_gradients(
    model: AlignmentModel,
    batch: TrainBatch,
    cfg: TrainConfig,
    train_mode: bool = False,
) -> float:
    """Worst relative error across all roles and all loss components."""

    def run(seed: int = 123):
        rng = np.random.default_rng(seed) if train_mode else None
        return gradients(
            model,
            batch,
            label_smoothing=cfg.label_smoothing,
            train_mode=train_mode,
            rng=rng,
        )

    role_params = {
        "joint": model.generator.parameters() + list(model.output_embeddings),
        "disc": model.discriminator.parameters(),
        "gen_adv": model.generator.parameters(),
    }
    role_loss = {
        "joint": lambda L: L["L_CE_1"] + L["L_CE_2"],
        "disc": lambda L: L["L_D"],
        "gen_adv": lambda L: L["L_G"],
    }
    worst = 0.0
    analytic, _ = run()
    for role, params in role_params.items():
        loss_of = role_loss[role]

        def scalar():
            _, losses = run()
            return loss_of(losses)

        numeric = fd_gradients(scalar, params)
        for a, n in zip(analytic[role], numeric):
            worst = max(worst, rel_error(np.asarray(a, dtype=np.float64), n))
    return worst


# -- fuzz source generation ---------------------------------------------------

_PT_SNIPPETS = [
    "nn.Linear({a}, {b})",
    "nn.Linear(in_features={a}, out_features={b}, bias=True)",
    "nn.Conv2d({a}, {b}, 3)",
    "nn.Conv2d({a}, {b}, kernel_size=3, stride=2, padding=1)",
    "nn.MaxPool2d(2)",
    "nn.ReLU()",
    "nn.Sigmoid()",
    "nn.Dropout(0.5)",
    "nn.Dropout(p=0.25, inplace=False)",
    "nn.Embedding({a}, {b})",
    "nn.BatchNorm2d({a})",
    "nn.LSTM({a}, {b})",
    "nn.Flatten()",
    "nn.Softmax(dim=1)",
    "torch.nn.Linear({a}, {b})",
    "unknown_helper({a}, 'text')",
]

_STMT_TEMPLATES = [
    "x{i} = {call}",
    "layers_{i} = [{call}, {call2}]",
    "print({call})",
]


def fuzz_pytorch_unit(rng: np.random.Generator) -> str:
    """A random small module mixing known and unknown pytorch calls."""
    lines = ["import torch.nn as nn", ""]
    n_stmt = int(rng.integers(1, 5))
    for i in range(n_stmt):
        call = _PT_SNIPPETS[int(rng.integers(len(_PT_SNIPPETS)))].format(
            a=int(rng.integers(1, 512)), b=int(rng.integers(1, 512))
        )
        call2 = _PT_SNIPPETS[int(rng.integers(len(_PT_SNIPPETS)))].format(
            a=int(rng.integers(1, 512)), b=int(rng.integers(1, 512))
        )
        tmpl = _STMT_TEMPLATES[int(rng.integers(len(_STMT_TEMPLATES)))]
        lines.append(tmpl.format(i=i, call=call, call2=call2))
    if rng.random() < 0.4:
        lines += [
            "",
            "class Block(nn.Module):",
            "",
            "    def __init__(self):",
            "        super().__init__()",
            f"        self.fc = nn.Linear({int(rng.integers(1, 99))}, 7)",
            "",
            "    def forward(self, x):",
            "        return self.fc(x)",
        ]
    return "\n".join(lines) + "\n"
