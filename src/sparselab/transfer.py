"""Sparse-transfer recipes over a pretrained sparse model.

The gradual recipe trains the fresh classifier head (plus every bias and
normalization parameter) first, then unfreezes pruned linear weights block
by block from the back, one epoch per stage with the learning rate rewound
to its peak each time, and finishes with one all-layers epoch. Masks are
fixed for the entire transfer: sparsified weights keep their zeros bit for
bit. Baselines: the plain dense recipe (3 epochs, everything trainable),
its rescaled-length variants, and head-only linear finetuning.

Every recipe is a list of stages run by `_finetune`, which trains each one
through `runner.train_epochs`, the package's single training loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, MaskMutationError
from .models import EMBEDDINGS_GROUP, HEAD_GROUP, Model, reinit_head
from .optim import LrSchedule, SgdState, lr_at
from .rng import Rng, STREAM_HEAD_INIT, STREAM_SHUFFLE, STREAM_DROPOUT
from .runner import predict_logits, train_epochs
from . import diagnostics

_ALWAYS_TRAINABLE = ("head-param", "bias", "norm-param")
_BLOCK_WEIGHTS = ("linear-weight", "conv-weight")


@dataclass
class LayerGroups:
    order: list[str]  # embeddings, block_1 ... block_B, head
    members: dict[str, list[str]]
    classes: dict[str, str]

    @property
    def n_blocks(self) -> int:
        return sum(1 for g in self.order if g.startswith("block_"))


def layer_groups(model: Model) -> LayerGroups:
    members: dict[str, list[str]] = {EMBEDDINGS_GROUP: []}
    for d in model.info.values():  # the table lists groups front to back
        members.setdefault(d.group, []).append(d.name)
    members.setdefault(HEAD_GROUP, [])
    classes = {n: d.cls for n, d in model.info.items()}
    return LayerGroups(order=list(members), members=members, classes=classes)


def trainable_set(groups: LayerGroups, stage: int) -> set[str]:
    """Stage 0: head + all biases and norm params. Stage k adds the pruned
    weights of the k rearmost blocks; the final stage unfreezes everything,
    embeddings included."""
    B = groups.n_blocks
    if not 0 <= stage <= B + 1:
        raise ConfigError(f"stage {stage} outside [0, {B + 1}]")
    if stage == B + 1:
        return {n for ms in groups.members.values() for n in ms}
    unfrozen = groups.order[B + 1 - stage : B + 1]  # the `stage` rearmost blocks
    return {
        n for g, ms in groups.members.items() for n in ms
        if groups.classes[n] in _ALWAYS_TRAINABLE
        or (g in unfrozen and groups.classes[n] in _BLOCK_WEIGHTS)
    }


MOMENTUM = 0.9
WEIGHT_DECAY = 0.0
LABEL_SMOOTHING = 0.0
PATIENCE = 2  # evaluations without a new best top-1 before an early stop


@dataclass
class TransferHyper:
    lr: float = 0.05
    batch_size: int = 32
    epochs_per_stage: int = 1
    early_stop: bool = True

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs_per_stage < 1:
            raise ConfigError("transfer batch size and epochs per stage must be positive")


@dataclass
class StageRecord:
    stage: int
    label: str
    trainable: int
    lr_first: float
    lr_last: float
    eval_loss: float
    top1: float


@dataclass
class TransferResult:
    history: list[StageRecord]
    best_top1: float


def _masks_identical(model: Model, snapshot: dict[str, np.ndarray]) -> bool:
    current = model.store.masks()
    return set(current) == set(snapshot) and all(
        np.array_equal(current[n], snapshot[n]) for n in snapshot
    )


def _set_trainable(model: Model, names: set[str]) -> None:
    for name, entry in model.store.items():
        entry.trainable = name in names


def _finetune(
    model: Model, data: Dataset, hyper: TransferHyper, rng: Rng,
    stages: list[tuple[str, set[str], int]], eval_every_epoch: bool = False,
) -> TransferResult:
    """Train `stages` of (label, trainable names, epochs) on a fresh head, masks fixed.

    Each stage starts a fresh SGD state on a linear decay from the peak
    learning rate. The model is evaluated at the end of each stage, or after
    every epoch when `eval_every_epoch`; each evaluation is one `StageRecord`
    and counts towards early stopping.
    """
    reinit_head(model, rng.stream(STREAM_HEAD_INIT))
    mask_snapshot = {n: m.copy() for n, m in model.store.masks().items()}
    shuffle_rng = rng.stream(STREAM_SHUFFLE)
    dropout_rng = rng.stream(STREAM_DROPOUT)
    steps_per_epoch = math.ceil(len(data.x_train) / hyper.batch_size)

    def evaluated_spans():
        for label, names, epochs in stages:
            _set_trainable(model, names)
            schedule = LrSchedule(peak=hyper.lr, total_steps=epochs * steps_per_epoch)
            sgd = SgdState(model.store, schedule, MOMENTUM, WEIGHT_DECAY)
            span_start = 0
            for epoch, step, _ in train_epochs(
                model, data, sgd, epochs, hyper.batch_size, LABEL_SMOOTHING,
                shuffle_rng, dropout_rng,
            ):
                if eval_every_epoch or epoch + 1 == epochs:
                    yield label, len(names), lr_at(schedule, span_start), lr_at(schedule, step - 1)
                    span_start = step

    history: list[StageRecord] = []
    best_top1 = -1.0
    since_improve = 0
    for label, trainable, lr_first, lr_last in evaluated_spans():
        if not _masks_identical(model, mask_snapshot):
            raise MaskMutationError(f"mask changed during transfer stage {len(history)} ({label})")
        logits = predict_logits(model, data.x_val)
        top1 = diagnostics.top1(logits, data.y_val)
        history.append(
            StageRecord(
                stage=len(history),
                label=label,
                trainable=trainable,
                lr_first=lr_first,
                lr_last=lr_last,
                eval_loss=diagnostics.mean_cross_entropy(logits, data.y_val),
                top1=top1,
            )
        )
        if top1 > best_top1:
            best_top1, since_improve = top1, 0
        else:
            since_improve += 1
            if hyper.early_stop and since_improve >= PATIENCE:
                break
    _set_trainable(model, set(model.store.names()))
    return TransferResult(history=history, best_top1=best_top1)


def transfer_run(model: Model, data: Dataset, hyper: TransferHyper, rng: Rng) -> TransferResult:
    """Gradual back-to-front unfreezing with per-stage LR rewind."""
    groups = layer_groups(model)
    B = groups.n_blocks
    labels = ["head-only"] + [f"unfreeze-{k}" for k in range(1, B + 1)] + ["all-layers"]
    stages = [
        (label, trainable_set(groups, k), hyper.epochs_per_stage) for k, label in enumerate(labels)
    ]
    return _finetune(model, data, hyper, rng, stages)


DENSE_RECIPE_EPOCHS = 3


def baseline_recipes(
    model: Model,
    data: Dataset,
    hyper: TransferHyper,
    rng: Rng,
    mode: str = "dense-recipe",
    epochs: int | None = None,
    finetune: str = "full",
) -> TransferResult:
    """Dense-recipe baseline (3 epochs, full finetune), rescaled(E) variants,
    and linear (head-only) finetuning, evaluated after every epoch."""
    if mode == "dense-recipe":
        epochs = DENSE_RECIPE_EPOCHS
    elif mode == "rescaled":
        if epochs is None or epochs < 1:
            raise ConfigError("rescaled mode needs a positive epoch count")
    else:
        raise ConfigError(f"unknown baseline mode {mode!r}")
    if finetune == "linear":
        names = {n for n, d in model.info.items() if d.cls == "head-param"}
    elif finetune == "full":
        names = set(model.store.names())
    else:
        raise ConfigError(f"unknown finetune variant {finetune!r}")
    stages = [(f"{mode}-{finetune}", names, epochs)]
    return _finetune(model, data, hyper, rng, stages, eval_every_epoch=True)
