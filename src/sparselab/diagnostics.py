"""Measurement formulas: entropy, confidence, mask IoU, channel sparsity
and FLOPs accounting.

Everything here is pure, computed at f64 regardless of model dtype, and
always on raw logits (label smoothing never reaches diagnostics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NonFiniteError, ShapeError

# Logit preimages of sigmoid = 0.1 / 0.9; comparing in logit space keeps the
# boundary exact (sigmoid(ln 9) rounds below 0.9 in f64).
_CERTAIN_LOGIT = math.log(9.0)


@dataclass
class MetricRow:
    epoch: int
    split: str
    top1: float
    mean_entropy: float
    mean_ce: float
    uncertainty_fraction: float | None
    train_loss: float
    sparsity: float
    channel_sparsity_avg: float | None
    flops_proportion: float

    FIELDS = (
        "epoch",
        "split",
        "top1",
        "mean_entropy",
        "mean_ce",
        "uncertainty_fraction",
        "train_loss",
        "sparsity",
        "channel_sparsity_avg",
        "flops_proportion",
    )


def _softmax64(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("non-finite logits")
    zs = z - z.max(axis=-1, keepdims=True)
    e = np.exp(zs)
    return e / e.sum(axis=-1, keepdims=True)


def mean_entropy(logits: np.ndarray) -> float:
    p = _softmax64(np.atleast_2d(logits))
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(-plogp.sum(axis=-1).mean())


def mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean raw CE (no smoothing) at f64."""
    z = np.asarray(logits, dtype=np.float64)
    zs = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(zs).sum(axis=-1))
    return float((lse - zs[np.arange(len(labels)), labels]).mean())


def top1(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((np.argmax(logits, axis=-1) == labels).mean())


def uncertainty_fraction(binary_logits: np.ndarray) -> float:
    """Fraction of predictions with sigmoid output strictly inside (0.1, 0.9);
    boundary values count as certain."""
    z = np.asarray(binary_logits, dtype=np.float64).reshape(-1)
    if z.size == 0:
        raise DataError("uncertainty_fraction of empty input")
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("non-finite logits")
    uncertain = (z > -_CERTAIN_LOGIT) & (z < _CERTAIN_LOGIT)
    return float(uncertain.mean())


def mask_iou(m1: dict[str, np.ndarray], m2: dict[str, np.ndarray]) -> float:
    """|support intersection| / |support union| over matching tensors; 1.0
    when both supports are empty."""
    if set(m1) != set(m2):
        raise ShapeError("mask sets name mismatch")
    inter = union = 0
    for name in m1:
        a, b = m1[name], m2[name]
        if a.shape != b.shape:
            raise ShapeError(f"mask shape mismatch for {name}")
        sa = a != 0.0
        sb = b != 0.0
        inter += int((sa & sb).sum())
        union += int((sa | sb).sum())
    return 1.0 if union == 0 else inter / union


def channel_sparsity(
    conv_layers: dict[str, tuple[np.ndarray, np.ndarray | None]],
) -> tuple[dict[str, float], float]:
    """Per-layer and pooled fraction of all-zero output channels.

    A channel is zero iff every effective weight (w times mask) in its
    (in, kh, kw) slice is zero. The global figure pools channel counts, not
    per-layer fractions.
    """
    if not conv_layers:
        raise DataError("channel_sparsity needs at least one convolution layer")
    per_layer: dict[str, float] = {}
    zero_total = ch_total = 0
    for name, (w, mask) in conv_layers.items():
        if w.ndim != 4:
            raise ShapeError(f"conv weight {name} must be 4-d (out, in, kh, kw)")
        eff = w if mask is None else w * mask
        zero = np.all(eff.reshape(w.shape[0], -1) == 0.0, axis=1)
        per_layer[name] = float(zero.mean())
        zero_total += int(zero.sum())
        ch_total += w.shape[0]
    return per_layer, zero_total / ch_total


def flops_by_layer(model) -> list[tuple[str, int, float]]:
    """(layer, dense inference FLOPs, mask density) per prunable weight."""
    out = []
    for name in model.prunable_names():
        mask = model.store[name].mask
        density = 1.0 if mask is None else float(np.count_nonzero(mask)) / mask.size
        out.append((model.info[name].layer, model.info[name].flops, density))
    return out


def flops(model) -> tuple[int, float]:
    """(dense inference FLOPs, sparse proportion) using the model's masks.

    Counts multiplies and adds separately (factor 2) over linear and
    convolution layers; a layer's sparse cost scales with its mask density.
    """
    layers = flops_by_layer(model)
    dense_total = sum(f for _, f, _ in layers)
    return dense_total, sum(density * f for _, f, density in layers) / dense_total


def zero_fraction(weights: dict[str, np.ndarray]) -> float:
    """Fraction of exactly-zero entries across the given tensors."""
    total = sum(w.size for w in weights.values())
    zeros = sum(int((w == 0.0).sum()) for w in weights.values())
    return zeros / total if total else 0.0
