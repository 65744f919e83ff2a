import struct

import numpy as np
import pytest

from sparselab import autodiff as ad
from sparselab import diagnostics as dg
from sparselab.autodiff import Var
from sparselab.errors import DataError, ShapeError
from sparselab.models import MICRO_CNN, MLP, TINY_TRANSFORMER, ModelSpec, ParamStore


def mlp_spec(layer_dims=(784, 256, 128, 10)) -> ModelSpec:
    return ModelSpec(arch=MLP, layer_dims=tuple(layer_dims), classes=layer_dims[-1])


def micro_cnn_spec(in_channels=1, image_hw=(28, 28), channels=(8, 8), classes=10) -> ModelSpec:
    return ModelSpec(
        arch=MICRO_CNN,
        in_channels=in_channels,
        image_hw=tuple(image_hw),
        channels=tuple(channels),
        classes=classes,
    )


def tiny_transformer_spec(
    vocab=16, max_len=16, d_model=32, ff_dim=64, blocks=2, classes=2, dropout=0.0
) -> ModelSpec:
    return ModelSpec(
        arch=TINY_TRANSFORMER,
        vocab=vocab,
        max_len=max_len,
        d_model=d_model,
        ff_dim=ff_dim,
        blocks=blocks,
        classes=classes,
        dropout=dropout,
    )


def entropy(logits: np.ndarray) -> float:
    """Shannon entropy of the softmax of one logit vector; the package
    records only `diagnostics.mean_entropy`, so this lives with the tests."""
    p = dg._softmax64(logits)
    if p.ndim != 1 or p.size < 2:
        raise ShapeError("entropy expects one logit vector with C >= 2")
    nz = p > 0.0
    return float(-(p[nz] * np.log(p[nz])).sum())


def aie(err_model, err_base) -> float:
    """Average increase in error, the paper's transfer metric: mean over tasks
    of (err_m - err_b) / err_b. No command reports it, so it lives with the tests."""
    em = np.asarray(err_model, dtype=np.float64)
    eb = np.asarray(err_base, dtype=np.float64)
    if em.shape != eb.shape or em.size == 0:
        raise ShapeError("AIE needs matching non-empty error vectors")
    if np.any(eb <= 0.0):
        raise DataError("AIE undefined for non-positive baseline error")
    return float(((em - eb) / eb).mean())


def mul(a, b):
    """Elementwise product on the autodiff tape, with broadcasting; the
    package's models need none, so it lives with the tests."""

    def back(g):
        return (
            ad._unbroadcast(g * b.value, a.value.shape),
            ad._unbroadcast(g * a.value, b.value.shape),
        )

    return Var(a.value * b.value, (a, b), back)


# The composed ops the models used before `autodiff.linear`,
# `autodiff.attention` and `autodiff.batch_rows`: the tests check those
# fused nodes against them.


def scale(a: Var, c: float) -> Var:
    c = a.value.dtype.type(c)
    return Var(a.value * c, (a,), lambda g: (g * c,))


def matmul(a: Var, b: Var) -> Var:
    out = np.matmul(a.value, b.value)

    def back(g):
        gb = ad._unbroadcast(np.matmul(np.swapaxes(a.value, -1, -2), g), b.value.shape)
        if a.const:
            return None, gb
        return ad._unbroadcast(np.matmul(g, np.swapaxes(b.value, -1, -2)), a.value.shape), gb

    return Var(out, (a, b), back)


def reshape(a: Var, shape: tuple) -> Var:
    orig = a.value.shape
    return Var(a.value.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def swap_last2(a: Var) -> Var:
    return Var(np.swapaxes(a.value, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def softmax_last(a: Var) -> Var:
    z = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        return ((g - (g * p).sum(axis=-1, keepdims=True)) * p,)

    return Var(p, (a,), back)


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801, prefix=""):
    """Hand-built IDX fixture files (big-endian)."""
    n, rows, cols = pixels.shape
    img = tmp_path / f"{prefix}images.idx"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", image_magic, n, rows, cols))
        f.write(pixels.astype(np.uint8).tobytes())
    lab = tmp_path / f"{prefix}labels.idx"
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", label_magic, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return str(img), str(lab)


def num_params(store) -> int:
    return sum(e.weights.size for _, e in store.items())


def clone_store(store) -> ParamStore:
    """A store holding copies of every weight, mask and trainable flag."""
    out = ParamStore()
    for name, e in store.items():
        out.add(name, e.weights.copy(), e.trainable)
        out.set_mask(name, None if e.mask is None else e.mask.copy())
    return out


def micro_cnn_reference_logits(spec, weights, x):
    """The micro-CNN's logits in the (B, C, H, W) layout: per-sample im2col
    GEMMs over gathered rows, pooling as (v00 + v01) + (v10 + v11), and the
    flattened (c, h, w) features into the head. Numpy only; the package ran
    this algorithm before its maps went batch innermost."""
    H, W = spec.image_hw
    h = np.ascontiguousarray(x, dtype=weights["conv1.weight"].dtype)
    h = h.reshape(-1, spec.in_channels, H, W)
    for layer in ("conv1", "conv2"):
        wv, bv = weights[f"{layer}.weight"], weights[f"{layer}.bias"]
        B, C, H, W = h.shape
        O, _, kh, kw = wv.shape
        hp, wp = H + 2, W + 2
        xp = np.zeros((B, C, hp, wp), dtype=h.dtype)
        xp[:, :, 1 : 1 + H, 1 : 1 + W] = h
        ho, wo = hp - kh + 1, wp - kw + 1
        c, ki, kj, oi, oj = np.ix_(np.arange(C), np.arange(kh), np.arange(kw),
                                   np.arange(ho), np.arange(wo))
        idx = (c * hp * wp + (ki + oi) * wp + (kj + oj)).reshape(C * kh * kw, ho * wo)
        conv = np.matmul(wv.reshape(O, -1), xp.reshape(B, C * hp * wp)[:, idx])
        conv += bv[None, :, None]
        conv = np.fmax(conv, 0).reshape(B, O, ho, wo)
        conv += 0
        v = conv.reshape(B, O, ho // 2, 2, wo // 2, 2)
        rows = v[..., 0] + v[..., 1]
        h = rows[:, :, :, 0] + rows[:, :, :, 1]
        h /= 4
    out = np.matmul(h.reshape(len(h), -1), weights["head.weight"])
    out += weights["head.bias"]
    return out


def model_loss(model, x, labels, *, eps=0.0, params=None) -> float:
    """Mean cross-entropy (smoothed by eps) of the model's logits; the
    package records raw CE through `runner.dataset_loss`, so this lives
    with the tests."""
    logits = model.forward(x, params=params)
    return float(ad.cross_entropy_mean(Var(logits), labels, eps).value)


def fd_gradients(model, x, y, h=1e-3, eps=0.0):
    """Independent central-difference gradient oracle at f64."""
    params = {n: e.weights.astype(np.float64) for n, e in model.store.items()}
    out = {}
    for name, w in params.items():
        flat = w.reshape(-1)
        g = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = model_loss(model, x, y, eps=eps, params=params)
            flat[i] = orig - h
            lm = model_loss(model, x, y, eps=eps, params=params)
            flat[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        out[name] = g.reshape(w.shape)
    return out


def max_rel_error(analytic, fd):
    worst = 0.0
    for name in fd:
        a = analytic[name].reshape(-1)
        f = fd[name].reshape(-1)
        worst = max(worst, float(np.max(np.abs(a - f) / (np.abs(f) + 1e-8))))
    return worst


@pytest.fixture
def tmp_out(tmp_path):
    return str(tmp_path)


def record_stage_starts(monkeypatch):
    """Weights and trainable names at the start of each stage's training
    loop, recorded by wrapping `train_epochs` as the transfer module calls it."""
    from sparselab import runner, transfer

    starts = []

    def recording(model, *args, **kwargs):
        weights = {n: e.weights.copy() for n, e in model.store.items()}
        starts.append((weights, {n for n, e in model.store.items() if e.trainable}))
        return runner.train_epochs(model, *args, **kwargs)

    monkeypatch.setattr(transfer, "train_epochs", recording)
    return starts


def changed_per_stage(starts, model):
    """(trainable names, names whose weights moved) for each recorded stage."""
    ends = [w for w, _ in starts[1:]] + [{n: e.weights for n, e in model.store.items()}]
    return [
        (names, {n for n in before if not np.array_equal(before[n], after[n])})
        for (before, names), after in zip(starts, ends)
    ]
