"""Desk-scale model zoo: MLP, micro-CNN, tiny transformer.

Models are a ModelSpec (architecture and dims) plus a ParamStore (named
f32 tensors with optional masks and a trainable flag). `loss_and_grad`
tapes the forward pass and returns a gradient for every parameter, masked
or not (the optimizer decides what to ignore); `forward` skips the tape.

Each architecture's facts live in one table, `ARCHS`: its parameters
(`ParamDef`), forward pass, input and output widths and how many dropout
keep flags a training step draws per input row.

Prunable parameters are exactly the weights of linear and convolution
layers, the layers FLOPs are counted over; biases, normalization
parameters and embeddings are never pruned.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, ShapeError
from .rng import Rng

MLP = "mlp"
MICRO_CNN = "micro-cnn"
TINY_TRANSFORMER = "tiny-transformer"

EMBEDDINGS_GROUP = "embeddings"
HEAD_GROUP = "head"


@dataclass(frozen=True)
class ModelSpec:
    arch: str
    # mlp: full chain of layer widths, input first, classes last
    layer_dims: tuple[int, ...] = (784, 256, 128, 10)
    # micro-cnn
    in_channels: int = 1
    image_hw: tuple[int, int] = (28, 28)
    channels: tuple[int, int] = (8, 8)
    kernel: int = 3
    classes: int = 10
    # tiny-transformer
    vocab: int = 16
    max_len: int = 16
    d_model: int = 32
    ff_dim: int = 64
    blocks: int = 2
    dropout: float = 0.0

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        for k, v in vars(self).items():
            sizes = v if isinstance(v, tuple) else (v,)
            if k not in ("arch", "dropout") and any(n < 1 for n in sizes):
                raise ConfigError(f"every model size must be at least 1, got {k} {v}")
        if self.dropout > 0.0 and not ARCHS[self.arch].dropout_draws(self, (1,)):
            raise ConfigError(f"{self.arch} has no dropout layers, so dropout must be 0")
        if self.arch == MLP and len(self.layer_dims) < 2:
            raise ConfigError("mlp needs at least input and output dims")
        if self.arch == MICRO_CNN and (self.image_hw[0] % 4 or self.image_hw[1] % 4):
            raise ConfigError("micro-cnn image sides must be divisible by 4")


@dataclass
class ParamEntry:
    weights: np.ndarray
    mask: np.ndarray | None = None
    trainable: bool = True


class ParamStore:
    """Ordered name -> (weights, optional mask, trainable flag).

    `version` counts the calls to `add` and `set_mask`, so an optimizer that
    holds the weights as views of one vector sees when a mask changed or a
    tensor was added or replaced. Write weights in place."""

    def __init__(self):
        self._entries: dict[str, ParamEntry] = {}
        self.version = 0

    def add(self, name: str, weights: np.ndarray, trainable: bool = True) -> None:
        self._entries[name] = ParamEntry(np.ascontiguousarray(weights, dtype=np.float32), None, trainable)
        self.version += 1

    def __getitem__(self, name: str) -> ParamEntry:
        return self._entries[name]

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def set_mask(self, name: str, mask: np.ndarray | None) -> None:
        entry = self._entries[name]
        self.version += 1
        if mask is None:
            entry.mask = None
            return
        mask = np.array(mask, dtype=np.float32, order="C")  # a copy: the caller's may change
        if mask.shape != entry.weights.shape:
            raise ShapeError(f"mask shape {mask.shape} != weights {entry.weights.shape} for {name}")
        entry.mask = mask
        entry.weights[mask == 0.0] = 0.0

    def masks(self) -> dict[str, np.ndarray]:
        return {n: e.mask for n, e in self._entries.items() if e.mask is not None}


@dataclass(frozen=True)
class ParamDef:
    """One parameter of an architecture. A table lists them in the order
    `build_model` draws them, with the transfer groups front to back."""

    name: str
    shape: tuple[int, ...]
    cls: str  # linear-weight | conv-weight | bias | norm-param | embedding | head-param
    group: str  # embeddings | block_<i> | head
    layer: str
    init: str  # kaiming | uniform (both over fan_in) | normal | ones | zeros
    fan_in: int = 0
    uses: int = 0  # applications per example; only prunable weights have any

    @property
    def prunable(self) -> bool:
        return self.uses > 0

    @property
    def flops(self) -> int:
        """Dense inference FLOPs per example: a multiply and an add per use of each entry."""
        return 2 * math.prod(self.shape) * self.uses


class Model:
    def __init__(self, spec: ModelSpec, store: ParamStore):
        self.spec = spec
        self.store = store
        self.info = {d.name: d for d in ARCHS[spec.arch].params(spec)}

    @property
    def input_dim(self) -> int | None:
        """Features per example, or None when the model reads token ids."""
        return ARCHS[self.spec.arch].input_dim(self.spec)

    def prunable_names(self) -> list[str]:
        return [n for n, d in self.info.items() if d.prunable]

    def prunable_weights(self) -> dict[str, np.ndarray]:
        return {n: self.store[n].weights for n in self.prunable_names()}

    def conv_layers(self) -> dict[str, tuple[np.ndarray, np.ndarray | None]]:
        out = {}
        for n, d in self.info.items():
            if d.cls == "conv-weight":
                e = self.store[n]
                out[d.layer] = (e.weights, e.mask)
        return out

    # -- forward / gradients ------------------------------------------------

    def _param_vars(self, params: dict[str, np.ndarray] | None) -> dict[str, Var]:
        arrays = {n: e.weights for n, e in self.store.items()} if params is None else params
        return {name: Var(arr) for name, arr in arrays.items()}

    def forward(self, x: np.ndarray, *, params: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Evaluation logits: no dropout."""
        pv = self._param_vars(params)
        with ad.no_tape():
            logits = ARCHS[self.spec.arch].forward(self.spec, pv, x, None)
        ad.check_finite(logits.value, "logits")
        return logits.value

    def loss_and_grad(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        *,
        eps: float = 0.0,
        params: dict[str, np.ndarray] | None = None,
        keep: np.ndarray | None = None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Loss plus one gradient tensor per parameter (dense, mask ignored);
        `keep` is the step's dropout keep flags, or None for no dropout."""
        pv = self._param_vars(params)
        logits = ARCHS[self.spec.arch].forward(self.spec, pv, x, keep)
        loss = ad.cross_entropy_mean(logits, labels, eps)
        ad.check_finite(loss.value, "loss")
        ad.backward(loss)
        grads = {
            name: (v.grad if v.grad is not None else np.zeros_like(v.value))
            for name, v in pv.items()
        }
        return float(loss.value), grads


# -- the architectures ------------------------------------------------------


def _layer(layer: str, shape: tuple[int, ...], group: str, cls: str, init: str, fan_in: int,
           uses: int) -> list[ParamDef]:
    """A weight and its bias, one per output unit (the first dim of a
    convolution, the last of a linear map). A uniform weight's bias is uniform
    over the same fan-in; a normal weight's bias starts at zero."""
    n_out = shape[0] if cls == "conv-weight" else shape[-1]
    return [
        ParamDef(f"{layer}.weight", shape, cls, group, layer, init, fan_in, uses),
        ParamDef(f"{layer}.bias", (n_out,), "head-param" if cls == "head-param" else "bias",
                 group, layer, "uniform" if init == "kaiming" else "zeros", fan_in),
    ]


def _norm(layer: str, d: int, group: str) -> list[ParamDef]:
    return [
        ParamDef(f"{layer}.scale", (d,), "norm-param", group, layer, "ones"),
        ParamDef(f"{layer}.bias", (d,), "norm-param", group, layer, "zeros"),
    ]


def _mlp_params(s: ModelSpec) -> list[ParamDef]:
    dims = s.layer_dims
    n_layers = len(dims) - 1
    defs = []
    for i in range(1, n_layers + 1):
        if i == 1:
            group = EMBEDDINGS_GROUP
        elif i == n_layers:
            group = HEAD_GROUP
        else:
            group = f"block_{i - 1}"
        cls = "head-param" if group == HEAD_GROUP else "linear-weight"
        defs += _layer(f"fc{i}", (dims[i - 1], dims[i]), group, cls, "kaiming", dims[i - 1], 1)
    return defs


def _cnn_params(s: ModelSpec) -> list[ParamDef]:
    (H, W), (c1, c2), k = s.image_hw, s.channels, s.kernel
    head_in = c2 * (H // 4) * (W // 4)
    # same-padded convolutions: conv1 runs at full resolution, conv2 after one 2x2 pool
    return (
        _layer("conv1", (c1, s.in_channels, k, k), EMBEDDINGS_GROUP, "conv-weight", "kaiming",
               s.in_channels * k * k, H * W)
        + _layer("conv2", (c2, c1, k, k), "block_1", "conv-weight", "kaiming", c1 * k * k,
                 (H // 2) * (W // 2))
        + _layer("head", (head_in, s.classes), HEAD_GROUP, "head-param", "kaiming", head_in, 1)
    )


def _transformer_params(s: ModelSpec) -> list[ParamDef]:
    d, f, T = s.d_model, s.ff_dim, s.max_len
    defs = [
        ParamDef(f"{emb}.weight", (rows, d), "embedding", EMBEDDINGS_GROUP, emb, "normal")
        for emb, rows in (("tok_emb", s.vocab), ("pos_emb", T))
    ]
    for i in range(1, s.blocks + 1):
        b, g = f"block{i}", f"block_{i}"
        defs += _norm(f"{b}.ln1", d, g) + _norm(f"{b}.ln2", d, g)
        for lin, shape in (
            ("attn.wq", (d, d)), ("attn.wk", (d, d)), ("attn.wv", (d, d)), ("attn.wo", (d, d)),
            ("ff.w1", (d, f)), ("ff.w2", (f, d)),
        ):
            # FLOPs are counted at the longest sequence
            defs += _layer(f"{b}.{lin}", shape, g, "linear-weight", "normal", 0, T)
    return (
        defs + _norm("final_ln", d, HEAD_GROUP)
        + _layer("head", (d, s.classes), HEAD_GROUP, "head-param", "normal", 0, 1)
    )


def _forward_mlp(s: ModelSpec, pv: dict[str, Var], x: np.ndarray, keep) -> Var:
    dims = s.layer_dims
    x = np.ascontiguousarray(x, dtype=pv["fc1.weight"].value.dtype)
    if x.ndim != 2 or x.shape[1] != dims[0]:
        raise ShapeError(f"mlp input {x.shape}, expected (batch, {dims[0]})")
    h = Var(x, const=True)
    n_layers = len(dims) - 1
    for i in range(1, n_layers + 1):
        h = ad.linear(h, pv[f"fc{i}.weight"], pv[f"fc{i}.bias"])
        if i < n_layers:
            h = ad.relu(h)
    return h


def _forward_cnn(s: ModelSpec, pv: dict[str, Var], x: np.ndarray, keep) -> Var:
    """(B, C*H*W) rows or (B, C, H, W) images; the maps run batch innermost,
    as (C, H, W, B), and the head reads (c, h, w)-ordered feature rows."""
    C, (H, W) = s.in_channels, s.image_hw
    x = np.ascontiguousarray(x, dtype=pv["conv1.weight"].value.dtype)
    if x.shape[1:] not in ((C * H * W,), (C, H, W)):
        raise ShapeError(f"cnn input {x.shape}, expected (B, {C * H * W}) or (B, {C}, {H}, {W})")
    h = Var(x.reshape(len(x), C * H * W).T.reshape(C, H, W, len(x)), const=True)
    h = ad.relu(ad.conv2d(h, pv["conv1.weight"], pv["conv1.bias"], pad=1))
    h = ad.avg_pool2d(h)
    h = ad.relu(ad.conv2d(h, pv["conv2.weight"], pv["conv2.bias"], pad=1))
    h = ad.avg_pool2d(h)
    return ad.linear(ad.batch_rows(h), pv["head.weight"], pv["head.bias"])


def _forward_transformer(s: ModelSpec, pv: dict[str, Var], ids: np.ndarray, keep) -> Var:
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] > s.max_len:
        raise ShapeError(f"token input {ids.shape}, max_len {s.max_len}")
    T = ids.shape[1]
    h = ad.add(ad.embedding(pv["tok_emb.weight"], ids), ad.take_rows(pv["pos_emb.weight"], T))
    inv_sqrt_d = 1.0 / math.sqrt(s.d_model)
    if keep is not None:  # the 2 sites per block, each site's row in forward order
        keep = keep.reshape(2 * s.blocks, -1)
    for i in range(1, s.blocks + 1):
        b = f"block{i}"
        pre = ad.layer_norm(h, pv[f"{b}.ln1.scale"], pv[f"{b}.ln1.bias"])
        q = ad.linear(pre, pv[f"{b}.attn.wq.weight"], pv[f"{b}.attn.wq.bias"])
        k = ad.linear(pre, pv[f"{b}.attn.wk.weight"], pv[f"{b}.attn.wk.bias"])
        v = ad.linear(pre, pv[f"{b}.attn.wv.weight"], pv[f"{b}.attn.wv.bias"])
        ctx = ad.attention(q, k, v, inv_sqrt_d)
        proj = ad.linear(ctx, pv[f"{b}.attn.wo.weight"], pv[f"{b}.attn.wo.bias"])
        if keep is not None:
            proj = ad.dropout(proj, s.dropout, keep[2 * i - 2])
        h = ad.add(h, proj)
        pre2 = ad.layer_norm(h, pv[f"{b}.ln2.scale"], pv[f"{b}.ln2.bias"])
        f1 = ad.relu(ad.linear(pre2, pv[f"{b}.ff.w1.weight"], pv[f"{b}.ff.w1.bias"]))
        f2 = ad.linear(f1, pv[f"{b}.ff.w2.weight"], pv[f"{b}.ff.w2.bias"])
        if keep is not None:
            f2 = ad.dropout(f2, s.dropout, keep[2 * i - 1])
        h = ad.add(h, f2)
    h = ad.layer_norm(h, pv["final_ln.scale"], pv["final_ln.bias"])
    pooled = ad.mean_axis(h, 1)
    return ad.linear(pooled, pv["head.weight"], pv["head.bias"])


@dataclass(frozen=True)
class Architecture:
    params: Callable[[ModelSpec], list[ParamDef]]
    forward: Callable[..., Var]  # (spec, param vars, input, keep flags or None) -> logits
    input_dim: Callable[[ModelSpec], int | None]  # None: token ids
    output_dim: Callable[[ModelSpec], int]
    dropout_draws: Callable[..., int]  # (spec, input row shape) -> keep flags per row; 0: none


ARCHS = {
    MLP: Architecture(
        _mlp_params, _forward_mlp, lambda s: s.layer_dims[0], lambda s: s.layer_dims[-1],
        lambda s, row: 0,
    ),
    MICRO_CNN: Architecture(
        _cnn_params, _forward_cnn, lambda s: s.in_channels * s.image_hw[0] * s.image_hw[1],
        lambda s: s.classes, lambda s, row: 0,
    ),
    TINY_TRANSFORMER: Architecture(
        _transformer_params, _forward_transformer, lambda s: None, lambda s: s.classes,
        lambda s, row: 2 * s.blocks * s.d_model * row[0] if s.dropout > 0.0 else 0,
    ),
}


# -- construction -----------------------------------------------------------


def _init(rng: Rng, d: ParamDef, kind: str) -> np.ndarray:
    if kind == "ones":
        return np.ones(d.shape, dtype=np.float32)
    if kind == "zeros":
        return np.zeros(d.shape, dtype=np.float32)
    n = math.prod(d.shape)
    if kind == "normal":
        return (rng.normals(n) * 0.02).reshape(d.shape).astype(np.float32)
    bound = math.sqrt(6.0 / d.fan_in) if kind == "kaiming" else 1.0 / math.sqrt(d.fan_in)
    return ((rng.uniforms(n) * 2.0 - 1.0) * bound).reshape(d.shape).astype(np.float32)


def build_model(spec: ModelSpec, rng: Rng) -> Model:
    model = Model(spec, ParamStore())
    for d in model.info.values():
        model.store.add(d.name, _init(rng, d, d.init))
    return model


def reinit_head(model: Model, rng: Rng) -> None:
    """Freshly initialize the classifier head (used by transfer recipes).

    A head parameter that starts at zero (the tiny transformer's bias) is
    redrawn from the normal init, like its weight."""
    for d in model.info.values():
        if d.cls == "head-param":
            kind = "normal" if d.init == "zeros" else d.init
            model.store[d.name].weights[...] = _init(rng, d, kind)
            model.store.set_mask(d.name, None)
