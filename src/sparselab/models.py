"""Desk-scale model zoo: MLP, micro-CNN, tiny transformer.

Models are a ModelSpec (architecture and dims) plus a ParamStore (named
f32 tensors with optional masks and a trainable flag). The forward pass
is built on the autodiff tape each call, so gradients are available for
every parameter, masked or not; the optimizer decides what to ignore.

Prunable parameters are exactly the weights of linear and convolution
layers; biases, normalization parameters and embeddings are never pruned.
"""

from __future__ import annotations

import math
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
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.dropout > 0.0 and self.arch != TINY_TRANSFORMER:
            raise ConfigError(f"{self.arch} has no dropout layers, so dropout must be 0")

    def to_dict(self) -> dict:
        return {
            "arch": self.arch,
            "layer_dims": list(self.layer_dims),
            "in_channels": self.in_channels,
            "image_hw": list(self.image_hw),
            "channels": list(self.channels),
            "kernel": self.kernel,
            "classes": self.classes,
            "vocab": self.vocab,
            "max_len": self.max_len,
            "d_model": self.d_model,
            "ff_dim": self.ff_dim,
            "blocks": self.blocks,
            "dropout": self.dropout,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        d = dict(d)
        for key in ("layer_dims", "image_hw", "channels"):
            if key in d:
                d[key] = tuple(d[key])
        return ModelSpec(**d)


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


@dataclass
class ParamInfo:
    cls: str  # linear-weight | conv-weight | bias | norm-param | embedding | head-param
    prunable: bool
    group: str  # embeddings | block_<i> | head
    layer: str


@dataclass
class ParamEntry:
    weights: np.ndarray
    mask: np.ndarray | None = None
    trainable: bool = True


class ParamStore:
    """Ordered name -> (weights, optional mask, trainable flag)."""

    def __init__(self):
        self._entries: dict[str, ParamEntry] = {}

    def add(self, name: str, weights: np.ndarray, trainable: bool = True) -> None:
        self._entries[name] = ParamEntry(np.ascontiguousarray(weights, dtype=np.float32), None, trainable)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> ParamEntry:
        return self._entries[name]

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def set_mask(self, name: str, mask: np.ndarray | None) -> None:
        entry = self._entries[name]
        if mask is None:
            entry.mask = None
            return
        mask = np.ascontiguousarray(mask, dtype=np.float32)
        if mask.shape != entry.weights.shape:
            raise ShapeError(f"mask shape {mask.shape} != weights {entry.weights.shape} for {name}")
        entry.mask = mask
        entry.weights[mask == 0.0] = 0.0

    def masks(self) -> dict[str, np.ndarray]:
        return {n: e.mask for n, e in self._entries.items() if e.mask is not None}

    def weight_arrays(self) -> dict[str, np.ndarray]:
        return {n: e.weights for n, e in self._entries.items()}

    def clone(self) -> "ParamStore":
        out = ParamStore()
        for name, e in self._entries.items():
            out._entries[name] = ParamEntry(
                e.weights.copy(), None if e.mask is None else e.mask.copy(), e.trainable
            )
        return out

    def num_params(self) -> int:
        return sum(e.weights.size for e in self._entries.values())


class Model:
    def __init__(self, spec: ModelSpec, store: ParamStore, info: dict[str, ParamInfo]):
        self.spec = spec
        self.store = store
        self.info = info

    @property
    def input_kind(self) -> str:
        return "tokens" if self.spec.arch == TINY_TRANSFORMER else "vector"

    def prunable_names(self) -> list[str]:
        return [n for n in self.store.names() if self.info[n].prunable]

    def prunable_weights(self) -> dict[str, np.ndarray]:
        return {n: self.store[n].weights for n in self.prunable_names()}

    def conv_layers(self) -> dict[str, tuple[np.ndarray, np.ndarray | None]]:
        out = {}
        for n in self.store.names():
            if self.info[n].cls == "conv-weight":
                e = self.store[n]
                out[self.info[n].layer] = (e.weights, e.mask)
        return out

    # -- forward / gradients ------------------------------------------------

    def _param_vars(self, params: dict[str, np.ndarray] | None) -> dict[str, Var]:
        arrays = self.store.weight_arrays() if params is None else params
        return {name: Var(arr) for name, arr in arrays.items()}

    def _forward_var(self, pv: dict[str, Var], x: np.ndarray, train: bool, dropout_rng: Rng | None) -> Var:
        arch = self.spec.arch
        if arch == MLP:
            return self._forward_mlp(pv, x)
        if arch == MICRO_CNN:
            return self._forward_cnn(pv, x)
        if arch == TINY_TRANSFORMER:
            return self._forward_transformer(pv, x, train, dropout_rng)
        raise ConfigError(f"unknown architecture {arch!r}")

    def _cast_input(self, pv: dict[str, Var], x: np.ndarray) -> np.ndarray:
        dtype = next(iter(pv.values())).value.dtype
        return np.ascontiguousarray(x, dtype=dtype)

    def _forward_mlp(self, pv: dict[str, Var], x: np.ndarray) -> Var:
        dims = self.spec.layer_dims
        x = self._cast_input(pv, x)
        if x.ndim != 2 or x.shape[1] != dims[0]:
            raise ShapeError(f"mlp input {x.shape}, expected (batch, {dims[0]})")
        h = Var(x)
        n_layers = len(dims) - 1
        for i in range(1, n_layers + 1):
            h = ad.add(ad.matmul(h, pv[f"fc{i}.weight"]), pv[f"fc{i}.bias"])
            if i < n_layers:
                h = ad.relu(h)
        return h

    def _forward_cnn(self, pv: dict[str, Var], x: np.ndarray) -> Var:
        s = self.spec
        H, W = s.image_hw
        x = self._cast_input(pv, x)
        if x.ndim == 2:
            if x.shape[1] != s.in_channels * H * W:
                raise ShapeError(f"cnn input {x.shape}, expected (batch, {s.in_channels * H * W})")
            x = x.reshape(-1, s.in_channels, H, W)
        h = Var(x)
        h = ad.relu(ad.conv2d(h, pv["conv1.weight"], pv["conv1.bias"], pad=1))
        h = ad.avg_pool2d(h, 2)
        h = ad.relu(ad.conv2d(h, pv["conv2.weight"], pv["conv2.bias"], pad=1))
        h = ad.avg_pool2d(h, 2)
        h = ad.reshape(h, (h.shape[0], -1))
        return ad.add(ad.matmul(h, pv["head.weight"]), pv["head.bias"])

    def _forward_transformer(
        self, pv: dict[str, Var], ids: np.ndarray, train: bool, dropout_rng: Rng | None
    ) -> Var:
        s = self.spec
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] > s.max_len:
            raise ShapeError(f"token input {ids.shape}, max_len {s.max_len}")
        T = ids.shape[1]
        h = ad.add(ad.embedding(pv["tok_emb.weight"], ids), ad.take_rows(pv["pos_emb.weight"], T))
        inv_sqrt_d = 1.0 / math.sqrt(s.d_model)
        use_dropout = train and s.dropout > 0.0 and dropout_rng is not None
        for i in range(1, s.blocks + 1):
            b = f"block{i}"
            pre = ad.layer_norm(h, pv[f"{b}.ln1.scale"], pv[f"{b}.ln1.bias"])
            q = ad.add(ad.matmul(pre, pv[f"{b}.attn.wq.weight"]), pv[f"{b}.attn.wq.bias"])
            k = ad.add(ad.matmul(pre, pv[f"{b}.attn.wk.weight"]), pv[f"{b}.attn.wk.bias"])
            v = ad.add(ad.matmul(pre, pv[f"{b}.attn.wv.weight"]), pv[f"{b}.attn.wv.bias"])
            attn = ad.softmax_last(ad.scale(ad.matmul(q, ad.swap_last2(k)), inv_sqrt_d))
            ctx = ad.matmul(attn, v)
            proj = ad.add(ad.matmul(ctx, pv[f"{b}.attn.wo.weight"]), pv[f"{b}.attn.wo.bias"])
            if use_dropout:
                proj = ad.dropout(proj, s.dropout, dropout_rng.uniforms(proj.value.size))
            h = ad.add(h, proj)
            pre2 = ad.layer_norm(h, pv[f"{b}.ln2.scale"], pv[f"{b}.ln2.bias"])
            f1 = ad.relu(ad.add(ad.matmul(pre2, pv[f"{b}.ff.w1.weight"]), pv[f"{b}.ff.w1.bias"]))
            f2 = ad.add(ad.matmul(f1, pv[f"{b}.ff.w2.weight"]), pv[f"{b}.ff.w2.bias"])
            if use_dropout:
                f2 = ad.dropout(f2, s.dropout, dropout_rng.uniforms(f2.value.size))
            h = ad.add(h, f2)
        h = ad.layer_norm(h, pv["final_ln.scale"], pv["final_ln.bias"])
        pooled = ad.mean_axis(h, 1)
        return ad.add(ad.matmul(pooled, pv["head.weight"]), pv["head.bias"])

    def forward(
        self,
        x: np.ndarray,
        *,
        params: dict[str, np.ndarray] | None = None,
        train: bool = False,
        dropout_rng: Rng | None = None,
    ) -> np.ndarray:
        pv = self._param_vars(params)
        logits = self._forward_var(pv, x, train, dropout_rng)
        ad.check_finite(logits.value, "logits")
        return logits.value

    def loss(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        *,
        eps: float = 0.0,
        params: dict[str, np.ndarray] | None = None,
    ) -> float:
        pv = self._param_vars(params)
        logits = self._forward_var(pv, x, False, None)
        loss = ad.cross_entropy_mean(logits, labels, eps)
        ad.check_finite(loss.value, "loss")
        return float(loss.value)

    def loss_and_grad(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        *,
        eps: float = 0.0,
        params: dict[str, np.ndarray] | None = None,
        train: bool = False,
        dropout_rng: Rng | None = None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Loss plus one gradient tensor per parameter (dense, mask ignored)."""
        pv = self._param_vars(params)
        logits = self._forward_var(pv, x, train, dropout_rng)
        loss = ad.cross_entropy_mean(logits, labels, eps)
        ad.check_finite(loss.value, "loss")
        ad.backward(loss)
        grads = {
            name: (v.grad if v.grad is not None else np.zeros_like(v.value))
            for name, v in pv.items()
        }
        return float(loss.value), grads

    # -- bookkeeping for diagnostics ----------------------------------------

    def layer_flops(self) -> list[tuple[str, str, int]]:
        """(layer, weight param name, dense inference FLOPs) per counted layer.

        Linear layers count 2*m*n per application (times tokens for the
        transformer); convolutions 2*out*in*kh*kw*H_out*W_out.
        """
        s = self.spec
        out = []
        if s.arch == MLP:
            dims = s.layer_dims
            for i in range(1, len(dims)):
                out.append((f"fc{i}", f"fc{i}.weight", 2 * dims[i - 1] * dims[i]))
        elif s.arch == MICRO_CNN:
            H, W = s.image_hw
            c1, c2 = s.channels
            k = s.kernel
            out.append(("conv1", "conv1.weight", 2 * c1 * s.in_channels * k * k * H * W))
            h2, w2 = H // 2, W // 2
            out.append(("conv2", "conv2.weight", 2 * c2 * c1 * k * k * h2 * w2))
            head_in = c2 * (H // 4) * (W // 4)
            out.append(("head", "head.weight", 2 * head_in * s.classes))
        elif s.arch == TINY_TRANSFORMER:
            d, f, T = s.d_model, s.ff_dim, s.max_len
            for i in range(1, s.blocks + 1):
                b = f"block{i}"
                for lin in ("attn.wq", "attn.wk", "attn.wv", "attn.wo"):
                    out.append((f"{b}.{lin}", f"{b}.{lin}.weight", 2 * d * d * T))
                out.append((f"{b}.ff.w1", f"{b}.ff.w1.weight", 2 * d * f * T))
                out.append((f"{b}.ff.w2", f"{b}.ff.w2.weight", 2 * f * d * T))
            out.append(("head", "head.weight", 2 * d * s.classes))
        else:
            raise ConfigError(f"unknown architecture {s.arch!r}")
        return out


# -- construction -----------------------------------------------------------


def _kaiming_uniform(rng: Rng, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    n = int(np.prod(shape))
    return ((rng.uniforms(n) * 2.0 - 1.0) * bound).reshape(shape).astype(np.float32)


def _bias_uniform(rng: Rng, n: int, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return ((rng.uniforms(n) * 2.0 - 1.0) * bound).astype(np.float32)


def build_model(spec: ModelSpec, rng: Rng) -> Model:
    store = ParamStore()
    info: dict[str, ParamInfo] = {}

    def put(name, arr, cls, prunable, group, layer):
        store.add(name, arr)
        info[name] = ParamInfo(cls=cls, prunable=prunable, group=group, layer=layer)

    if spec.arch == MLP:
        dims = spec.layer_dims
        if len(dims) < 2:
            raise ConfigError("mlp needs at least input and output dims")
        n_layers = len(dims) - 1
        for i in range(1, n_layers + 1):
            fan_in = dims[i - 1]
            layer = f"fc{i}"
            if i == 1:
                group = EMBEDDINGS_GROUP
            elif i == n_layers:
                group = HEAD_GROUP
            else:
                group = f"block_{i - 1}"
            w_cls = "head-param" if group == HEAD_GROUP else "linear-weight"
            b_cls = "head-param" if group == HEAD_GROUP else "bias"
            put(f"{layer}.weight", _kaiming_uniform(rng, (dims[i - 1], dims[i]), fan_in),
                w_cls, True, group, layer)
            put(f"{layer}.bias", _bias_uniform(rng, dims[i], fan_in), b_cls, False, group, layer)
    elif spec.arch == MICRO_CNN:
        c1, c2 = spec.channels
        k = spec.kernel
        H, W = spec.image_hw
        if H % 4 or W % 4:
            raise ConfigError("micro-cnn image sides must be divisible by 4")
        fan1 = spec.in_channels * k * k
        put("conv1.weight", _kaiming_uniform(rng, (c1, spec.in_channels, k, k), fan1),
            "conv-weight", True, EMBEDDINGS_GROUP, "conv1")
        put("conv1.bias", _bias_uniform(rng, c1, fan1), "bias", False, EMBEDDINGS_GROUP, "conv1")
        fan2 = c1 * k * k
        put("conv2.weight", _kaiming_uniform(rng, (c2, c1, k, k), fan2),
            "conv-weight", True, "block_1", "conv2")
        put("conv2.bias", _bias_uniform(rng, c2, fan2), "bias", False, "block_1", "conv2")
        head_in = c2 * (H // 4) * (W // 4)
        put("head.weight", _kaiming_uniform(rng, (head_in, spec.classes), head_in),
            "head-param", True, HEAD_GROUP, "head")
        put("head.bias", _bias_uniform(rng, spec.classes, head_in),
            "head-param", False, HEAD_GROUP, "head")
    elif spec.arch == TINY_TRANSFORMER:
        d, f = spec.d_model, spec.ff_dim

        def normal(shape):
            return (rng.normals(int(np.prod(shape))) * 0.02).reshape(shape).astype(np.float32)

        put("tok_emb.weight", normal((spec.vocab, d)), "embedding", False, EMBEDDINGS_GROUP, "tok_emb")
        put("pos_emb.weight", normal((spec.max_len, d)), "embedding", False, EMBEDDINGS_GROUP, "pos_emb")
        for i in range(1, spec.blocks + 1):
            b = f"block{i}"
            g = f"block_{i}"
            for ln in ("ln1", "ln2"):
                put(f"{b}.{ln}.scale", np.ones(d, dtype=np.float32), "norm-param", False, g, f"{b}.{ln}")
                put(f"{b}.{ln}.bias", np.zeros(d, dtype=np.float32), "norm-param", False, g, f"{b}.{ln}")
            for lin, (m, n) in (
                ("attn.wq", (d, d)), ("attn.wk", (d, d)), ("attn.wv", (d, d)), ("attn.wo", (d, d)),
                ("ff.w1", (d, f)), ("ff.w2", (f, d)),
            ):
                put(f"{b}.{lin}.weight", normal((m, n)), "linear-weight", True, g, f"{b}.{lin}")
                put(f"{b}.{lin}.bias", np.zeros(n, dtype=np.float32), "bias", False, g, f"{b}.{lin}")
        put("final_ln.scale", np.ones(d, dtype=np.float32), "norm-param", False, HEAD_GROUP, "final_ln")
        put("final_ln.bias", np.zeros(d, dtype=np.float32), "norm-param", False, HEAD_GROUP, "final_ln")
        put("head.weight", normal((d, spec.classes)), "head-param", True, HEAD_GROUP, "head")
        put("head.bias", np.zeros(spec.classes, dtype=np.float32), "head-param", False, HEAD_GROUP, "head")
    else:
        raise ConfigError(f"unknown architecture {spec.arch!r}")

    return Model(spec, store, info)


def reinit_head(model: Model, rng: Rng) -> None:
    """Freshly initialize the classifier head (used by transfer recipes)."""
    for name in model.store.names():
        if model.info[name].group != HEAD_GROUP or model.info[name].cls == "norm-param":
            continue
        arr = model.store[name].weights
        if model.spec.arch == TINY_TRANSFORMER:
            fresh = (rng.normals(arr.size) * 0.02).reshape(arr.shape).astype(np.float32)
        elif name.endswith(".weight"):
            fresh = _kaiming_uniform(rng, arr.shape, arr.shape[0])
        else:
            fan_in = model.store[name.replace(".bias", ".weight")].weights.shape[0]
            fresh = _bias_uniform(rng, arr.size, fan_in)
        arr[...] = fresh
        model.store.set_mask(name, None)
