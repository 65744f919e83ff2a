"""Minimal reverse-mode automatic differentiation over numpy arrays.

A `Var` wraps an ndarray and remembers how it was produced; `backward`
walks the tape in reverse topological order and accumulates gradients.
Inside `no_tape()` a `Var` keeps no tape, so each intermediate is freed as
soon as the next op has read it. A `const` leaf (input data) gets no gradient.
The engine is strictly first order: anything second order in the package
is built from finite differences of these gradients.

Ops preserve the dtype of their inputs, so the same graph runs in f32 for
training and in f64 when a test wants a high-precision oracle.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ShapeError


_taping = True


@contextmanager
def no_tape():
    """Build Vars without parents or backward closures, like `torch.no_grad`."""
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


class Var:
    __slots__ = ("value", "grad", "const", "_parents", "_backprop")

    def __init__(self, value, parents=(), backprop=None, const=False):
        self.value = np.asarray(value)
        self.grad = None
        self.const = const
        self._parents = parents if _taping else ()
        self._backprop = backprop if _taping else None

    @property
    def shape(self):
        return self.value.shape


def backward(root: Var) -> None:
    """Accumulate gradients of `root` (a scalar) into every tape node."""
    topo: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node._backprop is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backprop(node.grad)):
            if g is None:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a: Var, b: Var) -> Var:
    out = a.value + b.value

    def back(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Var(out, (a, b), back)


def scale(a: Var, c: float) -> Var:
    c = a.value.dtype.type(c)
    return Var(a.value * c, (a,), lambda g: (g * c,))


def matmul(a: Var, b: Var) -> Var:
    out = np.matmul(a.value, b.value)

    def back(g):
        gb = _unbroadcast(np.matmul(np.swapaxes(a.value, -1, -2), g), b.value.shape)
        if a.const:
            return None, gb
        return _unbroadcast(np.matmul(g, np.swapaxes(b.value, -1, -2)), a.value.shape), gb

    return Var(out, (a, b), back)


def relu(a: Var) -> Var:
    # branch-free; + 0 turns the -0.0 that fmax may return into np.where's +0.0
    out = np.fmax(a.value, 0)
    out += 0
    return Var(out, (a,), lambda g: (g * (out > 0),))


def reshape(a: Var, shape: tuple) -> Var:
    orig = a.value.shape
    return Var(a.value.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def swap_last2(a: Var) -> Var:
    return Var(np.swapaxes(a.value, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def mean_axis(a: Var, axis: int) -> Var:
    n = a.value.shape[axis]
    out = a.value.mean(axis=axis)

    def back(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return Var(out, (a,), back)


def softmax_last(a: Var) -> Var:
    z = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        return ((g - (g * p).sum(axis=-1, keepdims=True)) * p,)

    return Var(p, (a,), back)


def layer_norm(x: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    """Normalization over the last axis with trainable scale and shift."""
    v = x.value
    n = v.shape[-1]
    mu = v.mean(axis=-1, keepdims=True)
    xc = v - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + v.dtype.type(eps))
    inv = inv.astype(v.dtype)
    xhat = xc * inv
    out = gamma.value * xhat + beta.value

    def back(g):
        reduce_axes = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=reduce_axes).reshape(gamma.value.shape)
        dbeta = g.sum(axis=reduce_axes).reshape(beta.value.shape)
        dxhat = g * gamma.value
        dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
        dmu = -(dxhat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 / n) * xc.sum(
            axis=-1, keepdims=True
        )
        dx = dxhat * inv + dvar * (2.0 / n) * xc + dmu / n
        return dx.astype(v.dtype), dgamma, dbeta

    return Var(out, (x, gamma, beta), back)


def take_rows(a: Var, n: int) -> Var:
    """First n rows; gradient scatters back into the full table."""
    out = a.value[:n]

    def back(g):
        ga = np.zeros_like(a.value)
        ga[:n] = g
        return (ga,)

    return Var(out, (a,), back)


def embedding(table: Var, ids: np.ndarray) -> Var:
    out = table.value[ids]

    def back(g):
        gt = np.zeros_like(table.value)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.value.shape[-1]))
        return (gt,)

    return Var(out, (table,), back)


_conv_index_cache: dict = {}


def _conv_indices(C: int, hp: int, wp: int, kh: int, kw: int, ho: int, wo: int) -> np.ndarray:
    """Flat gather indices turning a padded (C, hp, wp) map into im2col rows."""
    key = (C, hp, wp, kh, kw, ho, wo)
    idx = _conv_index_cache.get(key)
    if idx is None:
        c = np.arange(C)[:, None, None, None, None]
        ki = np.arange(kh)[None, :, None, None, None]
        kj = np.arange(kw)[None, None, :, None, None]
        oi = np.arange(ho)[None, None, None, :, None]
        oj = np.arange(wo)[None, None, None, None, :]
        idx = (c * hp * wp + (ki + oi) * wp + (kj + oj)).reshape(C * kh * kw, ho * wo)
        _conv_index_cache[key] = idx
    return idx


def conv2d(x: Var, w: Var, b: Var, pad: int = 1) -> Var:
    """Stride-1 2D convolution via im2col; x (B,C,H,W), w (O,C,kH,kW), b (O,)."""
    xv, wv = x.value, w.value
    if xv.ndim != 4 or wv.ndim != 4 or xv.shape[1] != wv.shape[1]:
        raise ShapeError(f"conv2d shapes {xv.shape} x {wv.shape}")
    B, C, H, W = xv.shape
    O, _, kh, kw = wv.shape
    xp = np.pad(xv, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hp, wp = H + 2 * pad, W + 2 * pad
    ho, wo = hp - kh + 1, wp - kw + 1
    idx = _conv_indices(C, hp, wp, kh, kw, ho, wo)
    cols = xp.reshape(B, C * hp * wp)[:, idx]  # (B, C*kh*kw, ho*wo)
    w2 = wv.reshape(O, C * kh * kw)
    out = (np.matmul(w2, cols) + b.value[None, :, None]).reshape(B, O, ho, wo)

    def back(g):
        g2 = g.reshape(B, O, ho * wo)
        # one small GEMM per sample, then a sum over the batch: a single GEMM over
        # B*ho*wo is large enough for OpenBLAS to split across threads, and on a
        # shared 2-core machine that hand-off sometimes costs ~2 ms a call
        gw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(wv.shape)
        gb = g.sum(axis=(0, 2, 3))
        if x.const:
            return None, gw, gb
        # col2im in a (hp, wp, B*C) buffer, so each += runs over a contiguous
        # innermost axis; every element still sums its terms in (ki, kj) order
        gcols = np.matmul(w2.T, g2).reshape(B * C, kh, kw, ho, wo).transpose(1, 2, 3, 4, 0)
        gxp = np.zeros((hp, wp, B * C), dtype=xp.dtype)
        for ki in range(kh):
            for kj in range(kw):
                gxp[ki : ki + ho, kj : kj + wo] += gcols[ki, kj]
        gx = gxp[pad : pad + H, pad : pad + W].transpose(2, 0, 1).reshape(B, C, H, W)
        return gx, gw, gb

    return Var(out, (x, w, b), back)


def avg_pool2d(x: Var) -> Var:
    """2x2 average pooling with stride 2.

    The four taps are summed as (v00 + v01) + (v10 + v11), the order in which
    `mean` over the two window axes sums them, so outputs match it bit for bit.
    """
    B, C, H, W = x.value.shape
    if H % 2 or W % 2:
        raise ShapeError(f"avg_pool2d: {H}x{W} not divisible by 2")
    v = x.value.reshape(B, C, H // 2, 2, W // 2, 2)
    out = ((v[..., 0, :, 0] + v[..., 0, :, 1]) + (v[..., 1, :, 0] + v[..., 1, :, 1])) / 4

    def back(g):
        # repeating the quarter-size g / 4 is faster here than one broadcast copy
        gx = np.repeat(np.repeat(g / 4, 2, axis=3), 2, axis=2)
        return (gx.astype(x.value.dtype, copy=False),)

    return Var(out, (x,), back)


def dropout(x: Var, p: float, uniforms: np.ndarray) -> Var:
    """Inverted dropout; `uniforms` supplies one draw per element."""
    keep = (uniforms.reshape(x.value.shape) >= p).astype(x.value.dtype) / x.value.dtype.type(
        1.0 - p
    )
    return Var(x.value * keep, (x,), lambda g: (g * keep,))


def cross_entropy_mean(logits: Var, labels: np.ndarray, eps: float = 0.0) -> Var:
    """Mean cross-entropy over the batch against (optionally smoothed) targets.

    With smoothing eps the target puts 1-eps on the label and eps/C uniformly.
    """
    z = logits.value
    B, C = z.shape
    if labels.min() < 0 or labels.max() >= C:
        raise ShapeError("label out of range")
    m = z.max(axis=1, keepdims=True)
    zs = z - m
    lse = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    logp = zs - lse
    target = np.full((B, C), eps / C, dtype=z.dtype)
    target[np.arange(B), labels] += z.dtype.type(1.0 - eps)
    out = np.asarray(-(target * logp).sum() / B, dtype=z.dtype)

    def back(g):
        p = np.exp(logp)
        return (g * (p - target) / z.dtype.type(B),)

    return Var(out, (logits,), back)


def check_finite(value: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(value)):
        from .errors import NonFiniteError

        raise NonFiniteError(f"non-finite values in {what}")
