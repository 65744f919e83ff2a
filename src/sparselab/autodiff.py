"""Minimal reverse-mode automatic differentiation over numpy arrays.

A `Var` wraps an ndarray and remembers how it was produced; `backward`
walks the tape in reverse creation order and accumulates gradients.
Inside `no_tape()` a `Var` keeps no tape, so each intermediate is freed as
soon as the next op has read it. A `const` leaf (input data) gets no gradient.
The engine is strictly first order: anything second order in the package
is built from finite differences of these gradients.

Ops preserve the dtype of their inputs, so the same graph runs in f32 for
training and in f64 when a test wants a high-precision oracle.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from itertools import count

import numpy as np

from .errors import ShapeError


_taping = True
_created = count()


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
    __slots__ = ("value", "grad", "const", "_parents", "_backprop", "_seq")

    def __init__(self, value, parents=(), backprop=None, const=False):
        self.value = np.asarray(value)
        self.grad = None
        self.const = const
        self._parents = parents if _taping else ()
        self._backprop = backprop if _taping else None
        self._seq = next(_created)  # creation order: every input precedes its op

    @property
    def shape(self):
        return self.value.shape


def backward(root: Var) -> None:
    """Accumulate gradients of `root` (a scalar) into every tape node.

    Nodes run in reverse creation order, so a node runs after every op that
    read it. A node read several times sums its gradient terms in the order
    of those reads in the forward pass: (g1 + g2) + g3.
    """
    root.grad = np.ones_like(root.value)
    heap = [(-root._seq, root)]
    terms: dict[int, list] = {}  # id(node) -> [(consumer seq, term)], newest consumer first
    while heap:
        _, node = heapq.heappop(heap)
        parts = terms.pop(id(node), ())
        if len(parts) > 1:
            parts.sort(key=lambda t: t[0])  # stable: one consumer's terms keep argument order
        for _, g in parts:
            node.grad = g if node.grad is None else node.grad + g
        if node._backprop is None:
            continue
        for parent, g in zip(node._parents, node._backprop(node.grad)):
            if g is None:
                continue
            pending = terms.get(id(parent))
            if pending is None:
                terms[id(parent)] = [(node._seq, g)]
                heapq.heappush(heap, (-parent._seq, parent))
            else:
                pending.append((node._seq, g))


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


def linear(x: Var, w: Var, b: Var) -> Var:
    """x @ w + b as one node. Leading axes of x fold into one GEMM, so the
    weight gradient is one GEMM over all rows and the bias gradient one sum."""
    xv = x.value
    x2 = xv.reshape(-1, xv.shape[-1])
    out = np.matmul(x2, w.value)
    out += b.value

    def back(g):
        g2 = g.reshape(-1, g.shape[-1])
        gw = np.matmul(x2.T, g2)
        gb = g2.sum(axis=0)
        if x.const:
            return None, gw, gb
        return np.matmul(g2, w.value.T).reshape(xv.shape), gw, gb

    return Var(out.reshape(*xv.shape[:-1], -1), (x, w, b), back)


def attention(q: Var, k: Var, v: Var, c: float) -> Var:
    """softmax(q k^T * c) v over the last two axes, as one node whose numpy
    calls are those of the composed matmul, scale, softmax and matmul ops."""
    c = q.value.dtype.type(c)
    kt = np.swapaxes(k.value, -1, -2)
    s = np.matmul(q.value, kt) * c
    z = s - s.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    vv = v.value

    def back(g):
        gv = np.matmul(np.swapaxes(p, -1, -2), g)
        gp = np.matmul(g, np.swapaxes(vv, -1, -2))
        gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p * c
        gkt = np.matmul(np.swapaxes(q.value, -1, -2), gs)
        gq = np.matmul(gs, np.swapaxes(kt, -1, -2))
        return gq, np.swapaxes(gkt, -1, -2), gv

    return Var(np.matmul(p, vv), (q, k, v), back)


def relu(a: Var) -> Var:
    # branch-free; + 0 turns the -0.0 that fmax may return into np.where's +0.0
    out = np.fmax(a.value, 0)
    out += 0
    return Var(out, (a,), lambda g: (g * (out > 0),))


def mean_axis(a: Var, axis: int) -> Var:
    n = a.value.shape[axis]
    out = a.value.mean(axis=axis)

    def back(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return Var(out, (a,), back)


def layer_norm(x: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    """Normalization over the last axis with trainable scale and shift."""
    v = x.value
    n = v.shape[-1]
    xc = v - np.add.reduce(v, axis=-1, keepdims=True) / n
    inv = 1 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + v.dtype.type(eps))
    xhat = xc * inv
    out = xhat * gamma.value
    out += beta.value

    def back(g):
        g2 = g.reshape(-1, n)
        dgamma = np.add.reduce(g2 * xhat.reshape(-1, n), axis=0)
        dbeta = np.add.reduce(g2, axis=0)
        dxhat = g * gamma.value
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), means over the last axis
        dx = dxhat - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        dx -= xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n)
        dx *= inv
        return dx, dgamma, dbeta

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


def conv2d(x: Var, w: Var, b: Var, pad: int = 1) -> Var:
    """Stride-1 2D convolution via im2col, batch innermost: x (C, H, W, B),
    w (O, C, kH, kW) and b (O,) give (O, Ho, Wo, B).

    The im2col rows (C*kH*kW, Ho*Wo*B) are kH*kW slice copies of the
    zero-padded map, each moving contiguous runs of Wo*B floats. The forward,
    the weight gradient and the column gradient are one GEMM each; col2im adds
    the column gradient back in kH*kW contiguous slices, in (ki, kj) order.
    """
    xv, wv = x.value, w.value
    if xv.ndim != 4 or wv.ndim != 4 or xv.shape[0] != wv.shape[1]:
        raise ShapeError(f"conv2d shapes {xv.shape} x {wv.shape}")
    C, H, W, B = xv.shape
    O, _, kh, kw = wv.shape
    hp, wp = H + 2 * pad, W + 2 * pad
    ho, wo = hp - kh + 1, wp - kw + 1
    xp = np.zeros((C, hp, wp, B), dtype=xv.dtype)  # np.pad's set-up costs more than this
    xp[:, pad : pad + H, pad : pad + W] = xv
    cols = np.empty((C, kh, kw, ho, wo, B), dtype=xv.dtype)
    for ki in range(kh):
        for kj in range(kw):
            cols[:, ki, kj] = xp[:, ki : ki + ho, kj : kj + wo]
    cols = cols.reshape(C * kh * kw, ho * wo * B)
    w2 = wv.reshape(O, C * kh * kw)
    out = np.matmul(w2, cols)
    out += b.value[:, None]

    def back(g):
        g2 = g.reshape(O, ho * wo * B)
        gw = np.matmul(g2, cols.T).reshape(wv.shape)
        gb = g2.sum(axis=1)
        if x.const:
            return None, gw, gb
        gcols = np.matmul(w2.T, g2).reshape(C, kh, kw, ho, wo, B)
        gxp = np.zeros_like(xp)
        for ki in range(kh):
            for kj in range(kw):
                gxp[:, ki : ki + ho, kj : kj + wo] += gcols[:, ki, kj]
        return gxp[:, pad : pad + H, pad : pad + W], gw, gb

    return Var(out.reshape(O, ho, wo, B), (x, w, b), back)


def avg_pool2d(x: Var) -> Var:
    """2x2 average pooling with stride 2 over (C, H, W, B) maps.

    The four taps are summed as (v00 + v01) + (v10 + v11), the order in which
    `mean` over the window axes of a (B, C, H, W) map sums them, so outputs
    match it bit for bit.
    """
    C, H, W, B = x.value.shape
    if H % 2 or W % 2:
        raise ShapeError(f"avg_pool2d: {H}x{W} not divisible by 2")
    v = x.value.reshape(C, H // 2, 2, W // 2, 2, B)
    rows = v[:, :, :, :, 0] + v[:, :, :, :, 1]  # (v00 + v01) and (v10 + v11)
    out = rows[:, :, 0] + rows[:, :, 1]
    out /= 4

    def back(g):
        # repeating the quarter-size g / 4 is faster here than one broadcast copy
        gx = np.repeat(np.repeat(g / 4, 2, axis=2), 2, axis=1)
        return (gx.astype(x.value.dtype, copy=False),)

    return Var(out, (x,), back)


def batch_rows(a: Var) -> Var:
    """Batch-innermost (..., B) maps as (B, features) rows, features in
    row-major order: a transposed view, no copy."""
    shape = a.value.shape
    return Var(a.value.reshape(-1, shape[-1]).T, (a,), lambda g: (g.T.reshape(shape),))


def dropout(x: Var, p: float, keep: np.ndarray) -> Var:
    """Inverted dropout at rate p; `keep` holds one bool flag per element."""
    scale = keep.reshape(x.value.shape).astype(x.value.dtype) / x.value.dtype.type(1.0 - p)
    return Var(x.value * scale, (x,), lambda g: (g * scale,))


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
