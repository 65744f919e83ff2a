import numpy as np
import pytest

from conftest import matmul, mul, reshape, scale, softmax_last, swap_last2

from sparselab import autodiff as ad
from sparselab.autodiff import Var, backward
from sparselab.errors import ShapeError
from sparselab.rng import Rng


def numeric_grad(fn, arrays, h=1e-6):
    """Central differences of a scalar-valued fn of a list of f64 arrays."""
    grads = []
    for k, a in enumerate(arrays):
        g = np.empty_like(a)
        flat, gf = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = fn(arrays)
            flat[i] = orig - h
            lm = fn(arrays)
            flat[i] = orig
            gf[i] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def check_op(build, shapes, seed=0, tol=1e-6):
    """Compare tape gradients of sum(op(...)) against numeric differences."""
    rng = Rng(seed)
    arrays = [rng.normals(int(np.prod(s))).reshape(s) for s in shapes]

    def scalar(arrs):
        vs = [Var(a) for a in arrs]
        out = build(*vs)
        return float(out.value.sum())

    vs = [Var(a) for a in arrays]
    out = build(*vs)
    total = Var(np.asarray(out.value.sum()), (out,), lambda g: (np.ones_like(out.value) * g,))
    backward(total)
    numeric = numeric_grad(scalar, arrays)
    for v, n in zip(vs, numeric):
        got = v.grad if v.grad is not None else np.zeros_like(v.value)
        assert np.allclose(got, n, atol=tol, rtol=tol), f"max diff {np.abs(got - n).max()}"


def test_add_broadcast():
    check_op(ad.add, [(4, 3), (3,)])


def test_mul_broadcast():
    check_op(mul, [(4, 3), (4, 1)])


def test_matmul_2d():
    check_op(matmul, [(4, 3), (3, 5)])


def test_matmul_batched():
    check_op(matmul, [(2, 4, 3), (3, 5)])
    check_op(matmul, [(2, 4, 3), (2, 3, 5)])


def test_relu():
    check_op(ad.relu, [(50,)], seed=3)


def test_reshape_swap():
    check_op(lambda a: swap_last2(reshape(a, (2, 3, 4))), [(24,)])


def test_mean_axis():
    check_op(lambda a: ad.mean_axis(a, 1), [(3, 5, 2)])


def test_softmax_last():
    check_op(softmax_last, [(4, 6)])


def test_layer_norm():
    check_op(lambda x, g, b: ad.layer_norm(x, g, b), [(3, 4, 8), (8,), (8,)], tol=1e-5)


def test_take_rows():
    check_op(lambda a: ad.take_rows(a, 3), [(5, 4)])


def test_embedding_scatter():
    ids = np.array([[0, 2], [2, 1]])
    check_op(lambda t: ad.embedding(t, ids), [(4, 3)])


@pytest.mark.parametrize("x_shape", [(4, 3), (2, 4, 3)], ids=["2d", "3d"])
def test_linear(x_shape):
    check_op(ad.linear, [x_shape, (3, 5), (5,)])


def test_linear_const_input():
    x = Var(Rng(5).normals(24).reshape(2, 4, 3), const=True)
    check_op(lambda w, b: ad.linear(x, w, b), [(3, 5), (5,)])
    assert x.grad is None


def test_attention():
    check_op(lambda q, k, v: ad.attention(q, k, v, 0.7), [(2, 3, 4), (2, 3, 4), (2, 3, 5)])


def _grads_from(build, arrays, g, const=()):
    """Output value and leaf gradients of `build` on fresh leaves, with `g`
    fed back as the output's gradient."""
    leaves = [Var(a, const=i in const) for i, a in enumerate(arrays)]
    out = build(*leaves)
    backward(Var(np.zeros((), out.value.dtype), (out,), lambda _: (g,)))
    return out.value, [v.grad for v in leaves]


def _assert_same_bytes(got, want):
    (got_out, got_grads), (want_out, want_grads) = got, want
    assert got_out.dtype == want_out.dtype and got_out.tobytes() == want_out.tobytes()
    for a, b in zip(got_grads, want_grads):
        assert (a is None and b is None) or (a.shape == b.shape and a.tobytes() == b.tobytes())


def test_attention_matches_composed_ops_bit_for_bit():
    """One node, the same numpy calls as matmul, scale, softmax and matmul."""
    rng = Rng(21)
    arrays = [rng.normals(160).reshape(4, 5, 8).astype(np.float32) for _ in range(3)]
    g = rng.normals(160).reshape(4, 5, 8).astype(np.float32)
    c = 1.0 / np.sqrt(8.0)
    fused = _grads_from(lambda q, k, v: ad.attention(q, k, v, c), arrays, g)
    composed = _grads_from(
        lambda q, k, v: matmul(softmax_last(scale(matmul(q, swap_last2(k)), c)), v), arrays, g)
    _assert_same_bytes(fused, composed)


@pytest.mark.parametrize("const", [(), (0,)], ids=["leaf", "const"])
def test_linear_2d_matches_add_matmul_bit_for_bit(const):
    """On 2-D inputs one node makes the numpy calls of add(matmul(x, w), b)."""
    rng = Rng(22)
    arrays = [rng.normals(n).reshape(s).astype(np.float32)
              for n, s in ((32 * 24, (32, 24)), (24 * 10, (24, 10)), (10, (10,)))]
    g = rng.normals(320).reshape(32, 10).astype(np.float32)
    fused = _grads_from(ad.linear, arrays, g, const)
    composed = _grads_from(lambda x, w, b: ad.add(matmul(x, w), b), arrays, g, const)
    _assert_same_bytes(fused, composed)


def test_three_consumers_sum_in_forward_order():
    """Terms 1e8, -1e8 and 1 give 1 only as (g1 + g2) + g3; any other order
    of the f32 sums gives 0."""
    a = Var(np.float32([1.0]))
    c1, c2, c3 = scale(a, 1e8), scale(a, -1e8), scale(a, 1.0)
    backward(ad.add(ad.add(c1, c2), c3))
    assert (np.float32(1e8) + np.float32(1.0)) - np.float32(1e8) == 0.0
    assert a.grad.dtype == np.float32 and a.grad.tobytes() == np.float32([1.0]).tobytes()


# x (C, H, W, B), w (O, C, kH, kW), pad
CONV_SHAPES = [
    ((2, 5, 5, 2), (3, 2, 3, 3), 1),
    ((2, 5, 5, 2), (3, 2, 3, 3), 0),
    ((2, 4, 6, 2), (3, 2, 3, 3), 1),
    ((1, 5, 4, 2), (2, 1, 3, 3), 1),
    ((3, 4, 4, 2), (1, 3, 3, 3), 1),
    ((2, 3, 4, 2), (3, 2, 1, 1), 0),
    ((2, 6, 5, 1), (2, 2, 5, 5), 2),
]
CONV_IDS = ["pad1", "pad0", "h-ne-w", "c1", "o1", "k1x1", "k5x5"]
# the micro-CNN's two layers at batch 32 on 8x8 inputs
MICRO_CNN_CONVS = [((1, 8, 8, 32), (16, 1, 3, 3), 1), ((16, 4, 4, 32), (32, 16, 3, 3), 1)]


@pytest.mark.parametrize("x_shape,w_shape,pad", CONV_SHAPES, ids=CONV_IDS)
def test_conv2d_grads(x_shape, w_shape, pad):
    shapes = [x_shape, w_shape, (w_shape[0],)]
    check_op(lambda x, w, b: ad.conv2d(x, w, b, pad=pad), shapes, tol=1e-5)


def im2col_reference(xv, kh, kw, pad):
    """The np.pad-padded (C, hp, wp, B) map and its batch-innermost
    (C*kh*kw, ho*wo*B) im2col rows, from slices."""
    C, B = xv.shape[0], xv.shape[3]
    xp = np.pad(xv, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    ho, wo = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
    taps = [xp[:, ki : ki + ho, kj : kj + wo] for ki in range(kh) for kj in range(kw)]
    return xp, np.stack(taps, axis=1).reshape(C * kh * kw, ho * wo * B), ho, wo


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,w_shape,pad", CONV_SHAPES + MICRO_CNN_CONVS,
                         ids=CONV_IDS + ["conv1", "conv2"])
def test_conv2d_forward_matches_reference_bit_for_bit(x_shape, w_shape, pad, dtype):
    """The forward equals one GEMM over np.pad im2col rows with the bias added
    out of place: the zero-filled pad buffer and the in-place bias change no bit."""
    rng = Rng(13)
    x, w, b = (rng.normals(int(np.prod(s))).reshape(s).astype(dtype)
               for s in (x_shape, w_shape, (w_shape[0],)))
    O, _, kh, kw = w_shape
    _, cols, ho, wo = im2col_reference(x, kh, kw, pad)
    want = (np.matmul(w.reshape(O, -1), cols) + b[:, None]).reshape(O, ho, wo, x_shape[3])
    got = ad.conv2d(Var(x), Var(w), Var(b), pad=pad).value
    assert np.all(b != 0)
    assert got.dtype == dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def conv2d_reference_grads(xv, wv, g, pad):
    """Input and weight gradients of a stride-1 conv by im2col from slices:
    an einsum weight gradient and a col2im that scatters into a padded
    (B, C, hp, wp) map, the other layout, adding the (ki, kj) taps in
    row-major order."""
    C, H, W, B = xv.shape
    O, _, kh, kw = wv.shape
    xp, cols, ho, wo = im2col_reference(xv, kh, kw, pad)
    g2 = g.reshape(O, ho * wo * B)
    gw = np.einsum("ol,kl->ok", g2, cols).reshape(wv.shape)
    gcols = np.matmul(wv.reshape(O, -1).T, g2).reshape(C, kh, kw, ho, wo, B)
    gcols = gcols.transpose(5, 0, 1, 2, 3, 4)
    gxp = np.zeros((B, C) + xp.shape[1:3], dtype=xp.dtype)
    for ki in range(kh):
        for kj in range(kw):
            gxp[:, :, ki : ki + ho, kj : kj + wo] += gcols[:, :, ki, kj]
    gx = gxp[:, :, pad : pad + H, pad : pad + W].transpose(1, 2, 3, 0)
    return gx, gw, np.abs(g2), np.abs(cols)


@pytest.mark.parametrize("x_shape,w_shape,pad", MICRO_CNN_CONVS + [
    ((2, 5, 7, 3), (4, 2, 5, 3), 0),
])
def test_conv2d_backward_matches_reference_in_f32(x_shape, w_shape, pad):
    """The input gradient sums the same f32 terms in the same order as the
    reference, so it is bit-identical. The weight and bias gradients may sum
    in another order than the reference; each entry sums n = ho*wo*B terms,
    so both lie within n * eps * sum|terms| of the exact value."""
    rng = Rng(11)
    x, w = (rng.normals(int(np.prod(s))).reshape(s).astype(np.float32) for s in (x_shape, w_shape))
    b = np.zeros(w_shape[0], dtype=np.float32)
    out = ad.conv2d(Var(x), Var(w), Var(b), pad=pad)
    g = rng.normals(out.value.size).reshape(out.shape).astype(np.float32)
    gx, gw, gb = out._backprop(g)
    ref_gx, ref_gw, abs_g2, abs_cols = conv2d_reference_grads(x, w, g, pad)
    assert gx.dtype == gw.dtype == gb.dtype == np.float32
    assert gx.shape == x.shape and gx.tobytes() == np.ascontiguousarray(ref_gx).tobytes()
    n = abs_g2.shape[1]
    eps = np.finfo(np.float32).eps
    bound = 2 * n * eps * np.einsum("ol,kl->ok", abs_g2, abs_cols)
    assert np.all(np.abs(gw - ref_gw) <= bound.reshape(w.shape))
    assert np.all(np.abs(gb - g.sum(axis=(1, 2, 3))) <= 2 * n * eps * abs_g2.sum(axis=1))


def test_conv2d_shape_error():
    with pytest.raises(ShapeError):
        ad.conv2d(Var(np.zeros((2, 4, 4, 1))), Var(np.zeros((3, 5, 3, 3))), Var(np.zeros(3)))


def test_avg_pool():
    check_op(lambda x: ad.avg_pool2d(x), [(3, 4, 4, 2)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_avg_pool_matches_mean_bit_for_bit(dtype):
    """The pool's explicit sum of four taps equals `mean` over the window
    axes of the (B, C, H, W) map bit for bit, at every magnitude and on every
    special value. (Over the window axes of the batch-innermost map `mean`
    sums the taps one after another, in another order.)"""
    rng = Rng(12)
    shape = (4, 3, 8, 6)
    n = int(np.prod(shape))
    exponents = np.floor(rng.uniforms(n) * 76.0 - 40.0)
    x = (rng.normals(n) * 10.0**exponents).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, tiny, -3 * tiny, 7 * tiny], dtype)
    picks = np.floor(rng.uniforms(n // 4) * n).astype(np.int64)
    x[picks] = specials[np.arange(picks.size) % specials.size]
    x = x.reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        want = x.reshape(4, 3, 4, 2, 3, 2).mean(axis=(3, 5)).transpose(1, 2, 3, 0)
        got = ad.avg_pool2d(Var(np.ascontiguousarray(x.transpose(1, 2, 3, 0)))).value
    assert got.dtype == dtype and got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_avg_pool_shape_error():
    with pytest.raises(ShapeError):
        ad.avg_pool2d(Var(np.zeros((1, 5, 4, 1))))


def test_batch_rows():
    check_op(lambda x: matmul(ad.batch_rows(x), Var(np.arange(12.0).reshape(6, 2))), [(2, 1, 3, 4)])
    v = np.arange(24.0).reshape(2, 3, 4)
    rows = ad.batch_rows(Var(v)).value
    assert np.shares_memory(rows, v)
    assert rows.tolist() == [v[..., i].reshape(-1).tolist() for i in range(4)]


def test_cross_entropy_mean_matches_numeric():
    labels = np.array([0, 2, 1])
    check_op(lambda z: ad.cross_entropy_mean(z, labels, eps=0.0), [(3, 4)])
    check_op(lambda z: ad.cross_entropy_mean(z, labels, eps=0.1), [(3, 4)])


def test_cross_entropy_label_range():
    with pytest.raises(ShapeError):
        ad.cross_entropy_mean(Var(np.zeros((2, 3))), np.array([0, 3]))


def test_grad_accumulates_on_reuse():
    a = Var(np.array([2.0]))
    out = ad.add(a, a)
    total = Var(np.asarray(out.value.sum()), (out,), lambda g: (np.ones_like(out.value) * g,))
    backward(total)
    assert a.grad[0] == 2.0


def test_dtype_preserved():
    a = Var(np.ones((2, 2), dtype=np.float32))
    b = Var(np.ones((2, 2), dtype=np.float32))
    assert matmul(a, b).value.dtype == np.float32
    a64 = Var(np.ones((2, 2), dtype=np.float64))
    b64 = Var(np.ones((2, 2), dtype=np.float64))
    assert matmul(a64, b64).value.dtype == np.float64


def _placed(values, byte_offset):
    """`values` copied into a view that starts `byte_offset` bytes into a buffer."""
    buf = np.zeros(values.nbytes + byte_offset, dtype=np.uint8)
    view = buf[byte_offset:].view(values.dtype)
    view[...] = values
    return view


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_matches_where_byte_for_byte(dtype):
    """Every special value at every position of every length up to 70, in
    aligned, element-offset and unaligned views: the same bytes as
    np.where(a > 0, a, 0), and the same gradient mask."""
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1.5, -2.5], dtype)
    k = len(specials)
    item = np.dtype(dtype).itemsize
    for n in range(1, 71):
        for shift in range(k):
            values = specials[(np.arange(n) + shift) % k]
            for byte_offset in (0, 1, item, 3 * item):
                a = _placed(values, byte_offset)
                want = np.where(a > 0, a, dtype(0))
                x = Var(a)
                out = ad.relu(x)
                assert out.value.dtype == dtype
                assert out.value.tobytes() == want.tobytes(), (n, shift, byte_offset)
                backward(out)
                assert x.grad.tobytes() == (np.ones_like(a) * (a > 0)).tobytes()


def test_no_tape_vars_keep_no_parents():
    a, b = Var(np.ones((2, 3))), Var(np.ones((3, 2)))
    with ad.no_tape():
        out = ad.relu(matmul(a, b))
    assert out._parents == () and out._backprop is None
    taped = ad.relu(matmul(a, b))
    assert len(taped._parents) == 1 and taped._backprop is not None


def test_no_tape_restored_after_exception():
    with pytest.raises(ShapeError):
        with ad.no_tape():
            ad.conv2d(Var(np.ones((2, 4, 4, 1))), Var(np.ones((1, 3, 3, 3))), Var(np.ones(1)))
    a = Var(np.array([1.0, -2.0]))
    out = ad.relu(a)
    backward(out)
    assert a.grad.tolist() == [1.0, 0.0]


def _conv_head(x, w, b, m):
    return matmul(ad.batch_rows(ad.conv2d(x, w, b)), m)


def _two_layers(x, w, b, m):
    return matmul(ad.relu(ad.add(matmul(x, w), b)), m)


@pytest.mark.parametrize("build,shapes", [
    (_conv_head, [(1, 4, 4, 2), (3, 1, 3, 3), (3,), (48, 2)]),
    (_two_layers, [(2, 5), (5, 3), (3,), (3, 2)]),
])
def test_const_leaf_gets_no_gradient(build, shapes):
    rng = Rng(3)
    arrays = [rng.normals(int(np.prod(s))).reshape(s) for s in shapes]
    x, *params = [Var(a, const=(i == 0)) for i, a in enumerate(arrays)]
    backward(build(x, *params))
    assert x.grad is None
    # the same graph with x as a plain leaf gives x a gradient and the same others
    x2, *params2 = [Var(a) for a in arrays]
    backward(build(x2, *params2))
    assert x2.grad is not None
    for got, want in zip(params, params2):
        assert got.grad.tobytes() == want.grad.tobytes()
