import numpy as np
import pytest

from conftest import (
    fd_gradients, matmul, max_rel_error, micro_cnn_reference_logits, micro_cnn_spec, mlp_spec, mul,
    num_params, scale, tiny_transformer_spec,
)

from sparselab import autodiff as ad
from sparselab.errors import NonFiniteError, ShapeError
from sparselab.models import ARCHS, ParamStore, build_model
from sparselab.rng import Rng


def test_all_zero_weights_give_zero_logits():
    model = build_model(mlp_spec((6, 5, 3)), Rng(0))
    for _, e in model.store.items():
        e.weights[...] = 0.0
    x = Rng(1).normals(4 * 6).reshape(4, 6)
    assert np.all(model.forward(x) == 0.0)


def test_identity_linear_passthrough():
    model = build_model(mlp_spec((4, 4)), Rng(0))
    model.store["fc1.weight"].weights[...] = np.eye(4, dtype=np.float32)
    model.store["fc1.bias"].weights[...] = 0.0
    x = Rng(2).normals(3 * 4).reshape(3, 4).astype(np.float32)
    assert np.allclose(model.forward(x), x, atol=0)


def straight_line_mlp(weights, x):
    """Hand-rolled f64 matmul+relu chain, independent of the tape."""
    h = x.astype(np.float64)
    n_layers = len(weights) // 2
    for i in range(1, n_layers + 1):
        w = weights[f"fc{i}.weight"].astype(np.float64)
        b = weights[f"fc{i}.bias"].astype(np.float64)
        out = np.empty((h.shape[0], w.shape[1]))
        for r in range(h.shape[0]):
            for c in range(w.shape[1]):
                out[r, c] = float(np.dot(h[r], w[:, c])) + b[c]
        h = np.maximum(out, 0.0) if i < n_layers else out
    return h


def test_mlp_forward_matches_straight_line_oracle():
    model = build_model(mlp_spec((2, 3, 2)), Rng(5))
    x = Rng(6).normals(4 * 2).reshape(4, 2)
    got = model.forward(x)
    want = straight_line_mlp({n: e.weights for n, e in model.store.items()}, x)
    assert np.max(np.abs(got.astype(np.float64) - want)) <= 1e-6


def test_forward_determinism_bit_identical():
    model = build_model(micro_cnn_spec(1, (8, 8), (3, 3), 5), Rng(7))
    x = Rng(8).normals(6 * 64).reshape(6, 64).astype(np.float32)
    a = model.forward(x)
    b = model.forward(x)
    assert a.tobytes() == b.tobytes()


def test_forward_shape_errors():
    model = build_model(mlp_spec((6, 4)), Rng(0))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 5)))


@pytest.mark.parametrize("batch", [32, 128])
def test_micro_cnn_forward_matches_reference_layout_bit_for_bit(batch):
    """Batch-innermost maps give the logits of the (B, C, H, W) algorithm
    byte for byte, at the training batch and at `runner.EVAL_CHUNK` rows."""
    spec = micro_cnn_spec(1, (8, 8), (16, 32), 10)
    model = build_model(spec, Rng(40))
    x = Rng(41).normals(batch * 64).reshape(batch, 64).astype(np.float32)
    weights = {n: e.weights for n, e in model.store.items()}
    want = micro_cnn_reference_logits(spec, weights, x)
    assert model.forward(x).tobytes() == want.tobytes()
    images = model.forward(x.reshape(batch, 1, 8, 8))
    assert images.tobytes() == want.tobytes()


@pytest.mark.parametrize("x", [
    np.zeros((2, 2 * 16 + 1)), np.zeros((2, 16)), np.zeros((2, 1, 4, 4)), np.zeros((2, 2, 4, 2)),
    np.zeros(2 * 16 * 2), np.zeros((2, 2, 4, 4, 1)), np.zeros((2, 32, 1)),
], ids=["width+1", "width-c", "channels", "h-ne-w", "1d", "5d", "3d"])
def test_micro_cnn_input_shape_errors(x):
    """Only (B, C*H*W) rows and (B, C, H, W) images are inputs, with and
    without a tape."""
    model = build_model(micro_cnn_spec(2, (4, 4), (3, 3), 5), Rng(0))
    with pytest.raises(ShapeError):
        model.forward(x)
    with pytest.raises(ShapeError):
        model.loss_and_grad(x, np.zeros(2, dtype=np.int64))


def test_forward_nonfinite_detection():
    model = build_model(mlp_spec((3, 2)), Rng(0))
    with pytest.raises(NonFiniteError):
        model.forward(np.array([[np.inf, 0.0, 0.0]]))


def test_transformer_attention_shape_any_length():
    spec = tiny_transformer_spec(vocab=8, max_len=10, d_model=16, ff_dim=24, blocks=2, classes=3)
    model = build_model(spec, Rng(3))
    for T in (1, 4, 10):
        ids = np.arange(2 * T).reshape(2, T) % 8
        logits = model.forward(ids)
        assert logits.shape == (2, 3)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((1, 11), dtype=np.int64))


@pytest.mark.parametrize("spec, row, draws", [
    (mlp_spec((6, 5, 3)), (6,), 0),
    (micro_cnn_spec(image_hw=(4, 4)), (16,), 0),
    (tiny_transformer_spec(), (5,), 0),
    (tiny_transformer_spec(dropout=0.1), (5,), 2 * 2 * 32 * 5),  # 2 sites a block, d a token
    (tiny_transformer_spec(dropout=0.1, blocks=1), (16,), 2 * 1 * 32 * 16),
])
def test_dropout_keep_flags_per_row(spec, row, draws):
    assert ARCHS[spec.arch].dropout_draws(spec, row) == draws


def test_scalar_quadratic_gradient():
    # L = 0.5*(w-1)^2 has dL/dw = w-1; check the tape agrees on w=3 via
    # a single-input single-output linear model with crafted data.
    from sparselab import autodiff as ad
    from sparselab.autodiff import Var, backward

    w = Var(np.array([[3.0]]))
    x = Var(np.array([[1.0]]))
    out = matmul(x, w)
    # 0.5*(out-1)^2 built from primitives
    diff = ad.add(out, Var(np.array([[-1.0]])))
    sq = mul(diff, diff)
    loss = scale(sq, 0.5)
    total = Var(np.asarray(loss.value.sum()), (loss,), lambda g: (np.ones_like(loss.value) * g,))
    backward(total)
    assert w.grad[0, 0] == pytest.approx(2.0)


def test_uniform_logits_head_gradient_symmetry():
    # equal logits, eps=0: dL/dz = softmax - onehot = 1/C - onehot
    from sparselab import autodiff as ad
    from sparselab.autodiff import Var, backward

    z = Var(np.zeros((1, 4)))
    loss = ad.cross_entropy_mean(z, np.array([2]), eps=0.0)
    backward(loss)
    want = np.full((1, 4), 0.25)
    want[0, 2] -= 1.0
    assert np.allclose(z.grad, want, atol=1e-12)


GRAD_CASES = [
    ("mlp", mlp_spec((10, 8, 6, 4)), 1e-3),
    ("micro-cnn", micro_cnn_spec(1, (8, 8), (2, 3), 4), 1e-5),
    ("tiny-transformer",
     tiny_transformer_spec(vocab=4, max_len=3, d_model=4, ff_dim=6, blocks=2, classes=2),
     1e-5),
]


@pytest.mark.parametrize("name,spec,h", GRAD_CASES)
def test_gradient_check_small_zoo(name, spec, h):
    model = build_model(spec, Rng(11))
    assert num_params(model.store) <= 500
    rng = Rng(12)
    if model.input_dim is None:
        x = np.array([[0, 1, 2], [3, 2, 1], [1, 1, 0], [2, 0, 3]])
        y = np.array([0, 1, 1, 0])
    else:
        dim = spec.layer_dims[0] if spec.arch == "mlp" else 64
        x = rng.normals(6 * dim).reshape(6, dim)
        y = np.arange(6) % spec.classes if spec.arch == "mlp" else np.arange(6) % 4
    params64 = {n: e.weights.astype(np.float64) for n, e in model.store.items()}
    _, grads = model.loss_and_grad(x, y, params=params64)
    fd = fd_gradients(model, x, y, h=h)
    assert max_rel_error(grads, fd) <= 1e-3


def test_masked_weights_stay_zero_in_forward():
    model = build_model(mlp_spec((6, 5, 3)), Rng(1))
    mask = np.ones((6, 5), dtype=np.float32)
    mask[0, :] = 0.0
    model.store.set_mask("fc1.weight", mask)
    assert np.all(model.store["fc1.weight"].weights[0] == 0.0)
    # gradients still reported for masked entries
    x = Rng(2).normals(3 * 6).reshape(3, 6)
    _, grads = model.loss_and_grad(x, np.array([0, 1, 2]))
    assert np.any(grads["fc1.weight"][0] != 0.0)


def test_param_store_mask_shape_check():
    store = ParamStore()
    store.add("w", np.ones((2, 2)))
    with pytest.raises(ShapeError):
        store.set_mask("w", np.ones((2, 3)))


def test_kaiming_init_bound():
    model = build_model(mlp_spec((100, 50)), Rng(42))
    w = model.store["fc1.weight"].weights
    bound = np.sqrt(6.0 / 100)
    assert np.all(np.abs(w) <= bound)
    assert np.abs(w).max() > 0.8 * bound


def test_transformer_init_scale():
    model = build_model(tiny_transformer_spec(), Rng(42))
    w = model.store["block1.attn.wq.weight"].weights
    assert abs(float(w.std()) - 0.02) < 0.005
    assert np.all(model.store["block1.ln1.scale"].weights == 1.0)


ZOO = [
    (mlp_spec((64, 32, 16, 10)), lambda rng: rng.normals(40 * 64).reshape(40, 64), 10),
    (micro_cnn_spec(1, (8, 8), (4, 6), 10), lambda rng: rng.normals(40 * 64).reshape(40, 64), 10),
    (tiny_transformer_spec(vocab=8, max_len=6, d_model=8, ff_dim=12, blocks=2, classes=2),
     lambda rng: (rng.uniforms(40 * 6) * 8).astype(np.int64).reshape(40, 6), 2),
]


@pytest.mark.parametrize("spec,make_x,classes", ZOO, ids=[s.arch for s, _, _ in ZOO])
def test_forward_equals_taped_logits_bit_for_bit(spec, make_x, classes, monkeypatch):
    model = build_model(spec, Rng(31))
    x = make_x(Rng(32))
    y = np.arange(len(x)) % classes
    taped = []
    cross_entropy = ad.cross_entropy_mean

    def recording(logits, labels, eps=0.0):
        taped.append(logits.value.copy())
        return cross_entropy(logits, labels, eps)

    monkeypatch.setattr(ad, "cross_entropy_mean", recording)
    model.loss_and_grad(x, y)
    assert model.forward(x).tobytes() == taped[0].tobytes()


def test_loss_and_grad_unchanged_by_forward_and_its_failure():
    spec, make_x, classes = ZOO[1]
    x = make_x(Rng(33))
    y = np.arange(len(x)) % classes
    before = build_model(spec, Rng(34)).loss_and_grad(x, y)[1]
    model = build_model(spec, Rng(34))
    model.forward(x)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 5)))
    after = model.loss_and_grad(x, y)[1]
    assert list(after) == list(before)
    for name in before:
        assert after[name].tobytes() == before[name].tobytes()
        assert np.any(after[name] != 0.0)
