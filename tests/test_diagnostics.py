import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import aie, entropy, micro_cnn_spec, mlp_spec, tiny_transformer_spec

from sparselab import diagnostics as dg
from sparselab.errors import DataError, ShapeError
from sparselab.models import build_model
from sparselab.rng import Rng


# -- entropy ------------------------------------------------------------------


def brute_entropy(logits):
    z = [float(v) for v in logits]
    m = max(z)
    exps = [math.exp(v - m) for v in z]
    total = sum(exps)
    p = [e / total for e in exps]
    return -sum(pi * math.log(pi) for pi in p if pi > 0)


def test_entropy_uniform_ln10():
    assert entropy(np.zeros(10)) == pytest.approx(math.log(10), abs=1e-12)


def test_entropy_concentrated_near_zero():
    assert entropy(np.array([1000.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-9)


def test_entropy_reference_values():
    assert entropy(np.array([0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-12)
    assert entropy(np.array([1.0, 0.0])) == pytest.approx(0.5822031088882179, abs=1e-12)


def test_entropy_shift_invariance():
    z = np.array([0.2, -1.0, 3.0, 0.5])
    assert entropy(z + 123.0) == pytest.approx(entropy(z), abs=1e-6)


def test_entropy_bounds_random():
    rng = Rng(0)
    for _ in range(100):
        c = 2 + rng.below(9)
        z = rng.normals(c) * 5
        h = entropy(z)
        assert 0.0 <= h <= math.log(c) + 1e-12


@given(seed=st.integers(0, 10_000), c=st.integers(2, 12))
@settings(max_examples=150, deadline=None)
def test_entropy_matches_brute_force(seed, c):
    z = Rng(seed).normals(c) * 3
    assert entropy(z) == pytest.approx(brute_entropy(z), abs=1e-10)


def test_mean_entropy_matches_rows():
    z = Rng(1).normals(20).reshape(5, 4)
    want = np.mean([entropy(row) for row in z])
    assert dg.mean_entropy(z) == pytest.approx(want, abs=1e-12)


# -- uncertainty ----------------------------------------------------------------


def test_uncertainty_all_midpoint():
    assert dg.uncertainty_fraction(np.zeros(8)) == 1.0


def test_uncertainty_boundary_counts_certain():
    z = math.log(9.0)  # sigmoid exactly at the 0.9 boundary
    assert dg.uncertainty_fraction(np.array([z])) == 0.0
    assert dg.uncertainty_fraction(np.array([-z])) == 0.0


def test_uncertainty_mixed_example():
    assert dg.uncertainty_fraction(np.array([0.0, 5.0, -5.0, 0.0])) == 0.5


def test_uncertainty_empty_error():
    with pytest.raises(DataError):
        dg.uncertainty_fraction(np.array([]))


@given(seed=st.integers(0, 10_000), n=st.integers(1, 50))
@settings(max_examples=150, deadline=None)
def test_uncertainty_matches_sigmoid_oracle(seed, n):
    z = Rng(seed).normals(n) * 4
    count = 0
    for v in z:
        p = 1.0 / (1.0 + math.exp(-float(v)))
        if 0.1 < p < 0.9:
            count += 1
    assert dg.uncertainty_fraction(z) == pytest.approx(count / n, abs=1e-12)


# -- mask IoU ---------------------------------------------------------------------


def test_iou_identical_masks():
    m = {"a": np.float32([1, 0, 1, 1])}
    assert dg.mask_iou(m, m) == 1.0


def test_iou_disjoint():
    a = {"a": np.float32([1, 1, 0, 0])}
    b = {"a": np.float32([0, 0, 1, 1])}
    assert dg.mask_iou(a, b) == 0.0


def test_iou_set_count_example():
    a = {"a": np.float32([1, 1, 1, 0, 0])}
    b = {"a": np.float32([0, 1, 1, 1, 0])}
    assert dg.mask_iou(a, b) == pytest.approx(0.5)


def test_iou_both_empty_defined_one():
    z = {"a": np.zeros(4, dtype=np.float32)}
    assert dg.mask_iou(z, z) == 1.0


def test_iou_shape_mismatch():
    with pytest.raises(ShapeError):
        dg.mask_iou({"a": np.ones(3)}, {"a": np.ones(4)})
    with pytest.raises(ShapeError):
        dg.mask_iou({"a": np.ones(3)}, {"b": np.ones(3)})


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_iou_symmetric_bounded(seed):
    rng = Rng(seed)
    a = {"x": (rng.uniforms(30) < 0.4).astype(np.float32)}
    b = {"x": (rng.uniforms(30) < 0.4).astype(np.float32)}
    v = dg.mask_iou(a, b)
    assert v == dg.mask_iou(b, a)
    assert 0.0 <= v <= 1.0
    sa = set(np.flatnonzero(a["x"]).tolist())
    sb = set(np.flatnonzero(b["x"]).tolist())
    want = 1.0 if not (sa | sb) else len(sa & sb) / len(sa | sb)
    assert v == pytest.approx(want, abs=1e-12)


# -- channel sparsity ----------------------------------------------------------------


def test_channel_sparsity_dense_zero():
    w = Rng(0).normals(4 * 2 * 9).reshape(4, 2, 3, 3).astype(np.float32)
    per, glob = dg.channel_sparsity({"conv": (w, None)})
    assert per["conv"] == 0.0 and glob == 0.0


def test_channel_sparsity_one_of_four():
    w = Rng(0).normals(4 * 2 * 9).reshape(4, 2, 3, 3).astype(np.float32)
    mask = np.ones_like(w)
    mask[2] = 0.0
    per, glob = dg.channel_sparsity({"conv": (w, mask)})
    assert per["conv"] == 0.25 and glob == 0.25


def test_channel_sparsity_pooled_global():
    w1 = np.ones((4, 1, 3, 3), dtype=np.float32)
    m1 = np.ones_like(w1)
    m1[0] = 0.0
    w2 = np.ones((8, 1, 3, 3), dtype=np.float32)
    m2 = np.ones_like(w2)
    m2[:3] = 0.0
    per, glob = dg.channel_sparsity({"c1": (w1, m1), "c2": (w2, m2)})
    assert per["c1"] == 0.25 and per["c2"] == pytest.approx(3 / 8)
    assert glob == pytest.approx((1 + 3) / (4 + 8))


def test_channel_sparsity_no_conv_error():
    with pytest.raises(DataError):
        dg.channel_sparsity({})


# -- FLOPs ------------------------------------------------------------------------


def test_flops_dense_mlp_proportion_one():
    model = build_model(mlp_spec((784, 256, 10)), Rng(0))
    dense, prop = dg.flops(model)
    assert dense == 2 * 784 * 256 + 2 * 256 * 10
    assert prop == 1.0


def test_flops_single_layer_density():
    model = build_model(mlp_spec((20, 10)), Rng(0))
    mask = np.zeros((20, 10), dtype=np.float32)
    mask.reshape(-1)[:50] = 1.0
    model.store.set_mask("fc1.weight", mask)
    _, prop = dg.flops(model)
    assert prop == pytest.approx(0.25)


def test_flops_linear_closed_form():
    model = build_model(mlp_spec((784, 256)), Rng(0))
    dense, _ = dg.flops(model)
    assert dense == 401_408  # 2 * 784 * 256


def test_flops_uniform_density_proportion():
    model = build_model(mlp_spec((30, 20, 10)), Rng(0))
    for name in ("fc1.weight", "fc2.weight"):
        w = model.store[name].weights
        mask = np.zeros(w.size, dtype=np.float32)
        mask[: w.size // 10] = 1.0
        model.store.set_mask(name, mask.reshape(w.shape))
    _, prop = dg.flops(model)
    assert prop == pytest.approx(0.1)


def test_flops_cnn_formula():
    model = build_model(micro_cnn_spec(1, (8, 8), (2, 3), 4), Rng(0))
    dense, _ = dg.flops(model)
    conv1 = 2 * 2 * 1 * 9 * 8 * 8
    conv2 = 2 * 3 * 2 * 9 * 4 * 4
    head = 2 * (3 * 4) * 4
    assert dense == conv1 + conv2 + head


def test_flops_transformer_per_layer_closed_form():
    """Each projection runs once per token at the longest sequence T; the
    head runs once on the pooled vector."""
    d, f, T, classes = 8, 12, 5, 3
    spec = tiny_transformer_spec(vocab=4, max_len=T, d_model=d, ff_dim=f, blocks=2, classes=classes)
    want = []
    for b in (1, 2):
        want += [(f"block{b}.attn.w{x}", 2 * d * d * T, 1.0) for x in "qkvo"]
        want += [(f"block{b}.ff.w1", 2 * d * f * T, 1.0), (f"block{b}.ff.w2", 2 * d * f * T, 1.0)]
    want.append(("head", 2 * d * classes, 1.0))
    assert dg.flops_by_layer(build_model(spec, Rng(0))) == want


# -- AIE --------------------------------------------------------------------------


def test_aie_identical_zero():
    e = np.array([0.1, 0.2, 0.3])
    assert aie(e, e) == 0.0


def test_aie_halved_errors():
    base = np.array([0.2, 0.4, 0.6])
    assert aie(base / 2, base) == pytest.approx(-0.5)


def test_aie_per_task_example():
    assert aie(np.array([0.2, 0.4]), np.array([0.1, 0.5])) == pytest.approx(0.4)


def test_aie_zero_baseline_error():
    with pytest.raises(DataError):
        aie(np.array([0.1]), np.array([0.0]))


@given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_aie_matches_brute_force(seed, n):
    rng = Rng(seed)
    base = rng.uniforms(n) * 0.9 + 0.05
    model = rng.uniforms(n) * 0.9 + 0.05
    want = sum((m - b) / b for m, b in zip(model, base)) / n
    assert aie(model, base) == pytest.approx(want, abs=1e-12)
