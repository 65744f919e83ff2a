from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import clone_store, tiny_transformer_spec
from sparselab import optim, runner
from sparselab.checkpoint import save_checkpoint
from sparselab.config import ExperimentConfig
from sparselab.data import DatasetSpec, build_dataset
from sparselab.errors import NonFiniteError, ScheduleError, ShapeError
from sparselab.models import ParamStore, build_model, reinit_head
from sparselab.optim import LrSchedule, SgdState, lr_at, sgd_step
from sparselab.rng import STREAM_DATA, Rng
from sparselab.sparsify import SparsityDistribution, magnitude_mask
from sparselab.transfer import TransferHyper, layer_groups, trainable_set, transfer_run


def make_store(values, mask=None, trainable=True):
    store = ParamStore()
    store.add("w", np.asarray(values, dtype=np.float32))
    store["w"].trainable = trainable
    if mask is not None:
        store.set_mask("w", np.asarray(mask, dtype=np.float32))
    return store


def test_lr_peak_at_warmup_end():
    s = LrSchedule(peak=0.5, warmup_end=20, total_steps=100)
    assert lr_at(s, 20) == pytest.approx(0.5, abs=0)


def test_lr_zero_at_end():
    s = LrSchedule(peak=0.5, warmup_end=20, total_steps=100)
    assert lr_at(s, 100) == 0.0


def test_lr_linear_midpoint_exact():
    s = LrSchedule(peak=0.4, warmup_end=20, total_steps=100)
    assert lr_at(s, 60) == pytest.approx(0.2, abs=0)


def test_lr_piecewise_linear_and_peak():
    s = LrSchedule(peak=0.3, warmup_end=10, total_steps=50)
    values = [lr_at(s, t) for t in range(51)]
    assert max(values) == pytest.approx(0.3)
    assert all(v >= 0 for v in values)
    # linearity on each segment
    for t in range(1, 10):
        assert values[t] == pytest.approx(0.3 * t / 10)
    for t in range(10, 51):
        assert values[t] == pytest.approx(0.3 * (50 - t) / 40)


def test_lr_out_of_range():
    s = LrSchedule(peak=0.1, warmup_end=0, total_steps=10)
    with pytest.raises(ScheduleError):
        lr_at(s, 11)
    with pytest.raises(ScheduleError):
        lr_at(s, -1)


def test_vanilla_sgd_step():
    store = make_store([1.0, 2.0])
    state = SgdState(store, LrSchedule(kind="constant", peak=0.5, total_steps=10), momentum=0.0, weight_decay=0.0)
    sgd_step(store, {"w": np.array([0.2, -0.4], dtype=np.float32)}, state, 0)
    w = store["w"].weights
    assert np.array_equal(w, np.float32([1.0, 2.0]) - np.float32(0.5) * np.float32([0.2, -0.4]))


def test_pure_decay_step():
    store = make_store([2.0])
    state = SgdState(store, LrSchedule(kind="constant", peak=1.0, total_steps=10), momentum=0.0, weight_decay=0.1)
    sgd_step(store, {"w": np.zeros(1, dtype=np.float32)}, state, 0)
    assert store["w"].weights[0] == pytest.approx(1.8, abs=1e-7)


def test_two_momentum_steps_hand_unrolled():
    # beta=0.9, g=1 constant, lr=0.1, w0=0: w2 = -0.1*1 - 0.1*1.9 = -0.29
    store = make_store([0.0])
    state = SgdState(store, LrSchedule(kind="constant", peak=0.1, total_steps=100), momentum=0.9, weight_decay=0.0)
    g = {"w": np.ones(1, dtype=np.float32)}
    sgd_step(store, g, state, 0)
    sgd_step(store, g, state, 1)
    assert store["w"].weights[0] == pytest.approx(-0.29, abs=1e-7)


def test_masked_entries_stay_exactly_zero():
    store = make_store([1.0, 0.0, 3.0], mask=[1, 0, 1])
    state = SgdState(store, LrSchedule(kind="constant", peak=0.1, total_steps=100), momentum=0.9, weight_decay=0.01)
    for step in range(20):
        sgd_step(store, {"w": np.ones(3, dtype=np.float32)}, state, step)
    assert store["w"].weights[1] == 0.0
    assert state.buffers["w"][1] == 0.0
    assert store["w"].weights[0] != 0.0


def test_frozen_entries_untouched():
    store = make_store([1.0, 2.0], trainable=False)
    state = SgdState(store, LrSchedule(kind="constant", peak=0.1, total_steps=100))
    before = store["w"].weights.copy()
    sgd_step(store, {"w": np.ones(2, dtype=np.float32)}, state, 0)
    assert np.array_equal(before, store["w"].weights)


def test_reset_momentum_single_entry():
    """Masking out one entry resets its momentum at the next step and only its."""
    store = make_store([1.0, 2.0, 3.0])
    state = SgdState(store, LrSchedule(kind="constant", peak=0.1, total_steps=100), momentum=0.9)
    sgd_step(store, {"w": np.ones(3, dtype=np.float32)}, state, 0)
    assert np.all(state.buffers["w"] != 0.0)
    store.set_mask("w", np.float32([1, 0, 1]))
    sgd_step(store, {"w": np.ones(3, dtype=np.float32)}, state, 1)
    assert state.buffers["w"][1:2].tobytes() == np.float32([0.0]).tobytes()
    assert state.buffers["w"][0] != 0.0 and state.buffers["w"][2] != 0.0


def test_reset_momentum_empty_and_full():
    """A mask that changes no membership keeps every momentum; one that masks
    out every entry resets them all to +0.0."""
    store = make_store([1.0, 2.0])
    state = SgdState(store, LrSchedule(kind="constant", peak=0.1, total_steps=100), momentum=0.9)
    sgd_step(store, {"w": np.ones(2, dtype=np.float32)}, state, 0)
    store.set_mask("w", np.ones(2, dtype=np.float32))
    sgd_step(store, {"w": np.ones(2, dtype=np.float32)}, state, 1)
    assert np.all(state.buffers["w"] == np.float32(0.9) + np.float32(1.0))
    store.set_mask("w", np.zeros(2, dtype=np.float32))
    sgd_step(store, {"w": np.ones(2, dtype=np.float32)}, state, 2)
    assert state.buffers["w"].tobytes() == np.zeros(2, dtype=np.float32).tobytes()


def test_masking_out_zeroes_negative_momentum():
    """An entry with negative momentum that gets masked out holds +0.0
    momentum and +0.0 weight after the next step; the others keep theirs."""
    store = make_store([1.0, 2.0, 3.0])
    state = SgdState(store, LrSchedule(kind="constant", peak=0.1, total_steps=100), momentum=0.9)
    sgd_step(store, {"w": np.float32([1.0, -1.0, 1.0])}, state, 0)
    assert state.buffers["w"][1] < 0.0
    store.set_mask("w", np.float32([1, 0, 1]))
    sgd_step(store, {"w": np.float32([1.0, -1.0, 1.0])}, state, 1)
    assert state.buffers["w"][1:2].tobytes() == np.float32([0.0]).tobytes()
    assert store["w"].weights[1:2].tobytes() == np.float32([0.0]).tobytes()
    assert state.buffers["w"][0] == state.buffers["w"][2] == np.float32(0.9) + np.float32(1.0)


def test_cosine_schedule_endpoints():
    s = LrSchedule(kind="cosine", peak=0.2, warmup_end=5, total_steps=25)
    assert lr_at(s, 5) == pytest.approx(0.2)
    assert lr_at(s, 25) == pytest.approx(0.0, abs=1e-17)


# -- the masked-step contract -------------------------------------------------


def reset_momentum(state, changed):
    """The runner's rule before the SGD state zeroed masked-out momentum itself:
    zero the momentum of the entries whose mask membership just changed."""
    for name, flags in changed.items():
        if name in state.buffers and flags.any():
            state.buffers[name][flags.astype(bool)] = 0.0


def indexing_sgd_step(store, grads, state, step):
    """The step as it was before masking by multiplication: update every
    entry, then zero the masked-out weights and momentum by indexing."""
    lr = np.float32(lr_at(state.schedule, step))
    beta = np.float32(state.momentum)
    wd = np.float32(state.weight_decay)
    for name, entry in store.items():
        if not entry.trainable:
            continue
        g, w, m = grads[name], entry.weights, state.buffers[name]
        if wd != 0.0:
            g = g + wd * w
        if beta != 0.0:
            m *= beta
            m += g
        else:
            m[...] = g
        w -= lr * m
        if entry.mask is not None:
            dead = entry.mask == 0.0
            w[dead] = 0.0
            m[dead] = 0.0


@given(
    seed=st.integers(0, 10_000),
    momentum=st.sampled_from([0.0, 0.9]),
    weight_decay=st.sampled_from([0.0, 1e-3]),
    steps=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_masked_step_bytes_equal_indexing_step(seed, momentum, weight_decay, steps):
    """Negative gradients at dead entries and mask changes between steps, the
    reference resetting the momentum of changed entries: weights and momentum
    keep the bytes of the indexing step, +0.0 included."""
    rng = np.random.default_rng(seed)
    shapes = {"w": (6, 5), "b": (5,)}
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape))
    store.set_mask("w", (rng.random(shapes["w"]) < 0.5).astype(np.float32))
    ref = clone_store(store)
    schedule = LrSchedule(kind="constant", peak=0.1, total_steps=10)
    state = SgdState(store, schedule, momentum, weight_decay)
    ref_state = SgdState(ref, schedule, momentum, weight_decay)
    for step in range(steps):
        if step > 0 and rng.random() < 0.5:
            mask = (rng.random(shapes["w"]) < 0.5).astype(np.float32)
            reset_momentum(ref_state, {"w": (store["w"].mask != 0.0) != (mask != 0.0)})
            for s in (store, ref):
                s.set_mask("w", mask)
        grads = {n: rng.normal(size=shape).astype(np.float32) for n, shape in shapes.items()}
        dead = store["w"].mask == 0.0
        grads["w"][dead] = -np.abs(grads["w"][dead])
        sgd_step(store, grads, state, step)
        indexing_sgd_step(ref, grads, ref_state, step)
        for name in shapes:
            assert store[name].weights.tobytes() == ref[name].weights.tobytes()
            assert state.buffers[name].tobytes() == ref_state.buffers[name].tobytes()


def test_non_finite_gradient_at_dead_entry_raises():
    store = make_store([1.0, 0.0, 3.0], mask=[1, 0, 1])
    state = SgdState(store, LrSchedule(kind="constant", peak=0.1, total_steps=10))
    for bad in (np.inf, np.nan):
        with pytest.raises(NonFiniteError), np.errstate(invalid="ignore"):
            sgd_step(store, {"w": np.float32([1.0, bad, 1.0])}, state, 0)


def test_zero_momentum_stores_negative_zero_gradient_as_positive_zero():
    store = make_store([1.0, 0.0], mask=[1, 0])
    state = SgdState(store, LrSchedule(kind="constant", peak=0.1, total_steps=10), 0.0, 0.0)
    sgd_step(store, {"w": np.float32([-0.0, -2.0])}, state, 0)
    assert state.buffers["w"].tobytes() == np.float32([0.0, 0.0]).tobytes()
    assert store["w"].weights.tobytes() == np.float32([1.0, 0.0]).tobytes()


# -- the flat step against the per-tensor step ---------------------------------


def per_tensor_sgd_step(store, grads, state, step):
    """The step as it was before the flat vectors: one pass of numpy calls
    per tensor, frozen tensors skipped. `state` needs the hyper-parameters
    and a `buffers` dict of momentum arrays."""
    lr = np.float32(lr_at(state.schedule, step))
    beta = np.float32(state.momentum)
    wd = np.float32(state.weight_decay)
    for name, entry in store.items():
        if not entry.trainable:
            continue
        w = entry.weights
        m = state.buffers[name]
        if wd != 0.0:
            g = np.multiply(w, wd)
            g += grads[name]
        else:
            g = grads[name].copy()
        if entry.mask is not None:
            g *= entry.mask
        if beta != 0.0:
            m *= beta
            m += g
        else:
            np.add(g, 0.0, out=m)
        w -= np.multiply(m, lr, out=g)
        if not np.all(np.isfinite(w)):
            raise NonFiniteError(f"non-finite update for {name}")


def per_tensor_state(store, schedule, momentum, weight_decay):
    return SimpleNamespace(schedule=schedule, momentum=momentum, weight_decay=weight_decay,
                           buffers={n: np.zeros_like(e.weights) for n, e in store.items()})


@pytest.mark.parametrize("own_update_min", [optim.OWN_UPDATE_MIN, 64], ids=["default", "64"])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_flat_step_bytes_equal_per_tensor_step(monkeypatch, own_update_min, momentum,
                                               weight_decay):
    """A pruned tiny transformer through the transfer stages, a fresh state per
    stage as `transfer` makes them, frozen tensors and a mask change mid-stage:
    weights and momentum keep the bytes of the per-tensor step, +0.0 included.
    At a threshold of 64 weights its matrices are updated on their own."""
    monkeypatch.setattr(optim, "OWN_UPDATE_MIN", own_update_min)
    spec = tiny_transformer_spec(vocab=6, max_len=4, d_model=8, ff_dim=12, blocks=2)
    model = build_model(spec, Rng(3))
    rng = np.random.default_rng(7)

    def random_masks():
        weights = {n: model.store[n].weights for n in model.prunable_names()}
        noisy = {n: w + rng.normal(size=w.shape).astype(np.float32) for n, w in weights.items()}
        return magnitude_mask(noisy, SparsityDistribution(kind="global", target=0.5))

    for name, mask in random_masks().items():
        model.store.set_mask(name, mask)
    ref = clone_store(model.store)
    groups = layer_groups(model)
    schedule = LrSchedule(peak=0.1, total_steps=4)
    for stage in range(groups.n_blocks + 2):
        names = trainable_set(groups, stage)
        for s in (model.store, ref):
            for name, entry in s.items():
                entry.trainable = name in names
        state = SgdState(model.store, schedule, momentum, weight_decay)
        ref_state = per_tensor_state(ref, schedule, momentum, weight_decay)
        for step in range(4):
            if stage == 1 and step == 2:
                masks = random_masks()
                reset_momentum(ref_state, {n: (model.store[n].mask != 0.0) != (m != 0.0)
                                           for n, m in masks.items()})
                for s in (model.store, ref):
                    for name, mask in masks.items():
                        s.set_mask(name, mask)
            grads = {n: rng.normal(size=e.weights.shape).astype(np.float32)
                     for n, e in model.store.items()}
            for name, entry in model.store.items():
                if entry.mask is not None:
                    dead = entry.mask == 0.0
                    grads[name][dead] = -np.abs(grads[name][dead])
            sgd_step(model.store, grads, state, step)
            per_tensor_sgd_step(ref, grads, ref_state, step)
            for name, entry in model.store.items():
                assert entry.weights.tobytes() == ref[name].weights.tobytes(), (stage, name)
                assert state.buffers[name].tobytes() == ref_state.buffers[name].tobytes()


def test_weights_stay_views_of_the_flat_vector(tmp_path):
    """set_mask, reinit_head and a checkpoint save keep every entry's weights
    the view the state made, so the next step moves what the store holds."""
    model = build_model(tiny_transformer_spec(vocab=6, max_len=4, d_model=8, ff_dim=12), Rng(2))
    state = SgdState(model.store, LrSchedule(kind="constant", peak=0.1, total_steps=10))
    views = {n: e.weights for n, e in model.store.items()}
    flat = state._w
    name = model.prunable_names()[0]
    model.store.set_mask(name, (model.store[name].weights > 0).astype(np.float32))
    reinit_head(model, Rng(9))
    save_checkpoint(str(tmp_path / "ckpt.splb"), model.store, meta={}, momentum=state.buffers)
    before = {n: w.copy() for n, w in views.items()}
    sgd_step(model.store, {n: np.ones_like(w) for n, w in views.items()}, state, 0)
    assert state._w is flat
    for n, e in model.store.items():
        assert e.weights is views[n] and e.weights.base is flat
        assert state.buffers[n].shape == e.weights.shape
        assert not np.array_equal(e.weights, before[n])


def test_freezing_mid_run_keeps_weights_and_drops_momentum():
    store = ParamStore()
    store.add("a", np.float32([1.0, -0.0, 2.0]))
    store.add("b", np.float32([3.0, 4.0]))
    state = SgdState(store, LrSchedule(kind="constant", peak=0.1, total_steps=10), 0.9, 1e-3)
    grads = {"a": np.float32([1.0, -1.0, 0.5]), "b": np.float32([2.0, 1.0])}
    sgd_step(store, grads, state, 0)
    store["a"].trainable = False
    frozen = store["a"].weights.tobytes()
    for step in (1, 2):
        sgd_step(store, grads, state, step)
        assert store["a"].weights.tobytes() == frozen
        assert state.buffers["a"].tobytes() == np.zeros(3, np.float32).tobytes()
    store["a"].trainable = True
    sgd_step(store, grads, state, 3)
    assert store["a"].weights.tobytes() != frozen


def test_step_rejects_a_changed_or_foreign_store():
    store = make_store([1.0, 2.0])
    state = SgdState(store, LrSchedule(kind="constant", peak=0.1, total_steps=10))
    grads = {"w": np.ones(2, dtype=np.float32)}
    with pytest.raises(ShapeError):
        sgd_step(clone_store(store), grads, state, 0)
    store.add("w", np.zeros(2))
    with pytest.raises(ShapeError):
        sgd_step(store, grads, state, 0)


def test_non_finite_update_names_its_tensor():
    store = ParamStore()
    for name in ("a", "b", "c"):
        store.add(name, np.ones(3, dtype=np.float32))
    state = SgdState(store, LrSchedule(kind="constant", peak=0.1, total_steps=10))
    grads = {n: np.ones(3, dtype=np.float32) for n in ("a", "b", "c")}
    grads["b"][1] = np.inf
    with pytest.raises(NonFiniteError, match="non-finite update for b$"):
        sgd_step(store, grads, state, 0)


def assert_dead_entries_positive_zero(store, state=None):
    """Masked-out weights, and their momentum when `state` is given, are +0.0."""
    for name, entry in store.items():
        if entry.mask is None:
            continue
        dead = entry.mask == 0.0
        for arr in (entry.weights,) if state is None else (entry.weights, state.buffers[name]):
            assert np.all(arr[dead] == 0.0), name
            assert not np.signbit(arr[dead]).any(), name


@pytest.fixture
def checked_steps(monkeypatch):
    """Check the dead weights before each step the training loop takes and
    the dead weights and momentum after it (a step zeroes the momentum a new
    mask leaves dead), and count the steps at which some mask differs from
    the previous step's."""
    seen = {"steps": 0, "mask_changes": 0, "last": None}

    def checked(store, grads, state, step):
        assert_dead_entries_positive_zero(store)
        masks = {n: m.tobytes() for n, m in store.masks().items()}
        if seen["last"] is not None and masks != seen["last"]:
            seen["mask_changes"] += 1
        seen["last"] = masks
        seen["steps"] += 1
        sgd_step(store, grads, state, step)
        assert_dead_entries_positive_zero(store, state)

    monkeypatch.setattr(runner, "sgd_step", checked)
    return seen


@pytest.mark.parametrize(
    "method, extra, optimizer",
    [
        ("gmp", {"gmp": {"ramp_start": 0, "ramp_end": 8, "update_every": 2}}, (0.9, 1e-4)),
        ("rigl", {"rigl": {"alpha": 0.3, "t_end": 10, "delta_t": 1}}, (0.9, 1e-4)),
        ("acdc", {"acdc": {"warmup": 1, "phase_len": 2, "last_decompression": 2,
                           "last_compression": 2}}, (0.9, 1e-4)),
        ("acdc", {"acdc": {"warmup": 1, "phase_len": 2, "last_decompression": 2,
                           "last_compression": 2, "decompression_sparsity": 0.5}}, (0.9, 0.0)),
        ("gmp", {"gmp": {"ramp_start": 0, "ramp_end": 8, "update_every": 2}}, (0.0, 0.0)),
    ],
    ids=["gmp", "rigl", "acdc", "acdc-sparse-decompression", "gmp-no-momentum-no-decay"],
)
def test_dead_entries_positive_zero_at_every_step(
    tmp_path, checked_steps, method, extra, optimizer
):
    momentum, weight_decay = optimizer
    tree = {
        "seed": 5, "method": method, "total_epochs": 12, "batch_size": 64,
        "optimizer": {"lr": 0.1, "momentum": momentum, "weight_decay": weight_decay,
                      "warmup_epochs": 1},
        "sparsity": {"target": 0.8, "distribution": "erk" if method == "rigl" else "global"},
        "model": {"arch": "mlp", "layer_dims": [32, 24, 10]},
        "dataset": {"kind": "synthetic-blobs", "n_train": 256, "n_val": 64, "classes": 10,
                    "dim": 32},
        **extra,
    }
    runner.run_experiment(ExperimentConfig.from_dict(tree), str(tmp_path / "run"))
    assert checked_steps["steps"] == 12 * 4
    assert checked_steps["mask_changes"] >= 3


def test_dead_entries_positive_zero_through_transfer(checked_steps):
    spec = tiny_transformer_spec(vocab=8, max_len=8, d_model=8, ff_dim=12, blocks=2, classes=2,
                                 dropout=0.1)
    model = build_model(spec, Rng(4))
    masks = magnitude_mask(
        {n: model.store[n].weights for n in model.prunable_names()},
        SparsityDistribution(kind="global", target=0.6),
    )
    for name, mask in masks.items():
        model.store.set_mask(name, mask)
    data = build_dataset(
        DatasetSpec(kind="synthetic-sequences", n_train=64, n_val=32, vocab=8, seq_len=8),
        Rng(9).stream(STREAM_DATA),
    )
    transfer_run(model, data, TransferHyper(lr=0.05, batch_size=16, early_stop=False), Rng(11))
    assert checked_steps["steps"] == 4 * 4
