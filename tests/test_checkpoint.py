import contextlib
import io
import json
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import clone_store, micro_cnn_spec, mlp_spec, tiny_transformer_spec

from sparselab.checkpoint import (
    MAGIC,
    VERSION,
    load_checkpoint,
    rebuild_model,
    save_checkpoint,
)
from sparselab.cli import main
from sparselab.config import to_tree
from sparselab.errors import CheckpointError
from sparselab.models import build_model
from sparselab.optim import LrSchedule, SgdState
from sparselab.rng import Rng
from sparselab.sparsify import SparsityDistribution, magnitude_mask


def sparse_model(seed=0):
    model = build_model(mlp_spec((12, 8, 4)), Rng(seed))
    masks = magnitude_mask(model.prunable_weights(), SparsityDistribution(kind="global", target=0.5))
    for n, m in masks.items():
        model.store.set_mask(n, m)
    return model


def test_round_trip_bit_exact(tmp_path):
    model = sparse_model()
    momentum = {n: Rng(9).normals(e.weights.size).reshape(e.weights.shape).astype(np.float32)
                for n, e in model.store.items()}
    meta = {"epoch": 3, "seed": 11, "method": "oneshot", "train_loss_eval": 1.2345678901234567}
    path = str(tmp_path / "a.splb")
    save_checkpoint(path, model.store, meta, momentum=momentum)
    ck = load_checkpoint(path)
    assert ck.meta["epoch"] == 3
    assert ck.meta["train_loss_eval"] == 1.2345678901234567
    for name, entry in model.store.items():
        assert ck.weights()[name].tobytes() == entry.weights.tobytes()
        assert ck.momentum()[name].tobytes() == momentum[name].tobytes()
    for name, mask in model.store.masks().items():
        assert ck.masks()[name].tobytes() == mask.tobytes()


def test_save_load_save_identical_bytes(tmp_path):
    model = sparse_model()
    p1, p2 = str(tmp_path / "a.splb"), str(tmp_path / "b.splb")
    save_checkpoint(p1, model.store, {"epoch": 1})
    ck = load_checkpoint(p1)
    store2 = clone_store(model.store)
    for name, arr in ck.weights().items():
        store2[name].weights[...] = arr
    save_checkpoint(p2, store2, {"epoch": 1})
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_magic_and_layout(tmp_path):
    path = str(tmp_path / "a.splb")
    model = sparse_model()
    save_checkpoint(path, model.store, {"epoch": 0})
    raw = open(path, "rb").read()
    assert raw[:4] == MAGIC == b"SPLB"
    version = int.from_bytes(raw[4:8], "little")
    assert version == 1
    header_len = int.from_bytes(raw[8:16], "little")
    header = raw[16 : 16 + header_len].decode("utf-8")
    assert '"tensors"' in header and '"meta"' in header


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "bad.splb")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "a.splb")
    model = sparse_model()
    save_checkpoint(path, model.store, {"epoch": 0})
    raw = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(raw[:-8])
    with pytest.raises(CheckpointError, match="bounds"):
        load_checkpoint(path)


def test_rebuild_model_restores_masks(tmp_path):
    model = sparse_model(seed=4)
    path = str(tmp_path / "a.splb")
    save_checkpoint(path, model.store, {"epoch": 0, "model_spec": to_tree(model.spec)})
    loaded = rebuild_model(load_checkpoint(path))
    assert loaded.spec == model.spec
    for name, entry in model.store.items():
        assert np.array_equal(loaded.store[name].weights, entry.weights)
        lm, em = loaded.store[name].mask, entry.mask
        assert (lm is None) == (em is None)
        if em is not None:
            assert np.array_equal(lm, em)


@pytest.mark.parametrize("spec", [
    mlp_spec((12, 8, 4)),
    micro_cnn_spec(1, (8, 8), (2, 3), 4),
    tiny_transformer_spec(vocab=4, max_len=3, d_model=4, ff_dim=6, blocks=2, classes=2),
], ids=lambda spec: spec.arch)
def test_rebuild_model_draws_nothing(tmp_path, monkeypatch, spec):
    model = build_model(spec, Rng(3))
    path = str(tmp_path / "a.splb")
    save_checkpoint(path, model.store, {"epoch": 0, "model_spec": to_tree(spec)})
    ck = load_checkpoint(path)

    def no_draw(self, n):
        raise AssertionError("rebuild_model drew random numbers")

    monkeypatch.setattr(Rng, "uniforms", no_draw)
    monkeypatch.setattr(Rng, "normals", no_draw)
    rebuilt = rebuild_model(ck)
    assert rebuilt.store.names() == model.store.names()
    for name, entry in model.store.items():
        assert rebuilt.store[name].weights.tobytes() == entry.weights.tobytes()


def test_rebuilt_models_share_no_array(tmp_path):
    """The transfer grid rebuilds one loaded checkpoint per run; a shared
    array would let one run train on another's weights or masks."""
    model = sparse_model(seed=5)
    path = str(tmp_path / "a.splb")
    save_checkpoint(path, model.store, {"epoch": 0, "model_spec": to_tree(model.spec)})
    ck = load_checkpoint(path)
    a, b = rebuild_model(ck), rebuild_model(ck)
    assert a.store.masks()

    def arrays(m):
        return [e.weights for _, e in m.store.items()] + list(m.store.masks().values())

    for x in arrays(a):
        for y in arrays(b) + list(ck.tensors.values()):
            assert not np.shares_memory(x, y)


def _raw_checkpoint(path, header, payload=b""):
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(blob)) + blob + payload)


def _record(shape, offset):
    return {"name": "w", "kind": "weights", "shape": shape, "offset": offset}


@pytest.mark.parametrize("header, loads", [
    ({"meta": {}}, False),
    ({"tensors": []}, False),
    ([], False),
    ({"tensors": [_record([2], -4)], "meta": {}}, False),
    ({"tensors": [_record([-1, 2], 0)], "meta": {}}, False),
    ({"tensors": [_record([2], 0)], "meta": {"model_spec": {"arch": "mlp", "bogus": 1}}}, True),
    ({"tensors": [_record([2], 0)], "meta": {"model_spec": ["mlp"]}}, True),
], ids=["no-tensors", "no-meta", "list-header", "negative-offset", "negative-shape",
        "spec-unknown-key", "spec-not-object"])
def test_malformed_header_is_checkpoint_error(tmp_path, capsys, header, loads):
    """A bad header or tensor record fails in load_checkpoint; a bad model
    spec loads and fails when the model is rebuilt. Either way the error is
    CheckpointError and the CLI exits 1 with one error line."""
    path = str(tmp_path / "bad.splb")
    _raw_checkpoint(path, header, payload=b"\x00" * 16)
    if loads:
        ck = load_checkpoint(path)
        with pytest.raises(CheckpointError):
            rebuild_model(ck)
    else:
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
    assert main(["flops", "--checkpoint", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _fuzz_base() -> bytes:
    """A valid checkpoint with masks and momentum, as bytes."""
    model = sparse_model(3)
    sgd = SgdState(model.store, LrSchedule(total_steps=1))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ckpt.splb")
        save_checkpoint(path, model.store, {"epoch": 1, "model_spec": to_tree(model.spec)},
                        momentum=sgd.buffers)
        with open(path, "rb") as f:
            return f.read()


FUZZ_BASE = _fuzz_base()
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False), st.lists(st.integers(-5, 2**40), max_size=4),
    st.just({}), st.just([]),
)


def _json_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, prefix + (key,))


@st.composite
def _damaged_checkpoints(draw):
    raw = FUZZ_BASE
    (n,) = struct.unpack_from("<Q", raw, 8)
    action = draw(st.sampled_from(["truncate", "length", "bytes", "value", "drop"]))
    if action == "truncate":
        return raw[: draw(st.integers(0, 16) | st.integers(0, len(raw) - 1))]
    if action == "length":
        return raw[:8] + struct.pack("<Q", draw(st.integers(0, 2**64 - 1))) + raw[16:]
    if action == "bytes":
        out = bytearray(raw)
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(16, 16 + n - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    header = json.loads(raw[16 : 16 + n])
    *parents, key = draw(st.sampled_from(list(_json_paths(header))))
    node = header
    for p in parents:
        node = node[p]
    if action == "value":
        node[key] = draw(_JSON_LEAVES)
    else:
        node.pop(key)
    blob = json.dumps(header).encode("utf-8")
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n :]


@given(raw=_damaged_checkpoints())
@settings(max_examples=300, deadline=None)
def test_damaged_checkpoint_header_one_error_line(raw):
    """A truncated checkpoint, or one whose header is mutated, either still
    describes a model (exit 0) or ends in one `error:` line and exit 1,
    never in a traceback."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ckpt.splb")
        with open(path, "wb") as f:
            f.write(raw)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["flops", "--checkpoint", path])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
    if len(raw) < len(FUZZ_BASE) and raw == FUZZ_BASE[: len(raw)]:
        assert code == 1


def test_atomic_write_leaves_no_temp(tmp_path):
    model = sparse_model()
    path = str(tmp_path / "a.splb")
    save_checkpoint(path, model.store, {"epoch": 0})
    assert os.listdir(tmp_path) == ["a.splb"]


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkpoint_io_holds_the_payload_once(tmp_path):
    """load_checkpoint reads the file into one buffer whose views are the
    tensors, and save_checkpoint writes each tensor's own buffer."""
    model = build_model(mlp_spec((256, 256, 10)), Rng(6))
    momentum = {n: np.ones_like(e.weights) for n, e in model.store.items()}
    path = str(tmp_path / "a.splb")
    payload = 4 * 2 * sum(e.weights.size for _, e in model.store.items())
    assert _traced_peak(save_checkpoint, path, model.store, {"epoch": 0}, momentum) < payload / 4
    assert _traced_peak(load_checkpoint, path) <= 1.1 * os.path.getsize(path)
