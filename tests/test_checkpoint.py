import json
import os
import struct

import numpy as np
import pytest

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


def test_atomic_write_leaves_no_temp(tmp_path):
    model = sparse_model()
    path = str(tmp_path / "a.splb")
    save_checkpoint(path, model.store, {"epoch": 0})
    assert os.listdir(tmp_path) == ["a.splb"]
