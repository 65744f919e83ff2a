"""Versioned binary checkpoints.

Layout: magic "SPLB" | u32 LE format version | u64 LE header length |
UTF-8 JSON header | raw little-endian f32 payload. The header carries one
record per tensor (name, shape, kind, byte offset into the payload) plus
free-form metadata; masks are stored as f32 0/1 and momentum buffers ride
along so that load(save(x)) is bit-identical to x.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import load_tree
from .errors import CheckpointError, ConfigError
from .models import Model, ModelSpec, ParamStore

MAGIC = b"SPLB"
VERSION = 1

KIND_WEIGHTS = "weights"
KIND_MASK = "mask"
KIND_MOMENTUM = "momentum"


@dataclass
class Checkpoint:
    tensors: dict[tuple[str, str], np.ndarray]  # (kind, name) -> read-only f32 view of the file
    meta: dict

    def weights(self) -> dict[str, np.ndarray]:
        return {n: t for (k, n), t in self.tensors.items() if k == KIND_WEIGHTS}

    def masks(self) -> dict[str, np.ndarray]:
        return {n: t for (k, n), t in self.tensors.items() if k == KIND_MASK}

    def momentum(self) -> dict[str, np.ndarray]:
        return {n: t for (k, n), t in self.tensors.items() if k == KIND_MOMENTUM}


def save_checkpoint(
    path: str,
    store: ParamStore,
    meta: dict,
    momentum: dict[str, np.ndarray] | None = None,
) -> None:
    records = []
    arrays = []
    offset = 0

    def push(kind, name, arr):
        nonlocal offset
        arr = np.ascontiguousarray(arr, dtype="<f4")
        records.append(
            {"name": name, "kind": kind, "shape": list(arr.shape), "offset": offset}
        )
        arrays.append(arr)
        offset += arr.nbytes

    for name, entry in store.items():
        push(KIND_WEIGHTS, name, entry.weights)
        if entry.mask is not None:
            push(KIND_MASK, name, entry.mask)
    if momentum:
        for name, buf in momentum.items():
            push(KIND_MOMENTUM, name, buf)

    header = json.dumps(
        {"tensors": records, "meta": meta}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for arr in arrays:
            f.write(arr.data)  # the tensor's own buffer: no byte copy
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 16:
        raise CheckpointError(f"{path}: truncated before the header length")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header_end = 16 + header_len
    if header_end > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from e
    if not (isinstance(header, dict) and isinstance(header.get("tensors"), list)
            and isinstance(header.get("meta"), dict)):
        raise CheckpointError(f"{path}: header needs a tensor list and a metadata object")
    payload = memoryview(raw)[header_end:]  # the tensors are read-only views of `raw`
    tensors: dict[tuple[str, str], np.ndarray] = {}
    for rec in header["tensors"]:
        try:
            name, kind, shape, start = rec["name"], rec["kind"], tuple(rec["shape"]), rec["offset"]
        except (KeyError, TypeError) as e:
            raise CheckpointError(f"{path}: malformed tensor record {rec!r}") from e
        if not (isinstance(name, str) and isinstance(kind, str)  # JSON true is no size
                and all(type(n) is int and n >= 0 for n in shape)
                and type(start) is int and start >= 0):
            raise CheckpointError(f"{path}: tensor record {rec!r} has a bad name, shape or offset")
        count = math.prod(shape)
        if start + 4 * count > len(payload):
            raise CheckpointError(f"{path}: tensor {name} out of payload bounds")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=start)
        tensors[(kind, name)] = arr.reshape(shape)
    return Checkpoint(tensors=tensors, meta=header["meta"])


def rebuild_model(ck: Checkpoint) -> Model:
    """Reconstruct a Model (weights + masks) from a checkpoint's metadata.

    Draws nothing: the architecture's parameter table gives the order and
    shapes, and every tensor is copied, so models rebuilt from one
    checkpoint share no array."""
    try:
        spec = load_tree(ModelSpec, ck.meta.get("model_spec"), "model_spec")
    except ConfigError as e:
        raise CheckpointError(f"checkpoint model spec is malformed: {e}") from e
    model = Model(spec, ParamStore())
    weights, masks = ck.weights(), ck.masks()
    if set(weights) != set(model.info) or not set(masks) <= set(weights):
        raise CheckpointError("checkpoint parameters do not match the model spec")
    for name, d in model.info.items():
        if weights[name].shape != d.shape:
            raise CheckpointError(f"shape mismatch for {name}")
        model.store.add(name, weights[name].copy())
    for name, mask in masks.items():
        model.store.set_mask(name, mask.copy())
    return model
