"""A reader for sparselab's `.splb` checkpoints, written from the documented
layout rather than from `sparselab.checkpoint`, so the output checks do not
trust the code they check.

Layout: b"SPLB" | u32 LE version (1) | u64 LE header length | UTF-8 JSON
header {"tensors": [{name, kind, shape, offset}], "meta": {...}} |
little-endian f32 payload, offsets counted from the payload's start.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Splb:
    path: str
    meta: dict
    weights: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]
    momentum: dict[str, np.ndarray]


def read_splb(path: str) -> Splb:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"SPLB" or len(raw) < 16:
        raise CheckFailed(f"{path}: not an SPLB file")
    (version,) = struct.unpack_from("<I", raw, 4)
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    if version != 1 or 16 + header_len > len(raw):
        raise CheckFailed(f"{path}: version {version}, header length {header_len}")
    header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    payload = memoryview(raw)[16 + header_len :]
    tables = {"weights": {}, "mask": {}, "momentum": {}}
    used = 0
    for rec in header["tensors"]:
        count = math.prod(rec["shape"])
        start, stop = rec["offset"], rec["offset"] + 4 * count
        if start < 0 or stop > len(payload) or rec["kind"] not in tables:
            raise CheckFailed(f"{path}: bad tensor record {rec}")
        arr = np.frombuffer(payload[start:stop], dtype="<f4").reshape(rec["shape"])
        tables[rec["kind"]][rec["name"]] = arr.astype(np.float32)
        used += 4 * count
    if used != len(payload):
        raise CheckFailed(f"{path}: {len(payload)} payload bytes, tensors cover {used}")
    return Splb(path, header["meta"], tables["weights"], tables["mask"], tables["momentum"])
