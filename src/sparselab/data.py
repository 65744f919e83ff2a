"""Dataset ingestion: IDX image files plus deterministic synthetic tasks.

Synthetic data stands in for the large-scale benchmarks: Gaussian blobs in
pixel space for the vector/image models, rule-labeled token strings for the
transformer. Generation is fully determined by the data sub-stream of the
run seed, and train/val draws never overlap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .rng import Rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    classes: int
    input_kind: str  # vector | tokens


@dataclass(frozen=True)
class DatasetSpec:
    kind: str  # idx-images | synthetic-blobs | synthetic-sequences
    n_train: int = 2000
    n_val: int = 1000
    classes: int = 10
    dim: int = 784
    noise: float = 1.0
    center_scale: float = 1.0
    label_noise: float = 0.0  # fraction of train labels resampled uniformly
    vocab: int = 16
    seq_len: int = 16
    images_path: str = ""
    labels_path: str = ""
    val_fraction: float = 0.2

    def __post_init__(self):
        for k in ("n_train", "n_val", "classes", "dim", "seq_len"):
            if getattr(self, k) < 1:
                raise ConfigError(f"dataset {k} must be positive, got {getattr(self, k)}")
        if self.vocab < 2:
            raise ConfigError("sequence vocab must be >= 2")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise DataError(f"{path}: cannot read ({e.strerror})") from e


def _read_be_u32(buf: bytes, ofs: int, path: str) -> int:
    if ofs + 4 > len(buf):
        raise DataError(f"{path}: truncated header")
    return struct.unpack_from(">I", buf, ofs)[0]


def load_idx(path_images: str, path_labels: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse big-endian IDX image/label files into ([0,1] floats, int labels)."""
    raw = _read(path_images)
    magic = _read_be_u32(raw, 0, path_images)
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{path_images}: wrong magic 0x{magic:08x}")
    count = _read_be_u32(raw, 4, path_images)
    rows = _read_be_u32(raw, 8, path_images)
    cols = _read_be_u32(raw, 12, path_images)
    need = 16 + count * rows * cols
    if len(raw) < need:
        raise DataError(f"{path_images}: truncated payload ({len(raw)} < {need})")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
    images = (pixels.astype(np.float32) / 255.0).reshape(count, rows * cols)

    raw = _read(path_labels)
    magic = _read_be_u32(raw, 0, path_labels)
    if magic != IDX_LABELS_MAGIC:
        raise DataError(f"{path_labels}: wrong magic 0x{magic:08x}")
    n_labels = _read_be_u32(raw, 4, path_labels)
    if len(raw) < 8 + n_labels:
        raise DataError(f"{path_labels}: truncated payload")
    labels = np.frombuffer(raw, dtype=np.uint8, count=n_labels, offset=8).astype(np.int64)
    if n_labels != count:
        raise DataError(f"image count {count} != label count {n_labels}")
    return images, labels


def _balanced_labels(rng: Rng, n: int, classes: int) -> np.ndarray:
    labels = np.array([i % classes for i in range(n)], dtype=np.int64)
    rng.shuffle(labels)
    return labels


def make_blobs(spec: DatasetSpec, rng: Rng) -> Dataset:
    """Gaussian class blobs: x = center[label] + noise * N(0, I)."""
    centers = (
        rng.normals(spec.classes * spec.dim).reshape(spec.classes, spec.dim)
        * spec.center_scale
        / np.sqrt(spec.dim)
    )

    def draw(n):
        y = _balanced_labels(rng, n, spec.classes)
        x = centers[y] + spec.noise / np.sqrt(spec.dim) * rng.normals(n * spec.dim).reshape(
            n, spec.dim
        )
        return x.astype(np.float32), y

    x_tr, y_tr = draw(spec.n_train)
    x_va, y_va = draw(spec.n_val)
    if spec.label_noise > 0.0:
        # corrupt a fixed fraction of train labels so the task stays unfit
        # and gradients persist through long runs
        for i in range(len(y_tr)):
            if rng.uniform() < spec.label_noise:
                y_tr[i] = rng.below(spec.classes)
    return Dataset(x_tr, y_tr, x_va, y_va, spec.classes, "vector")


def make_sequences(spec: DatasetSpec, rng: Rng) -> Dataset:
    """Token strings labeled by which vocabulary half dominates the string."""
    half = spec.vocab // 2

    def draw(n):
        toks = np.empty((n, spec.seq_len), dtype=np.int64)
        for i in range(n):
            for j in range(spec.seq_len):
                toks[i, j] = rng.below(spec.vocab)
        low = (toks < half).sum(axis=1)
        y = (low * 2 > spec.seq_len).astype(np.int64)
        return toks, y

    x_tr, y_tr = draw(spec.n_train)
    x_va, y_va = draw(spec.n_val)
    return Dataset(x_tr, y_tr, x_va, y_va, 2, "tokens")


def build_dataset(spec: DatasetSpec, rng: Rng) -> Dataset:
    if spec.kind == "synthetic-blobs":
        return make_blobs(spec, rng)
    if spec.kind == "synthetic-sequences":
        return make_sequences(spec, rng)
    if spec.kind == "idx-images":
        images, labels = load_idx(spec.images_path, spec.labels_path)
        n_val = int(len(images) * spec.val_fraction)
        n_train = len(images) - n_val
        if n_train < 1 or n_val < 1:
            raise ConfigError(f"val_fraction {spec.val_fraction} leaves a split of "
                              f"{len(images)} images empty")
        classes = int(labels.max()) + 1
        return Dataset(
            images[:n_train], labels[:n_train], images[n_train:], labels[n_train:],
            classes, "vector",
        )
    raise ConfigError(f"unknown dataset kind {spec.kind!r}")
