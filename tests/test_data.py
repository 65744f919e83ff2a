import numpy as np
import pytest

from conftest import write_idx_pair
from sparselab.data import (
    DatasetSpec,
    build_dataset,
    load_idx,
    make_blobs,
    make_sequences,
)
from sparselab.errors import ConfigError, DataError
from sparselab.rng import Rng


def test_idx_two_image_fixture(tmp_path):
    pixels = np.zeros((2, 28, 28), dtype=np.uint8)
    pixels[0, 0, 0] = 255
    pixels[1, 3, 4] = 128
    img, lab = write_idx_pair(tmp_path, pixels, [7, 2])
    x, y = load_idx(img, lab)
    assert x.shape == (2, 784)
    assert x.dtype == np.float32
    assert x[0, 0] == 1.0  # 255 scales to exactly 1.0
    assert x[1, 3 * 28 + 4] == pytest.approx(128 / 255)
    assert y.tolist() == [7, 2]


def test_idx_wrong_magic(tmp_path):
    pixels = np.zeros((1, 4, 4), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, [0], image_magic=0x802)
    with pytest.raises(DataError, match="magic"):
        load_idx(img, lab)


def test_idx_truncated_payload(tmp_path):
    pixels = np.zeros((2, 4, 4), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels, [0, 1])
    raw = open(img, "rb").read()
    with open(img, "wb") as f:
        f.write(raw[:-5])
    with pytest.raises(DataError, match="truncated"):
        load_idx(img, lab)


def test_idx_count_mismatch(tmp_path):
    pixels = np.zeros((2, 4, 4), dtype=np.uint8)
    img, _ = write_idx_pair(tmp_path, pixels, [0, 1])
    _, lab3 = write_idx_pair(tmp_path, np.zeros((3, 4, 4), dtype=np.uint8), [0, 1, 2], prefix="b_")
    with pytest.raises(DataError, match="count"):
        load_idx(img, lab3)


@pytest.mark.parametrize("missing", ["images", "labels"])
def test_idx_missing_file(tmp_path, missing):
    img, lab = write_idx_pair(tmp_path, np.zeros((2, 4, 4), dtype=np.uint8), [0, 1])
    gone = str(tmp_path / "gone.idx")
    paths = (gone, lab) if missing == "images" else (img, gone)
    with pytest.raises(DataError, match="gone.idx: cannot read"):
        load_idx(*paths)


@pytest.mark.parametrize("val_fraction", [0.0, 1.0])
def test_idx_split_leaves_no_side_empty(tmp_path, val_fraction):
    img, lab = write_idx_pair(tmp_path, np.zeros((4, 2, 2)), [0, 1, 0, 1])
    spec = DatasetSpec(kind="idx-images", images_path=img, labels_path=lab,
                       val_fraction=val_fraction)
    with pytest.raises(ConfigError):
        build_dataset(spec, Rng(0))


def test_blobs_deterministic_and_disjoint():
    spec = DatasetSpec(kind="synthetic-blobs", n_train=100, n_val=50, classes=5, dim=16)
    a = make_blobs(spec, Rng(5))
    b = make_blobs(spec, Rng(5))
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.y_val, b.y_val)
    # train and val are distinct draws
    assert not np.array_equal(a.x_train[:50], a.x_val)
    assert a.x_train.dtype == np.float32
    assert set(a.y_train.tolist()) == set(range(5))


def test_blobs_balanced_labels():
    spec = DatasetSpec(kind="synthetic-blobs", n_train=100, n_val=20, classes=4, dim=8)
    ds = make_blobs(spec, Rng(1))
    counts = np.bincount(ds.y_train, minlength=4)
    assert np.all(counts == 25)


def test_sequences_rule_labels():
    spec = DatasetSpec(kind="synthetic-sequences", n_train=64, n_val=32, vocab=8, seq_len=9)
    ds = make_sequences(spec, Rng(3))
    assert ds.input_kind == "tokens"
    assert ds.classes == 2
    low = (ds.x_train < 4).sum(axis=1)
    want = (low * 2 > 9).astype(np.int64)
    assert np.array_equal(ds.y_train, want)
    assert ds.x_train.max() < 8


def test_build_dataset_dispatch():
    ds = build_dataset(DatasetSpec(kind="synthetic-blobs", n_train=10, n_val=5, dim=4), Rng(0))
    assert ds.input_kind == "vector"
    with pytest.raises(Exception):
        build_dataset(DatasetSpec(kind="nope"), Rng(0))
