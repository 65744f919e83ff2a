import contextlib
import io
import json
import os
import pathlib
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_idx_pair
import sparselab
from sparselab.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def write_cfg(tmp_path, name, tree):
    path = str(tmp_path / name)
    with open(path, "w") as f:
        json.dump(tree, f)
    return path


def acdc_tree(**overrides):
    tree = json.load(open(os.path.join(FIXTURES, "acdc_blobs.json")))
    tree.update(overrides)
    return tree


def test_train_and_analyze_masks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", acdc_tree())
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    n_ckpts = len([f for f in os.listdir(out) if f.endswith(".splb")])
    analysis = str(tmp_path / "analysis")
    assert main(["analyze-masks", out, "--out", analysis]) == 0
    iou_lines = open(os.path.join(analysis, "iou.csv")).read().splitlines()
    assert iou_lines[0] == "epoch_a,epoch_b,iou"
    assert len(iou_lines) - 1 == n_ckpts - 1  # K checkpoints -> K-1 rows
    for line in iou_lines[1:]:
        v = float(line.split(",")[2])
        assert 0.0 <= v <= 1.0


def test_train_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", acdc_tree())
    main(["train", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["train", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "99"])
    a = open(tmp_path / "a" / "metrics.csv").read()
    b = open(tmp_path / "b" / "metrics.csv").read()
    assert a != b


def test_flops_dense_proportion_one(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "cfg.json",
        {"method": "dense", "model": {"arch": "mlp", "layer_dims": [64, 32, 10]},
         "dataset": {"kind": "synthetic-blobs", "n_train": 64, "n_val": 32, "dim": 64}},
    )
    assert main(["flops", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "total,4736,1"  # 2*64*32 + 2*32*10


def test_sharpness_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", acdc_tree(total_epochs=8,
                    acdc={"warmup": 1, "phase_len": 1, "last_decompression": 2,
                          "last_compression": 2}))
    out = str(tmp_path / "run")
    main(["train", "--config", cfg, "--out", out])
    ckpt = sorted(f for f in os.listdir(out) if f.endswith(".splb"))[-1]
    rc = main(["sharpness", "--checkpoint", os.path.join(out, ckpt),
               "--batch-size", "64", "--power-iters", "5"])
    assert rc == 0
    assert "sharpness" in capsys.readouterr().out


def test_interpolate_command_row_count(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", acdc_tree())
    out = str(tmp_path / "run")
    main(["train", "--config", cfg, "--out", out])
    ckpts = sorted(
        os.path.join(out, f) for f in os.listdir(out) if f.endswith(".splb")
    )[:3]
    assert len(ckpts) == 3
    dest = str(tmp_path / "interp")
    assert main(["interpolate", "--checkpoints", *ckpts, "--out", dest]) == 0
    lines = open(os.path.join(dest, "interpolation.csv")).read().splitlines()
    assert lines[0] == "alpha,split,loss"
    rows = [l.split(",") for l in lines[1:]]
    for split in ("train", "val"):
        assert sum(1 for r in rows if r[1] == split) == 21


def test_transfer_command(tmp_path):
    tree = {
        "seed": 5, "method": "oneshot", "total_epochs": 2, "batch_size": 32,
        "sparsity": {"target": 0.5, "distribution": "uniform",
                     "keep_dense": ["head.weight"]},
        "optimizer": {"lr": 0.05, "warmup_epochs": 0},
        "model": {"arch": "tiny-transformer", "vocab": 8, "max_len": 8, "d_model": 8,
                  "ff_dim": 12, "blocks": 2, "classes": 2},
        "dataset": {"kind": "synthetic-sequences", "n_train": 96, "n_val": 64,
                    "vocab": 8, "seq_len": 8},
    }
    cfg = write_cfg(tmp_path, "cfg.json", tree)
    out = str(tmp_path / "run")
    main(["train", "--config", cfg, "--out", out])
    ckpt = os.path.join(out, sorted(f for f in os.listdir(out) if f.endswith(".splb"))[-1])
    dest = str(tmp_path / "transfer")
    rc = main(["transfer", "--checkpoint", ckpt, "--out", dest, "--no-early-stop",
               "--n-train", "64", "--n-val", "32", "--lr", "0.05", "0.1"])
    assert rc == 0
    assert os.path.exists(os.path.join(dest, "run_000_stages.csv"))
    assert os.path.exists(os.path.join(dest, "run_001_stages.csv"))
    summary = json.load(open(os.path.join(dest, "summary.json")))
    assert "mean_top1_two_best" in summary
    lines = open(os.path.join(dest, "run_000_stages.csv")).read().splitlines()
    assert lines[0] == "stage,label,trainable,lr_first,lr_last,eval_loss,top1"
    assert len(lines) == 5  # B=2 -> 4 stages


def test_sweep_command(tmp_path):
    grid = write_cfg(tmp_path, "grid.json", json.load(open(os.path.join(FIXTURES, "sweep_grid.json"))))
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--grid", grid, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_cli_import_leaves_multiprocessing_unloaded():
    """Only a multi-worker sweep loads multiprocessing (socket, subprocess)."""
    src = os.path.dirname(os.path.dirname(sparselab.__file__))  # the package this test imports
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, sparselab.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def test_invalid_config_exit_2(tmp_path):
    bad = write_cfg(tmp_path, "bad.json", {"method": "alchemy"})
    assert main(["train", "--config", bad, "--out", str(tmp_path / "x")]) == 2


SHORT_ACDC = {"method": "acdc", "total_epochs": 7,
              "acdc": {"warmup": 1, "phase_len": 1, "last_decompression": 2, "last_compression": 2}}
# (base overrides, grid) of sweeps whose first run is good and whose second is not
BAD_SECOND_RUNS = {
    "eval-train-split-string": ({}, {"eval_train_split": [False, "no"]}),
    "acdc-too-short": (SHORT_ACDC, {"total_epochs": [7, 5]}),
    "gmp-ramp-reversed": ({"method": "gmp", "gmp": {"ramp_start": 2}}, {"gmp.ramp_end": [3, 1]}),
    "acdc-decompression-above-target": ({**SHORT_ACDC, "sparsity": {"target": 0.9}},
                                        {"acdc.decompression_sparsity": [0.5, 0.95]}),
}


@pytest.mark.parametrize("name", list(BAD_SECOND_RUNS))
def test_sweep_with_a_bad_run_config_exit_2(tmp_path, name):
    base, grid = BAD_SECOND_RUNS[name]
    tree = json.load(open(os.path.join(FIXTURES, "sweep_grid.json")))
    tree["base"].update(base)
    tree["grid"] = grid
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--grid", write_cfg(tmp_path, "grid.json", tree), "--out", out]) == 2
    assert not os.path.exists(out)


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_config_exit_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[1, 2]", b'{"seed": NaN}'])
def test_unreadable_config_exit_2(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_analyze_masks_needs_two_checkpoints(tmp_path):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    assert main(["analyze-masks", str(tmp_path / "empty"), "--out", str(tmp_path / "o")]) == 2


def test_interpolate_rejects_checkpoints_of_different_runs(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", acdc_tree())
    main(["train", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["train", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "4"])
    ckpts = [str(tmp_path / run / "ckpt_00012.splb") for run in ("a", "b")]
    dest = str(tmp_path / "interp")
    assert main(["interpolate", "--checkpoints", *ckpts, "--out", dest]) == 2
    assert not os.path.exists(dest)


def test_dropout_rejected_for_architectures_without_dropout(tmp_path, capsys):
    tree = json.load(open(os.path.join(FIXTURES, "dense_smoke.json")))
    out = str(tmp_path / "run")
    assert main(["train", "--config", write_cfg(tmp_path, "cfg.json", tree), "--out", out]) == 0
    ckpt = os.path.join(out, "ckpt_00002.splb")
    dest = str(tmp_path / "transfer")
    rc = main(["transfer", "--checkpoint", ckpt, "--out", dest, "--dropout", "0.5",
               "--n-train", "64", "--n-val", "32"])
    assert rc == 2
    assert "no dropout layers" in capsys.readouterr().err
    assert not os.path.exists(dest)
    tree["model"]["dropout"] = 0.1
    bad = write_cfg(tmp_path, "bad.json", tree)
    assert main(["train", "--config", bad, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("rate", ["-0.5", "1.0", "1.5"])
def test_transfer_rejects_dropout_outside_unit_interval(tmp_path, rate):
    tree = {
        "seed": 5, "method": "dense", "total_epochs": 1, "batch_size": 32,
        "model": {"arch": "tiny-transformer", "vocab": 4, "max_len": 4, "d_model": 8,
                  "ff_dim": 8, "blocks": 1, "classes": 2},
        "dataset": {"kind": "synthetic-sequences", "n_train": 32, "n_val": 16,
                    "vocab": 4, "seq_len": 4},
    }
    out = str(tmp_path / "run")
    assert main(["train", "--config", write_cfg(tmp_path, "cfg.json", tree), "--out", out]) == 0
    rc = main(["transfer", "--checkpoint", os.path.join(out, "ckpt_00001.splb"),
               "--out", str(tmp_path / "t"), "--dropout", rate])
    assert rc == 2


TINY_TRANSFORMER = {
    "seed": 5, "method": "dense", "total_epochs": 1, "batch_size": 32,
    "model": {"arch": "tiny-transformer", "vocab": 4, "max_len": 4, "d_model": 8,
              "ff_dim": 8, "blocks": 1, "classes": 2},
    "dataset": {"kind": "synthetic-sequences", "n_train": 32, "n_val": 16,
                "vocab": 4, "seq_len": 4},
}


def test_sharpness_command_on_a_token_model(tmp_path, capsys):
    """The tiny transformer's batch holds integer token ids, which must reach
    its embedding lookup as they are."""
    out = str(tmp_path / "run")
    assert main(["train", "--config", write_cfg(tmp_path, "cfg.json", TINY_TRANSFORMER),
                 "--out", out]) == 0
    capsys.readouterr()
    assert main(["sharpness", "--checkpoint", os.path.join(out, "ckpt_00001.splb"),
                 "--batch-size", "16", "--power-iters", "3"]) == 0
    assert capsys.readouterr().out.startswith("sharpness ")


@pytest.mark.parametrize("command, bad", [
    ("config", {"checkpoint_every": 0}),
    ("config", {"dataset": dict(TINY_TRANSFORMER["dataset"], n_train=0)}),
    ("train", ["--checkpoint-every", "0"]),
    ("transfer", ["--batch-size", "0"]),
    ("transfer", ["--n-val", "0"]),
    ("transfer", ["--n-train", "0"]),
    ("transfer", ["--epochs-per-stage", "0"]),
    ("transfer", ["--mode", "rescaled", "--epochs", "0"]),
])
def test_malformed_loop_inputs_exit_2(tmp_path, capsys, command, bad):
    """Inputs that would leave the training loop with no batch, no data or
    no epoch are config errors: one line on stderr and exit status 2."""
    tree = dict(TINY_TRANSFORMER, **bad) if command == "config" else TINY_TRANSFORMER
    train = ["train", "--config", write_cfg(tmp_path, "cfg.json", tree),
             "--out", str(tmp_path / "run")]
    if command == "transfer":
        assert main(train) == 0
        capsys.readouterr()
        ckpt = str(tmp_path / "run" / "ckpt_00001.splb")
        dest = str(tmp_path / "t")
        assert main(["transfer", "--checkpoint", ckpt, "--out", dest, *bad]) == 2
        assert not os.path.exists(dest)
    else:
        assert main(train + (bad if command == "train" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["sharpness", "analyze-masks"])
def test_checkpoint_without_run_metadata_exit_1(tmp_path, capsys, command):
    """A checkpoint saved with only its model spec has no run config or
    epoch: commands that need them exit 1 with one error line and write
    nothing, while `flops` needs only the spec."""
    from sparselab.checkpoint import save_checkpoint
    from conftest import mlp_spec

    from sparselab.config import to_tree
    from sparselab.models import build_model
    from sparselab.rng import Rng

    model = build_model(mlp_spec((6, 4, 3)), Rng(0))
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    for epoch in (1, 2):
        save_checkpoint(str(ckpts / f"ckpt_{epoch:05d}.splb"), model.store,
                        {"model_spec": to_tree(model.spec)})
    ckpt = str(ckpts / "ckpt_00001.splb")
    assert main(["flops", "--checkpoint", ckpt]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out")
    argv = {"sharpness": ["sharpness", "--checkpoint", ckpt],
            "analyze-masks": ["analyze-masks", str(ckpts), "--out", out]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not os.path.exists(out)


# Each bad value of a config, as a dotted key (a list sets several); the acdc
# fixture supplies the rest: an MLP with 64 inputs and 10 classes on 64-dim blobs.
BAD_CONFIGS = {
    "phase-len-string": ({"acdc.phase_len": "x"}, 2),
    "update-every-string": ({"method": "gmp", "gmp.update_every": "5"}, 2),
    "alpha-string": ({"method": "rigl", "rigl.alpha": "a"}, 2),
    "alpha-negative": ({"method": "rigl", "rigl.alpha": -0.5}, 2),
    "alpha-above-one": ({"method": "rigl", "rigl.alpha": 1.5}, 2),
    "lr-string": ({"optimizer.lr": "fast"}, 2),
    "seed-string": ({"seed": "abc"}, 2),
    "optimizer-not-object": ({"optimizer": 3}, 2),
    "negative-layer-width": ({"model.layer_dims": [64, -32, 10]}, 2),
    "seed-float": ({"seed": 2.7}, 2),
    "eval-train-split-string": ({"eval_train_split": "no"}, 2),
    "keep-dense-string": ({"sparsity.keep_dense": "fc1.weight"}, 2),
    "keep-dense-unknown-layer": ({"sparsity.keep_dense": ["fc9.weight"]}, 2),
    "keep-dense-bias": ({"sparsity.keep_dense": ["fc1.bias"]}, 2),
    "classes-string": ({"model.classes": "10"}, 2),
    "momentum-above-one": ({"optimizer.momentum": 1.5}, 2),
    "unknown-lr-schedule": ({"optimizer.schedule": "bogus"}, 2),
    # GMP over 2 epochs reaches no mask update, so only a parse check sees it
    "unknown-distribution": ({"method": "gmp", "total_epochs": 2, "gmp.update_every": 5,
                              "sparsity.distribution": "bogus"}, 2),
    "input-dim-mismatch": ({"dataset.dim": 32}, 2),
    "class-count-mismatch": ({"model.layer_dims": [64, 32, 4]}, 2),
    "acdc-too-short": ({"total_epochs": 4}, 2),
    "gmp-ramp-reversed": ({"method": "gmp", "gmp.ramp_start": 3, "gmp.ramp_end": 2}, 2),
    "acdc-decompression-above-target": ({"acdc.decompression_sparsity": 0.95}, 2),
    "multiplier-overflow": ({"multiplier": 1e308}, 2),
    "epochs-beyond-float": ({"total_epochs": 10**400}, 2),
    "sequence-vocab-above-model": ({"model": {"arch": "tiny-transformer", "vocab": 4, "max_len": 8},
                                    "dataset": {"kind": "synthetic-sequences", "vocab": 16,
                                                "seq_len": 8}}, 2),
    "sequence-longer-than-max-len": ({"model": {"arch": "tiny-transformer", "vocab": 4,
                                                "max_len": 4},
                                      "dataset": {"kind": "synthetic-sequences", "vocab": 4,
                                                  "seq_len": 8}}, 2),
    # the uniform budget keeps floor(0.01 * 80) = 0 of fc2.weight
    "uniform-budget-zeroes-a-layer": ({"method": "oneshot", "sparsity.distribution": "uniform",
                                       "sparsity.target": 0.99, "model.layer_dims": [64, 8, 10]}, 2),
    "acdc-ramp-start-sparsity-one": ({"acdc.ramp_start": 1, "acdc.ramp_end": 5,
                                      "acdc.ramp_start_sparsity": 1.0}, 2),
    "acdc-ramp-start-without-end": ({"acdc.ramp_start": 1}, 2),
    "acdc-ramp-end-without-start": ({"acdc.ramp_end": 5}, 2),
    "acdc-ramp-ends-where-it-starts": ({"acdc.ramp_start": 5, "acdc.ramp_end": 5}, 2),
    "acdc-ramp-budget-zeroes-a-layer": ({"sparsity.distribution": "uniform", "sparsity.target": 0.5,
                                         "acdc.ramp_start": 1, "acdc.ramp_end": 5,
                                         "acdc.ramp_start_sparsity": 0.99,
                                         "model.layer_dims": [64, 8, 10]}, 2),
    "missing-idx-file": ({"model.layer_dims": [784, 32, 10], "dataset": {
        "kind": "idx-images", "images_path": "missing-images.idx",
        "labels_path": "missing-labels.idx"}}, 1),
    # IDX_TMP: 12 images of 4x4 pixels labelled 0..3, written by the test
    "idx-input-width-mismatch": ({"dataset": "IDX_TMP"}, 2),
    "idx-class-count-mismatch": ({"model.layer_dims": [16, 8, 3], "dataset": "IDX_TMP"}, 2),
}


@pytest.mark.parametrize("name", list(BAD_CONFIGS))
def test_bad_config_one_error_line(tmp_path, capsys, name):
    """A bad config value ends in one `error:` line and exit 2 (before the
    output directory is made) or 1, never in a traceback or a run."""
    overrides, code = BAD_CONFIGS[name]
    tree = acdc_tree()
    for dotted, value in overrides.items():
        *parents, key = dotted.split(".")
        node = tree
        for p in parents:
            node = node.setdefault(p, {})
        node[key] = value
    if tree["dataset"] == "IDX_TMP":
        pixels = np.arange(12 * 16).reshape(12, 4, 4) % 256
        images, labels = write_idx_pair(tmp_path, pixels, [i % 4 for i in range(12)])
        tree["dataset"] = {"kind": "idx-images", "images_path": images, "labels_path": labels}
    out = str(tmp_path / "run")
    assert main(["train", "--config", write_cfg(tmp_path, "cfg.json", tree), "--out", out]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 2:
        assert not os.path.exists(out)


IDX_HEADERS = {"images.idx": (0x803, 12, 4, 4), "labels.idx": (0x801, 12)}  # big-endian u32 words


@st.composite
def _idx_damage(draw):
    """(file, kind, at, value): cut a file of the pair below its full length
    to `at` bytes, or set its header word `at` to another value."""
    name = draw(st.sampled_from(list(IDX_HEADERS)))
    words = IDX_HEADERS[name]
    if draw(st.booleans()):
        return name, "truncate", draw(st.integers(0, 4 * len(words) - 1) | st.integers(0, 999)), None
    at = draw(st.integers(0, len(words) - 1))
    value = draw((st.integers(0, 64) | st.integers(0, 2**32 - 1)).filter(lambda v: v != words[at]))
    return name, "word", at, value


@given(damage=_idx_damage())
@settings(max_examples=200, deadline=None)
def test_damaged_idx_header_one_error_line(damage):
    """`train` on an IDX pair with a truncated file or one changed header word
    (magic, count, rows or cols) ends in one `error:` line and exit 1 or 2
    before the output directory is made, never in a traceback or a run."""
    name, kind, at, value = damage
    with tempfile.TemporaryDirectory() as d:
        pixels = np.arange(12 * 16).reshape(12, 4, 4) % 256
        images, labels = write_idx_pair(pathlib.Path(d), pixels, [i % 4 for i in range(12)])
        path = os.path.join(d, name)
        raw = open(path, "rb").read()
        if kind == "truncate":
            raw = raw[: min(at, len(raw) - 1)]
        else:
            raw = raw[: 4 * at] + struct.pack(">I", value) + raw[4 * at + 4 :]
        with open(path, "wb") as f:
            f.write(raw)
        tree = {"method": "dense", "total_epochs": 1, "model": {"arch": "mlp", "layer_dims": [16, 8, 4]},
                "dataset": {"kind": "idx-images", "images_path": images, "labels_path": labels}}
        out = os.path.join(d, "run")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--config", write_cfg(pathlib.Path(d), "cfg.json", tree),
                         "--out", out])
        assert code in (1, 2), (damage, err.getvalue())
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
        assert not os.path.exists(out)
