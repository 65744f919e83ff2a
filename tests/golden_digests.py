"""Golden digests: the sha256 of every file that a fixed set of small CLI
calls writes, and of what each call prints.

    PYTHONPATH=src python3 tests/golden_digests.py             # rewrite the fixture
    PYTHONPATH=src python3 tests/golden_digests.py --print acdc  # digests of named calls

`test_golden_digests.py` runs the same calls and compares their digests with
`fixtures/golden_digests.json`. The calls cover every path that draws random
numbers or sums in f32: dataset builds, model inits, shuffles and dropout,
the four sparsifying methods, mask analysis, sharpness, interpolation, every
transfer recipe and a sweep.
Rewrite the fixture only in a change that means to move outputs (one that
changes an f32 summation order, say) and say so in that change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden_digests.json")

RIGL_MLP = {
    "seed": 4, "method": "rigl", "total_epochs": 6, "batch_size": 64, "checkpoint_every": 3,
    "optimizer": {"lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4, "warmup_epochs": 1},
    "sparsity": {"target": 0.8, "distribution": "erk", "keep_dense": []},
    "rigl": {"alpha": 0.3, "t_end": 5, "delta_t": 1},
    "model": {"arch": "mlp", "layer_dims": [64, 48, 10]},
    "dataset": {"kind": "synthetic-blobs", "n_train": 384, "n_val": 128, "classes": 10,
                "dim": 64, "label_noise": 0.2},
}
# n_train above the bulk threshold of Rng, so each epoch's shuffle draws in bulk
CNN_ACDC = {
    "seed": 5, "method": "acdc", "total_epochs": 5, "batch_size": 64, "checkpoint_every": 1,
    "optimizer": {"lr": 0.2, "momentum": 0.9, "weight_decay": 1e-4, "warmup_epochs": 1},
    "sparsity": {"target": 0.8, "distribution": "global", "keep_dense": ["conv1.weight"]},
    "acdc": {"warmup": 1, "phase_len": 1, "last_decompression": 1, "last_compression": 1},
    "model": {"arch": "micro-cnn", "in_channels": 1, "image_hw": [8, 8],
              "channels": [8, 16], "classes": 10},
    "dataset": {"kind": "synthetic-blobs", "n_train": 1100, "n_val": 128, "classes": 10,
                "dim": 64, "noise": 2.0},
}
TRANSFORMER = {
    "seed": 6, "method": "gmp", "total_epochs": 4, "batch_size": 16, "checkpoint_every": 2,
    "optimizer": {"lr": 0.05, "momentum": 0.9, "weight_decay": 1e-4, "warmup_epochs": 1},
    "sparsity": {"target": 0.5, "distribution": "global", "keep_dense": ["head.weight"]},
    "gmp": {"ramp_start": 0, "ramp_end": 2, "update_every": 1},
    "model": {"arch": "tiny-transformer", "vocab": 4, "max_len": 8, "d_model": 16,
              "ff_dim": 32, "blocks": 2, "classes": 2, "dropout": 0.1},
    "dataset": {"kind": "synthetic-sequences", "n_train": 128, "n_val": 64,
                "vocab": 4, "seq_len": 8},
}
ONESHOT_MLP = {
    "seed": 8, "method": "oneshot", "total_epochs": 3, "batch_size": 32, "checkpoint_every": 3,
    "label_smoothing": 0.1, "eval_train_split": True,
    "optimizer": {"lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4, "warmup_epochs": 1,
                  "schedule": "cosine"},
    "sparsity": {"target": 0.7, "distribution": "uniform", "keep_dense": []},
    "model": {"arch": "mlp", "layer_dims": [32, 24, 10]},
    "dataset": {"kind": "synthetic-blobs", "n_train": 200, "n_val": 64, "classes": 10, "dim": 32},
}
SWEEP = {
    "base": {
        "seed": 9, "method": "gmp", "total_epochs": 2, "batch_size": 32, "checkpoint_every": 2,
        "sparsity": {"target": 0.5},
        "gmp": {"ramp_start": 0, "ramp_end": 1, "update_every": 1},
        "model": {"arch": "mlp", "layer_dims": [16, 12, 4]},
        "dataset": {"kind": "synthetic-blobs", "n_train": 96, "n_val": 32, "classes": 4,
                    "dim": 16},
    },
    "grid": {"optimizer.lr": [0.05, 0.2]},
}


def environment() -> dict:
    """What the digests depend on besides the code: numpy and its BLAS."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def calls(work: str) -> list[tuple[str, list[str]]]:
    """(name, CLI argv) in the order they run; later calls read earlier outputs."""
    cfg = os.path.join(work, "configs")
    out = os.path.join(work, "runs")
    os.makedirs(cfg, exist_ok=True)
    trees = {"rigl": RIGL_MLP, "cnn": CNN_ACDC, "transformer": TRANSFORMER,
             "oneshot": ONESHOT_MLP}
    paths = {"acdc": os.path.join(FIXTURES, "acdc_blobs.json"),
             "dense": os.path.join(FIXTURES, "dense_smoke.json")}
    for name, tree in trees.items():
        paths[name] = os.path.join(cfg, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as f:
            json.dump(tree, f)
    grid = os.path.join(cfg, "grid.json")
    with open(grid, "w", encoding="utf-8") as f:
        json.dump(SWEEP, f)
    acdc = [os.path.join(out, "acdc", f"ckpt_{e:05d}.splb") for e in (4, 8, 12)]
    tf_final = os.path.join(out, "transformer", "ckpt_00004.splb")
    small_task = ["--n-train", "96", "--n-val", "64", "--batch-size", "16"]
    return [
        *[(name, ["train", "--config", path, "--out", os.path.join(out, name)])
          for name, path in paths.items()],
        ("acdc-masks", ["analyze-masks", os.path.join(out, "acdc"),
                        "--out", os.path.join(out, "acdc-masks")]),
        ("cnn-masks", ["analyze-masks", os.path.join(out, "cnn"),
                       "--out", os.path.join(out, "cnn-masks")]),
        ("sharpness", ["sharpness", "--checkpoint", acdc[-1], "--batch-size", "128",
                       "--power-iters", "4"]),
        ("interpolate", ["interpolate", "--checkpoints", *acdc, "--segments", "3",
                         "--out", os.path.join(out, "interp")]),
        ("transfer", ["transfer", "--checkpoint", tf_final, "--out", os.path.join(out, "transfer"),
                      "--mode", "rescaled", "--epochs", "1", "--dropout", "0.1", *small_task]),
        ("gradual", ["transfer", "--checkpoint", tf_final, "--out", os.path.join(out, "gradual"),
                     "--lr", "0.02", "0.2", "--dropout", "0.0", "0.1",
                     "--epochs-per-stage", "2", *small_task]),
        ("dense-recipe", ["transfer", "--checkpoint", os.path.join(out, "cnn", "ckpt_00005.splb"),
                          "--out", os.path.join(out, "dense-recipe"), "--mode", "dense-recipe",
                          *small_task]),
        ("linear", ["transfer", "--checkpoint", os.path.join(out, "rigl", "ckpt_00006.splb"),
                    "--out", os.path.join(out, "linear"), "--mode", "linear",
                    "--lr", "0.05", "0.2", *small_task]),
        ("sweep", ["sweep", "--grid", grid, "--out", os.path.join(out, "sweep")]),
    ]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(work: str, only: list[str] | None = None) -> dict[str, str]:
    """Runs the calls (or only the named ones) in `work`; returns the digest
    of each file they wrote, by path under `work/runs`, and of each call's
    standard output, by `<name>/stdout`."""
    from sparselab.cli import main

    digests = {}
    for name, argv in calls(work):
        if only is not None and name not in only:
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{name}: sparselab {' '.join(argv)} exited {code}")
        digests[f"{name}/stdout"] = _sha(buf.getvalue().replace(work, "<work>").encode())
    out = os.path.join(work, "runs")
    for root, _, files in os.walk(out):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out)] = _sha(fh.read())
    return dict(sorted(digests.items()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--print", nargs="+", metavar="CALL",
                   help="print the digests of these calls as JSON instead of writing the fixture")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        digests = run(work, args.print)
    if args.print:
        print(json.dumps(digests))
        return 0
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump({"environment": environment(), "digests": digests}, f, indent=1)
        f.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
