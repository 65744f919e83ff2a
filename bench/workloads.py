"""The three workloads: configs generated from the workload seed, the CLI
calls of one round, and the checks on that round's outputs.

Every round of a run repeats the same calls on the same generated configs,
so its outputs must be byte-identical to the first round's.
"""

from __future__ import annotations

import glob
import json
import os
import re
from dataclasses import dataclass

import checks
from splb import CheckFailed, read_splb

MLP_DIMS = [784, 256, 128, 10]
# top-1 on clean validation labels must beat chance by these margins
MARGIN_BLOBS = 0.3
MARGIN_SEQUENCES = 0.1


@dataclass
class Op:
    command: str
    argv: list[str]
    samples: int = 0  # minibatch samples this call trains


def _write(path: str, tree: dict) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(tree, f, indent=2)
    return path


def _read_all(run_dir: str):
    return [read_splb(p) for p in sorted(glob.glob(os.path.join(run_dir, "ckpt_*.splb")))]


def _train_samples(tree: dict) -> int:
    return tree["total_epochs"] * tree["dataset"]["n_train"]


class MlpSchedulers:
    """One seed of the scheduler comparison, scaled down: GMP, RigL (ERK) and
    AC/DC on a 784-256-128-10 MLP over noisy-label blobs, each run's mask IoU,
    sharpness at AC/DC's last checkpoint, and the loss path through AC/DC's
    checkpoints."""

    METHODS = ("gmp", "rigl", "acdc")
    SEGMENTS = 4

    def __init__(self, seed: int, cfg_dir: str):
        self.seed = seed
        self.trees = {}
        for method in self.METHODS:
            tree = {
                "seed": seed, "method": method, "total_epochs": 10, "batch_size": 32,
                "checkpoint_every": 5,
                "optimizer": {"lr": 0.2, "momentum": 0.9, "weight_decay": 1e-3,
                              "warmup_epochs": 1},
                "sparsity": {"target": 0.9, "distribution": "global", "keep_dense": []},
                "gmp": {"ramp_start": 0, "ramp_end": 5, "update_every": 1},
                "rigl": {"alpha": 0.3, "t_end": 8, "delta_t": 1},
                "acdc": {"warmup": 1, "phase_len": 2, "last_decompression": 2,
                         "last_compression": 1},
                "model": {"arch": "mlp", "layer_dims": MLP_DIMS},
                "dataset": {"kind": "synthetic-blobs", "n_train": 256, "n_val": 64,
                            "classes": 10, "dim": 784, "noise": 3.5, "center_scale": 1.0,
                            "label_noise": 0.3},
            }
            if method == "rigl":
                tree["sparsity"]["distribution"] = "erk"
            self.trees[method] = tree
        self.configs = {m: _write(os.path.join(cfg_dir, f"{m}.json"), t)
                        for m, t in self.trees.items()}
        # AC/DC checkpoints at the end of each compressed phase: 3, 7, 10
        self.acdc_ckpts = [3, 7, 10]

    def ops(self, out: str) -> list[Op]:
        ops = [Op("train", ["train", "--config", self.configs[m], "--out", f"{out}/{m}"],
                  _train_samples(self.trees[m])) for m in self.METHODS]
        ops += [Op("analyze-masks", ["analyze-masks", f"{out}/{m}", "--out", f"{out}/{m}/masks"])
                for m in self.METHODS]
        acdc = [f"{out}/acdc/ckpt_{e:05d}.splb" for e in self.acdc_ckpts]
        n_train = self.trees["acdc"]["dataset"]["n_train"]
        ops.append(Op("sharpness", ["sharpness", "--checkpoint", acdc[-1], "--power-iters", "8",
                                    "--batch-size", str(n_train)]))
        ops.append(Op("interpolate", ["interpolate", "--checkpoints", *acdc, "--segments",
                                      str(self.SEGMENTS), "--out", f"{out}/interp"]))
        return ops

    def check(self, out: str, stdout: dict[str, str], datasets) -> None:
        for m in self.METHODS:
            cks = _read_all(f"{out}/{m}")
            checks.check_checkpoints(cks)
            checks.check_iou_csv(f"{out}/{m}/masks/iou.csv", cks)
            checks.check_channel_csv(f"{out}/{m}/masks/channel_sparsity.csv", cks)
            checks.check_above_chance(f"{m} final val", checks.final_val_top1(
                f"{out}/{m}/metrics.csv"), 1.0 / MLP_DIMS[-1], MARGIN_BLOBS)
        acdc = _read_all(f"{out}/acdc")
        if [c.meta["epoch"] for c in acdc] != self.acdc_ckpts:
            raise CheckFailed(f"AC/DC checkpoints at {[c.meta['epoch'] for c in acdc]}")
        checks.check_interpolation(f"{out}/interp/interpolation.csv", acdc, self.SEGMENTS)
        match = re.match(r"sharpness (\S+) ", stdout["sharpness"])
        if not match:
            raise CheckFailed(f"sharpness printed {stdout['sharpness']!r}")
        built = [ds for op, _, ds in datasets if op == "sharpness"]
        if not built:
            raise CheckFailed("sharpness built no dataset to recompute curvature on")
        checks.check_sharpness(float(match.group(1)), acdc[-1], built[-1].x_train,
                               built[-1].y_train, self.seed)


class CnnAcdc:
    """The weight-decay experiment's micro-CNN, scaled down: AC/DC at two
    weight decays, then channel sparsity of each run's checkpoints."""

    DECAYS = ("1e-4", "1e-3")

    def __init__(self, seed: int, cfg_dir: str):
        self.trees = {}
        for wd in self.DECAYS:
            self.trees[wd] = {
                "seed": seed, "method": "acdc", "total_epochs": 11, "batch_size": 32,
                "optimizer": {"lr": 0.25, "momentum": 0.9, "weight_decay": float(wd),
                              "warmup_epochs": 1, "schedule": "constant"},
                "sparsity": {"target": 0.85, "distribution": "global",
                             "keep_dense": ["conv1.weight", "head.weight"]},
                "acdc": {"warmup": 1, "phase_len": 2, "last_decompression": 2,
                         "last_compression": 2},
                "model": {"arch": "micro-cnn", "in_channels": 1, "image_hw": [8, 8],
                          "channels": [16, 32], "classes": 10},
                "dataset": {"kind": "synthetic-blobs", "n_train": 1024, "n_val": 512,
                            "classes": 10, "dim": 64, "noise": 2.0, "center_scale": 1.0},
            }
        self.configs = {wd: _write(os.path.join(cfg_dir, f"cnn_wd{wd}.json"), t)
                        for wd, t in self.trees.items()}

    def ops(self, out: str) -> list[Op]:
        ops = [Op("train", ["train", "--config", self.configs[wd], "--out", f"{out}/wd{wd}"],
                  _train_samples(self.trees[wd])) for wd in self.DECAYS]
        ops += [Op("analyze-masks", ["analyze-masks", f"{out}/wd{wd}", "--out",
                                     f"{out}/wd{wd}/masks"]) for wd in self.DECAYS]
        return ops

    def check(self, out: str, stdout: dict[str, str], datasets) -> None:
        for wd in self.DECAYS:
            cks = _read_all(f"{out}/wd{wd}")
            checks.check_checkpoints(cks)
            checks.check_iou_csv(f"{out}/wd{wd}/masks/iou.csv", cks)
            checks.check_channel_csv(f"{out}/wd{wd}/masks/channel_sparsity.csv", cks)
            checks.check_above_chance(f"wd {wd} final val", checks.final_val_top1(
                f"{out}/wd{wd}/metrics.csv"), 0.1, MARGIN_BLOBS)


class TransformerTransfer:
    """Sparse fine-tuning: a tiny-transformer GMP pre-train with dropout on
    synthetic sequences, then gradual transfer to a new sequence task with
    dropout and no early stop, so every stage runs."""

    LR = 0.05
    STAGES = 4  # head, two blocks unfrozen back to front, all layers
    N_TRAIN = 128
    BATCH = 16

    def __init__(self, seed: int, cfg_dir: str):
        self.task_seed = seed + 1000
        # Two tokens, odd length (no ties) and a dense head: with 16 tokens,
        # other lengths or a prunable head, some of 30 seeds ended near chance
        # after 8 epochs; with this set-up all 30 reached val top-1 1.0.
        self.tree = {
            "seed": seed, "method": "gmp", "total_epochs": 8, "batch_size": self.BATCH,
            "checkpoint_every": 4,
            "optimizer": {"lr": 0.05, "momentum": 0.9, "weight_decay": 1e-4,
                          "warmup_epochs": 1},
            "sparsity": {"target": 0.5, "distribution": "global", "keep_dense": ["head.weight"]},
            "gmp": {"ramp_start": 0, "ramp_end": 4, "update_every": 1},
            "model": {"arch": "tiny-transformer", "vocab": 2, "max_len": 5, "d_model": 32,
                      "ff_dim": 64, "blocks": 2, "classes": 2, "dropout": 0.1},
            "dataset": {"kind": "synthetic-sequences", "n_train": 256, "n_val": 128,
                        "vocab": 2, "seq_len": 5},
        }
        self.config = _write(os.path.join(cfg_dir, "pretrain.json"), self.tree)

    def ops(self, out: str) -> list[Op]:
        final = f"{out}/pretrain/ckpt_{self.tree['total_epochs']:05d}.splb"
        return [
            Op("train", ["train", "--config", self.config, "--out", f"{out}/pretrain"],
               _train_samples(self.tree)),
            Op("transfer", ["transfer", "--checkpoint", final, "--out", f"{out}/transfer",
                            "--mode", "gradual", "--lr", str(self.LR), "--dropout", "0.1",
                            "--no-early-stop", "--task-seed", str(self.task_seed),
                            "--n-train", str(self.N_TRAIN), "--n-val", "128",
                            "--batch-size", str(self.BATCH)],
               self.STAGES * self.N_TRAIN),
        ]

    def check(self, out: str, stdout: dict[str, str], datasets) -> None:
        checks.check_checkpoints(_read_all(f"{out}/pretrain"))
        for _, spec, ds in datasets:
            checks.check_sequences(spec, ds)

        def val_set(op, n_train):
            found = [ds for o, spec, ds in datasets if o == op and spec.n_train == n_train]
            if not found:
                raise CheckFailed(f"no {n_train}-sample sequence dataset built by {op}")
            return found[-1]

        def chance(ds):
            return max(float((ds.y_val == c).mean()) for c in (0, 1))

        pretrain = val_set("train", self.tree["dataset"]["n_train"])
        task = val_set("transfer", self.N_TRAIN)
        checks.check_above_chance("pre-train final val", checks.final_val_top1(
            f"{out}/pretrain/metrics.csv"), chance(pretrain), MARGIN_SEQUENCES)
        rows = checks.check_stages(f"{out}/transfer/run_000_stages.csv", self.LR, self.STAGES)
        checks.check_above_chance("transfer last stage", float(rows[-1]["top1"]),
                                  chance(task), MARGIN_SEQUENCES)


WORKLOADS = {
    "mlp-schedulers": MlpSchedulers,
    "cnn-acdc": CnnAcdc,
    "transformer-transfer": TransformerTransfer,
}
