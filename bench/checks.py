"""Output checks. Each recomputes a property from the files the program
wrote (read with bench/splb.py) or from first principles, and raises
CheckFailed when the output disagrees; none compares against a stored copy
of an earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from fractions import Fraction

import numpy as np

from splb import CheckFailed, Splb

# 9 significant digits, as the CSVs are written: a relative error of at most 5e-9
CSV_REL = 1e-8


def _close(csv_value: float, exact: float) -> bool:
    return math.isclose(csv_value, exact, rel_tol=CSV_REL, abs_tol=1e-12)


def read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def prunable_names(model_spec: dict) -> list[str]:
    """Weights of linear and convolution layers, per architecture."""
    arch = model_spec["arch"]
    if arch == "mlp":
        return [f"fc{i}.weight" for i in range(1, len(model_spec["layer_dims"]))]
    if arch == "micro-cnn":
        return ["conv1.weight", "conv2.weight", "head.weight"]
    if arch == "tiny-transformer":
        names = []
        for b in range(1, model_spec["blocks"] + 1):
            names += [f"block{b}.attn.w{x}.weight" for x in "qkvo"]
            names += [f"block{b}.ff.w1.weight", f"block{b}.ff.w2.weight"]
        return names + ["head.weight"]
    raise CheckFailed(f"unknown architecture {arch!r}")


def conv_layers(model_spec: dict) -> list[str]:
    return ["conv1", "conv2"] if model_spec["arch"] == "micro-cnn" else []


def check_masked_zero(ck: Splb) -> None:
    """Masks are 0/1 and every masked-out weight and momentum entry is 0."""
    for name, mask in ck.masks.items():
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise CheckFailed(f"{ck.path}: mask of {name} is not 0/1")
        dead = mask == 0.0
        bad = int(np.count_nonzero(ck.weights[name][dead]))
        if bad:
            raise CheckFailed(f"{ck.path}: {bad} masked-out weights of {name} are non-zero")
        if name in ck.momentum and np.count_nonzero(ck.momentum[name][dead]):
            raise CheckFailed(f"{ck.path}: masked-out momentum of {name} is non-zero")


def check_budget(ck: Splb) -> None:
    """At full target sparsity the pooled non-zero count is at most
    floor((1 - target) * pooled size), computed exactly."""
    cfg = ck.meta["config"]
    keep = set(cfg["sparsity"]["keep_dense"])
    pooled = [n for n in prunable_names(ck.meta["model_spec"]) if n not in keep]
    size = sum(ck.weights[n].size for n in pooled)
    nonzero = sum(int(np.count_nonzero(ck.weights[n])) for n in pooled)
    budget = math.floor((1 - Fraction(str(cfg["sparsity"]["target"]))) * size)
    if nonzero > budget:
        raise CheckFailed(f"{ck.path}: {nonzero} non-zero weights, budget {budget} of {size}")


def at_full_target(ck: Splb) -> bool:
    """Whether the scheduler had reached its target when this was saved."""
    cfg = ck.meta["config"]
    method, epoch = cfg["method"], ck.meta["epoch"]
    if method == "acdc":
        # AC/DC checkpoints only at the end of compressed phases
        if ck.meta["schedule_state"]["phase_kind"] != "compressed":
            raise CheckFailed(f"{ck.path}: AC/DC checkpoint outside a compressed phase")
        return True
    if method == "gmp":
        return epoch > cfg["effective"]["gmp"]["ramp_end"]
    return method == "rigl"


def check_checkpoints(ckpts: list[Splb]) -> None:
    for ck in ckpts:
        check_masked_zero(ck)
        if at_full_target(ck):
            check_budget(ck)


def check_iou_csv(path: str, ckpts: list[Splb]) -> None:
    """iou.csv: consecutive-checkpoint IoU of the non-zero supports."""
    rows = read_rows(path)
    if len(rows) != len(ckpts) - 1:
        raise CheckFailed(f"{path}: {len(rows)} rows for {len(ckpts)} checkpoints")
    names = prunable_names(ckpts[0].meta["model_spec"])
    for row, a, b in zip(rows, ckpts, ckpts[1:]):
        inter = union = 0
        for n in names:
            sa, sb = a.weights[n] != 0.0, b.weights[n] != 0.0
            inter += int(np.count_nonzero(sa & sb))
            union += int(np.count_nonzero(sa | sb))
        iou = 1.0 if union == 0 else inter / union
        epochs = (int(row["epoch_a"]), int(row["epoch_b"]))
        if epochs != (a.meta["epoch"], b.meta["epoch"]) or not _close(float(row["iou"]), iou):
            raise CheckFailed(f"{path}: row {row} but epochs {a.meta['epoch']},"
                              f"{b.meta['epoch']} have IoU {inter}/{union}")


def check_channel_csv(path: str, ckpts: list[Splb]) -> None:
    """channel_sparsity.csv: share of all-zero output channels per conv layer
    and pooled over layers (`_global`), per checkpoint."""
    expected: dict[tuple[int, str], float] = {}
    for ck in ckpts:
        zero = total = 0
        layers = conv_layers(ck.meta["model_spec"])
        for layer in layers:
            w = ck.weights[f"{layer}.weight"]
            dead = np.all(w.reshape(w.shape[0], -1) == 0.0, axis=1)
            expected[(ck.meta["epoch"], layer)] = float(dead.mean())
            zero += int(dead.sum())
            total += w.shape[0]
        if layers:
            expected[(ck.meta["epoch"], "_global")] = zero / total
    got = {(int(r["epoch"]), r["layer"]): float(r["zero_channel_fraction"]) for r in read_rows(path)}
    if set(got) != set(expected) or not all(_close(got[k], expected[k]) for k in expected):
        raise CheckFailed(f"{path}: {sorted(got.items())} != {sorted(expected.items())}")


def check_interpolation(path: str, ckpts: list[Splb], segments: int) -> None:
    """Rows per split = intervals * segments + 1; at each checkpoint's alpha
    the loss equals that checkpoint's recorded loss."""
    rows = read_rows(path)
    n_int = len(ckpts) - 1
    for split in ("train", "val"):
        split_rows = [(float(r["alpha"]), float(r["loss"])) for r in rows if r["split"] == split]
        if len(split_rows) != n_int * segments + 1:
            raise CheckFailed(f"{path}: {len(split_rows)} {split} rows")
        for k, ck in enumerate(ckpts):
            recorded = ck.meta[f"{split}_loss_eval"]
            at = [loss for alpha, loss in split_rows if abs(alpha - k / n_int) < 1e-9]
            if len(at) != 1 or not _close(at[0], recorded):
                raise CheckFailed(f"{path}: {split} loss at alpha {k}/{n_int} is {at}, "
                                  f"checkpoint recorded {recorded}")


def _mlp_loss(params: dict[str, np.ndarray], n_layers: int, x, y) -> float:
    h = x
    for i in range(1, n_layers + 1):
        h = h @ params[f"fc{i}.weight"] + params[f"fc{i}.bias"]
        if i < n_layers:
            h = np.maximum(h, 0.0)
    z = h - h.max(axis=1, keepdims=True)
    return float((np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(y)), y]).mean())


def check_sharpness(value: float, ck: Splb, x: np.ndarray, y: np.ndarray, seed: int) -> None:
    """A top Hessian eigenvalue bounds every Rayleigh quotient, so it is at
    least the curvature along random unit directions on the mask support.
    Curvature is a central second difference of an f64 MLP loss on (x, y)."""
    if not math.isfinite(value):
        raise CheckFailed(f"sharpness {value} is not finite")
    n_layers = len(ck.meta["model_spec"]["layer_dims"]) - 1
    w = {n: a.astype(np.float64) for n, a in ck.weights.items()}
    x = x.astype(np.float64)
    rng = np.random.default_rng(seed)
    base = _mlp_loss(w, n_layers, x, y)
    eps = 1e-3
    quotients = []
    for _ in range(4):
        v = {n: rng.standard_normal(a.shape) * (ck.masks[n] != 0.0 if n in ck.masks else 1.0)
             for n, a in w.items()}
        norm = math.sqrt(sum(float((a * a).sum()) for a in v.values()))
        plus = _mlp_loss({n: w[n] + eps * v[n] / norm for n in w}, n_layers, x, y)
        minus = _mlp_loss({n: w[n] - eps * v[n] / norm for n in w}, n_layers, x, y)
        quotients.append((plus - 2.0 * base + minus) / eps**2)
    if value < max(quotients):
        raise CheckFailed(f"sharpness {value} below a random-direction curvature "
                          f"{max(quotients)}")


def check_sequences(spec, ds) -> None:
    """Label 1 exactly when tokens from the lower half of the vocabulary are
    a strict majority of the string."""
    half = spec.vocab // 2
    for toks, y in ((ds.x_train, ds.y_train), (ds.x_val, ds.y_val)):
        if toks.shape[1] != spec.seq_len or toks.min() < 0 or toks.max() >= spec.vocab:
            raise CheckFailed(f"tokens out of range or length for {spec}")
        rule = ((toks < half).sum(axis=1) * 2 > spec.seq_len).astype(np.int64)
        if not np.array_equal(rule, y):
            raise CheckFailed(f"{int((rule != y).sum())} sequence labels break the rule")


def check_stages(path: str, lr: float, n_stages: int) -> list[dict]:
    """Gradual transfer: every stage starts at the peak learning rate."""
    rows = read_rows(path)
    if [int(r["stage"]) for r in rows] != list(range(n_stages)):
        raise CheckFailed(f"{path}: stages {[r['stage'] for r in rows]}, expected {n_stages}")
    for r in rows:
        if not _close(float(r["lr_first"]), lr):
            raise CheckFailed(f"{path}: stage {r['stage']} starts at lr {r['lr_first']}, not {lr}")
    return rows


def check_above_chance(what: str, top1: float, chance: float, margin: float) -> None:
    if not top1 >= chance + margin:
        raise CheckFailed(f"{what}: top-1 {top1} not above chance {chance} by {margin}")


def final_val_top1(metrics_csv: str) -> float:
    return float([r for r in read_rows(metrics_csv) if r["split"] == "val"][-1]["top1"])


def digest_outputs(root: str, stdout: dict[str, str]) -> dict[str, str]:
    """sha256 of every file a round wrote, by relative path, and of the
    printed sharpness, which is written nowhere else."""
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            p = os.path.join(d, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    if "sharpness" in stdout:
        out["sharpness stdout"] = hashlib.sha256(stdout["sharpness"].encode()).hexdigest()
    return dict(sorted(out.items()))
