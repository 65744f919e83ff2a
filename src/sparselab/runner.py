"""Experiment orchestration: the training loop, method drivers, metric
emission, checkpointing, and the sweep executor.

`train_epochs` is the one minibatch SGD loop in the package: experiments
(`run_experiment`) and every transfer recipe (`transfer`) train through it.

A run is a pure function of its config: datasets, init, shuffling and
dropout all derive from fixed sub-streams of the seed, so repeated runs
emit byte-identical CSVs and checkpoints.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .checkpoint import save_checkpoint
from .config import ExperimentConfig, format_sig9, to_tree
from .data import Dataset, build_dataset
from .errors import ConfigError, SparselabError
from .models import ARCHS, Model, build_model
from .optim import LrSchedule, SgdState, sgd_step
from .rng import (
    Rng,
    STREAM_DATA,
    STREAM_DROPOUT,
    STREAM_INIT,
    STREAM_SHUFFLE,
)
from .sparsify import (
    COMPRESSED,
    Phase,
    SparsityDistribution,
    acdc_apply,
    acdc_phases,
    gmp_sparsity_at,
    magnitude_mask,
    progressive_target,
    rigl_fraction,
    rigl_step,
    shrink_mask,
)

# rows per evaluation forward: at 64, 128 or 256, timed micro-CNN training runs differ by under 4%
EVAL_CHUNK = 128


def predict_logits(model: Model, x: np.ndarray, params=None) -> np.ndarray:
    outs = [
        model.forward(x[i : i + EVAL_CHUNK], params=params) for i in range(0, len(x), EVAL_CHUNK)
    ]
    return np.concatenate(outs)


def dataset_loss(model: Model, x: np.ndarray, y: np.ndarray, params=None) -> float:
    """Mean raw CE over a split, f64-accumulated; the recorded-loss function."""
    return diagnostics.mean_cross_entropy(predict_logits(model, x, params), y)


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def write_metrics_csv(path: str, rows: list[diagnostics.MetricRow]) -> None:
    lines = [",".join(diagnostics.MetricRow.FIELDS)]
    for r in rows:
        lines.append(",".join(format_sig9(getattr(r, f)) for f in diagnostics.MetricRow.FIELDS))
    _atomic_write(path, "\n".join(lines) + "\n")


# -- method drivers -----------------------------------------------------------


class _Driver:
    """Per-method sparsifier hooks around the shared training loop. A driver
    sets masks in `model.store`; the SGD state zeroes their momentum."""

    def at_epoch_start(self, epoch: int, model: Model, dense_grads) -> None:
        """`dense_grads()` is the gradient of the epoch's first minibatch."""

    def checkpoint_boundaries(self) -> set[int] | None:
        """Epoch boundaries to checkpoint at, or None for the default cadence."""
        return None

    def state_dict(self) -> dict:
        return {}


def _set_masks(model: Model, masks: dict[str, np.ndarray]) -> None:
    for name, mask in masks.items():
        model.store.set_mask(name, mask)


class _OneshotDriver(_Driver):
    def __init__(self, dist: SparsityDistribution):
        self.dist = dist

    def at_epoch_start(self, epoch: int, model: Model, dense_grads) -> None:
        if epoch == 0:
            _set_masks(model, magnitude_mask(model.prunable_weights(), self.dist))

    def state_dict(self) -> dict:
        return {"target": self.dist.target}


class _GmpDriver(_Driver):
    def __init__(self, dist: SparsityDistribution, gmp: dict):
        self.dist = dist
        self.gmp = gmp
        self.current_s = 0.0

    def at_epoch_start(self, epoch: int, model: Model, dense_grads) -> None:
        s_t = gmp_sparsity_at(epoch, self.dist.target, **self.gmp)
        if s_t <= self.current_s:
            return
        weights, masks = model.prunable_weights(), model.store.masks()
        target = self.dist.with_target(s_t)
        _set_masks(model, shrink_mask(weights, masks, target) if masks
                   else magnitude_mask(weights, target))
        self.current_s = s_t

    def state_dict(self) -> dict:
        return {"sparsity": self.current_s, **self.gmp}


class _RiglDriver(_Driver):
    def __init__(self, dist: SparsityDistribution, rigl: dict):
        self.dist = dist
        self.rigl = rigl
        self.layer_sparsity: dict[str, float] = {}

    def at_epoch_start(self, epoch: int, model: Model, dense_grads) -> None:
        alpha, t_end, delta_t = self.rigl["alpha"], self.rigl["t_end"], self.rigl["delta_t"]
        if epoch == 0:
            masks = magnitude_mask(model.prunable_weights(), self.dist)
            _set_masks(model, masks)
            self.layer_sparsity = {
                n: 1.0 - float(np.count_nonzero(m)) / m.size for n, m in masks.items()
            }
            return
        if epoch > t_end or epoch % delta_t != 0:
            return
        grads = dense_grads()
        for name, mask in model.store.masks().items():
            active = int(np.count_nonzero(mask))
            if active == 0 or active == mask.size:  # a keep-dense layer's mask is all ones
                continue
            s_l = self.layer_sparsity[name]
            # rigl_fraction is per-layer connections (numel); rigl_step takes a
            # fraction of the active count, so rescale: k = fraction * numel.
            fraction = rigl_fraction(epoch, alpha, t_end, s_l) * mask.size / active
            weights = model.store[name].weights
            model.store.set_mask(name, rigl_step(weights, grads[name], mask, min(1.0, fraction)))

    def state_dict(self) -> dict:
        return {**self.rigl, "layer_sparsity": dict(self.layer_sparsity)}


class _AcdcDriver(_Driver):
    def __init__(self, dist: SparsityDistribution, total_epochs: int, acdc: dict):
        self.dist = dist
        self.acdc = acdc
        self.phases = acdc_phases(total_epochs, acdc["warmup"], acdc["phase_len"],
                                  acdc["last_decompression"], acdc["last_compression"])
        self.current: Phase | None = None

    def at_epoch_start(self, epoch: int, model: Model, dense_grads) -> None:
        for phase in self.phases:
            if phase.start == epoch:
                self._enter(phase, model)
                return

    def _enter(self, phase: Phase, model: Model) -> None:
        self.current = phase
        target = self.dist.target
        if phase.kind == COMPRESSED and "ramp" in self.acdc:
            target = progressive_target(phase.start, target, **self.acdc["ramp"])
        masks = acdc_apply(
            phase.kind,
            model.prunable_weights(),
            self.dist.with_target(target),
            self.acdc["decompression_sparsity"],
        )
        for name in model.prunable_names():
            model.store.set_mask(name, None if masks is None else masks[name])

    def checkpoint_boundaries(self) -> set[int]:
        """End of every compressed phase, so saved masks are at full sparsity."""
        return {p.end for p in self.phases if p.kind == COMPRESSED}

    def state_dict(self) -> dict:
        return {
            "phase_kind": self.current.kind if self.current else None,
            "phase_start": self.current.start if self.current else None,
            "target": self.dist.target,
            "decompression_sparsity": self.acdc["decompression_sparsity"],
        }


# -- the loop -----------------------------------------------------------------


@dataclass
class RunResult:
    out_dir: str
    metrics: list[diagnostics.MetricRow]
    checkpoint_paths: list[str]


def _build_driver(cfg: ExperimentConfig) -> _Driver:
    sp = cfg.sparsity
    dist = SparsityDistribution(sp.distribution, sp.target, tuple(sp.keep_dense))
    return {
        "dense": _Driver,
        "oneshot": lambda: _OneshotDriver(dist),
        "gmp": lambda: _GmpDriver(dist, cfg.effective_gmp()),
        "rigl": lambda: _RiglDriver(dist, cfg.effective_rigl()),
        "acdc": lambda: _AcdcDriver(dist, cfg.effective_total, cfg.effective_acdc()),
    }[cfg.method]()


def evaluate_row(
    model: Model, data: Dataset, epoch: int, split: str, train_loss: float
) -> diagnostics.MetricRow:
    x, y = (data.x_val, data.y_val) if split == "val" else (data.x_train, data.y_train)
    logits = predict_logits(model, x)
    prunable = model.prunable_weights()
    conv = model.conv_layers()
    channel_avg = diagnostics.channel_sparsity(conv)[1] if conv else None
    _, proportion = diagnostics.flops(model)
    return diagnostics.MetricRow(
        epoch=epoch,
        split=split,
        top1=diagnostics.top1(logits, y),
        mean_entropy=diagnostics.mean_entropy(logits),
        mean_ce=diagnostics.mean_cross_entropy(logits, y),
        uncertainty_fraction=(
            diagnostics.uncertainty_fraction(logits[:, 1] - logits[:, 0])
            if data.classes == 2
            else None
        ),
        train_loss=train_loss,
        sparsity=diagnostics.zero_fraction(prunable) if prunable else 0.0,
        channel_sparsity_avg=channel_avg,
        flops_proportion=proportion,
    )


def train_epochs(
    model: Model, data: Dataset, sgd: SgdState, epochs: int, batch_size: int, eps: float,
    shuffle_rng: Rng, dropout_rng: Rng, before_epoch=None,
):
    """Minibatch SGD over `data`'s train split, from step 0 of `sgd`'s schedule.

    Each epoch draws a permutation, calls `before_epoch(epoch, order)` if
    given, draws `dropout_draws` keep flags per row in one request, then
    takes one `sgd_step` per minibatch on its rows' slab of flags. After each
    epoch it yields (epoch, steps taken so far, mean train loss over the epoch).
    """
    n = len(data.x_train)
    r = ARCHS[model.spec.arch].dropout_draws(model.spec, data.x_train.shape[1:])
    step = 0
    for epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        if before_epoch is not None:
            before_epoch(epoch, order)
        keep = dropout_rng.uniforms(r * n, at_least=model.spec.dropout) if r else None
        loss_sum = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, grads = model.loss_and_grad(
                data.x_train[idx], data.y_train[idx], eps=eps,
                keep=None if keep is None else keep[start * r : (start + idx.size) * r],
            )
            sgd_step(model.store, grads, sgd, step)
            step += 1
            loss_sum += loss * idx.size
        yield epoch, step, loss_sum / n


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> RunResult:
    driver = _build_driver(cfg)
    root = Rng(cfg.seed)
    data = build_dataset(cfg.dataset, root.stream(STREAM_DATA))
    # IDX files give their sizes only once read, so the model is checked against them here
    arch = ARCHS[cfg.model.arch]
    n_in, n_out = arch.input_dim(cfg.model), arch.output_dim(cfg.model)
    width = data.x_train.shape[1] if data.input_kind == "vector" else None
    if n_in != width or n_out < data.classes:
        raise ConfigError(f"model maps {n_in or 'token'} inputs to {n_out} classes, but the "
                          f"dataset has {width or 'token'} inputs and {data.classes} classes")
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(
        os.path.join(out_dir, "config.resolved.json"),
        json.dumps(cfg.resolved(), indent=2, sort_keys=True) + "\n",
    )
    model = build_model(cfg.model, root.stream(STREAM_INIT))

    total_epochs = cfg.effective_total
    steps_per_epoch = math.ceil(len(data.x_train) / cfg.batch_size)
    schedule = LrSchedule(
        kind=cfg.optimizer.schedule,
        peak=cfg.optimizer.lr,
        warmup_end=min(cfg.scaled(cfg.optimizer.warmup_epochs), total_epochs) * steps_per_epoch,
        total_steps=total_epochs * steps_per_epoch,
    )
    sgd = SgdState(
        model.store, schedule, momentum=cfg.optimizer.momentum, weight_decay=cfg.optimizer.weight_decay
    )

    def before_epoch(epoch: int, order: np.ndarray) -> None:
        def dense_grads() -> dict[str, np.ndarray]:
            idx = order[: cfg.batch_size]
            return model.loss_and_grad(data.x_train[idx], data.y_train[idx],
                                       eps=cfg.label_smoothing)[1]

        driver.at_epoch_start(epoch, model, dense_grads)

    boundaries = driver.checkpoint_boundaries()
    if boundaries is None:
        boundaries = {b for b in range(cfg.checkpoint_every, total_epochs + 1, cfg.checkpoint_every)}
    boundaries.add(total_epochs)

    rows: list[diagnostics.MetricRow] = []
    ckpt_paths: list[str] = []
    epochs = train_epochs(
        model, data, sgd, total_epochs, cfg.batch_size, cfg.label_smoothing,
        root.stream(STREAM_SHUFFLE), root.stream(STREAM_DROPOUT), before_epoch,
    )
    try:
        for epoch, _, train_loss in epochs:
            rows.append(evaluate_row(model, data, epoch + 1, "val", train_loss))
            val_ce = rows[-1].mean_ce
            if cfg.eval_train_split:
                rows.append(evaluate_row(model, data, epoch + 1, "train", train_loss))

            boundary = epoch + 1
            if boundary in boundaries:
                path = os.path.join(out_dir, f"ckpt_{boundary:05d}.splb")
                save_checkpoint(
                    path,
                    model.store,
                    meta={
                        "epoch": boundary,
                        "seed": cfg.seed,
                        "method": cfg.method,
                        "schedule_state": driver.state_dict(),
                        "train_loss_eval": rows[-1].mean_ce if cfg.eval_train_split
                            else dataset_loss(model, data.x_train, data.y_train),
                        "val_loss_eval": val_ce,
                        "model_spec": to_tree(cfg.model),
                        "config": cfg.resolved(),
                    },
                    momentum=sgd.buffers,
                )
                ckpt_paths.append(path)
    except SparselabError as e:
        phase = driver.state_dict().get("phase_kind")
        raise type(e)(f"epoch {len(rows)}, phase {phase}: {e}") from e

    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), rows)
    return RunResult(out_dir=out_dir, metrics=rows, checkpoint_paths=ckpt_paths)


# -- sweep --------------------------------------------------------------------


def _set_dotted(tree: dict, dotted: str, value) -> None:
    node = tree
    parts = dotted.split(".")
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value


def expand_grid(base: dict, grid: dict[str, list]) -> list[tuple[str, dict]]:
    keys = sorted(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))
    out = []
    for i, combo in enumerate(combos):
        tree = json.loads(json.dumps(base))
        for k, v in zip(keys, combo):
            _set_dotted(tree, k, v)
        out.append((f"run_{i:03d}", tree))
    return out


def _sweep_worker(args: tuple[dict, str]) -> dict:
    tree, out_dir = args
    cfg = ExperimentConfig.from_dict(tree)
    result = run_experiment(cfg, out_dir)
    val_rows = [r for r in result.metrics if r.split == "val"]
    last = val_rows[-1]
    return {
        "out_dir": out_dir,
        "final_top1": last.top1,
        "final_ce": last.mean_ce,
        "final_train_loss": last.train_loss,
        "final_sparsity": last.sparsity,
    }


def run_sweep(base: dict, grid: dict[str, list], out_dir: str) -> dict:
    """Expand the grid, run every combination, and summarize.

    SPARSELAB_THREADS caps parallelism (default 1). The summary reports the
    mean final top-1 over the two best runs.
    """
    runs = expand_grid(base, grid)
    for _, tree in runs:  # a bad run config fails the sweep before anything is written
        ExperimentConfig.from_dict(tree)
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(tree, os.path.join(out_dir, name)) for name, tree in runs]
    threads = int(os.environ.get("SPARSELAB_THREADS", "1"))
    if threads > 1:  # imported here: multiprocessing is costly to load for the serial path
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(j) for j in jobs]

    keys = sorted(grid)
    lines = ["run," + ",".join(keys) + ",final_top1,final_ce,final_train_loss,final_sparsity"]
    for (name, tree), res in zip(runs, results):
        values = []
        for k in keys:
            node = tree
            for p in k.split("."):
                node = node[p]
            values.append(format_sig9(node))
        lines.append(
            f"{name},"
            + ",".join(values)
            + f",{format_sig9(res['final_top1'])},{format_sig9(res['final_ce'])}"
            + f",{format_sig9(res['final_train_loss'])},{format_sig9(res['final_sparsity'])}"
        )
    _atomic_write(os.path.join(out_dir, "summary.csv"), "\n".join(lines) + "\n")

    by_top1 = sorted(range(len(results)), key=lambda i: (-results[i]["final_top1"], i))
    best_two = by_top1[:2]
    summary = {
        "runs": len(results),
        "best_runs": [runs[i][0] for i in best_two],
        "mean_top1_two_best": float(
            np.mean([results[i]["final_top1"] for i in best_two])
        ),
    }
    _atomic_write(
        os.path.join(out_dir, "summary.json"), json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary
