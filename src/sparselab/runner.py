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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .checkpoint import save_checkpoint
from .config import ExperimentConfig, format_sig9
from .data import Dataset, build_dataset
from .errors import ConfigError, SparselabError
from .models import Model, build_model
from .optim import LrSchedule, SgdState, reset_momentum, sgd_step
from .rng import (
    Rng,
    STREAM_DATA,
    STREAM_DROPOUT,
    STREAM_INIT,
    STREAM_SHUFFLE,
)
from .sparsify import (
    COMPRESSED,
    AcdcSchedule,
    GmpState,
    Phase,
    RiglState,
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

# rows per evaluation forward: of 64, 128 and 256, the fastest in timed micro-CNN training runs
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
    """Per-method sparsifier hooks around the shared training loop."""

    def at_epoch_start(self, epoch: int, ctx: "_RunContext") -> None:
        pass

    def checkpoint_boundaries(self, cfg: ExperimentConfig) -> set[int] | None:
        """Epoch boundaries to checkpoint at, or None for the default cadence."""
        return None

    def state_dict(self) -> dict:
        return {}


class _OneshotDriver(_Driver):
    def __init__(self, dist: SparsityDistribution):
        self.dist = dist

    def at_epoch_start(self, epoch: int, ctx: "_RunContext") -> None:
        if epoch == 0:
            masks = magnitude_mask(ctx.prunable_weights(), self.dist)
            ctx.set_masks(masks)

    def state_dict(self) -> dict:
        return {"target": self.dist.target}


class _GmpDriver(_Driver):
    def __init__(self, dist: SparsityDistribution, state: GmpState):
        self.dist = dist
        self.state = state
        self.current_s = 0.0
        self.masks: dict[str, np.ndarray] | None = None

    def at_epoch_start(self, epoch: int, ctx: "_RunContext") -> None:
        s_t = gmp_sparsity_at(self.state, epoch)
        if s_t <= self.current_s:
            return
        weights = ctx.prunable_weights()
        target = self.dist.with_target(s_t)
        if self.masks is None:
            new = magnitude_mask(weights, target)
        else:
            new = shrink_mask(weights, self.masks, target)
        ctx.set_masks(new)
        self.masks = new
        self.current_s = s_t

    def state_dict(self) -> dict:
        return {
            "sparsity": self.current_s,
            "ramp_start": self.state.ramp_start,
            "ramp_end": self.state.ramp_end,
            "update_every": self.state.update_every,
        }


class _RiglDriver(_Driver):
    def __init__(self, dist: SparsityDistribution, state: RiglState):
        self.dist = dist
        self.state = state
        self.masks: dict[str, np.ndarray] | None = None

    def at_epoch_start(self, epoch: int, ctx: "_RunContext") -> None:
        st = self.state
        if epoch == 0:
            self.masks = magnitude_mask(ctx.prunable_weights(), self.dist)
            ctx.set_masks(self.masks)
            st.layer_sparsity.update(
                {n: 1.0 - float(np.count_nonzero(m)) / m.size for n, m in self.masks.items()}
            )
            return
        if epoch > st.t_end or epoch % st.delta_t != 0:
            return
        grads = ctx.dense_grad_batch()
        new_masks = dict(self.masks)
        changed: dict[str, np.ndarray] = {}
        for name, w in ctx.prunable_weights().items():
            if name in self.dist.keep_dense:
                continue
            mask = self.masks[name]
            active = int(np.count_nonzero(mask))
            if active == 0 or active == mask.size:
                continue
            s_l = st.layer_sparsity[name]
            # rigl_fraction is per-layer connections (numel); rigl_step takes a
            # fraction of the active count, so rescale: k = fraction * numel.
            fraction = rigl_fraction(epoch, st.alpha, st.t_end, s_l) * mask.size / active
            new_masks[name], changed[name] = rigl_step(w, grads[name], mask, min(1.0, fraction))
        ctx.set_masks(new_masks, changed)
        self.masks = new_masks

    def state_dict(self) -> dict:
        return {
            "alpha": self.state.alpha,
            "t_end": self.state.t_end,
            "delta_t": self.state.delta_t,
            "layer_sparsity": dict(self.state.layer_sparsity),
        }


class _AcdcDriver(_Driver):
    def __init__(self, dist: SparsityDistribution, schedule: AcdcSchedule):
        self.dist = dist
        self.schedule = schedule
        self.phases = acdc_phases(schedule)
        self.current: Phase | None = None

    def at_epoch_start(self, epoch: int, ctx: "_RunContext") -> None:
        for phase in self.phases:
            if phase.start == epoch:
                self._enter(phase, ctx)
                return

    def _enter(self, phase: Phase, ctx: "_RunContext") -> None:
        self.current = phase
        target = self.schedule.target
        if phase.kind == COMPRESSED and self.schedule.ramp is not None:
            target = progressive_target(phase.start, self.schedule.ramp, self.schedule.target)
        masks = acdc_apply(
            phase.kind,
            ctx.prunable_weights(),
            self.dist.with_target(target),
            self.schedule.decompression_sparsity,
        )
        if masks is None:
            ctx.clear_masks()
        else:
            ctx.set_masks(masks)

    def checkpoint_boundaries(self, cfg: ExperimentConfig) -> set[int]:
        """End of every compressed phase, so saved masks are at full sparsity."""
        return {p.end for p in self.phases if p.kind == COMPRESSED}

    def state_dict(self) -> dict:
        out = {
            "phase_kind": self.current.kind if self.current else None,
            "phase_start": self.current.start if self.current else None,
            "target": self.schedule.target,
            "decompression_sparsity": self.schedule.decompression_sparsity,
        }
        return out


# -- the loop -----------------------------------------------------------------


@dataclass
class RunResult:
    out_dir: str
    metrics: list[diagnostics.MetricRow]
    checkpoint_paths: list[str]
    model: Model


class _RunContext:
    """What drivers may touch: prunable weights, masks, momentum hygiene,
    and a one-shot dense gradient for RigL updates."""

    def __init__(self, model: Model, sgd: SgdState, cfg: ExperimentConfig, data: Dataset):
        self.model = model
        self.sgd = sgd
        self.cfg = cfg
        self.data = data
        self._grad_idx: np.ndarray | None = None

    def prunable_weights(self) -> dict[str, np.ndarray]:
        return self.model.prunable_weights()

    def _changed_from(self, new_masks: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        changed = {}
        for name, mask in new_masks.items():
            old = self.model.store[name].mask
            old_sup = np.ones_like(mask, dtype=bool) if old is None else old != 0.0
            changed[name] = old_sup != (mask != 0.0)
        return changed

    def set_masks(
        self, masks: dict[str, np.ndarray], changed: dict[str, np.ndarray] | None = None
    ) -> None:
        if changed is None:
            changed = self._changed_from(masks)
        for name, mask in masks.items():
            self.model.store.set_mask(name, mask)
        reset_momentum(self.sgd, changed)

    def clear_masks(self) -> None:
        for name in self.model.prunable_names():
            self.model.store.set_mask(name, None)

    def stage_grad_batch(self, idx: np.ndarray) -> None:
        self._grad_idx = idx

    def dense_grad_batch(self) -> dict[str, np.ndarray]:
        x, y = self.data.x_train[self._grad_idx], self.data.y_train[self._grad_idx]
        _, grads = self.model.loss_and_grad(x, y, eps=self.cfg.label_smoothing)
        return grads


def _build_driver(cfg: ExperimentConfig) -> _Driver:
    dist = SparsityDistribution(
        kind=cfg.sparsity.distribution,
        target=cfg.sparsity.target,
        keep_dense=tuple(cfg.sparsity.keep_dense),
    )
    if cfg.method == "dense":
        return _Driver()
    if cfg.method == "oneshot":
        return _OneshotDriver(dist)
    if cfg.method == "gmp":
        g = cfg.effective_gmp()
        return _GmpDriver(
            dist,
            GmpState(
                s_final=cfg.sparsity.target,
                ramp_start=g["ramp_start"],
                ramp_end=g["ramp_end"],
                update_every=g["update_every"],
            ),
        )
    if cfg.method == "rigl":
        r = cfg.effective_rigl()
        return _RiglDriver(dist, RiglState(alpha=r["alpha"], t_end=r["t_end"], delta_t=r["delta_t"]))
    if cfg.method == "acdc":
        a = cfg.effective_acdc()
        ramp = None
        if "ramp" in a:
            from .sparsify import ProgressiveRamp

            ramp = ProgressiveRamp(**a["ramp"])
        schedule = AcdcSchedule(
            total_epochs=cfg.effective_total,
            target=cfg.sparsity.target,
            warmup=a["warmup"],
            phase_len=a["phase_len"],
            last_decompression=a["last_decompression"],
            last_compression=a["last_compression"],
            decompression_sparsity=a["decompression_sparsity"],
            ramp=ramp,
        )
        return _AcdcDriver(dist, schedule)
    raise ConfigError(f"unknown method {cfg.method!r}")


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
    given, then takes one `sgd_step` per minibatch. After each epoch it
    yields (epoch, steps taken so far, mean train loss over the epoch).
    """
    n = len(data.x_train)
    step = 0
    for epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        if before_epoch is not None:
            before_epoch(epoch, order)
        loss_sum = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, grads = model.loss_and_grad(
                data.x_train[idx], data.y_train[idx], eps=eps, train=True, dropout_rng=dropout_rng
            )
            sgd_step(model.store, grads, sgd, step)
            step += 1
            loss_sum += loss * idx.size
        yield epoch, step, loss_sum / n


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> RunResult:
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(
        os.path.join(out_dir, "config.resolved.json"),
        json.dumps(cfg.resolved(), indent=2, sort_keys=True) + "\n",
    )

    root = Rng(cfg.seed)
    data = build_dataset(cfg.dataset, root.stream(STREAM_DATA))
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
    driver = _build_driver(cfg)
    ctx = _RunContext(model, sgd, cfg, data)

    def before_epoch(epoch: int, order: np.ndarray) -> None:
        ctx.stage_grad_batch(order[: cfg.batch_size])
        driver.at_epoch_start(epoch, ctx)

    boundaries = driver.checkpoint_boundaries(cfg)
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
                        "model_spec": cfg.model.to_dict(),
                        "config": cfg.resolved(),
                    },
                    momentum=sgd.buffers,
                )
                ckpt_paths.append(path)
    except SparselabError as e:
        phase = driver.state_dict().get("phase_kind")
        raise type(e)(f"epoch {len(rows)}, phase {phase}: {e}") from e

    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), rows)
    return RunResult(out_dir=out_dir, metrics=rows, checkpoint_paths=ckpt_paths, model=model)


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
    os.makedirs(out_dir, exist_ok=True)
    runs = expand_grid(base, grid)
    jobs = [(tree, os.path.join(out_dir, name)) for name, tree in runs]
    threads = int(os.environ.get("SPARSELAB_THREADS", "1"))
    if threads > 1:
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
