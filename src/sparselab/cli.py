"""Command-line interface.

Subcommands: train, analyze-masks, sharpness, interpolate, transfer, flops,
sweep. Exit status 2 for bad arguments or configs, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import diagnostics
from .checkpoint import load_checkpoint, rebuild_model
from .config import ExperimentConfig, format_sig9
from .data import DatasetSpec, build_dataset
from .errors import CheckpointError, ConfigError, SparselabError
from .landscape import PathSpec, interpolate_path, sharpness
from .models import Model, build_model
from .rng import Rng, STREAM_DATA, STREAM_INIT, STREAM_SHARPNESS
from .runner import dataset_loss, run_experiment, run_sweep, _atomic_write
from .transfer import TransferHyper, baseline_recipes, transfer_run


def _meta(meta: dict, path: str, key: str, kind: type):
    """A run-metadata field of a checkpoint; one saved outside `train` may lack it."""
    value = meta.get(key)
    if not isinstance(value, kind):
        raise CheckpointError(f"{path}: checkpoint metadata has no valid {key!r}")
    return value


def _load_run(ckpt_path: str):
    """Model, config and metadata of a checkpoint; its loaded tensors are dropped."""
    ck = load_checkpoint(ckpt_path)
    model = rebuild_model(ck)
    return model, ExperimentConfig.from_dict(_meta(ck.meta, ckpt_path, "config", dict)), ck.meta


def _run_dataset(cfg: ExperimentConfig):
    """The dataset the run trained on."""
    return build_dataset(cfg.dataset, Rng(cfg.seed).stream(STREAM_DATA))


def _cmd_train(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.checkpoint_every is not None:
        if args.checkpoint_every < 1:
            raise ConfigError("--checkpoint-every must be positive")
        cfg.checkpoint_every = args.checkpoint_every
    result = run_experiment(cfg, args.out)
    last = [r for r in result.metrics if r.split == "val"][-1]
    print(
        f"done: {len(result.metrics)} metric rows, {len(result.checkpoint_paths)} checkpoints, "
        f"final val top1 {last.top1:.4f}, sparsity {last.sparsity:.4f}"
    )
    return 0


def _supports(model: Model) -> dict[str, np.ndarray]:
    return {n: (model.store[n].weights != 0.0) for n in model.prunable_names()}


def _cmd_analyze_masks(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.checkpoints, "ckpt_*.splb")))
    if len(paths) < 2:
        raise ConfigError(f"need at least two checkpoints in {args.checkpoints}")
    epochs, supports, channel_rows = [], [], []
    for p in paths:
        ck = load_checkpoint(p)
        model = rebuild_model(ck)
        epoch = _meta(ck.meta, p, "epoch", int)
        epochs.append(epoch)
        supports.append(_supports(model))
        conv = model.conv_layers()
        if conv:
            per_layer, global_frac = diagnostics.channel_sparsity(conv)
            for layer, frac in per_layer.items():
                channel_rows.append((epoch, layer, frac))
            channel_rows.append((epoch, "_global", global_frac))
    os.makedirs(args.out, exist_ok=True)
    iou_lines = ["epoch_a,epoch_b,iou"]
    for i in range(len(paths) - 1):
        iou = diagnostics.mask_iou(supports[i], supports[i + 1])
        iou_lines.append(f"{epochs[i]},{epochs[i + 1]},{format_sig9(iou)}")
    _atomic_write(os.path.join(args.out, "iou.csv"), "\n".join(iou_lines) + "\n")
    ch_lines = ["epoch,layer,zero_channel_fraction"]
    for epoch, layer, frac in channel_rows:
        ch_lines.append(f"{epoch},{layer},{format_sig9(frac)}")
    _atomic_write(os.path.join(args.out, "channel_sparsity.csv"), "\n".join(ch_lines) + "\n")
    print(f"wrote {len(iou_lines) - 1} IoU rows and {len(ch_lines) - 1} channel rows to {args.out}")
    return 0


def _cmd_sharpness(args) -> int:
    model, cfg, meta = _load_run(args.checkpoint)
    epoch = _meta(meta, args.checkpoint, "epoch", int)
    data = _run_dataset(cfg)
    rng = Rng(cfg.seed).stream(STREAM_SHARPNESS)
    idx = rng.permutation(len(data.x_train))[: args.batch_size]
    x, y = data.x_train[idx], data.y_train[idx]
    del data

    def grad_fn(params):
        _, grads = model.loss_and_grad(x, y, params=params)
        return grads

    params = {n: e.weights.astype(np.float64) for n, e in model.store.items()}
    support = model.store.masks() if not args.no_mask_restrict else None
    value = sharpness(grad_fn, params, rng, support=support, power_iters=args.power_iters)
    print(f"sharpness {format_sig9(value)} (epoch {epoch}, "
          f"{'masked' if support else 'unrestricted'}, {args.power_iters} iterations)")
    return 0


def _cmd_interpolate(args) -> int:
    if len(args.checkpoints) < 2:
        raise ConfigError("interpolate needs at least two checkpoints")
    loaded = [_load_run(p) for p in args.checkpoints]
    model, cfg, _ = loaded[0]
    for m, c, _ in loaded[1:]:
        if m.spec != model.spec:
            raise ConfigError("checkpoints come from different architectures")
        if c.dataset != cfg.dataset or c.seed != cfg.seed:
            raise ConfigError("checkpoints come from runs with different datasets or seeds")
    params = [{n: e.weights for n, e in m.store.items()} for m, _, _ in loaded]
    del loaded  # frees every mask but the first model's
    data = _run_dataset(cfg)
    loss_fns = {
        "train": lambda p: dataset_loss(model, data.x_train, data.y_train, params=p),
        "val": lambda p: dataset_loss(model, data.x_val, data.y_val, params=p),
    }
    spec = PathSpec(segments_per_interval=args.segments, splits=tuple(args.splits.split(",")))
    rows = interpolate_path(params, loss_fns, spec)
    os.makedirs(args.out, exist_ok=True)
    lines = ["alpha,split,loss"]
    for alpha, split, loss in rows:
        lines.append(f"{format_sig9(alpha)},{split},{format_sig9(loss)}")
    _atomic_write(os.path.join(args.out, "interpolation.csv"), "\n".join(lines) + "\n")
    print(f"wrote {len(rows)} interpolation rows to {args.out}")
    return 0


def _transfer_dataset(model: Model, n_train: int, n_val: int) -> DatasetSpec:
    s = model.spec
    if model.input_dim is None:
        return DatasetSpec(
            kind="synthetic-sequences", n_train=n_train, n_val=n_val,
            vocab=s.vocab, seq_len=s.max_len,
        )
    return DatasetSpec(
        kind="synthetic-blobs", n_train=n_train, n_val=n_val, classes=s.classes,
        dim=model.input_dim,
    )


def _cmd_transfer(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    model = rebuild_model(ck)
    # rejects a dropout rate for an architecture without dropout layers
    specs = {dr: replace(model.spec, dropout=dr) for dr in args.dropout}
    ds_spec = _transfer_dataset(model, args.n_train, args.n_val)
    hyper = TransferHyper(
        batch_size=args.batch_size, epochs_per_stage=args.epochs_per_stage,
        early_stop=not args.no_early_stop,
    )
    if args.mode == "rescaled" and args.epochs < 1:
        raise ConfigError("--epochs must be positive")
    data = build_dataset(ds_spec, Rng(args.task_seed).stream(STREAM_DATA))
    os.makedirs(args.out, exist_ok=True)
    results = []
    combos = [(lr, dr) for lr in args.lr for dr in args.dropout]
    for i, (lr, dr) in enumerate(combos):
        if i:
            model = rebuild_model(ck)
        model.spec = specs[dr]
        hyper.lr = lr
        rng = Rng(args.task_seed + i)
        if args.mode == "gradual":
            res = transfer_run(model, data, hyper, rng)
        elif args.mode == "linear":
            res = baseline_recipes(model, data, hyper, rng, mode="dense-recipe", finetune="linear")
        elif args.mode == "dense-recipe":
            res = baseline_recipes(model, data, hyper, rng, mode="dense-recipe", finetune="full")
        else:  # rescaled
            res = baseline_recipes(
                model, data, hyper, rng, mode="rescaled", epochs=args.epochs, finetune="full"
            )
        run_name = f"run_{i:03d}"
        lines = ["stage,label,trainable,lr_first,lr_last,eval_loss,top1"]
        for r in res.history:
            lines.append(
                f"{r.stage},{r.label},{r.trainable},{format_sig9(r.lr_first)},"
                f"{format_sig9(r.lr_last)},{format_sig9(r.eval_loss)},{format_sig9(r.top1)}"
            )
        _atomic_write(os.path.join(args.out, f"{run_name}_stages.csv"), "\n".join(lines) + "\n")
        results.append({"run": run_name, "lr": lr, "dropout": dr, "best_top1": res.best_top1})
        print(f"{run_name}: lr={lr} dropout={dr} best top1 {res.best_top1:.4f}")
    ranked = sorted(range(len(results)), key=lambda i: (-results[i]["best_top1"], i))[:2]
    summary = {
        "runs": results,
        "mean_top1_two_best": float(np.mean([results[i]["best_top1"] for i in ranked])),
    }
    _atomic_write(os.path.join(args.out, "summary.json"), json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_flops(args) -> int:
    if args.checkpoint:
        model = rebuild_model(load_checkpoint(args.checkpoint))
    else:
        cfg = ExperimentConfig.from_file(args.config)
        model = build_model(cfg.model, Rng(cfg.seed).stream(STREAM_INIT))
    dense_total, proportion = diagnostics.flops(model)
    print("layer,dense_flops,density")
    for layer, f, density in diagnostics.flops_by_layer(model):
        print(f"{layer},{f},{format_sig9(density)}")
    print(f"total,{dense_total},{format_sig9(proportion)}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        with open(args.grid) as f:
            tree = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read grid {args.grid}: {e}") from e
    if "base" not in tree or "grid" not in tree:
        raise ConfigError("grid file needs 'base' and 'grid' keys")
    summary = run_sweep(tree["base"], tree["grid"], args.out)
    print(
        f"{summary['runs']} runs; best {summary['best_runs']}; "
        f"mean top1 of two best {summary['mean_top1_two_best']:.4f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sparselab")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run one experiment from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--checkpoint-every", type=int, default=None)
    t.set_defaults(fn=_cmd_train)

    a = sub.add_parser("analyze-masks", help="consecutive-checkpoint IoU and channel sparsity")
    a.add_argument("checkpoints", help="directory of ckpt_*.splb files")
    a.add_argument("--out", required=True)
    a.set_defaults(fn=_cmd_analyze_masks)

    s = sub.add_parser("sharpness", help="top Hessian eigenvalue at a checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--power-iters", type=int, default=20)
    s.add_argument("--batch-size", type=int, default=512)
    s.add_argument("--no-mask-restrict", action="store_true")
    s.set_defaults(fn=_cmd_sharpness)

    i = sub.add_parser("interpolate", help="loss along the piecewise-linear checkpoint path")
    i.add_argument("--checkpoints", nargs="+", required=True)
    i.add_argument("--segments", type=int, default=10)
    i.add_argument("--splits", default="train,val")
    i.add_argument("--out", required=True)
    i.set_defaults(fn=_cmd_interpolate)

    tr = sub.add_parser("transfer", help="sparse-transfer recipes from a sparse checkpoint")
    tr.add_argument("--checkpoint", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--mode", choices=("gradual", "dense-recipe", "rescaled", "linear"),
                    default="gradual")
    tr.add_argument("--epochs", type=int, default=3, help="epochs for rescaled mode")
    tr.add_argument("--epochs-per-stage", type=int, default=1)
    tr.add_argument("--lr", type=float, nargs="+", default=[0.05])
    tr.add_argument("--dropout", type=float, nargs="+", default=[0.0])
    tr.add_argument("--batch-size", type=int, default=32)
    tr.add_argument("--task-seed", type=int, default=7)
    tr.add_argument("--n-train", type=int, default=512)
    tr.add_argument("--n-val", type=int, default=256)
    tr.add_argument("--no-early-stop", action="store_true")
    tr.set_defaults(fn=_cmd_transfer)

    f = sub.add_parser("flops", help="dense FLOPs and sparse proportion")
    f.add_argument("--config")
    f.add_argument("--checkpoint")
    f.set_defaults(fn=_cmd_flops)

    w = sub.add_parser("sweep", help="expand a grid config into runs plus a summary")
    w.add_argument("--grid", required=True)
    w.add_argument("--out", required=True)
    w.set_defaults(fn=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fn is _cmd_flops and not (args.config or args.checkpoint):
        parser.error("flops needs --config or --checkpoint")
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SparselabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
