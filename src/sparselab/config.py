"""Experiment configuration: a human-readable JSON key-value tree.

Unknown keys are rejected. The schedule multiplier scales the total epoch
count and every epoch-valued schedule anchor proportionally; anchors left
null derive from the effective total (GMP/RigL mask freezing at 75% of
training, AC/DC warmup at 10%). The fully resolved tree is written next to
each run's results so runs are self-describing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError
from .models import ModelSpec
from .data import DatasetSpec

METHODS = ("dense", "gmp", "rigl", "acdc", "oneshot")


def _round_epochs(x: float) -> int:
    return int(math.floor(x + 0.5))


def _take(d: dict, key: str, default):
    return d[key] if key in d else default


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


@dataclass
class OptimizerCfg:
    lr: float = 0.5
    momentum: float = 0.9
    weight_decay: float = 1e-4
    warmup_epochs: int = 2
    schedule: str = "linear-warmup-linear-decay"


@dataclass
class SparsityCfg:
    target: float = 0.95
    distribution: str = "global"
    keep_dense: tuple[str, ...] = ()


@dataclass
class GmpCfg:
    ramp_start: int = 0
    ramp_end: int | None = None  # default: 75% of effective total
    update_every: int = 5


@dataclass
class RiglCfg:
    alpha: float = 0.3
    t_end: int | None = None  # default: 75% of effective total
    delta_t: int = 1


@dataclass
class AcdcCfg:
    warmup: int | None = None  # default: 10% of effective total
    phase_len: int = 5
    last_decompression: int = 15
    last_compression: int = 10
    decompression_sparsity: float = 0.0
    ramp_start: int | None = None
    ramp_end: int | None = None
    ramp_start_sparsity: float = 0.9


@dataclass
class ExperimentConfig:
    seed: int = 0
    method: str = "dense"
    total_epochs: int = 10
    batch_size: int = 64
    multiplier: float = 1.0
    checkpoint_every: int = 10
    label_smoothing: float = 0.0
    eval_train_split: bool = False
    optimizer: OptimizerCfg = field(default_factory=OptimizerCfg)
    sparsity: SparsityCfg = field(default_factory=SparsityCfg)
    gmp: GmpCfg = field(default_factory=GmpCfg)
    rigl: RiglCfg = field(default_factory=RiglCfg)
    acdc: AcdcCfg = field(default_factory=AcdcCfg)
    model: ModelSpec = field(default_factory=lambda: ModelSpec(arch="mlp"))
    dataset: DatasetSpec = field(default_factory=lambda: DatasetSpec(kind="synthetic-blobs"))

    # -- effective (multiplier-applied) schedule anchors ---------------------

    @property
    def effective_total(self) -> int:
        return _round_epochs(self.total_epochs * self.multiplier)

    def scaled(self, epochs: int | float) -> int:
        return _round_epochs(epochs * self.multiplier)

    def effective_gmp(self) -> dict:
        total = self.effective_total
        ramp_end = (
            _round_epochs(0.75 * total)
            if self.gmp.ramp_end is None
            else self.scaled(self.gmp.ramp_end)
        )
        return {
            "ramp_start": self.scaled(self.gmp.ramp_start),
            "ramp_end": ramp_end,
            "update_every": max(1, self.scaled(self.gmp.update_every)),
        }

    def effective_rigl(self) -> dict:
        total = self.effective_total
        t_end = (
            _round_epochs(0.75 * total)
            if self.rigl.t_end is None
            else self.scaled(self.rigl.t_end)
        )
        return {
            "alpha": self.rigl.alpha,
            "t_end": t_end,
            "delta_t": max(1, self.scaled(self.rigl.delta_t)),
        }

    def effective_acdc(self) -> dict:
        total = self.effective_total
        warmup = (
            _round_epochs(0.1 * total)
            if self.acdc.warmup is None
            else self.scaled(self.acdc.warmup)
        )
        out = {
            "warmup": warmup,
            "phase_len": max(1, self.scaled(self.acdc.phase_len)),
            "last_decompression": max(1, self.scaled(self.acdc.last_decompression)),
            "last_compression": max(1, self.scaled(self.acdc.last_compression)),
            "decompression_sparsity": self.acdc.decompression_sparsity,
        }
        if self.acdc.ramp_start is not None and self.acdc.ramp_end is not None:
            out["ramp"] = {
                "start_epoch": self.scaled(self.acdc.ramp_start),
                "end_epoch": self.scaled(self.acdc.ramp_end),
                "start_sparsity": self.acdc.ramp_start_sparsity,
            }
        return out

    # -- serialization -------------------------------------------------------

    def resolved(self) -> dict:
        """Full tree with every default made explicit."""
        return {
            "seed": self.seed,
            "method": self.method,
            "total_epochs": self.total_epochs,
            "batch_size": self.batch_size,
            "multiplier": self.multiplier,
            "checkpoint_every": self.checkpoint_every,
            "label_smoothing": self.label_smoothing,
            "eval_train_split": self.eval_train_split,
            "optimizer": vars(self.optimizer).copy(),
            "sparsity": {
                "target": self.sparsity.target,
                "distribution": self.sparsity.distribution,
                "keep_dense": list(self.sparsity.keep_dense),
            },
            "gmp": vars(self.gmp).copy(),
            "rigl": vars(self.rigl).copy(),
            "acdc": vars(self.acdc).copy(),
            "model": self.model.to_dict(),
            "dataset": self.dataset.to_dict(),
            "effective": {
                "total_epochs": self.effective_total,
                "gmp": self.effective_gmp(),
                "rigl": self.effective_rigl(),
                "acdc": self.effective_acdc(),
            },
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        _check_keys(
            d,
            {
                "seed", "method", "total_epochs", "batch_size", "multiplier",
                "checkpoint_every", "label_smoothing", "eval_train_split",
                "optimizer", "sparsity", "gmp", "rigl", "acdc", "model", "dataset",
                "effective",
            },
            "config",
        )
        cfg = ExperimentConfig()
        cfg.seed = int(_take(d, "seed", cfg.seed))
        cfg.method = _take(d, "method", cfg.method)
        if cfg.method not in METHODS:
            raise ConfigError(f"unknown method {cfg.method!r}, expected one of {METHODS}")
        cfg.total_epochs = int(_take(d, "total_epochs", cfg.total_epochs))
        cfg.batch_size = int(_take(d, "batch_size", cfg.batch_size))
        cfg.multiplier = float(_take(d, "multiplier", cfg.multiplier))
        cfg.checkpoint_every = int(_take(d, "checkpoint_every", cfg.checkpoint_every))
        cfg.label_smoothing = float(_take(d, "label_smoothing", cfg.label_smoothing))
        cfg.eval_train_split = bool(_take(d, "eval_train_split", cfg.eval_train_split))
        if not 0.0 <= cfg.label_smoothing < 1.0:
            raise ConfigError("label_smoothing must lie in [0, 1)")
        if min(cfg.total_epochs, cfg.batch_size, cfg.multiplier, cfg.checkpoint_every) <= 0:
            raise ConfigError("epochs, batch size, multiplier and checkpoint_every must be positive")

        opt = dict(_take(d, "optimizer", {}))
        _check_keys(opt, set(vars(cfg.optimizer)), "optimizer")
        for k, v in opt.items():
            setattr(cfg.optimizer, k, type(getattr(cfg.optimizer, k))(v))

        sp = dict(_take(d, "sparsity", {}))
        _check_keys(sp, {"target", "distribution", "keep_dense"}, "sparsity")
        cfg.sparsity.target = float(_take(sp, "target", cfg.sparsity.target))
        cfg.sparsity.distribution = _take(sp, "distribution", cfg.sparsity.distribution)
        cfg.sparsity.keep_dense = tuple(_take(sp, "keep_dense", ()))
        if not 0.0 <= cfg.sparsity.target < 1.0:
            raise ConfigError("sparsity target must lie in [0, 1)")

        for section, obj in (("gmp", cfg.gmp), ("rigl", cfg.rigl), ("acdc", cfg.acdc)):
            sub = dict(_take(d, section, {}))
            _check_keys(sub, set(vars(obj)), section)
            for k, v in sub.items():
                setattr(obj, k, v)

        if "model" in d:
            try:
                cfg.model = ModelSpec.from_dict(d["model"])
            except TypeError as e:
                raise ConfigError(f"bad model spec: {e}") from e
        if "dataset" in d:
            try:
                cfg.dataset = DatasetSpec.from_dict(d["dataset"])
            except TypeError as e:
                raise ConfigError(f"bad dataset spec: {e}") from e
        return cfg

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        try:
            with open(path) as f:
                tree = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        if not isinstance(tree, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        return ExperimentConfig.from_dict(tree)


def format_sig9(x: Any) -> str:
    """Serialize numbers with 9 significant digits for CSV output."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)
