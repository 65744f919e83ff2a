"""Experiment configuration: a human-readable JSON key-value tree.

`load_tree` maps a tree onto the config dataclasses by their fields' type
hints and `to_tree` maps them back; range and choice checks live in each
dataclass's `__post_init__`, so construction is the only validation path.
The schedule multiplier scales the total epoch count and every
epoch-valued schedule anchor proportionally; anchors left null derive from
the effective total (GMP/RigL mask freezing at 75% of training, AC/DC
warmup at 10%). The fully resolved tree is written next to each run's
results so runs are self-describing.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field
from typing import Any

from .data import DatasetSpec
from .errors import ConfigError, LayerCollapseError, ScheduleError
from .models import ARCHS, ModelSpec
from .optim import SCHEDULES
from .sparsify import DISTRIBUTIONS, SparsityDistribution, acdc_phases, scoring_pools

METHODS = ("dense", "gmp", "rigl", "acdc", "oneshot")

_hints = functools.cache(typing.get_type_hints)
_fields = functools.cache(dataclasses.fields)  # per class; each call would build a new tuple


def _round_epochs(x: float) -> int:
    if not math.isfinite(x):
        raise ConfigError(f"an epoch count times the multiplier overflows to {x}")
    return int(math.floor(x + 0.5))


def _load(tp, value, where: str):
    """`value` checked against the type hint `tp`: a JSON integer also fits a
    float, a bool never fits an int, and a list fills a tuple."""
    args = typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return load_tree(tp, value, where)
    if typing.get_origin(tp) is types.UnionType:  # X | None
        return None if value is None else _load(args[0], value, where)
    if typing.get_origin(tp) is tuple:
        fixed = args[-1] is not ...
        if not isinstance(value, (list, tuple)) or fixed and len(value) != len(args):
            size = f" of {len(args)} items" if fixed else ""
            raise ConfigError(f"{where} must be a list{size}, got {value!r}")
        return tuple(_load(args[i if fixed else 0], v, f"{where}[{i}]") for i, v in enumerate(value))
    number = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)  # finite; a bool is no number
    if tp is float and number:
        return float(value)
    if tp is int and number and isinstance(value, int) or tp in (bool, str) and isinstance(value, tp):
        return value
    raise ConfigError(f"{where} must be {tp.__name__}, got {value!r}")


def load_tree(cls, tree, where: str):
    """A `cls` dataclass built from the JSON object `tree`; keys left out keep
    their defaults. Every rejection is a ConfigError naming the dotted path."""
    if not isinstance(tree, dict):
        raise ConfigError(f"{where} must be an object, got {tree!r}")
    hints = _hints(cls)
    unknown = set(tree) - set(hints)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    for f in _fields(cls):
        if f.name not in tree and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where}.{f.name} is required")
    return cls(**{k: _load(hints[k], v, f"{where}.{k}") for k, v in tree.items()})


def to_tree(obj):
    """The JSON tree of a config dataclass, the inverse of `load_tree`."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_tree(getattr(obj, f.name)) for f in _fields(type(obj))}
    if isinstance(obj, tuple):
        return [to_tree(v) for v in obj]
    return obj


@dataclass
class OptimizerCfg:
    lr: float = 0.5
    momentum: float = 0.9
    weight_decay: float = 1e-4
    warmup_epochs: int = 2
    schedule: str = "linear-warmup-linear-decay"

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"optimizer.momentum must lie in [0, 1), got {self.momentum}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown lr schedule {self.schedule!r}, expected one of {SCHEDULES}")


@dataclass
class SparsityCfg:
    target: float = 0.95
    distribution: str = "global"
    keep_dense: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.target < 1.0:
            raise ConfigError("sparsity target must lie in [0, 1)")
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(
                f"unknown sparsity distribution {self.distribution!r}, "
                f"expected one of {DISTRIBUTIONS}"
            )


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

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"rigl.alpha must lie in [0, 1], got {self.alpha}")


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

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError("label_smoothing must lie in [0, 1)")
        if min(self.total_epochs, self.effective_total, self.batch_size, self.checkpoint_every) <= 0:
            raise ConfigError(
                "total_epochs (also times the multiplier), batch_size and checkpoint_every "
                "must be positive"
            )
        arch, data, m = ARCHS[self.model.arch], self.dataset, self.model
        sp = self.sparsity
        shapes = {d.name: d.shape for d in arch.params(m) if d.prunable}
        unknown = sorted(set(sp.keep_dense) - set(shapes))
        if unknown:
            raise ConfigError(f"sparsity.keep_dense {unknown}: not among the prunable {list(shapes)}")
        targets = {"sparsity.target": sp.target} if self.method != "dense" else {}
        if self.method == "acdc" and None not in (self.acdc.ramp_start, self.acdc.ramp_end):
            targets["acdc.ramp_start_sparsity"] = self.acdc.ramp_start_sparsity
        pooled = {n: shape for n, shape in shapes.items() if n not in sp.keep_dense}
        for key, s in targets.items():  # a mask update at s must leave every layer pool an entry
            if not 0.0 <= s < 1.0:
                raise ConfigError(f"{key} must lie in [0, 1), got {s}")
            try:
                scoring_pools(pooled, SparsityDistribution(sp.distribution, s))
            except LayerCollapseError as e:
                raise ConfigError(f"{key}: {e}") from e
        # only the configured method's schedule: the default AC/DC block cannot fit 10 epochs
        if self.method == "gmp":
            g = self.effective_gmp()
            if g["ramp_end"] <= g["ramp_start"]:
                raise ConfigError("GMP ramp must end after it starts")
        if self.method == "acdc":
            a = self.effective_acdc()
            if not 0.0 <= a["decompression_sparsity"] <= sp.target:
                raise ConfigError("decompression sparsity must lie in [0, target]")
            if (self.acdc.ramp_start is None) != (self.acdc.ramp_end is None):
                raise ConfigError("acdc.ramp_start and acdc.ramp_end must be set together")
            if "ramp" in a and a["ramp"]["end_epoch"] <= a["ramp"]["start_epoch"]:
                raise ConfigError("AC/DC ramp must end after it starts")
            try:
                acdc_phases(self.effective_total, a["warmup"], a["phase_len"],
                            a["last_decompression"], a["last_compression"])
            except ScheduleError as e:
                raise ConfigError(str(e)) from e
        n_in, n_out = arch.input_dim(m), arch.output_dim(m)
        if data.kind == "synthetic-blobs" and (n_in not in (None, data.dim) or n_out != data.classes):
            raise ConfigError(
                f"model maps {n_in or 'token'} inputs to {n_out} classes, but the dataset has "
                f"dim {data.dim} and {data.classes} classes"
            )
        tokens = data.kind == "synthetic-sequences" and n_in is None
        if tokens and (data.vocab > m.vocab or data.seq_len > m.max_len):
            raise ConfigError(f"model vocab {m.vocab} and max_len {m.max_len} do not cover the "
                              f"dataset's vocab {data.vocab} and seq_len {data.seq_len}")

    # -- effective (multiplier-applied) schedule anchors ---------------------

    @property
    def effective_total(self) -> int:
        return _round_epochs(self.total_epochs * self.multiplier)

    def scaled(self, epochs: int | float) -> int:
        return _round_epochs(epochs * self.multiplier)

    def _anchor(self, epochs: int | None, share: float) -> int:
        """An epoch anchor scaled by the multiplier; null is `share` of the effective total."""
        return _round_epochs(share * self.effective_total) if epochs is None else self.scaled(epochs)

    def effective_gmp(self) -> dict:
        return {
            "ramp_start": self.scaled(self.gmp.ramp_start),
            "ramp_end": self._anchor(self.gmp.ramp_end, 0.75),
            "update_every": max(1, self.scaled(self.gmp.update_every)),
        }

    def effective_rigl(self) -> dict:
        return {
            "alpha": self.rigl.alpha,
            "t_end": self._anchor(self.rigl.t_end, 0.75),
            "delta_t": max(1, self.scaled(self.rigl.delta_t)),
        }

    def effective_acdc(self) -> dict:
        out = {
            "warmup": self._anchor(self.acdc.warmup, 0.1),
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
        """Full tree with every default made explicit, plus the effective anchors."""
        return to_tree(self) | {
            "effective": {
                "total_epochs": self.effective_total,
                "gmp": self.effective_gmp(),
                "rigl": self.effective_rigl(),
                "acdc": self.effective_acdc(),
            },
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """A config from a tree; a resolved tree's `effective` block is derived, so dropped."""
        if isinstance(d, dict):
            d = {k: v for k, v in d.items() if k != "effective"}
        return load_tree(ExperimentConfig, d, "config")

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        try:
            with open(path) as f:
                tree = json.load(f)
        except (OSError, ValueError) as e:  # ValueError: bad JSON or bad UTF-8
            raise ConfigError(f"cannot read config {path}: {e}") from e
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
