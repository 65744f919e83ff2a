"""SGD with momentum, coupled weight decay, and mask-aware updates.

A masked parameter's decayed gradient g + wd*w is multiplied by its f32 0/1
mask before the momentum update, so masked-out entries receive no gradient,
no decay and no momentum without any indexing by the mask. They stay
bit-exact +0.0 only because they are +0.0 when each step starts:
`ParamStore.set_mask` writes +0.0 to the weights it masks out, and
`reset_momentum` zeroes the momentum of every entry whose mask membership
changed. A non-finite gradient at a masked-out entry turns into NaN there,
so the step raises `NonFiniteError` just as for a live entry. With momentum 0
the buffer holds the gradient plus +0.0, which stores a -0.0 as +0.0.
Frozen (non-trainable) parameters are untouched entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ScheduleError
from .models import ParamStore

LINEAR_WARMUP_DECAY = "linear-warmup-linear-decay"
COSINE = "cosine"
CONSTANT = "constant"
SCHEDULES = (LINEAR_WARMUP_DECAY, COSINE, CONSTANT)


@dataclass(frozen=True)
class LrSchedule:
    kind: str = LINEAR_WARMUP_DECAY
    peak: float = 0.5
    warmup_end: int = 0
    total_steps: int = 1


def lr_at(schedule: LrSchedule, step: int) -> float:
    """Learning rate at an integer step; piecewise linear for the default kind."""
    if step < 0 or step > schedule.total_steps:
        raise ScheduleError(f"step {step} outside [0, {schedule.total_steps}]")
    if schedule.kind == CONSTANT:
        return schedule.peak
    w, total = schedule.warmup_end, schedule.total_steps
    if schedule.kind == LINEAR_WARMUP_DECAY:
        if step <= w:
            return schedule.peak if w == 0 else schedule.peak * step / w
        return schedule.peak * (total - step) / (total - w)
    if schedule.kind == COSINE:
        if step <= w:
            return schedule.peak if w == 0 else schedule.peak * step / w
        frac = (step - w) / (total - w)
        return schedule.peak * 0.5 * (1.0 + math.cos(math.pi * frac))
    raise ScheduleError(f"unknown lr schedule kind {schedule.kind!r}")


class SgdState:
    def __init__(
        self,
        store: ParamStore,
        schedule: LrSchedule,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        if not 0.0 <= momentum < 1.0:
            raise ScheduleError("momentum must be in [0, 1)")
        if weight_decay < 0.0:
            raise ScheduleError("weight decay must be >= 0")
        self.schedule = schedule
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.buffers: dict[str, np.ndarray] = {
            name: np.zeros_like(e.weights) for name, e in store.items()
        }


def sgd_step(store: ParamStore, grads: dict[str, np.ndarray], state: SgdState, step: int) -> None:
    """One update: g' = (g + wd*w)*mask, m <- beta*m + g', w <- w - lr*m.

    Masked entries keep w == +0.0 and m == +0.0; frozen entries are skipped.
    """
    lr = np.float32(lr_at(state.schedule, step))
    beta = np.float32(state.momentum)
    wd = np.float32(state.weight_decay)
    for name, entry in store.items():
        if not entry.trainable:
            continue
        w = entry.weights
        m = state.buffers[name]
        # g' in place on one fresh array: fewer arrays in cache than g*mask + wd*w
        if wd != 0.0:
            g = np.multiply(w, wd)
            g += grads[name]
        else:
            g = grads[name].copy()
        if entry.mask is not None:
            g *= entry.mask
        if beta != 0.0:
            m *= beta
            m += g
        else:
            np.add(g, 0.0, out=m)  # a negative g times a mask zero is -0.0
        w -= np.multiply(m, lr, out=g)
        if not np.all(np.isfinite(w)):
            raise NonFiniteError(f"non-finite update for {name}")


def reset_momentum(state: SgdState, changed: dict[str, np.ndarray]) -> None:
    """Zero momentum for entries whose mask membership just changed."""
    for name, flags in changed.items():
        if name in state.buffers and flags.any():
            state.buffers[name][flags.astype(bool)] = 0.0
