"""SGD with momentum, coupled weight decay, and mask-aware updates.

`SgdState` moves the store's weights into one flat f32 vector (each
`entry.weights` becomes a view of it) and keeps the momentum in one vector
of the same layout. The small tensors lie first and share every numpy call
of a step, whatever their number: their gradients are copied into one
vector, and one more holds a keep factor per weight, the f32 0/1 mask of a
masked tensor, 1 for an unmasked one and 0 for a frozen (non-trainable)
one, whose gradient is copied in as zeros. Each large tensor is updated on
its own, straight from its gradient and with its mask as keep factors; a
frozen one is left out.

The decayed gradient g + wd*w is multiplied by its keep factor before the
momentum update, so masked-out entries receive no gradient, no decay and no
momentum without any indexing by the mask. They stay bit-exact +0.0 only
because they are +0.0 when each step starts: `ParamStore.set_mask` writes
+0.0 to the weights it masks out, and the first step after a mask change
writes +0.0 to the momentum of every masked-out entry before it updates, so
an entry masked in again starts from +0.0 momentum too. Freezing a tensor
zeroes its momentum, so its weights stay untouched bit for bit. A
non-finite gradient at a masked-out entry turns into NaN there, so the step
raises `NonFiniteError` just as for a live entry. With momentum 0 the
buffer holds the gradient plus +0.0, which stores a -0.0 as +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ScheduleError, ShapeError
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


# From this many weights on, a tensor is updated on its own, straight from its
# gradient: one pass over it to copy the gradient in costs more than the
# numpy calls of a separate update (measured on a 2-core VM: ~0.25 us per
# thousand weights a pass against ~1 us a call).
OWN_UPDATE_MIN = 32768


class SgdState:
    """Schedule, hyper-parameters and momentum of one run over `store`. The
    state fixes the store's tensors: adding or replacing one afterwards is a
    `ShapeError` at the next step. `buffers` maps each name to its momentum,
    a view of the flat vector in the tensor's shape, so a checkpoint stores
    it as before."""

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
        self._store = store
        n = sum(e.weights.size for _, e in store.items())
        self._w, self._m = np.empty(n, np.float32), np.zeros(n, np.float32)
        # the small tensors first, in one run that shares every numpy call
        self._layout = sorted(store.names(), key=lambda n: store[n].weights.size >= OWN_UPDATE_MIN)
        sizes = [store[n].weights.size for n in self._layout]
        self._small = sum(size for size in sizes if size < OWN_UPDATE_MIN)
        ends = np.cumsum([0, *sizes]).tolist()
        spans = dict(zip(self._layout, zip(ends, ends[1:])))
        self.buffers: dict[str, np.ndarray] = {}
        self._spans: dict[str, tuple[int, int]] = {}  # store order
        for name, e in store.items():
            (a, b), shape = spans[name], e.weights.shape
            self._w[a:b] = e.weights.reshape(-1)
            e.weights = self._w[a:b].reshape(shape)
            self.buffers[name] = self._m[a:b].reshape(shape)
            self._spans[name] = (a, b)
        self._g = np.empty(self._small, np.float32)  # the small tensors' gradients
        self._scratch = np.empty(max([self._small, *sizes], default=0), np.float32)
        self._refresh()

    def _refresh(self) -> None:
        """Rebuild the update runs and the small run's keep factors from masks
        and flags, and zero the momentum of frozen tensors and masked-out entries."""
        store = self._store
        if store.names() != list(self._spans) or any(
            e.weights.base is not self._w for _, e in store.items()
        ):
            raise ShapeError("parameters were added or replaced after the SGD state was made")
        self._version = store.version
        self._flags = tuple(e.trainable for _, e in store.items())
        keep, zeros = np.ones(self._small, np.float32), np.zeros(self._small, np.float32)
        small = []  # (name, None): copy its gradient in; (name, zeros): frozen
        self._runs = []  # (start, end, a large tensor's name or the small sources, keep or None)
        for name in self._layout:
            e, (a, b) = store[name], self._spans[name]
            if not e.trainable:
                self._m[a:b] = 0.0
            elif e.mask is not None:
                self._m[a:b][e.mask.reshape(-1) == 0.0] = 0.0
            if b - a >= OWN_UPDATE_MIN:
                if e.trainable:  # a frozen large tensor is left out
                    self._runs.append((a, b, name, None if e.mask is None else e.mask.reshape(-1)))
                continue
            if not e.trainable:
                keep[a:b] = 0.0
            elif e.mask is not None:
                keep[a:b] = e.mask.reshape(-1)
            small.append((name, None if e.trainable else zeros[a:b]))
        if small:
            self._runs.insert(0, (0, self._small, small, None if keep.all() else keep))


def _update(w, m, x, g, keep, lr, beta, wd) -> None:
    """g' = (g + wd*w)*keep, m <- beta*m + g', w <- w - lr*m, with x as scratch."""
    if wd != 0.0:
        g = np.add(np.multiply(w, wd, out=x), g, out=x)
    if keep is not None:
        g = np.multiply(g, keep, out=x)
    if beta != 0.0:
        m *= beta
        m += g
    else:
        np.add(g, 0.0, out=m)  # a negative g times a mask zero is -0.0
    w -= np.multiply(m, lr, out=x)


def sgd_step(store: ParamStore, grads: dict[str, np.ndarray], state: SgdState, step: int) -> None:
    """One update: g' = (g + wd*w)*keep, m <- beta*m + g', w <- w - lr*m, over
    the small tensors at once and over each large one on its own.

    Masked entries keep w == +0.0 and m == +0.0; frozen tensors stay as they are.
    """
    lr = np.float32(lr_at(state.schedule, step))
    beta = np.float32(state.momentum)
    wd = np.float32(state.weight_decay)
    if store is not state._store:
        raise ShapeError("sgd_step needs the store its SGD state was made for")
    flags = tuple(e.trainable for _, e in store.items())
    if store.version != state._version or flags != state._flags:
        state._refresh()
    w, m, x = state._w, state._m, state._scratch
    for a, b, src, keep in state._runs:
        if isinstance(src, str):
            g = grads[src].reshape(-1)
        else:
            g = np.concatenate([grads[n] if z is None else z for n, z in src], axis=None,
                               out=state._g[a:b])
        _update(w[a:b], m[a:b], x[: b - a], g, keep, lr, beta, wd)
    if not np.isfinite(w).all():
        bad = next(n for n, (a, b) in state._spans.items() if not np.isfinite(w[a:b]).all())
        raise NonFiniteError(f"non-finite update for {bad}")

