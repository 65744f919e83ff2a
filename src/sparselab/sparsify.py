"""Masks, magnitude criteria, sparsity budgets, and the three schedulers.

Sparsity s is always the fraction of zeroed entries among the weights a
distribution actually scores; layers on the keep-dense list get all-ones
masks and stay out of every scoring pool.

Ties anywhere are broken stably by lower flat index (kept first when
keeping, dropped first when dropping), so masks are bit-reproducible.
Selection is by partition, not by sort: one `np.partition` of the active
scores finds the threshold, every active entry above it is kept, and the
remaining count goes to the lowest active flat indices equal to it. Scores
must not be NaN.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import LayerCollapseError, ScheduleError

log = logging.getLogger(__name__)

UNIFORM = "uniform"
GLOBAL = "global"
ERK = "erk"
BLOCK4_GLOBAL = "block4-global"
DISTRIBUTIONS = (UNIFORM, GLOBAL, ERK, BLOCK4_GLOBAL)

BLOCK = 4

DENSE_WARMUP = "dense-warmup"
COMPRESSED = "compressed"
DECOMPRESSED = "decompressed"


@dataclass(frozen=True)
class SparsityDistribution:
    kind: str = GLOBAL
    target: float = 0.9
    keep_dense: tuple[str, ...] = ()

    def with_target(self, target: float) -> "SparsityDistribution":
        return replace(self, target=target)


def _floor_count(x: float) -> int:
    """floor over the intended real value: absorbs f64 representation noise
    in the sparsity target (e.g. (1-0.8)*100 evaluating to 19.999...96)."""
    return int(math.floor(x + 1e-9 + abs(x) * 1e-12))


def _keep_top(scores: np.ndarray, active: np.ndarray, kept: int) -> np.ndarray:
    """Boolean keep flags for the `kept` largest scores among the active
    entries (all of them when fewer), low index wins ties."""
    pool = scores[active]
    kept = min(kept, pool.size)
    if kept == 0:
        return np.zeros(scores.size, dtype=bool)
    kth = np.partition(pool, pool.size - kept)[pool.size - kept]
    keep = active & (scores > kth)
    keep[np.flatnonzero(active & (scores == kth))[: kept - int(np.count_nonzero(keep))]] = True
    return keep


def _blocks(flat: np.ndarray) -> np.ndarray:
    """Contiguous groups of 4 in row-major order, one per row; the last group
    is padded with zeros (False for flags)."""
    padded = np.zeros((flat.size + BLOCK - 1) // BLOCK * BLOCK, dtype=flat.dtype)
    padded[: flat.size] = flat
    return padded.reshape(-1, BLOCK)


def erk_densities(layer_shapes: dict[str, tuple], s_global: float) -> dict[str, float]:
    """Per-layer densities proportional to (sum of dims)/(product of dims).

    A single scale factor matches the global budget; densities that would
    exceed 1 are clipped and the scale re-solved on the rest.
    """
    if not 0.0 <= s_global < 1.0:
        raise ScheduleError(f"global sparsity {s_global} outside [0, 1)")
    names = list(layer_shapes)
    raw = {n: sum(layer_shapes[n]) / float(np.prod(layer_shapes[n])) for n in names}
    numel = {n: int(np.prod(layer_shapes[n])) for n in names}
    budget = (1.0 - s_global) * sum(numel.values())
    clipped: set[str] = set()
    while True:
        remaining = budget - sum(numel[n] for n in clipped)
        free = [n for n in names if n not in clipped]
        if not free:
            if remaining > 1e-9:
                raise LayerCollapseError("ERK budget infeasible: all layers clipped")
            break
        denom = sum(raw[n] * numel[n] for n in free)
        scale = remaining / denom
        over = [n for n in free if scale * raw[n] >= 1.0]
        if not over:
            break
        clipped.update(over)
    densities = {n: (1.0 if n in clipped else scale * raw[n]) for n in names}
    for n, d in densities.items():
        if not 0.0 < d <= 1.0:
            raise LayerCollapseError(f"ERK density {d} for layer {n} outside (0, 1]")
    return densities


def scoring_pools(
    shapes: dict[str, tuple[int, ...]], dist: SparsityDistribution
) -> list[tuple[list[str], int]]:
    """Scoring pools of the layers of these shapes as (layer names, kept
    count): one pool per layer, or one global pool (counted in groups of 4
    for block4-global). A per-layer pool that would keep nothing is a
    LayerCollapseError."""
    s = dist.target
    sizes = {n: math.prod(shape) for n, shape in shapes.items()}
    if dist.kind == GLOBAL:
        return [(list(shapes), _floor_count((1.0 - s) * sum(sizes.values())))]
    if dist.kind == BLOCK4_GLOBAL:
        total_groups = sum((size + BLOCK - 1) // BLOCK for size in sizes.values())
        return [(list(shapes), _floor_count((1.0 - s) * total_groups))]
    if dist.kind == UNIFORM:
        counts = {n: _floor_count((1.0 - s) * size) for n, size in sizes.items()}
    elif dist.kind == ERK:
        dens = erk_densities(shapes, s)
        counts = {n: _floor_count(dens[n] * size) for n, size in sizes.items()}
    else:
        raise ScheduleError(f"unknown sparsity distribution {dist.kind!r}")
    for n, kept in counts.items():
        if kept == 0 and s < 1.0:
            raise LayerCollapseError(f"target {s} would zero out layer {n}")
    return [([n], kept) for n, kept in counts.items()]


def _select(
    weights: dict[str, np.ndarray],
    dist: SparsityDistribution,
    masks: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """f32 0/1 masks for the layers `dist` scores, keeping per scoring pool its
    kept count of the largest |w| among the entries active in `masks` (every
    entry when None); an inactive entry is never kept. block4-global scores
    groups of 4 by L1 norm and keeps or drops them whole; a group is active
    when any of its entries is."""
    pooled = {n: w for n, w in weights.items() if n not in dist.keep_dense}
    if not pooled:
        return {}
    pools = scoring_pools({n: w.shape for n, w in pooled.items()}, dist)
    # |w| in the weights' own dtype: exact, so order and ties are those of its f64 value
    scores = {n: np.abs(w.reshape(-1)) for n, w in pooled.items()}
    active = {
        n: np.ones(w.size, dtype=bool) if masks is None else masks[n].reshape(-1) != 0.0
        for n, w in pooled.items()
    }
    unit = BLOCK if dist.kind == BLOCK4_GLOBAL else 1
    if unit == BLOCK:
        scores = {n: _blocks(sc.astype(np.float64)).sum(axis=1) for n, sc in scores.items()}
        active = {n: _blocks(a).any(axis=1) for n, a in active.items()}
    out = {}
    for names, kept in pools:
        keep = _keep_top(np.concatenate([scores[n] for n in names]),
                         np.concatenate([active[n] for n in names]), kept)
        ofs = 0
        for n in names:
            flags = np.repeat(keep[ofs : ofs + scores[n].size], unit)[: pooled[n].size]
            out[n] = flags.reshape(pooled[n].shape).astype(np.float32)
            ofs += scores[n].size
    return out


def magnitude_mask(
    weights: dict[str, np.ndarray], dist: SparsityDistribution
) -> dict[str, np.ndarray]:
    """f32 0/1 masks keeping the top (1-s) fraction by |w| per scoring pool."""
    if not 0.0 <= dist.target < 1.0:
        raise ScheduleError(f"sparsity target {dist.target} outside [0, 1)")
    masks = {
        n: np.ones(w.shape, dtype=np.float32) for n, w in weights.items() if n in dist.keep_dense
    }
    masks.update(_select(weights, dist))
    return masks


def shrink_mask(
    weights: dict[str, np.ndarray],
    masks: dict[str, np.ndarray],
    dist: SparsityDistribution,
) -> dict[str, np.ndarray]:
    """Tighten existing masks to `dist.target`, dropping only inside the
    current support so that supports stay nested over time (GMP rule:
    pruned weights never return)."""
    out = {n: m.copy() for n, m in masks.items()}
    out.update(_select(weights, dist, masks))
    return out


# -- GMP ---------------------------------------------------------------------


def gmp_sparsity_at(
    t_epoch: int, s_final: float, ramp_start: int, ramp_end: int, update_every: int
) -> float:
    """Cubic ramp from 0 to s_final, stepping only every `update_every` epochs;
    s_final exactly from the ramp end onward (the mask freezes there)."""
    if t_epoch >= ramp_end:
        return s_final
    tq = (t_epoch // update_every) * update_every
    p = (tq - ramp_start) / (ramp_end - ramp_start)
    p = min(max(p, 0.0), 1.0)
    return s_final * (1.0 - (1.0 - p) ** 3)


# -- RigL --------------------------------------------------------------------


def rigl_fraction(t: float, alpha: float, t_end: float, s_l: float) -> float:
    """Cosine-annealed update fraction (alpha/2)(1 + cos(pi t/T_end))(1 - s_l)."""
    if t < 0 or t > t_end:
        raise ScheduleError(f"t {t} outside [0, {t_end}]")
    return (alpha / 2.0) * (1.0 + math.cos(math.pi * t / t_end)) * (1.0 - s_l)


def rigl_step(
    weights: np.ndarray,
    grads: np.ndarray,
    mask: np.ndarray,
    fraction: float,
) -> np.ndarray:
    """The new f32 0/1 mask: drop the k lowest-|w| active entries, grow the k
    highest-|grad| inactive ones; k = round(fraction * active count)."""
    if not 0.0 <= fraction <= 1.0:
        raise ScheduleError(f"update fraction {fraction} outside [0, 1]")
    flat_w = np.abs(weights.reshape(-1))  # exact in any float dtype, like _select's scores
    flat_g = np.abs(grads.reshape(-1))
    active = mask.reshape(-1) != 0.0
    n_active = int(active.sum())
    n_inactive = active.size - n_active
    k = int(math.floor(fraction * n_active + 0.5))
    if k > n_inactive:
        log.warning("rigl_step: k=%d capped at inactive count %d", k, n_inactive)
        k = n_inactive
    new = (active & ~_keep_top(-flat_w, active, k)) | _keep_top(flat_g, ~active, k)
    return new.reshape(mask.shape).astype(np.float32)


# -- AC/DC -------------------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    kind: str
    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


def acdc_phases(
    total_epochs: int, warmup: int, phase_len: int, last_decompression: int, last_compression: int
) -> list[Phase]:
    """Phase list built back to front: the run ends with `last_compression`
    compressed epochs preceded by `last_decompression` decompressed ones; the
    middle is tiled with alternating phases starting compressed, the first of
    which absorbs any remainder.

    The middle does not always end compressed. When it holds an even number
    of phases its last one is decompressed and runs straight into the final
    decompressed phase: at 60 epochs with warmup 4, phase_len 4,
    last_decompression 12 and last_compression 4, epochs 40-56 are all
    decompressed."""
    minimum = warmup + last_decompression + last_compression + 2 * phase_len
    if total_epochs < minimum:
        raise ScheduleError(f"AC/DC needs at least {minimum} epochs, got {total_epochs}")
    phases: list[Phase] = []
    if warmup > 0:
        phases.append(Phase(DENSE_WARMUP, 0, warmup))
    mid_start = warmup
    mid_end = total_epochs - last_decompression - last_compression
    span = mid_end - mid_start
    n_phases = span // phase_len
    rem = span % phase_len
    start = mid_start
    for i in range(n_phases):
        length = phase_len + (rem if i == 0 else 0)
        kind = COMPRESSED if i % 2 == 0 else DECOMPRESSED
        phases.append(Phase(kind, start, length))
        start += length
    phases.append(Phase(DECOMPRESSED, mid_end, last_decompression))
    phases.append(Phase(COMPRESSED, mid_end + last_decompression, last_compression))
    return phases


def progressive_target(
    t_epoch: int, s_final: float, start_epoch: int, end_epoch: int, start_sparsity: float
) -> float:
    """Compressed-phase target interpolated linearly from the ramp start."""
    if end_epoch <= start_epoch:
        return s_final
    frac = (t_epoch - start_epoch) / (end_epoch - start_epoch)
    frac = min(max(frac, 0.0), 1.0)
    return start_sparsity + (s_final - start_sparsity) * frac


def acdc_apply(
    phase_kind: str,
    weights: dict[str, np.ndarray],
    dist: SparsityDistribution,
    decompression_sparsity: float = 0.0,
) -> dict[str, np.ndarray] | None:
    """Masks for a new phase: fresh magnitude masks at the phase's sparsity.

    Compression recomputes masks at the full target; decompression returns
    None (fully dense) unless a minimal decompression sparsity is set.
    """
    if phase_kind == COMPRESSED:
        return magnitude_mask(weights, dist)
    if phase_kind in (DECOMPRESSED, DENSE_WARMUP):
        if decompression_sparsity == 0.0:
            return None
        return magnitude_mask(weights, dist.with_target(decompression_sparsity))
    raise ScheduleError(f"unknown AC/DC phase kind {phase_kind!r}")
