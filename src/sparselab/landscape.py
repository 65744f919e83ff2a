"""Loss-landscape probes: top Hessian eigenvalue on the mask support via
power iteration, and piecewise-linear loss interpolation between checkpoints.

Hessian-vector products are central finite differences of first-order
gradients, evaluated at f64; the autodiff core stays first order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeError, SparselabError
from .rng import Rng

log = logging.getLogger(__name__)

ParamDict = dict[str, np.ndarray]


def _as_f64(params: ParamDict) -> ParamDict:
    return {n: np.asarray(w, dtype=np.float64) for n, w in params.items()}


def _project(v: ParamDict, support: ParamDict | None) -> ParamDict:
    """v restricted to the support, in place: entries off it become 0."""
    for n, a in v.items():
        sup = None if support is None else support.get(n)
        if sup is not None:
            np.multiply(a, sup != 0.0, out=a)
    return v


def _dot(a: ParamDict, b: ParamDict) -> float:
    return float(sum((a[n] * b[n]).sum() for n in a))


def hvp(grad_fn, params: ParamDict, v: ParamDict, support: ParamDict | None = None) -> ParamDict:
    """Central-difference Hessian-vector product restricted to the support.

    grad_fn maps a parameter dict to a gradient dict at the same keys. Both
    perturbed points are written into one buffer, so grad_fn must neither
    keep nor return the arrays it is given.
    """
    params, v = _as_f64(params), _as_f64(v)
    buf = {n: np.empty_like(w) for n, w in params.items()}

    def v_on_support() -> ParamDict:
        for n, b in buf.items():
            np.copyto(b, v[n])
        return _project(buf, support)

    max_w = max((np.abs(w).max() if w.size else 0.0) for w in params.values())
    max_v = max((np.abs(a).max() if a.size else 0.0) for a in v_on_support().values())
    eps = 1e-3 * (1.0 + max_w) / max(1.0, max_v)
    grads = []
    for op in (np.add, np.subtract):  # params + eps * v, then params - eps * v
        for n, b in v_on_support().items():
            b *= eps
            op(params[n], b, out=b)
        grads.append(grad_fn(buf))
    if any(np.may_share_memory(g, b) for g in grads[0].values() for b in buf.values()):
        raise SparselabError("hvp: grad_fn returned an array it was given")
    del buf
    out = {}
    for n in params:
        h = np.subtract(grads[0][n], grads[1][n], dtype=np.float64)
        h /= 2.0 * eps
        if not np.all(np.isfinite(h)):
            raise NonFiniteError(f"non-finite HVP for {n}")
        out[n] = h
    return _project(out, support)


def sharpness(
    grad_fn,
    params: ParamDict,
    rng: Rng,
    support: ParamDict | None = None,
    power_iters: int = 20,
) -> float:
    """Largest Hessian eigenvalue estimate: power iteration from a unit
    random vector on the support, returning the final Rayleigh quotient."""
    params = _as_f64(params)
    v = _project({n: rng.normals(w.size).reshape(w.shape) for n, w in params.items()}, support)
    norm = math.sqrt(_dot(v, v))
    if norm == 0.0:
        log.warning("sharpness: empty support, returning 0")
        return 0.0
    rayleigh = 0.0
    for _ in range(power_iters):
        for a in v.values():
            a /= norm
        hv = hvp(grad_fn, params, v, support)
        rayleigh = _dot(v, hv)
        norm = math.sqrt(_dot(hv, hv))
        if norm == 0.0 or not math.isfinite(norm):
            log.warning("sharpness: Hv vanished, returning 0")
            return 0.0
        v = hv
    return rayleigh


@dataclass(frozen=True)
class PathSpec:
    segments_per_interval: int = 10
    splits: tuple[str, ...] = ("train", "val")


def interpolate_path(
    checkpoints: list[ParamDict],
    loss_fns: dict[str, callable],
    spec: PathSpec = PathSpec(),
) -> list[tuple[float, str, float]]:
    """Losses along the piecewise-linear path through the checkpoints.

    Each interval is split into `segments_per_interval` pieces; shared
    endpoints are evaluated once. Endpoints use the stored parameters as-is,
    so their losses match standalone evaluation bit for bit. Blended points
    carry no mask: the raw parameter blend is evaluated directly.
    Returns (alpha, split, loss) rows, alpha being the fraction of the whole
    path traversed.
    """
    if len(checkpoints) < 2:
        raise ShapeError("need at least two checkpoints to interpolate")
    names = list(checkpoints[0])
    for ck in checkpoints[1:]:
        if list(ck) != names or any(ck[n].shape != checkpoints[0][n].shape for n in names):
            raise ShapeError("checkpoints disagree on parameter names or shapes")
    segs = spec.segments_per_interval
    n_int = len(checkpoints) - 1
    rows: list[tuple[float, str, float]] = []
    for i in range(n_int):
        a, b = checkpoints[i], checkpoints[i + 1]
        start_j = 0 if i == 0 else 1
        for j in range(start_j, segs + 1):
            lam = j / segs
            if j == 0:
                blend = a
            elif j == segs:
                blend = b
            else:
                blend = {}
                for n in names:  # (1 - lam) a + lam b at f64, with two f64 temporaries
                    x = np.multiply(a[n], 1.0 - lam, dtype=np.float64)
                    x += np.multiply(b[n], lam, dtype=np.float64)
                    blend[n] = x.astype(a[n].dtype)
            alpha = (i + lam) / n_int
            for split in spec.splits:
                rows.append((alpha, split, float(loss_fns[split](blend))))
    return rows
