"""Cross-entropy on a single logit vector, with optional label smoothing.

The training path differentiates `autodiff.cross_entropy_mean`; this module
is the scalar f64 form the tests use as an oracle for it.
"""

from __future__ import annotations

import numpy as np

from sparselab.errors import NonFiniteError, ShapeError


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("non-finite logits")
    zs = z - z.max()
    return zs - np.log(np.exp(zs).sum())


def cross_entropy(logits: np.ndarray, label: int, eps: float = 0.0) -> float:
    """CE(Z) against the one-hot label, or the eps-smoothed target for eps>0.

    Smoothing puts 1-eps on the label plus eps/C spread uniformly.
    """
    logits = np.asarray(logits, dtype=np.float64)
    C = logits.shape[-1]
    if not 0 <= label < C:
        raise ShapeError(f"label {label} out of range for {C} classes")
    logp = log_softmax(logits)
    if eps == 0.0:
        return float(-logp[label])
    target = np.full(C, eps / C)
    target[label] += 1.0 - eps
    return float(-(target * logp).sum())
