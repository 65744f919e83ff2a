import numpy as np
import pytest

from sparselab import autodiff as ad
from sparselab.autodiff import Var
from sparselab.models import ParamStore


def mul(a, b):
    """Elementwise product on the autodiff tape, with broadcasting; the
    package's models need none, so it lives with the tests."""

    def back(g):
        return (
            ad._unbroadcast(g * b.value, a.value.shape),
            ad._unbroadcast(g * a.value, b.value.shape),
        )

    return Var(a.value * b.value, (a, b), back)


def num_params(store) -> int:
    return sum(e.weights.size for _, e in store.items())


def clone_store(store) -> ParamStore:
    """A store holding copies of every weight, mask and trainable flag."""
    out = ParamStore()
    for name, e in store.items():
        out.add(name, e.weights.copy(), e.trainable)
        out.set_mask(name, None if e.mask is None else e.mask.copy())
    return out


def model_loss(model, x, labels, *, eps=0.0, params=None) -> float:
    """Mean cross-entropy (smoothed by eps) of the model's logits; the
    package records raw CE through `runner.dataset_loss`, so this lives
    with the tests."""
    logits = model.forward(x, params=params)
    return float(ad.cross_entropy_mean(Var(logits), labels, eps).value)


def fd_gradients(model, x, y, h=1e-3, eps=0.0):
    """Independent central-difference gradient oracle at f64."""
    params = {n: e.weights.astype(np.float64) for n, e in model.store.items()}
    out = {}
    for name, w in params.items():
        flat = w.reshape(-1)
        g = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = model_loss(model, x, y, eps=eps, params=params)
            flat[i] = orig - h
            lm = model_loss(model, x, y, eps=eps, params=params)
            flat[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        out[name] = g.reshape(w.shape)
    return out


def max_rel_error(analytic, fd):
    worst = 0.0
    for name in fd:
        a = analytic[name].reshape(-1)
        f = fd[name].reshape(-1)
        worst = max(worst, float(np.max(np.abs(a - f) / (np.abs(f) + 1e-8))))
    return worst


@pytest.fixture
def tmp_out(tmp_path):
    return str(tmp_path)


def record_stage_starts(monkeypatch):
    """Weights and trainable names at the start of each stage's training
    loop, recorded by wrapping `train_epochs` as the transfer module calls it."""
    from sparselab import runner, transfer

    starts = []

    def recording(model, *args, **kwargs):
        weights = {n: e.weights.copy() for n, e in model.store.items()}
        starts.append((weights, {n for n, e in model.store.items() if e.trainable}))
        return runner.train_epochs(model, *args, **kwargs)

    monkeypatch.setattr(transfer, "train_epochs", recording)
    return starts


def changed_per_stage(starts, model):
    """(trainable names, names whose weights moved) for each recorded stage."""
    ends = [w for w, _ in starts[1:]] + [{n: e.weights for n, e in model.store.items()}]
    return [
        (names, {n for n in before if not np.array_equal(before[n], after[n])})
        for (before, names), after in zip(starts, ends)
    ]
