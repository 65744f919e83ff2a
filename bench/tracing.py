"""Spans around calls into sparselab's modules, recorded from outside.

The program is not edited: for a round, `Patches` swaps chosen functions and
methods for wrappers that open and close a span, and puts the originals back
afterwards. A function imported by name into other modules
(`from .data import build_dataset`) is replaced in every sparselab module
that holds it. Spans stay in memory as parallel lists; a span's self time is
its duration minus its children's.

Untraced rounds wrap only the set-up calls (dataset build, model build,
checkpoint rebuild), which `setup_s` and `train_samples_per_s` need. Traced
rounds wrap every layer below.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

SETUP_SPANS = ("data.build_dataset", "models.build_model", "checkpoint.rebuild_model")


class Recorder:
    """Spans as parallel lists: name, start, end, parent index, count."""

    def __init__(self, keep_datasets: bool = False):
        self.keep_datasets = keep_datasets
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.count: list[int] = []
        self.stack: list[int] = []
        self.in_rng = False
        self.op = None  # command of the CLI call in progress
        self.kept_datasets: list[tuple[str, object, object]] = []

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.count.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()


def _span(rec: Recorder, fn, name: str, count=None):
    def wrapper(*args, **kwargs):
        i = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if count is not None:
            rec.count[i] = count(args, kwargs, out)
        return out

    return wrapper


def _rng_span(rec: Recorder, fn, name: str, draws):
    """Only the outermost Rng call is a span: `permutation` calls `shuffle`,
    which calls `below` once per element."""

    def wrapper(*args, **kwargs):
        if rec.in_rng:
            return fn(*args, **kwargs)
        rec.in_rng = True
        i = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
            rec.in_rng = False
        rec.count[i] = draws(args, out)
        return out

    return wrapper


def _conv_span(rec: Recorder, fn, name: str):
    """conv2d's forward, and its backward closure when the tape runs it."""

    def wrapper(*args, **kwargs):
        i = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        back = out._backprop

        def timed_back(g):
            j = rec.open(name)
            try:
                return back(g)
            finally:
                rec.close(j)

        out._backprop = timed_back
        return out

    return wrapper


def _dataset_span(rec: Recorder, fn, name: str):
    """build_dataset, keeping what the output checks need: every token
    dataset (labels are recomputed from tokens) and sharpness's dataset."""

    def wrapper(spec, *args, **kwargs):
        i = rec.open(name)
        try:
            out = fn(spec, *args, **kwargs)
        finally:
            rec.close(i)
        if rec.keep_datasets and (spec.kind == "synthetic-sequences" or rec.op == "sharpness"):
            rec.kept_datasets.append((rec.op, spec, out))
        return out

    return wrapper


def _scored(args, kwargs, out):
    weights, dist = args[0], args[-1]
    return sum(w.size for n, w in weights.items() if n not in dist.keep_dense)


def _file_size(args, kwargs, out):
    return os.path.getsize(args[0])


def _targets(traced: bool):
    """(owner, attribute, span name, wrapper factory) for one round."""
    from sparselab import autodiff, checkpoint, data, diagnostics, landscape, models, optim
    from sparselab import rng, runner, sparsify, transfer

    plain = lambda count=None: (lambda rec, fn, name: _span(rec, fn, name, count))  # noqa: E731
    out = [
        (data, "build_dataset", "data.build_dataset", _dataset_span),
        (models, "build_model", "models.build_model", plain()),
        (checkpoint, "rebuild_model", "checkpoint.rebuild_model", plain()),
    ]
    if not traced:
        return out

    def rng_draws(f):
        return lambda rec, fn, name: _rng_span(rec, fn, name, f)

    R = rng.Rng
    out += [
        (R, "uniforms", "rng.uniforms", rng_draws(lambda a, o: len(o))),
        (R, "normals", "rng.normals", rng_draws(lambda a, o: 2 * ((a[1] + 1) // 2))),
        (R, "uniform", "rng.uniform", rng_draws(lambda a, o: 1)),
        (R, "below", "rng.below", rng_draws(lambda a, o: 1)),
        (R, "shuffle", "rng.shuffle", rng_draws(lambda a, o: max(len(a[1]) - 1, 0))),
        (R, "permutation", "rng.permutation", rng_draws(lambda a, o: max(a[1] - 1, 0))),
        (models.Model, "loss_and_grad", "models.loss_and_grad", plain()),
        (models.Model, "forward", "models.forward", plain()),
        (autodiff, "backward", "autodiff.backward", plain()),
        (autodiff, "conv2d", "autodiff.conv2d", _conv_span),
        (optim, "sgd_step", "optim.sgd_step", plain()),
        (sparsify, "magnitude_mask", "sparsify.magnitude_mask", plain(_scored)),
        (sparsify, "shrink_mask", "sparsify.shrink_mask", plain(_scored)),
        (sparsify, "rigl_step", "sparsify.rigl_step", plain(lambda a, k, o: a[0].size)),
        (runner, "evaluate_row", "runner.evaluate_row", plain()),
        (runner, "run_experiment", "runner.run_experiment", plain()),
        (checkpoint, "save_checkpoint", "checkpoint.save", plain(_file_size)),
        (checkpoint, "load_checkpoint", "checkpoint.load", plain(_file_size)),
        (diagnostics, "mask_iou", "diagnostics.mask_iou", plain()),
        (landscape, "hvp", "landscape.hvp", plain()),
        (transfer, "transfer_run", "transfer.transfer_run", plain()),
    ]
    return out


class Patches:
    """Installs the wrappers for one round and restores the originals."""

    def __init__(self, rec: Recorder, traced: bool):
        self.rec = rec
        self.traced = traced
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("sparselab.") and m]
        for owner, attr, name, factory in _targets(self.traced):
            orig = getattr(owner, attr)
            wrapped = factory(self.rec, orig, name)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                if vars(holder).get(attr) is orig:
                    self.saved.append((holder, attr, orig))
                    setattr(holder, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for holder, attr, orig in reversed(self.saved):
            setattr(holder, attr, orig)
        self.saved.clear()
        return False


# -- from spans to metrics -----------------------------------------------------


def _ancestry(rec: Recorder):
    """Per span: root (CLI) span, whether a set-up span encloses it, and
    whether a transfer_run span encloses it. Parents precede children."""
    n = len(rec.name)
    root = [0] * n
    under_setup = [False] * n
    under_transfer = [False] * n
    for i in range(n):
        p = rec.parent[i]
        if p < 0:
            root[i] = i
            continue
        root[i] = root[p]
        under_setup[i] = under_setup[p] or rec.name[p] in SETUP_SPANS
        under_transfer[i] = under_transfer[p] or rec.name[p] == "transfer.transfer_run"
    return root, under_setup, under_transfer


def setup_by_op(rec: Recorder) -> dict[int, float]:
    """Outermost set-up time inside each root (CLI) span, by root index."""
    root, under_setup, _ = _ancestry(rec)
    out: dict[int, float] = {}
    for i, name in enumerate(rec.name):
        if name in SETUP_SPANS and not under_setup[i]:
            out[root[i]] = out.get(root[i], 0.0) + rec.end[i] - rec.start[i]
    return out


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced round (see README.md for each)."""
    n = len(rec.name)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    self_t = list(dur)
    for i in range(n):
        if rec.parent[i] >= 0:
            self_t[rec.parent[i]] -= dur[i]
    _, _, under_transfer = _ancestry(rec)

    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for i, name in enumerate(rec.name):
        self_s[name] = self_s.get(name, 0.0) + self_t[i]
        incl_s[name] = incl_s.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + rec.count[i]

    def prefix_sum(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def per_call_ms(total, k):
        return 1000.0 * total / k if k else 0.0

    rng_s = prefix_sum(self_s, "rng.")
    draws = prefix_sum(counts, "rng.")
    lg_calls = calls.get("models.loss_and_grad", 0)
    sgd_calls = calls.get("optim.sgd_step", 0)
    return {
        "rng.s": rng_s,
        "rng.draws": draws,
        "rng.draws_per_s": draws / rng_s if rng_s > 0 else 0.0,
        "data.build_s": self_s.get("data.build_dataset", 0.0),
        "data.builds": calls.get("data.build_dataset", 0),
        "models.build_s": self_s.get("models.build_model", 0.0),
        "models.builds": calls.get("models.build_model", 0),
        "models.loss_and_grad_s": self_s.get("models.loss_and_grad", 0.0),
        "models.loss_and_grad_calls": lg_calls,
        "models.step_ms": per_call_ms(incl_s.get("models.loss_and_grad", 0.0), lg_calls),
        "models.forward_s": self_s.get("models.forward", 0.0),
        "models.forward_calls": calls.get("models.forward", 0),
        "autodiff.backward_s": self_s.get("autodiff.backward", 0.0),
        "autodiff.conv2d_s": self_s.get("autodiff.conv2d", 0.0),
        "optim.sgd_step_s": self_s.get("optim.sgd_step", 0.0),
        "optim.sgd_step_calls": sgd_calls,
        "optim.sgd_step_ms": per_call_ms(self_s.get("optim.sgd_step", 0.0), sgd_calls),
        "sparsify.mask_update_s": prefix_sum(self_s, "sparsify."),
        "sparsify.mask_updates": prefix_sum(calls, "sparsify."),
        "sparsify.weights_scored": prefix_sum(counts, "sparsify."),
        "runner.evaluate_s": self_s.get("runner.evaluate_row", 0.0),
        "runner.loop_self_s": self_s.get("runner.run_experiment", 0.0),
        "checkpoint.save_s": self_s.get("checkpoint.save", 0.0),
        "checkpoint.bytes_written": counts.get("checkpoint.save", 0),
        "checkpoint.load_s": self_s.get("checkpoint.load", 0.0),
        "checkpoint.bytes_read": counts.get("checkpoint.load", 0),
        "checkpoint.rebuild_model_s": self_s.get("checkpoint.rebuild_model", 0.0),
        "diagnostics.mask_iou_s": self_s.get("diagnostics.mask_iou", 0.0),
        "landscape.hvp_s": self_s.get("landscape.hvp", 0.0),
        "landscape.hvp_calls": calls.get("landscape.hvp", 0),
        "transfer.train_s": self_s.get("transfer.transfer_run", 0.0),
        "transfer.steps": sum(
            1 for i, name in enumerate(rec.name) if name == "optim.sgd_step" and under_transfer[i]
        ),
        "cli.train_s": incl_s.get("cli.train", 0.0),
        "cli.analyze_masks_s": incl_s.get("cli.analyze-masks", 0.0),
        "cli.sharpness_s": incl_s.get("cli.sharpness", 0.0),
        "cli.interpolate_s": incl_s.get("cli.interpolate", 0.0),
        "cli.transfer_s": incl_s.get("cli.transfer", 0.0),
    }
