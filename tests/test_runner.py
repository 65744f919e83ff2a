import json
import os

import numpy as np
import pytest

from sparselab.checkpoint import load_checkpoint, rebuild_model
from sparselab.config import ExperimentConfig
from sparselab.data import build_dataset
from sparselab.errors import ConfigError
from sparselab.models import build_model, mlp_spec
from sparselab.rng import STREAM_DATA, Rng
from sparselab.runner import (
    EVAL_CHUNK,
    dataset_loss,
    expand_grid,
    predict_logits,
    run_experiment,
    run_sweep,
)
from sparselab.sparsify import COMPRESSED, AcdcSchedule, acdc_phases

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_cfg(name, **overrides):
    with open(os.path.join(FIXTURES, name)) as f:
        tree = json.load(f)
    tree.update(overrides)
    return ExperimentConfig.from_dict(tree)


def test_dense_smoke(tmp_path):
    cfg = fixture_cfg("dense_smoke.json")
    res = run_experiment(cfg, str(tmp_path / "run"))
    val_rows = [r for r in res.metrics if r.split == "val"]
    assert len(val_rows) == 2
    assert val_rows[-1].sparsity == 0.0
    assert val_rows[-1].flops_proportion == 1.0
    assert os.path.exists(os.path.join(res.out_dir, "metrics.csv"))
    assert os.path.exists(os.path.join(res.out_dir, "config.resolved.json"))


def test_repeated_runs_byte_identical(tmp_path):
    cfg = fixture_cfg("acdc_blobs.json")
    r1 = run_experiment(cfg, str(tmp_path / "a"))
    cfg2 = fixture_cfg("acdc_blobs.json")
    r2 = run_experiment(cfg2, str(tmp_path / "b"))
    csv1 = open(os.path.join(r1.out_dir, "metrics.csv"), "rb").read()
    csv2 = open(os.path.join(r2.out_dir, "metrics.csv"), "rb").read()
    assert csv1 == csv2
    for p1, p2 in zip(r1.checkpoint_paths, r2.checkpoint_paths):
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_csv_schema_stable(tmp_path):
    cfg = fixture_cfg("dense_smoke.json")
    res = run_experiment(cfg, str(tmp_path / "run"))
    lines = open(os.path.join(res.out_dir, "metrics.csv")).read().splitlines()
    assert lines[0] == (
        "epoch,split,top1,mean_entropy,mean_ce,uncertainty_fraction,"
        "train_loss,sparsity,channel_sparsity_avg,flops_proportion"
    )
    assert len(lines) == 3
    assert lines[-1] != ""


def test_acdc_checkpoints_at_compressed_phase_ends(tmp_path):
    cfg = fixture_cfg("acdc_blobs.json")
    res = run_experiment(cfg, str(tmp_path / "run"))
    a = cfg.effective_acdc()
    phases = acdc_phases(
        AcdcSchedule(
            total_epochs=cfg.effective_total,
            target=cfg.sparsity.target,
            warmup=a["warmup"],
            phase_len=a["phase_len"],
            last_decompression=a["last_decompression"],
            last_compression=a["last_compression"],
        )
    )
    want = sorted(p.end for p in phases if p.kind == COMPRESSED)
    got = sorted(load_checkpoint(p).meta["epoch"] for p in res.checkpoint_paths)
    assert got == want
    # compressed checkpoints carry masks at exactly the target sparsity
    for p in res.checkpoint_paths:
        ck = load_checkpoint(p)
        masks = ck.masks()
        assert masks, f"no masks in {p}"
        total = sum(m.size for m in masks.values())
        nnz = sum(int(m.sum()) for m in masks.values())
        kept = int(np.floor((1 - cfg.sparsity.target) * total + 1e-9))
        assert nnz == kept


def test_gmp_run_masks_nested(tmp_path):
    cfg = fixture_cfg(
        "acdc_blobs.json", method="gmp", total_epochs=12,
        gmp={"ramp_start": 0, "ramp_end": 9, "update_every": 3},
        checkpoint_every=3,
    )
    res = run_experiment(cfg, str(tmp_path / "run"))
    supports = []
    for p in res.checkpoint_paths:
        masks = load_checkpoint(p).masks()
        if not masks:
            supports.append(None)
            continue
        supports.append(np.concatenate([m.reshape(-1) != 0 for n, m in sorted(masks.items())]))
    seen = [s for s in supports if s is not None]
    assert len(seen) >= 2
    for a, b in zip(seen, seen[1:]):
        assert np.all(a | ~b), "GMP support not nested"
    final = [r for r in res.metrics if r.split == "val"][-1]
    assert final.sparsity >= cfg.sparsity.target - 0.01


def test_rigl_run_conserves_counts(tmp_path):
    cfg = fixture_cfg(
        "acdc_blobs.json", method="rigl", total_epochs=8,
        rigl={"alpha": 0.3, "t_end": 6, "delta_t": 1},
        sparsity={"target": 0.8, "distribution": "erk", "keep_dense": []},
        checkpoint_every=2,
    )
    res = run_experiment(cfg, str(tmp_path / "run"))
    per_layer_counts = []
    for p in res.checkpoint_paths:
        masks = load_checkpoint(p).masks()
        per_layer_counts.append({n: int(m.sum()) for n, m in masks.items()})
    for a, b in zip(per_layer_counts, per_layer_counts[1:]):
        assert a == b, "RigL per-layer counts drifted"


def test_oneshot_fixed_mask(tmp_path):
    cfg = fixture_cfg("acdc_blobs.json", method="oneshot", total_epochs=4, checkpoint_every=2)
    res = run_experiment(cfg, str(tmp_path / "run"))
    masks = [load_checkpoint(p).masks() for p in res.checkpoint_paths]
    for a, b in zip(masks, masks[1:]):
        for n in a:
            assert np.array_equal(a[n], b[n])


def test_multiplier_consistency_acdc_and_gmp():
    base = fixture_cfg("acdc_blobs.json", total_epochs=100, acdc={}, multiplier=1.0)
    doubled = fixture_cfg("acdc_blobs.json", total_epochs=100, acdc={}, multiplier=2.0)
    a1 = base.effective_acdc()
    a2 = doubled.effective_acdc()
    ph1 = acdc_phases(AcdcSchedule(total_epochs=base.effective_total, target=0.9, **{
        k: a1[k] for k in ("warmup", "phase_len", "last_decompression", "last_compression")}))
    ph2 = acdc_phases(AcdcSchedule(total_epochs=doubled.effective_total, target=0.9, **{
        k: a2[k] for k in ("warmup", "phase_len", "last_decompression", "last_compression")}))
    assert len(ph1) == len(ph2)
    for p1, p2 in zip(ph1, ph2):
        assert p2.kind == p1.kind
        assert p2.length == 2 * p1.length
        assert p2.start == 2 * p1.start
    g1, g2 = base.effective_gmp(), doubled.effective_gmp()
    assert g2["ramp_start"] == 2 * g1["ramp_start"]
    assert g2["ramp_end"] == 2 * g1["ramp_end"]
    assert g2["update_every"] == 2 * g1["update_every"]


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"methodd": "dense"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"optimizer": {"lrr": 0.1}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"method": "magic"})


def test_resolved_config_self_describing(tmp_path):
    cfg = fixture_cfg("dense_smoke.json")
    res = run_experiment(cfg, str(tmp_path / "run"))
    tree = json.load(open(os.path.join(res.out_dir, "config.resolved.json")))
    rebuilt = ExperimentConfig.from_dict(tree)
    assert rebuilt.resolved() == cfg.resolved()


def test_expand_grid_order():
    runs = expand_grid({"a": {"b": 0}, "c": 1}, {"a.b": [1, 2], "c": [5, 6]})
    assert [name for name, _ in runs] == ["run_000", "run_001", "run_002", "run_003"]
    assert runs[0][1] == {"a": {"b": 1}, "c": 5}
    assert runs[3][1] == {"a": {"b": 2}, "c": 6}


def test_sweep_summary(tmp_path):
    with open(os.path.join(FIXTURES, "sweep_grid.json")) as f:
        tree = json.load(f)
    summary = run_sweep(tree["base"], tree["grid"], str(tmp_path / "sweep"))
    assert summary["runs"] == 6
    assert len(summary["best_runs"]) == 2
    lines = open(os.path.join(tmp_path, "sweep", "summary.csv")).read().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("run,optimizer.lr,seed,")
    assert os.path.exists(os.path.join(tmp_path, "sweep", "run_005", "metrics.csv"))


def test_acdc_progressive_ramp_targets(tmp_path):
    cfg = fixture_cfg(
        "acdc_blobs.json", total_epochs=20,
        sparsity={"target": 0.95, "distribution": "global", "keep_dense": []},
        acdc={"warmup": 2, "phase_len": 2, "last_decompression": 3, "last_compression": 3,
              "ramp_start": 2, "ramp_end": 17, "ramp_start_sparsity": 0.9},
    )
    res = run_experiment(cfg, str(tmp_path / "run"))
    # first compression happens at epoch 2 at the ramp start sparsity, the
    # final one at the full target
    from sparselab.checkpoint import load_checkpoint as load

    by_epoch = {load(p).meta["epoch"]: load(p) for p in res.checkpoint_paths}
    first = min(by_epoch)
    masks = by_epoch[first].masks()
    total = sum(m.size for m in masks.values())
    nnz = sum(int(m.sum()) for m in masks.values())
    assert 1 - nnz / total == pytest.approx(0.9, abs=0.002)
    last = max(by_epoch)
    masks = by_epoch[last].masks()
    nnz = sum(int(m.sum()) for m in masks.values())
    assert 1 - nnz / total == pytest.approx(0.95, abs=0.002)


def test_acdc_sparse_decompression_variant(tmp_path):
    cfg = fixture_cfg(
        "acdc_blobs.json", total_epochs=12,
        sparsity={"target": 0.9, "distribution": "global", "keep_dense": []},
        acdc={"warmup": 1, "phase_len": 1, "last_decompression": 2, "last_compression": 2,
              "decompression_sparsity": 0.5},
    )
    res = run_experiment(cfg, str(tmp_path / "run"))
    rows = {r.epoch: r for r in res.metrics if r.split == "val"}
    # epoch 10 ends the final decompression: at least half the weights zero
    assert rows[10].sparsity >= 0.5
    assert rows[12].sparsity >= 0.9


def test_binary_task_uncertainty_column(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "seed": 4, "method": "dense", "total_epochs": 1, "batch_size": 32,
        "optimizer": {"lr": 0.05, "warmup_epochs": 0},
        "model": {"arch": "tiny-transformer", "vocab": 8, "max_len": 6, "d_model": 8,
                  "ff_dim": 12, "blocks": 1, "classes": 2},
        "dataset": {"kind": "synthetic-sequences", "n_train": 64, "n_val": 32,
                    "vocab": 8, "seq_len": 6},
    })
    res = run_experiment(cfg, str(tmp_path / "run"))
    row = [r for r in res.metrics if r.split == "val"][-1]
    assert row.uncertainty_fraction is not None
    assert 0.0 <= row.uncertainty_fraction <= 1.0
    lines = open(os.path.join(res.out_dir, "metrics.csv")).read().splitlines()
    assert lines[1].split(",")[5] != ""


def test_run_failure_names_epoch_and_phase(tmp_path):
    from sparselab.errors import SparselabError

    cfg = fixture_cfg("acdc_blobs.json")
    cfg.optimizer.lr = 1e6  # divergence by design
    with pytest.raises(SparselabError, match="epoch .*phase"):
        run_experiment(cfg, str(tmp_path / "run"))


@pytest.mark.parametrize("n", [1, EVAL_CHUNK - 1, EVAL_CHUNK, 2 * EVAL_CHUNK + 3])
def test_predict_logits_any_length(n):
    model = build_model(mlp_spec((12, 8, 5)), Rng(41))
    x = Rng(42).normals(n * 12).reshape(n, 12).astype(np.float32)
    got = predict_logits(model, x)
    assert got.shape == (n, 5)
    rows = np.concatenate([model.forward(x[i : i + 1]) for i in range(n)])
    np.testing.assert_allclose(got, rows, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("eval_train_split", [False, True])
def test_checkpoint_losses_equal_fresh_dataset_loss(tmp_path, eval_train_split):
    cfg = fixture_cfg("dense_smoke.json", checkpoint_every=1, eval_train_split=eval_train_split)
    res = run_experiment(cfg, str(tmp_path / "run"))
    assert len(res.checkpoint_paths) == 2
    data = build_dataset(cfg.dataset, Rng(cfg.seed).stream(STREAM_DATA))
    for path in res.checkpoint_paths:
        ck = load_checkpoint(path)
        model = rebuild_model(ck)
        assert ck.meta["val_loss_eval"] == dataset_loss(model, data.x_val, data.y_val)
        assert ck.meta["train_loss_eval"] == dataset_loss(model, data.x_train, data.y_train)
