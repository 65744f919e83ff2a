import numpy as np
import pytest

from conftest import changed_per_stage, mlp_spec, record_stage_starts, tiny_transformer_spec
from sparselab.data import DatasetSpec, build_dataset
from sparselab.errors import ConfigError, MaskMutationError
from sparselab.models import build_model
from sparselab.rng import Rng, STREAM_DATA
from sparselab.sparsify import SparsityDistribution, magnitude_mask
from sparselab.transfer import (
    TransferHyper,
    baseline_recipes,
    layer_groups,
    trainable_set,
    transfer_run,
)


def sparse_transformer(seed=0, blocks=2):
    spec = tiny_transformer_spec(vocab=8, max_len=8, d_model=8, ff_dim=12, blocks=blocks, classes=2)
    model = build_model(spec, Rng(seed))
    masks = magnitude_mask(
        {n: model.store[n].weights for n in model.prunable_names() if n != "head.weight"},
        SparsityDistribution(kind="uniform", target=0.5),
    )
    for n, m in masks.items():
        model.store.set_mask(n, m)
    return model


def seq_data(seed=1, n_train=96, n_val=64):
    spec = DatasetSpec(kind="synthetic-sequences", n_train=n_train, n_val=n_val, vocab=8, seq_len=8)
    return build_dataset(spec, Rng(seed).stream(STREAM_DATA))


def test_groups_partition_all_params():
    model = sparse_transformer()
    groups = layer_groups(model)
    names = sorted(n for ms in groups.members.values() for n in ms)
    assert names == sorted(model.store.names())
    assert groups.order[0] == "embeddings" and groups.order[-1] == "head"
    assert groups.n_blocks == 2


def test_stage0_excludes_sparse_weights_and_embeddings():
    model = sparse_transformer()
    groups = layer_groups(model)
    s0 = trainable_set(groups, 0)
    assert "tok_emb.weight" not in s0
    assert "pos_emb.weight" not in s0
    for name in model.store.names():
        cls = model.info[name].cls
        if cls == "linear-weight":
            assert name not in s0
        if cls in ("bias", "norm-param", "head-param"):
            assert name in s0


def test_final_stage_everything():
    model = sparse_transformer()
    groups = layer_groups(model)
    assert trainable_set(groups, 3) == set(model.store.names())


def test_stage_nesting_and_back_to_front():
    model = sparse_transformer()
    groups = layer_groups(model)
    s1 = trainable_set(groups, 1)
    s2 = trainable_set(groups, 2)
    assert trainable_set(groups, 0) <= s1 <= s2 <= trainable_set(groups, 3)
    # stage 1 unfreezes the rearmost block only
    assert "block2.attn.wq.weight" in s1 and "block1.attn.wq.weight" not in s1
    assert "block1.attn.wq.weight" in s2


def test_stage_out_of_range():
    groups = layer_groups(sparse_transformer())
    with pytest.raises(ConfigError):
        trainable_set(groups, 4)
    with pytest.raises(ConfigError):
        trainable_set(groups, -1)


def test_transfer_run_contracts():
    model = sparse_transformer(seed=2)
    data = seq_data()
    masks_before = {n: m.copy() for n, m in model.store.masks().items()}
    hyper = TransferHyper(lr=0.05, batch_size=32, early_stop=False)
    groups = layer_groups(model)
    stage_sets = [trainable_set(groups, s) for s in range(4)]
    snapshots = [{n: e.weights.copy() for n, e in model.store.items()}]

    # run stage by stage manually to diff checkpoints: reuse transfer_run's
    # machinery through its public single call, then verify via fresh run
    result = transfer_run(model, data, hyper, Rng(100))
    assert len(result.history) == 4
    for n, m in model.store.masks().items():
        assert np.array_equal(m, masks_before[n])
    # LR rewind: first lr equals peak, last lr within one step of zero
    for rec in result.history:
        assert rec.lr_first == pytest.approx(hyper.lr)
        assert 0.0 <= rec.lr_last <= hyper.lr / 2
        assert rec.eval_loss > 0.0


def test_mask_changed_during_a_stage_raises(monkeypatch):
    from sparselab import runner, transfer

    def mask_flipping(model, *args, **kwargs):
        """`train_epochs` that flips one mask entry after each epoch."""
        for row in runner.train_epochs(model, *args, **kwargs):
            name, mask = next(iter(model.store.masks().items()))
            mask = mask.copy()
            mask.flat[0] = 1.0 - mask.flat[0]
            model.store.set_mask(name, mask)
            yield row

    monkeypatch.setattr(transfer, "train_epochs", mask_flipping)
    hyper = TransferHyper(lr=0.05, batch_size=32, early_stop=False)
    with pytest.raises(MaskMutationError, match="stage 0"):
        transfer_run(sparse_transformer(seed=2), seq_data(), hyper, Rng(100))


def test_stage_isolation_by_checkpoint_diff(monkeypatch):
    data = seq_data(seed=5)
    hyper = TransferHyper(lr=0.05, batch_size=32, early_stop=False, epochs_per_stage=1)
    model = sparse_transformer(seed=3)
    groups = layer_groups(model)
    starts = record_stage_starts(monkeypatch)
    result = transfer_run(model, data, hyper, Rng(200))

    assert len(result.history) == 4
    for stage, (names, changed) in enumerate(changed_per_stage(starts, model)):
        assert names == trainable_set(groups, stage)
        assert changed <= names, f"stage {stage} touched {changed - names}"
        if stage == 0:
            head_and_norms = {n for n in changed if model.info[n].cls in
                              ("head-param", "bias", "norm-param")}
            assert changed == head_and_norms


def test_transfer_mask_iou_one_after_run():
    from sparselab.diagnostics import mask_iou

    model = sparse_transformer(seed=4)
    before = {n: m.copy() for n, m in model.store.masks().items()}
    transfer_run(model, seq_data(seed=6), TransferHyper(lr=0.03, early_stop=False), Rng(7))
    assert mask_iou(before, model.store.masks()) == 1.0


def test_linear_baseline_freezes_everything_but_head():
    model = sparse_transformer(seed=8)
    data = seq_data(seed=9)
    before = {n: e.weights.copy() for n, e in model.store.items()}
    res = baseline_recipes(
        model, data, TransferHyper(lr=0.05, early_stop=False), Rng(10),
        mode="dense-recipe", finetune="linear",
    )
    assert len(res.history) == 3
    for n, e in model.store.items():
        if model.info[n].cls != "head-param":
            assert np.array_equal(before[n], e.weights), f"{n} changed in linear mode"


def test_rescaled_sweep_epoch_counts():
    rows = []
    for E in (1, 2, 3):
        model = sparse_transformer(seed=11)
        res = baseline_recipes(
            model, seq_data(seed=12), TransferHyper(lr=0.05, early_stop=False), Rng(13),
            mode="rescaled", epochs=E,
        )
        rows.append(len(res.history))
    assert rows == [1, 2, 3]


def test_rescaled_needs_epochs():
    model = sparse_transformer()
    with pytest.raises(ConfigError):
        baseline_recipes(model, seq_data(), TransferHyper(), Rng(0), mode="rescaled")


def test_dense_recipe_smoke_logs_eval_loss():
    model = sparse_transformer(seed=14)
    res = baseline_recipes(
        model, seq_data(seed=15), TransferHyper(lr=0.05, early_stop=False), Rng(16),
        mode="dense-recipe", finetune="full",
    )
    assert all(np.isfinite(r.eval_loss) for r in res.history)


def test_transfer_works_on_mlp_groups():
    model = build_model(mlp_spec((16, 12, 8, 6, 4)), Rng(20))
    masks = magnitude_mask(
        {"fc2.weight": model.store["fc2.weight"].weights},
        SparsityDistribution(kind="uniform", target=0.5),
    )
    model.store.set_mask("fc2.weight", masks["fc2.weight"])
    groups = layer_groups(model)
    assert groups.n_blocks == 2
    s0 = trainable_set(groups, 0)
    assert "fc1.weight" not in s0 and "fc4.weight" in s0
    s1 = trainable_set(groups, 1)
    assert "fc3.weight" in s1 and "fc2.weight" not in s1
    assert "fc1.weight" in trainable_set(groups, 3)
