import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab import sparsify
from sparselab.config import ExperimentConfig
from sparselab.errors import ConfigError, LayerCollapseError, ScheduleError
from sparselab.rng import Rng
from sparselab.sparsify import (
    BLOCK,
    COMPRESSED,
    DECOMPRESSED,
    DENSE_WARMUP,
    SparsityDistribution,
    acdc_apply,
    acdc_phases,
    erk_densities,
    gmp_sparsity_at,
    magnitude_mask,
    progressive_target,
    rigl_fraction,
    rigl_step,
    shrink_mask,
)


# -- magnitude masks ----------------------------------------------------------


def test_global_keeps_largest_magnitudes():
    w = {"a": np.array([1.0, -2.0, 3.0, 0.5], dtype=np.float32)}
    masks = magnitude_mask(w, SparsityDistribution(kind="global", target=0.5))
    assert np.array_equal(masks["a"], np.float32([0, 1, 1, 0]))


def test_zero_target_all_ones():
    w = {"a": np.zeros((3, 3), dtype=np.float32), "b": np.ones(5, dtype=np.float32)}
    masks = magnitude_mask(w, SparsityDistribution(kind="global", target=0.0))
    assert all(np.all(m == 1.0) for m in masks.values())


def test_block4_group_scores():
    # group L1: (0.1,0.1,0.1,0.1)=0.4 vs (1,0,0,0)=1.0; keep the second whole
    w = {"a": np.array([0.1, 0.1, 0.1, 0.1, 1.0, 0.0, 0.0, 0.0], dtype=np.float32)}
    masks = magnitude_mask(w, SparsityDistribution(kind="block4-global", target=0.5))
    assert np.array_equal(masks["a"], np.float32([0, 0, 0, 0, 1, 1, 1, 1]))


def test_tie_break_lower_flat_index_kept():
    w = {"a": np.full(6, 2.0, dtype=np.float32)}
    masks = magnitude_mask(w, SparsityDistribution(kind="uniform", target=0.5))
    assert np.array_equal(masks["a"], np.float32([1, 1, 1, 0, 0, 0]))


def test_keep_dense_layers_all_ones():
    w = {
        "first": np.float32([0.001, 0.002]),
        "mid": Rng(0).normals(20).astype(np.float32),
    }
    dist = SparsityDistribution(kind="global", target=0.5, keep_dense=("first",))
    masks = magnitude_mask(w, dist)
    assert np.all(masks["first"] == 1.0)
    assert masks["mid"].sum() == 10


def test_uniform_layer_collapse_error():
    w = {"tiny": np.ones(4, dtype=np.float32)}
    with pytest.raises(LayerCollapseError):
        magnitude_mask(w, SparsityDistribution(kind="uniform", target=0.9))


def test_bad_target_rejected():
    with pytest.raises(ScheduleError):
        magnitude_mask({"a": np.ones(4, dtype=np.float32)}, SparsityDistribution(target=1.0))


@given(
    n=st.integers(8, 200),
    s=st.floats(0.0, 0.95),
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["global", "uniform", "block4-global"]),
)
@settings(max_examples=200, deadline=None)
def test_compression_exactness_property(n, s, seed, kind):
    w = {"a": Rng(seed).normals(n).astype(np.float32)}
    try:
        masks = magnitude_mask(w, SparsityDistribution(kind=kind, target=s))
    except LayerCollapseError:
        return
    nnz = int(masks["a"].sum())
    if kind == "block4-global":
        groups = (n + BLOCK - 1) // BLOCK
        # whole groups kept: nonzero fraction within one block-group of target
        assert abs(nnz - (1 - s) * n) <= 2 * BLOCK
        assert nnz % BLOCK in (0, n % BLOCK)
    else:
        # floor of the real product, tolerant to one unit at representation edges
        assert abs(nnz - (1 - s) * n) < 1.0 + 1e-6


@given(
    seed=st.integers(0, 10_000),
    c=st.floats(0.001, 1000.0),
    kind=st.sampled_from(["global", "uniform", "erk", "block4-global"]),
)
@settings(max_examples=200, deadline=None)
def test_scale_equivariance_property(seed, c, kind):
    rng = Rng(seed)
    w = {
        "a": rng.normals(40).reshape(8, 5).astype(np.float32),
        "b": rng.normals(60).reshape(10, 6).astype(np.float32),
    }
    dist = SparsityDistribution(kind=kind, target=0.5)
    m1 = magnitude_mask(w, dist)
    m2 = magnitude_mask({k: (v.astype(np.float64) * c) for k, v in w.items()}, dist)
    for k in w:
        assert np.array_equal(m1[k], m2[k])


# -- ERK -----------------------------------------------------------------------


def test_erk_single_layer_budget_identity():
    d = erk_densities({"a": (10, 20)}, 0.7)
    assert d["a"] == pytest.approx(0.3, abs=1e-12)


def test_erk_identical_layers_equal_density():
    d = erk_densities({"a": (8, 8), "b": (8, 8)}, 0.6)
    assert d["a"] == pytest.approx(d["b"], abs=0)
    assert d["a"] == pytest.approx(0.4, abs=1e-12)


def test_erk_two_layer_closed_form():
    # shapes (10,10) and (100,100) at s=0.9: scale = 1010/220
    d = erk_densities({"small": (10, 10), "big": (100, 100)}, 0.9)
    scale = 1010.0 / 220.0
    assert d["small"] == pytest.approx(0.2 * scale, rel=1e-12)
    assert d["big"] == pytest.approx(0.02 * scale, rel=1e-12)
    total = d["small"] * 100 + d["big"] * 10_000
    assert total == pytest.approx(0.1 * 10_100, rel=1e-12)


def test_erk_clipping_resolves():
    # a very skewed pair forces the small layer to clip at density 1
    d = erk_densities({"tiny": (2, 2), "huge": (200, 200)}, 0.5)
    assert d["tiny"] == 1.0
    budget = 0.5 * (4 + 40_000)
    assert d["tiny"] * 4 + d["huge"] * 40_000 == pytest.approx(budget, rel=1e-9)


@given(
    s=st.floats(0.0, 0.98),
    shapes=st.lists(
        st.tuples(st.integers(2, 40), st.integers(2, 40)), min_size=1, max_size=5
    ),
)
@settings(max_examples=200, deadline=None)
def test_erk_budget_property(s, shapes):
    layer_shapes = {f"l{i}": sh for i, sh in enumerate(shapes)}
    d = erk_densities(layer_shapes, s)
    total = sum(d[n] * np.prod(sh) for n, sh in layer_shapes.items())
    budget = (1 - s) * sum(int(np.prod(sh)) for sh in layer_shapes.values())
    assert abs(total - budget) <= 1.0
    assert all(0.0 < v <= 1.0 for v in d.values())


# -- GMP ------------------------------------------------------------------------


def gmp_ramp(s_final, ramp_start=0, ramp_end=75, update_every=5):
    """`gmp_sparsity_at` as a function of the epoch alone."""
    return functools.partial(gmp_sparsity_at, s_final=s_final, ramp_start=ramp_start,
                             ramp_end=ramp_end, update_every=update_every)


def test_gmp_before_ramp_zero():
    st_ = gmp_ramp(s_final=0.8, ramp_start=10, ramp_end=50)
    assert st_(0) == 0.0
    assert st_(10) == 0.0


def test_gmp_after_ramp_final():
    st_ = gmp_ramp(s_final=0.8, ramp_start=0, ramp_end=30)
    assert st_(30) == 0.8
    assert st_(100) == 0.8


def test_gmp_midpoint_cubic():
    st_ = gmp_ramp(s_final=0.8, ramp_start=0, ramp_end=20, update_every=5)
    # t=10 is on the 5-epoch grid and exactly mid-ramp
    assert st_(10) == pytest.approx(0.8 * (1 - 0.125), abs=1e-15)


def test_gmp_quantized_to_update_grid():
    st_ = gmp_ramp(s_final=0.9, ramp_start=0, ramp_end=40, update_every=5)
    assert st_(7) == st_(5)
    assert st_(9) == st_(5)
    assert st_(10) > st_(5)


def test_gmp_monotone_nondecreasing():
    st_ = gmp_ramp(s_final=0.95, ramp_start=0, ramp_end=75, update_every=5)
    values = [st_(t) for t in range(100)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_gmp_invalid_ramp():
    for ramp_end in (10, 5):
        with pytest.raises(ConfigError, match="GMP ramp must end after it starts"):
            ExperimentConfig.from_dict(
                {"method": "gmp", "total_epochs": 20, "gmp": {"ramp_start": 10, "ramp_end": ramp_end}}
            )


@given(seed=st.integers(0, 5000))
@settings(max_examples=100, deadline=None)
def test_gmp_nesting_and_iou_identity_property(seed):
    rng = Rng(seed)
    w = {"a": rng.normals(60).astype(np.float32), "b": rng.normals(40).astype(np.float32)}
    dist = SparsityDistribution(kind="global", target=0.0)
    masks = {n: np.ones_like(v) for n, v in w.items()}
    prev_support = None
    for s in (0.2, 0.5, 0.7, 0.9):
        masks = shrink_mask(w, masks, dist.with_target(s))
        support = np.concatenate([masks["a"].reshape(-1), masks["b"].reshape(-1)]) != 0
        if prev_support is not None:
            assert np.all(prev_support | ~support), "support not nested"
            inter = int((prev_support & support).sum())
            union = int((prev_support | support).sum())
            assert inter / union == pytest.approx(support.sum() / prev_support.sum())
        prev_support = support
        # weights drift between updates
        for v in w.values():
            v += rng.normals(v.size).reshape(v.shape).astype(np.float32) * 0.1


# -- RigL -----------------------------------------------------------------------


def test_rigl_fraction_alpha_at_zero():
    assert rigl_fraction(0, 0.3, 100, 0.0) == pytest.approx(0.3, abs=1e-15)


def test_rigl_fraction_zero_at_end():
    assert rigl_fraction(100, 0.3, 100, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_rigl_fraction_midpoint_with_layer_sparsity():
    assert rigl_fraction(50, 0.3, 100, 0.9) == pytest.approx(0.015, abs=1e-15)


def test_rigl_fraction_range_error():
    with pytest.raises(ScheduleError):
        rigl_fraction(101, 0.3, 100, 0.5)


def test_rigl_step_zero_fraction_unchanged():
    mask = np.float32([1, 1, 0, 0])
    new = rigl_step(np.float32([5, 0.1, 0, 0]), np.float32([1, 1, 9, 1]), mask, 0.0)
    assert new.tobytes() == mask.tobytes()


def test_rigl_step_four_entry_example():
    w = np.float32([5, 0.1, 0, 0])
    g = np.float32([1, 1, 9, 1])
    mask = np.float32([1, 1, 0, 0])
    new = rigl_step(w, g, mask, 0.5)
    assert np.array_equal(new, np.float32([1, 0, 1, 0]))
    assert np.array_equal((new != 0) != (mask != 0), [False, True, True, False])


def test_rigl_step_tie_break_drops_lowest_index():
    w = np.float32([2, 2, 2, 2, 0, 0])
    g = np.float32([0, 0, 0, 0, 3, 3])
    mask = np.float32([1, 1, 1, 1, 0, 0])
    new = rigl_step(w, g, mask, 0.5)
    # two lowest-index active entries dropped, two lowest-index inactive grown
    assert np.array_equal(new, np.float32([0, 0, 1, 1, 1, 1]))


def test_rigl_step_caps_at_inactive_count(caplog):
    w = np.float32([1, 2, 3, 0])
    g = np.float32([0, 0, 0, 5])
    mask = np.float32([1, 1, 1, 0])
    new = rigl_step(w, g, mask, 1.0)  # k=3 > 1 inactive
    assert int(new.sum()) == 3
    assert ((new != 0) != (mask != 0)).sum() == 2


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(6, 120),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_rigl_conservation_property(seed, n, frac):
    rng = Rng(seed)
    w = rng.normals(n).astype(np.float32)
    g = rng.normals(n).astype(np.float32)
    mask = (rng.uniforms(n) < 0.5).astype(np.float32)
    w[mask == 0] = 0.0
    before = int(mask.sum())
    new = rigl_step(w, g, mask, frac)
    assert int(new.sum()) == before
    dropped = (mask != 0) & (new == 0)
    grown = (mask == 0) & (new != 0)
    assert dropped.sum() == grown.sum()
    assert np.array_equal((new != 0) != (mask != 0), dropped | grown)


# -- AC/DC ------------------------------------------------------------------------


def default_schedule(total, warmup=None, phase_len=5, last_decompression=15, last_compression=10):
    """`acdc_phases`' arguments with AcdcCfg's defaults, warmup 10% of the run."""
    warmup = max(1, round(0.1 * total)) if warmup is None else warmup
    return total, warmup, phase_len, last_decompression, last_compression


def test_acdc_phase_list_100():
    phases = acdc_phases(*default_schedule(100))
    assert phases[0] == (DENSE_WARMUP, 0, 10) or (
        phases[0].kind == DENSE_WARMUP and phases[0].start == 0 and phases[0].length == 10
    )
    mid = phases[1:-2]
    assert len(mid) == 13
    assert mid[0].kind == COMPRESSED and mid[-1].kind == COMPRESSED
    assert all(p.length == 5 for p in mid)
    kinds = [p.kind for p in mid]
    assert kinds == [COMPRESSED if i % 2 == 0 else DECOMPRESSED for i in range(13)]
    assert phases[-2].kind == DECOMPRESSED and phases[-2].start == 75 and phases[-2].length == 15
    assert phases[-1].kind == COMPRESSED and phases[-1].start == 90 and phases[-1].length == 10
    assert sum(p.length for p in phases) == 100


def test_acdc_minimum_feasible_total():
    total = 10 + 2 * 5 + 15 + 10
    phases = acdc_phases(*default_schedule(total, warmup=10))
    non_warmup = [p for p in phases if p.kind != DENSE_WARMUP]
    assert len(non_warmup) == 4
    assert sum(p.length for p in phases) == total


def test_acdc_1000_with_warmup_100():
    phases = acdc_phases(*default_schedule(1000, warmup=100))
    assert phases[-2].start == 975 - 100 + 100  # decompression begins at 975
    assert phases[-2] .start == 975
    assert phases[-1].start == 990 and phases[-1].end == 1000
    mid = phases[1:-2]
    assert mid[0].start == 100 and mid[-1].end == 975
    assert sum(p.length for p in phases) == 1000
    kinds = [p.kind for p in mid]
    assert all(k == (COMPRESSED if i % 2 == 0 else DECOMPRESSED) for i, k in enumerate(kinds))


def test_acdc_remainder_absorbed_by_first_compressed():
    # middle span 13 with phase_len 5 -> first compressed phase takes 5+3
    total = 1 + 13 + 15 + 10
    phases = acdc_phases(*default_schedule(total, warmup=1))
    mid = phases[1:-2]
    assert mid[0].kind == COMPRESSED and mid[0].length == 8
    assert mid[1].kind == DECOMPRESSED and mid[1].length == 5
    assert sum(p.length for p in phases) == total


def test_acdc_infeasible_total():
    with pytest.raises(ScheduleError):
        acdc_phases(*default_schedule(30, warmup=10))


@pytest.mark.parametrize("total", [100, 250, 500, 1000])
def test_acdc_totals_cover_and_end_compressed(total):
    phases = acdc_phases(*default_schedule(total))
    assert sum(p.length for p in phases) == total
    assert phases[-1].kind == COMPRESSED
    # no gaps or overlaps
    cursor = 0
    for p in phases:
        assert p.start == cursor
        cursor = p.end
    assert cursor == total


def test_acdc_apply_decompression_dense():
    w = {"a": Rng(1).normals(10).astype(np.float32)}
    assert acdc_apply(DECOMPRESSED, w, SparsityDistribution(target=0.9), 0.0) is None


def test_acdc_apply_decompression_sparse():
    w = {"a": Rng(1).normals(100).astype(np.float32)}
    masks = acdc_apply(DECOMPRESSED, w, SparsityDistribution(kind="global", target=0.95), 0.8)
    assert int(masks["a"].sum()) == 20


def test_acdc_apply_compression_idempotent():
    w = {"a": Rng(2).normals(50).astype(np.float32)}
    dist = SparsityDistribution(kind="global", target=0.9)
    m1 = acdc_apply(COMPRESSED, w, dist)
    w2 = {k: v * m1[k] for k, v in w.items()}
    m2 = acdc_apply(COMPRESSED, w2, dist)
    assert np.array_equal(m1["a"], m2["a"])


def test_progressive_target_endpoints_and_midpoint():
    ramp = functools.partial(progressive_target, s_final=0.99, start_epoch=10, end_epoch=50,
                             start_sparsity=0.9)
    assert ramp(10) == pytest.approx(0.9, abs=0)
    assert ramp(50) == pytest.approx(0.99, abs=0)
    assert ramp(30) == pytest.approx(0.945, abs=1e-12)
    assert ramp(0) == pytest.approx(0.9)
    assert ramp(99) == pytest.approx(0.99)


def test_shrink_mask_block4_nesting():
    rng = Rng(31)
    w = {"a": rng.normals(41).astype(np.float32)}
    dist = SparsityDistribution(kind="block4-global", target=0.3)
    masks = {"a": np.ones(41, dtype=np.float32)}
    prev = None
    for s in (0.3, 0.6, 0.9):
        masks = shrink_mask(w, masks, dist.with_target(s))
        sup = masks["a"] != 0
        # whole groups only
        padded = np.zeros(44, dtype=bool)
        padded[:41] = sup
        groups = padded.reshape(11, 4)
        for g in groups[:-1]:
            assert g.all() or not g.any()
        if prev is not None:
            assert np.all(prev | ~sup)
        prev = sup


def test_shrink_mask_erk_nesting():
    rng = Rng(32)
    w = {"a": rng.normals(64).reshape(8, 8).astype(np.float32),
         "b": rng.normals(100).reshape(10, 10).astype(np.float32)}
    dist = SparsityDistribution(kind="erk", target=0.4)
    masks = {n: np.ones_like(v) for n, v in w.items()}
    prev = None
    for s in (0.4, 0.6, 0.8):
        masks = shrink_mask(w, masks, dist.with_target(s))
        sup = np.concatenate([masks[n].reshape(-1) != 0 for n in ("a", "b")])
        if prev is not None:
            assert np.all(prev | ~sup)
        prev = sup


# -- selection by partition against the sorting oracle --------------------------


def lexsort_keep_top(scores, active, kept):
    """Keep flags by a full stable sort: the `kept` largest active scores,
    low index first on ties."""
    order = np.lexsort((np.arange(scores.size), -np.where(active, scores, -np.inf)))
    keep = np.zeros(scores.size, dtype=bool)
    keep[order[: min(kept, int(active.sum()))]] = True
    return keep & active


def lexsort_rigl_step(weights, grads, mask, fraction):
    """rigl_step with its drop and grow orders taken from full stable sorts."""
    flat_w = np.abs(weights.reshape(-1).astype(np.float64))
    flat_g = np.abs(grads.reshape(-1).astype(np.float64))
    active = mask.reshape(-1) != 0.0
    n_active = int(active.sum())
    k = min(int(math.floor(fraction * n_active + 0.5)), active.size - n_active)
    new = active.copy()
    if k > 0:
        idx = np.arange(active.size)
        act_idx, inact_idx = idx[active], idx[~active]
        new[act_idx[np.lexsort((act_idx, flat_w[active]))[:k]]] = False
        new[inact_idx[np.lexsort((inact_idx, -flat_g[~active]))[:k]]] = True
    return new.reshape(mask.shape).astype(np.float32)


def quantised(rng, shape, levels):
    """Values on a grid of `levels` magnitudes, so ties are common, with
    about a fifth of the zeros negative."""
    x = (rng.integers(-levels, levels + 1, size=shape) * 0.25).astype(np.float32)
    x[(x == 0) & (rng.random(shape) < 0.2)] = -0.0
    return x


def magnitude_then_shrink(w, dist, tight):
    """The masks of magnitude_mask, then of shrink_mask tightening them, or
    LayerCollapseError where a pool would lose every entry."""
    try:
        masks = magnitude_mask(w, dist)
        return [masks, shrink_mask(w, masks, tight)]
    except LayerCollapseError:
        return LayerCollapseError


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 60),
    levels=st.integers(0, 4),
    p_active=st.sampled_from([0.0, 0.3, 1.0]),
    extra=st.integers(-3, 3),
)
@settings(max_examples=300, deadline=None)
def test_keep_top_equals_sorting_oracle(seed, n, levels, p_active, extra):
    rng = np.random.default_rng(seed)
    scores = quantised(rng, n, levels).astype(np.float64)
    active = rng.random(n) < p_active
    # kept below, exactly at and above the active count, and 0
    for kept in (0, max(int(active.sum()) + extra, 0), int(rng.integers(0, n + 2))):
        got = sparsify._keep_top(scores, active, kept)
        assert np.array_equal(got, lexsort_keep_top(scores, active, kept)), kept


@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["global", "uniform", "erk", "block4-global"]),
    levels=st.integers(0, 3),
    target=st.sampled_from([0.0, 0.3, 0.5, 0.75, 0.9]),
    tighten=st.sampled_from([0.0, 0.1, 0.3]),
)
@settings(max_examples=200, deadline=None)
def test_pooled_masks_equal_sorting_oracle(seed, kind, levels, target, tighten):
    rng = np.random.default_rng(seed)
    w = {"a": quantised(rng, (5, 7), levels), "b": quantised(rng, (13,), levels),
         "c": quantised(rng, (3, 3), levels)}
    dist = SparsityDistribution(kind=kind, target=target, keep_dense=("c",) if seed % 2 else ())
    tight = dist.with_target(min(target + tighten, 0.95))
    got = magnitude_then_shrink(w, dist, tight)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sparsify, "_keep_top", lexsort_keep_top)
        want = magnitude_then_shrink(w, dist, tight)
    if want is LayerCollapseError:
        assert got is LayerCollapseError
        return
    for a, b in zip(got, want):
        assert a.keys() == b.keys()
        for name in b:
            assert a[name].tobytes() == b[name].tobytes(), name


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 80),
    levels=st.integers(0, 4),
    p_active=st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
    fraction=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
@settings(max_examples=300, deadline=None)
def test_rigl_step_equals_sorting_oracle(seed, n, levels, p_active, fraction):
    rng = np.random.default_rng(seed)
    mask = (rng.random(n) < p_active).astype(np.float32)
    w = quantised(rng, n, levels) * mask
    g = quantised(rng, n, levels)
    new = rigl_step(w, g, mask, fraction)
    assert new.tobytes() == lexsort_rigl_step(w, g, mask, fraction).tobytes()
