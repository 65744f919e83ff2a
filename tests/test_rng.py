import contextlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab import rng as rng_module
from sparselab.rng import Rng, STREAM_INIT, STREAM_DATA


def test_same_seed_same_stream():
    a = Rng(123)
    b = Rng(123)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_differ():
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_substreams_are_fixed_offsets():
    base = Rng(100)
    assert base.stream(STREAM_INIT).next_u64() == Rng(100 + STREAM_INIT).next_u64()
    assert base.stream(STREAM_DATA).next_u64() == Rng(100 + STREAM_DATA).next_u64()
    # deriving a stream does not disturb the parent
    fresh = Rng(100)
    fresh.stream(STREAM_INIT)
    assert fresh.next_u64() == Rng(100).next_u64()


def test_uniform_range_and_determinism():
    u = Rng(7).uniforms(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, Rng(7).uniforms(10_000))
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_moments():
    z = Rng(11).normals(50_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normals_odd_count():
    assert Rng(3).normals(5).shape == (5,)


def test_permutation_is_a_permutation():
    p = Rng(9).permutation(100)
    assert sorted(p.tolist()) == list(range(100))
    assert np.array_equal(p, Rng(9).permutation(100))


# -- independent reference: the published C code (fixtures/xoshiro_ref.c) ------

with open(os.path.join(os.path.dirname(__file__), "fixtures", "rng_reference.json")) as _f:
    REFERENCE = json.load(_f)


@contextlib.contextmanager
def bulk_min(value):
    """Sets the size from which requests take the bulk path."""
    saved = rng_module._BULK_MIN
    rng_module._BULK_MIN = value
    try:
        yield
    finally:
        rng_module._BULK_MIN = saved


def scalar(draw):
    """`draw()` with every request on the scalar path: the oracle."""
    with bulk_min(float("inf")):
        return draw()


@pytest.mark.parametrize("case", REFERENCE["seeds"], ids=lambda c: f"seed{c['seed']}")
def test_scalar_path_matches_reference(case):
    r = Rng(case["seed"])
    assert r._s == case["state"]
    assert [r.next_u64() for _ in range(REFERENCE["first"])] == case["first_outputs"]
    for _ in range(REFERENCE["around"] - REFERENCE["first"]):
        r.next_u64()
    assert [r.next_u64() for _ in case["around_outputs"]] == case["around_outputs"]


@pytest.mark.parametrize("case", REFERENCE["seeds"], ids=lambda c: f"seed{c['seed']}")
def test_bulk_path_matches_reference(case):
    first, around = REFERENCE["first"], REFERENCE["around"]
    r = Rng(case["seed"])
    raw = np.empty(around, dtype=np.uint64)
    done = r._bulk(raw)
    assert done > around - 1024
    raw[done:] = [r.next_u64() for _ in range(done, around)]
    assert raw[:first].tolist() == case["first_outputs"]
    # the bulk path left the state where `around` scalar steps would
    assert [r.next_u64() for _ in case["around_outputs"]] == case["around_outputs"]

    u = Rng(case["seed"]).uniforms(around + len(case["around_outputs"]))
    assert u[:first].tolist() == [(v >> 11) * 2.0**-53 for v in case["first_outputs"]]
    assert u[around:].tolist() == [(v >> 11) * 2.0**-53 for v in case["around_outputs"]]


def test_substreams_match_reference():
    for case in REFERENCE["streams"]:
        r = Rng(case["seed"]).stream(case["offset"])
        assert [r.next_u64() for _ in case["outputs"]] == case["outputs"]


def test_jump_matrices_match_reference_jump():
    """T^(2^128) from the bulk path's matrices against the published jump()."""
    state = np.array([Rng(1)._s], dtype=np.uint64)
    assert rng_module._jumped(state, 128)[0].tolist() == REFERENCE["jump_2_128_from_seed_1"]


# -- the bulk path against the scalar path ---------------------------------------

# K is the lane spacing that the bulk path picks: 16 below 1024 draws, 32 from
# 1024 to 4095. Forced onto the bulk path, the lengths probe L = 0 and 1 lanes
# and the step from K = 16 to 32. Routed through the public calls, they probe
# the threshold in use and one of 1024, where K steps, and a model-sized request.
FORCED = [0, 1, 15, 16, 17, 63, 64, 65, 1023, 1024, 1025]
THRESHOLD = rng_module._BULK_MIN
ROUTED = [(n, THRESHOLD) for n in (THRESHOLD - 1, THRESHOLD, THRESHOLD + 1)] + [
    (n, 1024) for n in (1023, 1024, 1025, 4097, 200_003)]
EDGES = [(n, 0) for n in FORCED] + ROUTED


def _draws(r: Rng, n: int):
    return r.uniforms(n), r.normals(n), r.permutation(n), r._s


def _assert_same(a, b):
    for x, y in zip(a[:3], b[:3]):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert a[3] == b[3]


@pytest.mark.parametrize("n, threshold", EDGES)
def test_bulk_equals_scalar_at_edge_lengths(n, threshold):
    with bulk_min(threshold):
        got = _draws(Rng(2024), n)
    _assert_same(got, scalar(lambda: _draws(Rng(2024), n)))


def _swap_shuffled(seed: int, items: np.ndarray):
    """Fisher-Yates with one element swap per `below` draw: the oracle."""
    r, out = Rng(seed), items.copy()
    for i in range(len(out) - 1, 0, -1):
        j = r.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out, r._s


@pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD + 1])  # n - 1 swap draws: scalar, bulk
@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_shuffle_equals_element_swaps(n, dtype):
    items = (Rng(8).normals(n) * 1e3).astype(dtype)
    r = Rng(31)
    got = items.copy()
    r.shuffle(got)
    want, state = _swap_shuffled(31, items)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    assert r._s == state


def test_epoch_permutation_takes_the_bulk_path(monkeypatch):
    """A 1024-row epoch's shuffle (1,023 swap draws) is a bulk request."""
    sizes, bulk = [], Rng._bulk

    def counted(self, out, *args):
        sizes.append(len(out))
        return bulk(self, out, *args)

    monkeypatch.setattr(Rng, "_bulk", counted)
    Rng(4).permutation(1024)
    assert sizes == [1023]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 3000), odd=st.booleans())
def test_bulk_equals_scalar_across_seeds(seed, n, odd):
    n = n | 1 if odd else n
    with bulk_min(0):
        got = _draws(Rng(seed), n)
    _assert_same(got, scalar(lambda: _draws(Rng(seed), n)))


CALLS = st.lists(
    st.tuples(st.sampled_from(["uniforms", "normals", "permutation", "next_u64", "below"]),
              st.integers(1, 2500)),
    max_size=6,
)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=CALLS)
def test_interleaved_calls_leave_the_same_state(seed, calls):
    def play():
        r = Rng(seed)
        outs = []
        for method, n in calls:
            out = r.next_u64() if method == "next_u64" else getattr(r, method)(n)
            outs.append((np.asarray(out), list(r._s)))
        return outs

    for (x, sx), (y, sy) in zip(play(), scalar(play)):
        assert np.array_equal(x, y) and sx == sy


# -- dropout keep flags: uniforms(n, at_least=p) -----------------------------------

# 0.0, 0.5 and 1 - 2^-53 (which keeps only the largest uniform) sit on a
# uniform; 0.1, 0.3 and 1e-20 have a fractional p * 2^53, so the integer
# threshold rounds up.
RATES = [0.0, 0.1, 0.5, 1.0 - 2.0**-53, 0.3, 1e-20]


def _keep(seed: int, n: int, p: float):
    r = Rng(seed)
    return r.uniforms(n, at_least=p), r._s


def _compared(seed: int, n: int, p: float):
    r = Rng(seed)
    return r.uniforms(n) >= p, r._s


def _assert_flags(got, want):
    assert got[0].dtype == bool and np.array_equal(got[0], want[0])
    assert got[1] == want[1]


@pytest.mark.parametrize("p", RATES)
@pytest.mark.parametrize("n, threshold", EDGES)
def test_keep_flags_equal_compared_uniforms_at_edge_lengths(n, threshold, p):
    with bulk_min(threshold):
        got = _keep(2024, n, p)
    _assert_flags(got, scalar(lambda: _compared(2024, n, p)))


@pytest.mark.parametrize("i", [7, 4099])  # on the bulk path, in the scalar tail
def test_keep_flags_at_the_rate(i):
    """A uniform equal to the rate is kept; at the next float up it is dropped."""
    u = Rng(5).uniforms(4100)
    assert Rng(5).uniforms(4100, at_least=float(u[i]))[i]
    assert not Rng(5).uniforms(4100, at_least=float(np.nextafter(u[i], 1.0)))[i]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 3000),
       p=st.floats(0.0, 1.0, exclude_max=True), odd=st.booleans())
def test_keep_flags_equal_compared_uniforms_across_seeds(seed, n, p, odd):
    n = n | 1 if odd else n
    with bulk_min(0):
        got = _keep(seed, n, p)
    _assert_flags(got, scalar(lambda: _compared(seed, n, p)))
