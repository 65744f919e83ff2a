"""Deterministic PRNG: xoshiro256** seeded through splitmix64.

Every source of randomness in a run flows through one of these generators.
Distinct purposes (weight init, data generation, shuffling, dropout, ...)
use sub-streams derived from the run seed by fixed offsets, so adding a new
consumer never perturbs existing streams.

Bulk draws. `next_u64` steps the generator once in Python. A request for at
least `_BULK_MIN` outputs (`uniforms`, and through it `normals` and dropout;
the swap draws of `shuffle` and `permutation`) takes a vectorized path that
yields the same stream, bit for bit, and leaves the generator in the same
state as that many `next_u64` calls. The state transition is linear over
GF(2) (Blackman & Vigna, arXiv 1805.01407): a 256x256 bit matrix T maps a
state to the next one, so the state K steps ahead is T^K times the state.
The bulk path starts L = n // K lanes at states K steps apart, reached with
the cached jump matrices T^(2^m), steps all lanes together as numpy uint64
arrays and writes lane i's outputs to positions [i*K, (i+1)*K). The last
n - L*K outputs come from the scalar path. `_BULK_MIN` sits above the
measured size where the bulk path starts to win, so the 1,023 swap draws of
a 1024-row epoch's shuffle take the bulk path. The scalar path serves small
requests and is the tests' oracle for the bulk path: every seeded output is
byte-identical whichever path draws it, and tests/test_rng.py checks both
paths against the published C code.
Dropout draws an epoch's keep flags in one `uniforms(n, at_least=p)` request.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

# Fixed sub-seed offsets. Values are arbitrary but frozen: changing them
# changes every seeded run.
STREAM_INIT = 0x1
STREAM_DATA = 0x2
STREAM_SHUFFLE = 0x3
STREAM_DROPOUT = 0x4
STREAM_SHARPNESS = 0x5
STREAM_HEAD_INIT = 0x6


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


# -- bulk path -------------------------------------------------------------------

# Requests this large take the bulk path. Measured on 2 vCPUs (numpy 2.4), the
# paths tie near 300 draws for `uniforms` and 384 for `permutation`; at 512 the
# bulk path takes about 0.7 and 0.8 of the scalar time, at 1024 0.4 and 0.55.
_BULK_MIN = 512
_CHUNK = 1 << 13  # lane outputs buffered between conversions (64 KB of uint64)
# _JUMPS[m] is T^(2^m) as 256 states (8 KB): row b is the state that the state
# with only bit b set reaches after 2^m steps. Filled on first use.
_JUMPS: list[np.ndarray] = []


def _jumped(states: np.ndarray, m: int) -> np.ndarray:
    """The states 2^m steps after `states`, (c, 4) uint64: each state's bit
    vector times T^(2^m) over GF(2), that is, the XOR of the rows of T^(2^m)
    at its set bits, looked up four bits at a time. Integer ops only: no
    BLAS call, whose threads stall when other processes hold the cores."""
    rows = _jump(m).reshape(64, 4, 4)  # [q, i]: row 4q + i
    table = np.zeros((64, 16, 4), dtype=np.uint64)  # [q, v]: XOR of rows 4q + i, i in v
    for i in range(4):
        table[:, 1 << i : 2 << i] = table[:, : 1 << i] ^ rows[:, i, None, :]
    q = np.arange(64)
    out = np.empty_like(states)
    for a in range(0, len(states), 64):  # bounds the (64, 64, 4) gather
        octets = states[a : a + 64].astype("<u8").view(np.uint8)  # byte k: bits 8k..8k+7
        nibbles = np.empty((len(octets), 64), dtype=np.uint8)  # nibble q: bits 4q..4q+3
        nibbles[:, 0::2] = octets & 15
        nibbles[:, 1::2] = octets >> 4
        out[a : a + 64] = np.bitwise_xor.reduce(table[q, nibbles], axis=1)
    return out


def _jump(m: int) -> np.ndarray:
    while len(_JUMPS) <= m:
        if _JUMPS:  # T^(2^(k+1)) = T^(2^k) T^(2^k)
            _JUMPS.append(_jumped(_JUMPS[-1], len(_JUMPS) - 1))
            continue
        b = np.arange(256)  # one step of each single-bit state
        basis = np.zeros((4, 256), dtype=np.uint64)
        basis[b // 64, b] = np.left_shift(np.uint64(1), (b % 64).astype(np.uint64))
        s0, s1, s2, s3 = basis
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        basis[3] = (s3 << np.uint64(45)) | (s3 >> np.uint64(19))
        _JUMPS.append(np.ascontiguousarray(basis.T))
    return _JUMPS[m]


def _lane_states(state: list[int], L: int, k: int) -> np.ndarray:
    """(4, L) uint64: column i is `state` advanced i * 2^k steps."""
    lanes = np.empty((L, 4), dtype=np.uint64)
    lanes[0] = state
    m, j = 1, k  # lanes[:m] are filled and m * 2^k = 2^j
    while m < L:
        c = min(m, L - m)
        lanes[m : m + c] = _jumped(lanes[:c], j)
        m, j = m + c, j + 1
    return np.ascontiguousarray(lanes.T)


class Rng:
    """xoshiro256** generator with named sub-streams.

    Identical seeds produce identical streams; `stream(offset)` derives an
    independent generator from the original seed plus a fixed offset.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        s = self.seed
        state = []
        for _ in range(4):
            s, z = _splitmix64(s)
            state.append(z)
        self._s = state

    def stream(self, offset: int) -> "Rng":
        return Rng(self.seed + offset)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Uniform f64 in [0, 1) from the high 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def _bulk(self, out: np.ndarray, thr: int = 0) -> int:
        """Fills out[:L*K] with the next L*K outputs, as raw uint64 when `out`
        is uint64, as `uniform` floats when it is float64 and as the flags
        `u >> 11 >= thr` when it is bool, and leaves the state where that
        many `next_u64` calls would. Returns L*K; the caller draws the rest
        with the scalar path."""
        n = len(out)
        # lane spacing K = 2^k near sqrt(n): set-up grows with the lane count
        # L, stepping with K
        k = min(max((n.bit_length() - 1) // 2, 4), 10)
        K = 1 << k
        L = n // K
        if L == 0:
            return 0
        S = _lane_states(self._s, L, k)
        s0, s1, s2, s3 = S
        lo, hi, hi_rev = S[:2], S[2:], S[3:1:-1]
        a = np.empty(L, dtype=np.uint64)
        rows = max(1, min(K, _CHUNK // L))
        buf, tmp = np.empty((2, rows, L), dtype=np.uint64)
        dest = out[: L * K].reshape(L, K)
        # numpy scalars: a Python int operand costs a conversion per call
        c5, c7, c9, c17, c19, c45, c57 = (np.uint64(c) for c in (5, 7, 9, 17, 19, 45, 57))
        thr = np.uint64(thr)
        for t0 in range(0, K, rows):
            block = buf[: K - t0]
            for r in block:  # keep s1, then step: the outputs are a function of s1
                np.copyto(r, s1)
                np.left_shift(s1, c17, out=a)
                hi ^= lo  # s2 ^= s0; s3 ^= s1
                lo ^= hi_rev  # s0 ^= s3; s1 ^= s2
                s2 ^= a
                np.left_shift(s3, c45, out=a)  # s3 = rotl(s3, 45)
                np.right_shift(s3, c19, out=s3)
                s3 |= a
            shifted = tmp[: len(block)]
            block *= c5  # rotl(s1 * 5, 7) * 9
            np.left_shift(block, c7, out=shifted)
            block >>= c57
            block |= shifted
            block *= c9
            cols = dest[:, t0 : t0 + len(block)]
            if out.dtype == np.uint64:
                np.copyto(cols, block.T)
                continue
            block >>= np.uint64(11)
            if out.dtype == bool:
                np.greater_equal(block.T, thr, out=cols)
            else:
                np.multiply(block.T, 1.0 / (1 << 53), out=cols)
        self._s = [int(w) for w in S[:, -1]]
        return L * K

    def uniforms(self, n: int, at_least: float | None = None) -> np.ndarray:
        """n `uniform` floats x * 2^-53, or given `at_least` = p the flags
        `uniforms(n) >= p` of the same draws, compared as x >= ceil(p * 2^53):
        the product is exact, so no float is built."""
        flags = at_least is not None
        thr = min(max(math.ceil(at_least * (1 << 53)), 0), 1 << 53) if flags else 0
        out = np.empty(n, dtype=bool if flags else np.float64)
        done = self._bulk(out, thr) if n >= _BULK_MIN else 0
        nxt = self.next_u64
        scale = 1.0 / (1 << 53)
        for i in range(done, n):
            x = nxt() >> 11
            out[i] = x >= thr if flags else x * scale
        return out

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs."""
        z = self.uniforms(2 * ((n + 1) // 2))  # overwritten with the normals
        r = np.subtract(1.0, z[0::2])  # in (0, 1], keeps log finite
        np.sqrt(np.multiply(np.log(r, out=r), -2.0, out=r), out=r)
        # contiguous: numpy's SIMD log, sin and cos may round strided input differently
        theta = np.multiply(z[1::2], 2.0 * math.pi)
        np.multiply(r, np.cos(theta), out=z[0::2])
        np.multiply(r, np.sin(theta, out=theta), out=z[1::2])
        return z[:n]

    def below(self, n: int) -> int:
        """Integer in [0, n) by modulo reduction (bias is irrelevant here)."""
        return self.next_u64() % n

    def shuffle(self, items: np.ndarray) -> None:
        """In-place Fisher-Yates: swap i with below(i + 1), i from the top down."""
        n = len(items)
        if n - 1 >= _BULK_MIN:
            draws = np.empty(n - 1, dtype=np.uint64)
            done = self._bulk(draws)
            draws[done:] = [self.next_u64() for _ in range(done, n - 1)]
            js = (draws % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        else:
            js = (self.below(i + 1) for i in range(n - 1, 0, -1))
        vals = items.tolist()  # list swaps cost less than numpy element access
        for i, j in zip(range(n - 1, 0, -1), js):
            vals[i], vals[j] = vals[j], vals[i]
        items[:] = vals

    def permutation(self, n: int) -> np.ndarray:
        idx = np.arange(n)
        self.shuffle(idx)
        return idx
