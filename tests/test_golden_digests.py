"""Byte-identity across commits: the files that a fixed set of small CLI
calls writes must hash to the digests in fixtures/golden_digests.json.

The digests depend on the numpy and BLAS builds, so the tests skip when
either differs from the one the fixture was made with.
"""

import json
import os
import subprocess
import sys

import pytest

import golden_digests
import sparselab


@pytest.fixture(scope="module")
def golden():
    with open(golden_digests.GOLDEN, encoding="utf-8") as f:
        recorded = json.load(f)
    here = golden_digests.environment()
    if here != recorded["environment"]:
        reason = f"golden digests made with {recorded['environment']}, this is {here}"
        print(reason)
        pytest.skip(reason)
    return recorded["digests"]


def _assert_same(got: dict, want: dict) -> None:
    changed = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    assert not changed, f"outputs differ from the golden digests: {changed}"


def test_outputs_match_golden_digests(golden, tmp_path):
    _assert_same(golden_digests.run(str(tmp_path)), golden)


def test_single_blas_thread_matches_golden_digests(golden):
    src = os.path.dirname(os.path.dirname(sparselab.__file__))  # the package this test imports
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, golden_digests.__file__, "--print", "acdc", "cnn"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    _assert_same(got, {k: v for k, v in golden.items() if k.split("/")[0] in ("acdc", "cnn")})
