import math

import numpy as np
import pytest

from sparselab.errors import ShapeError
from losses import cross_entropy


def test_uniform_logits_ln_c():
    assert cross_entropy(np.zeros(10), 3) == pytest.approx(math.log(10), abs=1e-12)


def test_confident_correct_goes_to_zero():
    z = np.zeros(4)
    z[1] = 60.0
    assert cross_entropy(z, 1) < 1e-20


def test_smoothed_reference_value():
    # C=2, Z=(1,0), label 0, eps=0.1: f64 evaluation of the smoothed formula
    z = np.array([1.0, 0.0])
    p = np.exp(z - z.max())
    p /= p.sum()
    want = -(0.95 * math.log(p[0]) + 0.05 * math.log(p[1]))
    assert cross_entropy(z, 0, eps=0.1) == pytest.approx(want, abs=1e-15)
    assert cross_entropy(z, 0, eps=0.1) == pytest.approx(0.36326168751822285, abs=1e-12)


def test_label_out_of_range():
    with pytest.raises(ShapeError):
        cross_entropy(np.zeros(3), 3)
    with pytest.raises(ShapeError):
        cross_entropy(np.zeros(3), -1)


def test_shift_invariance():
    z = np.array([0.3, -1.2, 2.0, 0.0])
    base = cross_entropy(z, 2)
    assert cross_entropy(z + 1000.0, 2) == pytest.approx(base, abs=1e-6)


def test_smoothing_zero_matches_plain():
    z = np.array([0.5, -0.5, 1.5])
    assert cross_entropy(z, 1, eps=0.0) == pytest.approx(cross_entropy(z, 1), abs=0)
