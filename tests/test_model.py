"""Blowup-model values: the moments of B and S."""

import pytest

from sphere_calculus.elliptic import blowup_functions
from sphere_calculus.model import moments
from sphere_calculus.rings import PolyX, factorial


def test_moments_match_series():
    bf = blowup_functions(12)
    for j in range(10):
        assert moments("B", j) == bf.B[j] * factorial(j)
        assert moments("S", j) == bf.S[j] * factorial(j)
    assert moments("B", 0) == PolyX.const(1)
    assert moments("S", 1) == PolyX.const(1)
    assert not moments("S", 0)
    with pytest.raises(ValueError):
        moments("B", -1)


def test_moment_parity():
    for j in range(1, 10, 2):
        assert not moments("B", j)
    for j in range(0, 10, 2):
        assert not moments("S", j)

