"""Blowup-model values: moments and the twist-count series."""

import pytest

from sphere_calculus.elliptic import blowup_functions
from sphere_calculus.model import (
    moments,
    sigma_power_insertion_value,
    sigma_power_value,
)
from sphere_calculus.rings import PolyX, factorial

X = PolyX.x()


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


def test_sigma_power_values():
    order = 12
    bf = blowup_functions(order)
    f = bf.S * bf.S * bf.B
    for p in range(8):
        assert sigma_power_value(3, 2, p, order) == f[p] * factorial(p)


def test_insertion_values():
    order = 12
    bf = blowup_functions(order + 1)
    f = (-bf.Delta * bf.B).truncate(order)
    for p in range(8):
        assert sigma_power_insertion_value(3, 1, p, order) == f[p] * factorial(p)
    with pytest.raises(ValueError):
        sigma_power_insertion_value(2, 0, 1, order)
