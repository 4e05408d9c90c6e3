"""Exact-arithmetic foundation: polynomials, series, q/alpha rings."""

import pytest
from hypothesis import given, settings, strategies as st

from sphere_calculus.rings import (
    AlphaPoly,
    PolyX,
    QPoly,
    SeriesT,
    factorial,
    qpoly_bezout_check,
    rat,
    rat_from_str,
    rat_to_str,
)

rationals = st.builds(
    rat,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)
polys = st.lists(rationals, max_size=5).map(PolyX)


def test_rat_round_trip():
    for text in ["0", "5", "-3", "2/7", "-11/4"]:
        assert rat_to_str(rat_from_str(text)) == text


def test_polyx_basic():
    x = PolyX.x()
    p = (x + 1) * (x - 1)
    assert p == x * x - 1
    assert p.degree == 2
    assert (x**5).coeffs[5] == 1


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_polyx_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_series_inverse_and_sqrt():
    one = SeriesT.one(10)
    f = one + one.shift(1).truncate(10)  # 1 + t
    g = f.inverse()
    assert (f * g - one).is_zero()
    h = (one + one.shift(2).truncate(10)).sqrt()
    assert (h * h - (one + one.shift(2).truncate(10))).is_zero()


POWER_BASES = [
    PolyX((rat(1), rat(-2, 3), rat(1, 2))),
    SeriesT((PolyX.const(1), PolyX.x(), PolyX.const(rat(-1, 3))), 10),
    AlphaPoly((PolyX.x(), PolyX.const(2))),
]


@pytest.mark.parametrize("base", POWER_BASES, ids=lambda b: type(b).__name__)
def test_power_matches_repeated_product(base):
    if isinstance(base, SeriesT):
        product = SeriesT.one(base.order)
    else:
        product = type(base).const(1)
    for k in range(9):
        assert base ** k == product
        product = product * base
    with pytest.raises(ValueError):
        base ** -1


def test_series_exp_integral():
    one = SeriesT.one(8)
    e = one.shift(1).truncate(8).exp()  # exp(t)
    for j in range(8):
        assert e[j] == PolyX.const(rat(1) / factorial(j))


def test_bezout_check():
    x = PolyX.x()
    f = QPoly((PolyX.const(1), PolyX(), -PolyX.const(1)))
    g = QPoly((PolyX.const(1), -x, PolyX.const(1)))
    phi1 = QPoly((x * x - 2, -x))
    phi2 = QPoly((PolyX.const(-2), -x))
    assert qpoly_bezout_check(f, g, phi1, phi2, x * x - 4)
    assert not qpoly_bezout_check(f, g, phi1, phi2, x * x - 3)


def test_alpha_parity():
    even = AlphaPoly((PolyX.const(1), PolyX(), PolyX.x()))
    assert even.alpha_parity_is(0)
    assert not even.alpha_parity_is(1)
    assert AlphaPoly.gen(3).alpha_parity_is(1)


@given(polys, st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_alpha_scalar_action(c, n):
    a = AlphaPoly.gen(n)
    assert a * c == AlphaPoly([PolyX()] * n + [c])
