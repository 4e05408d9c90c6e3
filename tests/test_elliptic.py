"""Blowup power series and their machine-checked identities."""

import math
from fractions import Fraction

import pytest

from sphere_calculus.elliptic import (
    G2,
    IdentityError,
    blowup_functions,
    verify_elliptic_identities,
    wp_series,
)
from sphere_calculus.rings import PolyX, rat

X = PolyX.x()


def test_wp_ode_checked_on_construction():
    u = wp_series(16)
    assert u[0] == PolyX.const(1)
    assert u[1] == PolyX() and u[2] == PolyX() and u[3] == PolyX()
    # first Laurent coefficient c_2 = g2/20
    assert u[4] == G2 * rat(1, 20)


def test_normalizations():
    bf = blowup_functions(16)
    assert bf.B[0] == PolyX.const(1)
    assert bf.S[1] == PolyX.const(1)
    for j in range(1, 4):
        assert not bf.B[j]
    # B even, S odd
    for j in range(16):
        if j % 2:
            assert not bf.B[j]
        else:
            assert not bf.S[j]


def test_low_order_values():
    bf = blowup_functions(10)
    # B = 1 - (1/12) t^4 + ..., S = t - (x/6) t^3 + ...
    assert bf.B[4] == PolyX.const(rat(-1, 12))
    assert bf.S[3] == -X * rat(1, 6)
    assert bf.Q[3] == -X * rat(1, 6)
    assert bf.q[2] == PolyX.const(1)
    assert bf.Delta[0] == PolyX.const(1)


@pytest.mark.parametrize("order", [16, 32])
def test_identity_suite(order):
    report = verify_elliptic_identities(blowup_functions(order))
    assert set(report) == {
        "Qprime-ode", "Delta-squared", "B-double-angle",
        "S-double-angle", "Q-times-B", "BrSn-order",
    }
    for checked in report.values():
        assert checked >= order - 1


def test_q_is_q_squared():
    bf = blowup_functions(14)
    assert (bf.q - bf.Q * bf.Q).is_zero()


def test_identity_error_reports_first_failure():
    err = IdentityError("demo", 4, PolyX.const(1))
    assert "t^4" in str(err)
    assert "demo" in str(err)


def test_order_floor():
    with pytest.raises(ValueError):
        blowup_functions(4)


# Oracle C: at the simple-type points x = +-2 the curve degenerates and
# the blowup series have closed forms (Fintushel-Stern), independent of
# the Weierstrass recurrence, the square root and the Gaussian factor.
ORACLE_ORDER = 96


def at_x(f, x):
    """The coefficients of a series in t with x set to an integer."""
    return [Fraction(sum(c * x ** i for i, c in enumerate(p.num)), p.den)
            for p in f.coeffs]


def closed_form(gauss_sign, hyperbolic, odd, order):
    """exp(gauss_sign t^2/2) times cosh t, sinh t (hyperbolic) or cos t,
    sin t (odd picks sinh / sin), through t^(order-1)."""
    gauss = [Fraction(gauss_sign, 2) ** (k // 2) / math.factorial(k // 2)
             if k % 2 == 0 else 0 for k in range(order)]
    trig = [0] * order
    for k in range(odd, order, 2):
        sign = 1 if hyperbolic or (k // 2) % 2 == 0 else -1
        trig[k] = Fraction(sign, math.factorial(k))
    return [sum(gauss[i] * trig[k - i] for i in range(k + 1))
            for k in range(order)]


@pytest.mark.parametrize("x, gauss_sign, hyperbolic", [
    (2, -1, True), (-2, 1, False)])
def test_simple_type_closed_forms_at_x_plus_minus_2(x, gauss_sign,
                                                     hyperbolic):
    bf = blowup_functions(ORACLE_ORDER)
    assert at_x(bf.B, x) == closed_form(gauss_sign, hyperbolic, 0,
                                        ORACLE_ORDER)
    assert at_x(bf.S, x) == closed_form(gauss_sign, hyperbolic, 1,
                                        ORACLE_ORDER)


@pytest.mark.parametrize("name", ["B", "S", "Delta", "Q", "q", "Qprime"])
def test_blowup_series_are_hurwitz_over_z_x(name):
    """k! f[k] has integer coefficients in x for every stored series,
    through t^80 at least."""
    f = getattr(blowup_functions(ORACLE_ORDER), name)
    assert f.order >= 81
    for k, c in enumerate(f.coeffs):
        assert math.factorial(k) % c.den == 0, k
