"""Blowup power series and their machine-checked identities."""

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
