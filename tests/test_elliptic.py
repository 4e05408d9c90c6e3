"""Blowup power series and their machine-checked identities."""

import math
from fractions import Fraction

import pytest

from sphere_calculus.elliptic import (
    G2,
    IdentityError,
    _build,
    blowup_functions,
    verify_elliptic_identities,
    weight_series,
)
from sphere_calculus.rings import PolyX, rat

X = PolyX.x()


def test_wp_ode_checked_on_construction(monkeypatch):
    from sphere_calculus import elliptic

    graph = _build()
    graph["ode"].grow(16)
    u = graph["wp"]
    # The check grew z^2 p through t^15 to read it.
    assert len(u.coeffs) >= 16
    assert u[0] == PolyX.const(1)
    assert u[1] == PolyX() and u[2] == PolyX() and u[3] == PolyX()
    # first Laurent coefficient c_2 = g2/20
    assert u[4] == G2 * rat(1, 20)
    # Against a g2 the series was not built from, the check fails at
    # t^4, the first power g2 enters.
    graph = _build()
    graph["wp"].grow(16)
    monkeypatch.setattr(elliptic, "G2", G2 + 1)
    with pytest.raises(IdentityError) as err:
        graph["ode"].grow(16)
    assert (err.value.name, err.value.degree) == ("weierstrass-ode", 4)


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
    # The checks that read Delta or Q' reach one order less.
    assert verify_elliptic_identities(order) == {
        "Qprime-ode": order - 1, "Delta-squared": order - 1,
        "B-double-angle": order, "S-double-angle": order - 1,
        "Q-times-B": order, "BrSn-order": order,
    }


def test_q_is_q_squared():
    bf = blowup_functions(14)
    assert bf.q == bf.Q * bf.Q


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
# The reference side is plain Fraction list arithmetic.
ORACLE_ORDER = 96


def at_x(f, x):
    """The coefficients of a series in t with x set to an integer."""
    return [Fraction(sum(c * x ** i for i, c in enumerate(p.num)), p.den)
            for p in f.coeffs]


def mul(f, g):
    """The product of two Fraction coefficient lists, truncated to the
    shorter."""
    return [sum(f[i] * g[k - i] for i in range(k + 1))
            for k in range(min(len(f), len(g)))]


def inverse(f):
    g = [1 / Fraction(f[0])]
    for n in range(1, len(f)):
        g.append(-sum(f[i] * g[n - i] for i in range(1, n + 1)) / f[0])
    return g


def power(f, n):
    out = [Fraction(1)] + [Fraction(0)] * (len(f) - 1)
    for _ in range(n):
        out = mul(out, f)
    return out


def gaussian(c, order):
    """exp(c t^2/2) through t^(order-1)."""
    return [Fraction(c, 2) ** (k // 2) / math.factorial(k // 2)
            if k % 2 == 0 else Fraction(0) for k in range(order)]


def closed_form(gauss_sign, hyperbolic, odd, order):
    """exp(gauss_sign t^2/2) times cosh t, sinh t (hyperbolic) or cos t,
    sin t (odd picks sinh / sin), through t^(order-1)."""
    trig = [0] * order
    for k in range(odd, order, 2):
        sign = 1 if hyperbolic or (k // 2) % 2 == 0 else -1
        trig[k] = Fraction(sign, math.factorial(k))
    return mul(gaussian(gauss_sign, order), trig)


# (x, gauss_sign, hyperbolic): B = exp(-t^2/2) cosh t at x = 2 and
# exp(t^2/2) cos t at x = -2, and S likewise with sinh, sin.
SIMPLE_TYPE = [(2, -1, True), (-2, 1, False)]


def closed_forms(x, gauss_sign, hyperbolic, order):
    """B, S, Q = tanh t or tan t, q = Q^2, Q' = 1 - (x/2) q (that is
    sech^2 t or sec^2 t) and Delta = exp(gauss_sign t^2) through
    t^(order-1)."""
    B = closed_form(gauss_sign, hyperbolic, 0, order)
    S = closed_form(gauss_sign, hyperbolic, 1, order)
    Q = mul(S, inverse(B))
    q = mul(Q, Q)
    return {"B": B, "S": S, "Q": Q, "q": q,
            "Qprime": [int(k == 0) - Fraction(x, 2) * c
                       for k, c in enumerate(q)],
            "Delta": gaussian(2 * gauss_sign, order)}


@pytest.mark.parametrize("x, gauss_sign, hyperbolic", SIMPLE_TYPE)
def test_simple_type_closed_forms_at_x_plus_minus_2(x, gauss_sign,
                                                     hyperbolic):
    bf = blowup_functions(ORACLE_ORDER)
    want = closed_forms(x, gauss_sign, hyperbolic, ORACLE_ORDER)
    for name in ("B", "S", "Q", "q", "Qprime", "Delta"):
        got = at_x(getattr(bf, name), x)
        # Delta and Q' are one order shorter than the build order.
        assert len(got) >= ORACLE_ORDER - 1
        assert got == want[name][:len(got)], name


# The q-basis weights B^(-a) (2-xq)^(-s) Q^i Q'^j q^k at x = +-2 are
# exp(a t^2/2) cosh^(2s-a) t 2^(-s) tanh^(i+2k) t sech^(2j) t, and the
# same with cos, tan and exp(-a t^2/2) at x = -2.  The reference builds
# them from the closed forms above, without the engine's product tables.
WEIGHT_A = (-12, -7, -4, -1, 0, 1, 3, 8, 12)
WEIGHT_ORDER = 24


@pytest.mark.parametrize("x, gauss_sign, hyperbolic", SIMPLE_TYPE)
def test_q_basis_weights_match_closed_forms_at_x_plus_minus_2(
        x, gauss_sign, hyperbolic):
    f = closed_forms(x, gauss_sign, hyperbolic, WEIGHT_ORDER)
    Binv = inverse(f["B"])
    inv_2mxq = inverse([2 * int(k == 0) - x * c
                        for k, c in enumerate(f["q"])])
    for a in WEIGHT_A:
        bpow = power(f["B"], -a) if a <= 0 else power(Binv, a)
        for s in range(4):
            head = mul(bpow, power(inv_2mxq, s))
            for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)):
                want = mul(head, mul(power(f["Q"], i), power(f["Qprime"], j)))
                for k in range(4):
                    got = weight_series(a, s, (i, j), k, WEIGHT_ORDER)
                    assert at_x(got, x) == want, (a, s, (i, j), k)
                    want = mul(want, f["q"])


@pytest.mark.parametrize("name", ["B", "S", "Delta", "Q", "q", "Qprime"])
def test_blowup_series_are_hurwitz_over_z_x(name):
    """k! f[k] has integer coefficients in x for every stored series,
    through t^80 at least."""
    f = getattr(blowup_functions(ORACLE_ORDER), name)
    assert f.order >= 81
    for k, c in enumerate(f.coeffs):
        assert math.factorial(k) % c.den == 0, k


# A wrong base coefficient, x added to the t^k coefficient of one series
# of a new graph once it is grown through t^k, and the first t-power and
# residual (lhs - rhs) each identity reading that series then shows.
PLANTED = [
    # Q'[4] = 5 Q[5] gains 5x, so Q'^2 gains 2 Q'[0] 5x at t^4.
    ("Q", 5, "Qprime-ode", 4, 10 * X),
    ("Q", 5, "Q-times-B", 5, X),
    # Delta^2 gains 2 Delta[0] x at t^2, and Delta S B gains x at t^3.
    ("Delta", 2, "Delta-squared", 2, 2 * X),
    ("Delta", 2, "S-double-angle", 3, -2 * X),
    # B(2t) gains 2^4 x at t^4, and B^4 gains 4x.
    ("B", 4, "B-double-angle", 4, 12 * X),
]


@pytest.mark.parametrize("series, k, name, degree, residual", PLANTED)
def test_planted_coefficient_fails_its_identity(series, k, name, degree,
                                                residual):
    graph = _build()
    graph[series].grow(k + 1)
    # A nonzero coefficient, so the series' nonzero index list stays true.
    assert k in graph[series].nonzero
    graph[series].coeffs[k] += X
    with pytest.raises(IdentityError) as err:
        graph[name].grow(16)
    assert (err.value.name, err.value.degree) == (name, degree)
    assert err.value.coefficient == residual
