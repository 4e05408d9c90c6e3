"""Blowup power series from Weierstrass data.

Builds the series B, S, Delta, Q, q, Q' used by the blowup calculus,
machine-checks the identities they satisfy, and owns the products of
them the rest of the calculus multiplies: the q-basis weight_series
B^(-a) (2-xq)^(-s) Q^i Q'^j q^k and its triangular solver against
cosh/sinh(t alpha).  The curve data is

    g2 = 4(x^2/3 - 1),      g3 = (8x^3 - 36x)/27,

the Weierstrass p-function is recovered from its Laurent recurrence, a
symmetric sum of products computed by rings.sum_of_products, and

    S = exp(-t^2 x/6) * sigma(t),
    B = exp(-t^2 x/6) * sigma3(t),   sigma3 = sigma * sqrt(p - e3),

with e3 = -x/3 the rational root of 4y^3 - g2 y - g3.  Every series is
a rings.Series, the one value here that changes: the blowup series are
one graph of them, each power of a base series is one more, and each
product of them is one more, its prefix's product times its last
factor.  So is each identity checked, a Series of the graph whose
coefficients are zero or raise IdentityError: the Weierstrass ODE, the
normalization, and the identities of verify_elliptic_identities.  Each
grows in place to the deepest order asked for, so each coefficient is
computed and checked once per process.
"""

from __future__ import annotations

from functools import lru_cache

from .rings import (
    P_ONE,
    P_ZERO,
    AlphaPoly,
    PolyX,
    Series,
    SeriesT,
    exp,
    factorial,
    power,
    product as series_product,
    rat,
    sum_of_products,
)
from .record import Record

G2 = PolyX((rat(-4), rat(0), rat(4, 3)))
G3 = PolyX((rat(0), rat(-36, 27), rat(0), rat(8, 27)))
E3 = PolyX((rat(0), rat(-1, 3)))


class IdentityError(AssertionError):
    """A series identity the calculus relies on failed to hold."""

    def __init__(self, name, degree, coefficient):
        self.name = name
        self.degree = degree
        self.coefficient = coefficient
        super().__init__(
            "identity %r fails first at t^%d with coefficient %r"
            % (name, degree, coefficient)
        )


class BlowupFunctions(Record):
    """The series B, S, Delta, Q, q, Q' (SeriesT) truncated at `order`;
    Delta and Q' carry one order less."""

    __slots__ = ("B", "S", "Delta", "Q", "q", "Qprime", "order")


def _identity(name: str, residual) -> Series:
    """The check that `residual(k)`, the t^k coefficient of an
    identity's lhs - rhs, vanishes: each coefficient is zero or raises
    IdentityError."""

    def rule(k):
        c = residual(k)
        if c:
            raise IdentityError(name, k, c)
        return P_ZERO
    return Series(rule)


def _build() -> dict:
    """A new graph of Series, by name: wp = z^2 p, B, S, Delta, Q, q,
    Qprime, "2-xq" = 2 - xq (B and 2 - xq are the bases of the power
    factors of weight_series), and the checks, whose
    coefficients are zero or raise IdentityError: "ode", the Weierstrass
    ODE of p; "normalization", B = 1 + O(t^4) even and S = t + O(t^3)
    odd; and the identities of verify_elliptic_identities, by name.
    Nothing is computed before it is grown."""
    x = PolyX.x()

    def laurent_rule(k):
        # c_k of p(z) = 1/z^2 + sum_{k>=2} c_k z^{2k-2}, zero below k = 2.
        if k < 2:
            return P_ZERO
        if k == 2:
            return G2 * rat(1, 20)
        if k == 3:
            return G3 * rat(1, 28)
        # c_k = 3/((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_(k-m), each
        # unordered pair of the symmetric sum taken once with weight 6.
        c = laurent.coeffs
        terms = [(6, c[m], c[k - m]) for m in range(2, (k + 1) // 2)]
        if k % 2 == 0:
            terms.append((3, c[k // 2], c[k // 2]))
        return sum_of_products(terms, (2 * k + 1) * (k - 3))
    laurent = Series(laurent_rule)
    # u = z^2 p = 1 + sum_{k>=2} c_k z^(2k)
    u = Series(lambda k: P_ONE if k == 0 else
               P_ZERO if k % 2 else laurent[k // 2])
    # With u = z^2 p, the ODE (p')^2 = 4p^3 - g2 p - g3 times z^6 reads
    # v^2 = 4u^3 - g2 u z^4 - g3 z^6 with v = z u' - 2u.
    v = Series(lambda k: u[k] * (k - 2))
    v2 = series_product(v, v)
    u3 = series_product(series_product(u, u), u)

    def ode_residual(k):
        rhs = 4 * u3[k]
        if k >= 4:
            rhs = rhs - G2 * u[k - 4]
        if k == 6:
            rhs = rhs - G3
        return v2[k] - rhs

    # p - 1/z^2 = sum u_(k+2) z^k is an honest power series; integrate
    # twice: zeta = 1/z - int(p - 1/z^2),  log(sigma/z) = int(zeta - 1/z).
    # S/t = exp(-t^2 x/6) sigma/t is one exp of log(sigma/z) - t^2 x/6.
    s_over_t = exp(Series(
        lambda k: P_ZERO if k < 2 else u[k] * rat(-1, k * (k - 1))
        - (x * rat(1, 6) if k == 2 else P_ZERO)))
    # z^2 (p - e3) has constant term 1, so its principal square root
    # (for B) and the inverse of that (for Q) are one power table each.
    shifted = Series(lambda k: u[k] - E3 if k == 2 else u[k])
    B = series_product(s_over_t, power(shifted, rat(1, 2)))
    S = Series(lambda k: s_over_t[k - 1] if k else P_ZERO)

    def delta_rule(k):
        # Delta = S'B - SB' = sum over a + b = k + 1 of (a - b) S_a B_b.
        s, b = S.grow(k + 2), B.grow(k + 2)
        return sum_of_products([(2 * i - k - 1, s[i], b[k + 1 - i])
                                for i in range(k + 2) if 2 * i != k + 1])
    Delta = Series(delta_rule)
    inv_sqrt = power(shifted, rat(-1, 2))
    Q = Series(lambda k: inv_sqrt[k - 1] if k else P_ZERO)
    q = series_product(Q, Q)
    Qprime = Series(lambda k: Q[k + 1] * (k + 1))

    def normalization_rule(k):
        b, s = B[k], S[k]
        if k < 4 and b != (P_ONE if k == 0 else P_ZERO):
            raise IdentityError("B-normalization", k, b)
        if k < 3 and s != (P_ONE if k == 1 else P_ZERO):
            raise IdentityError("S-normalization", k, s)
        if k % 2 == 1 and b:
            raise IdentityError("B-even", k, b)
        if k % 2 == 0 and s:
            raise IdentityError("S-odd", k, s)
        return P_ZERO

    # The identities every structure equation stands on: each residual
    # is lhs - rhs at t^k, over products of the series above, and B(2t),
    # S(2t) are B_k 2^k, S_k 2^k.
    B2, S2 = series_product(B, B), series_product(S, S)
    B4, S4, S2B2 = (series_product(B2, B2), series_product(S2, S2),
                    series_product(S2, B2))
    q2, Qprime2 = series_product(q, q), series_product(Qprime, Qprime)
    Delta2 = series_product(Delta, Delta)
    DSB = series_product(series_product(Delta, S), B)
    QB = series_product(Q, B)

    identities = {
        "Qprime-ode": lambda k: (Qprime2[k] - (1 if k == 0 else 0)
                                 + x * q[k] - q2[k]),
        "Delta-squared": lambda k: (Delta2[k] - B4[k] + x * S2B2[k]
                                    - S4[k]),
        "B-double-angle": lambda k: B[k] * 2**k - B4[k] + S4[k],
        "S-double-angle": lambda k: S[k] * 2**k - 2 * DSB[k],
        "Q-times-B": lambda k: QB[k] - S[k],
    }
    graph = {"wp": u, "B": B, "S": S, "Delta": Delta, "Q": Q, "q": q,
             "Qprime": Qprime,
             "2-xq": Series(lambda k: (2 if k == 0 else 0) - x * q[k]),
             "ode": _identity("weierstrass-ode", ode_residual),
             "normalization": Series(normalization_rule)}
    graph.update((name, _identity(name, residual))
                 for name, residual in identities.items())
    return graph


@lru_cache(maxsize=None)
def _graph() -> dict:
    """The process's one graph: each coefficient is found once."""
    return _build()


def _grown(graph: dict, order: int) -> BlowupFunctions:
    """B, S, Delta, Q, q, Q' of `graph` at the given order, served once
    the Weierstrass ODE is checked through t^(order+2) and the
    normalization through t^(order-1); the identities are grown only by
    verify_elliptic_identities.  A check that fails keeps every
    coefficient found before it, each exact, and runs again at the next
    growth."""
    # p is checked deeper than the t^(order-1) its integrals need.
    graph["ode"].grow(order + 3)
    graph["normalization"].grow(order)
    return BlowupFunctions(
        B=graph["B"].at(order), S=graph["S"].at(order),
        Delta=graph["Delta"].at(order - 1), Q=graph["Q"].at(order),
        q=graph["q"].at(order), Qprime=graph["Qprime"].at(order - 1),
        order=order)


@lru_cache(maxsize=None)
def blowup_functions(order: int) -> BlowupFunctions:
    """B, S, Delta, Q, q, Q' at the given truncation order, checked.
    Every order is read from the one graph (see _graph), so a deeper
    order computes and checks only the coefficients no shallower one
    reached."""
    if order < 8:
        raise ValueError("order must be at least 8")
    return _grown(_graph(), order)


@lru_cache(maxsize=None)
def _table(prefix, factor) -> Series:
    """The product of `prefix`, a table (None: the empty product), and
    `factor`, shared by every product that begins with these factors.
    A factor is a base series of the graph by name, or a pair (name,
    alpha): that series to the int power alpha, one rings.power table
    (the base series itself for alpha = 1)."""
    if prefix is not None:
        return series_product(prefix, _table(None, factor))
    if isinstance(factor, str):
        return _graph()[factor]
    name, alpha = factor
    return _graph()[name] if alpha == 1 else power(_graph()[name], alpha)


def product(factors, order: int) -> SeriesT:
    """The product of `factors` (see _table), factor by factor in that
    order, at the given order, once the blowup series are checked one
    order deeper (Delta and Qprime read one coefficient ahead).  The
    prefix tables are grown shortest first, so each finds its prefix at
    the order already and no growth recurses down the chain."""
    blowup_functions(max(8, order + 1))
    table = None
    for factor in factors:
        table = _table(table, factor)
        table.grow(order)
    return SeriesT((P_ONE,), order) if table is None else table.at(order)


def weight_series(a: int, s: int, kernel, k: int, order: int) -> SeriesT:
    """B^(-a) (2-xq)^(-s) Q^i Q'^j q^k at the given order, kernel (i, j)
    in {0, 1}^2.  By S = QB and Delta = Q'B^2 this holds the model series,
    the embedded basis (both at a = -n, s = 0) and the immersed weights.
    The factors come in that order: B^(-a) and (2-xq)^(-s) one power
    table each, then Q, Q' and q one by one, so each q^k term is the one
    before it times q."""
    return product(tuple((name, -e) for name, e in (("B", a), ("2-xq", s))
                         if e)
                   + ("Q",) * kernel[0] + ("Qprime",) * kernel[1]
                   + ("q",) * k, order)


def triangular_solve(weights, parity: int):
    """The AlphaPoly c_j with sum_i c_i weights[i] equal to cosh(t alpha)
    (parity 0) or sinh(t alpha) (parity 1), i.e. alpha^k / k!, at t^k for
    k = 2j + parity and j < len(weights).  weights[i] has no
    t^(2j+parity) term for j < i, and each diagonal entry must be a unit
    (nonzero constant), else ValueError."""
    out = []
    for j, w in enumerate(weights):
        tp = 2 * j + parity
        diag = w[tp]
        if not diag.is_unit():
            raise ValueError("diagonal %r at t^%d is not a unit" % (diag, tp))
        inv = rat(1) / diag.constant()
        out.append(AlphaPoly.combination(
            [(weights[i][tp] * -inv, out[i]) for i in range(j)]
            + [(PolyX.const(inv / factorial(tp)), AlphaPoly.gen(tp))]))
    return out


def verify_elliptic_identities(order: int) -> dict:
    """Check every series identity of the calculus at the given order;
    raises IdentityError on failure.

    The Q'-ODE Q'^2 = 1 - xq + q^2, Delta^2 = B^4 - x S^2 B^2 + S^4, the
    double angles B(2t) = B^4 - S^4 and S(2t) = 2 Delta S B, and QB = S
    are checks of the one graph (see _build), grown through t^(order-2)
    where they read Delta or Q' and through t^(order-1) otherwise, so a
    deeper order checks only the coefficients no shallower one reached.
    Returns a report mapping identity names to the order through which
    the residual was confirmed to vanish.
    """
    bf = blowup_functions(order)
    graph = _graph()
    report = {}
    for name, depth in (("Qprime-ode", order - 1),
                        ("Delta-squared", order - 1),
                        ("B-double-angle", order),
                        ("S-double-angle", order - 1),
                        ("Q-times-B", order)):
        graph[name].grow(depth)
        report[name] = depth

    for n in range(0, 9):
        # only t^0..t^(n+1) are read, and they depend on B, S through t^(n+1)
        top = min(n + 2, bf.order)
        b, s = bf.B.truncate(top), bf.S.truncate(top)
        f = s**n
        for r in range(0, 9):
            if r:
                f = f * b  # b^r s^n
            for k in range(min(n + 2, f.order)):
                expected = P_ONE if k == n else P_ZERO
                if f[k] != expected:
                    raise IdentityError("BrSn-order(r=%d,n=%d)" % (r, n), k, f[k])
    report["BrSn-order"] = bf.order

    return report
