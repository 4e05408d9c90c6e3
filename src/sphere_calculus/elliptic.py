"""Blowup power series from Weierstrass data.

Builds the series B, S, Delta, Q, q used by the blowup calculus,
machine-checks the identities they satisfy, and owns the products of
them the rest of the calculus multiplies: the q-basis weight_series
B^(-a) (2-xq)^(-s) Q^i Q'^j q^k and its triangular solver against
cosh/sinh(t alpha).  The curve data is

    g2 = 4(x^2/3 - 1),      g3 = (8x^3 - 36x)/27,

the Weierstrass p-function is recovered from its Laurent recurrence, a
symmetric sum of products computed by rings.sum_of_products, and

    S = exp(-t^2 x/6) * sigma(t),
    B = exp(-t^2 x/6) * sigma3(t),   sigma3 = sigma * sqrt(p - e3),

with e3 = -x/3 the rational root of 4y^3 - g2 y - g3.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from operator import mul

from .rings import (
    P_ONE,
    P_ZERO,
    AlphaPoly,
    PolyX,
    SeriesT,
    factorial,
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

    def truncate(self, order: int) -> "BlowupFunctions":
        return BlowupFunctions(
            B=self.B.truncate(order), S=self.S.truncate(order),
            Delta=self.Delta.truncate(order - 1), Q=self.Q.truncate(order),
            q=self.q.truncate(order), Qprime=self.Qprime.truncate(order - 1),
            order=order,
        )


def _wp_laurent_coeffs(order: int):
    """Coefficients c_k of p(z) = 1/z^2 + sum_{k>=2} c_k z^{2k-2}."""
    kmax = order // 2 + 2
    c = {2: G2 * rat(1, 20), 3: G3 * rat(1, 28)}
    for k in range(4, kmax + 1):
        # c_k = 3/((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_(k-m), each
        # unordered pair of the symmetric sum taken once with weight 6.
        terms = [(6, c[m], c[k - m]) for m in range(2, (k + 1) // 2)]
        if k % 2 == 0:
            terms.append((3, c[k // 2], c[k // 2]))
        c[k] = sum_of_products(terms, (2 * k + 1) * (k - 3))
    return c


def wp_series(order: int) -> SeriesT:
    """z^2 * p(z) as a series, verified against the Weierstrass ODE."""
    if order < 8:
        raise ValueError("order must be at least 8")
    c = _wp_laurent_coeffs(order)
    coeffs = [P_ZERO] * order
    coeffs[0] = P_ONE
    for k, ck in c.items():
        if 2 * k < order:
            coeffs[2 * k] = ck
    u = SeriesT(coeffs, order)
    _check_wp_ode(u, order)
    return u


def _check_wp_ode(u: SeriesT, order: int):
    # With u = z^2 p, the ODE (p')^2 = 4p^3 - g2 p - g3 times z^6 reads
    # (z u' - 2u)^2 = 4u^3 - g2 u z^4 - g3 z^6.
    zu_prime = u.derivative().shift(1).truncate(order - 1)
    lhs = (zu_prime - 2 * u.truncate(order - 1)) ** 2
    rhs = 4 * u**3 - (u * G2).shift(4) - SeriesT.one(order).shift(6) * G3
    _require_zero(lhs - rhs, "weierstrass-ode")


def _require_zero(residual: SeriesT, name: str):
    for k, coeff in enumerate(residual.coeffs):
        if coeff:
            raise IdentityError(name, k, coeff)


@lru_cache(maxsize=None)
def blowup_functions(order: int) -> BlowupFunctions:
    """B, S, Delta, Q, q, Q' at the given truncation order, served by
    truncation from the deepest build so far (see SeriesTable)."""
    if order < 8:
        raise ValueError("order must be at least 8")
    return _blowup_table().term(0, order)


@lru_cache(maxsize=None)
def _blowup_table():
    return SeriesTable(lambda order: ((build_blowup_functions(order),), None))


def build_blowup_functions(order: int) -> BlowupFunctions:
    """Construct B, S, Delta, Q, q, Q' at the given truncation order and
    check their normalization."""
    if order < 8:
        raise ValueError("order must be at least 8")
    # Work a little deeper internally so that derivatives and the two
    # formal integrations still deliver full precision at `order`.
    work = order + 4
    u = wp_series(work)

    # p - 1/z^2 is an honest power series; integrate twice:
    # zeta = 1/z - int(p - 1/z^2),  log(sigma/z) = int(zeta - 1/z).
    p_reg = SeriesT(u.coeffs[2:], work - 2)  # p - 1/z^2, coefficient of z^k
    log_sigma_over_z = -p_reg.integral().integral()
    sigma_over_z = log_sigma_over_z.exp().truncate(work)

    # z^2 (p - e3) has constant term 1; principal square root.
    shifted = u - SeriesT.one(work).shift(2).truncate(work) * E3
    sqrt_part = shifted.sqrt()

    gauss = SeriesT((P_ZERO, P_ZERO, -PolyX.x() * rat(1, 6)), work).exp()

    s_over_t = gauss * sigma_over_z
    B = (gauss * sigma_over_z * sqrt_part).truncate(order)
    S = s_over_t.shift(1).truncate(order)

    Sp = S.derivative()
    Bp = B.derivative()
    Delta = (Sp * B - S * Bp).truncate(order - 1)
    Q = sqrt_part.inverse().shift(1).truncate(order)
    q = (Q * Q).truncate(order)
    Qprime = Q.derivative()
    bf = BlowupFunctions(B=B, S=S, Delta=Delta, Q=Q, q=q, Qprime=Qprime, order=order)
    _check_normalization(bf)
    return bf


class SeriesTable:
    """The terms of one geometric sequence of series, first * ratio^i,
    all kept at the deepest order asked for so far.  This is the only
    place that decides whether to build at an order or truncate to it.

    `build(order)` returns (initial terms, ratio) at that order; every
    further term is the one before it times the ratio, appended once.
    A deeper order rebuilds the table there.  A shallower order is served
    by the term's `truncate`: the series are exact, so truncating a
    deeper product gives the same coefficients as building at the
    shallower order.  A table of one term (no ratio) holds any value
    with a `truncate(order)`, such as BlowupFunctions.
    """

    def __init__(self, build):
        self._build = build
        self._order = -1
        self._terms = []
        self._ratio = None

    def term(self, i: int, order: int):
        if i < 0:
            raise ValueError("term index must be nonnegative")
        if order > self._order:
            terms, self._ratio = self._build(order)
            self._terms = list(terms)
            self._order = order
        terms = self._terms
        while len(terms) <= i:
            terms.append(terms[-1] * self._ratio)
        f = terms[i]
        return f if order == self._order else f.truncate(order)


def _powers_of(name: str, order: int):
    """The terms 1, f and the ratio f of the powers of a named series."""
    # Delta and Qprime are one order shorter than the build order.
    bf = blowup_functions(max(8, order + 1))
    if name == "Binv":
        f = bf.B.inverse()
    elif name == "inv_2mxq":
        f = (2 - bf.q * PolyX.x()).inverse()
    else:
        f = getattr(bf, name)
    f = f.truncate(order)
    return (SeriesT.one(order), f), f


@lru_cache(maxsize=None)
def _power_table(name: str) -> SeriesTable:
    return SeriesTable(partial(_powers_of, name))


def series_power(name: str, k: int, order: int) -> SeriesT:
    """f^k at the given order, for f one of the blowup series B, S,
    Delta, Q, q, Qprime or Binv = 1/B, inv_2mxq = 1/(2 - xq).

    One table per name holds f^0, f^1, ... at the deepest order asked for
    so far, each power built once from the one before it."""
    return _power_table(name).term(k, order)


@lru_cache(maxsize=None)
def _weight_table(a: int, s: int, kernel) -> SeriesTable:
    """The table with first term B^(-a) (2-xq)^(-s) Q^i Q'^j, multiplied
    out from its first nonzero factor, and ratio q."""
    exponents = (("B" if a <= 0 else "Binv", abs(a)), ("inv_2mxq", s),
                 ("Q", kernel[0]), ("Qprime", kernel[1]))

    def build(order):
        factors = [series_power(name, k, order) for name, k in exponents if k]
        first = reduce(mul, factors) if factors else SeriesT.one(order)
        return (first,), series_power("q", 1, order)
    return SeriesTable(build)


def weight_series(a: int, s: int, kernel, k: int, order: int) -> SeriesT:
    """B^(-a) (2-xq)^(-s) Q^i Q'^j q^k at the given order, kernel (i, j)
    in {0, 1}^2.  By S = QB and Delta = Q'B^2 this holds the model series,
    the embedded basis (both at a = -n, s = 0) and the immersed weights.
    One table per (a, s, kernel) builds each q^k term once."""
    return _weight_table(a, s, kernel).term(k, order)


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


def _check_normalization(bf: BlowupFunctions):
    if bf.B[0] != P_ONE or bf.B[1] or bf.B[2] or bf.B[3]:
        raise IdentityError("B-normalization", 0, bf.B[0])
    if bf.S[0] or bf.S[1] != P_ONE or bf.S[2]:
        raise IdentityError("S-normalization", 1, bf.S[1])
    for k in range(bf.order):
        if k % 2 == 1 and bf.B[k]:
            raise IdentityError("B-even", k, bf.B[k])
        if k % 2 == 0 and bf.S[k]:
            raise IdentityError("S-odd", k, bf.S[k])


def verify_elliptic_identities(bf: BlowupFunctions) -> dict:
    """Check every series identity of the calculus; raises on failure.

    Returns a report mapping identity names to the order through which
    the residual was confirmed to vanish.
    """
    report = {}
    x = PolyX.x()

    ode = bf.Qprime**2 - (1 - x * bf.q + bf.q**2)
    _require_zero(ode, "Qprime-ode")
    report["Qprime-ode"] = ode.order

    delta_sq = bf.Delta**2 - (bf.B**4 - x * bf.S**2 * bf.B**2 + bf.S**4)
    _require_zero(delta_sq, "Delta-squared")
    report["Delta-squared"] = delta_sq.order

    b_double = bf.B.rescale(2) - (bf.B**4 - bf.S**4)
    _require_zero(b_double, "B-double-angle")
    report["B-double-angle"] = b_double.order

    s_double = bf.S.rescale(2) - 2 * bf.Delta * bf.S * bf.B
    _require_zero(s_double, "S-double-angle")
    report["S-double-angle"] = s_double.order

    qb = bf.Q * bf.B - bf.S
    _require_zero(qb, "Q-times-B")
    report["Q-times-B"] = qb.order

    for n in range(0, 9):
        # only t^0..t^(n+1) are read, and they depend on B, S through t^(n+1)
        top = min(n + 2, bf.order)
        b, s = bf.B.truncate(top), bf.S.truncate(top)
        for r in range(0, 9):
            f = b**r * s**n
            for k in range(min(n + 2, f.order)):
                expected = P_ONE if k == n else P_ZERO
                if f[k] != expected:
                    raise IdentityError("BrSn-order(r=%d,n=%d)" % (r, n), k, f[k])
    report["BrSn-order"] = bf.order

    return report
