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

with e3 = -x/3 the rational root of 4y^3 - g2 y - g3.  Every memo here
is a SeriesTable, kept at the deepest order asked for so far and
extended in place, so each coefficient is computed and checked once per
process: one holds the blowup series, and one per product of base
series holds its prefix's product times its last factor.
"""

from __future__ import annotations

from functools import lru_cache

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


def _wp_laurent_coeffs(order: int, known=None):
    """Coefficients c_k of p(z) = 1/z^2 + sum_{k>=2} c_k z^{2k-2} for
    k <= order // 2 + 2, continuing the dict `known` of lower ones."""
    c = dict(known) if known else {2: G2 * rat(1, 20), 3: G3 * rat(1, 28)}
    for k in range(max(c) + 1, order // 2 + 3):
        # c_k = 3/((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_(k-m), each
        # unordered pair of the symmetric sum taken once with weight 6.
        terms = [(6, c[m], c[k - m]) for m in range(2, (k + 1) // 2)]
        if k % 2 == 0:
            terms.append((3, c[k // 2], c[k // 2]))
        c[k] = sum_of_products(terms, (2 * k + 1) * (k - 3))
    return c


def _extend(known, order: int, coeff) -> SeriesT:
    """The series through t^(order-1) whose coefficients below
    known.order are those of `known` (None: no coefficient known) and
    whose t^k coefficient above is coeff(k)."""
    head = () if known is None else known.coeffs
    return SeriesT(head + tuple([coeff(k) for k in range(len(head), order)]),
                   order)


def wp_series(order: int, work=None) -> SeriesT:
    """z^2 * p(z) as a series, verified against the Weierstrass ODE.

    `work`, a dict, keeps the Laurent coefficients and the products the
    check multiplies out; a deeper call with the same dict continues
    them, and checks only the coefficients no earlier call checked."""
    if order < 8:
        raise ValueError("order must be at least 8")
    work = {} if work is None else work
    old = work.get
    c = _wp_laurent_coeffs(order, old("c"))
    # u = 1 + sum_{k>=2} c_k z^(2k)
    u = _extend(old("u"), order, lambda k: P_ONE if k == 0 else
                P_ZERO if k % 2 else c.get(k // 2, P_ZERO))
    # With u = z^2 p, the ODE (p')^2 = 4p^3 - g2 p - g3 times z^6 reads
    # v^2 = 4u^3 - g2 u z^4 - g3 z^6 with v = z u' - 2u.
    v = _extend(old("v"), order - 1, lambda k: u[k] * (k - 2))
    v2 = v.mul(v, old("v2"))
    u2 = u.mul(u, old("u2"))
    u3 = u2.mul(u, old("u3"))
    start = old("v2").order if "v2" in work else 0
    for k in range(start, v2.order):
        rhs = 4 * u3[k]
        if k >= 4:
            rhs = rhs - G2 * u[k - 4]
        if k == 6:
            rhs = rhs - G3
        if v2[k] != rhs:
            raise IdentityError("weierstrass-ode", k, v2[k] - rhs)
    work.update(c=c, u=u, v=v, v2=v2, u2=u2, u3=u3)
    return u


@lru_cache(maxsize=None)
def blowup_functions(order: int) -> BlowupFunctions:
    """B, S, Delta, Q, q, Q' at the given truncation order.  One build
    extends in place to the deepest order asked for so far and serves a
    shallower one by truncation (see SeriesTable)."""
    if order < 8:
        raise ValueError("order must be at least 8")
    return _blowup_table().at(order)


@lru_cache(maxsize=None)
def _blowup_table():
    work = {}
    return SeriesTable(lambda order, known: build_blowup_functions(order, work))


def build_blowup_functions(order: int, work=None) -> BlowupFunctions:
    """Construct B, S, Delta, Q, q, Q' at the given truncation order and
    check their normalization.

    `work`, a dict, keeps every intermediate series of the build: a call
    with the same dict at a deeper order extends each of them from its
    known coefficients, and checks only the new ones.  A check that
    fails leaves the series it checks as they were."""
    if order < 8:
        raise ValueError("order must be at least 8")
    work = {} if work is None else work
    # p is built and checked a little deeper than the t^(order-1) its
    # integrals need.
    u = wp_series(order + 4, work)
    old = work.get

    # p - 1/z^2 = sum u_(k+2) z^k is an honest power series; integrate
    # twice: zeta = 1/z - int(p - 1/z^2),  log(sigma/z) = int(zeta - 1/z).
    log_sigma_over_z = _extend(
        old("log_sigma_over_z"), order,
        lambda k: u[k] * rat(-1, k * (k - 1)) if k > 1 else P_ZERO)
    sigma_over_z = log_sigma_over_z.exp(old("sigma_over_z"))

    # z^2 (p - e3) has constant term 1; principal square root.
    shifted = _extend(old("shifted"), order,
                      lambda k: u[k] - E3 if k == 2 else u[k])
    sqrt_part = shifted.sqrt(old("sqrt_part"))

    gauss = SeriesT((P_ZERO, P_ZERO, -PolyX.x() * rat(1, 6)),
                    order).exp(old("gauss"))

    s_over_t = gauss.mul(sigma_over_z, old("s_over_t"))
    B = s_over_t.mul(sqrt_part, old("B"))
    S = s_over_t.shift(1).truncate(order)

    # Delta = S'B - SB' = sum over a + b = k + 1 of (a - b) S_a B_b at t^k.
    Delta = _extend(old("Delta"), order - 1, lambda k: sum_of_products(
        [(2 * i - k - 1, S[i], B[k + 1 - i]) for i in range(k + 2)
         if 2 * i != k + 1 and S[i] and B[k + 1 - i]]))
    inv_sqrt_part = sqrt_part.truncate(order - 1).inverse(old("inv_sqrt_part"))
    Q = inv_sqrt_part.shift(1)
    q = Q.mul(Q, old("q"))
    Qprime = _extend(old("Qprime"), order - 1, lambda k: Q[k + 1] * (k + 1))
    bf = BlowupFunctions(B=B, S=S, Delta=Delta, Q=Q, q=q, Qprime=Qprime, order=order)
    _check_normalization(bf, work.get("order", 0))
    work.update(log_sigma_over_z=log_sigma_over_z, sigma_over_z=sigma_over_z,
                shifted=shifted, sqrt_part=sqrt_part, gauss=gauss,
                s_over_t=s_over_t, B=B, Delta=Delta,
                inv_sqrt_part=inv_sqrt_part, q=q, Qprime=Qprime, order=order)
    return bf


class SeriesTable:
    """One value kept at the deepest order asked for so far: the only
    place that decides whether to extend to an order or truncate to it.

    `build(order, known)` returns the value at that order, continuing
    `known`, its value at the previous, shallower order (None at first),
    so each coefficient is computed once.  A shallower order is served by
    the value's `truncate`, exact as the series are.  A build that
    raises leaves the table as it was."""

    def __init__(self, build):
        self._build = build
        self._order = -1
        self._value = None

    def at(self, order: int):
        if order > self._order:
            self._value = self._build(order, self._value)
            self._order = order
        f = self._value
        return f if order == self._order else f.truncate(order)


def _base(name: str, order: int, known) -> SeriesT:
    """The blowup series B, S, Delta, Q, q or Qprime at the given order,
    or Binv = 1/B, inv_2mxq = 1/(2 - xq), continuing the inverse
    `known`."""
    # Delta and Qprime are one order shorter than the build order.
    bf = blowup_functions(max(8, order + 1))
    if name == "Binv":
        return bf.B.truncate(order).inverse(known)
    if name == "inv_2mxq":
        return (2 - bf.q.truncate(order) * PolyX.x()).inverse(known)
    return getattr(bf, name).truncate(order)


@lru_cache(maxsize=None)
def _table(prefix, name: str) -> SeriesTable:
    """The product of `prefix`'s series (None: the empty product) and
    the base series `name`, shared by every product that begins with
    these factors."""

    def build(order, known):
        if prefix is None:
            return _base(name, order, known)
        return prefix.at(order).mul(_table(None, name).at(order), known)
    return SeriesTable(build)


def product(names, order: int) -> SeriesT:
    """The product of the base series `names`, factor by factor in that
    order, at the given order.  The prefix tables are reached shortest
    first, so each build finds its prefix at the order already and no
    build recurses down the chain."""
    f, table = SeriesT.one(order), None
    for name in names:
        table = _table(table, name)
        f = table.at(order)
    return f


def weight_series(a: int, s: int, kernel, k: int, order: int) -> SeriesT:
    """B^(-a) (2-xq)^(-s) Q^i Q'^j q^k at the given order, kernel (i, j)
    in {0, 1}^2.  By S = QB and Delta = Q'B^2 this holds the model series,
    the embedded basis (both at a = -n, s = 0) and the immersed weights.
    The factors come in that order, so each q^k term is the one before
    it times q."""
    return product(("B" if a <= 0 else "Binv",) * abs(a) + ("inv_2mxq",) * s
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


def _require_zero(residual: SeriesT, name: str):
    for k, coeff in enumerate(residual.coeffs):
        if coeff:
            raise IdentityError(name, k, coeff)


def _check_normalization(bf: BlowupFunctions, start: int):
    """B = 1 + O(t^4) and S = t + O(t^3), and the parity of the t^k
    coefficients of B and S for k >= start."""
    if start == 0 and (bf.B[0] != P_ONE or bf.B[1] or bf.B[2] or bf.B[3]):
        raise IdentityError("B-normalization", 0, bf.B[0])
    if start == 0 and (bf.S[0] or bf.S[1] != P_ONE or bf.S[2]):
        raise IdentityError("S-normalization", 1, bf.S[1])
    for k in range(start, bf.order):
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

    B2, S2 = bf.B * bf.B, bf.S * bf.S
    B4, S4 = B2 * B2, S2 * S2
    delta_sq = bf.Delta**2 - (B4 - x * S2 * B2 + S4)
    _require_zero(delta_sq, "Delta-squared")
    report["Delta-squared"] = delta_sq.order

    b_double = bf.B.rescale(2) - (B4 - S4)
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
