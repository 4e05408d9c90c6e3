"""Exact arithmetic foundation: rationals, polynomials in x, truncated
power series in t, and polynomials in the sphere class alpha.

All coefficients are exact rationals.  A polynomial in x stores Python
ints over one common denominator, so its arithmetic is integer
arithmetic; coefficients handed out are gmpy2.mpq when gmpy2 is
installed, else fractions.Fraction.  Every summed product runs through
one kernel, _int_dot, over rows (w, a, d, b): an int weight, two int
numerator sequences and the pair's denominator.  The kernel scales each
row onto the lcm of the rows' d, sums the int convolutions and
reduces once, so each output coefficient lives over the denominators
of its own pairs and no other.  sum_of_products builds the rows of one
coefficient: series products and the exp and power recurrences call
it coefficient by coefficient, each from the ones below, as the rules
of Series, a power series grown on demand; that is how every
series of `elliptic` deepens.  linear_combination builds the rows of
every entry of a weighted sum of sequences: RingPoly.combination and
the engine's other exact linear combinations.  An entry or coefficient
with no nonzero product is zero without a kernel call.
Every container here is immutable after construction, except Series,
which grows in place; all other operations return new values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from math import gcd, lcm

try:
    from gmpy2 import mpq as _mpq
except ImportError:
    from fractions import Fraction as _mpq


def rat(num=0, den=1):
    return _mpq(num, den)


ZERO = rat(0)
ONE = rat(1)
_RAT = type(ZERO)
_RAT_TYPES = (_RAT, int)

NEG_INF = float("-inf")


def rat_to_str(r) -> str:
    r = rat(r)
    if r.denominator == 1:
        return str(r.numerator)
    return "%d/%d" % (r.numerator, r.denominator)


def _strip(coeffs):
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _int_pair(c):
    """(numerator, denominator) of a rational or int as Python ints."""
    if type(c) is int:
        return c, 1
    if type(c) is not _RAT:
        c = rat(c)
    return int(c.numerator), int(c.denominator)


def _sum(p: "PolyX", q: "PolyX", sign: int) -> "PolyX":
    """p + sign * q."""
    a, da = p.num, p.den
    b, db = q.num, q.den
    if not b:
        return p
    if not a:
        return q if sign == 1 else -q
    g = gcd(da, db)
    fa, fb = db // g, da // g * sign
    if fa != 1:
        a = [c * fa for c in a]
    if len(a) < len(b):
        out = [c * fb for c in b]
        for i, c in enumerate(a):
            out[i] += c
    else:
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c * fb
    # A prime that divides the common denominator but not g divides
    # exactly one of da, db and so cannot divide every numerator.
    return _canon(out, da * fa, g != 1)


_new = object.__new__


def _make(num: tuple, den: int) -> "PolyX":
    """The PolyX num/den, which the caller guarantees is canonical."""
    p = _new(PolyX)
    p.num = num
    p.den = den
    return p


def _canon(num, den: int, reduce: bool = True) -> "PolyX":
    """The PolyX num/den for int numerators and a positive denominator:
    trailing zeros stripped and, with `reduce`, the common factor of
    `den` and every numerator divided out."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    if not n:
        return P_ZERO
    if reduce and den != 1:
        g = gcd(den, *num[:n])
        if g != 1:
            return _make(tuple([c // g for c in num[:n]]), den // g)
    return _make(tuple(num[:n]), den)


class PolyX:
    """Dense polynomial in the point-class symbol x over the rationals.

    Stored as Python-int numerators `num` over one positive common
    denominator `den`, in lowest terms: gcd(den, *num) == 1, no trailing
    zero numerator, and the zero polynomial is ((), 1).  Equal
    polynomials therefore have equal (num, den).  Rational coefficients
    are formed only when read through `[]`, `constant()` or `coeffs`.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        if isinstance(coeffs, _RAT_TYPES):
            coeffs = (coeffs,)
        pairs = [_int_pair(c) for c in coeffs]
        den = lcm(*[d for _, d in pairs])
        # Over the lcm of denominators in lowest terms, the numerators
        # have no common factor with it.
        p = _canon([n * (den // d) for n, d in pairs], den, False)
        self.num, self.den = p.num, p.den

    @staticmethod
    def const(c) -> "PolyX":
        return PolyX((c,))

    @staticmethod
    def x(power: int = 1) -> "PolyX":
        return _make((0,) * power + (1,), 1)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as rationals, lowest power first."""
        den = self.den
        return tuple(_mpq(c, den) for c in self.num)

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    def __bool__(self):
        return bool(self.num)

    def __getitem__(self, i: int):
        num = self.num
        return _mpq(num[i], self.den) if 0 <= i < len(num) else ZERO

    def constant(self):
        return self[0]

    def is_unit(self) -> bool:
        """Invertible in PolyX: a nonzero constant."""
        return len(self.num) == 1

    def __eq__(self, other):
        if type(other) is not PolyX:
            other = _as_polyx(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return _make(tuple([-c for c in self.num]), self.den)

    def __add__(self, other):
        if type(other) is not PolyX:
            other = _as_polyx(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not PolyX:
            other = _as_polyx(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other):
        other = _as_polyx(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(other, self, -1)

    def __mul__(self, other):
        if type(other) is not PolyX:
            if isinstance(other, _RAT_TYPES):
                if other == 1:
                    return self
                n, d = _int_pair(other)
                return _canon([c * n for c in self.num], self.den * d)
            other = _as_polyx(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if b == (1,) and other.den == 1:
            return self
        if a == (1,) and self.den == 1:
            return other
        if not a or not b:
            return P_ZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            b0 = b[0]
            return _canon([c * b0 for c in a], self.den * other.den)
        out = [0] * (len(a) + len(b) - 1)
        for j, bj in enumerate(b):
            if bj:
                for i, ai in enumerate(a, j):
                    out[i] += ai * bj
        return _canon(out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RAT_TYPES):
            n, d = _int_pair(other)
            if not n:
                raise ZeroDivisionError("PolyX division by zero")
            if n < 0:
                n, d = -n, -d
            return _canon([c * d for c in self.num], self.den * n)
        return NotImplemented

    def __pow__(self, n: int):
        return _power(self, n, P_ONE)

    def __repr__(self):
        return "PolyX(%s)" % ", ".join(map(rat_to_str, self.coeffs))


def _power(base, n: int, one):
    """base**n for n >= 0, squaring from the lowest set bit of n up."""
    if n < 0:
        raise ValueError("negative exponent %d" % n)
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


def _as_polyx(v):
    if isinstance(v, PolyX):
        return v
    if isinstance(v, _RAT_TYPES):
        return PolyX.const(v)
    return NotImplemented


P_ZERO = _make((), 1)
P_ONE = _make((1,), 1)


def _int_dot(rows, div: int) -> "PolyX":
    """The PolyX (sum of w * a * b / d) / div over the rows (w, a, d, b)
    of `rows`, for an int weight w, int numerator sequences a, b, the
    positive int denominator d of the pair and a positive int div.  Each
    row is scaled onto the lcm of the rows' d as it is convolved, and
    the sum is reduced once with _canon.  This is the one place that
    picks the denominator of a summed product: every series convolution
    and exact linear combination runs through it; a lone PolyX product
    keeps the leaner loop of PolyX.__mul__."""
    den = lcm(*[d for _, _, d, _ in rows])
    acc = []
    for w, a, d, b in rows:
        scale = w * (den // d)
        grow = len(a) + len(b) - 1 - len(acc)
        if grow > 0:
            acc.extend([0] * grow)
        for e, x in enumerate(a):
            if x:
                if scale != 1:
                    x *= scale
                for f, y in enumerate(b, e):
                    acc[f] += x * y
    return _canon(acc, den * div)


def sum_of_products(terms, div: int = 1) -> "PolyX":
    """The PolyX (sum of w * p * q) / div over the (w, p, q) in `terms`,
    for nonzero int weights w, PolyX p, q and a positive int div: one
    _int_dot row per nonzero product, so the sum lives over the lcm of
    its own pair denominators p.den * q.den.  A sum with no nonzero
    product is P_ZERO without a kernel call."""
    rows = [(w, p.num, p.den * q.den, q.num) for w, p, q in terms
            if p.num and q.num]
    return _int_dot(rows, div) if rows else P_ZERO


def linear_combination(terms, size: int) -> list:
    """[sum of w * f[k] over the (w, f) in `terms`] for k < size, with
    PolyX weights w and sequences f of PolyX (zero past their end).  Each
    entry with a nonzero product is one _int_dot over its own rows, built
    directly from the weights' numerators, so it lives over the lcm of
    its own pair denominators; any other entry is P_ZERO."""
    rows = [[] for _ in range(size)]
    for w, f in terms:
        num, den = w.num, w.den
        if num:
            for row, c in zip(rows, f):
                if c.num:
                    row.append((1, num, den * c.den, c.num))
    return [_int_dot(row, 1) if row else P_ZERO for row in rows]


def _series(coeffs, order: int) -> "SeriesT":
    """The series with exactly `order` PolyX coefficients `coeffs`."""
    f = _new(SeriesT)
    f.coeffs = tuple(coeffs)
    f.order = order
    return f


def _product_coefficients(f, nonzero, g, ks) -> list:
    """The t^k coefficients f_0 g_k + ... + f_k g_0 of a product, k in
    `ks`, each over the nonzero f_i (indices ascending in `nonzero`) and
    its own pair denominators (see sum_of_products)."""
    return [sum_of_products([(1, f[i], g[k - i])
                             for i in nonzero[:bisect_right(nonzero, k)]])
            for k in ks]


class SeriesT:
    """A frozen truncation of a power series in t.

    coeffs[k] is the PolyX coefficient of t^k for k < order; coefficients
    of degree >= order are unknown.  A product and `==` go to the smaller
    order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int):
        coeffs = tuple([c if type(c) is PolyX else _as_polyx(c)
                        for c in coeffs])
        if len(coeffs) < order:
            coeffs = coeffs + (P_ZERO,) * (order - len(coeffs))
        self.coeffs = coeffs[:order]
        self.order = order

    def __getitem__(self, k: int) -> PolyX:
        if k >= self.order:
            raise IndexError("coefficient %d beyond series order %d" % (k, self.order))
        return self.coeffs[k]

    def truncate(self, order: int) -> "SeriesT":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return _series(self.coeffs[:order], order)

    def __eq__(self, other):
        """Equality of all coefficients through min(order) - 1."""
        if not isinstance(other, SeriesT):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[:n] == other.coeffs[:n]

    def __hash__(self):
        raise TypeError("SeriesT equality is order-relative; not hashable")

    def __mul__(self, other: "SeriesT") -> "SeriesT":
        n = min(self.order, other.order)
        f, g = self.coeffs, other.coeffs
        nonzero = [i for i in range(n) if f[i]]
        return _series(_product_coefficients(f, nonzero, g, range(n)), n)

    def __pow__(self, n: int):
        return _power(self, n, SeriesT((P_ONE,), self.order))

    def rescale(self, c) -> "SeriesT":
        """f(t) -> f(c*t)."""
        c = rat(c)
        power = ONE
        out = []
        for a in self.coeffs:
            out.append(a * power)
            power *= c
        return SeriesT(out, self.order)

    def __repr__(self):
        return "SeriesT(%r, order=%d)" % (list(self.coeffs), self.order)


class Series:
    """A power series in t grown on demand (M. D. McIlroy, "Power
    series, power serious", J. Functional Programming 9, 1999).

    `rule(k)` gives the PolyX coefficient of t^k from the coefficients
    below it, of this series and of those it reads, which it grows
    first.  `coeffs` lists the coefficients found so far and `nonzero`
    the indices of the nonzero ones; `grow(order)` extends both in place
    through t^(order-1), so each rule runs once per coefficient.  A rule
    that raises leaves the coefficients below it, and is asked again."""

    __slots__ = ("rule", "coeffs", "nonzero")

    def __init__(self, rule):
        self.rule = rule
        self.coeffs = []
        self.nonzero = []

    def grow(self, order: int) -> list:
        """The coefficient list, grown through t^(order-1)."""
        coeffs = self.coeffs
        k = len(coeffs)
        while k < order:
            c = self.rule(k)
            if c:
                self.nonzero.append(k)
            coeffs.append(c)
            k += 1
        return coeffs

    def __getitem__(self, k: int) -> PolyX:
        return self.grow(k + 1)[k]

    def at(self, order: int) -> SeriesT:
        """The truncation through t^(order-1), grown to it first."""
        return _series(self.grow(order)[:order], order)


def product(f: Series, g: Series) -> Series:
    """The product f g, summed over the nonzero f_i only."""
    fc, gc, nonzero = f.coeffs, g.coeffs, f.nonzero

    def rule(k):
        f.grow(k + 1)
        g.grow(k + 1)
        return _product_coefficients(fc, nonzero, gc, (k,))[0]
    return Series(rule)


def power(f: Series, alpha) -> Series:
    """f^alpha for an int or rational alpha; growing it raises
    ValueError unless f_0 is a nonzero constant, and f_0 = 1 when alpha
    is not an int."""
    fc, nonzero = f.coeffs, f.nonzero
    a, r = _int_pair(alpha)

    def rule(n):
        f.grow(n + 1)
        f0 = fc[0]
        if n == 0:
            if not f0.is_unit() or (r != 1 and f0 != P_ONE):
                raise ValueError("series power %s of f_0 = %r"
                                 % (rat_to_str(alpha), f0))
            return PolyX.const(f0.constant() ** a)
        # f g' = alpha f' g determines g coefficient by coefficient (J.
        # C. P. Miller's formula; D. E. Knuth, TAOCP Vol. 2, 4.7):
        # n f_0 g_n = sum_(i=1..n) ((alpha+1) i - n) f_i g_(n-i), over the
        # nonzero f_i of nonzero weight, with f_0 = c / d and alpha = a / r;
        # nonzero[0] is 0.
        (c,), d = f0.num, f0.den
        if c < 0:
            c, d = -c, -d
        out = g.coeffs
        return sum_of_products(
            [(((a + r) * i - r * n) * d, fc[i], out[n - i])
             for i in nonzero[1:bisect_right(nonzero, n)]
             if (a + r) * i != r * n], r * n * c)
    g = Series(rule)
    return g


def exp(f: Series) -> Series:
    """exp(f); growing it raises ValueError unless f_0 = 0."""
    fc, nonzero = f.coeffs, f.nonzero

    def rule(n):
        f.grow(n + 1)
        if n == 0:
            if fc[0]:
                raise ValueError("series exp requires zero constant term")
            return P_ONE
        # g' = f' g determines g coefficient by coefficient:
        # g_n = (1 f_1 g_(n-1) + ... + n f_n g_0) / n.
        out = g.coeffs
        return sum_of_products(
            [(i, fc[i], out[n - i])
             for i in nonzero[:bisect_right(nonzero, n)]], n)
    g = Series(rule)
    return g


class RingPoly:
    """Dense polynomial over PolyX in one extra symbol, with sums,
    products by a scalar and weighted sums (combination)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (PolyX,) + _RAT_TYPES):
            coeffs = (coeffs,)
        self.coeffs = _strip(tuple(_as_polyx(c) for c in coeffs))

    @classmethod
    def _of(cls, coeffs):
        """The polynomial with these PolyX coefficients, stripped."""
        p = _new(cls)
        p.coeffs = _strip(coeffs)
        return p

    @classmethod
    def combination(cls, terms):
        """The sum of w * f over the (w, f) in `terms`, for PolyX weights
        w and polynomials f of this ring (see linear_combination)."""
        terms = [(w, f.coeffs) for w, f in terms]
        return cls._of(linear_combination(
            terms, max([len(f) for _, f in terms], default=0)))

    @classmethod
    def gen(cls, power: int = 1):
        return cls((P_ZERO,) * power + (P_ONE,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> PolyX:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else P_ZERO

    def __eq__(self, other):
        if isinstance(other, RingPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (PolyX,) + _RAT_TYPES):
            return self.coeffs == type(self)(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return self._of(tuple([-c for c in self.coeffs]))

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (PolyX,) + _RAT_TYPES):
            return type(self)(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            if c:
                out[i] = out[i] + c
        return self._of(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product by a scalar: a PolyX or a rational."""
        if not isinstance(other, (PolyX,) + _RAT_TYPES):
            return NotImplemented
        p = _as_polyx(other)
        if p.den == 1 and p.num == (1,):
            return self
        return self._of([c * p if c else c for c in self.coeffs])

    __rmul__ = __mul__

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, list(self.coeffs))


class AlphaPoly(RingPoly):
    """Polynomial in the sphere class alpha with PolyX coefficients."""

    __slots__ = ()

    def alpha_parity_is(self, parity: int) -> bool:
        """True when every nonzero coefficient sits on the given parity."""
        return all(
            not c for i, c in enumerate(self.coeffs) if i % 2 != parity
        )


def factorial(n: int):
    return rat(math.factorial(n))
