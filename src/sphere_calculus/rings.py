"""Exact arithmetic foundation: rationals, polynomials in x, truncated
power series in t, and polynomials in q.

All coefficients are exact rationals (gmpy2.mpq when available, else
fractions.Fraction).  Every container here is immutable after
construction; all operations return new values.
"""

from __future__ import annotations

import math

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


def rat_from_str(s: str):
    """Parse "num/den" or plain integer strings."""
    if "/" in s:
        num, den = s.split("/")
        return rat(int(num), int(den))
    return rat(int(s))


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


class PolyX:
    """Dense polynomial in the point-class symbol x over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, _RAT_TYPES):
            coeffs = (rat(coeffs),)
        self.coeffs = _strip(tuple(c if type(c) is _RAT else rat(c) for c in coeffs))

    @staticmethod
    def const(c) -> "PolyX":
        return PolyX((rat(c),))

    @staticmethod
    def x(power: int = 1) -> "PolyX":
        return PolyX((ZERO,) * power + (ONE,))

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def constant(self):
        return self[0]

    def is_unit(self) -> bool:
        """Invertible in PolyX: a nonzero constant."""
        return len(self.coeffs) == 1

    def __eq__(self, other):
        other = _as_polyx(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return PolyX(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = _as_polyx(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return PolyX(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_polyx(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_polyx(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, _RAT_TYPES):
            c = rat(other)
            return PolyX(tuple(a * c for a in self.coeffs))
        other = _as_polyx(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyX()
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return PolyX(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RAT_TYPES):
            c = rat(other)
            return PolyX(tuple(a / c for a in self.coeffs))
        if isinstance(other, PolyX) and other.is_unit():
            return self / other.constant()
        return NotImplemented

    def __pow__(self, n: int):
        return _power(self, n, P_ONE)

    def __repr__(self):
        return "PolyX(%s)" % ", ".join(map(rat_to_str, self.coeffs))


def _power(base, n: int, one):
    """base**n by square-and-multiply, for n >= 0."""
    if n < 0:
        raise ValueError("negative exponent %d" % n)
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def _as_polyx(v):
    if isinstance(v, PolyX):
        return v
    if isinstance(v, _RAT_TYPES):
        return PolyX.const(v)
    return NotImplemented


P_ZERO = PolyX()
P_ONE = PolyX.const(1)


class SeriesT:
    """Power series in t truncated at a known order.

    coeffs[k] is the PolyX coefficient of t^k for k < order; coefficients
    of degree >= order are unknown.  Binary operations truncate to the
    smaller order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int):
        coeffs = tuple(_as_polyx(c) for c in coeffs)
        if len(coeffs) < order:
            coeffs = coeffs + (P_ZERO,) * (order - len(coeffs))
        self.coeffs = coeffs[:order]
        self.order = order

    @staticmethod
    def zero(order: int) -> "SeriesT":
        return SeriesT((), order)

    @staticmethod
    def one(order: int) -> "SeriesT":
        return SeriesT((P_ONE,), order)

    def __getitem__(self, k: int) -> PolyX:
        if k >= self.order:
            raise IndexError("coefficient %d beyond series order %d" % (k, self.order))
        return self.coeffs[k]

    def truncate(self, order: int) -> "SeriesT":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return SeriesT(self.coeffs[:order], order)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def valuation(self):
        """Order of the lowest known nonzero term (-1 if none known)."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return -1

    def __eq__(self, other):
        """Equality of all coefficients through min(order) - 1."""
        if not isinstance(other, SeriesT):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[:n] == other.coeffs[:n]

    def __hash__(self):
        raise TypeError("SeriesT equality is order-relative; not hashable")

    def __neg__(self):
        return SeriesT(tuple(-c for c in self.coeffs), self.order)

    def __add__(self, other):
        if isinstance(other, SeriesT):
            n = min(self.order, other.order)
            return SeriesT(
                tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])), n
            )
        p = _as_polyx(other)
        if p is NotImplemented:
            return NotImplemented
        out = list(self.coeffs)
        if self.order > 0:
            out[0] = out[0] + p
        return SeriesT(out, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, SeriesT) else -_as_polyx(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SeriesT):
            n = min(self.order, other.order)
            out = [P_ZERO] * n
            for i in range(n):
                ai = self.coeffs[i]
                if not ai:
                    continue
                for j in range(n - i):
                    bj = other.coeffs[j]
                    if bj:
                        out[i + j] = out[i + j] + ai * bj
            return SeriesT(out, n)
        if isinstance(other, _RAT_TYPES) or isinstance(other, PolyX):
            p = _as_polyx(other)
            return SeriesT(tuple(c * p for c in self.coeffs), self.order)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, SeriesT.one(self.order))

    def shift(self, k: int) -> "SeriesT":
        """Multiply by t^k; the known window moves up with the series."""
        return SeriesT((P_ZERO,) * k + self.coeffs, self.order + k)

    def derivative(self) -> "SeriesT":
        out = tuple((i + 1) * rat(1) * self.coeffs[i + 1] for i in range(self.order - 1))
        return SeriesT(out, self.order - 1)

    def integral(self) -> "SeriesT":
        """Formal antiderivative with zero constant term."""
        out = [P_ZERO] * (self.order + 1)
        for i, c in enumerate(self.coeffs):
            out[i + 1] = c * rat(1, i + 1)
        return SeriesT(out, self.order + 1)

    def rescale(self, c) -> "SeriesT":
        """f(t) -> f(c*t)."""
        c = rat(c)
        power = ONE
        out = []
        for a in self.coeffs:
            out.append(a * power)
            power *= c
        return SeriesT(out, self.order)

    def inverse(self) -> "SeriesT":
        """Multiplicative inverse; requires an invertible constant term."""
        if self.order == 0 or not self.coeffs[0].is_unit():
            raise ValueError("series not a unit")
        inv0 = P_ONE / self.coeffs[0]
        out = [inv0]
        for n in range(1, self.order):
            acc = P_ZERO
            for i in range(1, n + 1):
                if self.coeffs[i]:
                    acc = acc + self.coeffs[i] * out[n - i]
            out.append(-acc * inv0)
        return SeriesT(out, self.order)

    def sqrt(self) -> "SeriesT":
        """Principal square root; requires constant term 1."""
        if self.order == 0 or self.coeffs[0] != P_ONE:
            raise ValueError("series sqrt requires constant term 1")
        out = [P_ONE]
        half = rat(1, 2)
        for n in range(1, self.order):
            acc = self.coeffs[n]
            for i in range(1, n):
                acc = acc - out[i] * out[n - i]
            out.append(acc * half)
        return SeriesT(out, self.order)

    def exp(self) -> "SeriesT":
        """exp of a series with zero constant term."""
        if self.order > 0 and self.coeffs[0]:
            raise ValueError("series exp requires zero constant term")
        # g' = f' g determines g coefficient by coefficient
        out = [P_ONE]
        for n in range(1, self.order):
            acc = P_ZERO
            for i in range(1, n + 1):
                acc = acc + (i * rat(1)) * self.coeffs[i] * out[n - i]
            out.append(acc * rat(1, n))
        return SeriesT(out, self.order)

    def __repr__(self):
        return "SeriesT(%r, order=%d)" % (list(self.coeffs), self.order)


class RingPoly:
    """Dense polynomial over PolyX in one extra symbol (q or alpha)."""

    __slots__ = ("coeffs",)
    symbol = "?"

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (PolyX,) + _RAT_TYPES):
            coeffs = (coeffs,)
        self.coeffs = _strip(tuple(_as_polyx(c) for c in coeffs))

    @classmethod
    def const(cls, c):
        return cls((_as_polyx(c),))

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
            return self.symbol == other.symbol and self.coeffs == other.coeffs
        if isinstance(other, (PolyX,) + _RAT_TYPES):
            return self.coeffs == type(self)(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.symbol, self.coeffs))

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

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
            out[i] = out[i] + c
        return type(self)(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (PolyX,) + _RAT_TYPES):
            p = _as_polyx(other)
            return type(self)(tuple(c * p for c in self.coeffs))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return type(self)()
        out = [P_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        return type(self)(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, type(self).const(1))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, list(self.coeffs))


class QPoly(RingPoly):
    """Polynomial in q = Q^2 with PolyX coefficients."""

    __slots__ = ()
    symbol = "q"


class AlphaPoly(RingPoly):
    """Polynomial in the sphere class alpha with PolyX coefficients."""

    __slots__ = ()
    symbol = "a"

    def alpha_parity_is(self, parity: int) -> bool:
        """True when every nonzero coefficient sits on the given parity."""
        return all(
            not c for i, c in enumerate(self.coeffs) if i % 2 != parity
        )


def qpoly_bezout_check(f: QPoly, g: QPoly, phi1: QPoly, phi2: QPoly, C: PolyX) -> bool:
    """True iff f*phi1 + g*phi2 equals the constant C exactly."""
    return f * phi1 + g * phi2 == QPoly.const(C)


def factorial(n: int):
    return rat(math.factorial(n))
