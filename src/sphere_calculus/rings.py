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

    def rat(num=0, den=1):
        return _mpq(num, den)

    _RAT_TYPES = (type(_mpq(0)), int)
except ImportError:  # pragma: no cover - gmpy2 is normally present
    from fractions import Fraction as _mpq

    def rat(num=0, den=1):
        return _mpq(num, den)

    _RAT_TYPES = (_mpq, int)

ZERO = rat(0)
ONE = rat(1)
_RAT = type(ZERO)

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

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

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
        out = PolyX.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, value):
        """Evaluate at a rational value (Horner)."""
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self):
        return "PolyX(%s)" % (format_polyx(self),)


def _as_polyx(v):
    if isinstance(v, PolyX):
        return v
    if isinstance(v, _RAT_TYPES):
        return PolyX.const(v)
    return NotImplemented


P_ZERO = PolyX()
P_ONE = PolyX.const(1)
P_X = PolyX.x()


def format_polyx(p: PolyX, var: str = "x") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if not c:
            continue
        if i == 0:
            term = rat_to_str(c)
        else:
            xs = var if i == 1 else "%s^%d" % (var, i)
            if c == 1:
                term = xs
            elif c == -1:
                term = "-" + xs
            else:
                term = "%s*%s" % (rat_to_str(c), xs)
        parts.append(term)
    s = parts[0]
    for term in parts[1:]:
        s += " - " + term[1:] if term.startswith("-") else " + " + term
    return s


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

    @staticmethod
    def t(order: int) -> "SeriesT":
        return SeriesT((P_ZERO, P_ONE), order)

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
        out = SeriesT.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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

    def even_part(self) -> "SeriesT":
        return SeriesT(
            tuple(c if k % 2 == 0 else P_ZERO for k, c in enumerate(self.coeffs)),
            self.order,
        )

    def odd_part(self) -> "SeriesT":
        return SeriesT(
            tuple(c if k % 2 == 1 else P_ZERO for k, c in enumerate(self.coeffs)),
            self.order,
        )

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append("(%s)t^%d" % (format_polyx(c), k))
            if len(terms) >= 6:
                terms.append("...")
                break
        return "SeriesT[%s + O(t^%d)]" % (" + ".join(terms) or "0", self.order)


def series_inverse(f: SeriesT) -> SeriesT:
    return f.inverse()


def series_sqrt(f: SeriesT) -> SeriesT:
    return f.sqrt()


def series_rescale(f: SeriesT, c) -> SeriesT:
    return f.rescale(c)


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
        out = type(self).const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int):
        """Multiply by symbol^k."""
        if not self.coeffs:
            return self
        return type(self)((P_ZERO,) * k + self.coeffs)

    def __call__(self, value: SeriesT) -> SeriesT:
        """Substitute a series for the symbol."""
        acc = SeriesT.zero(value.order)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def map_coeffs(self, fn):
        return type(self)(tuple(fn(c) for c in self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append("(%s)%s^%d" % (format_polyx(c), self.symbol, i))
        return "%s[%s]" % (type(self).__name__, " + ".join(terms) or "0")


class QPoly(RingPoly):
    """Polynomial in q = Q^2 with PolyX coefficients."""

    __slots__ = ()
    symbol = "q"

    def is_doubly_monic(self) -> bool:
        """Constant and leading coefficients both equal to +-1."""
        if not self.coeffs:
            return False
        lead, const = self.coeffs[-1], self.coeffs[0]
        pm = (P_ONE, -P_ONE)
        return lead in pm and const in pm


class AlphaPoly(RingPoly):
    """Polynomial in the sphere class alpha with PolyX coefficients."""

    __slots__ = ()
    symbol = "a"

    def alpha_parity_is(self, parity: int) -> bool:
        """True when every nonzero coefficient sits on the given parity."""
        return all(
            not c for i, c in enumerate(self.coeffs) if i % 2 != parity
        )


class ExactDivisionError(ArithmeticError):
    """Raised when a division that an identity requires to be exact is not."""


def qpoly_exact_div(g: QPoly, f: QPoly) -> QPoly:
    """Divide g by a doubly monic f, requiring a zero remainder.

    When deg g = k + deg f the quotient degree is checked against k.
    """
    if not f.is_doubly_monic():
        raise ExactDivisionError("divisor is not doubly monic")
    if not g:
        return QPoly()
    d = len(f.coeffs) - 1
    lead = f.coeffs[-1]
    inv_lead = P_ONE / lead.constant()
    rem = list(g.coeffs)
    quo = [P_ZERO] * max(len(rem) - d, 0)
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if not c:
            continue
        qc = c * inv_lead
        quo[top - d] = qc
        for j, fj in enumerate(f.coeffs):
            rem[top - d + j] = rem[top - d + j] - qc * fj
    if any(rem):
        raise ExactDivisionError("division not exact")
    result = QPoly(quo)
    k = g.degree - d
    if result.degree > k:
        raise ExactDivisionError(
            "quotient degree %s exceeds the bound %s" % (result.degree, k)
        )
    return result


def qpoly_bezout_check(f: QPoly, g: QPoly, phi1: QPoly, phi2: QPoly, C: PolyX) -> bool:
    """True iff f*phi1 + g*phi2 equals the constant C exactly."""
    return f * phi1 + g * phi2 == QPoly.const(C)


def factorial(n: int):
    return rat(math.factorial(n))
