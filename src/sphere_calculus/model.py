"""Formal evaluation on an n-fold blowup.

A formal expression is a linear combination of monomials

    prod_i e_i^{k_i} * exp(t * sum_i a_i e_i)

in exceptional classes e_1..e_n.  Under a twist pattern (one parity bit
per class) each class evaluates through the blowup moments of B
(untwisted) or S (twisted): the factor e_i^{k_i} exp(a_i t e_i)
contributes the k_i-th derivative of the matching series at a_i t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .elliptic import blowup_functions, series_monomial
from .rings import P_ONE, PolyX, SeriesT, factorial, rat


@dataclass(frozen=True)
class TwistPattern:
    """Parity of w.e_i for each exceptional class in scope."""

    parities: tuple

    def __post_init__(self):
        object.__setattr__(self, "parities", tuple(int(b) & 1 for b in self.parities))

    def __len__(self):
        return len(self.parities)


@dataclass(frozen=True)
class FormalTerm:
    powers: tuple  # k_i, one per class
    exp_weights: tuple  # a_i, one per class

    @property
    def width(self):
        return len(self.powers)


class FormalExpr:
    """Linear combination of formal terms with SeriesT coefficients."""

    def __init__(self, terms, width: int):
        self.width = width
        self.terms = []
        for term, coeff in terms:
            if len(term.powers) != width or len(term.exp_weights) != width:
                raise ValueError("term width mismatch")
            self.terms.append((term, coeff))

    @staticmethod
    def monomial(powers, exp_weights, coeff) -> "FormalExpr":
        powers = tuple(powers)
        return FormalExpr(
            [(FormalTerm(powers, tuple(exp_weights)), coeff)], len(powers)
        )

    @staticmethod
    def exp_sigma(n: int, order: int, weights=None) -> "FormalExpr":
        """exp(t * sum a_i e_i); default weights are all 1."""
        if weights is None:
            weights = (1,) * n
        return FormalExpr.monomial((0,) * n, weights, SeriesT.one(order))

    def __add__(self, other: "FormalExpr") -> "FormalExpr":
        if self.width != other.width:
            raise ValueError("width mismatch")
        return FormalExpr(self.terms + other.terms, self.width)

    def scaled(self, coeff) -> "FormalExpr":
        return FormalExpr([(t, c * coeff) for t, c in self.terms], self.width)


@lru_cache(maxsize=None)
def _derived_series(kind: str, k: int, scale: int, order: int) -> SeriesT:
    bf = blowup_functions(order + k)
    f = bf.B if kind == "B" else bf.S
    for _ in range(k):
        f = f.derivative()
    return f.rescale(rat(scale)).truncate(order)


def moments(kind: str, j: int) -> PolyX:
    """j! times the t^j coefficient of B or S."""
    if j < 0:
        raise ValueError("moment index must be nonnegative")
    bf = blowup_functions(max(8, j + 1))
    f = bf.B if kind == "B" else bf.S
    return f[j] * factorial(j)


def evaluate(expr: FormalExpr, twists: TwistPattern, order: int) -> SeriesT:
    """Evaluate a formal expression under a twist pattern."""
    total = SeriesT.zero(order)
    for term, coeff in expr.terms:
        if len(twists) != term.width:
            raise ValueError("expression references classes not covered by twists")
        value = SeriesT.one(order)
        for parity, k, a in zip(twists.parities, term.powers, term.exp_weights):
            kind = "S" if parity else "B"
            value = value * _derived_series(kind, k, a, order)
        total = total + value * coeff.truncate(min(coeff.order, order))
    return total


@dataclass
class RelationReport:
    ok: bool
    failures: list

    def __bool__(self):
        return self.ok


def verify_relation(lhs: FormalExpr, rhs: FormalExpr, twistset, order: int) -> RelationReport:
    """Model equality over every stated twist pattern, to truncation order."""
    failures = []
    for tw in twistset:
        diff = evaluate(lhs, tw, order) - evaluate(rhs, tw, order)
        for k, c in enumerate(diff.coeffs):
            if c:
                failures.append((tw, k, c))
                break
    return RelationReport(ok=not failures, failures=failures)


@lru_cache(maxsize=None)
def smb_series(n: int, twist_count: int, order: int) -> SeriesT:
    """S^m B^(n-m) at the given order, m = twist_count."""
    return series_monomial(order, S=twist_count, B=n - twist_count)


@lru_cache(maxsize=None)
def smb_insertion_series(n: int, twist_count: int, order: int) -> SeriesT:
    """-Delta S^(m-1) B^(n-m-1) at the given order, m = twist_count."""
    return -series_monomial(
        order, Delta=1, S=twist_count - 1, B=n - twist_count - 1)


def sigma_power_value(n: int, twist_count: int, p: int, order: int) -> PolyX:
    """Model value of (e_1 + ... + e_n)^p with the given number of twisted
    classes: p! times the t^p coefficient of S^m B^(n-m)."""
    if p >= order:
        raise ValueError("order too small for sigma power")
    return smb_series(n, twist_count, order)[p] * factorial(p)


def sigma_power_insertion_value(
    n: int, twist_count: int, p: int, order: int
) -> PolyX:
    """Model value of (e_1+...+e_n)^p (e_i - e_j) where exactly one of
    e_i, e_j is twisted (e_j, by convention) among twist_count twisted
    classes: p! times the t^p coefficient of -Delta S^(m-1) B^(n-m-1)."""
    if twist_count < 1 or twist_count > n - 1:
        raise ValueError("insertion needs one twisted and one untwisted class")
    if p >= order:
        raise ValueError("order too small")
    return smb_insertion_series(n, twist_count, order)[p] * factorial(p)
