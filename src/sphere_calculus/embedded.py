"""Structure equations for embedded spheres.

For a sphere of self-intersection -n, each side of parity pi writes
exp(t sigma) as sum_i c_i(sigma) times the q-basis B^n Q^pi Q'^delta q^i
of elliptic.weight_series (delta = epsilon xor pi), rendered as the
S/B/Delta monomials it equals (S = QB, Delta = Q'B^2), in the style of
the explicit low-n formulas.  The c_i come from one triangular solve
against cosh or sinh(t sigma), as the immersed coefficients do.  The
blowup model (sigma = e_1+...+e_n under every admissible twist count,
with and without the (e_i - e_j) insertion) then checks each relation
before derive_embedded returns it.
"""

from __future__ import annotations

from functools import lru_cache

from .elliptic import blowup_functions, triangular_solve, weight_series
from .model import (
    moments,
    sigma_power_insertion_value,
    sigma_power_value,
    smb_insertion_series,
    smb_series,
)
from .record import Record
from .rings import P_ONE, P_ZERO, PolyX, SeriesT, rat


class DerivationError(AssertionError):
    """A derived structure equation disagreed with its check."""


class EmbeddedRelation(Record):
    """exp(t sigma) modulo the kernel, as basis-monomial data.

    Each term is (sigma_power, coeff, (s_exp, b_exp, delta_exp)) and the
    relation reads  exp(t sigma) == sum coeff * sigma^p * S^s B^b Delta^d.
    cosh_terms carry the even sigma powers, sinh_terms the odd ones.
    order is the t-order the relation was model-checked through.
    """

    __slots__ = ("n", "epsilon", "order", "cosh_terms", "sinh_terms")

    def terms(self):
        return self.cosh_terms + self.sinh_terms


def basis_monomials(n: int, epsilon: int, parity: int):
    """Case-table monomials (s_exp, b_exp, delta_exp), by leading order:
    delta_exp = epsilon xor parity, and s_exp runs over sigma_powers."""
    delta = (epsilon ^ parity) & 1
    return [(s, n - s - 2 * delta, delta)
            for s in sigma_powers(n, epsilon, parity)]


@lru_cache(maxsize=None)
def basis_series(n: int, epsilon: int, parity: int, order: int):
    """(monomial, series) pairs of one side's basis: S^s B^b Delta^d is
    the q-basis term B^n Q^parity Q'^d q^(s//2)."""
    return tuple(
        (mono, weight_series(-n, 0, (parity, mono[2]), mono[0] // 2, order))
        for mono in basis_monomials(n, epsilon, parity)
    )


def sigma_powers(n: int, epsilon: int, parity: int):
    """Sigma powers present on one side, honoring the omitted hat terms:
    those of the side's parity up to n, or up to n - 2 when the side
    carries Delta (epsilon xor parity)."""
    return list(range(parity, n - 2 * ((epsilon ^ parity) & 1) + 1, 2))


@lru_cache(maxsize=None)
def derive_embedded(n: int, epsilon: int, order: int = None) -> EmbeddedRelation:
    """Derive the structure equation for an embedded sphere of square -n
    and model-check it through `order` (default 2n + 8) before returning
    it; raises DerivationError when the model disagrees.

    On the side of parity pi, one triangular solve matches cosh or
    sinh(t sigma) against the side's q-basis at the t-powers of parity
    pi; the sigma^p coefficient of the i-th solved c_i(sigma) is the
    coefficient of sigma^p times the i-th basis monomial."""
    if n < 1:
        raise ValueError("n must be positive")
    epsilon &= 1
    if order is None:
        order = 2 * n + 8
    terms = {}
    for parity in (0, 1):
        basis = basis_series(n, epsilon, parity, order)
        coeffs = triangular_solve([f for _, f in basis], parity)
        terms[parity] = tuple(
            (p, c[p], mono) for p in sigma_powers(n, epsilon, parity)
            for (mono, _), c in zip(basis, coeffs) if c[p])
    rel = EmbeddedRelation(n=n, epsilon=epsilon, order=order,
                           cosh_terms=terms[0], sinh_terms=terms[1])
    verify_embedded_relation(rel)
    return rel


def relation_coefficient_series(rel: EmbeddedRelation, order: int):
    """The C_p(t, x) series of the relation, rebuilt from its terms."""
    out = {}
    for p, c, (s, _, d) in rel.terms():
        w = weight_series(-rel.n, 0, (p % 2, d), s // 2, order)
        out[p] = out.get(p, SeriesT.zero(order)) + w * c
    return out


def verify_embedded_relation(rel: EmbeddedRelation):
    """Check the relation against the blowup model through rel.order, for
    every admissible twist count, with and without the (e_i - e_j)
    insertion.

    Raises DerivationError naming the first failing check; returns the
    names of the checks made, in order.
    """
    n, eps, order = rel.n, rel.epsilon, rel.order
    cps = relation_coefficient_series(rel, order)
    checks = []

    def check(name, lhs, value, m):
        rhs = SeriesT.zero(order)
        for p, series in cps.items():
            v = value(n, m, p, order)
            if v:
                rhs = rhs + series * v
        k = (lhs - rhs).valuation()
        if k >= 0:
            raise DerivationError(
                "embedded relation n=%d epsilon=%d fails at %s: residual "
                "at t^%d" % (n, eps, name, k))
        checks.append(name)

    for m in range(eps, n + 1, 2):
        check("twists=%d" % m, smb_series(n, m, order), sigma_power_value, m)
        if 1 <= m <= n - 1:
            check("twists=%d+insertion" % m, smb_insertion_series(n, m, order),
                  sigma_power_insertion_value, m)
    return checks


def specialize_two_e(rel: EmbeddedRelation, twisted: bool, order: int):
    """Evaluate the relation at sigma = 2e on a single blowup.

    Every sigma^p becomes 2^p times the p-th B- or S-moment; the result
    should match B(2t) (untwisted e) or S(2t) (twisted e)."""
    kind = "S" if twisted else "B"
    cps = relation_coefficient_series(rel, order)
    total = SeriesT.zero(order)
    for p, series in cps.items():
        total = total + series * (rat(2) ** p * moments(kind, p))
    return total


_COR24 = {
    # (n, epsilon) -> {(sigma_power, (s,b,d)): coefficient}
    (2, 0): {
        (0, (0, 2, 0)): P_ONE,
        (2, (2, 0, 0)): PolyX.const(rat(1, 2)),
    },
    (2, 1): {
        (0, (0, 0, 1)): P_ONE,
        (1, (1, 1, 0)): P_ONE,
    },
    (3, 0): {
        (0, (0, 3, 0)): P_ONE,
        (1, (1, 0, 1)): P_ONE,
        (2, (2, 1, 0)): PolyX.const(rat(1, 2)),
    },
    (3, 1): {
        (0, (0, 1, 1)): P_ONE,
        (1, (1, 2, 0)): P_ONE,
        (1, (3, 0, 0)): PolyX.x() * rat(1, 6),
        (3, (3, 0, 0)): PolyX.const(rat(1, 6)),
    },
    (4, 0): {
        (0, (0, 4, 0)): P_ONE,
        (0, (4, 0, 0)): PolyX.const(rat(1, 3)),
        (1, (1, 1, 1)): P_ONE,
        (2, (2, 2, 0)): PolyX.const(rat(1, 2)),
        (2, (4, 0, 0)): PolyX.x() * rat(1, 6),
        (4, (4, 0, 0)): PolyX.const(rat(1, 24)),
    },
    (4, 1): {
        (0, (0, 2, 1)): P_ONE,
        (0, (2, 0, 1)): PolyX.x() * rat(1, 2),
        (1, (1, 3, 0)): P_ONE,
        (1, (3, 1, 0)): PolyX.x() * rat(1, 6),
        (2, (2, 0, 1)): PolyX.const(rat(1, 2)),
        (3, (3, 1, 0)): PolyX.const(rat(1, 6)),
    },
}


def verify_corollary_24() -> dict:
    """Re-derive n = 2, 3, 4 for both parities and compare term by term
    with the printed formulas; also re-check the double angle formulas by
    specializing the -4 sphere relation to sigma = 2e."""
    report = {}
    for (n, eps), table in _COR24.items():
        rel = derive_embedded(n, eps)
        derived = {(p, mono): c for p, c, mono in rel.terms()}
        mismatches = []
        for key in set(table) | set(derived):
            want = table.get(key, P_ZERO)
            got = derived.get(key, P_ZERO)
            if want != got:
                mismatches.append((key, want, got))
        report["n=%d eps=%d" % (n, eps)] = mismatches
    rel4 = derive_embedded(4, 0)
    o = rel4.order
    bf = blowup_functions(o)
    b_double = specialize_two_e(rel4, twisted=False, order=o) - bf.B.rescale(2)
    s_double = specialize_two_e(rel4, twisted=True, order=o) - bf.S.rescale(2)
    report["sigma=2e B(2t)"] = [] if b_double.is_zero() else [("B(2t)",)]
    report["sigma=2e S(2t)"] = [] if s_double.is_zero() else [("S(2t)",)]
    if any(report.values()):
        raise DerivationError("corollary mismatches: %r" % (report,))
    return report
