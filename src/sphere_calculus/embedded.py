"""Structure equations for embedded spheres.

For a sphere of self-intersection -n, each side of parity pi writes
exp(t sigma) as sum_i c_i(sigma) times the q-basis B^n Q^pi Q'^delta q^i
of elliptic.weight_series (delta = epsilon xor pi).  The c_i come from
one triangular solve against cosh or sinh(t sigma), as the immersed
coefficients do, and a relation stores these solved q-coefficient lists,
the same data as an immersed normal form.  Its terms, the basis written
as the S/B/Delta monomials it equals (S = QB, Delta = Q'B^2) in the
style of the explicit low-n formulas, are a rendering of those lists.
The blowup model (sigma = e_1+...+e_n under every admissible twist
count, with and without the (e_i - e_j) insertion) then checks each
relation before derive_embedded returns it.
"""

from __future__ import annotations

from functools import lru_cache

from .elliptic import blowup_functions, triangular_solve, weight_series
from .model import smb_insertion_series, smb_series
from .record import Record
from .rings import (P_ONE, P_ZERO, PolyX, SeriesT, factorial,
                    linear_combination, rat, sum_of_products)


class DerivationError(AssertionError):
    """A derived structure equation disagreed with its check."""


class EmbeddedRelation(Record):
    """exp(t sigma) modulo the kernel: c (cosh side) and d (sinh side)
    hold the solved AlphaPoly in sigma of each q power, one per basis
    monomial of the side, as in an immersed normal form.  order is the
    t-order the relation was model-checked through.

    The terms are a view of c and d: each is (sigma_power, coeff,
    (s_exp, b_exp, delta_exp)) and the relation reads
    exp(t sigma) == sum coeff * sigma^p * S^s B^b Delta^d, by sigma
    power and then by basis monomial.  cosh_terms carry the even sigma
    powers, sinh_terms the odd ones.
    """

    __slots__ = ("n", "epsilon", "order", "c", "d")

    def _validate(self):
        for parity, coeffs in ((0, self.c), (1, self.d)):
            if len(coeffs) != len(sigma_powers(self.n, self.epsilon, parity)):
                raise DerivationError("coefficient list length mismatch")

    def _side_terms(self, parity: int, coeffs):
        monos = basis_monomials(self.n, self.epsilon, parity)
        return tuple((p, c[p], mono) for p, _, _ in monos
                     for c, mono in zip(coeffs, monos) if c[p])

    cosh_terms = property(lambda rel: rel._side_terms(0, rel.c))
    sinh_terms = property(lambda rel: rel._side_terms(1, rel.d))

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
    pi, and the relation stores the solved c_i.  The solve reads the
    t-powers up to the top sigma power, so `order` must exceed it, else
    ValueError."""
    if n < 1:
        raise ValueError("n must be positive")
    epsilon &= 1
    if order is None:
        order = 2 * n + 8
    top = n - (n - epsilon) % 2
    if order <= top:
        raise ValueError("order must exceed the top sigma power %d" % top)
    c, d = (tuple(triangular_solve(
        [f for _, f in basis_series(n, epsilon, parity, order)], parity))
        for parity in (0, 1))
    rel = EmbeddedRelation(n=n, epsilon=epsilon, order=order, c=c, d=d)
    verify_embedded_relation(rel)
    return rel


def _evaluate(rel: EmbeddedRelation, model: SeriesT, order: int) -> SeriesT:
    """The relation's right-hand side through `order` in the model whose
    series is exp(t sigma): every sigma^p evaluates to p! times the t^p
    coefficient of `model`, and the result is the sum over both sides of
    (sum_p c_i[p] sigma^p) times the i-th basis series.  The relation
    holds in the model when the result equals `model`."""
    n, eps = rel.n, rel.epsilon
    pairs = [(c.coeffs, f) for parity, cs in ((0, rel.c), (1, rel.d))
             for c, (_, f) in zip(cs, basis_series(n, eps, parity, order))]
    values = [model[p] * factorial(p)
              for p in range(max(len(c) for c, _ in pairs))]
    return SeriesT(linear_combination(
        [(sum_of_products([(1, cp, v) for cp, v in zip(c, values)]),
          f.coeffs) for c, f in pairs], order), order)


def verify_embedded_relation(rel: EmbeddedRelation):
    """Check the relation against the blowup model through rel.order, for
    every admissible twist count, with and without the (e_i - e_j)
    insertion.

    Raises DerivationError naming the first failing check; returns the
    names of the checks made, in order.
    """
    n, eps, order = rel.n, rel.epsilon, rel.order
    checks = []

    def check(name, model):
        got = _evaluate(rel, model, order).coeffs
        for k, (want, c) in enumerate(zip(model.coeffs, got)):
            if want != c:
                raise DerivationError(
                    "embedded relation n=%d epsilon=%d fails at %s: "
                    "residual at t^%d" % (n, eps, name, k))
        checks.append(name)

    for m in range(eps, n + 1, 2):
        check("twists=%d" % m, smb_series(n, m, order))
        if 1 <= m <= n - 1:
            check("twists=%d+insertion" % m, smb_insertion_series(n, m, order))
    return checks


def specialize_two_e(rel: EmbeddedRelation, twisted: bool, order: int):
    """Evaluate the relation at sigma = 2e on a single blowup, in the
    model B(2t) (untwisted e) or S(2t) (twisted e); the result should
    match that model."""
    bf = blowup_functions(order)
    return _evaluate(rel, (bf.S if twisted else bf.B).rescale(2), order)


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
    for name, twisted, f in (("B(2t)", False, bf.B), ("S(2t)", True, bf.S)):
        same = specialize_two_e(rel4, twisted, o) == f.rescale(2)
        report["sigma=2e " + name] = [] if same else [(name,)]
    if any(report.values()):
        raise DerivationError("corollary mismatches: %r" % (report,))
    return report
