"""The inductive machine for immersed-sphere structure equations."""

import dataclasses

import pytest

from sphere_calculus import immersed
from sphere_calculus.embedded import DerivationError, derive_embedded
from sphere_calculus.immersed import (
    BEZOUT_STEP2,
    BEZOUT_STEP3,
    X2M4,
    _chain_relation,
    base_case,
    derive_immersed,
    finite_type_order,
    k0_index,
    k_index,
    r_index,
    shift_reduce,
    step_p_odd,
    step_raise_s,
    universal_coefficients,
    validate_normal_form,
)
from sphere_calculus.rings import AlphaPoly, PolyX, QPoly, rat

X = PolyX.x()
A = AlphaPoly.gen


def const(v):
    return AlphaPoly((PolyX.const(v),))


# ------------------------------------------------------------ indices


def test_index_formulas():
    assert r_index(1, 0) == 1
    assert r_index(2, 1) == 1
    assert k_index(-6, 0) == 2
    assert k_index(-2, 1) == 1
    assert k0_index(-1, 1) == k_index(-1, 1) + 1
    assert k0_index(-2, 1) == k_index(-2, 1)


def test_step1_index_bookkeeping():
    # r is preserved and k drops by one across an s-raise
    for p, s, a in [(1, 1, -2), (2, 2, 0), (3, 2, 5)]:
        assert r_index(p - 1, s - 1) == r_index(p, s)
        assert k_index(a - 4, s - 1) == k_index(a, s) + 1


# -------------------------------------------------------- shift_reduce


def test_shift_reduce_untwisted_quadratic():
    assert shift_reduce(A(2), "B") == A(2)


def test_shift_reduce_untwisted_quartic():
    assert shift_reduce(A(4), "B") == A(4) + const(-32)


def test_shift_reduce_twisted_linear():
    assert shift_reduce(A(1), "S") == const(2)


def test_shift_reduce_parity():
    for n in range(6):
        assert shift_reduce(A(n), "B").alpha_parity_is(n % 2)
        assert shift_reduce(A(n), "S").alpha_parity_is((n + 1) % 2)


def test_shift_reduce_linearity():
    u = A(3) * X + A(1) * rat(5)
    v = A(2) + const(7)
    for mode in ("B", "S"):
        assert shift_reduce(u + v, mode) == (
            shift_reduce(u, mode) + shift_reduce(v, mode))


def test_shift_reduce_bad_mode():
    with pytest.raises(ValueError):
        shift_reduce(A(1), "Q")


# ---------------------------------------------------------- base cases


def test_base_case_minus_two():
    nf = base_case(-2)
    assert (nf.k, nf.k0) == (0, 0)
    assert nf.c == (const(1),)
    assert nf.d == (A(1),)


def test_base_case_minus_three():
    nf = base_case(-3)
    assert nf.c == (const(1),)
    assert nf.d == (A(1), A(1) * (X * rat(1, 6)) + A(3) * rat(1, 6))


def test_base_case_matches_embedded():
    for a in range(-2, -9, -1):
        nf = base_case(a)
        rel = derive_embedded(-a, 1, -a + 8)
        n = -a
        terms = {(p, mono): c for p, c, mono in rel.terms()}
        coefficient = lambda p, mono: terms.get((p, mono), PolyX())
        for i, ci in enumerate(nf.c):
            for power, coeff in enumerate(ci.coeffs):
                assert coefficient(power, (2 * i, n - 2 * i - 2, 1)) == coeff
        for i, di in enumerate(nf.d):
            for power, coeff in enumerate(di.coeffs):
                assert coefficient(power, (2 * i + 1, n - 2 * i - 1, 0)) == coeff


def test_base_case_equals_universal():
    for a in (-2, -3, -4, -5):
        nf = base_case(a)
        assert nf.c == universal_coefficients(a, 0, "cosh")
        assert nf.d == universal_coefficients(a, 0, "sinh")


def test_base_case_rejects_positive_square():
    with pytest.raises(ValueError):
        base_case(-1)


# ------------------------------------------------------------- Bezout


def test_step2_bezout_is_x2_minus_4():
    f, g, phi1, phi2 = BEZOUT_STEP2
    assert f * phi1 + g * phi2 == QPoly.const(X * X - 4)


def test_step3_bezout_is_x2_minus_4():
    f, g, phi1, phi2 = BEZOUT_STEP3
    assert f * phi1 + g * phi2 == QPoly.const(X * X - 4)


# ---------------------------------------------------------- derivation


def test_derive_base_passthrough():
    assert derive_immersed(0, 0, -2) == base_case(-2)


def test_derive_one_double_point():
    nf = derive_immersed(1, 0, -4)
    assert (nf.p, nf.s, nf.a, nf.r) == (1, 0, -4, 1)
    validate_normal_form(nf)


def test_derive_empty_cosh_sum():
    nf = derive_immersed(1, 0, 0)
    assert nf.k == -1 and nf.c == ()
    assert nf.k0 == -1 and nf.d == ()


def test_derive_odd_square_has_k0_bump():
    nf = derive_immersed(2, 1, -1)
    assert nf.k0 == nf.k + 1


def test_derive_two_double_points_even_step():
    nf = derive_immersed(2, 0, -4)
    assert (nf.r, nf.k) == (1, 1)


def test_derive_invariants_grid():
    for p in range(0, 4):
        for s in range(0, p + 1):
            for a in (4 * p - 2, 4 * p - 5):
                nf = derive_immersed(p, s, a)
                validate_normal_form(nf)
                assert nf.r == r_index(p, s)


def test_derive_input_validation():
    with pytest.raises(ValueError):
        derive_immersed(1, 2, -4)
    with pytest.raises(ValueError):
        derive_immersed(0, 0, 0)
    with pytest.raises(ValueError):
        derive_immersed(1, 0, 3)  # base a - 4p = -1 outside range


def test_tampered_input_is_falsified():
    nf = derive_immersed(0, 0, -6)
    bad = dataclasses.replace(
        nf, d=(nf.d[0] + A(1), nf.d[1], nf.d[2]))
    with pytest.raises(DerivationError):
        step_raise_s(bad)


def test_tampered_input_is_falsified_odd_step():
    nf = derive_immersed(0, 0, -8)
    bad = dataclasses.replace(nf, c=nf.c[:-1] + (nf.c[-1] + const(1),))
    with pytest.raises(DerivationError):
        step_p_odd(bad)


# ------------------------------------------------- shared echelon basis


class FreshContext:
    """Reference: one echelon basis per step, built from nothing out of
    the target family (p, a) and the blown-down input sources
    (p_in, a_in, chain), whose relations are transported through the
    blowup modes in `chain`.  It loads in (m, source, s') order through
    two above the top degree of the deepest residual it has reduced.
    `insertions` and `made` count, per source, the relations inserted and
    the pivots they made."""

    def __init__(self, p, a, extra_sources=()):
        self.sources = [(p, a, ())] + list(extra_sources)
        self.basis = {}
        self.loaded = -1
        self.insertions = [0] * len(self.sources)
        self.made = [0] * len(self.sources)

    def insert(self, rel):
        while rel:
            d = rel.degree
            lead = rel[d]
            if lead.degree == 0:
                rel = rel * (rat(1) / lead.constant())
            piv = self.basis.get(d)
            if piv is None:
                self.basis[d] = rel
                return True
            rel = rel * piv[d] - piv * rel[d]
        return False

    def load(self, mmax):
        for m in range(self.loaded + 1, mmax + 1):
            for i, (p_src, a_src, chain) in enumerate(self.sources):
                for s in range(p_src, -1, -1):
                    got = _chain_relation(p_src, s, a_src, m)
                    if got is None:
                        continue
                    rel = got[1]
                    for mode in chain:
                        rel = shift_reduce(rel, mode)
                    self.insertions[i] += 1
                    self.made[i] += self.insert(rel * X2M4**got[0])
        self.loaded = max(self.loaded, mmax)

    def reduce(self, poly):
        if poly:
            self.load(poly.degree + 2)
        while poly:
            piv = self.basis.get(poly.degree)
            if piv is None:
                return poly
            d = poly.degree
            poly = poly * piv[d] - piv * poly[d]
        return poly


# Each step: (the target's p and a less the input's, blown-down chains).
BLOWN_DOWN = {
    "step_raise_s": (1, 4, [("B",), ("S",)]),
    "step_p_odd": (1, 4, [("B",), ("S",)]),
    "step_p_even": (2, 8, [("B", "B"), ("B", "S"), ("S", "S")]),
}


def perturbed(poly):
    return poly + A(max(poly.degree, 0)) * X


def test_shared_basis_reduces_as_a_fresh_one(monkeypatch):
    tally = {"reduce": 0, "nonzero": 0}
    refs = []
    family = immersed._family

    def fresh_per_step(step, dp, da, chains):
        def run(nf):
            refs.append(FreshContext(nf.p + dp, nf.a + da,
                                     [(nf.p, nf.a, c) for c in chains]))
            return step(nf)
        return run

    class Checked:
        def __init__(self, p, a):
            self.ctx, self.ref = family(p, a), refs[-1]
            assert self.ref.sources[0] == (p, a, ())

        def reduce(self, poly):
            got = self.ctx.reduce(poly)
            assert got == self.ref.reduce(poly)
            bumped = perturbed(poly)
            res = self.ctx.reduce(bumped)
            assert res == self.ref.reduce(bumped)
            tally["reduce"] += 2
            tally["nonzero"] += bool(got) + bool(res)
            return got

    for name, (dp, da, chains) in BLOWN_DOWN.items():
        monkeypatch.setattr(immersed, name,
                            fresh_per_step(getattr(immersed, name),
                                           dp, da, chains))
    monkeypatch.setattr(immersed, "_family", Checked)
    derive_immersed.cache_clear()
    family.cache_clear()
    try:
        for p in range(4):
            for s in range(p + 1):
                for a in range(-12, 4 * p - 1):
                    derive_immersed(p, s, a)
    finally:
        derive_immersed.cache_clear()
    assert tally["reduce"] > 10000 and tally["nonzero"] > 5000
    # The fact the shared basis rests on: the blown-down relations only
    # ever eliminate to zero against the target family's.
    assert sum(sum(ref.insertions[1:]) for ref in refs) > 1000
    assert sum(sum(ref.made[1:]) for ref in refs) == 0
    assert sum(ref.made[0] for ref in refs) > 0


@pytest.mark.parametrize("p, a, extra, deep, shallow", [
    # the sources of step 1 into (3, 1, -6), warmed by (3, 3, -6)
    (3, -6, [(2, -10, ("B",)), (2, -10, ("S",))], (3, 3, -6), 3),
])
def test_warm_family_keeps_each_context_watermark(p, a, extra, deep,
                                                  shallow):
    # A family loaded deep by other steps reduces a shallow residual as
    # a fresh per-step basis with the blown-down sources does.
    derive_immersed(*deep)
    immersed._family(p, a).reduce(A(3 * shallow))
    poly = A(shallow) * X + A(shallow - 1) + const(1)
    got = immersed._family(p, a).reduce(poly)
    assert got and got == FreshContext(p, a, extra).reduce(poly)


# ---------------------------------------------------------- finite type


def test_finite_type_examples():
    assert finite_type_order(1, 0) == 1
    assert finite_type_order(2, 1) == 1
    assert finite_type_order(2, 0) == 1
    assert finite_type_order(0, 0) == 0


def test_finite_type_table():
    for p in range(6):
        for a in range(0, 2 * p + 1):
            aa = a - 1 if a % 2 else a
            assert finite_type_order(p, a) == (2 * p + 2 - aa) // 4


def test_finite_type_rejects_negative_square():
    with pytest.raises(ValueError):
        finite_type_order(1, -2)


def test_finite_type_matches_vanishing_relation():
    # p = 1, a = 0: the derived equation is the vanishing statement
    # with exponent equal to the finite-type order
    nf = derive_immersed(1, 0, 0)
    assert nf.r == finite_type_order(1, 0)
    assert nf.c == () and nf.d == ()
