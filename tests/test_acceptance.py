"""Acceptance gate: one test (and one pass/fail line) per criterion.

Every check uses exact rational arithmetic; "equal" means literal
coefficient equality through the stated truncation order.
"""

import itertools

from sphere_calculus.elliptic import verify_elliptic_identities
from sphere_calculus.embedded import (
    derive_embedded,
    verify_corollary_24,
    verify_embedded_relation,
)
from sphere_calculus.immersed import (
    BEZOUT_STEP2,
    BEZOUT_STEP3,
    base_case,
    derive_immersed,
    finite_type_order,
    k0_index,
    k_index,
    r_index,
    validate_normal_form,
)
from sphere_calculus.lens import (
    build_poset,
    character_variety,
    dim_cylinder,
    dim_end,
    is_central,
    minimal_energy,
    verify_poset,
)
from sphere_calculus.rings import PolyX, rat

X = PolyX.x()


def _report(num, text):
    print("criterion %d: PASS - %s" % (num, text))


def test_criterion_1_elliptic_identity_suite():
    for order in (16, 32):
        report = verify_elliptic_identities(order)
        assert {"Qprime-ode", "Delta-squared", "B-double-angle",
                "S-double-angle", "BrSn-order"} <= set(report)
    _report(1, "elliptic identities exact at orders 16 and 32")


def test_criterion_2_printed_embedded_formulas():
    report = verify_corollary_24()
    assert all(not mismatches for mismatches in report.values())
    for n in (2, 3, 4):
        for eps in (0, 1):
            rel = derive_embedded(n, eps, 2 * n + 8)
            verify_embedded_relation(rel)
    _report(2, "printed low-n formulas reproduced and model-verified")


def test_criterion_3_embedded_generality():
    for n in range(2, 11):
        for eps in (0, 1):
            rel = derive_embedded(n, eps, 2 * n + 8)
            powers = {p for p, _, _ in rel.terms()}
            if n % 2 == eps:
                # the hat power of the opposite parity is absent
                assert n - 1 not in powers
            again = derive_embedded(n, eps, 2 * n + 12)
            key = lambda r: {(p, m): c for p, c, m in r.terms()}
            assert key(rel) == key(again)
    _report(3, "embedded derivation stable for all n <= 10, both parities")


def q_product(f, g):
    """The product of two q-polynomials, tuples of PolyX coefficients
    lowest power first, summed term by term."""
    out = [PolyX()] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = out[i + j] + fi * gj
    return out


def test_criterion_4_bezout_identities():
    for f, g, phi1, phi2 in (BEZOUT_STEP2, BEZOUT_STEP3):
        combination = [a + b for a, b in itertools.zip_longest(
            q_product(f, phi1), q_product(g, phi2), fillvalue=PolyX())]
        assert combination[0] == X * X - 4 and not any(combination[1:])
    _report(4, "both double-point resultant combinations equal x^2 - 4")


def test_criterion_5_immersed_derivation_grid():
    runs = 0
    for p in range(0, 5):
        for s in range(0, p + 1):
            for a in range(-12, 13):
                if a - 4 * p > -2:
                    continue
                nf = derive_immersed(p, s, a)
                validate_normal_form(nf)
                assert nf.r == r_index(p, s)
                assert nf.k == k_index(a, s)
                assert nf.k0 == k0_index(a, s)
                runs += 1
    # base cases agree with the embedded engine
    for a in range(-2, -13, -1):
        bc = base_case(a)
        assert derive_immersed(0, 0, a) == bc
    assert runs == 315
    _report(5, "immersed grid p <= 4, |a| <= 12: %d derivations checked"
            % runs)


def test_criterion_6_finite_type():
    assert finite_type_order(1, 0) == 1
    nf = derive_immersed(1, 0, 0)
    assert nf.c == () and nf.d == () and nf.r == 1
    for p in range(6):
        for a in range(0, 2 * p + 1):
            aa = a - 1 if a % 2 else a
            assert finite_type_order(p, a) == (2 * p + 2 - aa) // 4
    _report(6, "finite-type orders and the vanishing relation for (1, 0)")


def test_criterion_7_appendix_figures():
    for p in range(1, 10):
        for parity in (0, 1):
            cv = character_variety(p, parity)
            assert all(c.trivial == (c.m in (0, p)) for c in cv)
    je = build_poset(6, 0, 10)
    assert sorted(m for m, _ in je.vertices) == [0, 0, 2, 2, 2, 4, 4, 6, 6]
    assert len(je.edges) == 11
    jo = build_poset(6, 1, 10)
    assert sorted(m for m, _ in jo.vertices) == [1, 1, 1, 3, 3, 5, 5]
    assert len(jo.edges) == 7
    for j in (je, jo):
        verify_poset(j)
        for m, k in j.vertices:
            dim = dim_end(6, k, m) + (3 if is_central(6, m) else 1)
            assert dim.denominator == 1 and 0 < dim <= 20
    _report(7, "both charge-poset figures reconstructed exactly")


def test_criterion_8_minimal_dimension_law():
    for p in range(1, 13):
        for parity in (0, 1):
            chi = [c.m for c in character_variety(p, parity)]
            for m in chi:
                for m_prime in chi:
                    if m_prime <= m:
                        continue
                    k = minimal_energy(p, m, m_prime)
                    s = 3 if is_central(p, m) else 1
                    assert dim_cylinder(p, k, m, m_prime) == (
                        2 * (m_prime - m) - s)
    _report(8, "minimal cylinder dimension law exact for all p <= 12")
