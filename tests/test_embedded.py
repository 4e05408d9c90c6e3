"""Embedded-sphere structure equations against printed and model oracles."""

from dataclasses import replace

import pytest

from sphere_calculus.embedded import (
    DerivationError,
    FitError,
    basis_monomials,
    basis_series,
    derive_embedded,
    fit_to_basis,
    sigma_powers,
    specialize_two_e,
    verify_corollary_24,
    verify_embedded_relation,
)
from sphere_calculus.rings import PolyX, SeriesT, rat


def test_printed_low_n_table():
    report = verify_corollary_24()
    assert {"n=2 eps=0", "n=3 eps=1", "n=4 eps=1"} <= set(report)
    assert all(not mismatches for mismatches in report.values())


def test_minus_two_sphere_formula():
    rel = derive_embedded(2, 0)
    derived = {(p, mono): c for p, c, mono in rel.terms()}
    # exp(t sigma) == B^2 + sigma^2 (1/2) S^2
    assert derived == {
        (0, (0, 2, 0)): PolyX.const(1),
        (2, (2, 0, 0)): PolyX.const(rat(1, 2)),
    }


def test_minus_three_sphere_formula():
    rel = derive_embedded(3, 1)
    derived = {(p, mono): c for p, c, mono in rel.terms()}
    # exp(t sigma) == Delta B + sigma (S B^2 + (x/6) S^3) + sigma^3 (1/6) S^3
    assert derived == {
        (0, (0, 1, 1)): PolyX.const(1),
        (1, (1, 2, 0)): PolyX.const(1),
        (1, (3, 0, 0)): PolyX.x() * rat(1, 6),
        (3, (3, 0, 0)): PolyX.const(rat(1, 6)),
    }


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("epsilon", [0, 1])
def test_generality_and_model_verification(n, epsilon):
    rel = derive_embedded(n, epsilon)
    checks = verify_embedded_relation(rel)
    twists = range(epsilon, n + 1, 2)
    assert checks == [name for m in twists for name in
                      ["twists=%d" % m] + (["twists=%d+insertion" % m]
                                           if 1 <= m <= n - 1 else [])]
    # hat-term vanishing: the top sigma power of the opposite parity
    # is absent (sigma^(2k-1) for epsilon=0 n=2k; sigma^2k for
    # epsilon=1 n=2k+1)
    powers = {p for p, _, _ in rel.terms()}
    if epsilon == 0 and n % 2 == 0:
        assert n - 1 not in powers
    if epsilon == 1 and n % 2 == 1:
        assert n - 1 not in powers


def test_model_verification_raises_on_failure():
    rel = derive_embedded(3, 1)
    (p, c, mono), *rest = rel.cosh_terms
    broken = replace(rel, cosh_terms=((p, c + 1, mono), *rest))
    with pytest.raises(DerivationError, match="twists=1"):
        verify_embedded_relation(broken)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("epsilon", [0, 1])
def test_order_stability(n, epsilon):
    low = derive_embedded(n, epsilon, 2 * n + 8)
    high = derive_embedded(n, epsilon, 2 * n + 12)
    key = lambda rel: {(p, mono): c for p, c, mono in rel.terms()}
    assert key(low) == key(high)


# The case table of basis monomials: (epsilon, parity) -> the i-th
# monomial (s_exp, b_exp, delta_exp), for every i with b_exp >= 0.
CASE_TABLE = {
    (0, 0): lambda n, i: (2 * i, n - 2 * i, 0),
    (0, 1): lambda n, i: (2 * i + 1, n - 2 * i - 3, 1),
    (1, 0): lambda n, i: (2 * i, n - 2 * i - 2, 1),
    (1, 1): lambda n, i: (2 * i + 1, n - 2 * i - 1, 0),
}


def test_basis_monomials_shape():
    for (epsilon, parity), monomial in CASE_TABLE.items():
        for n in range(31):
            want = []
            while monomial(n, len(want))[1] >= 0:
                want.append(monomial(n, len(want)))
            got = basis_monomials(n, epsilon, parity)
            assert got == want
            assert sigma_powers(n, epsilon, parity) == [s for s, _, _ in got]
            for s_exp, b_exp, d_exp in got:
                assert s_exp + b_exp + 2 * d_exp == n
                assert d_exp in (0, 1)


def test_double_angle_specialization():
    # sigma = 2e reproduces the double-angle identities of the kernel
    rel = derive_embedded(4, 0)
    for twisted in (False, True):
        specialize_two_e(rel, twisted, 16)


def test_relation_shape():
    rel = derive_embedded(5, 0)
    assert all(p % 2 == 0 for p, _, _ in rel.cosh_terms)
    assert all(p % 2 == 1 for p, _, _ in rel.sinh_terms)


# The -4 sphere's even side: B^4, S^2 B^2, S^4 = B^4 (1, q, q^2).
FIT_ORDER = 16


def even_basis():
    return [f for _, f in basis_series(4, 0, 0, FIT_ORDER)]


def test_fit_reads_q_coordinates():
    basis = even_basis()
    f = basis[0] * PolyX.x() + basis[2] * rat(3)
    assert fit_to_basis(f, basis, 0) == [PolyX.x(), 0, PolyX.const(3)]


@pytest.mark.parametrize("k", [5, 6])
def test_fit_outside_span_names_t_power(k):
    # t^5 has the other parity; t^6 lies above the top basis element.
    basis = even_basis()
    f = basis[1] + SeriesT.one(FIT_ORDER).shift(k).truncate(FIT_ORDER)
    with pytest.raises(FitError, match=r"at t\^%d$" % k):
        fit_to_basis(f, basis, 0)


def test_fit_non_unit_diagonal_raises_in_solver():
    basis = even_basis()
    basis[1] = basis[1] * PolyX.x()
    with pytest.raises(ValueError, match=r"t\^2 is not a unit"):
        fit_to_basis(basis[1], basis, 0)
