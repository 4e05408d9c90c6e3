"""Embedded-sphere structure equations against printed and model oracles."""

import hashlib

import pytest

from sphere_calculus import embedded, emit, immersed
from sphere_calculus.cli import run
from sphere_calculus.elliptic import blowup_functions, triangular_solve
from sphere_calculus.embedded import (
    DerivationError,
    EmbeddedRelation,
    _evaluate,
    basis_monomials,
    basis_series,
    derive_embedded,
    sigma_powers,
    specialize_two_e,
    verify_corollary_24,
    verify_embedded_relation,
)
from sphere_calculus.immersed import derive_immersed
from sphere_calculus.model import smb_series
from sphere_calculus.rings import AlphaPoly, PolyX, SeriesT, rat


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
    c0, *rest = rel.c
    broken = EmbeddedRelation(rel.n, rel.epsilon, rel.order,
                              (c0 + 1, *rest), rel.d)
    with pytest.raises(DerivationError, match="twists=1"):
        verify_embedded_relation(broken)


def test_order_must_exceed_the_top_sigma_power():
    with pytest.raises(ValueError, match="top sigma power 4"):
        derive_embedded(5, 0, 3)
    for n in range(1, 15):
        for epsilon in (0, 1):
            top = max(sigma_powers(n, epsilon, 0) + sigma_powers(n, epsilon, 1))
            for order in range(-1, top + 1):
                with pytest.raises(ValueError, match="top sigma power"):
                    derive_embedded(n, epsilon, order)
            # the least order that derived before the check still does
            assert derive_embedded(n, epsilon, top + 1).order == top + 1


def test_relation_rejects_coefficient_lists_unlike_its_basis():
    rel = derive_embedded(3, 1)
    assert (len(rel.c), len(rel.d)) == (1, 2)
    extra = (AlphaPoly(),)
    for c, d in ((rel.c[:-1], rel.d), (rel.c + extra, rel.d),
                 (rel.c, rel.d[:-1]), (rel.c, rel.d + extra)):
        with pytest.raises(DerivationError, match="length mismatch"):
            EmbeddedRelation(rel.n, rel.epsilon, rel.order, c, d)


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
    bf = blowup_functions(16)
    for twisted, f in ((False, bf.B), (True, bf.S)):
        got = specialize_two_e(rel, twisted, 16)
        assert got.order == 16 and got == f.rescale(2)


def oracle_a_models(n, epsilon, order):
    """(name, model series) of sigma = 2e_0 + e_1 + ... + e_(n-4), a class
    of square -n and parity epsilon, on an (n - 3)-fold blowup: e_0 gives
    B(2t) or S(2t), whichever its twist, and the m twisted classes among
    the other n - 4, with m = epsilon mod 2, give S^m B^(n-4-m)."""
    bf = blowup_functions(order)
    for m in range(epsilon, n - 3, 2):
        for e0, f in (("B", bf.B), ("S", bf.S)):
            yield ("%s(2t) twists=%d" % (e0, m),
                   f.rescale(2) * smb_series(n - 4, m, order))


def test_oracle_a_holds_at_a_second_representative():
    """Every relation with 4 <= n <= 10 evaluates, at sigma = 2e_0 + e_1
    + ... + e_(n-4), to that class's model series: a representative with
    a coefficient 2, unlike the sum of classes the derivation checks."""
    checked = []
    for n in range(4, 11):
        for epsilon in (0, 1):
            rel = derive_embedded(n, epsilon)
            for name, model in oracle_a_models(n, epsilon, rel.order):
                residual = model - _evaluate(rel, model, rel.order)
                assert residual.valuation() == -1, (n, epsilon, name)
                checked.append((n, epsilon, name))
    assert len(checked) == 56


def test_relation_shape():
    rel = derive_embedded(5, 0)
    assert all(p % 2 == 0 for p, _, _ in rel.cosh_terms)
    assert all(p % 2 == 1 for p, _, _ in rel.sinh_terms)


# The -4 sphere's even side: B^4, S^2 B^2, S^4 = B^4 (1, q, q^2).
def even_basis():
    return [f for _, f in basis_series(4, 0, 0, 16)]


def test_fit_non_unit_diagonal_raises_in_solver():
    basis = even_basis()
    basis[1] = basis[1] * PolyX.x()
    with pytest.raises(ValueError, match=r"t\^2 is not a unit"):
        triangular_solve(basis, 0)


# sha256 of emit.embedded_json(derive_embedded(n, epsilon)), (n, epsilon)
# -> digest, for the n above the golden corpus (which stops at n = 5).
# Recorded from the moment-system solve that the q-basis solve replaced.
EMBEDDED_JSON_SHA256 = {
    (6, 0): "2c358af24cde1fafb3d61ae266b1093c9238470187a6141821f6cabf2e28f80b",
    (7, 0): "2e2e528afff02893de7e8a1bbcf7e5ee351bb1cb848d7717a71bc8004029fd3f",
    (8, 0): "cdc13bae8c0a29c9b60a08120ea52de69ad1e82bacce978655c58ae4329da219",
    (9, 0): "469577664e600cfbad8dae792ccb015fd8052a86fc44e2f198cb444e909df694",
    (10, 0): "0828bd16bac585df028ba2a98d18a2a1c58471a6fde1c48e2feeee530930a36a",
    (11, 0): "d00b6a40a8c853beee4e3b80490a11ad7464cb9715e096d87c98cf1bdfa81ad9",
    (12, 0): "34ec3d71f89006bbe7cdf43fee9baed15067236ce3c16c0c81ffba75e595f44e",
    (13, 0): "ea1a1a28dd866f0f2d158f8ea2a0f17ca474601d81ebd23864b7919735adc756",
    (14, 0): "46ed3feb4848e5d85564863b72a2f352193e4ece9e60da22ab04a4b61f5325bf",
    (15, 0): "a6b58bef48f4bed22175a8e41f4ef1075718fbcc4524fe47d103b0cdc6670bc1",
    (16, 0): "2821e86632825426e5356c62c5705acf8ab02f960dbefb99467ad83f96a1ff54",
    (17, 0): "004c5b84791dce6b7566cb9733511334d043e618897b2b8b1036f6bedeaf94c8",
    (18, 0): "6aa455e7fac8a413b26995ada79952e0eabb676b3eb49273de4189fbb71ce8ca",
    (19, 0): "42d5b8d60d64b69458f5955e68447fa73714adebf8b79727539d6890331a0bb1",
    (20, 0): "6ceff8be25823d14c24261fce3810a4f97b19b112f187a56aabf5b26e1420c0e",
    (6, 1): "fe00d7f14b2013d2f17bf53b08ee36dac43e3e503649192c8c4f2453b88e2235",
    (7, 1): "1a7817bffecb22f02fdc6d4186a835adea7a67e604ac08862401e112fefc720d",
    (8, 1): "dad7f7ece7e120d5fd48bbe783dfe80a013f52d46dac89853fa44168268e203f",
    (9, 1): "743d46a76d28cfd596d85d7463469b0924d4cb1161bce1daa859b7ac719d2eab",
    (10, 1): "ff32cd40cce8447a97d87ace8ce832c05b9e8e5cf7b7fc4d61f6ea1c6db637eb",
    (11, 1): "fcb8516ee5f2f62c9100e0edf05d400ccf0e03255f1ea1f4d52d408bb270987d",
    (12, 1): "96c9c8387c6ba7e1cf248fc7f614cf4c4b026c26562e4f7a8095e92a8a8dbae2",
    (13, 1): "150db75882eb8b504600498204c5d792154f17c068d3bb5f5f8074615463f0db",
    (14, 1): "1a28e16d5267b7e7bb663fd59cad3390d8d5b3262d774b69c7795d7985f002e4",
    (15, 1): "df21768d8af67a3e94c39e6c2694388afce9a277ba3d8639fb5dc024abae59af",
    (16, 1): "27066d1575e465d45a58cbe54537b03e8c734d8fd9a8513cd216f4f92214d88d",
    (17, 1): "6b048dd880b4e16670ea43b5333e3bf98c04eb82af2e0f896afbc879acb4e7c5",
    (18, 1): "303ab4c88a4a451e1ef8789ac1ff595a0832db148dd25168758d696d33f84050",
    (19, 1): "7fbf704aa629aca3f7e17536d963067a4d42d4198d826943b1838f9f7aea7cb3",
    (20, 1): "c05cedbcdf0748401f2fc9947a95de7a064a0edab9fd21728201eb2ac4703d51",
}


@pytest.mark.parametrize("n, epsilon", sorted(EMBEDDED_JSON_SHA256))
def test_embedded_json_digest(n, epsilon):
    doc = emit.embedded_json(derive_embedded(n, epsilon))
    digest = hashlib.sha256(doc.encode()).hexdigest()
    assert digest == EMBEDDED_JSON_SHA256[n, epsilon]


@pytest.fixture
def planted_model(monkeypatch):
    """The model series of four classes with one twisted, plus t: the
    derived n = 4 relations no longer agree with the model at twists=1."""
    true_series = embedded.smb_series

    def planted(n, twist_count, order):
        series = true_series(n, twist_count, order)
        if (n, twist_count) == (4, 1):
            series = series + SeriesT((0, 1), order)
        return series

    caches = (embedded.derive_embedded, immersed.derive_immersed)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(embedded, "smb_series", planted)
    yield
    for cache in caches:
        cache.cache_clear()


def test_planted_model_disagreement_fails_derivation(planted_model, capsys):
    # sigma^1 reads the planted t^1 coefficient, so the t^1 and t^3 terms
    # still match and the residual first shows at t^5
    message = r"n=4 epsilon=1 fails at twists=1: residual at t\^5$"
    with pytest.raises(DerivationError, match=message):
        derive_embedded(4, 1)
    with pytest.raises(DerivationError, match=message):
        derive_immersed(0, 0, -4)
    assert run(["embedded", "--n", "4", "--epsilon", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "fails at twists=1" in err
