"""The inductive machine for immersed-sphere structure equations."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from sphere_calculus import immersed
from sphere_calculus.elliptic import weight_series
from sphere_calculus.embedded import DerivationError, derive_embedded
from sphere_calculus.immersed import (
    BEZOUT_STEP2,
    BEZOUT_STEP3,
    X2M4,
    NormalForm,
    _chain_relation,
    base_case,
    derive_immersed,
    finite_type_order,
    k0_index,
    k_index,
    r_index,
    shift_reduce,
    step_p_even,
    step_p_odd,
    step_raise_s,
    universal_coefficients,
    validate_normal_form,
)
from sphere_calculus.model import moments
from sphere_calculus.rings import AlphaPoly, PolyX, rat

X = PolyX.x()
A = AlphaPoly.gen


def const(v):
    return AlphaPoly((PolyX.const(v),))


def per_term_sum(terms):
    """The sum of w * f over the (PolyX w, AlphaPoly f) in `terms`, added
    coefficient by coefficient with PolyX `*` and `+` alone, apart from
    the rings kernel that every AlphaPoly sum runs through."""
    out = [PolyX()] * max([len(f.coeffs) for _, f in terms], default=0)
    for w, f in terms:
        for k, c in enumerate(f.coeffs):
            out[k] = out[k] + c * w
    return AlphaPoly(out)


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


def q_product(f, g):
    """The product of two q-polynomials, tuples of PolyX coefficients
    lowest power first, summed term by term."""
    out = [PolyX()] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = out[i + j] + fi * gj
    return out


def bezout_combination(f, g, phi1, phi2):
    """f phi1 + g phi2 as a list of q-coefficients, trailing zeros
    stripped."""
    out = [a + b for a, b in itertools.zip_longest(
        q_product(f, phi1), q_product(g, phi2), fillvalue=PolyX())]
    while out and not out[-1]:
        out.pop()
    return out


def test_step2_bezout_is_x2_minus_4():
    assert bezout_combination(*BEZOUT_STEP2) == [X * X - 4]


def test_step3_bezout_is_x2_minus_4():
    assert bezout_combination(*BEZOUT_STEP3) == [X * X - 4]


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
    bad = NormalForm(nf.p, nf.s, nf.a, nf.c,
                     (nf.d[0] + A(1), nf.d[1], nf.d[2]))
    with pytest.raises(DerivationError):
        step_raise_s(bad)


def test_tampered_input_is_falsified_odd_step():
    nf = derive_immersed(0, 0, -8)
    bad = NormalForm(nf.p, nf.s, nf.a, nf.c[:-1] + (nf.c[-1] + const(1),),
                     nf.d)
    with pytest.raises(DerivationError):
        step_p_odd(bad)


# ------------------------------------------------- shared echelon basis


@pytest.mark.parametrize("p", range(5))
def test_chain_relation_is_shared_by_every_p(p):
    """The t^m relation (x^2-4)^r (alpha^m - rho) read directly off the
    (p, s, a) target is the shared _chain_relation(s, a, m) times
    (x^2-4)^r(p, s): the relation memo may drop p from its key."""
    for s in range(p + 1):
        for a in range(4 * p - 10, 4 * p - 1):
            nf = immersed._make_target(p, s, a)
            for m in range(13):
                side = "sinh" if m % 2 else "cosh"
                got = _chain_relation(s, a, m)
                if m // 2 <= (nf.k0 if m % 2 else nf.k):
                    assert got is None
                    continue
                rho = per_term_sum([
                    (weight_series(nf.a, nf.s, immersed.KERNEL[side], i,
                                   m + 1)[m], ci)
                    for i, ci in enumerate(nf.d if m % 2 else nf.c)])
                scale = X2M4**nf.r
                want = per_term_sum([(scale, A(m)),
                                     (-scale * math.factorial(m), rho)])
                assert got * X2M4**r_index(p, s) == want



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
            rel = per_term_sum([(piv[d], rel), (-rel[d], piv)])
        return False

    def load(self, mmax):
        for m in range(self.loaded + 1, mmax + 1):
            for i, (p_src, a_src, chain) in enumerate(self.sources):
                for s in range(p_src, -1, -1):
                    rel = _chain_relation(s, a_src, m)
                    if rel is None:
                        continue
                    for mode in chain:
                        rel = shift_reduce(rel, mode)
                    self.insertions[i] += 1
                    self.made[i] += self.insert(
                        rel * X2M4**r_index(p_src, s))
        self.loaded = max(self.loaded, mmax)

    def reduce(self, poly):
        """(remainder, multiplier) of the full fraction-free reduction."""
        mult = PolyX.const(1)
        if poly:
            self.load(poly.degree + 2)
            for d in range(poly.degree, -1, -1):
                piv = self.basis.get(d)
                if piv is not None and poly[d]:
                    mult = mult * piv[d]
                    poly = per_term_sum([(piv[d], poly), (-poly[d], piv)])
        return poly, mult

    def top_reduce(self, poly):
        """The reduction of the earlier check: stop at the first top
        degree without a pivot."""
        if poly:
            self.load(poly.degree + 2)
        while poly:
            piv = self.basis.get(poly.degree)
            if piv is None:
                return poly
            d = poly.degree
            poly = per_term_sum([(piv[d], poly), (-poly[d], piv)])
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
            tally["nonzero"] += bool(got[0]) + bool(res[0])
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
    assert tally["reduce"] > 4000 and tally["nonzero"] > 1500
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
    assert got[0] and got == FreshContext(p, a, extra).reduce(poly)


polyx = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
    lambda cs: sum((X**i * c for i, c in enumerate(cs)), PolyX()))
alpha_polys = st.lists(polyx, max_size=9).map(AlphaPoly)


@settings(max_examples=60, deadline=None)
@given(poly=alpha_polys,
       family=st.sampled_from([(1, -4), (1, 0), (2, -6), (3, -9), (3, -2)]))
def test_reduce_is_a_full_fraction_free_reduction(poly, family):
    ctx = immersed._family(*family)
    rem, mult = ctx.reduce(poly)
    assert not any(rem[d] for d in ctx.pivots)
    assert mult
    assert not ctx.reduce(poly * mult - rem)[0]


# ----------------------------------------- per-term references

# The exact linear combinations of the immersed layer as they were summed
# before rings.linear_combination: one PolyX product, sum and reduction
# per term.  The engine must give the same canonical coefficients.

def ref_shift_reduce(poly, mode):
    moms = [moments(mode, j) for j in range(len(poly.coeffs))]
    out = [PolyX()] * max(len(poly.coeffs), 1)
    for p, gamma in enumerate(poly.coeffs):
        if not gamma:
            continue
        for j in range(p + 1):
            if moms[j]:
                w = gamma * moms[j] * (math.comb(p, j) << j)
                out[p - j] = out[p - j] + w
    return AlphaPoly(out)


def ref_combine(terms):
    size = max((len(f) + len(lst) - 1 for f, lst in terms if lst),
               default=0)
    out = [[] for _ in range(size)]
    for f, lst in terms:
        for i, fi in enumerate(f):
            if not fi:
                continue
            for j, cj in enumerate(lst):
                out[i + j].append((fi, cj))
    return [per_term_sum(t) for t in out]


def canonical(poly):
    return [(c.num, c.den) for c in poly.coeffs]


wide_polyx = st.lists(st.builds(rat, st.integers(-10**4, 10**4),
                                st.integers(1, 360)), max_size=4).map(PolyX)
wide_alpha = st.lists(wide_polyx, max_size=8).map(AlphaPoly)


@settings(max_examples=60, deadline=None)
@given(poly=wide_alpha, mode=st.sampled_from(["B", "S"]))
def test_shift_reduce_matches_per_term_reference(poly, mode):
    assert canonical(shift_reduce(poly, mode)) == canonical(
        ref_shift_reduce(poly, mode))


@settings(max_examples=60, deadline=None)
@given(poly=wide_alpha, m1=st.sampled_from(["B", "S"]),
       m2=st.sampled_from(["B", "S"]))
def test_shift_reduce_along_a_blowup_chain_is_direct_substitution(
        poly, m1, m2):
    """Transporting through e1 of mode m1 and then e2 of mode m2 is the
    substitution alpha -> alpha + 2e1 + 2e2, with each e1^i e2^j read as
    moments(m1, i) moments(m2, j), expanded term by term."""
    out = [PolyX()] * max(len(poly.coeffs), 1)
    for n, gamma in enumerate(poly.coeffs):
        for k in range(n + 1):
            for i in range(n - k + 1):
                j = n - k - i
                w = (math.comb(n, k) * math.comb(n - k, i)) << (i + j)
                out[k] = out[k] + gamma * moments(m1, i) * moments(m2, j) * w
    got = shift_reduce(shift_reduce(poly, m1), m2)
    assert canonical(got) == canonical(AlphaPoly(out))


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(st.tuples(st.lists(wide_polyx, max_size=4).map(tuple),
                                st.lists(wide_alpha, max_size=4)),
                      max_size=3))
def test_combine_matches_per_term_reference(terms):
    got, want = immersed._combine(terms), ref_combine(terms)
    assert [canonical(c) for c in got] == [canonical(c) for c in want]


@settings(max_examples=60, deadline=None)
@given(low=st.lists(wide_polyx, max_size=5), lead=wide_polyx.filter(bool),
       f=st.lists(wide_polyx, min_size=6, max_size=9).map(AlphaPoly))
def test_reduction_cross_step_matches_per_term_reference(low, lead, f):
    # A context whose one pivot has top degree d makes at most one cross
    # step, f * lead - piv * f[d]; it has nothing left to load.
    d = len(low)
    piv = AlphaPoly(low + [lead])
    ctx = immersed.ReductionContext(0, -2)
    ctx.pivots, ctx.loaded = {d: piv}, f.degree
    rem, mult = ctx.reduce(f)
    want, want_mult = ((per_term_sum([(lead, f), (-f[d], piv)]), lead)
                       if f[d] else (f, 1))
    assert not rem[d] and mult == want_mult
    assert canonical(rem) == canonical(want)


# ------------------------------------------------ verdict equivalence


# The reference's bases, one per target family, apart from the engine's.
REFERENCE_BASES = {}


def reference_check_side(nf, out, side, terms, what, retained=False):
    """The step check as it was before one reduction per q-coefficient:
    expand the residual into its Taylor coefficients and top-reduce each
    on a basis of the target family built apart from the engine's."""
    target = out.c if side == "cosh" else out.d
    scale = X2M4**nf.r
    residual = immersed._combine(
        [(tuple(c * scale for c in f), lst) for f, lst in terms]
        + [((-X2M4**out.r,), target)])
    if retained:
        for i in range(len(target)):
            if residual[i]:
                raise DerivationError(
                    "%s %s coefficient %d mismatch" % (what, side, i))
    if not any(residual):
        return
    order = max(12, 2 * max(nf.k, nf.k0, 0) + 10)
    weights = [weight_series(out.a, out.s, immersed.KERNEL[side], i, order)
               for i in range(len(residual))]
    total = [per_term_sum([(w[j], coeff)
                           for w, coeff in zip(weights, residual)])
             for j in range(order)]
    ctx = REFERENCE_BASES.setdefault((out.p, out.a),
                                     FreshContext(out.p, out.a))
    for j, coeff in enumerate(total):
        if ctx.top_reduce(coeff):
            raise DerivationError("%s (%s) falsified: t^%d"
                                  % (what, side, j))


def step_input(p, s, a):
    """The step function into (p, s, a) and its derived input."""
    if s > 0:
        return step_raise_s, derive_immersed(p - 1, s - 1, a - 4)
    if p % 2:
        return step_p_odd, derive_immersed(p - 1, 0, a - 4)
    return step_p_even, derive_immersed(p - 2, 0, a - 8)


# Four tamperings of a coefficient of alpha-parity `par`: plus the unit
# of that parity (1 on the cosh side, alpha on the sinh side), plus x
# times it, times 7, and plus the top alpha-power its index allows.
TAMPERINGS = (
    lambda f, par, top: f + A(par),
    lambda f, par, top: f + A(par) * X,
    lambda f, par, top: f * rat(7),
    lambda f, par, top: f + A(top),
)


def tampered(nf):
    """`nf` with its first or its last c_i or d_i tampered, each way."""
    for field, par in (("c", 0), ("d", 1)):
        coeffs = getattr(nf, field)
        for i in sorted({0, len(coeffs) - 1}) if coeffs else ():
            for tamper in TAMPERINGS:
                bad = list(coeffs)
                bad[i] = tamper(coeffs[i], par, 2 * i + par)
                if bad[i] != coeffs[i]:
                    sides = {"c": nf.c, "d": nf.d, field: tuple(bad)}
                    yield NormalForm(nf.p, nf.s, nf.a, **sides)


def failure(check, *args, **kwargs):
    """The DerivationError `check` raises, or None."""
    try:
        check(*args, **kwargs)
    except DerivationError as exc:
        return exc
    return None


def test_step_verdicts_match_the_taylor_coefficient_check(monkeypatch):
    check_side = immersed._check_side

    def both(*args, **kwargs):
        # Each side raises exactly where the reference does, at the same
        # retained index or t-power.
        got = failure(check_side, *args, **kwargs)
        ref = failure(reference_check_side, *args, **kwargs)
        assert (got is None) == (ref is None)
        if got is not None:
            assert (str(got) + " ").startswith(str(ref) + " ")
            raise got

    monkeypatch.setattr(immersed, "_check_side", both)
    # The targets p <= 3 with 2 <= 4p - a <= 10, every step kind.
    verdicts = {}
    for p in range(1, 4):
        for s in range(p + 1):
            for a in range(4 * p - 10, 4 * p - 1):
                step, nf = step_input(p, s, a)
                for bad in tampered(nf):
                    key = (step.__name__, failure(step, bad) is not None)
                    verdicts[key] = verdicts.get(key, 0) + 1
    print("tampered step inputs (step, raised): count", verdicts)
    assert {name for name, _ in verdicts} == set(BLOWN_DOWN)
    assert sum(n for (_, got), n in verdicts.items() if got) > 0
    assert sum(n for (_, got), n in verdicts.items() if not got) > 0


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="the empty cosh side of an s' = 0 "
                   "member with k = -1 makes (x^2-4)^r a degree-0 pivot, so "
                   "every residual into a family with a >= -1 reduces to 0")
def test_empty_side_family_falsifies_tampered_input():
    nf = derive_immersed(0, 0, -5)
    bad = NormalForm(nf.p, nf.s, nf.a, (nf.c[0] + const(1),) + nf.c[1:],
                     nf.d)
    with pytest.raises(DerivationError):
        step_p_odd(bad)


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
