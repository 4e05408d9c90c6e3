"""Exact-arithmetic foundation: polynomials, series, q/alpha rings."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sphere_calculus.rings import (
    AlphaPoly,
    PolyX,
    QPoly,
    SeriesT,
    _power,
    factorial,
    linear_combination,
    rat,
    rat_to_str,
)

rationals = st.builds(
    rat,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)
polys = st.lists(rationals, max_size=5).map(PolyX)


def rat_from_str(text):
    """Parse "num/den" or a plain integer."""
    num, _, den = text.partition("/")
    return rat(int(num), int(den or 1))


def test_rat_round_trip():
    for text in ["0", "5", "-3", "2/7", "-11/4"]:
        assert rat_to_str(rat_from_str(text)) == text


def test_polyx_basic():
    x = PolyX.x()
    p = (x + 1) * (x - 1)
    assert p == x * x - 1
    assert p.degree == 2
    assert (x**5).coeffs[5] == 1


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_polyx_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_series_inverse_and_sqrt():
    one = SeriesT.one(10)
    f = one + one.shift(1).truncate(10)  # 1 + t
    g = f.inverse()
    assert (f * g - one).is_zero()
    h = (one + one.shift(2).truncate(10)).sqrt()
    assert (h * h - (one + one.shift(2).truncate(10))).is_zero()


POWER_BASES = [
    PolyX((rat(1), rat(-2, 3), rat(1, 2))),
    SeriesT((PolyX.const(1), PolyX.x(), PolyX.const(rat(-1, 3))), 10),
    AlphaPoly((PolyX.x(), PolyX.const(2))),
]


@pytest.mark.parametrize("base", POWER_BASES, ids=lambda b: type(b).__name__)
def test_power_matches_repeated_product(base):
    if isinstance(base, SeriesT):
        product = SeriesT.one(base.order)
    else:
        product = type(base).const(1)
    for k in range(9):
        assert base ** k == product
        product = product * base
    with pytest.raises(ValueError):
        base ** -1


class Counted:
    """An element of (Z, +) written multiplicatively, counting products."""

    def __init__(self, e, log):
        self.e, self.log = e, log

    def __mul__(self, other):
        self.log.append(1)
        return Counted(self.e + other.e, self.log)


@pytest.mark.parametrize("n", range(17))
def test_power_takes_fewest_products(n):
    # Square-and-multiply from the lowest set bit: one squaring per bit
    # below the top one, one product per further set bit.
    log = []
    got = _power(Counted(1, log), n, Counted(0, log))
    assert got.e == n
    squarings = max(n.bit_length() - 1, 0)
    assert len(log) == squarings + max(bin(n).count("1") - 1, 0)


def test_series_exp_integral():
    one = SeriesT.one(8)
    e = one.shift(1).truncate(8).exp()  # exp(t)
    for j in range(8):
        assert e[j] == PolyX.const(rat(1) / factorial(j))


def test_bezout_check():
    x = PolyX.x()
    f = QPoly((PolyX.const(1), PolyX(), -PolyX.const(1)))
    g = QPoly((PolyX.const(1), -x, PolyX.const(1)))
    phi1 = QPoly((x * x - 2, -x))
    phi2 = QPoly((PolyX.const(-2), -x))
    assert f * phi1 + g * phi2 == QPoly.const(x * x - 4)
    assert f * phi1 + g * phi2 != QPoly.const(x * x - 3)


def test_alpha_parity():
    even = AlphaPoly((PolyX.const(1), PolyX(), PolyX.x()))
    assert even.alpha_parity_is(0)
    assert not even.alpha_parity_is(1)
    assert AlphaPoly.gen(3).alpha_parity_is(1)


@given(polys, st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_alpha_scalar_action(c, n):
    a = AlphaPoly.gen(n)
    assert a * c == AlphaPoly([PolyX()] * n + [c])


# ------------------------------------------- integer-numerator storage


def assert_canonical(p):
    """num is a tuple of ints over one positive int den, in lowest terms
    with no trailing zero; the zero polynomial is ((), 1)."""
    assert type(p.num) is tuple and type(p.den) is int
    assert all(type(c) is int for c in p.num)
    assert p.den > 0
    if p.num:
        assert p.num[-1] != 0
        assert math.gcd(p.den, *p.num) == 1
    else:
        assert p.den == 1


def ref(p):
    """A Fraction-per-coefficient copy of p."""
    return [Fraction(int(c.numerator), int(c.denominator)) for c in p.coeffs]


def ref_strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return ref_strip(x + y for x, y in zip(a, b))


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_strip(out)


def agrees(p, want):
    assert_canonical(p)
    assert ref(p) == ref_strip(want)


wide_rationals = st.builds(
    rat,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=720),
)
wide_polys = st.lists(wide_rationals | st.just(rat(0)), max_size=6).map(PolyX)
scalars = wide_rationals | st.integers(min_value=-30, max_value=30)


@given(wide_polys, wide_polys, scalars, st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_polyx_agrees_with_fraction_reference(a, b, c, k):
    ra, rb, rc = ref(a), ref(b), Fraction(int(c.numerator),
                                          int(c.denominator))
    for p in (a, b):
        agrees(p, ref(p))
    agrees(a + b, ref_add(ra, rb))
    agrees(a - b, ref_add(ra, [-x for x in rb]))
    agrees(-a, [-x for x in ra])
    agrees(a * b, ref_mul(ra, rb))
    agrees(a * c, [x * rc for x in ra])
    agrees(c * a, [x * rc for x in ra])
    agrees(a + c, ref_add(ra, [rc]))
    agrees(c - a, ref_add([rc], [-x for x in ra]))
    want = [Fraction(1)]
    for _ in range(k):
        want = ref_mul(want, ra)
    agrees(a ** k, want)
    if c:
        agrees(a / c, [x / rc for x in ra])
        agrees(a / PolyX.const(c), [x / rc for x in ra])
    else:
        with pytest.raises(ZeroDivisionError):
            a / c
    for i in range(-1, len(ra) + 2):
        got = a[i]
        assert type(got) is type(rat(0))
        assert got == (ra[i] if 0 <= i < len(ra) else 0)


@given(wide_polys, wide_polys)
@settings(max_examples=80, deadline=None)
def test_equal_polynomials_compare_and_hash_equal(a, b):
    for same in ((a + b) - b, b + a - b, PolyX(a.coeffs),
                 PolyX(list(a.coeffs) + [rat(0)] * 3), a * PolyX.const(1),
                 (a * 6) / 6):
        assert_canonical(same)
        assert same == a and hash(same) == hash(a)
        assert (same.num, same.den) == (a.num, a.den)
    assert a * b == b * a and hash(a * b) == hash(b * a)


ONES = [1, rat(1), rat(7, 7), PolyX.const(1), PolyX.x() - PolyX.x() + 1]


@given(wide_polys, wide_rationals, st.sampled_from(ONES))
@settings(max_examples=80, deadline=None)
def test_product_by_one_is_the_operand(a, c, one):
    for got, want in ((a * one, a), (one * a, a),
                      (PolyX.const(1) * c, PolyX.const(c))):
        assert_canonical(got)
        assert got == want and hash(got) == hash(want)
        assert (got.num, got.den) == (want.num, want.den)
    for ring in (AlphaPoly, QPoly):
        f = ring((a, -a, PolyX(), a * PolyX.x() + c))
        for got in (f * one, one * f):
            assert type(got) is ring and got == f
            assert got.coeffs == f.coeffs and hash(got) == hash(f)


def test_equal_polynomials_from_different_fractions():
    half = PolyX((rat(1, 2),))
    assert PolyX((rat(2, 4),)) == half
    assert hash(PolyX((rat(2, 4),))) == hash(half)
    one = half + half
    assert (one.num, one.den) == ((1,), 1) and one == PolyX.const(1)
    x = PolyX.x()
    assert (x + 1) * (x - 1) == x * x - 1
    thirds = PolyX((rat(1, 3), rat(2, 3))) * 3
    assert (thirds.num, thirds.den) == ((1, 2), 1)
    zero = x * rat(1, 7) - x / 7
    assert (zero.num, zero.den) == ((), 1) and not zero
    assert hash(zero) == hash(PolyX())


def test_polyx_compares_with_int_and_rational():
    assert PolyX.const(3) == 3 and 3 == PolyX.const(3)
    assert PolyX.const(rat(1, 2)) == rat(1, 2)
    assert rat(1, 2) == PolyX.const(rat(1, 2))
    assert PolyX() == 0 and PolyX() == rat(0)
    assert PolyX.x() != 1 and PolyX.const(rat(1, 2)) != 1
    assert PolyX.const(2) != rat(1, 2)


series = st.lists(wide_polys, min_size=1, max_size=7).map(
    lambda cs: SeriesT(cs, len(cs)))


@given(series, series)
@settings(max_examples=60, deadline=None)
def test_series_product_agrees_with_coefficient_sums(f, g):
    n = min(f.order, g.order)
    want = [PolyX()] * n
    for i in range(n):
        for j in range(n - i):
            want[i + j] = want[i + j] + f[i] * g[j]
    got = f * g
    assert got.order == n and list(got.coeffs) == want
    for c in got.coeffs:
        assert_canonical(c)


# Per-coefficient PolyX references for the series recurrences, one
# PolyX product, sum and reduction per term: the kernel that replaces
# them (rings.sum_of_products) must give the same canonical coefficients.

def ref_inverse(f):
    inv0 = PolyX.const(1) / f[0]
    out = [inv0]
    for n in range(1, f.order):
        acc = PolyX()
        for i in range(1, n + 1):
            acc = acc + f[i] * out[n - i]
        out.append(-acc * inv0)
    return out


def ref_sqrt(f):
    out = [PolyX.const(1)]
    for n in range(1, f.order):
        acc = f[n]
        for i in range(1, n):
            acc = acc - out[i] * out[n - i]
        out.append(acc * rat(1, 2))
    return out


def ref_exp(f):
    out = [PolyX.const(1)]
    for n in range(1, f.order):
        acc = PolyX()
        for i in range(1, n + 1):
            acc = acc + f[i] * i * out[n - i]
        out.append(acc * rat(1, n))
    return out


def ref_wp_laurent(order):
    from sphere_calculus.elliptic import G2, G3

    c = {2: G2 * rat(1, 20), 3: G3 * rat(1, 28)}
    for k in range(4, order // 2 + 3):
        acc = PolyX()
        for m in range(2, k - 1):
            acc = acc + c[m] * c[k - m]
        c[k] = acc * rat(3, (2 * k + 1) * (k - 3))
    return c


def same_coefficients(got, want):
    """Equal canonical numerators, denominators and hashes."""
    assert [(c.num, c.den, hash(c)) for c in got] == [
        (c.num, c.den, hash(c)) for c in want]


tails = st.lists(wide_polys, min_size=0, max_size=9)
X = PolyX.x()
EXAMPLE_TAIL = [X / 5, X * X - rat(1, 3), PolyX(), X / 720]


@given(wide_rationals.filter(bool).map(PolyX.const), tails)
@example(PolyX.const(-1), EXAMPLE_TAIL)
@example(PolyX.const(rat(-3, 7)), EXAMPLE_TAIL)
@example(PolyX.const(rat(5, 2)), EXAMPLE_TAIL)
@settings(max_examples=120, deadline=None)
def test_series_inverse_matches_per_coefficient_reference(c, tail):
    f = SeriesT([c] + tail, len(tail) + 1)
    got = f.inverse()
    assert got.order == f.order
    same_coefficients(got.coeffs, ref_inverse(f))
    same_coefficients((f * got).coeffs, SeriesT.one(f.order).coeffs)


@given(tails)
@settings(max_examples=120, deadline=None)
def test_series_sqrt_matches_per_coefficient_reference(tail):
    f = SeriesT([PolyX.const(1)] + tail, len(tail) + 1)
    got = f.sqrt()
    assert got.order == f.order
    same_coefficients(got.coeffs, ref_sqrt(f))
    same_coefficients((got * got).coeffs, f.coeffs)


@given(tails)
@settings(max_examples=120, deadline=None)
def test_series_exp_matches_per_coefficient_reference(tail):
    f = SeriesT([PolyX()] + tail, len(tail) + 1)
    got = f.exp()
    assert got.order == f.order
    same_coefficients(got.coeffs, ref_exp(f))


def test_wp_series_matches_per_coefficient_reference():
    from sphere_calculus.elliptic import _wp_laurent_coeffs, wp_series

    want = ref_wp_laurent(48)
    for order in range(8, 49):
        got = _wp_laurent_coeffs(order)
        assert sorted(got) == list(range(2, order // 2 + 3))
        same_coefficients([got[k] for k in sorted(got)],
                          [want[k] for k in sorted(got)])
    for order in (8, 9, 16, 25, 32, 48):
        u = wp_series(order)
        expect = [PolyX.const(1)] + [PolyX()] * (order - 1)
        for k in range(2, order // 2 + 3):
            if 2 * k < order:
                expect[2 * k] = want[k]
        same_coefficients(u.coeffs, expect)


# Per-term references for the sequence kernel, one PolyX product, sum
# and reduction per term, as the loops rings.linear_combination replaced.

def ref_linear_combination(terms, size):
    out = [PolyX()] * size
    for w, f in terms:
        for k in range(min(size, len(f))):
            out[k] = out[k] + w * f[k]
    return out


def ref_ring_product(a, b):
    """The polynomial product as RingPoly.__mul__ summed it term by term."""
    a, b = a.coeffs, b.coeffs
    out = [PolyX()] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def canonical_pairs(polys):
    for p in polys:
        assert_canonical(p)
    return [(p.num, p.den) for p in polys]


sequences = st.lists(wide_polys, max_size=6)


@given(st.lists(st.tuples(wide_polys, sequences), max_size=5),
       st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_linear_combination_matches_per_term_reference(terms, size):
    got = linear_combination(terms, size)
    assert canonical_pairs(got) == canonical_pairs(
        ref_linear_combination(terms, size))


@given(sequences, sequences, st.sampled_from([AlphaPoly, QPoly]))
@settings(max_examples=60, deadline=None)
def test_ring_product_matches_per_term_reference(a, b, ring):
    f, g = ring(a), ring(b)
    got = f * g
    assert type(got) is ring
    assert canonical_pairs(got.coeffs) == canonical_pairs(
        ring(ref_ring_product(f, g)).coeffs)


@given(st.lists(st.tuples(wide_polys, sequences), max_size=5),
       st.sampled_from([AlphaPoly, QPoly]))
@settings(max_examples=60, deadline=None)
def test_ring_combination_matches_per_term_reference(terms, ring):
    polys = [(w, ring(f)) for w, f in terms]
    want = ring()
    for w, f in polys:
        want = want + f * w
    got = ring.combination(polys)
    assert type(got) is ring and got == want
    assert canonical_pairs(got.coeffs) == canonical_pairs(want.coeffs)
