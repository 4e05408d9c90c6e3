"""The memoised series powers, power tables and q-basis tables against
plain powers and products of fresh builds."""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from sphere_calculus import elliptic, embedded, immersed, model, rings
from sphere_calculus.elliptic import triangular_solve
from sphere_calculus.immersed import k0_index, k_index
from sphere_calculus.rings import AlphaPoly, PolyX, SeriesT, factorial, rat

NAMES = ("B", "S", "Delta", "q", "2-xq")
# The base series with a unit constant term, whose every int power is
# one power table.
UNITS = ("B", "2-xq")


def inverted(f):
    """1/f for a SeriesT f, by the rings recurrence from scratch."""
    return rings.power(rings.Series(f.coeffs.__getitem__), -1).at(f.order)


@lru_cache(maxsize=None)
def fresh(order):
    """The blowup series of a new graph, grown and checked at `order`
    alone, with 2 - xq formed directly."""
    bf = elliptic._grown(elliptic._build(), order)
    named = {name: getattr(bf, name) for name in ("B", "S", "Delta", "Q",
                                                  "q", "Qprime")}
    named["2-xq"] = SeriesT(
        [(2 if k == 0 else 0) - PolyX.x() * c
         for k, c in enumerate(bf.q.coeffs)], bf.q.order)
    return named


def plain_power(order, name, k):
    """The fresh series `name` at `order` to the int power k, by repeated
    products of it, or of its inverse for k < 0."""
    f = fresh(order)[name]
    return f ** k if k >= 0 else inverted(f) ** -k


def assert_same(got, want):
    assert got.order == want.order
    assert got.coeffs == want.coeffs


requests = st.lists(
    st.tuples(st.integers(-12, 12), st.integers(8, 40)), min_size=2,
    max_size=4)


@given(st.sampled_from(NAMES), requests)
@example("Delta", [(3, 20), (5, 12), (2, 30)])
@example("B", [(-3, 20), (5, 12), (-12, 30)])
@settings(max_examples=30, deadline=None)
def test_series_power_matches_plain_power(name, reqs):
    """A chain of k equal factors, and for a unit constant term the one
    power table (name, k), equal the plain power."""
    # Fresh tables, so that the drawn orders fall both below and above
    # the order a table was built at.
    elliptic._table.cache_clear()
    for k, order in reqs:
        if name not in UNITS:
            k = abs(k)
        want = plain_power(order, name, k)
        if k >= 0:
            assert_same(elliptic.product((name,) * k, want.order), want)
        if name in UNITS and k:
            assert_same(elliptic.product(((name, k),), want.order), want)


KERNELS = [(0, 0), (1, 0), (0, 1), (1, 1)]


def from_scratch_weight(a, s, kernel, i, order):
    f = fresh(order + 1)
    qi, qj = kernel
    return (plain_power(order + 1, "B", -a)
            * plain_power(order + 1, "2-xq", -s) * f["Q"] ** qi
            * f["Qprime"] ** qj * f["q"] ** i).truncate(order)


@given(st.integers(-12, 12), st.integers(0, 4), st.sampled_from(KERNELS),
       st.lists(st.tuples(st.integers(1, 5), st.integers(8, 30)),
                min_size=2, max_size=3))
@example(-3, 2, (0, 1), [(3, 16), (5, 10), (2, 24)])
@example(-4, 0, (1, 1), [(3, 16), (5, 10), (2, 24)])
@settings(max_examples=30, deadline=None)
def test_weight_series_match_from_scratch(a, s, kernel, reqs):
    elliptic._table.cache_clear()
    for count, order in reqs:
        for i in range(count):
            assert_same(elliptic.weight_series(a, s, kernel, i, order),
                        from_scratch_weight(a, s, kernel, i, order))


def test_long_factor_chains_are_walked_without_recursion():
    """A weight of B^1200, one power table, and 600 factors q: each
    prefix table is extended before the next is reached, so no build
    recurses down the chain."""
    elliptic._table.cache_clear()
    assert_same(elliptic.weight_series(-1200, 0, (0, 0), 600, 8),
                rings.SeriesT((), 8))
    assert_same(elliptic.weight_series(-1200, 0, (0, 0), 0, 8),
                fresh(9)["B"].truncate(8) ** 1200)


@given(st.integers(1, 12), st.integers(8, 30), st.data())
@settings(max_examples=40, deadline=None)
def test_model_and_basis_series_match_products(n, order, data):
    """The q-basis reads of the twist series and the embedded basis equal
    the S/B/Delta products they stand for."""
    f = fresh(order + 1)
    S, B, D = f["S"].truncate(order), f["B"].truncate(order), f["Delta"]
    m = data.draw(st.integers(0, n), label="twist count")
    assert_same(model.smb_series(n, m, order), S ** m * B ** (n - m))
    if 1 <= m <= n - 1:
        assert_same(model.smb_insertion_series(n, m, order),
                    SeriesT((-1,), order) * D * S ** (m - 1)
                    * B ** (n - m - 1))
    for epsilon in (0, 1):
        for parity in (0, 1):
            for (s, b, d), series in embedded.basis_series(
                    n, epsilon, parity, order):
                assert_same(series, S ** s * B ** b * D ** d)


# The (a, s) of the cells `verify --suite immersed` derives.
VERIFY_AS = sorted({(a, s) for p in range(4) for s in range(p + 1)
                    for a in range(4 * p - 2, 4 * p - 7, -1)})


def per_term_sum(terms):
    """The sum of w * f over the (PolyX w, AlphaPoly f) in `terms`, added
    coefficient by coefficient with PolyX `*` and `+` alone, apart from
    the rings kernel that every AlphaPoly sum runs through."""
    out = [PolyX()] * max([len(f.coeffs) for _, f in terms], default=0)
    for w, f in terms:
        for k, c in enumerate(f.coeffs):
            out[k] = out[k] + c * w
    return AlphaPoly(out)


@pytest.mark.parametrize("a, s", VERIFY_AS)
def test_triangular_solve_reproduces_universal_coefficients(a, s):
    for side, kernel, par, top in (("cosh", (0, 1), 0, k_index(a, s)),
                                   ("sinh", (1, 0), 1, k0_index(a, s))):
        want = immersed.universal_coefficients(a, s, side)
        order = max(8, 2 * top + par + 1)
        weights = [from_scratch_weight(a, s, kernel, i, order)
                   for i in range(top + 1)]
        got = tuple(triangular_solve(weights, par))
        assert got == want
        # The defining equations: cosh/sinh(t alpha) matched at every
        # solved t-power.
        for j in range(top + 1):
            tp = 2 * j + par
            total = per_term_sum([(w[tp], c) for c, w in zip(got, weights)])
            assert total == AlphaPoly.gen(tp) * (rat(1) / factorial(tp))


def test_truncated_blowup_functions_match_fresh_builds():
    elliptic.blowup_functions.cache_clear()
    elliptic._graph.cache_clear()
    elliptic.blowup_functions(40)
    for order in range(8, 41):
        got = elliptic.blowup_functions(order)
        for name in ("B", "S", "Delta", "Q", "q", "Qprime"):
            assert_same(getattr(got, name), fresh(order)[name])


# The products the deepening tests read, each with the power (name, k)
# it stands for: chains of k equal factors and single power tables.
DEEPENED_PRODUCTS = ([((name,) * k, (name, k)) for name in NAMES
                      for k in range(4)]
                     + [(((name, k),), (name, k)) for name in UNITS
                        for k in (-3, -1, 2)])
# The weight tables the deepening tests read: (a, s, kernel), q^0..q^2.
DEEPENED_WEIGHTS = [(-3, 2, (1, 1)), (2, 1, (0, 1)), (0, 0, (1, 0)),
                    (-4, 0, (0, 0))]


def clear_series_tables():
    for table in (elliptic.blowup_functions, elliptic._graph,
                  elliptic._table):
        table.cache_clear()


def deepened_requests(order):
    return ([elliptic.blowup_functions(order)]
            + [elliptic.product(factors, order)
               for factors, _ in DEEPENED_PRODUCTS]
            + [elliptic.weight_series(a, s, kernel, i, order)
               for a, s, kernel in DEEPENED_WEIGHTS for i in range(3)])


def kernel_work(monkeypatch, orders):
    """The requests of each order in turn from cleared tables, the int
    multiplications _int_dot did for them, and the PolyX.__bool__ calls
    they made."""
    clear_series_tables()
    work, tests = [0], [0]
    int_dot, is_nonzero = rings._int_dot, rings.PolyX.__bool__

    def spy(rows, div):
        work[0] += sum(len(a) * len(b) for _, a, _, b in rows)
        return int_dot(rows, div)

    def bool_spy(p):
        tests[0] += 1
        return is_nonzero(p)

    with monkeypatch.context() as m:
        m.setattr(rings, "_int_dot", spy)
        m.setattr(rings.PolyX, "__bool__", bool_spy)
        got = {order: deepened_requests(order) for order in orders}
    return got, work[0], tests[0]


def test_ascending_deepening_matches_fresh_builds_at_the_cost_of_one(
        monkeypatch):
    got, ascending, ascending_tests = kernel_work(monkeypatch, range(8, 41))
    for order, (bf, *rest) in got.items():
        for name in ("B", "S", "Delta", "Q", "q", "Qprime"):
            assert_same(getattr(bf, name), fresh(order)[name])
        powers = rest[:len(DEEPENED_PRODUCTS)]
        weights = rest[len(DEEPENED_PRODUCTS):]
        for (_, (name, k)), f in zip(DEEPENED_PRODUCTS, powers):
            assert_same(f, plain_power(order + 1, name, k).truncate(order))
        for (a, s, kernel, i), f in zip(
                [w + (i,) for w in DEEPENED_WEIGHTS for i in range(3)],
                weights):
            assert_same(f, from_scratch_weight(a, s, kernel, i, order))
    _, one_build, one_build_tests = kernel_work(monkeypatch, [40])
    # Extending continues every product and recurrence where the last
    # order left it, so the 33 orders cost what the deepest alone does:
    # the two counts are equal, and the 5 % slack leaves room for a first
    # build that groups its products differently.  Rebuilding the tables
    # at each order costs about 6.6 times one build here.  The nonzero
    # tests count the bookkeeping around the kernel: a continuation that
    # scanned its factors afresh at each order would make several times
    # those of one build.
    assert ascending <= 1.05 * one_build
    assert ascending_tests <= 1.05 * one_build_tests


def test_deepening_checks_every_new_coefficient(monkeypatch):
    clear_series_tables()
    elliptic.blowup_functions(16)
    # A wrong g2 from here on falsifies the Weierstrass ODE at every
    # t-power where it meets a nonzero coefficient, from t^4 up.  The
    # deepening checks only the coefficients the build at 16 did not
    # reach, so the first failure it finds lies above them.
    with monkeypatch.context() as m:
        m.setattr(elliptic, "G2", elliptic.G2 + 1)
        with pytest.raises(elliptic.IdentityError) as err:
            elliptic.blowup_functions(24)
    assert err.value.name == "weierstrass-ode"
    assert err.value.degree >= 16
    # The failed extension kept only exact coefficients: growing again
    # with the right g2 matches a fresh build.
    bf = elliptic.blowup_functions(24)
    for name in ("B", "S", "Delta", "Q", "q", "Qprime"):
        assert_same(getattr(bf, name), fresh(24)[name])


def test_no_product_is_served_past_the_checked_order(monkeypatch):
    """A product at a new order is served only after the blowup series
    are checked for it: with a wrong g2 past t^16, the first weight read
    at order 24 fails the Weierstrass ODE check."""
    clear_series_tables()
    elliptic.blowup_functions(16)
    with monkeypatch.context() as m:
        m.setattr(elliptic, "G2", elliptic.G2 + 1)
        with pytest.raises(elliptic.IdentityError) as err:
            elliptic.weight_series(-2, 0, (0, 1), 0, 24)
    assert err.value.name == "weierstrass-ode"


def int_dot_calls(monkeypatch, run):
    """The _int_dot calls run() makes."""
    calls, int_dot = [0], rings._int_dot

    def spy(rows, div):
        calls[0] += 1
        return int_dot(rows, div)

    with monkeypatch.context() as m:
        m.setattr(rings, "_int_dot", spy)
        run()
    return calls[0]


def test_deepened_identities_compute_each_coefficient_once(monkeypatch):
    """Verifying at 32 and then at 64 costs one verification at 64 plus
    one more BrSn loop, which reads t^0..t^9 at any order: the identity
    checks continue where order 32 left them.  A second verification at
    64 is that loop alone."""
    verify = elliptic.verify_elliptic_identities
    clear_series_tables()
    elliptic.blowup_functions(64)
    # Serving the blowup series grows none of the identity checks.
    graph = elliptic._graph()
    assert not any(graph[name].coeffs for name in (
        "Qprime-ode", "Delta-squared", "B-double-angle", "S-double-angle",
        "Q-times-B"))
    one = int_dot_calls(monkeypatch, lambda: verify(64))
    brsn = int_dot_calls(monkeypatch, lambda: verify(64))
    clear_series_tables()
    elliptic.blowup_functions(64)
    stepped = int_dot_calls(monkeypatch, lambda: (verify(32), verify(64)))
    assert 0 < brsn < one
    assert stepped == one + brsn
