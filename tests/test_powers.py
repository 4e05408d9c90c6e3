"""The memoised series powers and q-basis tables against plain powers
and products of fresh builds."""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from sphere_calculus import elliptic, embedded, immersed, model, rings
from sphere_calculus.elliptic import build_blowup_functions, triangular_solve
from sphere_calculus.immersed import k0_index, k_index
from sphere_calculus.rings import AlphaPoly, PolyX, factorial, rat

NAMES = ("B", "S", "Delta", "Binv", "q", "inv_2mxq")


@lru_cache(maxsize=None)
def fresh(order):
    """The blowup series built from scratch at `order`, with Binv and
    inv_2mxq formed directly."""
    bf = build_blowup_functions(order)
    named = {name: getattr(bf, name) for name in ("B", "S", "Delta", "Q",
                                                  "q", "Qprime")}
    named["Binv"] = bf.B.inverse()
    named["inv_2mxq"] = (2 - bf.q * PolyX.x()).inverse()
    return named


def assert_same(got, want):
    assert got.order == want.order
    assert got.coeffs == want.coeffs


requests = st.lists(
    st.tuples(st.integers(0, 12), st.integers(8, 40)), min_size=2, max_size=4)


@given(st.sampled_from(NAMES), requests)
@example("Delta", [(3, 20), (5, 12), (2, 30)])
@settings(max_examples=30, deadline=None)
def test_series_power_matches_plain_power(name, reqs):
    # Fresh tables, so that the drawn orders fall both below and above
    # the order a table was built at.
    elliptic._table.cache_clear()
    for k, order in reqs:
        want = fresh(order)[name] ** k
        assert_same(elliptic.product((name,) * k, want.order), want)


KERNELS = [(0, 0), (1, 0), (0, 1), (1, 1)]


def from_scratch_weight(a, s, kernel, i, order):
    f = fresh(order + 1)
    bpow = f["B"] ** (-a) if a <= 0 else f["Binv"] ** a
    qi, qj = kernel
    return (bpow * f["inv_2mxq"] ** s * f["Q"] ** qi * f["Qprime"] ** qj
            * f["q"] ** i).truncate(order)


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
    """A weight of 1,800 factors: each prefix table is extended before
    the next is reached, so no build recurses down the chain."""
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
                    -(D * S ** (m - 1) * B ** (n - m - 1)))
    for epsilon in (0, 1):
        for parity in (0, 1):
            for (s, b, d), series in embedded.basis_series(
                    n, epsilon, parity, order):
                assert_same(series, S ** s * B ** b * D ** d)


# The (a, s) of the cells `verify --suite immersed` derives.
VERIFY_AS = sorted({(a, s) for p in range(4) for s in range(p + 1)
                    for a in range(4 * p - 2, 4 * p - 7, -1)})


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
            total = AlphaPoly()
            for c, w in zip(got, weights):
                total = total + c * w[tp]
            assert total == AlphaPoly.gen(tp) * (rat(1) / factorial(tp))


def test_truncated_blowup_functions_match_fresh_builds():
    elliptic.blowup_functions.cache_clear()
    elliptic._blowup_table.cache_clear()
    elliptic.blowup_functions(40)
    for order in range(8, 41):
        got = elliptic.blowup_functions(order)
        for name in ("B", "S", "Delta", "Q", "q", "Qprime"):
            assert_same(getattr(got, name), fresh(order)[name])


# The weight tables the deepening tests read: (a, s, kernel), q^0..q^2.
DEEPENED_WEIGHTS = [(-3, 2, (1, 1)), (2, 1, (0, 1)), (0, 0, (1, 0)),
                    (-4, 0, (0, 0))]


def clear_series_tables():
    for table in (elliptic.blowup_functions, elliptic._blowup_table,
                  elliptic._table):
        table.cache_clear()


def deepened_requests(order):
    return ([elliptic.blowup_functions(order)]
            + [elliptic.product((name,) * k, order) for name in NAMES
               for k in range(4)]
            + [elliptic.weight_series(a, s, kernel, i, order)
               for a, s, kernel in DEEPENED_WEIGHTS for i in range(3)])


def kernel_work(monkeypatch, orders):
    """The requests of each order in turn from cleared tables, and the
    int multiplications _int_dot did for them."""
    clear_series_tables()
    work = [0]
    int_dot = rings._int_dot

    def spy(rows, div):
        work[0] += sum(len(a) * len(b) for _, a, _, b in rows)
        return int_dot(rows, div)

    with monkeypatch.context() as m:
        m.setattr(rings, "_int_dot", spy)
        got = {order: deepened_requests(order) for order in orders}
    return got, work[0]


def test_ascending_deepening_matches_fresh_builds_at_the_cost_of_one(
        monkeypatch):
    got, ascending = kernel_work(monkeypatch, range(8, 41))
    for order, (bf, *rest) in got.items():
        for name in ("B", "S", "Delta", "Q", "q", "Qprime"):
            assert_same(getattr(bf, name), fresh(order)[name])
        powers, weights = rest[:4 * len(NAMES)], rest[4 * len(NAMES):]
        for (name, k), f in zip([(n, k) for n in NAMES for k in range(4)],
                                powers):
            assert_same(f, fresh(order + 1)[name].truncate(order) ** k)
        for (a, s, kernel, i), f in zip(
                [w + (i,) for w in DEEPENED_WEIGHTS for i in range(3)],
                weights):
            assert_same(f, from_scratch_weight(a, s, kernel, i, order))
    _, one_build = kernel_work(monkeypatch, [40])
    # Extending continues every product and recurrence where the last
    # order left it, so the 33 orders cost what the deepest alone does:
    # the two counts are equal, and the 5 % slack leaves room for a first
    # build that groups its products differently.  Rebuilding the tables
    # at each order costs about 6.6 times one build here.
    assert ascending <= 1.05 * one_build


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
    # The failed extension left the table as it was.
    bf = elliptic.blowup_functions(24)
    for name in ("B", "S", "Delta", "Q", "q", "Qprime"):
        assert_same(getattr(bf, name), fresh(24)[name])
