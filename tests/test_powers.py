"""The memoised series powers and q-basis tables against plain powers
and products of fresh builds."""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from sphere_calculus import elliptic, embedded, immersed, model
from sphere_calculus.elliptic import (
    build_blowup_functions,
    series_power,
    triangular_solve,
)
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
    elliptic._power_table.cache_clear()
    for k, order in reqs:
        want = fresh(order)[name] ** k
        assert_same(series_power(name, k, want.order), want)


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
    elliptic._weight_table.cache_clear()
    for count, order in reqs:
        for i in range(count):
            assert_same(elliptic.weight_series(a, s, kernel, i, order),
                        from_scratch_weight(a, s, kernel, i, order))


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
