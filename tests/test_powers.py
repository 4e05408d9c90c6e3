"""The memoised series powers against plain powers of fresh builds."""

from functools import lru_cache

from hypothesis import example, given, settings, strategies as st

from sphere_calculus import elliptic, immersed
from sphere_calculus.elliptic import build_blowup_functions, series_power
from sphere_calculus.rings import PolyX

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


def from_scratch_weight(a, s, side, i, order):
    f = fresh(order + 1)
    bpow = f["B"] ** (-a) if a <= 0 else f["Binv"] ** a
    kernel = f["Qprime"] if side == "cosh" else f["Q"]
    return (bpow * f["inv_2mxq"] ** s * kernel * f["q"] ** i).truncate(order)


@given(st.integers(-12, 12), st.integers(0, 4),
       st.sampled_from(["cosh", "sinh"]),
       st.lists(st.tuples(st.integers(1, 5), st.integers(8, 30)),
                min_size=2, max_size=3))
@example(-3, 2, "cosh", [(3, 16), (5, 10), (2, 24)])
@settings(max_examples=20, deadline=None)
def test_weight_series_match_from_scratch(a, s, side, reqs):
    immersed._weight_table.cache_clear()
    for count, order in reqs:
        weights = immersed._weights(a, s, side, count, order)
        assert len(weights) == count
        for i, w in enumerate(weights):
            assert_same(w, from_scratch_weight(a, s, side, i, order))


def test_truncated_blowup_functions_match_fresh_builds():
    elliptic.blowup_functions.cache_clear()
    elliptic._blowup_table.cache_clear()
    elliptic.blowup_functions(40)
    for order in range(8, 41):
        got = elliptic.blowup_functions(order)
        for name in ("B", "S", "Delta", "Q", "q", "Qprime"):
            assert_same(getattr(got, name), fresh(order)[name])
