"""Lens-space flat classes, moduli dimensions, and charge posets."""

import pytest

from sphere_calculus import lens
from sphere_calculus.emit import poset_ascii, poset_dot, poset_emit
from sphere_calculus.lens import (
    PosetError,
    PosetJ,
    admissible_charges,
    build_poset,
    character_variety,
    dim_cylinder,
    dim_end,
    is_central,
    minimal_energy,
    verify_poset,
)
from sphere_calculus.rings import rat


def labels(classes):
    return [c.m for c in classes]


def trivials(classes):
    return [c.m for c in classes if c.trivial]


# --------------------------------------------------- character variety


def test_chi_p6_even():
    cv = character_variety(6, 0)
    assert labels(cv) == [0, 2, 4, 6]
    assert trivials(cv) == [0, 6]


def test_chi_p6_odd():
    cv = character_variety(6, 1)
    assert labels(cv) == [1, 3, 5]
    assert trivials(cv) == []


def test_chi_p5_odd():
    cv = character_variety(5, 1)
    assert labels(cv) == [1, 3, 5]
    assert trivials(cv) == [5]


def test_chi_p5_even():
    cv = character_variety(5, 0)
    assert labels(cv) == [0, 2, 4]
    assert trivials(cv) == [0]


@pytest.mark.parametrize("p", range(1, 10))
@pytest.mark.parametrize("parity", [0, 1])
def test_chi_general_shape(p, parity):
    cv = character_variety(p, parity)
    assert all(parity <= c.m <= p for c in cv)
    assert all(c.m % 2 == parity for c in cv)
    assert all(c.trivial == (c.m in (0, p)) for c in cv)
    assert all(c.s == (3 if c.trivial else 1) for c in cv)


def test_chi_rejects_bad_p():
    with pytest.raises(ValueError):
        character_variety(0, 0)


# ----------------------------------------------------------- dimensions


def test_dim_cylinder_examples():
    assert dim_cylinder(6, rat(1, 2), 2, 4) == 3
    assert dim_cylinder(6, rat(0), 3, 3) == -1
    assert dim_cylinder(6, rat(0), 0, 0) == -3
    assert dim_cylinder(6, rat(1, 6), 0, 2) == 1


def test_dim_end_examples():
    assert dim_end(6, rat(1, 6), 2) == 1
    assert dim_end(6, rat(0), 0) == -3
    assert dim_end(6, rat(3, 2), 6) == 9


def test_minimal_energy_examples():
    assert minimal_energy(6, 0, 2) == rat(1, 6)
    assert minimal_energy(6, 4, 2) == rat(1, 2)
    assert minimal_energy(6, 3, 3) == 0


@pytest.mark.parametrize("p", range(1, 41))
@pytest.mark.parametrize("parity", [0, 1])
def test_minimal_dimension_law(p, parity):
    chi = [c.m for c in character_variety(p, parity)]
    for m in chi:
        for m_prime in chi:
            if m_prime <= m:
                continue
            k = minimal_energy(p, m, m_prime)
            s = 3 if is_central(p, m) else 1
            assert dim_cylinder(p, k, m, m_prime) == 2 * (m_prime - m) - s


def test_energy_telescoping():
    # increasing-m chains accumulate ((m_end)^2 - (m_start)^2)/(4p)
    p = 6
    total = (minimal_energy(p, 0, 2) + minimal_energy(p, 2, 4)
             + minimal_energy(p, 4, 6))
    assert total == rat(36, 4 * p)


# -------------------------------------------------------------- charges


def test_charges_p6():
    assert admissible_charges(6, 2, rat(3)) == [rat(1, 6), rat(7, 6), rat(13, 6)]
    assert admissible_charges(6, 0, rat(3)) == [1, 2, 3]
    assert admissible_charges(6, 6, rat(3)) == [rat(3, 2), rat(5, 2)]


def test_charges_are_integral_dimension():
    for m in (2, 4, 6):
        for k in admissible_charges(6, m, rat(4)):
            assert dim_end(6, k, m).denominator == 1
            assert 4 * 6 * k >= m * m


def _unbounded_charges(p, m, cap):
    """The charge search without a bound on i, as it stood before the
    one-period bound; it returns whenever some charge qualifies."""
    cap = rat(cap)
    if m == 0:
        k = rat(1)
    else:
        i = 0
        while not (4 * i >= m * m and dim_end(p, rat(i, p), m).denominator == 1):
            i += 1
        k = rat(i, p)
    out = []
    while k <= cap:
        out.append(k)
        k += 1
    return out


@pytest.mark.parametrize("p", range(1, 17))
@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("n", [8, 10, 12])
def test_poset_search_bounded(p, parity, n, monkeypatch):
    if p % 4 == 0 and parity == 1:
        # odd m with 4 | p: no charge makes dim_end integral
        with pytest.raises(ValueError):
            build_poset(p, parity, n)
        return
    got = build_poset(p, parity, n)
    monkeypatch.setattr(lens, "admissible_charges", _unbounded_charges)
    assert got == build_poset(p, parity, n)


def _window_vertices(p, parity, n):
    """The (m, k) with 0 < dim_end + s <= 2n, read off the dimension
    inequality with no cap on k: k starts at the least admissible charge
    (1 for m = 0, else the least i/p >= m^2/(4p) with integral dim_end)
    and steps by one instanton.  None when some class has no integral
    charge."""
    out = []
    for m in range(parity, p + 1, 2):
        s = 3 if m in (0, p) else 1
        i = p if m == 0 else -(-m * m // 4)
        for i in range(i, i + p):
            if dim_end(p, rat(i, p), m).denominator == 1:
                break
        else:
            return None
        k = rat(i, p)
        while dim_end(p, k, m) + s <= 2 * n:
            if dim_end(p, k, m) + s > 0:
                out.append((m, k))
            k += 1
    return sorted(out)


@pytest.mark.parametrize("p", [400, 401])
@pytest.mark.parametrize("parity", [0, 1])
def test_poset_large_p_matches_dimension_window(p, parity):
    want = _window_vertices(p, parity, 10)
    if want is None:
        with pytest.raises(ValueError):
            build_poset(p, parity, 10)
        return
    assert list(build_poset(p, parity, 10).vertices) == want


@pytest.mark.parametrize("p", range(1, 41))
@pytest.mark.parametrize("parity", [0, 1])
def test_poset_invariants_whole_range(p, parity):
    # Each edge's energy is its charge difference, so energy sums along
    # paths telescope; verify_poset does not search paths for it.
    if p % 4 == 0 and parity == 1:
        with pytest.raises(ValueError):
            build_poset(p, parity, 0)
        return
    for n in range(15):
        j = build_poset(p, parity, n)
        vset = set(j.vertices)
        for (m1, k1), (m2, k2), energy in j.edges:
            assert (m1, k1) in vset and (m2, k2) in vset
            assert abs(m2 - m1) == 2
            assert energy == k2 - k1 == minimal_energy(p, m1, m2)


# --------------------------------------------------------------- posets


def test_poset_p6_even_matches_figure():
    j = build_poset(6, 0, 10)
    assert len(j.vertices) == 9
    assert sorted(m for m, _ in j.vertices) == [0, 0, 2, 2, 2, 4, 4, 6, 6]
    assert len(j.edges) == 11


def test_poset_p6_odd_matches_figure():
    j = build_poset(6, 1, 10)
    assert len(j.vertices) == 7
    assert sorted(m for m, _ in j.vertices) == [1, 1, 1, 3, 3, 5, 5]
    assert len(j.edges) == 7


def test_poset_dimensions_within_window():
    for parity in (0, 1):
        j = build_poset(6, parity, 10)
        for m, k in j.vertices:
            dim = dim_end(6, k, m) + (3 if is_central(6, m) else 1)
            assert dim.denominator == 1
            assert 0 < dim <= 20


def test_poset_empty_window():
    j = build_poset(6, 0, 0)
    assert j.vertices == () and j.edges == ()


def test_poset_verified_on_build():
    j = build_poset(6, 0, 10)
    assert verify_poset(j)


def test_poset_tamper_detection():
    j = build_poset(6, 0, 10)
    bad = PosetJ(j.n, j.p, j.parity, j.vertices, j.edges[:-1] + (
        (j.edges[-1][0], j.edges[-1][1], j.edges[-1][2] + 1),))
    with pytest.raises(PosetError):
        verify_poset(bad)


def test_poset_edge_to_a_missing_vertex_is_rejected():
    j = build_poset(6, 0, 10)
    target = j.edges[0][1]
    bad = PosetJ(j.n, j.p, j.parity,
                 tuple(v for v in j.vertices if v != target), j.edges)
    with pytest.raises(PosetError):
        verify_poset(bad)


# ------------------------------------------------------------ rendering


def test_render_dot_counts():
    j = build_poset(6, 0, 10)
    dot = poset_dot(j)
    assert dot.count("->") == 11
    assert dot.count("shape=") == 9
    assert dot.startswith("digraph")


def test_render_ascii_stable():
    j = build_poset(6, 1, 10)
    first = poset_ascii(j)
    assert first == poset_ascii(j)
    assert "m=5" in first and "energy" in first


def test_render_unknown_format():
    with pytest.raises(ValueError):
        poset_emit(build_poset(6, 0, 10), "svg")
