"""Flat-connection combinatorics of the lens spaces L(p, 1).

Conjugacy classes of flat U(2) connections are labelled by an integer
m with 0 <= m <= p, taken modulo sign in Z_2p; which labels occur
depends on the parity of the determinant line.  A class is central --
its SO(3) image is trivial -- exactly for m = 0 or m = p, and those
classes carry isotropy summand s = 3 while the others have s = 1.

Relative charges k live in Z[1/p], and the moduli dimensions are the
exact rational formulas

    dim_cylinder(k, m -> m') = 8k + 2(m' - m) - 2((m')^2 - m^2)/p - s(m)
    dim_end(k, m)            = 8k - 3 + 2m - 2 m^2/p.

The minimal energy of a cylinder from m to m' is ((m')^2 - m^2)/(4p)
when m' > m and picks up an extra (m - m')/2 when m' < m; with this
normalization the minimal cylinder dimension for m' > m is
2(m' - m) - s(m) identically, which the tests pin for every p <= 40.
The poset J_n collects the charges whose end dimension lands in
(0, 2n], with an edge for every minimal-energy jump |dm| = 2.  An
edge's energy is the charge difference of its endpoints, so energy sums
along paths telescope and `verify_poset` checks each edge alone.
"""

from __future__ import annotations

import math

from .record import Record
from .rings import rat


class PosetError(AssertionError):
    """A structural invariant of a charge poset failed to hold."""


def is_central(p: int, m: int) -> bool:
    """True for the two classes whose SO(3) holonomy is trivial."""
    return m == 0 or m == p


def isotropy(p: int, m: int) -> int:
    """Dimension summand s(m): 3 for the central classes, else 1."""
    return 3 if is_central(p, m) else 1


class FlatClass(Record):
    """The flat class m, whether it is central, and its isotropy
    summand s."""

    __slots__ = ("m", "trivial", "s")

    def _validate(self):
        if self.s != (3 if self.trivial else 1):
            raise ValueError("isotropy summand inconsistent with centrality")


def character_variety(p: int, parity: int):
    """Flat classes of L(p,1) for the given determinant parity.

    Even parity lists the even labels 0, 2, ..., odd parity the odd
    ones; the upper end depends on the parity of p.
    """
    if p < 1:
        raise ValueError("p must be positive")
    parity = int(parity) & 1
    labels = [m for m in range(parity, p + 1) if (m - parity) % 2 == 0]
    return [FlatClass(m, is_central(p, m), isotropy(p, m)) for m in labels]


def dim_cylinder(p: int, k, m: int, m_prime: int):
    """Expected dimension of the charge-k cylinder moduli from m to m'."""
    k = rat(k)
    return (
        8 * k
        + 2 * (m_prime - m)
        - rat(2 * (m_prime * m_prime - m * m), p)
        - isotropy(p, m)
    )


def dim_end(p: int, k, m: int):
    """Expected dimension of the charge-k end moduli limiting to m."""
    k = rat(k)
    return 8 * k - 3 + 2 * m - rat(2 * m * m, p)


def minimal_energy(p: int, m: int, m_prime: int):
    """Least action of a cylinder between the classes m and m'."""
    energy = rat(m_prime * m_prime - m * m, 4 * p)
    if m_prime < m:
        energy += rat(m - m_prime, 2)
    return energy


def admissible_charges(p: int, m: int, cap):
    """Charges k for which the end moduli at m is nonempty, up to cap.

    Charges step by one instanton from the least k in Z[1/p] that is
    at least the flat action m^2/(4p) and makes dim_end an integer.
    The m = 0 end limits to the trivial connection, so its relative
    charge is a positive integer.  k = i/p makes dim_end an integer
    exactly when p divides 8i - 2m^2, a linear congruence in i; raises
    ValueError when it has no solution (odd m with 4 | p).
    """
    cap = rat(cap)
    if m == 0:
        k_min = rat(1)
    else:
        g = math.gcd(8, p)
        if 2 * m * m % g:
            raise ValueError(
                "no charge makes dim_end integral for p=%d, m=%d" % (p, m))
        period = p // g
        root = 2 * m * m // g * pow(8 // g, -1, period) % period
        first = -(-m * m // 4)  # least i with 4 p (i/p) >= m^2
        k_min = rat(first + (root - first) % period, p)
    out = []
    k = k_min
    while k <= cap:
        out.append(k)
        k += 1
    return out


class PosetJ(Record):
    """The charge poset J_n of L(p, 1) for one parity: vertices (m, k)
    and edges ((m, k), (m', k'), energy)."""

    __slots__ = ("n", "p", "parity", "vertices", "edges")


def build_poset(p: int, parity: int, n: int) -> PosetJ:
    """Charges with end dimension in (0, 2n], with minimal-energy edges."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    chi = character_variety(p, parity)
    vertices = []
    for cls in chi:
        # dim_end + s <= 2n gives 8k <= 2n + 3 - 2m + 2m^2/p - s, and
        # 2m >= 0, s >= 1, so this cap keeps every such charge.
        cap = rat(2 * n + 3, 8) + rat(cls.m * cls.m, 4 * p)
        for k in admissible_charges(p, cls.m, cap):
            dim = dim_end(p, k, cls.m) + cls.s
            if 0 < dim <= 2 * n:
                vertices.append((cls.m, k))
    vset = set(vertices)
    edges = []
    for m, k in vertices:
        for m2 in (m - 2, m + 2):
            if not any(c.m == m2 for c in chi):
                continue
            k2 = k + minimal_energy(p, m, m2)
            if (m2, k2) in vset:
                edges.append(((m, k), (m2, k2), k2 - k))
    vertices.sort()
    edges.sort()
    j = PosetJ(n=n, p=p, parity=int(parity) & 1,
               vertices=tuple(vertices), edges=tuple(edges))
    verify_poset(j)
    return j


def verify_poset(j: PosetJ):
    """Check that every vertex has an integral end dimension in (0, 2n]
    and that every edge joins two vertices with |dm| = 2 and energy the
    minimal energy, equal to the charge difference; raises PosetError."""
    vset = set(j.vertices)
    for m, k in j.vertices:
        dim = dim_end(j.p, k, m) + isotropy(j.p, m)
        if dim.denominator != 1:
            raise PosetError("vertex dimension %s is not an integer" % dim)
        if not 0 < dim <= 2 * j.n:
            raise PosetError("vertex dimension %s outside (0, 2n]" % dim)
    for (m1, k1), (m2, k2), energy in j.edges:
        if (m1, k1) not in vset or (m2, k2) not in vset:
            raise PosetError("edge endpoint is not a vertex")
        if abs(m1 - m2) != 2:
            raise PosetError("edge changes m by %d" % (m2 - m1))
        if energy != minimal_energy(j.p, m1, m2) or energy != k2 - k1:
            raise PosetError("edge energy is not the minimal energy")
    return True
