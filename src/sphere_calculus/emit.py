"""Emitters: text, JSON, LaTeX, DOT and ASCII renderings of the calculus.

JSON documents are schema-versioned and carry every rational as a
string, so no consumer can lose exactness.  Series and embedded-relation
documents record the truncation order they were computed at; the
normal-form, finite-type, character-variety and charge-poset documents
are exact and carry no order.  Emission is deterministic: equal inputs
yield identical bytes.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from .embedded import EmbeddedRelation
from .immersed import NormalForm
from .lens import PosetJ, is_central
from .rings import P_ONE, AlphaPoly, PolyX, SeriesT, rat_to_str

SCHEMA = "sphere-calculus/1"


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def polyx_obj(p: PolyX):
    return [rat_to_str(c) for c in p.coeffs]


def alpha_obj(a: AlphaPoly):
    return [polyx_obj(c) for c in a.coeffs]


def _wrap(expr: str) -> str:
    """Parenthesise a compound or negative expression."""
    if " " in expr or expr.startswith("-"):
        return "(" + expr + ")"
    return expr


def _rat_latex(c) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    num, den = c.numerator, c.denominator
    sign = "-" if num < 0 else ""
    return r"%s\frac{%d}{%d}" % (sign, abs(num), den)


# The two notations: each row holds what text and LaTeX write
# differently; the renderers below are shared.
_TEXT = SimpleNamespace(
    pow="%s^%d", rat=rat_to_str, times="*", alpha="alpha",
    scaled=lambda expr: _wrap(expr) + "*",
    sigma="sigma", Delta="Delta",
    embedded_coeff="(%s) ",
    embedded="exp(t sigma) == %(body)s   "
             "(n=%(n)d, epsilon=%(epsilon)d, order %(order)d)\n",
    den=lambda s: _power(_TEXT, "(2-x*q)", s), frac="%s/%s",
    nf_term="(%s)*%s%s", nf_rhs="D_w(%s * (%s))",
    nf_line="D_w(%s%s(t*alpha)) = %s",
)
_LATEX = SimpleNamespace(
    pow="%s^{%d}", rat=_rat_latex, times="", alpha=r"\alpha",
    scaled=lambda expr: r"\left(%s\right)" % expr,
    sigma=r"\sigma", Delta=r"\Delta",
    embedded_coeff=r"\left(%s\right)",
    embedded=r"e^{t\sigma} \equiv %(body)s" + "\n",
    den=lambda s: _power(_LATEX, "(2-xq)", s), frac=r"\frac{%s}{%s}",
    nf_term=r"\left(%s\right)%s %s",
    nf_rhs=r"D_w\!\left(%s\left(%s\right)\right)",
    nf_line=r"D_w\!\left(%s \%s(t\alpha)\right) = %s",
)


def _power(notation, symbol: str, e: int) -> str:
    return symbol if e == 1 else notation.pow % (symbol, e)


def _poly(p: PolyX, notation) -> str:
    """A polynomial in x, highest power first."""
    if not p:
        return "0"
    parts = []
    coeffs = p.coeffs
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            term = notation.rat(c)
        else:
            xs = _power(notation, "x", i)
            if c == 1:
                term = xs
            elif c == -1:
                term = "-" + xs
            else:
                term = notation.rat(c) + notation.times + xs
        parts.append(term)
    s = parts[0]
    for term in parts[1:]:
        s += " - " + term[1:] if term.startswith("-") else " + " + term
    return s


def _sum(coeffs, var: str, notation) -> str:
    """sum_i coeffs[i] var^i for PolyX coefficients, lowest power first."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(_poly(c, notation))
        elif c == P_ONE:
            parts.append(_power(notation, var, i))
        else:
            parts.append(notation.scaled(_poly(c, notation))
                         + _power(notation, var, i))
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------- series


def series_json(name: str, f: SeriesT) -> str:
    return _dump({
        "schema": SCHEMA,
        "kind": "series",
        "name": name,
        "order": f.order,
        "coefficients": [polyx_obj(c) for c in f.coeffs],
    })


def _series(name: str, f: SeriesT, notation) -> str:
    return "%s = %s + O(%s)\n" % (
        name, _sum(f.coeffs, "t", notation), notation.pow % ("t", f.order))


def series_text(name: str, f: SeriesT) -> str:
    return _series(name, f, _TEXT)


def series_latex(name: str, f: SeriesT) -> str:
    return _series(name, f, _LATEX)


# ------------------------------------------------------------- embedded


def _embedded(rel: EmbeddedRelation, notation) -> str:
    parts = []
    for power, coeff, mono in rel.terms():
        piece = " ".join(
            _power(notation, sym, e)
            for sym, e in zip(("S", "B", notation.Delta), mono) if e) or "1"
        if coeff != P_ONE:
            piece = notation.embedded_coeff % _poly(coeff, notation) + piece
        if power:
            piece = "%s %s" % (_power(notation, notation.sigma, power), piece)
        parts.append(piece)
    return notation.embedded % {
        "body": " + ".join(parts) or "0", "n": rel.n,
        "epsilon": rel.epsilon, "order": rel.order}


def embedded_text(rel: EmbeddedRelation) -> str:
    return _embedded(rel, _TEXT)


def embedded_latex(rel: EmbeddedRelation) -> str:
    return _embedded(rel, _LATEX)


def _terms_obj(terms):
    return [{"sigma_power": p, "coefficient": polyx_obj(c),
             "monomial": {"S": m[0], "B": m[1], "Delta": m[2]}}
            for p, c, m in terms]


def embedded_json(rel: EmbeddedRelation) -> str:
    return _dump({
        "schema": SCHEMA,
        "kind": "embedded-relation",
        "n": rel.n,
        "epsilon": rel.epsilon,
        "order": rel.order,
        "cosh_terms": _terms_obj(rel.cosh_terms),
        "sinh_terms": _terms_obj(rel.sinh_terms),
    })


# ------------------------------------------------------------- immersed


def _normal_form_lines(nf: NormalForm, notation):
    """The cosh and sinh equations of a normal form, one line each."""
    factor = (_power(notation, "(x^2-4)", nf.r) + notation.times
              if nf.r else "")
    head = notation.pow % ("B", -nf.a) if nf.a else "1"
    if nf.s:
        head = notation.frac % (head, notation.den(nf.s))
    lines = []
    for side, coeffs, kernel in (("cosh", nf.c, "Q'"), ("sinh", nf.d, "Q")):
        terms = [notation.nf_term % (
            _sum(c.coeffs, notation.alpha, notation),
            _power(notation, "q", i) + notation.times if i else "", kernel)
            for i, c in enumerate(coeffs)]
        rhs = notation.nf_rhs % (head, " + ".join(terms)) if terms else "0"
        lines.append(notation.nf_line % (factor, side, rhs))
    return lines


def normal_form_text(nf: NormalForm) -> str:
    header = ("structure equation  p=%d s=%d a=%d  (r=%d, k=%d, k0=%d)"
              % (nf.p, nf.s, nf.a, nf.r, nf.k, nf.k0))
    return "\n".join([header] + _normal_form_lines(nf, _TEXT)) + "\n"


def normal_form_latex(nf: NormalForm) -> str:
    return "\n".join(_normal_form_lines(nf, _LATEX)) + "\n"


def normal_form_json(nf: NormalForm) -> str:
    return _dump({
        "schema": SCHEMA,
        "kind": "normal-form",
        "p": nf.p,
        "s": nf.s,
        "a": nf.a,
        "r": nf.r,
        "k": nf.k,
        "k0": nf.k0,
        "c": [alpha_obj(c) for c in nf.c],
        "d": [alpha_obj(d) for d in nf.d],
    })


def finite_type_text(p: int, a: int, r: int) -> str:
    return "r = %d\n" % r


def finite_type_json(p: int, a: int, r: int) -> str:
    return _dump({"schema": SCHEMA, "kind": "finite-type-order",
                  "p": p, "a": a, "r": r})


# ----------------------------------------------------------------- lens


def chi_json(p: int, parity: int, classes) -> str:
    return _dump({
        "schema": SCHEMA,
        "kind": "character-variety",
        "p": p,
        "parity": parity & 1,
        "classes": [
            {"m": c.m, "trivial": c.trivial, "s": c.s} for c in classes
        ],
    })


def chi_text(p: int, parity: int, classes) -> str:
    body = ", ".join(
        ("{%d}" % c.m) if c.trivial else str(c.m) for c in classes)
    return "chi(L(%d,1), parity %s) = { %s }\n" % (
        p, "odd" if parity & 1 else "even", body)


def poset_json(j: PosetJ) -> str:
    return _dump({
        "schema": SCHEMA,
        "kind": "charge-poset",
        "n": j.n,
        "p": j.p,
        "parity": j.parity,
        "vertices": [
            {"m": m, "k": rat_to_str(k), "trivial": is_central(j.p, m)}
            for m, k in j.vertices
        ],
        "edges": [
            {"from": {"m": m1, "k": rat_to_str(k1)},
             "to": {"m": m2, "k": rat_to_str(k2)},
             "energy": rat_to_str(e)}
            for (m1, k1), (m2, k2), e in j.edges
        ],
    })


def _vertex_name(m, k):
    return "m%d_k%d_%d" % (m, k.numerator, k.denominator)


def poset_dot(j: PosetJ) -> str:
    lines = ["digraph J%d {" % j.n, "  rankdir=LR;"]
    for m, k in j.vertices:
        shape = "doublecircle" if is_central(j.p, m) else "circle"
        lines.append(
            '  %s [label="m=%d k=%s", shape=%s];'
            % (_vertex_name(m, k), m, rat_to_str(k), shape)
        )
    for (m1, k1), (m2, k2), energy in j.edges:
        lines.append(
            '  %s -> %s [label="%s"];'
            % (_vertex_name(m1, k1), _vertex_name(m2, k2),
               rat_to_str(energy))
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_ascii(j: PosetJ) -> str:
    lines = ["J_%d  p=%d  parity=%s" % (j.n, j.p,
                                        "odd" if j.parity else "even")]
    by_m = {}
    for m, k in j.vertices:
        by_m.setdefault(m, []).append(k)
    for m in sorted(by_m, reverse=True):
        mark = "*" if is_central(j.p, m) else " "
        ks = ", ".join(rat_to_str(k) for k in sorted(by_m[m]))
        lines.append("m=%d%s | %s" % (m, mark, ks))
    lines.append("edges:")
    for (m1, k1), (m2, k2), energy in j.edges:
        lines.append(
            "  (%d, %s) -> (%d, %s)  energy %s"
            % (m1, rat_to_str(k1), m2, rat_to_str(k2),
               rat_to_str(energy))
        )
    return "\n".join(lines) + "\n"


def poset_emit(j: PosetJ, format: str) -> str:
    render = {"dot": poset_dot, "ascii": poset_ascii, "json": poset_json}
    if format not in render:
        raise ValueError("unknown poset format %r" % format)
    return render[format](j)
