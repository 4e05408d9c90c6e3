"""Span recording for the traced run.

A span is (name, start, end, parent), kept in flat arrays while the
workload runs and reduced to per-name call counts, total seconds and
self seconds afterwards.  Self time is a span's duration minus the
durations of its direct children; spans nest because one thread opens
and closes them through try/finally.

`install` wraps the public functions of the engine from the outside:
every module namespace that binds a wrapped function is patched, and
operator methods are patched under every name that aliases them (such
as `__rmul__ = __mul__`).
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.emit_bytes = 0

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name):
        """`fn` timed as a span called `name`."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)

        def timed(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(perf_counter())
            end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", name)
        timed.__doc__ = getattr(fn, "__doc__", None)
        return timed

    def totals(self):
        """({name: [calls, total s, self s]}, {layer: self s charged})."""
        return self_times(self.names, self.name_id, self.parent,
                          self.start, self.end)


def self_times(names, name_id, parent, start, end):
    """Reduce spans to {name: [calls, total seconds, self seconds]} and
    to self seconds per layer with `rings` products charged to the layer
    that asked for them (the nearest enclosing span of another layer)."""
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        j = parent[i]
        if j >= 0:
            child[j] += end[i] - start[i]
    out, charged, owner = {}, {}, [""] * n
    for i in range(n):
        dur = end[i] - start[i]
        name = names[name_id[i]]
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
        layer = name.split(".")[0]
        j = parent[i]
        owner[i] = owner[j] if layer == "rings" and j >= 0 else layer
        charged[owner[i]] = charged.get(owner[i], 0.0) + dur - child[i]
    return out, charged


# Functions wrapped in a traced run: (module, attribute, span name).
FUNCTIONS = [
    ("elliptic", "blowup_functions", "elliptic.blowup_functions"),
    ("elliptic", "verify_elliptic_identities",
     "elliptic.verify_elliptic_identities"),
    ("model", "moments", "model.moments"),
    ("model", "smb_series", "model.smb_series"),
    ("model", "smb_insertion_series", "model.smb_insertion_series"),
    ("embedded", "derive_embedded", "embedded.derive_embedded"),
    ("embedded", "verify_embedded_relation",
     "embedded.verify_embedded_relation"),
    ("embedded", "verify_corollary_24", "embedded.verify_corollary_24"),
    ("immersed", "base_case", "immersed.base_case"),
    ("immersed", "step_raise_s", "immersed.step_raise_s"),
    ("immersed", "step_p_odd", "immersed.step_p_odd"),
    ("immersed", "step_p_even", "immersed.step_p_even"),
    ("immersed", "shift_reduce", "immersed.shift_reduce"),
    ("immersed", "universal_coefficients", "immersed.universal_coefficients"),
    ("immersed", "derive_immersed", "immersed.derive_immersed"),
    ("lens", "build_poset", "lens.build_poset"),
    ("lens", "verify_poset", "lens.verify_poset"),
    ("lens", "character_variety", "lens.character_variety"),
    ("cli", "run", "cli.run"),
]

# Operator and other methods: (module, class, method, span name).
METHODS = [
    ("rings", "PolyX", "__mul__", "rings.polyx_mul"),
    ("rings", "RingPoly", "__mul__", "rings.alpha_mul"),
    ("rings", "SeriesT", "__mul__", "rings.series_mul"),
    ("immersed", "ReductionContext", "reduce", "immersed.reduction_reduce"),
]

# The emitters the CLI calls, by output format.
EMITTERS = {
    "series_text": "emit.text", "series_json": "emit.json",
    "series_latex": "emit.latex",
    "embedded_text": "emit.text", "embedded_json": "emit.json",
    "embedded_latex": "emit.latex",
    "normal_form_text": "emit.text", "normal_form_json": "emit.json",
    "normal_form_latex": "emit.latex",
    "chi_text": "emit.text", "chi_json": "emit.json",
}
POSET_FORMATS = {"dot": "emit.dot", "ascii": "emit.text", "json": "emit.json"}

# lru_cache tables read (never cleared) for hit ratios: metric -> attribute.
CACHES = [
    ("elliptic.blowup_functions", "elliptic", "blowup_functions"),
    ("model.smb_series", "model", "smb_series"),
    ("embedded.derive_embedded", "embedded", "derive_embedded"),
    ("embedded.basis_series", "embedded", "basis_series"),
    ("immersed.universal_coefficients", "immersed", "universal_coefficients"),
    ("immersed.expansion_coefficients", "immersed", "_expansion_coefficients"),
    ("immersed.chain_relation", "immersed", "_chain_relation"),
]


def _rebind(old, new):
    """Point every engine module attribute bound to `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("sphere_calculus"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _module(name):
    return sys.modules["sphere_calculus." + name]


def install(rec: Recorder):
    """Wrap the engine's public functions and operators; return the
    original lru_cache objects, keyed by metric name, for cache_info()."""
    import sphere_calculus.cli  # noqa: F401  (binds every module)

    caches = {metric: getattr(_module(mod), attr)
              for metric, mod, attr in CACHES}
    for mod, attr, name in FUNCTIONS:
        old = getattr(_module(mod), attr)
        _rebind(old, rec.wrap(old, name))
    for mod, cls_name, meth, name in METHODS:
        cls = getattr(_module(mod), cls_name)
        old = cls.__dict__[meth]
        new = rec.wrap(old, name)
        for attr, value in list(vars(cls).items()):
            if value is old:
                setattr(cls, attr, new)
    emit = _module("emit")
    for attr, name in EMITTERS.items():
        old = getattr(emit, attr)
        _rebind(old, _counting(rec, rec.wrap(old, name)))
    poset_emit = emit.poset_emit
    wrapped = {fmt: _counting(rec, rec.wrap(poset_emit, name))
               for fmt, name in POSET_FORMATS.items()}
    _rebind(poset_emit, lambda j, format: wrapped[format](j, format))
    return caches


def _counting(rec, fn):
    def counted(*args, **kwargs):
        doc = fn(*args, **kwargs)
        rec.emit_bytes += len(doc.encode())
        return doc
    return counted


def cache_stats(caches):
    """{metric: [hits, misses]} from read-only cache_info()."""
    out = {}
    for metric, fn in caches.items():
        info = fn.cache_info()
        out[metric] = [info.hits, info.misses]
    return out
