"""Every memo of the engine is an lru_cache, and clearing the caches
changes no result, whatever order the results are asked for in.  From
cleared caches, no product table takes S or Delta, or a power of them,
as a factor: the q-basis products multiply powers of B and of 2 - xq,
and Q, Q' and q."""

import sys
from functools import _lru_cache_wrapper

# cli imports every engine module.
from sphere_calculus import cli, elliptic, embedded, immersed, rings

ORDERS = range(8, 25)
EMBEDDED = [(n, eps) for n in range(1, 7) for eps in (0, 1)]
CELLS = [(p, s, a) for p in range(3) for s in range(p + 1)
         for a in range(4 * p - 2, 4 * p - 7, -1)]


def engine_caches():
    """The lru_cache tables defined in the engine modules."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("sphere_calculus."):
            continue
        for value in vars(mod).values():
            if (isinstance(value, _lru_cache_wrapper)
                    and value.__module__ == name):
                out.append(value)
    return out


def clear_all():
    for table in engine_caches():
        table.cache_clear()


def derive(orders, embedded_keys, cells):
    return (
        {o: elliptic.blowup_functions(o) for o in orders},
        {o: elliptic.product(("B",) * 3, o) for o in orders},
        {key: embedded.derive_embedded(*key) for key in embedded_keys},
        {cell: immersed.derive_immersed(*cell) for cell in cells},
    )


def test_engine_caches_are_found():
    names = {(t.__module__, t.__name__) for t in engine_caches()}
    assert {
        ("sphere_calculus.elliptic", "blowup_functions"),
        ("sphere_calculus.elliptic", "_table"),
        ("sphere_calculus.immersed", "derive_immersed"),
        ("sphere_calculus.immersed", "_expansion_coefficients"),
        ("sphere_calculus.immersed", "shift_reduce"),
        ("sphere_calculus.immersed", "ReductionContext"),  # immersed._family
        ("sphere_calculus.model", "moments"),
        ("sphere_calculus.embedded", "derive_embedded"),
    } <= names


def test_clearing_caches_changes_no_result():
    clear_all()
    ascending = derive(ORDERS, EMBEDDED, CELLS)
    clear_all()
    # Deepest first, so that every shallower result is a truncation.
    descending = derive(ORDERS[::-1], EMBEDDED[::-1], CELLS[::-1])
    for first, second in zip(ascending, descending):
        assert first == second


def test_no_power_of_s_or_delta_is_built(monkeypatch):
    asked = []
    table = elliptic._table

    def spy(prefix, factor):
        # A factor is a base name or a power (name, alpha) of one.
        asked.append(factor if isinstance(factor, str) else factor[0])
        return table(prefix, factor)

    monkeypatch.setattr(elliptic, "_table", spy)
    clear_all()
    assert cli.run(["verify", "--suite", "all"]) == 0
    for cell in CELLS:
        immersed.derive_immersed(*cell)
    assert asked and not {"S", "Delta"} & set(asked)


def test_a_power_of_b_is_one_recurrence(monkeypatch):
    """B^60 at order 128 is one power table, at most one kernel call per
    coefficient; a chain of 60 products makes 3,717."""
    clear_all()
    elliptic.blowup_functions(129)
    calls, int_dot = [0], rings._int_dot

    def spy(rows, div):
        calls[0] += 1
        return int_dot(rows, div)

    monkeypatch.setattr(rings, "_int_dot", spy)
    elliptic.weight_series(-60, 0, (0, 0), 0, 128)
    assert 0 < calls[0] <= 128


def test_relation_and_transport_memos_hit():
    """The steps of one grid share relations across families and
    transport each value once: both memos hit."""
    clear_all()
    for cell in CELLS:
        immersed.derive_immersed(*cell)
    for memo in (immersed._chain_relation, immersed.shift_reduce):
        info = memo.cache_info()
        assert info.hits > 0 and info.misses > 0
