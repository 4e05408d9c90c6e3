"""Seeded inputs for the three workloads.

Every draw is a pure function of the seed, so one seed always gives the
same inputs and the program under test only ever sees the generated
cells or argument vectors.  The finite request spaces below are also
what `make_reference.py` enumerates to record the reference digests.
"""

from __future__ import annotations

import random

# --------------------------------------------------------- immersed-grid

# The batch is the part of the acceptance grid (p <= 4, |a| <= 12) whose
# base-case depth 4p - a is at most BATCH_DEPTH: 125 cells with base
# cells at p = 0 and all three step kinds up to p = 4.  Deeper cells
# cost seconds each (the full grid takes minutes), so a batch of the
# whole grid would not fit in a run.
BATCH_DEPTH = 10


def grid_cells(depth=BATCH_DEPTH):
    return [(p, s, a)
            for p in range(0, 5)
            for s in range(0, p + 1)
            for a in range(-12, 13)
            if 2 <= 4 * p - a <= depth]


def step_kind(p, s):
    """Which derivation step produces cell (p, s, .)."""
    if p == 0:
        return "base_case"
    if s > 0:
        return "step_raise_s"
    return "step_p_odd" if p % 2 else "step_p_even"


def batch_order(rng: random.Random):
    """The batch cells in a seed-drawn order, level by level in p.

    A batch user walks the grid from low p upwards, so every cell finds
    its predecessor already in the shared memo tables; within a level
    the order is drawn.  The set of cells, and so the total work, is
    the same for every seed."""
    out = []
    cells = grid_cells()
    for p in range(0, 5):
        level = [c for c in cells if c[0] == p]
        rng.shuffle(level)
        out.extend(level)
    return out


# ----------------------------------------------------------- cli-oneshot

FNS = ("B", "S", "Delta", "Q", "q", "Qprime")
FORMATS = ("text", "json", "latex")


def _series(orders):
    return [["series", "--fn", fn, "--order", str(o), "--format", f]
            for fn in FNS for o in orders for f in FORMATS]


def _embedded(ns):
    return [["embedded", "--n", str(n), "--epsilon", str(e), "--format", f]
            for n in ns for e in (0, 1) for f in FORMATS]


def _immersed(cells):
    return [["immersed", "--p", str(p), "--s", str(s), "--a", str(a),
             "--format", f]
            for p, s, a in cells for f in FORMATS]


def _poset(pairs):
    return [["lens", "poset", "--p", str(p), "--parity", par, "--n", str(n),
             "--format", f]
            for p, par in pairs for n in (8, 10, 12)
            for f in ("dot", "ascii", "json")]


def _finite_type():
    return [["finite-type", "--p", str(p), "--a", str(a), "--format", f]
            for p in range(0, 7) for a in range(0, 2 * p + 3)
            for f in ("text", "json")]


PARITIES = ("even", "odd")


def _chi():
    return [["lens", "chi", "--p", str(p), "--parity", par, "--format", f]
            for p in range(1, 13) for par in PARITIES
            for f in ("text", "json")]


POSET_OK = [(p, par) for p in range(1, 13) for par in PARITIES
            if not (p % 4 == 0 and par == "odd")]

# Depth-2 cells (a - 4p = -2) at every p, one per step kind and more:
# each costs about the same single derivation chain.
EDGE_CELLS = [(1, 1, 2), (1, 0, 2), (2, 0, 6), (2, 2, 6), (3, 0, 10),
              (3, 3, 10), (4, 0, 14), (4, 4, 14)]

# One round of cli-oneshot is one request from each slot, in a drawn
# order.  The seed draws what hardly changes a request's cost (function,
# format, epsilon, parity, the lens p and n, the finite-type cell, cells
# of near-equal cost); what sets the cost (series order, embedded n) is
# fixed per slot, or drawn only below the median.  So every round has
# the same cost profile, and only complete rounds are timed, so the
# latency percentiles of a run do not depend on the seed.  Sorted by
# cost (2-CPU VM, Fraction backend) the 20 slots form bands, and the
# median (rank 10) and the 75th percentile (rank 15) each fall in the
# middle of a band of near-equal requests, well above the requests that
# are mostly interpreter start and import:
#    1-5   about 0.11 s: lens, finite-type and lens verification;
#    6-7   0.2-0.28 s: embedded n = 2, 3 and p = 0 immersed cells;
#    8-12  0.3-0.4 s: series at order 24, embedded n = 4, depth-2
#          immersed cells (the median);
#   13-17  0.5-0.7 s: embedded n = 5, 6 and series at the default
#          order 32 (the 75th percentile);
#   18-20  1-3.6 s: a mid immersed cell, embedded n = 12 and the known
#          lens hang, which runs into its time limit.
# Only `series` gets --order: the other subcommands ignore it at the
# seed commit, and a reference built on an ignored option would freeze
# that defect.
SLOTS = {
    "finite-type": _finite_type(),
    "lens-chi": _chi(),
    "lens-poset": _poset(POSET_OK),
    # The L(6, 1) poset whose J_10 figures are known independently.
    "lens-poset-p6": [["lens", "poset", "--p", "6", "--parity", par,
                       "--n", "10", "--format", f]
                      for par in PARITIES for f in ("dot", "json")],
    "verify-lens": [["verify", "--suite", "lens"]],
    "embedded-low": _embedded((2, 3)),
    "immersed-shallow": _immersed([(0, 0, a) for a in range(-5, -1)]),
    "series-24-1": _series((24,)),
    "series-24-2": _series((24,)),
    "embedded-4": _embedded((4,)),
    "immersed-edge-1": _immersed(EDGE_CELLS),
    "immersed-edge-2": _immersed(EDGE_CELLS),
    "embedded-5": _embedded((5,)),
    "series-32-1": _series((32,)),
    "series-32-2": _series((32,)),
    "embedded-6-1": _embedded((6,)),
    "embedded-6-2": _embedded((6,)),
    "immersed-mid": _immersed([(1, 0, -3), (3, 0, 4), (4, 0, 8)]),
    "embedded-12": _embedded((12,)),
    # The known hang (4 | p, odd parity) stays in the draw, one request
    # per round, so it shows in the failure count until it is fixed.
    "lens-poset-4p-odd": _poset([(p, "odd") for p in (4, 8, 12)]),
}


def request_space():
    """Every argument vector any seed can draw, once each."""
    seen = {}
    for slot in SLOTS.values():
        for argv in slot:
            seen.setdefault(key(argv), argv)
    return list(seen.values())


def draw_round(rng: random.Random):
    """One request from every slot, in a drawn order."""
    reqs = [rng.choice(SLOTS[name]) for name in SLOTS]
    rng.shuffle(reqs)
    return reqs


def key(argv):
    return " ".join(argv)
