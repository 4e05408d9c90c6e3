"""Byte-for-byte golden corpus of CLI documents.

`golden/cli_corpus.json` maps each argv (joined by spaces) to what
`cli.run` does with it: the exit status and the exact text written to
stdout, plus, for inputs the engine rejects, the final stderr line.
Usage errors from argparse itself keep only their exit status, since
argparse's wording varies between Python versions.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from sphere_calculus.cli import run

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.json"

FNS = ("B", "S", "Delta", "Q", "q", "Qprime")
FORMATS = ("text", "json", "latex")


def _immersed_cells():
    """(p, s, a) for p <= 3 with nonempty c and d: the two largest
    squares a <= min(2s - 2, 4p - 2) that keep k >= 0."""
    for p in range(4):
        for s in range(p + 1):
            top = min(2 * s - 2, 4 * p - 2)
            for a in (top, top - 1):
                yield p, s, a


def documents():
    """Argv lists that must succeed."""
    for order in (8, 12):
        for fn in FNS:
            for fmt in FORMATS:
                yield ["series", "--fn", fn, "--order", str(order),
                       "--format", fmt]
    for n in range(1, 6):
        for eps in (0, 1):
            for fmt in FORMATS:
                yield ["embedded", "--n", str(n), "--epsilon", str(eps),
                       "--format", fmt]
    for p, s, a in _immersed_cells():
        for fmt in FORMATS:
            yield ["immersed", "--p", str(p), "--s", str(s), "--a", str(a),
                   "--format", fmt]
    yield ["immersed", "--p", "1", "--s", "0", "--a", "0"]
    for p, a in ((0, 0), (1, 0), (2, 1), (3, 4), (5, 3)):
        for fmt in ("text", "json"):
            yield ["finite-type", "--p", str(p), "--a", str(a),
                   "--format", fmt]
    for p in (1, 3, 5, 6, 7):
        for parity in ("even", "odd"):
            for fmt in ("text", "json"):
                yield ["lens", "chi", "--p", str(p), "--parity", parity,
                       "--format", fmt]
    for p in (3, 5, 6, 7):
        for parity in ("even", "odd"):
            for n in (6, 10):
                for fmt in ("dot", "ascii", "json"):
                    yield ["lens", "poset", "--p", str(p), "--parity",
                           parity, "--n", str(n), "--format", fmt]
    yield ["verify", "--suite", "all"]
    yield ["verify", "--suite", "elliptic", "--order", "12"]


# Inputs the engine rejects with exit 2; the stderr line is its message.
REJECTED = [
    ["series", "--fn", "Q", "--order", "4"],
    ["embedded", "--n", "0", "--epsilon", "0"],
    ["immersed", "--p", "1", "--s", "2", "--a", "-4"],
    ["immersed", "--p", "0", "--s", "0", "--a", "0"],
    ["finite-type", "--p", "1", "--a", "-2"],
    ["lens", "chi", "--p", "0", "--parity", "even"],
    ["lens", "poset", "--p", "4", "--parity", "odd", "--n", "10"],
    ["lens", "poset", "--p", "8", "--parity", "odd", "--n", "6"],
]

# Usage errors argparse rejects with exit 2.
USAGE_ERRORS = [
    [],
    ["series"],
    ["series", "--fn", "nope"],
    ["embedded", "--n", "2", "--epsilon", "2"],
    ["lens"],
    ["lens", "chi", "--p", "6", "--parity", "maybe"],
    ["lens", "poset", "--p", "6", "--parity", "odd", "--n", "10",
     "--format", "latex"],
    ["verify", "--suite", "nope"],
]

CASES = list(documents()) + REJECTED + USAGE_ERRORS


def invoke(argv):
    """(exit status, stdout, last stderr line) of one cli.run call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    return code, out.getvalue(), lines[-1] if lines else ""


def record(argv, keep_error):
    code, out, err = invoke(argv)
    entry = {"exit": code, "stdout": out}
    if keep_error:
        entry["stderr_last"] = err
    return entry


def build_corpus():
    return {" ".join(argv): record(argv, argv in REJECTED) for argv in CASES}


@lru_cache(maxsize=None)
def _load():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_golden_document(argv):
    want = _load()[" ".join(argv)]
    code, out, err = invoke(argv)
    assert code == want["exit"]
    assert out == want["stdout"]
    if "stderr_last" in want:
        assert err == want["stderr_last"]


def test_corpus_covers_every_case():
    corpus = _load()
    assert {" ".join(argv) for argv in CASES} == set(corpus)
    for argv in documents():
        assert corpus[" ".join(argv)]["exit"] == 0
    for argv in REJECTED + USAGE_ERRORS:
        assert corpus[" ".join(argv)]["exit"] == 2


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(build_corpus(), indent=1, sort_keys=True)
                      + "\n")
    sys.stdout.write("wrote %d cases to %s\n" % (len(_load()), CORPUS))
