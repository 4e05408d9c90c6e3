"""Replay the benchmark's reference digests in-process.

`perfbench/reference.json` holds, for every CLI request the benchmark
can draw, its exit status and the first 32 hex digits of the sha256 of
its stdout; the digest of `emit.normal_form_json` for each cell of the
immersed-grid batch; and the digest of `verify --suite all`.  A request
recorded as a hang (`lens poset` with 4 | p and odd parity) is now
rejected, so it must exit 2.  This file is only read here, never
written: a change of output shows as a failure in Tier-1, not only in
the benchmark's own correctness check.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from sphere_calculus import emit
from sphere_calculus.cli import run
from sphere_calculus.immersed import derive_immersed

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def invoke(argv):
    """(exit status, stdout) of one cli.run call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_reference_covers_the_recorded_space(reference):
    hangs = [key for key, want in reference["cli"].items()
             if want.get("hangs")]
    assert len(reference["cli"]) - len(hangs) == 481
    assert len(hangs) == 27
    assert all(key.startswith("lens poset") and "--parity odd" in key
               and int(key.split()[3]) % 4 == 0 for key in hangs)
    assert len(reference["immersed"]) == 125


def test_cli_requests_match_reference(reference):
    wrong = []
    for key, want in sorted(reference["cli"].items()):
        code, out = invoke(key.split(" "))
        if want.get("hangs"):
            want, got = {"exit": 2}, {"exit": code}
        else:
            got = {"exit": code, "sha256": digest(out)}
        if got != want:
            wrong.append((key, want, got))
    assert wrong == []


def test_immersed_batch_cells_match_reference(reference):
    wrong = []
    for cell, want in sorted(reference["immersed"].items()):
        p, s, a = (int(v) for v in cell.split(","))
        got = digest(emit.normal_form_json(derive_immersed(p, s, a)))
        if got != want:
            wrong.append((cell, want, got))
    assert wrong == []


def test_verify_all_matches_reference(reference):
    code, out = invoke(["verify", "--suite", "all"])
    assert {"exit": code, "sha256": digest(out)} == reference["verify_all"]
