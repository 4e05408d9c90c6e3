"""Compare two benchmark records written with run.py --out.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses (exit 2) when the two were taken under different arithmetic
backends or Python versions: the backend alone moves the engine's
times about sevenfold, so such a comparison says nothing about the
code.
"""

import json
import sys


def incomparable(before, after):
    """A reason the records cannot be compared, or None."""
    pythons = {r["environment"]["python"] for r in before + after}
    if len(pythons) > 1:
        return "different Python versions: %s" % sorted(pythons)
    backends = {b for r in before + after for b in r["backend"]}
    if len(backends) > 1:
        return "different arithmetic backends: %s" % sorted(backends)
    return None


def main(argv):
    with open(argv[1]) as fh:
        before = json.load(fh)
    with open(argv[2]) as fh:
        after = json.load(fh)
    reason = incomparable(before, after)
    if reason:
        print("refusing to compare: " + reason, file=sys.stderr)
        return 2
    old = {(r["workload"], r["trace"]): r for r in before}
    for rec in after:
        base = old.get((rec["workload"], rec["trace"]))
        if base is None:
            continue
        print("== %s" % rec["workload"])
        for name, m in rec["metrics"].items():
            was = base["metrics"].get(name, {}).get("value")
            if was is None:
                continue
            change = (m["value"] / was - 1) * 100 if was else float("nan")
            print("  %-42s %12.6g -> %12.6g %-6s %+7.1f%%"
                  % (name, was, m["value"], m["unit"], change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
