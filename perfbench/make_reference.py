"""Record perfbench/reference.json from the engine in this checkout.

    python3 perfbench/make_reference.py

Runs every request any seed of cli-oneshot can draw, the immersed-grid
batch and `verify --suite all`, each in a fresh interpreter, and stores
the exit status and document digest of each.  A request that does not
finish within its time limit is stored as {"hangs": true}.  The
reference is recorded once, at a commit whose output is trusted; later
commits are checked against it, never re-recorded to make a run pass.
"""

import json
import sys

import draws
import run


def main():
    out = {"cli": {}, "immersed": {}, "verify_all": {}}
    space = draws.request_space()
    for i, argv in enumerate(space):
        c = run.spawn(["cli", *argv], limit=run.request_limit(argv))
        key = draws.key(argv)
        if c.timed_out:
            out["cli"][key] = {"hangs": True}
        else:
            fact = run.independent_fact(argv, c.stdout.decode())
            if fact:
                raise SystemExit("%s: %s" % (key, fact))
            out["cli"][key] = {"exit": c.rc, "sha256": run.digest(c.stdout)}
        print("%4d/%d %6.2fs %s" % (i + 1, len(space), c.wall, key),
              file=sys.stderr)

    cells = draws.grid_cells()
    c = run.spawn(["immersed", ";".join("%d,%d,%d" % x for x in cells)])
    for p, s, a, _, err, sha, laws in c.report["cells"]:
        if err or not laws:
            raise SystemExit("cell %d,%d,%d failed: %s" % (p, s, a, err))
        out["immersed"]["%d,%d,%d" % (p, s, a)] = sha

    c = run.spawn(["cli", "verify", "--suite", "all"])
    if c.rc != 0 or not c.stdout.endswith(b"all checks passed\n"):
        raise SystemExit("verify --suite all failed at this commit")
    out["verify_all"] = {"exit": 0, "sha256": run.digest(c.stdout)}

    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
