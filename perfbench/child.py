"""One benchmark child process: import the engine, run one job, report.

    python3 child.py SRC_DIR TRACE JOB [ARGS...]

JOB is `import` (a set-up probe), `cli ARGV...` (one CLI request,
through `sphere_calculus.cli.run`) or `immersed CELLS` (one batch of
cells "p,s,a;p,s,a;...", derived in order with shared memo tables).
The CLI document goes to stdout unchanged; the last line on stderr is
`PERFBENCH {json}` with the time the import completed, per-cell
results and, when TRACE is 1, the span totals and cache counters.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import sphere_calculus  # noqa: E402

IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

MARK = "PERFBENCH "


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def index_laws(nf, p, s, a):
    """The r/k/k0 laws of the q-normal form, computed here independently."""
    r = (p + 1 - s) // 2
    k = s - (a + 1) // 2 - 1
    k0 = k + a % 2
    return ((nf.p, nf.s, nf.a, nf.r, nf.k, nf.k0, len(nf.c), len(nf.d))
            == (p, s, a, r, k, k0, max(k + 1, 0), max(k0 + 1, 0)))


def run_cells(spec):
    """Derive and validate each cell; return [p, s, a, seconds, error]
    rows and the normal forms (None where a cell failed)."""
    from sphere_calculus import immersed

    rows, forms = [], []
    for cell in spec.split(";"):
        p, s, a = (int(v) for v in cell.split(","))
        t0 = time.perf_counter()
        try:
            nf = immersed.derive_immersed(p, s, a)
            immersed.validate_normal_form(nf)
            err = None
        except Exception as exc:  # a failed cell is counted, not fatal
            nf, err = None, "%s: %s" % (type(exc).__name__, exc)
        rows.append([p, s, a, time.perf_counter() - t0, err])
        forms.append(nf)
    return rows, forms


def main(argv):
    trace, job, args = argv[2], argv[3], argv[4:]
    from sphere_calculus import rings

    rat_type = type(rings.rat(0))
    report = {"imported": IMPORTED,
              "backend": "%s.%s" % (rat_type.__module__, rat_type.__name__),
              "package": sphere_calculus.__file__}
    rec = None
    if trace == "1":
        import spans

        rec = spans.Recorder()
        caches = spans.install(rec)
    rc = 0
    try:
        if job == "cli":
            from sphere_calculus import cli

            try:
                rc = cli.run(args)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            sys.stdout.flush()
        elif job == "immersed":
            rows, forms = run_cells(args[0])
        elif job != "import":
            raise SystemExit("unknown job %r" % job)
        if rec is not None:
            # Snapshot before the digests below, which are the
            # benchmark's own check and not part of the workload.
            report["spans"], report["charged"] = rec.totals()
            report["caches"] = spans.cache_stats(caches)
            report["emit_bytes"] = rec.emit_bytes
        if job == "immersed":
            from sphere_calculus import emit

            for row, nf in zip(rows, forms):
                if nf is not None:
                    row.append(digest(emit.normal_form_json(nf)))
                    row.append(index_laws(nf, *row[:3]))
            report["cells"] = rows
    finally:
        # ru_maxrss is in KiB on Linux.
        report["maxrss_kib"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        sys.stderr.write("\n" + MARK + json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
