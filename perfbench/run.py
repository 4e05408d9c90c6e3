"""The sphere-calculus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  NAME is immersed-grid,
verify-all, cli-oneshot, or `all` for every workload in turn.  Every
timed unit runs in a fresh interpreter (perfbench/child.py), one child
at a time, because the engine's memo tables live for the whole process:
a warm repeat inside one process would only time cache hits.

With --trace 0 the last stdout line is the result JSON with the
end-to-end metrics; with --trace 1 each unit runs untraced and then
traced on the same inputs, and the result holds the per-layer metrics.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import draws

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("immersed-grid", "verify-all", "cli-oneshot")
SETUP_PROBES = 11

# Per-request time limits.  A lens, finite-type or lens-verify request
# takes about 0.11 s; the limit is some nine times that, so the known
# lens hang costs one second per occurrence rather than the whole run.
FAST_LIMIT_S = 1.0
SLOW_LIMIT_S = 60.0
UNIT_LIMIT_S = 150.0

# End-to-end metrics: (name, unit).
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
]

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# ------------------------------------------------------------ statistics

def percentile(values, q):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def tail(values):
    """(percentile, value): the highest percentile in TAIL_PERCENTILES
    with at least ten samples beyond it, or the maximum (percentile 100)
    when the sample is too small for any of them."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        rank = max(math.ceil(q / 100.0 * n), 1)
        if n - rank >= 10:
            return q, percentile(values, q)
    return 100.0, max(values)


# --------------------------------------------------------------- children

class Child:
    """Outcome of one child process.  `setup` runs from spawn until the
    child finished `import sphere_calculus` (both clocks are the
    system-wide CLOCK_MONOTONIC); `rss_kib` is the child's own peak."""

    def __init__(self, wall, cpu, rc, stdout, report, timed_out, spawned):
        self.wall = wall
        self.cpu = cpu
        self.rc = rc
        self.stdout = stdout
        self.report = report
        self.timed_out = timed_out
        self.setup = report["imported"] - spawned if report else None
        self.rss_kib = report["maxrss_kib"] if report else None


def child_env():
    env = dict(os.environ)
    # The engine reads its default order from here; the benchmark runs
    # at the documented default.  PYTHONPATH could shadow the checkout.
    env.pop("SPHERE_CALCULUS_ORDER", None)
    env.pop("PYTHONPATH", None)
    return env


ENV = child_env()


def spawn(job, trace=0, limit=UNIT_LIMIT_S):
    """Run one child to completion (or kill it at `limit` seconds)."""
    cmd = [sys.executable, str(CHILD), str(SRC), str(trace), *job]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=limit,
                              env=ENV, cwd=str(ROOT))
        rc, out, err, timed_out = proc.returncode, proc.stdout, proc.stderr, False
    except subprocess.TimeoutExpired as exc:
        rc, out, err, timed_out = None, exc.stdout or b"", exc.stderr or b"", True
    wall = time.monotonic() - spawned
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    report = None
    for line in reversed(err.decode(errors="replace").splitlines()):
        if line.startswith("PERFBENCH "):
            report = json.loads(line[len("PERFBENCH "):])
            break
    return Child(wall, cpu, rc, out, report, timed_out, spawned)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


# --------------------------------------------------------- correctness

def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


# Corollary 2.4 as printed in the paper: (n, epsilon) -> the set of
# (sigma power, S, B, Delta, coefficient in x, low degree first).
COR24 = {
    (2, 0): {(0, 0, 2, 0, ("1",)), (2, 2, 0, 0, ("1/2",))},
    (2, 1): {(0, 0, 0, 1, ("1",)), (1, 1, 1, 0, ("1",))},
    (3, 0): {(0, 0, 3, 0, ("1",)), (1, 1, 0, 1, ("1",)),
             (2, 2, 1, 0, ("1/2",))},
    (3, 1): {(0, 0, 1, 1, ("1",)), (1, 1, 2, 0, ("1",)),
             (1, 3, 0, 0, ("0", "1/6")), (3, 3, 0, 0, ("1/6",))},
    (4, 0): {(0, 0, 4, 0, ("1",)), (0, 4, 0, 0, ("1/3",)),
             (1, 1, 1, 1, ("1",)), (2, 2, 2, 0, ("1/2",)),
             (2, 4, 0, 0, ("0", "1/6")), (4, 4, 0, 0, ("1/24",))},
    (4, 1): {(0, 0, 2, 1, ("1",)), (0, 2, 0, 1, ("0", "1/2")),
             (1, 1, 3, 0, ("1",)), (1, 3, 1, 0, ("0", "1/6")),
             (2, 2, 0, 1, ("1/2",)), (3, 3, 1, 0, ("1/6",))},
}

# The two J_10 figures for L(6, 1): vertex m-multisets and edge counts.
J10_P6 = {"even": ([0, 0, 2, 2, 2, 4, 4, 6, 6], 11),
          "odd": ([1, 1, 1, 3, 3, 5, 5], 7)}


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def independent_fact(argv, doc: str):
    """None when the document agrees with a fact known independently of
    the engine (or no such fact applies), else a description."""
    fmt = _arg(argv, "--format") if "--format" in argv else None
    if argv[0] == "embedded" and fmt == "json":
        n, eps = int(_arg(argv, "--n")), int(_arg(argv, "--epsilon"))
        if (n, eps) in COR24:
            data = json.loads(doc)
            got = {(t["sigma_power"], t["monomial"]["S"], t["monomial"]["B"],
                    t["monomial"]["Delta"], tuple(t["coefficient"]))
                   for t in data["cosh_terms"] + data["sinh_terms"]}
            if got != COR24[(n, eps)]:
                return "Cor. 2.4 formula differs for n=%d eps=%d" % (n, eps)
    if argv[0] == "finite-type":
        p, a = int(_arg(argv, "--p")), int(_arg(argv, "--a"))
        want = (2 * p + 2 - (a - a % 2)) // 4
        got = json.loads(doc)["r"] if fmt == "json" else int(doc.split("=")[1])
        if got != want:
            return "finite-type r=%d, expected %d" % (got, want)
    if (argv[:2] == ["lens", "poset"] and _arg(argv, "--p") == "6"
            and _arg(argv, "--n") == "10" and fmt in ("json", "dot")):
        want = J10_P6[_arg(argv, "--parity")]
        if fmt == "json":
            data = json.loads(doc)
            got = (sorted(v["m"] for v in data["vertices"]), len(data["edges"]))
        else:
            lines = doc.splitlines()
            got = (sorted(int(line.split('"m=')[1].split()[0])
                          for line in lines if "label=\"m=" in line),
                   sum(1 for line in lines if "->" in line))
        if got != want:
            return "J_10 figure for p=6 differs: %r" % (got,)
    return None


def check_request(ref, argv, child):
    """'ok', 'timeout' or a description of a wrong result."""
    if child.timed_out:
        return "timeout"
    if not from_checkout(child):
        return "engine not imported from this checkout"
    want = ref.get(draws.key(argv))
    if want is None:
        return "no reference for %r" % draws.key(argv)
    if want.get("hangs"):
        # The seed commit cannot answer this request; a version that
        # answers it within the limit, or rejects it as a usage error,
        # passes.
        return "ok" if child.rc in (0, 2) else "exit %r" % child.rc
    if child.rc != want["exit"]:
        return "exit %r, reference %r" % (child.rc, want["exit"])
    if digest(child.stdout) != want["sha256"]:
        return "document differs from the reference"
    fact = independent_fact(argv, child.stdout.decode())
    return fact or "ok"


def from_checkout(child):
    return (child.report is not None
            and Path(child.report["package"]).resolve().is_relative_to(SRC))


# --------------------------------------------------------------- workloads

class Run:
    """Samples and failures collected during one workload run."""

    def __init__(self, trace):
        self.trace = trace
        self.unit_wall = []
        self.unit_cpu = []
        self.traced_wall = []
        self.setup = []
        self.latency = []
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.layers = []      # per traced unit: merged child reports
        self.backends = set()
        self.rss_kib = 0
        self.pairs = 0

    def child(self, c):
        if c.report is not None:
            self.setup.append(c.setup)
            self.rss_kib = max(self.rss_kib, c.rss_kib)
            self.backends.add(c.report["backend"])

    def unit(self, wall, cpu, layers):
        """Record one unit (and the layer report of its traced twin)."""
        self.unit_wall.append(wall)
        self.unit_cpu.append(cpu)
        if layers is not None:
            self.traced_wall.append(layers["wall"])
            self.layers.append(layers)

    def fail(self, what, wrong=True):
        self.failed += 1
        if wrong:
            self.wrong.append(what)


def probe_setup(run):
    for _ in range(SETUP_PROBES):
        c = spawn(["import"])
        if c.rc != 0 or not from_checkout(c):
            raise SystemExit("set-up probe failed: %r" % c.stdout)
        run.child(c)


def units(seconds):
    """Yield once per unit while the unit would still fit in the run:
    the first always, then another while the time taken so far plus the
    median time of a unit (with its traced twin) stays within `seconds`.
    A run therefore ends near `seconds` and never splits a unit."""
    start = time.monotonic()
    spent = []
    while not spent or (time.monotonic() - start
                        + statistics.median(spent) <= seconds):
        began = time.monotonic()
        yield
        spent.append(time.monotonic() - began)


def trace_order(run):
    """Untraced only, or both in alternating order (ABBA), so that a
    drift in machine speed does not land on one side of the overhead."""
    if not run.trace:
        return (0,)
    run.pairs += 1
    return (0, 1) if run.pairs % 4 in (1, 0) else (1, 0)


def measure(run, job, same, limit=UNIT_LIMIT_S):
    """Run `job` untraced and, in a traced run, traced too on the same
    inputs.  Returns the untraced child and the traced layer report (or
    None); `same(child)` is what both runs must agree on."""
    children = {}
    for traced in trace_order(run):
        children[traced] = c = spawn(job, trace=traced, limit=limit)
        run.child(c)
    if 1 not in children:
        return children[0], None
    if same(children[0]) != same(children[1]):
        run.fail("traced and untraced outputs differ: %s" % " ".join(job)[:80])
    return children[0], layer_report(children[1].report, children[1].wall)


def _cells(c):
    return (c.report or {}).get("cells") or []


def immersed_grid(run, rng, seconds, ref):
    """A unit is one batch process over every batch cell, in a new
    drawn order.  Cells share memo tables, so the time of a cell depends
    a little on the cells drawn before it; the latency samples pool the
    cells of every batch of the run, each batch in its own order."""
    want = ref["immersed"]
    for _ in units(seconds):
        cells = draws.batch_order(rng)
        spec = ";".join("%d,%d,%d" % cell for cell in cells)
        c, layers = measure(run, ["immersed", spec],
                            lambda c: [row[4:] for row in _cells(c)])
        run.unit(c.wall, c.cpu, layers)
        rows = _cells(c)
        if c.rc != 0 or len(rows) != len(cells) or not from_checkout(c):
            run.attempted += len(cells)
            for _ in cells:
                run.fail("batch process failed (exit %r)" % c.rc)
            continue
        for p, s, a, took, err, *checks in rows:
            run.attempted += 1
            run.latency.append(took)
            key = "%d,%d,%d" % (p, s, a)
            if err is not None:
                run.fail("cell %s: %s" % (key, err))
            elif not checks[1]:
                run.fail("cell %s breaks the r/k/k0 index laws" % key)
            elif checks[0] != want.get(key):
                run.fail("cell %s differs from the reference" % key)


def verify_all(run, rng, seconds, ref):
    want = ref["verify_all"]
    for _ in units(seconds):
        c, layers = measure(run, ["cli", "verify", "--suite", "all"],
                            lambda c: (c.rc, c.stdout))
        run.unit(c.wall, c.cpu, layers)
        run.latency.append(c.wall)
        run.attempted += 1
        if c.timed_out:
            run.fail("verify --suite all timed out", wrong=False)
        elif c.rc != 0 or not from_checkout(c):
            run.fail("verify --suite all exited %r" % c.rc)
        elif not c.stdout.endswith(b"all checks passed\n"):
            run.fail("verify output does not end with 'all checks passed'")
        elif digest(c.stdout) != want["sha256"]:
            run.fail("verify output differs from the reference")


def request_limit(argv):
    fast = argv[0] in ("lens", "finite-type") or argv == [
        "verify", "--suite", "lens"]
    return FAST_LIMIT_S if fast else SLOW_LIMIT_S


def cli_oneshot(run, rng, seconds, ref):
    """Closed loop, one client: each request waits for the previous one.

    A unit is a round of one request per slot (draws.SLOTS); a round
    is only started when it fits, so every latency sample comes from
    a complete round and each run has the same mix of requests."""
    want = ref["cli"]
    for _ in units(seconds):
        round_wall = round_cpu = 0.0
        round_layers = []
        for argv in draws.draw_round(rng):
            c, layers = measure(run, ["cli", *argv],
                                lambda c: (c.rc, c.stdout, c.timed_out),
                                limit=request_limit(argv))
            if layers:
                round_layers.append(layers)
            round_wall += c.wall
            round_cpu += c.cpu
            run.latency.append(c.wall)
            run.attempted += 1
            verdict = check_request(want, argv, c)
            if verdict == "timeout":
                run.fail("timeout: %s" % draws.key(argv), wrong=False)
            elif verdict != "ok":
                run.fail("%s: %s" % (draws.key(argv), verdict))
        run.unit(round_wall, round_cpu,
                 merge_layers(round_layers) if run.trace else None)


RUNNERS = {"immersed-grid": immersed_grid, "verify-all": verify_all,
           "cli-oneshot": cli_oneshot}


# ------------------------------------------------------------ per-layer

def layer_report(report, wall):
    """The traced numbers of one child, in a form that adds up."""
    report = report or {}
    spans = report.get("spans", {})
    cli_total = spans.get("cli.run", [0, 0.0, 0.0])[1]
    return {"wall": wall, "spans": spans,
            "charged": report.get("charged", {}),
            "caches": report.get("caches", {}),
            "emit_bytes": report.get("emit_bytes", 0),
            "process_overhead": wall - cli_total if cli_total else 0.0}


def merge_layers(reports):
    out = {"wall": 0.0, "spans": {}, "charged": {}, "caches": {},
           "emit_bytes": 0, "process_overhead": 0.0}
    for r in reports:
        out["wall"] += r["wall"]
        out["emit_bytes"] += r["emit_bytes"]
        out["process_overhead"] += r["process_overhead"]
        for name, row in r["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for layer, secs in r["charged"].items():
            out["charged"][layer] = out["charged"].get(layer, 0.0) + secs
        for name, (hits, misses) in r["caches"].items():
            acc = out["caches"].setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return out


CALLS_AND_SELF = [
    "rings.polyx_mul", "rings.alpha_mul", "rings.series_mul",
    "model.moments", "embedded.derive_embedded",
    "immersed.base_case", "immersed.step_raise_s", "immersed.step_p_odd",
    "immersed.step_p_even", "immersed.shift_reduce",
    "immersed.reduction_reduce",
]
SELF_ONLY = [
    "elliptic.blowup_functions", "elliptic.verify_elliptic_identities",
    "model.smb_series", "model.smb_insertion_series",
    "embedded.verify_embedded_relation", "embedded.verify_corollary_24",
    "immersed.universal_coefficients", "immersed.derive_immersed",
    "lens.build_poset", "lens.verify_poset", "lens.character_variety",
    "emit.text", "emit.json", "emit.latex", "emit.dot", "cli.run",
]
HIT_RATIOS = [
    "model.smb_series", "embedded.derive_embedded", "embedded.basis_series",
    "immersed.universal_coefficients", "immersed.expansion_coefficients",
    "immersed.chain_relation",
]


def per_layer_spec():
    """[(name, unit, better)] for every per-layer metric."""
    spec = []
    for name in CALLS_AND_SELF:
        spec += [(name + ".calls", "count", "lower"), (name + ".s", "s", "lower")]
    spec += [(name + ".s", "s", "lower") for name in SELF_ONLY]
    spec.append(("elliptic.blowup_functions.builds", "count", "lower"))
    for name in HIT_RATIOS:
        spec += [(name + ".hit_ratio", "ratio", "higher"),
                 (name + ".lookups", "count", "lower")]
    spec += [("emit.bytes", "bytes", "lower"),
             ("cli.process_overhead.s", "s", "lower"),
             ("trace_overhead_s", "s", "lower")]
    return spec


def per_layer_metrics(run):
    """Per traced unit means; hit ratios over all lookups of the run."""
    units = len(run.layers)
    total = merge_layers(run.layers)
    spans, caches = total["spans"], total["caches"]
    out = {}
    for name in CALLS_AND_SELF:
        row = spans.get(name, [0, 0.0, 0.0])
        out[name + ".calls"] = row[0] / units
        out[name + ".s"] = row[2] / units
    for name in SELF_ONLY:
        out[name + ".s"] = spans.get(name, [0, 0.0, 0.0])[2] / units
    out["elliptic.blowup_functions.builds"] = (
        caches.get("elliptic.blowup_functions", [0, 0])[1] / units)
    for name in HIT_RATIOS:
        hits, misses = caches.get(name, [0, 0])
        out[name + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[name + ".lookups"] = (hits + misses) / units
    out["emit.bytes"] = total["emit_bytes"] / units
    out["cli.process_overhead.s"] = total["process_overhead"] / units
    out["trace_overhead_s"] = (statistics.median(run.traced_wall)
                               - statistics.median(run.unit_wall))
    return out, total


def layer_tables(total, units):
    """Self seconds per unit by layer (module), plainly and with `rings`
    products charged to their caller, each with the part of the wall
    time outside every span."""
    plain = {}
    for name, (_, _, self_s) in total["spans"].items():
        layer = name.split(".")[0]
        plain[layer] = plain.get(layer, 0.0) + self_s / units
    charged = {k: v / units for k, v in total["charged"].items()}
    for table in (plain, charged):
        table["(outside spans)"] = total["wall"] / units - sum(table.values())
    return plain, charged


# --------------------------------------------------------------- results

def end_to_end_metrics(run):
    q, tail_value = tail(run.latency)
    values = {
        "wall_s": (statistics.median(run.unit_wall), len(run.unit_wall)),
        "cpu_s": (statistics.median(run.unit_cpu), len(run.unit_cpu)),
        "setup_s": (statistics.median(run.setup), len(run.setup)),
        "peak_rss_mb": (run.rss_kib / 1024.0, len(run.setup)),
        "latency_p50_s": (statistics.median(run.latency), len(run.latency)),
        "latency_tail_s": (tail_value, len(run.latency)),
    }
    return values, q


def environment(seed):
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "sphere_calculus").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
        "src_sha256": src_hash.hexdigest()[:32],
    }


def git_commit():
    """HEAD when the checkout is itself a git work tree, else None.
    Git does not look above the checkout for a repository."""
    env = dict(ENV, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def build():
    """Byte-compile the engine, as installing it would."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(SRC / "sphere_calculus")], check=True, env=ENV,
                   stdout=subprocess.DEVNULL)


def run_workload(name, seed, seconds, trace, ref):
    run = Run(trace)
    rng = random.Random("%s:%d" % (name, seed))
    load_before = os.getloadavg()
    probe_setup(run)
    RUNNERS[name](run, rng, seconds, ref)
    record = {"workload": name, "trace": trace,
              "load_before": load_before, "load_after": os.getloadavg(),
              "backend": sorted(run.backends)}
    if trace:
        values, total = per_layer_metrics(run)
        spec = per_layer_spec()
        record["metrics"] = {m: {"value": values[m], "unit": unit}
                             for m, unit, _ in spec}
        record["layers"], record["layers_charged"] = layer_tables(
            total, len(run.layers))
        record["spans"] = {k: [v[0] / len(run.layers), v[1] / len(run.layers),
                               v[2] / len(run.layers)]
                           for k, v in sorted(total["spans"].items())}
    else:
        values, q = end_to_end_metrics(run)
        units = dict(END_TO_END)
        record["metrics"] = {m: {"value": v, "unit": units[m]}
                             for m, (v, _) in values.items()}
        record["samples"] = {m: n for m, (_, n) in values.items()}
        record["unit_wall"] = run.unit_wall
        record["tail_percentile"] = q
    record.update(attempted=run.attempted, failed=run.failed,
                  error_rate=run.failed / run.attempted,
                  correct=not run.wrong, wrong=run.wrong[:20])
    return record


def print_record(rec):
    print("== %s (%s)" % (rec["workload"],
                          "traced" if rec["trace"] else "untraced"))
    print("backend %s; load average %.2f before, %.2f after"
          % (", ".join(rec["backend"]), rec["load_before"][0],
             rec["load_after"][0]))
    for name, m in rec["metrics"].items():
        extra = ""
        if "samples" in rec:
            extra = "  (n=%d)" % rec["samples"][name]
            if name == "latency_tail_s":
                extra += "  p%g" % rec["tail_percentile"]
        print("  %-42s %14.6g %-6s%s" % (name, m["value"], m["unit"], extra))
    if "layers" in rec:
        print("  self seconds per unit, by layer / rings charged to caller:")
        charged = rec["layers_charged"]
        for layer, secs in sorted(rec["layers"].items(), key=lambda kv: -kv[1]):
            print("    %-20s %10.3f %10.3f" % (layer, secs,
                                             charged.get(layer, 0.0)))
    print("  error_rate %d/%d = %.4f" % (rec["failed"], rec["attempted"],
                                         rec["error_rate"]))
    for what in rec["wrong"]:
        print("  WRONG: %s" % what)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    args = parser.parse_args(argv)

    if not (SRC / "sphere_calculus" / "__init__.py").is_file():
        print("no engine source at %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    build()
    ref = load_reference()
    env = environment(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, args.trace, ref)
        rec["environment"] = env
        records.append(rec)
        print_record(rec)
    print("environment " + json.dumps(env, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], m): v
                   for r in records for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
