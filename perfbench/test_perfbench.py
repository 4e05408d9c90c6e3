"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json
import os
import random
import sys
import time
from array import array

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import draws  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_seed_draws_same_inputs_and_other_seeds_differ():
    for workload in run.WORKLOADS:
        a = random.Random("%s:%d" % (workload, 7))
        b = random.Random("%s:%d" % (workload, 7))
        c = random.Random("%s:%d" % (workload, 8))
        assert draws.batch_order(a) == draws.batch_order(b)
        assert draws.draw_round(a) == draws.draw_round(b)
        assert draws.batch_order(a) != draws.batch_order(c)
    rounds = [draws.draw_round(random.Random(s)) for s in range(20)]
    assert len({json.dumps(r) for r in rounds}) == 20


def test_batch_is_the_same_cells_in_every_order_and_covers_every_step():
    order = draws.batch_order(random.Random(3))
    assert sorted(order) == sorted(draws.grid_cells())
    assert [c[0] for c in order] == sorted(c[0] for c in order)
    kinds = {draws.step_kind(p, s) for p, s, _ in order}
    assert kinds == {"base_case", "step_raise_s", "step_p_odd", "step_p_even"}


def test_every_round_has_the_same_cost_profile():
    def cost(argv):
        # Series order and embedded n set a request's cost.  Only the
        # slot below the median draws n (2 or 3); immersed slots draw
        # among cells of near-equal cost.
        if argv[0] == "series":
            return ("series", argv[argv.index("--order") + 1])
        if argv[0] == "embedded":
            return ("embedded", max(int(argv[argv.index("--n") + 1]), 3))
        return (argv[0],)

    profiles = {tuple(sorted(cost(a) for a in draws.draw_round(
        random.Random(seed)))) for seed in range(10)}
    assert len(profiles) == 1
    assert len(next(iter(profiles))) == len(draws.SLOTS)


def test_units_take_one_then_stop_when_the_next_would_not_fit():
    assert sum(1 for _ in run.units(0)) == 1
    n = 0
    for _ in run.units(1.0):
        n += 1
        time.sleep(0.4)
    assert n == 2


def test_every_drawable_request_is_in_the_reference():
    ref = run.load_reference()["cli"]
    assert {draws.key(a) for a in draws.request_space()} == set(ref)
    hangs = {k for k, v in ref.items() if v.get("hangs")}
    assert hangs == {draws.key(a) for a in draws.SLOTS["lens-poset-4p-odd"]}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 1001))
    assert run.tail(values[:19]) == (100.0, 19)
    assert run.tail(values[:20]) == (50.0, 10)
    assert run.tail(values[:39]) == (50.0, 20)
    assert run.tail(values[:40]) == (75.0, 30)
    assert run.tail(values[:100]) == (90.0, 90)
    assert run.tail(values[:199]) == (90.0, 180)
    assert run.tail(values[:200]) == (95.0, 190)
    assert run.tail(values) == (99.0, 990)
    q, v = run.tail(values[:250])
    assert sum(1 for x in values[:250] if x > v) >= 10


def test_self_time_from_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    names = ["root", "a", "b", "c"]
    name_id = array("i", [0, 1, 3, 2])
    parent = array("i", [-1, 0, 1, 0])
    start = array("d", [0.0, 1.0, 2.0, 5.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0])
    got, charged = spans.self_times(names, name_id, parent, start, end)
    assert got == {"root": [1, 10.0, 3.0], "a": [1, 3.0, 2.0],
                   "c": [1, 1.0, 1.0], "b": [1, 4.0, 4.0]}
    assert charged == {"root": 3.0, "a": 2.0, "c": 1.0, "b": 4.0}


def test_rings_products_are_charged_to_their_caller():
    names = ["immersed.step", "rings.polyx_mul", "elliptic.build"]
    name_id = array("i", [0, 1, 1, 2, 1])
    parent = array("i", [-1, 0, 1, -1, 3])
    start = array("d", [0.0, 1.0, 2.0, 10.0, 11.0])
    end = array("d", [5.0, 4.0, 3.0, 20.0, 12.0])
    _, charged = spans.self_times(names, name_id, parent, start, end)
    assert charged == {"immersed": 5.0, "elliptic": 10.0}


def test_recorder_nests_recursive_calls():
    rec = spans.Recorder()

    def fib(n):
        return n if n < 2 else wrapped(n - 1) + wrapped(n - 2)

    wrapped = rec.wrap(fib, "fib")
    assert wrapped(6) == 8
    calls, total, self_s = rec.totals()[0]["fib"]
    assert calls == 25
    outer = rec.end[0] - rec.start[0]
    assert abs(self_s - outer) < 1e-9 and total > outer


class _Fake:
    def __init__(self, stdout, rc=0, timed_out=False):
        self.stdout = stdout
        self.rc = rc
        self.timed_out = timed_out
        self.report = {"package": str(run.SRC / "sphere_calculus" / "x.py")}


def test_planted_wrong_reference_is_a_failure():
    argv = ["finite-type", "--p", "3", "--a", "4", "--format", "text"]
    doc = b"r = 1\n"
    ref = {draws.key(argv): {"exit": 0, "sha256": run.digest(doc)}}
    assert run.check_request(ref, argv, _Fake(doc)) == "ok"
    planted = {draws.key(argv): {"exit": 0, "sha256": run.digest(b"r = 2\n")}}
    assert run.check_request(planted, argv, _Fake(doc)) != "ok"
    assert run.check_request(ref, argv, _Fake(doc, rc=1)) != "ok"
    # A document that matches a wrong reference still fails the
    # independent r = floor((2p + 2 - a') / 4) check.
    wrong = b"r = 2\n"
    ref_wrong = {draws.key(argv): {"exit": 0, "sha256": run.digest(wrong)}}
    assert run.check_request(ref_wrong, argv, _Fake(wrong)) != "ok"
    assert run.check_request(ref, argv, _Fake(b"", timed_out=True)) == "timeout"


def test_known_hang_passes_once_answered():
    argv = ["lens", "poset", "--p", "4", "--parity", "odd", "--n", "8",
            "--format", "dot"]
    ref = {draws.key(argv): {"hangs": True}}
    assert run.check_request(ref, argv, _Fake(b"", timed_out=True)) == "timeout"
    assert run.check_request(ref, argv, _Fake(b"", rc=2)) == "ok"
    assert run.check_request(ref, argv, _Fake(b"x", rc=0)) == "ok"
    assert run.check_request(ref, argv, _Fake(b"", rc=1)) != "ok"


def test_traced_and_untraced_outputs_are_identical():
    ref = run.load_reference()
    for argv in (["series", "--fn", "Q", "--order", "24", "--format", "json"],
                 ["embedded", "--n", "3", "--epsilon", "1", "--format", "json"],
                 ["lens", "poset", "--p", "6", "--parity", "odd", "--n", "10",
                  "--format", "dot"]):
        plain = run.spawn(["cli", *argv])
        traced = run.spawn(["cli", *argv], trace=1)
        assert (plain.rc, plain.stdout) == (traced.rc, traced.stdout)
        assert run.check_request(ref["cli"], argv, plain) == "ok"
        assert traced.report["spans"]["cli.run"][0] == 1
    cells = [c for c in draws.grid_cells() if 4 * c[0] - c[2] <= 5]
    spec = ";".join("%d,%d,%d" % c for c in cells)
    plain = run.spawn(["immersed", spec])
    traced = run.spawn(["immersed", spec], trace=1)
    assert [r[4:] for r in plain.report["cells"]] == [
        r[4:] for r in traced.report["cells"]]
    for p, s, a, _, err, sha, laws in plain.report["cells"]:
        assert err is None and laws
        assert sha == ref["immersed"]["%d,%d,%d" % (p, s, a)]
    names = traced.report["spans"]
    for kind in ("base_case", "step_raise_s", "step_p_odd", "step_p_even"):
        assert names["immersed." + kind][0] > 0
    assert names["rings.polyx_mul"][0] > 0


def test_compare_refuses_other_backend_or_python():
    rec = {"workload": "verify-all", "trace": 0, "backend": ["fractions.Fraction"],
           "environment": {"python": "3.11.7"},
           "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    other = dict(rec, backend=["gmpy2.mpq"])
    assert compare.incomparable([rec], [other])
    newer = dict(rec, environment={"python": "3.12.1"})
    assert compare.incomparable([rec], [newer])
    assert not compare.incomparable([rec], [dict(rec)])


def test_benchmark_json_lists_exactly_the_metrics_run_prints():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in run.per_layer_spec()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
