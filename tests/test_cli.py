"""Command-line front end and emitters."""

import json
import platform

import pytest

from sphere_calculus import __version__, cli, emit
from sphere_calculus.cli import run
from sphere_calculus.embedded import DerivationError
from sphere_calculus.immersed import derive_immersed
from sphere_calculus.rings import rat


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


# ------------------------------------------------------------- commands


def test_series_text(capsys):
    code, out = capture(capsys, ["series", "--fn", "Q", "--order", "8"])
    assert code == 0
    assert out.startswith("Q = t")
    assert "-1/6*x" in out


def test_finite_type(capsys):
    code, out = capture(capsys, ["finite-type", "--p", "1", "--a", "0"])
    assert code == 0
    assert out == "r = 1\n"


def test_embedded_latex(capsys):
    code, out = capture(
        capsys, ["embedded", "--n", "2", "--epsilon", "0",
                 "--format", "latex"])
    assert code == 0
    assert out.startswith("e^{t\\sigma} \\equiv B^{2}")
    assert "\\sigma^{2}" in out and "\\frac{1}{2}" in out


def test_immersed_vanishing_text(capsys):
    code, out = capture(capsys, ["immersed", "--p", "1", "--s", "0", "--a", "0"])
    assert code == 0
    assert "D_w((x^2-4)*cosh(t*alpha)) = 0" in out
    assert "D_w((x^2-4)*sinh(t*alpha)) = 0" in out


def test_lens_chi_text(capsys):
    code, out = capture(capsys, ["lens", "chi", "--p", "6", "--parity", "even"])
    assert code == 0
    assert "{0}" in out and "{6}" in out and " 2," in out


def test_lens_poset_dot(capsys):
    code, out = capture(
        capsys, ["lens", "poset", "--p", "6", "--parity", "odd",
                 "--n", "10", "--format", "dot"])
    assert code == 0
    assert out.count("->") == 7


def test_verify_lens(capsys):
    code, out = capture(capsys, ["verify", "--suite", "lens"])
    assert code == 0
    assert "all checks passed" in out


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["series", "--fn", "nope"])
    assert exc.value.code == 2


def test_version_reports_backend(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    backend = type(rat(0))
    assert out == "sphere-calculus %s (arithmetic %s.%s, Python %s)\n" % (
        __version__, backend.__module__, backend.__qualname__,
        platform.python_version())
    assert err == ""


def test_lens_poset_without_charges_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["lens", "poset", "--p", "8", "--parity", "odd", "--n", "10"])
    assert exc.value.code == 2


def test_order_floor_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["series", "--fn", "Q", "--order", "4"])
    assert exc.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run(["series", "--fn", "B", "--order", "8",
                "--format", "json", "--output", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["schema"] == "sphere-calculus/1"
    assert doc["order"] == 8


LEAVES = [
    ["series", "--fn", "B", "--order", "8"],
    ["embedded", "--n", "2", "--epsilon", "0"],
    ["immersed", "--p", "1", "--s", "1", "--a", "0"],
    ["finite-type", "--p", "1", "--a", "0", "--format", "json"],
    ["lens", "chi", "--p", "6", "--parity", "even"],
    ["lens", "poset", "--p", "6", "--parity", "odd", "--n", "10"],
    ["verify", "--suite", "lens"],
]


@pytest.mark.parametrize("argv", LEAVES, ids=lambda argv: " ".join(argv[:2]))
def test_output_matches_stdout(argv, tmp_path, capsys):
    code, out = capture(capsys, argv)
    assert code == 0
    target = tmp_path / "doc"
    assert run(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == out


@pytest.mark.parametrize("argv", [
    ["finite-type", "--p", "1", "--a", "0"],
    ["verify", "--suite", "all"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exit_2_before_work(argv, tmp_path, monkeypatch,
                                              capsys):
    def no_work(*args):
        raise AssertionError("work started before --output was checked")

    monkeypatch.setattr(cli, "_dispatch", no_work)
    for bad in (tmp_path / "missing" / "doc", tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--output", str(bad)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("sphere-calculus: error: cannot write --output")
    assert not (tmp_path / "missing").exists()


def test_falsified_run_leaves_output_alone(tmp_path, monkeypatch):
    def falsified(*args):
        raise DerivationError("planted")

    monkeypatch.setattr(cli, "_dispatch", falsified)
    kept, fresh = tmp_path / "kept", tmp_path / "fresh"
    kept.write_text("earlier\n")
    for target in (kept, fresh):
        assert run(["verify", "--suite", "immersed",
                    "--output", str(target)]) == 1
    assert kept.read_text() == "earlier\n"
    assert not fresh.exists()


@pytest.mark.parametrize("argv", [
    ["embedded", "--n", "2", "--epsilon", "0", "--order", "40"],
    ["immersed", "--p", "1", "--s", "1", "--a", "0", "--order", "40"],
    ["finite-type", "--p", "1", "--a", "0", "--order", "40"],
    ["lens", "chi", "--p", "6", "--parity", "even", "--order", "40"],
    ["lens", "--order", "40", "chi", "--p", "6", "--parity", "even"],
    ["lens", "poset", "--p", "6", "--parity", "odd", "--n", "10",
     "--order", "40"],
    ["--order", "40", "series", "--fn", "Q"],
    ["--output", "doc", "series", "--fn", "Q"],
    ["verify", "--suite", "embedded", "--order", "12"],
    ["verify", "--suite", "immersed", "--order", "12"],
    ["verify", "--suite", "lens", "--order", "12"],
], ids=" ".join)
def test_misplaced_option_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["elliptic", "all"])
def test_verify_order_reaches_elliptic_suite(capsys, suite):
    code, out = capture(capsys, ["verify", "--suite", suite, "--order", "12"])
    assert code == 0
    assert "elliptic Q-times-B: ok through order 12\n" in out


def test_lens_poset_negative_n_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["lens", "poset", "--p", "6", "--parity", "even", "--n", "-1"])
    assert exc.value.code == 2


def test_default_order_ignores_the_environment(monkeypatch, capsys):
    # --order is the one way to set the order.
    monkeypatch.setenv("SPHERE_CALCULUS_ORDER", "16")
    code, out = capture(capsys, ["series", "--fn", "B", "--format", "json"])
    assert code == 0
    assert json.loads(out)["order"] == 32


# Delta and Q' are served one order short of the build order, so their
# documents record, and hold, order - 1 coefficients.  Serving --order
# changes the cli-oneshot documents that perfbench/reference.json pins,
# so the mend waits for the benchmark's next reference.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Delta and Qprime documents stop at order - 1")
@pytest.mark.parametrize("fn", ["Delta", "Qprime"])
def test_series_json_honours_order(capsys, fn):
    code, out = capture(capsys, ["series", "--fn", fn, "--order", "12",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["order"], len(doc["coefficients"])) == (12, 12)


# ------------------------------------------------------------- emitters


def test_json_round_trip_normal_form():
    nf = derive_immersed(1, 1, 0)
    doc = emit.normal_form_json(nf)
    parsed = json.loads(doc)
    again = json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    assert doc == again


def test_json_rationals_are_strings():
    nf = derive_immersed(0, 0, -3)
    parsed = json.loads(emit.normal_form_json(nf))
    flat = json.dumps(parsed["d"])
    assert '"1/6"' in flat


# Every JSON document kind: the request, its kind and the truncation
# order it records, which only series and embedded documents carry.
JSON_DOCUMENTS = [
    (["series", "--fn", "B", "--order", "12"], "series", 12),
    (["embedded", "--n", "3", "--epsilon", "1"], "embedded-relation", 14),
    (["immersed", "--p", "2", "--s", "1", "--a", "-1"], "normal-form", None),
    (["finite-type", "--p", "1", "--a", "0"], "finite-type-order", None),
    (["lens", "chi", "--p", "5", "--parity", "odd"], "character-variety",
     None),
    (["lens", "poset", "--p", "6", "--parity", "even", "--n", "10"],
     "charge-poset", None),
]


def test_json_schema_everywhere(capsys):
    for argv, kind, order in JSON_DOCUMENTS:
        code, out = capture(capsys, argv + ["--format", "json"])
        assert code == 0, argv
        doc = json.loads(out)
        assert (doc["schema"], doc["kind"]) == ("sphere-calculus/1", kind)
        assert doc.get("order") == order, argv


def test_determinism(capsys):
    _, first = capture(capsys, ["immersed", "--p", "2", "--s", "1",
                                "--a", "-1", "--format", "json"])
    _, second = capture(capsys, ["immersed", "--p", "2", "--s", "1",
                                 "--a", "-1", "--format", "json"])
    assert first == second


def test_empty_relation_document():
    nf = derive_immersed(1, 0, 0)
    text = emit.normal_form_text(nf)
    assert "= 0" in text
