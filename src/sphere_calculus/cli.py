"""Command-line front end for the sphere calculus.

Subcommands: series, embedded, immersed, finite-type, lens, verify.
Exit status 0 on success, 1 when a checked identity is falsified, and
2 for usage errors and for inputs with no answer.  `--order N`, the
series truncation order (minimum 8), is taken by `series` and by
`verify --suite elliptic|all`; anywhere else it exits 2.  The default
order is 32.  `lens poset` needs `--n` >= 0.
`--version` prints the package version, the arithmetic backend and the
Python version on one line and exits 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import __version__, emit
from .elliptic import IdentityError, blowup_functions, verify_elliptic_identities
from .embedded import DerivationError, derive_embedded, verify_corollary_24
from .immersed import derive_immersed, finite_type_order
from .lens import PosetError, build_poset, character_variety
from .rings import rat

DEFAULT_ORDER = 32
MIN_ORDER = 8

FALSIFIED = (IdentityError, DerivationError, PosetError)


def _parity(text: str) -> int:
    if text in ("even", "0"):
        return 0
    if text in ("odd", "1"):
        return 1
    raise argparse.ArgumentTypeError("parity must be even or odd")


def version_line() -> str:
    """The package version, the arithmetic backend (the type of the
    engine's rationals) and the Python version, on one line."""
    backend = type(rat(0))
    return "sphere-calculus %s (arithmetic %s.%s, Python %d.%d.%d)" % (
        (__version__, backend.__module__, backend.__qualname__)
        + tuple(sys.version_info[:3]))


class _Version(argparse.Action):
    """--version: print version_line() and exit 0, before any other
    argument is checked."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(version_line())
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphere-calculus",
        description="Exact blowup-calculus engine: power series, "
        "structure equations, and lens-space charge posets.",
    )
    parser.add_argument("--version", action=_Version,
                        help="print the version, the arithmetic backend "
                        "and the Python version, and exit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None,
                        help="write the document to this path")
    ordered = argparse.ArgumentParser(add_help=False, parents=[common])
    ordered.add_argument("--order", type=int, default=None,
                         help="series truncation order (min %d)" % MIN_ORDER)
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", parents=[ordered],
                              help="emit a blowup power series")
    p_series.add_argument("--fn", required=True,
                          choices=["B", "S", "Delta", "Q", "q", "Qprime"])
    p_series.add_argument("--format", default="text",
                          choices=["text", "json", "latex"])

    p_emb = sub.add_parser("embedded", parents=[common], help="embedded-sphere structure equation")
    p_emb.add_argument("--n", type=int, required=True)
    p_emb.add_argument("--epsilon", type=int, required=True, choices=[0, 1])
    p_emb.add_argument("--format", default="text",
                       choices=["text", "json", "latex"])

    p_imm = sub.add_parser("immersed", parents=[common], help="immersed-sphere structure equation")
    p_imm.add_argument("--p", type=int, required=True)
    p_imm.add_argument("--s", type=int, required=True)
    p_imm.add_argument("--a", type=int, required=True)
    p_imm.add_argument("--format", default="text",
                       choices=["text", "json", "latex"])

    p_ft = sub.add_parser("finite-type", parents=[common], help="finite-type order of a sphere")
    p_ft.add_argument("--p", type=int, required=True)
    p_ft.add_argument("--a", type=int, required=True)
    p_ft.add_argument("--format", default="text", choices=["text", "json"])

    p_lens = sub.add_parser("lens", help="lens-space flat classes and posets")
    lens_sub = p_lens.add_subparsers(dest="lens_command", required=True)
    p_chi = lens_sub.add_parser("chi", parents=[common],
                                help="flat character classes")
    p_chi.add_argument("--p", type=int, required=True)
    p_chi.add_argument("--parity", type=_parity, required=True)
    p_chi.add_argument("--format", default="text", choices=["text", "json"])
    p_poset = lens_sub.add_parser("poset", parents=[common],
                                  help="charge poset J_n")
    p_poset.add_argument("--p", type=int, required=True)
    p_poset.add_argument("--parity", type=_parity, required=True)
    p_poset.add_argument("--n", type=int, required=True)
    p_poset.add_argument("--format", default="dot",
                         choices=["dot", "ascii", "json"])

    p_verify = sub.add_parser("verify", parents=[ordered],
                              help="run identity suites")
    p_verify.add_argument("--suite", default="all",
                          choices=["elliptic", "embedded", "immersed",
                                   "lens", "all"])
    return parser


def _verify_elliptic(order: int, lines):
    report = verify_elliptic_identities(order)
    for name in sorted(report):
        lines.append("elliptic %s: ok through order %d" % (name, report[name]))


def _verify_embedded(lines):
    verify_corollary_24()
    lines.append("embedded low-n table: ok")
    for n in range(2, 11):
        for eps in (0, 1):
            derive_embedded(n, eps)  # model-checked before it returns
            lines.append("embedded n=%d epsilon=%d: ok" % (n, eps))


def _verify_immersed(lines):
    for p in range(0, 4):
        for s in range(0, p + 1):
            for a in range(4 * p - 2, 4 * p - 7, -1):
                derive_immersed(p, s, a)
                lines.append("immersed (%d, %d, %d): ok" % (p, s, a))


def _verify_lens(lines):
    for p in range(1, 10):
        for parity in (0, 1):
            character_variety(p, parity)
    lines.append("lens character varieties p<=9: ok")
    for parity in (0, 1):
        j = build_poset(6, parity, 10)
        lines.append("lens poset J_10 parity %d: %d vertices, %d edges"
                     % (parity, len(j.vertices), len(j.edges)))


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    order = getattr(args, "order", None)
    if order is None:
        order = DEFAULT_ORDER
    if order < MIN_ORDER:
        parser.error("order must be at least %d" % MIN_ORDER)
    if (args.command == "verify" and args.order is not None
            and args.suite not in ("all", "elliptic")):
        parser.error("--order applies only to the elliptic suite")
    if args.output:
        _check_output(parser, args.output)

    try:
        doc = _dispatch(args, order)
    except FALSIFIED as exc:
        print("falsified: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))

    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(doc)
        except OSError as exc:
            _cannot_write(parser, args.output, exc.strerror or str(exc))
    else:
        sys.stdout.write(doc)
    return 0


def _check_output(parser, path: str):
    """Reject an --output path that cannot be written, before any work
    and without creating or truncating it."""
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    if os.path.isdir(target):
        _cannot_write(parser, path, "Is a directory")
    if not os.path.isdir(directory):
        _cannot_write(parser, path, "No such directory")
    if not os.access(target if os.path.exists(target) else directory,
                     os.W_OK):
        _cannot_write(parser, path, "Permission denied")


def _cannot_write(parser, path: str, reason: str):
    parser.exit(2, "%s: error: cannot write --output %s: %s\n"
                % (parser.prog, path, reason))


def _dispatch(args, order: int) -> str:
    if args.command == "series":
        f = getattr(blowup_functions(order), args.fn)
        return getattr(emit, "series_" + args.format)(args.fn, f)

    if args.command == "embedded":
        rel = derive_embedded(args.n, args.epsilon)
        return getattr(emit, "embedded_" + args.format)(rel)

    if args.command == "immersed":
        nf = derive_immersed(args.p, args.s, args.a)
        return getattr(emit, "normal_form_" + args.format)(nf)

    if args.command == "finite-type":
        r = finite_type_order(args.p, args.a)
        return getattr(emit, "finite_type_" + args.format)(args.p, args.a, r)

    if args.command == "lens":
        if args.lens_command == "chi":
            classes = character_variety(args.p, args.parity)
            return getattr(emit, "chi_" + args.format)(
                args.p, args.parity, classes)
        j = build_poset(args.p, args.parity, args.n)
        return emit.poset_emit(j, args.format)

    if args.command == "verify":
        lines = []
        suites = {
            "elliptic": partial(_verify_elliptic, order),
            "embedded": _verify_embedded,
            "immersed": _verify_immersed,
            "lens": _verify_lens,
        }
        chosen = suites if args.suite == "all" else {
            args.suite: suites[args.suite]}
        for name in sorted(chosen):
            chosen[name](lines)
        lines.append("all checks passed")
        return "\n".join(lines) + "\n"

    raise AssertionError("unreachable command")


def main():  # console-script entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
