"""Command-line driver.

Subcommands:
    decompose poly --vars D ["--field Q"] [--out FILE] EXPR
    decompose lie  --vars D --field {Q|F2|F3|F<p>} [--out FILE] EXPR
    verify FILE
    bound poly --vars D --degree N
    bound lie  --vars D --field F

``primlen --version`` prints the package version, the arithmetic backend
and the Python version.

Exit codes: 0 success or verified, 1 verification failure, 2 usage or parse
error (a document that cannot be loaded or written included), 3
unsupported input (positive characteristic for poly, d < 3 for lie, more
than MAX_ARITY generators, a polynomial above polydecomp.MAX_DEGREE or
MAX_NODES, a constant power or a bound above MAX_POWER_BITS, parenthesised
groups above MAX_DEGREE or MAX_TERMS in the reader, scalars whose common
denominator passes field.MAX_RAW_BITS, a Lie word longer than
metalie.DEGREE_CAP), 4 internal error (``errors.InternalError``: an
invariant the algorithms guarantee failed, which is a bug).
"""

from __future__ import annotations

import argparse
import platform
import sys

from . import __version__
from .document import dumps, lie_document, loads, poly_document, verify_document
from .errors import DegreeCapError, InternalError, ParseError, PrimlenError, UnsupportedInputError
from .field import field_from_flag, int_to_str
from .liedecomp import decompose_lie, lie_bound
from .parsing import parse_lie, parse_poly
from .polydecomp import decompose, plength_bound
from .sparse import check_arity

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def _version_line():
    """The package version, the arithmetic backend and the Python version."""
    return f"primlen {__version__} (fractions arithmetic, Python {platform.python_version()})"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="primlen",
        description="Decompose elements into sums of certified primitive elements.",
    )
    parser.add_argument("--version", action="version", version=_version_line())
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="decompose an element and emit a JSON certificate document")
    dec.add_argument("algebra", choices=["poly", "lie"])
    dec.add_argument("expression")
    dec.add_argument("--vars", type=int, required=True, metavar="D", help="number of generators")
    dec.add_argument("--field", default="Q", help="Q (default) or F<p>")
    dec.add_argument("--out", help="write the document to this file instead of stdout")

    ver = sub.add_parser("verify", help="re-verify a decomposition document")
    ver.add_argument("file")

    bnd = sub.add_parser("bound", help="print the summand-count bound")
    bnd.add_argument("algebra", choices=["poly", "lie"])
    bnd.add_argument("--vars", type=int, required=True, metavar="D")
    bnd.add_argument("--degree", type=int, help="input degree (poly only)")
    bnd.add_argument("--field", default="Q")
    return parser


def _emit(document, out_path):
    text = dumps(document)
    if not out_path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write document: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _run_decompose(args):
    try:
        field = field_from_flag(args.field)
    except UnsupportedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.vars < 1:
        print("error: --vars must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.algebra == "poly":
            f = parse_poly(args.expression, args.vars, field)
            document = poly_document(decompose(f))
        else:
            u = parse_lie(args.expression, args.vars, field)
            document = lie_document(decompose_lie(u))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnsupportedInputError, DegreeCapError) as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    return _emit(document, args.out)


def _run_verify(args):
    try:
        with open(args.file, encoding="utf-8") as handle:
            doc = loads(handle.read())
    except (OSError, ValueError, PrimlenError) as exc:
        print(f"error: cannot load document: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = verify_document(doc)
    if result.ok:
        print("verified")
        return EXIT_OK
    for problem in result.problems:
        print(f"verification failed: {problem}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def _run_bound(args):
    try:
        field = field_from_flag(args.field)
        check_arity(args.vars)
        if args.algebra == "poly":
            if args.degree is None:
                print("error: bound poly needs --degree", file=sys.stderr)
                return EXIT_USAGE
            value = plength_bound(args.degree, args.vars)
        else:
            value = lie_bound(args.vars, field)
    except UnsupportedInputError as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    print(int_to_str(value))
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    command = {"decompose": _run_decompose, "verify": _run_verify}.get(args.command, _run_bound)
    try:
        return command(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
