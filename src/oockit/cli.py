"""Command line front end.

Four subcommands: ``design`` searches for a family and writes a document,
``verify`` re-checks a document, ``bound`` prints the set-size ceiling,
and ``convert`` translates between code representations.

Exit codes: 0 success, 1 bad arguments, 2 design found nothing, 3 a
document failed verification (or could not be parsed as a document),
4 file I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .codes import (
    BinaryCode,
    CodeParams,
    Dopr,
    Wpr,
    binary_from_wpr,
    dopr_from_wpr,
    standardize,
    wpr_from_binary,
    wpr_from_dopr,
)
from .correlation import johnson_bound
from .design import DesignConfig, design_multi
from .document import (
    DocumentError,
    document_from_family,
    family_to_csv,
    from_json,
    to_canonical_json,
    verify_document,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3
EXIT_IO = 4


class UsageError(Exception):
    """Bad argument values discovered after parsing."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; 2 is reserved for an
    infeasible design here, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}")


def _broadcast(values: list[int], count: int, flag: str) -> list[int]:
    if len(values) == count:
        return values
    if len(values) == 1:
        return values * count
    expected = "1" if count == 1 else f"1 or {count}"
    raise UsageError(f"{flag} has {len(values)} entries, expected {expected}")


def cmd_design(args) -> int:
    lengths = _int_list(args.n, "--n")
    weights = _int_list(args.w, "--w")
    if len(lengths) != len(weights):
        raise UsageError("--n and --w must list the same number of entries")
    count = len(lengths)
    lambda_a = _broadcast(_int_list(args.lambda_a, "--lambda-a"), count, "--lambda-a")
    lambda_c = _broadcast(_int_list(args.lambda_c, "--lambda-c"), count, "--lambda-c")
    if any(w < 3 for w in weights):
        raise UsageError("the designer needs weight at least 3")
    try:
        parameter_list = tuple(
            CodeParams(n, w, la, lc)
            for n, w, la, lc in zip(lengths, weights, lambda_a, lambda_c)
        )
        config = DesignConfig(parameter_list, max_sets=args.max_sets)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))

    family = design_multi(config)
    if not family.sets:
        print("no conforming set found for the given parameters", file=sys.stderr)
        return EXIT_INFEASIBLE

    document = document_from_family(
        family,
        config={
            "n": lengths,
            "w": weights,
            "lambda_a": lambda_a,
            "lambda_c": lambda_c,
            "max_sets": args.max_sets,
        },
    )
    text = (
        family_to_csv(document)
        if args.format == "csv"
        else to_canonical_json(document)
    )
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        data = Path(args.document).read_bytes()
    except OSError as exc:
        print(f"cannot read {args.document}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        document = from_json(data.decode("utf-8"))
    except (UnicodeDecodeError, DocumentError) as exc:
        print(f"FAIL document-format: {exc}")
        return EXIT_VERIFY_FAILED
    report = verify_document(document)
    for check in report.checks:
        if check.passed:
            print(f"PASS {check.rule}")
        else:
            print(f"FAIL {check.rule}: {check.detail}")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_bound(args) -> int:
    try:
        print(johnson_bound(args.n, args.w, args.level))
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))
    return EXIT_OK


def _parse_convert_input(args) -> tuple[Dopr, Wpr]:
    if args.binary is not None:
        if any(ch not in "01" for ch in args.binary) or not args.binary:
            raise UsageError("--binary expects a non-empty string of 0s and 1s")
        bits = tuple(int(ch) for ch in args.binary)
        if args.n is not None and args.n != len(bits):
            raise UsageError(
                f"--n {args.n} disagrees with the {len(bits)}-chip binary form"
            )
        wpr = wpr_from_binary(BinaryCode(bits))
        return dopr_from_wpr(wpr), wpr
    if args.n is None:
        raise UsageError("--n is required with --wpr or --dopr")
    if args.wpr is not None:
        wpr = Wpr(tuple(_int_list(args.wpr, "--wpr")), args.n)
        return dopr_from_wpr(wpr), wpr
    dopr = Dopr(tuple(_int_list(args.dopr, "--dopr")), args.n)
    return dopr, wpr_from_dopr(dopr)


def cmd_convert(args) -> int:
    try:
        dopr, wpr = _parse_convert_input(args)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))
    standard = standardize(dopr)
    if args.to == "binary":
        bits = binary_from_wpr(wpr)
        print("binary:", "".join(str(b) for b in bits.bits))
    elif args.to == "wpr":
        print("wpr:", "-".join(str(p) for p in wpr.positions))
    elif args.to == "dopr":
        print("dopr:", "-".join(str(d) for d in dopr.dops))
    print("standard:", "-".join(str(d) for d in standard.dops))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser for the ``oockit`` command line: built on the first call,
    then kept for the life of the process, since building it costs as much
    as a small verify."""
    parser = _Parser(
        prog="oockit",
        description="Design and verify unipolar code families with bounded correlations.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    design = commands.add_parser(
        "design", help="search for a family and write a document"
    )
    design.add_argument("--n", required=True, help="code length(s), comma-separated")
    design.add_argument("--w", required=True, help="code weight(s), comma-separated")
    design.add_argument(
        "--lambda-a",
        default="1",
        help="self-correlation ceiling(s); one value broadcasts (default 1)",
    )
    design.add_argument(
        "--lambda-c",
        default="1",
        help="cross-correlation ceiling(s); one value broadcasts (default 1)",
    )
    design.add_argument(
        "--max-sets", type=int, default=None, help="cap on sets carried and emitted"
    )
    design.add_argument("--out", default=None, help="output file (default stdout)")
    design.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    design.set_defaults(func=cmd_design)

    verify = commands.add_parser("verify", help="re-check a document")
    verify.add_argument("document", help="path to a JSON document")
    verify.set_defaults(func=cmd_verify)

    bound = commands.add_parser("bound", help="print the set-size ceiling")
    bound.add_argument("--n", type=int, required=True, help="code length")
    bound.add_argument("--w", type=int, required=True, help="code weight")
    bound.add_argument(
        "--lambda",
        dest="level",
        type=int,
        required=True,
        help="correlation ceiling the bound is evaluated at",
    )
    bound.set_defaults(func=cmd_bound)

    convert = commands.add_parser(
        "convert", help="translate between code representations"
    )
    source = convert.add_mutually_exclusive_group(required=True)
    source.add_argument("--binary", default=None, help="chip string, e.g. 1101000")
    source.add_argument("--wpr", default=None, help="one-positions, comma-separated")
    source.add_argument("--dopr", default=None, help="differences, comma-separated")
    convert.add_argument("--n", type=int, default=None, help="code length")
    convert.add_argument(
        "--to",
        choices=("binary", "wpr", "dopr", "standard"),
        default="standard",
        help="target representation (default: canonical rotation)",
    )
    convert.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"oockit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
