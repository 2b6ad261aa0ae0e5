"""Command line front end.

Exit codes: 0 success (findings included), 1 parse error (command-line
usage errors included), 2 computation error, 3 audit failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import CATALOGS
from .checks import SUITES, report_lines, run_suites, worst_status
from .dsl import DslError, parse_program, Interpreter
from .fingroup import GroupError
from .freeprod import InconclusiveError, WordError
from .sheaf import SheafError
from .variety import VarietyError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_COMPUTE = 2
EXIT_AUDIT = 3

# OSError: an output file (``--out``) that cannot be written
_COMPUTE_ERRORS = (GroupError, WordError, InconclusiveError, SheafError, VarietyError, OSError)


def _cmd_run(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        program = parse_program(text)
    except DslError as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return EXIT_PARSE
    interp = Interpreter()
    try:
        interp.run(program)
    except DslError as e:
        for line in interp.outputs:
            print(line)
        print(f"{args.file}: {e}", file=sys.stderr)
        return EXIT_PARSE
    except _COMPUTE_ERRORS as e:
        for line in interp.outputs:
            print(line)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_COMPUTE
    for line in interp.outputs:
        print(line)
    return EXIT_AUDIT if interp.audit_failed else EXIT_OK


def _emit_check(records, args) -> None:
    if args.format == "json":
        payload = json.dumps(records, indent=2, sort_keys=True) + "\n"
    else:
        payload = "\n".join(report_lines(records)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_check(args) -> int:
    suites = sorted(SUITES) if args.suite == "all" else [args.suite]
    for s in suites:
        if s not in SUITES:
            print(
                f"error: unknown suite {s!r}; known: {', '.join(sorted(SUITES))} or 'all'",
                file=sys.stderr,
            )
            return EXIT_PARSE
    try:
        records = run_suites(suites, args.catalog)
        _emit_check(records, args)
    except _COMPUTE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_AUDIT if worst_status(records) == "fail" else EXIT_OK


def _cmd_suites(args) -> int:
    for name in sorted(SUITES):
        print(name)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for ``main`` to report as one line, exit code 1;
    subparsers are made of the same class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="groupspec",
        description="Spectra, varieties and structural sheaves of finite structured groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a program file")
    p_run.add_argument("file")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="run an audit suite (or 'all')")
    p_check.add_argument("suite")
    p_check.add_argument("--catalog", choices=CATALOGS, default="small")
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=_cmd_check)

    p_suites = sub.add_parser("suites", help="list audit suite ids")
    p_suites.set_defaults(func=_cmd_suites)

    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
