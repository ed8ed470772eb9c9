"""Command line front end: fmt, check, graph, plan, run.

Exit codes: 0 success, also when stdout's reader stops early; 1 fmt
parse failure; 2 failed checks (and any error that prevents checking,
an unreadable source or an output, stdout included, that cannot be
opened or written, which fmt reports with 1); 64 usage; run returns
the executed system's overall status, 124 on timeout.  ``run`` re-checks
the source every time and spawns nothing when checking fails.  ``plan``
and ``run`` print the check's findings, warnings included, before
lowering.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from dataclasses import replace
from functools import cache
from typing import Iterable

from .checker import check_all, fold_typedefs, resolve
from .diagnostics import ArchonError, error, has_errors, render_json, render_lines
from .model import builtin_type_table
from .parser import ParseError, parse, parse_library

USAGE_EXIT = 64

LIB_PATH_VAR = "ARCHON_LIB_PATH"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage is 64
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


@cache  # built once per process; each parse_args starts from a fresh namespace
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="archon", description=__doc__.splitlines()[0])
    common = _ArgumentParser(add_help=False)
    common.add_argument("source", help="architecture source file")
    common.add_argument(
        "--lib",
        action="append",
        default=[],
        help="type library file; repeatable, applied in order, no shadowing",
    )
    common.add_argument("--style", help="check against this style name")
    common.add_argument("--input", help="bind the external input stream")
    common.add_argument("--output", help="bind the external output stream")
    common.add_argument("--emit-plan", help="also write the serialized plan here")
    common.add_argument("--out", help="write main output here instead of stdout")
    common.add_argument("--timeout", type=float, help="wall clock limit in seconds")
    common.add_argument("--json", action="store_true", help="JSON output where applicable")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)
    sub.add_parser("fmt", parents=[common], help="canonical formatting to stdout")
    sub.add_parser("check", parents=[common], help="type/completeness/style diagnostics")
    sub.add_parser("graph", parents=[common], help="DOT (or --json) graph to stdout")
    sub.add_parser("plan", parents=[common], help="serialized build plan")
    sub.add_parser("run", parents=[common], help="check, lower, and execute")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return _dispatch(args)
    except BrokenPipeError:
        return 0


def _fail_code(args) -> int:
    return 1 if args.command == "fmt" else 2


def _emit(pieces: Iterable[str], paths: Iterable[str | None], args) -> int:
    """Write the text ``pieces`` make to every path (None: stdout).  Every
    file is opened before the first piece is made, and each piece is written
    as it comes.  A path that cannot be opened ends it, before any piece, and
    so does one that cannot be written, each with one line on stderr and the
    failure code."""
    path = None  # the destination being opened or written
    try:
        with ExitStack() as files:
            outs = []
            for path in paths:
                out = files.enter_context(open(path, "w", encoding="utf-8")) if path else sys.stdout
                outs.append((path, out))
            for piece in pieces:
                for path, out in outs:
                    out.write(piece)
            for path, out in outs:
                out.flush()
    except OSError as err:
        if not path:  # the interpreter flushes stdout again as it exits
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(err, BrokenPipeError):
            raise  # the reader stopped early: main exits 0
        print(f"archon: cannot write '{path or '<stdout>'}': {err.strerror}", file=sys.stderr)
        return _fail_code(args)
    return 0


def _find_library(name: str) -> str | None:
    if os.path.exists(name):
        return name
    for directory in os.environ.get(LIB_PATH_VAR, "").split(":"):
        if not directory:
            continue
        for candidate in (os.path.join(directory, name), os.path.join(directory, name + ".arch")):
            if os.path.exists(candidate):
                return candidate
    return None


def _dispatch(args) -> int:
    try:
        with open(args.source, encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"archon: cannot read '{args.source}': {err}", file=sys.stderr)
        return _fail_code(args)

    try:
        ast = parse(source)
    except ParseError as exc:
        diag = error(exc.code, exc.message, exc.span)
        sys.stderr.write(render_lines([diag], args.source))
        return _fail_code(args)

    if args.command == "fmt":
        from .formatter import format_system
        return _emit([format_system(ast)], [args.out], args)

    table = builtin_type_table()
    for lib in args.lib:
        path = _find_library(lib)
        if path is None:
            print(f"archon: library '{lib}' not found", file=sys.stderr)
            return 2
        try:
            with open(path, encoding="utf-8") as handle:
                decls = parse_library(handle.read())
        except (OSError, UnicodeDecodeError, ParseError) as exc:
            print(f"archon: cannot load library '{path}': {exc}", file=sys.stderr)
            return 2
        table, lib_diags = fold_typedefs(table, decls)
        if lib_diags:
            sys.stderr.write(render_lines(lib_diags, path))
            return 2

    result = resolve(ast, table)
    diags = list(result.diagnostics)
    arch = result.architecture
    # --style overrides the source's style; a path bound in the source wins
    # over --input/--output
    if arch is not None:
        arch = replace(
            arch,
            style=args.style or arch.style,
            input=arch.input or args.input,
            output=arch.output or args.output,
        )

    if args.command == "graph":
        if arch is None:
            sys.stderr.write(render_lines(diags, args.source))
            return 2
        from .export import to_dot, to_json
        text = to_json(arch, result.table) if args.json else to_dot(arch, result.table)
        return _emit([text], [args.out], args)

    if arch is not None:
        diags.extend(check_all(arch, result.table))

    if args.command == "check":
        if args.json:
            status = _emit([render_json(diags)], [None], args)
            if status:
                return status
        else:
            sys.stderr.write(render_lines(diags, args.source))
        return 2 if has_errors(diags) or arch is None else 0

    # plan and run print every finding, and lower only a clean bill of health
    sys.stderr.write(render_lines(diags, args.source))
    if arch is None or has_errors(diags):
        return 2

    from .plan import plan as lower_plan, plan_pieces
    try:
        built = lower_plan(arch, result.table)
    except ArchonError as exc:
        sys.stderr.write(render_lines([exc.diagnostic], args.source))
        return 2

    # the plan is encoded once, as it is written, to each of its destinations
    outs = [args.emit_plan] if args.emit_plan else []
    if args.command == "plan":
        outs.append(args.out)
    status = _emit(plan_pieces(built), outs, args) if outs else 0
    if status or args.command == "plan":
        return status

    from .runner import run as execute
    try:
        report = execute(built, timeout=args.timeout)
    except ArchonError as exc:  # nothing was started: an unopenable file, say
        sys.stderr.write(render_lines([exc.diagnostic], args.source))
        return 2
    for stage, why in sorted(report.spawn_failures.items()):
        print(f"archon: stage '{stage}' could not be spawned: {why}", file=sys.stderr)
    for stage, why in sorted(report.stage_errors.items()):
        print(f"archon: stage '{stage}' failed: {why}", file=sys.stderr)
    if report.unheard_events:
        print(f"archon: {report.unheard_events} event(s) reached no listener", file=sys.stderr)
    return report.overall


if __name__ == "__main__":
    sys.exit(main())
