"""Command line front end: fmt, check, graph, plan, run.

Exit codes: 0 success; 1 fmt parse failure; 2 failed checks (and any
error that prevents checking); 64 usage; run returns the executed
system's overall status, 124 on timeout.  ``run`` re-checks the source
every time and spawns nothing when checking fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .checker import ExternalIO, check_all, fold_typedefs, resolve
from .diagnostics import ArchonError, error, has_errors, render_json, render_lines
from .export import to_dot, to_json
from .formatter import format_system
from .model import builtin_type_table
from .parser import ParseError, parse, parse_library
from .plan import plan as lower_plan, serialize_plan
from .runner import run as execute

USAGE_EXIT = 64

LIB_PATH_VAR = "ARCHON_LIB_PATH"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage is 64
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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
        print(render_lines([diag], args.source), file=sys.stderr)
        return _fail_code(args)

    if args.command == "fmt":
        _emit(format_system(ast), args.out)
        return 0

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
        table, lib_diags = fold_typedefs(table, decls, origin="library")
        if lib_diags:
            print(render_lines(lib_diags, path), file=sys.stderr)
            return 2

    result = resolve(ast, table)
    diags = list(result.diagnostics)
    arch = result.architecture
    if arch is not None and args.style:
        arch = replace(arch, style=args.style)
    io = ExternalIO(input=args.input, output=args.output)

    if args.command == "graph":
        if arch is None:
            print(render_lines(diags, args.source), file=sys.stderr)
            return 2
        text = to_json(arch, result.table) if args.json else to_dot(arch, result.table)
        _emit(text, args.out)
        return 0

    if arch is not None:
        diags.extend(check_all(arch, result.table, io))

    if args.command == "check":
        if args.json:
            sys.stdout.write(render_json(diags) + "\n")
        elif diags:
            print(render_lines(diags, args.source), file=sys.stderr)
        return 2 if has_errors(diags) or arch is None else 0

    # plan and run demand a clean bill of health first
    if arch is None or has_errors(diags):
        print(render_lines(diags, args.source), file=sys.stderr)
        return 2

    try:
        built = lower_plan(arch, result.table, io)
    except ArchonError as exc:
        print(render_lines([exc.diagnostic], args.source), file=sys.stderr)
        return 2

    if args.emit_plan:
        _emit(serialize_plan(built), args.emit_plan)

    if args.command == "plan":
        if not args.emit_plan:
            _emit(serialize_plan(built), args.out)
        return 0

    report = execute(built, timeout=args.timeout)
    for stage, why in sorted(report.stage_errors.items()):
        print(f"archon: stage '{stage}' failed: {why}", file=sys.stderr)
    return report.overall


if __name__ == "__main__":
    sys.exit(main())
