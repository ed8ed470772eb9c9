import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from archon.checker import fold_typedefs, resolve
from archon import cli
from archon.cli import main
from archon.diagnostics import ArchonError, render_lines
from archon.export import to_json
from archon.model import builtin_type_table
from archon.parser import parse
from archon.plan import plan, serialize_plan

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "tests" / "corpus"
_spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

GOOD = 'system S {\n  component A : Filter impl "./a";\n}\n'
BAD_PARSE = "system S { component }"
BAD_TYPES = """
system S {
  component A : Filter; component B : Filter;
  connector p : Pipe;
  attach A.stdout to p.sink;
  attach B.stdin to p.source;
}
"""


@pytest.fixture
def src(tmp_path):
    def write(text, name="s.arch"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_fmt_ok_and_idempotent(src, capsys):
    path = src("system   S {component A:Filter impl \"./a\"  ;}")
    assert main(["fmt", path]) == 0
    first = capsys.readouterr().out
    path2 = src(first, "s2.arch")
    assert main(["fmt", path2]) == 0
    assert capsys.readouterr().out == first


def test_fmt_parse_error_is_1(src, capsys):
    assert main(["fmt", src(BAD_PARSE)]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_check_clean_is_0(src):
    assert main(["check", src(GOOD)]) == 0


def test_check_type_mismatch_is_2(src, capsys):
    assert main(["check", src(BAD_TYPES)]) == 2
    err = capsys.readouterr().err
    assert "TypeMismatch" in err


def test_check_json_output(src, capsys):
    assert main(["check", src(BAD_TYPES), "--json"]) == 2
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert all(d["code"] == "TypeMismatch" for d in parsed)
    assert len(parsed) == 2


def test_repeated_attribute_fails_fmt_and_check(src, capsys):
    path = src('system S { component A : Filter impl "a" impl "b"; }')
    assert main(["fmt", path]) == 1
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == 2 * f"ERROR DuplicateAttribute {path}:1:42 attribute 'impl' is already given\n"


def test_check_non_decimal_digit_is_2(src, capsys):
    assert main(["check", src('system S { component A : Filter impl "cat" replicas ²; }')]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_check_overlong_integer_is_2(src, capsys):
    text = 'system S { component A : Filter impl "cat" replicas ' + "1" * 5000 + "; }"
    assert main(["check", src(text)]) == 2
    assert "integer literal too long" in capsys.readouterr().err


def test_usage_error_is_64(capsys):
    assert main([]) == 64
    assert main(["frobnicate", "x.arch"]) == 64


def test_missing_file_check_is_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.arch")]) == 2


@pytest.mark.parametrize("command, code", [("check", 2), ("fmt", 1)])
def test_non_utf8_source_is_reported(tmp_path, capsys, command, code):
    path = tmp_path / "s.arch"
    path.write_bytes(b"system S { }\n# \xff\n")
    assert main([command, str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"archon: cannot read '{path}': 'utf-8' codec can't decode byte 0xff")


def test_non_utf8_library_is_2(src, tmp_path, capsys):
    lib = tmp_path / "bad.arch"
    lib.write_bytes(b"porttype \xff;\n")
    assert main(["check", src(GOOD), "--lib", str(lib)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"archon: cannot load library '{lib}': 'utf-8' codec can't decode")


@pytest.mark.parametrize("command, code", [("plan", 2), ("graph", 2), ("fmt", 1)])
def test_unwritable_out_is_one_line(src, tmp_path, capsys, command, code):
    """A path that cannot be opened, and one that opens but cannot be written."""
    path = src(
        'system S { component A : Filter impl "./a";'
        ' pipeline P: input | A() | output; input "i"; output "o"; }'
    )
    for dest, reason in (
        (tmp_path / "missing" / "x", "No such file or directory"),
        ("/dev/full", "No space left on device"),
    ):
        assert main([command, path, "--out", str(dest)]) == code
        assert capsys.readouterr() == ("", f"archon: cannot write '{dest}': {reason}\n")


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize(
    "argv, code",
    [(["plan"], 2), (["graph"], 2), (["fmt"], 1), (["check", "--json"], 2)],
    ids=["plan", "graph", "fmt", "check-json"],
)
def test_unwritable_stdout_is_one_line(argv, code, buffered):
    """Buffered, stdout fails when it is flushed; unbuffered, at the write."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO / "src")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "archon.cli", *argv, str(CORPUS / "02_hello.arch")],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert (proc.returncode, proc.stderr) == (
        code,
        "archon: cannot write '<stdout>': No space left on device\n",
    )


def test_run_with_an_unwritable_emit_plan_spawns_nothing(src, tmp_path, capsys):
    marker, dest = tmp_path / "ran", tmp_path / "missing" / "plan.json"
    path = src(f'system S {{ component A : Filter impl "touch {marker}"; }}')
    assert main(["run", path, "--emit-plan", str(dest)]) == 2
    assert capsys.readouterr() == ("", f"archon: cannot write '{dest}': No such file or directory\n")
    assert not marker.exists()


def test_graph_dot_and_json(src, capsys):
    path = src(GOOD)
    assert main(["graph", path]) == 0
    assert capsys.readouterr().out.startswith("digraph S {")
    assert main(["graph", path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["nodes"][0]["name"] == "A"


def test_plan_requires_clean_check(src, capsys):
    assert main(["plan", src(BAD_TYPES)]) == 2
    assert capsys.readouterr().out == ""


def test_plan_emits_json(src, capsys):
    path = src(
        'system S { component A : Filter impl "./a";'
        ' pipeline P: input | A() | output; input "i"; output "o"; }'
    )
    assert main(["plan", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["system"] == "S"
    assert [s["name"] for s in obj["stages"]] == ["A"]


def test_plan_writes_its_main_output_with_emit_plan(src, capsys, tmp_path):
    path = src(
        'system S { component A : Filter impl "./a";'
        ' pipeline P: input | A() | output; input "i"; output "o"; }'
    )
    assert main(["plan", path]) == 0
    want = capsys.readouterr().out
    assert json.loads(want)["system"] == "S"

    emitted, out = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["plan", path, "--emit-plan", str(emitted), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert emitted.read_text() == want
    assert out.read_text() == want

    emitted.unlink()
    assert main(["plan", path, "--emit-plan", str(emitted)]) == 0
    assert capsys.readouterr().out == want
    assert emitted.read_text() == want


def test_plan_and_run_print_warnings_as_check_does(src, capsys, tmp_path):
    path = src(
        'system S { component A : Filter impl "cat" seed "hello\\n";'
        " pipeline P: input | A() | output; }"
    )
    inp, out = tmp_path / "i.txt", tmp_path / "o.txt"
    inp.write_bytes(b"x\n")
    io = ["--input", str(inp), "--output", str(out)]
    assert main(["check", path, *io]) == 0
    warned = capsys.readouterr().err
    assert "UnusedSeed" in warned
    assert main(["plan", path, *io]) == 0
    printed = capsys.readouterr()
    assert json.loads(printed.out)["system"] == "S"
    assert printed.err == warned
    assert main(["run", path, *io]) == 0
    assert capsys.readouterr() == ("", warned)
    assert out.read_bytes() == b"x\n"


def test_plan_io_flags_bind_externals(src, capsys, tmp_path):
    path = src(
        'system S { component A : Filter impl "./a"; pipeline P: input | A() | output; }'
    )
    assert main(["plan", path]) == 2
    capsys.readouterr()
    assert main(["plan", path, "--input", "i.txt", "--output", "o.txt"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["input"] == "i.txt"


def test_source_binding_wins_over_io_flags(src, capsys):
    path = src(
        'system S { component A : Filter impl "./a"; pipeline P: input | A() | output;'
        ' input "src_in.txt"; }'
    )
    assert main(["plan", path, "--input", "cli_in.txt", "--output", "cli_out.txt"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["input"], obj["output"]) == ("src_in.txt", "cli_out.txt")
    paths = {c["name"]: c["path"] for c in obj["channels"]}
    assert (paths["P_p0"], paths["P_p1"]) == ("src_in.txt", "cli_out.txt")


def test_style_flag_overrides(src, capsys):
    path = src(
        """
        system S {
          component A : Process; component B : Process;
          connector r : RPC;
          attach A.call to r.caller; attach B.serve to r.definer;
        }
        """
    )
    assert main(["check", path]) == 0
    assert main(["check", path, "--style", "pipes-and-filters"]) == 2
    assert "StyleViolation" in capsys.readouterr().err


def test_lib_loading_and_shadowing(src, tmp_path, capsys):
    lib = tmp_path / "extra.arch"
    lib.write_text("componenttype Gate { port stdin : StreamIn; port stdout : StreamOut; }\n")
    path = src('system S { component G : Gate impl "./g"; }')
    assert main(["check", path]) == 2  # Gate unknown without the library
    capsys.readouterr()
    assert main(["check", path, "--lib", str(lib)]) == 0
    shadow = tmp_path / "shadow.arch"
    shadow.write_text("componenttype Gate { port stdin : StreamIn; }\n")
    assert main(["check", path, "--lib", str(lib), "--lib", str(shadow)]) == 2
    assert "DuplicateType" in capsys.readouterr().err


def test_successive_calls_share_no_parser_state(src, tmp_path, capsys):
    """The argument parser is built once per process; no option outlives its call."""
    assert cli._build_parser() is cli._build_parser()
    lib = tmp_path / "extra.arch"
    lib.write_text("componenttype Gate { port stdin : StreamIn; port stdout : StreamOut; }\n")
    path = src('system S { component G : Gate impl "./g"; }')
    assert main(["check", path, "--lib", str(lib)]) == 0
    assert main(["check", path, "--lib", str(lib)]) == 0  # a kept --lib would shadow itself
    assert main(["check", path]) == 2  # and would type G here
    capsys.readouterr()
    bad = src(BAD_TYPES, "bad.arch")
    assert main(["check", bad, "--json"]) == 2
    assert json.loads(capsys.readouterr().out)
    assert main(["check", bad]) == 2
    out, err = capsys.readouterr()
    assert (out, "TypeMismatch" in err) == ("", True)


def test_lib_search_path_env(src, tmp_path, monkeypatch, capsys):
    libdir = tmp_path / "libs"
    libdir.mkdir()
    (libdir / "gates.arch").write_text(
        "componenttype Gate { port stdin : StreamIn; port stdout : StreamOut; }\n"
    )
    monkeypatch.setenv("ARCHON_LIB_PATH", str(libdir))
    path = src('system S { component G : Gate impl "./g"; }')
    assert main(["check", path, "--lib", "gates"]) == 0


def test_a_library_not_found_is_named(src, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ARCHON_LIB_PATH", raising=False)
    monkeypatch.chdir(tmp_path)
    path = src(GOOD, "x.arch")
    assert main(["check", "--lib", "nosuch", path]) == 2
    assert capsys.readouterr() == ("", "archon: library 'nosuch' not found\n")


def test_lib_file_of_bare_typedefs_types_the_corpus_user(capsys, monkeypatch):
    """The --lib twin of tests/corpus/15_lib_gauges.arch gives 14_libuser.arch
    the graph and plan outcome of folding that file's declarations in process,
    as A9 does."""
    monkeypatch.chdir(REPO)
    user, lib = "tests/corpus/14_libuser.arch", "tests/lib/gauges.arch"
    assert main(["check", user]) == 2  # its types come only from the library
    capsys.readouterr()
    assert main(["check", user, "--lib", lib]) == 0
    assert capsys.readouterr() == ("", "")

    folded = parse((CORPUS / "15_lib_gauges.arch").read_text()).declarations
    table, diags = fold_typedefs(builtin_type_table(), folded)
    assert diags == []
    result = resolve(parse((REPO / user).read_text()), table)
    assert main(["graph", user, "--lib", lib, "--json"]) == 0
    assert capsys.readouterr().out == to_json(result.architecture, result.table)
    with pytest.raises(ArchonError) as exc:  # no runtime realizes a Telemetry connector
        plan(result.architecture, result.table)
    assert main(["plan", user, "--lib", lib]) == 2
    assert capsys.readouterr() == ("", render_lines([exc.value.diagnostic], user))


# SHA-256 of [exit status, stdout, stderr] of each command on each corpus file.
_CORPUS_DIGESTS = json.loads((REPO / "tests" / "corpus_digests.json").read_text())


def test_every_corpus_file_has_digests():
    assert sorted(_CORPUS_DIGESTS) == sorted(p.name for p in CORPUS.glob("*.arch"))


@pytest.mark.parametrize("name", sorted(_CORPUS_DIGESTS))
def test_corpus_output_matches_stored_digests(name, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    got = {}
    for command in _CORPUS_DIGESTS[name]:
        status = main([*command.split(), f"tests/corpus/{name}"])
        out, err = capsys.readouterr()
        got[command] = hashlib.sha256(json.dumps([status, out, err]).encode()).hexdigest()
    assert got == _CORPUS_DIGESTS[name]


@pytest.mark.parametrize(
    "name", [*sorted(p.name for p in CORPUS.glob("*.arch")), "mixed-250", "mixed-1000"]
)
def test_plan_files_are_serialize_plan(name, tmp_path, capsys):
    """The digests above hash stdout only; --out and --emit-plan write files."""
    if name.startswith("mixed-"):
        source = tmp_path / f"{name}.arch"
        source.write_text(gen.mixed_arch(int(name.split("-")[1]), 7))
    else:
        source = CORPUS / name
    status = main(["plan", str(source)])
    stdout = capsys.readouterr().out
    only, emitted, out = tmp_path / "only.json", tmp_path / "a.json", tmp_path / "b.json"
    assert main(["plan", str(source), "--out", str(only)]) == status
    assert main(["plan", str(source), "--emit-plan", str(emitted), "--out", str(out)]) == status
    assert capsys.readouterr().out == ""
    if status:  # a finding or an unrealizable connector: no plan, no file
        assert not any(p.exists() for p in (only, emitted, out))
        return
    result = resolve(parse(source.read_text()), builtin_type_table())
    want = serialize_plan(plan(result.architecture, result.table))
    assert stdout == want
    for written in (only, emitted, out):
        assert written.read_bytes() == want.encode()


def test_run_checks_first_no_spawning(src, tmp_path):
    marker = tmp_path / "ran"
    bad = src(
        f"""
        system S {{
          component A : Filter impl "touch {marker}";
          component B : Filter;
          connector p : Pipe;
          attach A.stdout to p.sink;
          attach B.stdin to p.source;
        }}
        """
    )
    assert main(["run", bad]) == 2
    assert not marker.exists()


def test_run_pipeline_end_to_end(src, tmp_path, make_filter, capsys):
    upper = make_filter(
        "upper",
        """
        for line in sys.stdin.buffer:
            sys.stdout.buffer.write(line.upper())
        """,
    )
    inp, out = tmp_path / "i.txt", tmp_path / "o.txt"
    inp.write_bytes(b"hello\n")
    path = src(
        f'system S {{ component U : Filter impl "{upper}";'
        f" pipeline P: input | U() | output; }}"
    )
    code = main(["run", path, "--input", str(inp), "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == b"HELLO\n"


@pytest.mark.parametrize("name", ["missing.txt", "mis\0sing.txt"], ids=["missing", "nul"])
def test_run_that_cannot_start_is_2(src, tmp_path, capsys, name):
    path = src('system S { component C : Filter impl "cat"; pipeline P: input | C() | output; }')
    missing, out = tmp_path / name, tmp_path / "o.txt"
    assert main(["run", path, "--input", str(missing), "--output", str(out)]) == 2
    assert "IoError" in capsys.readouterr().err


def test_run_reports_each_stage_that_could_not_be_spawned(src, tmp_path, capsys):
    path = src(
        'system S { component B : Filter impl "/nonexistent/b"; component A : Filter impl "ca\0t";'
        " pipeline P: input | A() | B() | output; }"
    )
    inp, out = tmp_path / "i.txt", tmp_path / "o.txt"
    inp.write_bytes(b"x\n")
    assert main(["run", path, "--input", str(inp), "--output", str(out)]) == 127
    assert capsys.readouterr().err == (
        "archon: stage 'A' could not be spawned: embedded null byte\n"
        "archon: stage 'B' could not be spawned:"
        " [Errno 2] No such file or directory: '/nonexistent/b'\n"
    )


def test_run_emit_plan_writes_file(src, tmp_path, make_filter):
    cat = make_filter(
        "cat",
        """
        sys.stdout.buffer.write(sys.stdin.buffer.read())
        """,
    )
    inp, out = tmp_path / "i.txt", tmp_path / "o.txt"
    inp.write_bytes(b"z\n")
    plan_path = tmp_path / "plan.json"
    path = src(
        f'system S {{ component C : Filter impl "{cat}";'
        f' pipeline P: input | C() | output; input "{inp}"; output "{out}"; }}'
    )
    assert main(["run", path, "--emit-plan", str(plan_path)]) == 0
    assert json.loads(plan_path.read_text())["system"] == "S"


def test_console_script_entry(src, tmp_path):
    path = src(GOOD)
    proc = subprocess.run(
        [sys.executable, "-m", "archon.cli"],
        capture_output=True,
        text=True,
    )
    # bare module invocation hits usage handling, not a traceback
    assert proc.returncode in (1, 64)
