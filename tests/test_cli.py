import json
import subprocess
import sys

import pytest

from archon.cli import main

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


def test_check_non_decimal_digit_is_2(src, capsys):
    assert main(["check", src('system S { component A : Filter impl "cat" replicas ²; }')]) == 2
    assert "ParseError" in capsys.readouterr().err


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


def test_plan_io_flags_bind_externals(src, capsys, tmp_path):
    path = src(
        'system S { component A : Filter impl "./a"; pipeline P: input | A() | output; }'
    )
    assert main(["plan", path]) == 2
    capsys.readouterr()
    assert main(["plan", path, "--input", "i.txt", "--output", "o.txt"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["input"] == "i.txt"


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


def test_lib_search_path_env(src, tmp_path, monkeypatch, capsys):
    libdir = tmp_path / "libs"
    libdir.mkdir()
    (libdir / "gates.arch").write_text(
        "componenttype Gate { port stdin : StreamIn; port stdout : StreamOut; }\n"
    )
    monkeypatch.setenv("ARCHON_LIB_PATH", str(libdir))
    path = src('system S { component G : Gate impl "./g"; }')
    assert main(["check", path, "--lib", "gates"]) == 0


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
