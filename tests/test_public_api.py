"""The package's exports cover what the benchmark imports from it, each
export is its home module's own object, and the command line loads only
what its command runs."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import archon

REPO = Path(__file__).resolve().parent.parent
JOBS = REPO / "perfbench" / "jobs.py"

# Each exported name -> "module" that defines it, or "module.attribute"
# where the package renames it.
HOME = {
    "ArchonError": "diagnostics",
    "BrokerClient": "broker",
    "EventBroker": "broker",
    "Relay": "relay",
    "RelayConnection": "relay",
    "RelayLink": "relay",
    "RpcClient": "rpc",
    "RpcServer": "rpc",
    "attach": "model",
    "builtin_type_table": "model",
    "check_all": "checker",
    "check_completeness": "checker",
    "check_style": "checker",
    "check_types": "checker",
    "classify_digraph": "topology",
    "classify_topology": "checker",
    "decode": "frames",
    "encode": "frames",
    "format_system": "formatter",
    "make_site": "relay",
    "parse": "parser",
    "plan": "plan",
    "register_service": "relay",
    "resolve": "checker",
    "resolve_route": "relay.resolve",
    "run": "runner",
    "serialize_plan": "plan",
    "to_dot": "export",
}

# The modules `import archon.cli` leaves for the command that runs them.
NOT_AT_START = ("plan", "runner", "broker", "rpc", "relay", "server", "frames", "export", "formatter")

# Runs archon's main(argv) in a fresh interpreter, then prints its status and
# every exported name that is not its home module's object.
_AFTER_COMMAND = """
import importlib, json, sys
import archon
from archon.cli import main
status = main(json.loads(sys.argv[1]))
home = json.loads(sys.argv[2])
wrong = []
for name, where in home.items():
    module, _, attr = where.partition(".")
    defined = getattr(importlib.import_module("archon." + module), attr or name)
    if getattr(archon, name) is not defined:
        wrong.append(f"{name}: {getattr(archon, name)!r}")
print(json.dumps([status, wrong]))
"""


def _names_imported_from_archon(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "archon" and node.level == 0
        for alias in node.names
    }


def test_benchmark_imports_only_exported_names():
    imported = _names_imported_from_archon(JOBS)
    assert imported, "perfbench/jobs.py no longer imports from archon"
    assert imported <= set(archon.__all__), sorted(imported - set(archon.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in archon.__all__ if not hasattr(archon, name)]
    assert missing == []
    assert len(set(archon.__all__)) == len(archon.__all__)
    assert sorted(HOME) == sorted(archon.__all__)


def _python(*argv: str) -> str:
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_no_runtime_module():
    loaded = json.loads(
        _python("-c", "import json, sys, archon.cli; print(json.dumps(sorted(sys.modules)))")
    )
    assert [m for m in NOT_AT_START if f"archon.{m}" in loaded] == []


def test_importing_the_runner_loads_no_service_module():
    """Only a system with an Event connector needs the broker, and it loads
    the broker's server and frame modules itself when it runs."""
    loaded = json.loads(
        _python("-c", "import json, sys, archon.runner; print(json.dumps(sorted(sys.modules)))")
    )
    assert [m for m in ("broker", "server", "frames") if f"archon.{m}" in loaded] == []


def test_checking_a_small_source_compiles_no_declaration_pattern():
    """A one-shot ``archon check`` of a hand-sized file is read by the token
    parser alone, so the process never compiles the declaration patterns."""
    probe = (
        "import sys; from archon import parser; from archon.cli import main; "
        "status = main(['check', sys.argv[1]]); print(status, parser._patterns.cache_info().currsize)"
    )
    out = _python("-c", probe, str(REPO / "tests" / "corpus" / "02_hello.arch"))
    assert out.splitlines()[-1] == "0 0"


def test_importing_the_cli_builds_one_dataclass():
    """Every other value record on the start-up path is a named tuple."""
    probe = (
        "import dataclasses, json, sys, archon.cli; print(json.dumps(sorted("
        "f'{name}.{key}' for name, module in list(sys.modules.items()) if name.startswith('archon') "
        "for key, value in vars(module).items() "
        "if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == name)))"
    )
    assert json.loads(_python("-c", probe)) == ["archon.model.Architecture"]


@pytest.mark.parametrize("first", ["archon.plan", "archon.runner"])
def test_plan_is_the_function_whichever_module_loads_it(first):
    """Loading the module ``archon.plan`` never rebinds the export ``plan``."""
    probe = f"import sys, {first}; from archon import plan; print(plan is sys.modules['archon.plan'].plan)"
    assert _python("-c", probe) == "True\n"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        archon.nonesuch  # noqa: B018


@pytest.mark.parametrize("command", ["fmt", "check", "graph", "plan", "run"])
def test_every_export_is_its_home_object_after_each_command(command, tmp_path):
    source = tmp_path / "s.arch"
    source.write_text('system S { component C : Filter impl "cat"; pipeline P: input | C() | output; }')
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_text("one\ntwo\n")
    argv = [command, str(source), "--input", str(inp), "--output", str(out)]
    if command in ("fmt", "graph", "plan"):
        argv += ["--out", str(tmp_path / "printed")]
    status, wrong = json.loads(_python("-c", _AFTER_COMMAND, json.dumps(argv), json.dumps(HOME)))
    assert (status, wrong) == (0, [])
    if command == "run":
        assert out.read_text() == "one\ntwo\n"
