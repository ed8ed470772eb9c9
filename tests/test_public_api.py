"""The package's exports cover what the benchmark imports from it."""

from __future__ import annotations

import ast
from pathlib import Path

import archon

JOBS = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"


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
