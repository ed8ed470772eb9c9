"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and one traced run (which sweeps every
workload), and checks the output format: the last line's keys, every
metric named in BENCHMARK.json with its unit, every workload metric, and
every output check having run without a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOAD_METRICS, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

CHECKS = {
    "stream-linear": {"linear.exit-status-0", "linear.matches-sh", "linear.sh-matches-sh"},
    "stream-fanout": {
        "replicated.exit-status-0", "replicated.keeps-multiset",
        "diamond.exit-status-0", "diamond.delivers-2n",
        "cycle.exit-status-0", "cycle.delivers-seed-count",
    },
    "compile": {
        "compile.check-exit-status-0", "compile.plan-exit-status-0",
        "compile.graph-exit-status-0", "compile.plan-stage-count",
        "compile.plan.n1000-byte-stable", "compile.dot.n1000-byte-stable",
    },
    "services": {
        "rpc.call-echoes", "rpc.pipelined-echoes", "broker.delivers-in-order",
        "relay.call-echoes",
    },
}
TRACED_CHECKS = {
    "compile.no-diagnostics", "model.attach-rebuilds-architecture",
    "frames.evt64-round-trips", "frames.fwd64k-round-trips",
    *(f"compile.{kind}.n{n}-byte-stable" for kind in ("plan", "dot") for n in (250, 500, 2000)),
}


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--scale", "0.001"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _parse(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    checks = json.loads(next(l for l in lines if l.startswith("checks "))[len("checks "):])
    own = {l.split()[2]: l.split()[4] for l in lines if l.startswith("workload-metric ")}
    return result, checks, own


def _assert_metrics(metrics: dict, spec: list) -> None:
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in metrics.items()}
    for name, entry in metrics.items():
        assert isinstance(entry["value"], (int, float)), name


def _assert_checks(checks: dict, wanted: set) -> None:
    missing = wanted - set(checks)
    assert not missing, f"checks that never ran: {sorted(missing)}"
    assert all(ran > 0 and failed == 0 for ran, failed in checks.values()), checks


def test_spec_names_the_four_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, checks, own = _parse(_run(workload, 0))
    _assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(v["value"] != 0 for v in result["metrics"].values())
    _assert_checks(checks, CHECKS[workload])
    wanted = dict(WORKLOAD_METRICS[workload], setup_s="s", peak_rss_mb="MB", fail_ratio="ratio")
    assert own == wanted


def test_traced_run_emits_every_per_layer_metric():
    result, checks, _ = _parse(_run("services", 1))
    _assert_metrics(result["metrics"], SPEC["per_layer"])
    _assert_checks(checks, set().union(*CHECKS.values()) | TRACED_CHECKS)
    trace = os.path.join(HERE, "out", "services-seed7-trace1.trace.json")
    with open(trace, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    assert {e["cat"] for e in events} >= {"parser", "checker", "runner", "rpc", "relay"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "work"))
    proc = _run("stream-linear", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
