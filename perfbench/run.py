"""archon benchmark: one workload per invocation, verified, one JSON line out.

    python3 perfbench/run.py --workload stream-linear --seed 1 --seconds 20 --trace 0

Run from the repository root.  Inputs are generated from --seed; every
output is checked.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Lines before it name the
workload's own metrics, the checks that ran and the machine.  A result
file and (with --trace 1) a Chrome trace are written under perfbench/out/.
See perfbench/README.md for what each metric means and should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("stream-linear", "stream-fanout", "compile", "services")
MIN_PASSES = 3          # untraced passes per run, whatever --seconds says
MIN_TRACED = 2          # untraced and traced passes each, in a traced run

# CPU seconds, not wall seconds, carry the gate: on a shared 2-core machine
# the wall time of a pass swings by half when neighbours load the host,
# while its CPU time moves by about a tenth.  Wall times are printed and
# recorded as workload metrics.
END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# The workload's own metrics, printed by name on every untraced run.
WORKLOAD_METRICS = {
    "stream-linear": {"run_s": "s", "mb_s": "MB/s", "vs_sh": "ratio"},
    "stream-fanout": {
        "run_s": "s", "mb_s": "MB/s", "vs_sh": "ratio", "cycle_records_per_s": "1/s",
    },
    "compile": {"run_s": "s", "check_s": "s", "plan_s": "s", "graph_s": "s"},
    "services": {
        "run_s": "s", "rpc_us": "us", "rpc_calls_per_s": "1/s",
        "events_per_s": "1/s", "relay_us": "us",
    },
}

LAYERS = (
    "cli", "parser", "checker", "model", "topology", "plan", "export",
    "runner", "frames", "rpc", "broker", "relay",
)


def per_layer_metrics() -> dict[str, str]:
    m: dict[str, str] = {}
    for n in (250, 500, 1000, 2000):
        for name in (
            "parser.parse_s", "checker.resolve_s", "checker.check_types_s",
            "checker.check_completeness_s", "checker.check_style_s",
            "topology.classify_s", "plan.plan_s", "plan.serialize_s", "export.to_dot_s",
        ):
            m[f"{name}.n{n}"] = "s"
        m[f"plan.stages.n{n}"] = "count"
    m["model.attach_us.n2000"] = "us"
    m["checker.resolve_growth"] = "slope"
    m["plan.plan_growth"] = "slope"
    m["topology.classify_small_us"] = "us"
    for system in ("linear", "replicated", "diamond", "cycle"):
        m[f"runner.run_s.{system}"] = "s"
        m[f"runner.parent_cpu_s.{system}"] = "s"
        m[f"runner.child_cpu_s.{system}"] = "s"
        m[f"runner.synthetic_bytes.{system}"] = "bytes"
    for frame in ("evt64", "fwd64k"):
        m[f"frames.encode_us.{frame}"] = "us"
        m[f"frames.decode_us.{frame}"] = "us"
    m.update({
        "rpc.sync_p99_us": "us",
        "rpc.call_async_us": "us",
        "rpc.result_wait_us": "us",
        "broker.publish_us": "us",
        "broker.drain_s": "s",
        "broker.delivered_ratio": "ratio",
        "relay.overhead_us": "us",
        "relay.open_stream_us": "us",
        "relay.bulk_mb_s": "MB/s",
        "services.threads_leaked": "count",
        "services.rss_growth_mb": "MB",
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = "s"
    m["trace.overhead_ratio"] = "ratio"
    m["trace.spans"] = "count"
    return m


def machine_info(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "archon")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True,
        ).stdout.split()
    except OSError:
        out = []
    # only this checkout's own repository counts, not one it sits inside
    rev = out[1] if len(out) == 2 and os.path.samefile(out[0], ROOT) else ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "archon_revision": rev or "not a git checkout",
        "archon_source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _median_values(passes) -> dict[str, float]:
    keys = {k for p in passes for k in p.values}
    return {
        k: statistics.median(p.values[k] for p in passes if k in p.values) for k in sorted(keys)
    }


def measure(args, work: str) -> dict:
    from jobs import JOBS, Checks
    from spans import Tracer

    checks = Checks()
    tr = Tracer(False)
    os.makedirs(os.path.join(work, args.workload))
    job = JOBS[args.workload](os.path.join(work, args.workload), args.seed, args.scale, checks)
    job.prepare()
    setups = [job.setup() for _ in range(job.setup_repeats)]

    # Traced runs spend the first half of the window untraced, the second
    # traced: the ratio of the two is the tracing overhead.
    window = args.seconds / 2 if args.trace else args.seconds
    least = MIN_TRACED if args.trace else MIN_PASSES
    untraced, traced = [], []
    pass_job: dict[int, str] = {}
    for batch in (untraced, traced) if args.trace else (untraced,):
        tr.enabled = batch is traced
        started = perf_counter()
        while len(batch) < least or perf_counter() - started < window:
            # set-up samples spread over the run, so that one slow moment
            # of a shared machine cannot set their median
            setups += [job.setup() for _ in range(job.setup_per_pass)]
            tr.pass_id += 1
            pass_job[tr.pass_id] = args.workload
            batch.append(job.run_pass(tr))
    extra = job.close()
    own_traced = [p for p in traced if not p.failed]

    untraced_others = []
    if args.trace:
        # every layer gets measured: one untraced and one traced pass of
        # each other workload
        for name, other_cls in JOBS.items():
            if name == args.workload:
                continue
            os.makedirs(os.path.join(work, name))
            other = other_cls(os.path.join(work, name), args.seed, args.scale, checks)
            other.prepare()
            other.setup()
            for enabled in (False, True):
                tr.enabled = enabled
                tr.pass_id += 1
                pass_job[tr.pass_id] = name
                p = other.run_pass(tr)
                (traced if tr.enabled else untraced_others).append(p)
            extra.update(other.close())

    passes = untraced + untraced_others + traced
    attempted = sum(p.ops for p in passes)
    failed = sum(min(p.failed, p.ops) for p in passes)
    good = [p for p in untraced if not p.failed]
    result = {
        "attempted": attempted,
        "failed": failed,
        "checks": {name: [checks.ran[name], checks.failed[name]] for name in sorted(checks.ran)},
        "setups_s": setups,
        "passes_s": [p.seconds for p in untraced],
        "pass_values": [p.values for p in untraced],
    }
    if not good:
        result["metrics"] = {}
        return result
    own = _median_values(good)
    own["setup_s"] = statistics.median(setups)
    own["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    own["fail_ratio"] = failed / attempted
    units = dict(WORKLOAD_METRICS[args.workload], setup_s="s", peak_rss_mb="MB", fail_ratio="ratio")
    result["workload_metrics"] = {k: [own[k], u] for k, u in units.items() if k in own}

    if not args.trace:
        values = {
            "cpu_s": statistics.fmean(p.cpu_s for p in good),
            "setup_s": own["setup_s"],
            "peak_rss_mb": own["peak_rss_mb"],
            "ok_ratio": 1 - own["fail_ratio"],
        }
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        return result

    values = _median_values([p for p in traced if not p.failed])
    values.update(extra)
    for layer, seconds in tr.self_times(pass_job).items():
        values[f"{layer}.self_s"] = seconds
    if own_traced:
        values["trace.overhead_ratio"] = statistics.fmean(
            p.seconds for p in own_traced
        ) / statistics.fmean(p.seconds for p in good)
    values["trace.spans"] = len(tr.spans)
    result["metrics"] = {
        k: {"value": values[k], "unit": u} for k, u in per_layer_metrics().items() if k in values
    }
    result["trace"] = tr
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every input by this factor (the smoke test uses a tiny one)",
    )
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "archon", "__init__.py")):
        print(f"perfbench: no archon sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", str(args.scale)]
            status = max(status, subprocess.run(cmd).returncode)
        return status
    sys.path.insert(0, SRC)

    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "work"))
    cwd = os.getcwd()
    tempfile.tempdir = work   # archon's runner makes its runtime dirs here
    os.chdir(work)            # keeps UNIX socket paths short and relative
    try:
        result = measure(args, work)
    finally:
        os.chdir(cwd)
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)

    correct = not result["failed"] and bool(result["metrics"])
    info = machine_info(args.seed)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tracer = result.pop("trace", None)
    if tracer is not None:
        tracer.write_chrome(stem + ".trace.json")
    record = dict(result, workload=args.workload, seconds=args.seconds, correct=correct,
                  machine=info)
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("machine " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in result.get("workload_metrics", {}).items():
        print(f"workload-metric {args.workload} {name} {value!r} {unit}")
    print("checks " + json.dumps(result["checks"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
