"""The four workloads: inputs, set-up, one verified pass, and teardown.

Each job calls archon only through its public functions.  A pass checks
every output it produces; a failed check counts against the pass and the
pass then yields no timing.  Untraced stream passes go through the
`archon` CLI entry point (`archon.cli.main`), as a user would; traced ones
make the same calls one public function at a time, with a span around
each, so the trace shows every layer.  Compile passes always use the CLI;
their first traced pass adds the size ladder, one public pass at a time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from time import perf_counter, process_time

from archon import (
    BrokerClient,
    EventBroker,
    Relay,
    RelayConnection,
    RelayLink,
    RpcClient,
    RpcServer,
    attach,
    builtin_type_table,
    check_all,
    check_completeness,
    check_style,
    check_types,
    classify_digraph,
    classify_topology,
    decode,
    encode,
    make_site,
    parse,
    plan,
    register_service,
    resolve,
    resolve_route,
    run,
    serialize_plan,
    to_dot,
)
from archon.cli import main as cli_main
from archon.frames import EVT, FWD, Frame

import gen

RUN_TIMEOUT = 120.0
LADDER = (250, 500, 1000, 2000)


@dataclass
class Pass:
    """One pass: the wall and CPU seconds of its verified work, and values."""

    seconds: float = 0.0
    cpu_s: float = 0.0
    ops: int = 0
    failed: int = 0
    values: dict = field(default_factory=dict)


class Checks:
    """Counts, per output check, how often it ran and how often it failed."""

    def __init__(self) -> None:
        self.ran: Counter = Counter()
        self.failed: Counter = Counter()

    def __call__(self, name: str, ok: bool, p: Pass | None = None) -> bool:
        self.ran[name] += 1
        if not ok:
            self.failed[name] += 1
            if p is not None:
                p.failed += 1
            print(f"check failed: {name}", file=sys.stderr)
        return ok


def _cpu() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def _digest(path: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _fingerprint(path: str) -> tuple[int, int]:
    """Order-free multiset fingerprint of a file's lines: (count, hash sum)."""
    count = total = 0
    with open(path, "rb") as f:
        for line in f:
            count += 1
            total += int.from_bytes(hashlib.blake2b(line, digest_size=8).digest(), "big")
    return count, total % (1 << 64)


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(n * scale))


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


class Job:
    name = ""
    setup_repeats = 15   # set-ups before the first pass
    setup_per_pass = 3   # and before every pass

    def __init__(self, work: str, seed: int, scale: float, checks: Checks) -> None:
        self.work = work
        self.seed = seed
        self.scale = scale
        self.check = checks

    def prepare(self) -> None:
        """Generate inputs; harness work, not timed."""

    def setup(self) -> float:
        """Archon's own work before the first timed operation; CPU seconds."""
        raise NotImplementedError

    def run_pass(self, tr) -> Pass:
        raise NotImplementedError

    def close(self) -> dict:
        return {}


# --- stream-linear and stream-fanout -----------------------------------------


class _StreamJob(Job):
    def _system(self, key: str, src: str) -> None:
        path = os.path.join(self.work, f"{key}.arch")
        with open(path, "w", encoding="utf-8") as f:
            f.write(src)
        self.sources[key] = (path, src)

    def _sh(self, script: str) -> float:
        t0 = perf_counter()
        proc = subprocess.run(["sh", "-c", script], cwd=self.work)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"reference shell pipeline failed: {script}")
        return elapsed

    def setup(self) -> float:
        t0 = process_time()
        for _, src in self.sources.values():
            result = resolve(parse(src), builtin_type_table())
            check_all(result.architecture, result.table)
            plan(result.architecture, result.table)
        return process_time() - t0

    def _archon(self, tr, key: str, p: Pass) -> float:
        """One `archon run` of system `key`; returns its wall seconds."""
        path, src = self.sources[key]
        p.ops += 1
        cpu0, kids0 = _cpu()
        t0 = perf_counter()
        if tr.enabled:
            ast = tr.call("parser.parse", parse, src)
            result = tr.call("checker.resolve", resolve, ast, builtin_type_table())
            arch, table = result.architecture, result.table
            tr.call("checker.check_all", check_all, arch, table)
            built = tr.call("plan.plan", plan, arch, table)
            report = tr.call("runner.run", run, built, timeout=RUN_TIMEOUT)
            status = report.overall
        else:
            status = cli_main(["run", path, "--timeout", str(RUN_TIMEOUT)])
        elapsed = perf_counter() - t0
        cpu1, kids1 = _cpu()
        self.check(f"{key}.exit-status-0", status == 0, p)
        p.cpu_s += (cpu1 - cpu0) + (kids1 - kids0)
        if tr.enabled:
            files = {c.name for c in built.channels if c.kind != "pipe"}
            p.values[f"runner.run_s.{key}"] = elapsed
            p.values[f"runner.parent_cpu_s.{key}"] = cpu1 - cpu0
            p.values[f"runner.child_cpu_s.{key}"] = kids1 - kids0
            p.values[f"runner.synthetic_bytes.{key}"] = sum(
                n for ch, n in report.channel_bytes.items() if ch not in files
            )
        return elapsed


class LinearJob(_StreamJob):
    """8 coreutils `cat` stages over ~4M short records (~60 MB)."""

    name = "stream-linear"
    STAGES = 8

    def prepare(self) -> None:
        self.sources = {}
        self.passes = 0
        w = self.work
        self.inp, self.out = f"{w}/linear.in", f"{w}/linear.out"
        count = _scaled(4_000_000, self.scale, 1000)
        self.in_bytes = gen.write_records(self.inp, self.seed, count, 9, 21)
        self._system("linear", gen.linear_arch(self.STAGES, "cat", self.inp, self.out))
        self.sh_script = "cat < linear.in" + " | cat" * (self.STAGES - 1) + " > linear.sh.out"
        self._sh(self.sh_script)
        self.want = _digest(f"{w}/linear.sh.out")

    def run_pass(self, tr) -> Pass:
        p = Pass()
        sh_s = None
        self.passes += 1
        # alternate which of archon and sh goes first
        if not tr.enabled and self.passes % 2:
            sh_s = self._sh(self.sh_script)
        p.seconds = self._archon(tr, "linear", p)
        if not tr.enabled and sh_s is None:
            sh_s = self._sh(self.sh_script)
        self.check("linear.matches-sh", _digest(self.out) == self.want, p)
        p.values["run_s"] = p.seconds
        p.values["mb_s"] = self.in_bytes / 1e6 / p.seconds
        if sh_s is not None:
            self.check("linear.sh-matches-sh", _digest(f"{self.work}/linear.sh.out") == self.want, p)
            p.values["vs_sh"] = p.seconds / sh_s
        return p


class FanoutJob(_StreamJob):
    """A replicas-4 chain, a tee/merge diamond and a seeded countdown cycle."""

    name = "stream-fanout"

    def prepare(self) -> None:
        self.sources = {}
        w = self.work
        n_short = _scaled(100_000, self.scale, 500)
        n_long = _scaled(100_000, self.scale, 500)
        self.laps = _scaled(20_000, self.scale, 50)
        self.in_bytes = gen.write_records(f"{w}/rep.in", self.seed, n_short, 9, 21)
        self.in_bytes += gen.write_records(f"{w}/dia.in", self.seed + 1, n_long, 30, 200)
        self._system("replicated", gen.linear_arch(4, "cat", f"{w}/rep.in", f"{w}/rep.out", 4))
        self._system("diamond", gen.diamond_arch(f"{w}/dia.in", f"{w}/dia.out"))
        with open(f"{w}/countdown.py", "w", encoding="utf-8") as f:
            f.write(gen.COUNTDOWN)
        self.side = f"{w}/cycle.side"
        self._system(
            "cycle", gen.cycle_arch(sys.executable, f"{w}/countdown.py", self.side, self.laps)
        )
        self.rep_want = _fingerprint(f"{w}/rep.in")
        count, total = _fingerprint(f"{w}/dia.in")
        self.dia_want = (2 * count, 2 * total % (1 << 64))
        self.rep_sh = "cat < rep.in | cat | cat | cat > rep.sh.out"
        self.dia_sh = (
            "rm -f dia.fifo && mkfifo dia.fifo && "
            "{ tee dia.fifo < dia.in | cat & cat dia.fifo | cat; wait; } > dia.sh.out"
        )

    def run_pass(self, tr) -> Pass:
        p = Pass()
        w = self.work
        rep_s = self._archon(tr, "replicated", p)
        self.check("replicated.keeps-multiset", _fingerprint(f"{w}/rep.out") == self.rep_want, p)
        dia_s = self._archon(tr, "diamond", p)
        self.check("diamond.delivers-2n", _fingerprint(f"{w}/dia.out") == self.dia_want, p)
        if os.path.exists(self.side):
            os.unlink(self.side)
        cyc_s = self._archon(tr, "cycle", p)
        with open(self.side, encoding="utf-8") as f:
            seen = f.read().split()
        self.check("cycle.delivers-seed-count", seen == [str(self.laps), "1"], p)
        p.seconds = rep_s + dia_s + cyc_s
        p.values["run_s"] = p.seconds
        p.values["mb_s"] = self.in_bytes / 1e6 / p.seconds
        p.values["cycle_records_per_s"] = self.laps / cyc_s
        if not tr.enabled:
            p.values["vs_sh"] = (rep_s + dia_s) / (self._sh(self.rep_sh) + self._sh(self.dia_sh))
        return p


# --- compile -------------------------------------------------------------------


_IMPORT_PROBE = (
    "import time; t = time.process_time(); import archon.cli; "
    "print(time.process_time() - t)"
)


class CompileJob(Job):
    """check / plan / graph of generated mixed systems, 250 to 2000 stages."""

    name = "compile"
    setup_repeats = 5
    setup_per_pass = 1
    # The timed CLI pass compiles the 1000-stage system: at 2000 stages one
    # pass takes 7-10 s, too few fit in a run for a steady figure.  The
    # traced ladder still covers 2000.
    E2E_STAGES = 1000

    def prepare(self) -> None:
        self.sizes = {n: _scaled(n, max(self.scale, 0.04), 10) for n in LADDER}
        self.sources = {}
        for n, actual in self.sizes.items():
            src = gen.mixed_arch(actual, self.seed + n)
            path = os.path.join(self.work, f"mixed{n}.arch")
            with open(path, "w", encoding="utf-8") as f:
                f.write(src)
            self.sources[n] = (path, src)
        self.reference: dict[str, str] = {}
        self.probed = False

    def setup(self) -> float:
        src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import archon.cli: {proc.stderr}")
        return float(proc.stdout)

    def _stable(self, key: str, text: str, p: Pass) -> None:
        want = self.reference.setdefault(key, text)
        self.check(f"compile.{key}-byte-stable", text == want, p)

    def run_pass(self, tr) -> Pass:
        p = Pass()
        top = self.E2E_STAGES
        path, _ = self.sources[top]
        outs = {cmd: os.path.join(self.work, f"out.{cmd}") for cmd in ("plan", "graph")}
        cpu0, _ = _cpu()
        for cmd in ("check", "plan", "graph"):
            argv = [cmd, path] + (["--out", outs[cmd]] if cmd in outs else [])
            t0 = perf_counter()
            status = tr.call(f"cli.{cmd}", cli_main, argv)
            elapsed = perf_counter() - t0
            p.ops += 1
            self.check(f"compile.{cmd}-exit-status-0", status == 0, p)
            p.values[f"{cmd}_s"] = elapsed
            p.seconds += elapsed
        p.cpu_s = _cpu()[0] - cpu0
        with open(outs["plan"], encoding="utf-8") as f:
            plan_text = f.read()
        with open(outs["graph"], encoding="utf-8") as f:
            dot_text = f.read()
        self._stable(f"plan.n{top}", plan_text, p)
        self._stable(f"dot.n{top}", dot_text, p)
        self.check(
            "compile.plan-stage-count",
            len(json.loads(plan_text)["stages"]) == gen.mixed_plan_stages(self.sizes[top]),
            p,
        )
        p.values["run_s"] = p.seconds
        if tr.enabled and not self.probed:
            self.probed = True
            self._layers(tr, p)
        return p

    def _layers(self, tr, p: Pass) -> None:
        """Each public compile pass on its own, at every size of the ladder."""
        v = p.values
        for n in LADDER:
            _, src = self.sources[n]
            timed = {}

            def step(name, fn, *args):
                t0 = perf_counter()
                out = tr.call(name, fn, *args)
                timed[name] = perf_counter() - t0
                return out

            ast = step("parser.parse", parse, src)
            result = step("checker.resolve", resolve, ast, builtin_type_table())
            arch, table = result.architecture, result.table
            diags = step("checker.check_types", check_types, arch, table)
            diags += step("checker.check_completeness", check_completeness, arch, table)
            diags += step("checker.check_style", check_style, arch, table)
            step("topology.classify", classify_topology, arch, table)
            built = step("plan.plan", plan, arch, table)
            text = step("plan.serialize", serialize_plan, built)
            dot = step("export.to_dot", to_dot, arch, table)
            p.ops += 1
            self.check("compile.no-diagnostics", not diags, p)
            self.check("compile.plan-stage-count", len(built.stages) == gen.mixed_plan_stages(self.sizes[n]), p)
            self._stable(f"plan.n{n}", text, p)
            self._stable(f"dot.n{n}", dot, p)
            for name, seconds in timed.items():
                v[f"{name}_s.n{n}"] = seconds
            v[f"plan.stages.n{n}"] = len(built.stages)
        for name in ("checker.resolve", "plan.plan"):
            lo, hi = v[f"{name}_s.n500"], v[f"{name}_s.n2000"]
            ratio = self.sizes[2000] / self.sizes[500]
            v[f"{name}_growth"] = math.log(hi / lo) / math.log(ratio)
        v["model.attach_us.n2000"] = self._rebuild(tr, arch, table, p)
        v["topology.classify_small_us"] = self._classify_small(tr)

    def _rebuild(self, tr, arch, table, p: Pass) -> float:
        """Rebuild the largest architecture one public `attach` at a time."""
        built = dataclasses.replace(arch, attachments=())
        t0 = perf_counter()
        for a in arch.attachments:
            built = tr.call("model.attach", attach, built, table, a.instance, a.port, a.connector, a.role)
        elapsed = perf_counter() - t0
        key = lambda a: (a.instance, a.port, a.connector, a.role)  # noqa: E731
        same = [key(a) for a in built.attachments] == [key(a) for a in arch.attachments]
        self.check("model.attach-rebuilds-architecture", same, p)
        return elapsed / max(len(arch.attachments), 1) * 1e6

    def _classify_small(self, tr) -> float:
        """Mean µs per classify_digraph over seeded random 5-node digraphs."""
        rng = random.Random(self.seed)
        names = [f"n{i}" for i in range(5)]
        graphs = [
            [(a, b) for a in names for b in names if rng.random() < 0.3]
            for _ in range(_scaled(2000, self.scale, 100))
        ]
        t0 = perf_counter()
        for edges in graphs:
            tr.call("topology.classify_digraph", classify_digraph, names, edges)
        return (perf_counter() - t0) / len(graphs) * 1e6


# --- services ----------------------------------------------------------------


class _Stack:
    """RPC server, broker, two relay-linked sites and their clients."""

    def __init__(self, root: str) -> None:
        os.makedirs(root)
        self.closers = []
        try:
            self._start(root)
        except BaseException:
            self.close()
            raise

    def _start(self, root: str) -> None:
        rpc = RpcServer(f"{root}/rpc.sock").start()
        self.closers.append(rpc.stop)
        self.broker = EventBroker(f"{root}/bus.sock").start()
        self.closers.append(self.broker.stop)
        east = make_site("east", f"{root}/east")
        west = register_service(make_site("west", f"{root}/west"), "echo", "echo.sock")
        backend = RpcServer(west.endpoint_path("echo")).start()
        self.closers.append(backend.stop)
        link = RelayLink(east, west)
        relay = Relay(link).start()
        self.closers.append(relay.stop)
        self.client = RpcClient(f"{root}/rpc.sock")
        self.closers.append(self.client.close)
        self.pub = BrokerClient(f"{root}/bus.sock")
        self.sub = BrokerClient(f"{root}/bus.sock")
        self.closers += [self.pub.close, self.sub.close]
        self.sub.subscribe("bench")
        deadline = time.monotonic() + 5.0
        while self.broker.registered("bench") < 1:
            if time.monotonic() > deadline:
                raise RuntimeError("broker never registered the subscriber")
            time.sleep(0.0005)
        self.route = resolve_route(link, "east", "echo")
        self.conn = RelayConnection(self.route.endpoint)
        self.closers.append(self.conn.close)
        self.relayed = RpcClient(self.conn.open_stream(self.route.service))
        self.closers.append(self.relayed.close)

    def close(self) -> None:
        for closer in reversed(self.closers):
            closer()


def _pct(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class ServicesJob(Job):
    """Sync and pipelined RPC, broker fan-in/out, and RPC through a relay."""

    name = "services"
    setup_repeats = 5
    setup_per_pass = 1
    WINDOW = 32

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.small = [rng.randbytes(64) for _ in range(64)]
        self.big = rng.randbytes(65536)
        s = self.scale
        self.n_sync = _scaled(2000, s, 200)
        self.n_pipe = _scaled(4000, s, 200)
        self.n_evt = _scaled(4000, s, 200)
        self.n_relay = _scaled(1000, s, 200)
        self.n_bulk = _scaled(16, s, 4)
        self.stack = None
        self.stacks = 0
        self.threads_before = threading.active_count()

    def setup(self) -> float:
        if self.stack is not None:
            self.stack.close()
        self.stacks += 1
        t0 = process_time()
        # relative to the working directory: UNIX socket paths are short
        self.stack = _Stack(os.path.relpath(os.path.join(self.work, f"s{self.stacks}")))
        elapsed = process_time() - t0
        if self.stacks == 1:
            self.rss_before = _rss_mb()
        return elapsed

    def close(self) -> dict:
        if self.stack is not None:
            self.stack.close()
            self.stack = None
        time.sleep(0.2)  # let server threads notice their closed sockets
        return {
            "services.threads_leaked": threading.active_count() - self.threads_before,
            "services.rss_growth_mb": self.rss_after - self.rss_before,
        }

    def _echo(self, name: str, client, payload: bytes, tr, p: Pass) -> float:
        t0 = perf_counter()
        try:
            got = tr.call(name, client.call, payload)
        except Exception as exc:  # a failed call is counted, not fatal
            print(f"{name}: {exc}", file=sys.stderr)
            got = None
        elapsed = perf_counter() - t0
        self.check(f"{name}-echoes", got == payload, p)
        return elapsed

    def run_pass(self, tr) -> Pass:
        st = self.stack
        p = Pass()
        v = p.values
        cpu0, _ = _cpu()
        t_start = perf_counter()

        sync = [self._echo("rpc.call", st.client, self.small[i % 64], tr, p) for i in range(self.n_sync)]
        v["rpc_us"] = statistics.median(sync) * 1e6
        v["rpc.sync_p99_us"] = _pct(sync, 0.99) * 1e6

        send_s = wait_s = 0.0
        pending: deque = deque()
        sent = 0
        t0 = perf_counter()
        for _ in range(self.n_pipe):
            while sent < self.n_pipe and len(pending) < self.WINDOW:
                payload = self.small[sent % 64]
                t1 = perf_counter()
                corr = tr.call("rpc.call_async", st.client.call_async, payload)
                send_s += perf_counter() - t1
                pending.append((corr, payload))
                sent += 1
            corr, payload = pending.popleft()
            t1 = perf_counter()
            got = tr.call("rpc.result", st.client.result, corr)
            wait_s += perf_counter() - t1
            self.check("rpc.pipelined-echoes", got == payload, p)
        v["rpc_calls_per_s"] = self.n_pipe / (perf_counter() - t0)
        v["rpc.call_async_us"] = send_s / self.n_pipe * 1e6
        v["rpc.result_wait_us"] = wait_s / self.n_pipe * 1e6

        events = [b"%08d" % i + self.small[i % 64][:56] for i in range(self.n_evt)]
        t0 = perf_counter()
        for payload in events:
            tr.call("broker.publish", st.pub.publish, "bench", payload)
        t_published = perf_counter()
        delivered = 0
        for payload in events:
            got = tr.call("broker.next_event", st.sub.next_event, timeout=10.0)
            if not self.check("broker.delivers-in-order", got == ("bench", payload), p):
                break
            delivered += 1
        t_end = perf_counter()
        v["events_per_s"] = delivered / (t_end - t0)
        v["broker.publish_us"] = (t_published - t0) / self.n_evt * 1e6
        v["broker.drain_s"] = t_end - t_published
        v["broker.delivered_ratio"] = delivered / self.n_evt

        relayed = [
            self._echo("relay.call", st.relayed, self.small[i % 64], tr, p)
            for i in range(self.n_relay)
        ]
        v["relay_us"] = statistics.median(relayed) * 1e6
        v["relay.overhead_us"] = v["relay_us"] - v["rpc_us"]
        t0 = perf_counter()
        for _ in range(self.n_bulk):
            self._echo("relay.call", st.relayed, self.big, tr, p)
        v["relay.bulk_mb_s"] = self.n_bulk * len(self.big) / 1e6 / (perf_counter() - t0)

        p.ops = self.n_sync + self.n_pipe + self.n_evt + self.n_relay + self.n_bulk
        p.seconds = v["run_s"] = perf_counter() - t_start
        p.cpu_s = _cpu()[0] - cpu0
        if not tr.enabled:  # spans of traced passes would count as growth
            self.rss_after = _rss_mb()
        if tr.enabled:
            v["relay.open_stream_us"] = self._open_streams(tr, p)
            v.update(self._frames(tr, p))
        return p

    def _open_streams(self, tr, p: Pass) -> float:
        """Mean µs per open_stream; each new stream is used once and closed."""
        st = self.stack
        spent = 0.0
        for i in range(8):
            t0 = perf_counter()
            stream = tr.call("relay.open_stream", st.conn.open_stream, st.route.service)
            spent += perf_counter() - t0
            client = RpcClient(stream)
            self._echo("relay.call", client, self.small[i], tr, p)
            tr.call("rpc.close", client.close)
            p.ops += 1
        return spent / 8 * 1e6

    def _frames(self, tr, p: Pass) -> dict:
        out = {}
        frames = {
            "evt64": (Frame(EVT, self.small[0], topic="bench"), 2000),
            "fwd64k": (Frame(FWD, self.big, stream_id=7), 200),
        }
        for key, (frame, n) in frames.items():
            t0 = perf_counter()
            for _ in range(n):
                wire = tr.call("frames.encode", encode, frame)
            t1 = perf_counter()
            for _ in range(n):
                back = tr.call("frames.decode", decode, wire[4:])
            t2 = perf_counter()
            self.check(f"frames.{key}-round-trips", back == frame, p)
            out[f"frames.encode_us.{key}"] = (t1 - t0) / n * 1e6
            out[f"frames.decode_us.{key}"] = (t2 - t1) / n * 1e6
        return out


JOBS = {job.name: job for job in (LinearJob, FanoutJob, CompileJob, ServicesJob)}
