"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single PASS/FAIL verdict line (with the tolerance it
was held to) straight to the terminal so the result survives into batch
logs even when output capture is on.  A test that dies before reaching
its verdict still prints FAIL on the way out.
"""

from __future__ import annotations

import itertools
import os
import random
import shlex
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from contextlib import contextmanager
from pathlib import Path

from archon.broker import BrokerClient, EventBroker
from archon.checker import check_types, fold_typedefs, resolve
from archon.cli import main as cli_main
from archon.diagnostics import ArchonError
from archon.export import to_dot
from archon.formatter import format_system
from archon.model import builtin_type_table
from archon.parser import parse
from archon.plan import plan, serialize_plan
from archon.relay import Relay, RelayConnection, RelayLink, make_site, register_service
from archon.relay import resolve as resolve_route
from archon.rpc import RpcClient, RpcServer
from archon.runner import run
from archon.topology import classify_digraph

CORPUS_DIR = Path(__file__).parent / "corpus"


@contextmanager
def _criterion(capfd, num, label, tolerance):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"[acceptance {num}/9] {label}: FAIL ({tolerance})")
        raise
    with capfd.disabled():
        print(f"[acceptance {num}/9] {label}: PASS ({tolerance})")


def _plan_of(src: str):
    result = resolve(parse(src), builtin_type_table())
    assert result.architecture is not None, result.diagnostics
    return plan(result.architecture, result.table)


def _pipeline_src(stages: list[str], inp, out) -> str:
    decls = "".join(
        f'component S{i} : Filter impl "{impl}";\n' for i, impl in enumerate(stages)
    )
    chain = " | ".join(f"S{i}()" for i in range(len(stages)))
    return (
        f"system P {{ {decls} pipeline Main: input | {chain} | output;"
        f' input "{inp}"; output "{out}"; }}'
    )


# --- 1: pipeline runs reproduce the shell ----------------------------------

_POOL = {
    "upper": """
for line in sys.stdin.buffer:
    sys.stdout.buffer.write(line.upper())
""",
    "rev": """
for line in sys.stdin.buffer:
    body = line.rstrip(b"\\n")
    sys.stdout.buffer.write(body[::-1] + b"\\n")
""",
    "double": """
for line in sys.stdin.buffer:
    sys.stdout.buffer.write(line)
    sys.stdout.buffer.write(line)
""",
    "tag": """
for line in sys.stdin.buffer:
    sys.stdout.buffer.write(b"t:" + line)
""",
    "mark": """
for line in sys.stdin.buffer:
    body = line.rstrip(b"\\n")
    sys.stdout.buffer.write(body + b"!\\n")
""",
}

# (stage names, input line count); 16384 64-byte lines is exactly 1 MiB.
_SHELL_RUNS = [
    (("upper",), 16384),
    (("rev",), 0),
    (("double", "upper"), 500),
    (("tag", "rev"), 2000),
    (("upper", "rev", "tag"), 1000),
    (("double", "tag", "upper"), 300),
    (("rev", "rev", "upper", "tag"), 800),
    (("tag", "double", "rev", "upper"), 400),
    (("upper", "tag", "rev", "double", "mark"), 1200),
    (("mark", "upper", "double", "rev", "tag"), 16384),
]

_FILL = b"abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRST"


def _records(count: int) -> bytes:
    assert len(_FILL) == 56
    return b"".join(b"%06d " % i + _FILL + b"\n" for i in range(count))


def test_a1_runs_match_shell_pipelines(tmp_path, make_filter, capfd):
    tolerance = "byte-identical on 10 pipelines of 1..5 stages, inputs up to 1 MiB, < 30 s"
    with _criterion(capfd, 1, "pipeline execution matches the shell", tolerance):
        scripts = {name: make_filter(name, body) for name, body in _POOL.items()}
        started = time.monotonic()
        for i, (names, count) in enumerate(_SHELL_RUNS):
            inp = tmp_path / f"in{i}.txt"
            out = tmp_path / f"out{i}.txt"
            want = tmp_path / f"want{i}.txt"
            inp.write_bytes(_records(count))
            arch = tmp_path / f"p{i}.arch"
            arch.write_text(_pipeline_src([scripts[n] for n in names], inp, out))

            assert cli_main(["run", str(arch)]) == 0, names

            head = f"{shlex.quote(scripts[names[0]])} < {shlex.quote(str(inp))}"
            rest = "".join(f" | {shlex.quote(scripts[n])}" for n in names[1:])
            shell = f"{head}{rest} > {shlex.quote(str(want))}"
            subprocess.run(shell, shell=True, check=True)

            assert out.read_bytes() == want.read_bytes(), names
        assert time.monotonic() - started < 30.0


# --- 2: port/role compatibility matrix -------------------------------------

_ROLE_ACCEPTS = {
    ("Pipe", "source"): "StreamOut",
    ("Pipe", "sink"): "StreamIn",
    ("RPC", "caller"): "RpcCall",
    ("RPC", "definer"): "RpcDef",
    ("Event", "announcer"): "EventEmit",
    ("Event", "listener"): "EventRecv",
    ("DataAccess", "client"): "StoreAccess",
    ("DataAccess", "store"): "StoreProvide",
}

_PORT_TYPES = (
    "StreamIn",
    "StreamOut",
    "RpcCall",
    "RpcDef",
    "EventEmit",
    "EventRecv",
    "StoreAccess",
    "StoreProvide",
)


def test_a2_type_matrix_flags_exactly_the_incompatible_pairs(capfd):
    tolerance = "exact over all 64 port-type x role pairs (8 legal, 56 flagged); < 1 s"
    with _criterion(capfd, 2, "attachment type matrix", tolerance):
        started = time.monotonic()
        flagged = {}
        for port_type in _PORT_TYPES:
            for (ctype, role), _accepted in _ROLE_ACCEPTS.items():
                src = (
                    f"system M {{ componenttype Probe {{ port p : {port_type} many; }}"
                    f" component X : Probe; connector k : {ctype};"
                    f" attach X.p to k.{role}; }}"
                )
                result = resolve(parse(src), builtin_type_table())
                assert result.architecture is not None, (port_type, ctype, role)
                diags = check_types(result.architecture, result.table)
                flagged[(port_type, ctype, role)] = any(
                    d.code == "TypeMismatch" for d in diags
                )
        expected = {
            (port_type, ctype, role): port_type != accepted
            for port_type in _PORT_TYPES
            for (ctype, role), accepted in _ROLE_ACCEPTS.items()
        }
        assert flagged == expected
        assert sum(flagged.values()) == 56
        assert time.monotonic() - started < 1.0


# --- 3: topology labels vs. brute force ------------------------------------


def _brute_labels(n: int, edges: list[tuple[int, int]]):
    """Label a graph by blunt search: DFS for cycles, permutations for paths."""
    out_deg = [0] * n
    in_deg = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        out_deg[a] += 1
        in_deg[b] += 1
        adj[a].append(b)
    forks = {i for i in range(n) if out_deg[i] > 1}
    joins = {i for i in range(n) if in_deg[i] > 1}

    cyclic = False
    for start in range(n):
        stack = list(adj[start])
        seen = [False] * n
        while stack:
            node = stack.pop()
            if node == start:
                cyclic = True
                break
            if not seen[node]:
                seen[node] = True
                stack.extend(adj[node])
        if cyclic:
            break

    linear = False
    if len(edges) == max(n - 1, 0):
        if n <= 7:
            target = sorted(edges)
            for perm in itertools.permutations(range(n)):
                if sorted(zip(perm, perm[1:])) == target:
                    linear = True
                    break
        else:
            linear = _walk_is_single_path(n, edges)

    labels = set()
    if forks:
        labels.add("fork")
    if joins:
        labels.add("join")
    if cyclic:
        labels.add("cyclic")
    if linear:
        labels.add("linear")
    return labels, forks, joins


def _walk_is_single_path(n: int, edges: list[tuple[int, int]]) -> bool:
    if len(set(edges)) != len(edges):
        return False
    succ: dict[int, int] = {}
    in_deg = [0] * n
    for a, b in edges:
        if a in succ:
            return False
        succ[a] = b
        in_deg[b] += 1
    starts = [v for v in range(n) if in_deg[v] == 0]
    if len(starts) != 1:
        return False
    visited = set()
    node: int | None = starts[0]
    while node is not None and node not in visited:
        visited.add(node)
        node = succ.get(node)
    return len(visited) == n


def _check_graph(names, named_edges, n, int_edges) -> None:
    report = classify_digraph(names, named_edges)
    labels, forks, joins = _brute_labels(n, int_edges)
    assert report.classification == frozenset(labels), (n, int_edges)
    assert {names.index(f) for f in report.forks} == forks, (n, int_edges)
    assert {names.index(j) for j in report.joins} == joins, (n, int_edges)


def test_a3_topology_agrees_with_brute_force(capfd):
    tolerance = (
        "exact labels: every digraph on <= 4 nodes (with self-loops), every "
        "loop-free digraph on 5 nodes, 500 random multigraphs on <= 12 nodes; < 60 s"
    )
    with _criterion(capfd, 3, "topology classification vs. brute force", tolerance):
        started = time.monotonic()
        checked = 0

        for n in range(5):
            names = [f"n{i:02d}" for i in range(n)]
            pairs = [(a, b) for a in range(n) for b in range(n)]
            named_pairs = [(names[a], names[b]) for a, b in pairs]
            for mask in range(1 << len(pairs)):
                int_edges = []
                named_edges = []
                m = mask
                while m:
                    i = (m & -m).bit_length() - 1
                    m &= m - 1
                    int_edges.append(pairs[i])
                    named_edges.append(named_pairs[i])
                _check_graph(names, named_edges, n, int_edges)
                checked += 1

        n = 5
        names = [f"n{i:02d}" for i in range(n)]
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        named_pairs = [(names[a], names[b]) for a, b in pairs]
        for mask in range(1 << len(pairs)):
            int_edges = []
            named_edges = []
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                int_edges.append(pairs[i])
                named_edges.append(named_pairs[i])
            _check_graph(names, named_edges, n, int_edges)
            checked += 1

        rng = random.Random(3301)
        for _ in range(500):
            n = rng.randint(0, 12)
            names = [f"n{i:02d}" for i in range(n)]
            m_edges = rng.randint(0, 2 * n) if n else 0
            int_edges = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(m_edges)
            ]
            named_edges = [(names[a], names[b]) for a, b in int_edges]
            _check_graph(names, named_edges, n, int_edges)
            checked += 1

        assert checked == 66_067 + (1 << 20) + 500
        assert time.monotonic() - started < 60.0


# --- 4: replica fan-out preserves the stream -------------------------------


def test_a4_fanout_preserves_record_multiset(tmp_path, make_filter, capfd):
    tolerance = "exact multiset for 1, 2, 4, and 8 replicas over 10^4 records; < 60 s"
    with _criterion(capfd, 4, "replicated stage fan-out", tolerance):
        upper = make_filter("upper", _POOL["upper"])
        records = b"".join(b"r%05d\n" % i for i in range(10_000))
        expected = sorted(records.upper().splitlines())
        started = time.monotonic()
        for n in (1, 2, 4, 8):
            inp = tmp_path / f"fan{n}.in"
            out = tmp_path / f"fan{n}.out"
            inp.write_bytes(records)
            attrs = "" if n == 1 else f" stateless replicas {n}"
            src = (
                f'system F {{ component W : Filter impl "{upper}"{attrs};'
                f" pipeline Main: input | W() | output;"
                f' input "{inp}"; output "{out}"; }}'
            )
            report = run(_plan_of(src), timeout=45)
            assert report.overall == 0, (n, report.statuses)
            assert sorted(out.read_bytes().splitlines()) == expected, n
        assert time.monotonic() - started < 60.0


# --- 5: fork/join conservation ---------------------------------------------

_GEN = """
n = int(sys.argv[1])
for i in range(n):
    sys.stdout.buffer.write(b"%06d\\n" % i)
"""

_CAT = """
for line in sys.stdin.buffer:
    sys.stdout.buffer.write(line)
    sys.stdout.buffer.flush()
"""

_SINK = """
with open(sys.argv[1], "wb") as out:
    for line in sys.stdin.buffer:
        out.write(line)
"""


def test_a5_diamond_delivers_twice_every_record(tmp_path, make_filter, capfd):
    tolerance = "exactly 2N merged records for N in {0, 1, 1000}; < 10 s"
    with _criterion(capfd, 5, "fork/join record conservation", tolerance):
        gen = make_filter("gen", _GEN)
        cat = make_filter("cat", _CAT)
        sink = make_filter("sink", _SINK)
        started = time.monotonic()
        for n in (0, 1, 1000):
            side = tmp_path / f"merged{n}.txt"
            src = f"""
            system D {{
              componenttype Fan {{ port stdin : StreamIn; port stdout : StreamOut many; }}
              componenttype Funnel {{ port stdin : StreamIn many; port stdout : StreamOut; }}
              component A : Fan impl "{gen} {n}";
              component B : Filter impl "{cat}";
              component C : Filter impl "{cat}";
              component D : Funnel impl "{sink} {side}";
              connector p1 : Pipe; connector p2 : Pipe;
              connector p3 : Pipe; connector p4 : Pipe;
              attach A.stdout to p1.source; attach B.stdin to p1.sink;
              attach A.stdout to p2.source; attach C.stdin to p2.sink;
              attach B.stdout to p3.source; attach D.stdin to p3.sink;
              attach C.stdout to p4.source; attach D.stdin to p4.sink;
            }}
            """
            report = run(_plan_of(src), timeout=30)
            assert report.overall == 0, (n, report.statuses)
            lines = side.read_bytes().splitlines()
            assert len(lines) == 2 * n
            assert sorted(lines) == sorted([b"%06d" % i for i in range(n)] * 2)
        assert time.monotonic() - started < 10.0


# --- 6: seeded cycle --------------------------------------------------------

_COUNTDOWN = """
side = open(sys.argv[1], "a")
for line in sys.stdin.buffer:
    n = int(line)
    side.write("%d\\n" % n)
    side.flush()
    if n <= 1:
        break
    sys.stdout.buffer.write(b"%d\\n" % (n - 1))
    sys.stdout.buffer.flush()
"""


def test_a6_seeded_cycle_circulates_exactly_eight(tmp_path, make_filter, capfd):
    tolerance = 'seed "8" circulates exactly 8 records; < 5 s'
    with _criterion(capfd, 6, "seeded feedback loop", tolerance):
        countdown = make_filter("countdown", _COUNTDOWN)
        cat = make_filter("cat", _CAT)
        side = tmp_path / "seen.txt"
        src = f"""
        system L {{
          component A : Filter impl "{countdown} {side}" seed "8\\n";
          component B : Filter impl "{cat}";
          connector p1 : Pipe; connector p2 : Pipe;
          attach A.stdout to p1.source; attach B.stdin to p1.sink;
          attach B.stdout to p2.source; attach A.stdin to p2.sink;
        }}
        """
        started = time.monotonic()
        report = run(_plan_of(src), timeout=10)
        elapsed = time.monotonic() - started
        assert not report.timed_out
        assert report.overall == 0, report.statuses
        assert side.read_text() == "8\n7\n6\n5\n4\n3\n2\n1\n"
        assert elapsed < 5.0


# --- 7: broker delivery counts and order -----------------------------------


def _await_registered(broker: EventBroker, topic: str, count: int) -> None:
    deadline = time.monotonic() + 5.0
    while broker.registered(topic) < count:
        assert time.monotonic() < deadline, f"{topic}: never saw {count} listeners"
        time.sleep(0.005)


def test_a7_broker_delivers_counted_and_ordered(capfd):
    tolerance = (
        "deliveries = published x subscribed per topic, per-announcer order kept; "
        "3 announcers, 4 listeners; < 10 s"
    )
    with _criterion(capfd, 7, "event broker delivery", tolerance):
        base = tempfile.mkdtemp(prefix="archon-a7-")
        clients: list[BrokerClient] = []
        started = time.monotonic()
        try:
            endpoint = os.path.join(base, "bus.sock")
            with EventBroker(endpoint) as broker:
                listeners = [BrokerClient(endpoint) for _ in range(4)]
                clients += listeners
                for listener in listeners:
                    listener.subscribe("news")
                _await_registered(broker, "news", 4)

                announcers = [BrokerClient(endpoint) for _ in range(3)]
                clients += announcers
                for a_idx, announcer in enumerate(announcers):
                    for i in range(10):
                        announcer.publish("news", b"%d:%04d" % (a_idx, i))

                for listener in listeners:
                    got = [listener.next_event(timeout=5.0) for _ in range(30)]
                    assert None not in got, "listener starved"
                    payloads = [payload for _topic, payload in got]
                    for a_idx in range(3):
                        prefix = b"%d:" % a_idx
                        mine = [p for p in payloads if p.startswith(prefix)]
                        assert mine == [b"%d:%04d" % (a_idx, i) for i in range(10)]
                    assert listener.next_event(timeout=0.2) is None

                # Disjoint topics stay disjoint, and counts follow subscription.
                on_x = BrokerClient(endpoint)
                on_y = BrokerClient(endpoint)
                clients += [on_x, on_y]
                on_x.subscribe("x")
                on_y.subscribe("y")
                _await_registered(broker, "x", 1)
                _await_registered(broker, "y", 1)
                talker = BrokerClient(endpoint)
                clients.append(talker)
                for i in range(5):
                    talker.publish("x", b"x%d" % i)
                for i in range(3):
                    talker.publish("y", b"y%d" % i)
                assert [on_x.next_event(timeout=5.0) for _ in range(5)] == [
                    ("x", b"x%d" % i) for i in range(5)
                ]
                assert [on_y.next_event(timeout=5.0) for _ in range(3)] == [
                    ("y", b"y%d" % i) for i in range(3)
                ]
                assert on_x.next_event(timeout=0.2) is None
                assert on_y.next_event(timeout=0.2) is None
        finally:
            for client in clients:
                client.close()
            shutil.rmtree(base, ignore_errors=True)
        assert time.monotonic() - started < 10.0


# --- 8: relayed RPC behaves like local RPC ---------------------------------


def _rpc_exchange(echo: RpcClient, shuffle: RpcClient) -> list[bytes]:
    small = echo.call(b"hello")
    big = echo.call(b"B" * 65536)
    first = shuffle.call_async(b"first")
    second = shuffle.call_async(b"second")
    return [small, big, shuffle.result(first), shuffle.result(second)]


def test_a8_relayed_rpc_matches_local_rpc(capfd):
    tolerance = (
        "identical results local vs. cross-site (echo, out-of-order definer, "
        "64 KiB payload), overlapping relative endpoints; < 10 s"
    )
    with _criterion(capfd, 8, "cross-site RPC transparency", tolerance):
        base = tempfile.mkdtemp(prefix="archon-a8-")
        started = time.monotonic()
        try:
            local_echo = os.path.join(base, "echo.sock")
            local_shuffle = os.path.join(base, "shuffle.sock")
            with RpcServer(local_echo), RpcServer(
                local_shuffle, handler=lambda p: p[::-1], batch=2
            ):
                echo = RpcClient(local_echo)
                shuffle = RpcClient(local_shuffle)
                local_results = _rpc_exchange(echo, shuffle)
                echo.close()
                shuffle.close()

            east = make_site("east", os.path.join(base, "east"))
            east = register_service(east, "near-echo", "echo.sock")
            west = make_site("west", os.path.join(base, "west"))
            west = register_service(west, "echo", "echo.sock")
            west = register_service(west, "shuffle", "shuffle.sock")
            link = RelayLink(east, west)

            near = resolve_route(link, "east", "near-echo")
            far = resolve_route(link, "east", "echo")
            assert near.kind == "direct"
            assert far.kind == "via-relay"

            with RpcServer(east.endpoint_path("near-echo")), RpcServer(
                west.endpoint_path("echo")
            ), RpcServer(west.endpoint_path("shuffle"), handler=lambda p: p[::-1], batch=2):
                nearby = RpcClient(near.endpoint)
                assert nearby.call(b"ping") == b"ping"
                nearby.close()

                with Relay(link):
                    conn = RelayConnection(far.endpoint)
                    echo = RpcClient(conn.open_stream(far.service))
                    shuffle_route = resolve_route(link, "east", "shuffle")
                    shuffle = RpcClient(conn.open_stream(shuffle_route.service))
                    remote_results = _rpc_exchange(echo, shuffle)
                    echo.close()
                    shuffle.close()
                    conn.close()

            assert local_results == remote_results
            assert local_results == [b"hello", b"B" * 65536, b"tsrif", b"dnoces"]
        finally:
            shutil.rmtree(base, ignore_errors=True)
        assert time.monotonic() - started < 10.0


# --- 9: corpus round-trip and artifact stability ---------------------------

_PROBE = textwrap.dedent(
    """\
    import sys
    from pathlib import Path
    from archon.checker import resolve
    from archon.export import to_dot
    from archon.model import builtin_type_table
    from archon.parser import parse
    from archon.plan import plan, serialize_plan
    text = Path(sys.argv[1]).read_text()
    result = resolve(parse(text), builtin_type_table())
    sys.stdout.write(to_dot(result.architecture, result.table))
    sys.stdout.write(serialize_plan(plan(result.architecture, result.table)))
    """
)


def test_a9_corpus_round_trip_and_stable_artifacts(capfd):
    tolerance = (
        "AST-exact reformat round-trip on >= 20 files; plan JSON and DOT "
        "byte-identical across 5 fresh runs and across interpreter hash seeds"
    )
    with _criterion(capfd, 9, "corpus round-trip and determinism", tolerance):
        files = sorted(CORPUS_DIR.glob("*.arch"))
        assert len(files) >= 20, "corpus too small"
        lib_decls = parse((CORPUS_DIR / "15_lib_gauges.arch").read_text()).declarations

        resolvable = 0
        plannable = 0
        for path in files:
            text = path.read_text()
            ast = parse(text)
            canon = format_system(ast)
            assert parse(canon) == ast, path.name
            assert format_system(parse(canon)) == canon, path.name

            dots = set()
            plans = set()
            plan_failed = False
            for _ in range(5):
                table = builtin_type_table()
                if path.name == "14_libuser.arch":
                    table, lib_diags = fold_typedefs(table, lib_decls)
                    assert not lib_diags
                result = resolve(parse(text), table)
                assert result.architecture is not None, path.name
                dots.add(to_dot(result.architecture, result.table))
                try:
                    plans.add(serialize_plan(plan(result.architecture, result.table)))
                except ArchonError:
                    plan_failed = True
            resolvable += 1
            assert len(dots) == 1, path.name
            if not plan_failed:
                assert len(plans) == 1, path.name
                plannable += 1

        assert resolvable == len(files)
        assert plannable >= 5

        for name in ("03_trio.arch", "04_diamond.arch", "23_mixed.arch"):
            outputs = set()
            for seed in ("0", "31337"):
                env = dict(os.environ, PYTHONHASHSEED=seed)
                proc = subprocess.run(
                    [sys.executable, "-c", _PROBE, str(CORPUS_DIR / name)],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                )
                outputs.add(proc.stdout)
            assert len(outputs) == 1, name
