import fcntl
import os
import signal
import subprocess
import threading
import time

import pytest

from archon.checker import resolve
from archon.cli import main
from archon.diagnostics import ArchonError
from archon.model import builtin_type_table
from archon.parser import parse
from archon.plan import MERGE, PROCESS, SPLIT, TEE, plan
from archon.runner import CHUNK, run

UPPER = """
for line in sys.stdin.buffer:
    sys.stdout.buffer.write(line.upper())
"""

REV = """
for line in sys.stdin.buffer:
    body = line.rstrip(b"\\n")
    sys.stdout.buffer.write(body[::-1] + b"\\n")
"""

CAT = """
for line in sys.stdin.buffer:
    sys.stdout.buffer.write(line)
    sys.stdout.buffer.flush()
"""

EXIT3 = """
sys.stdin.buffer.read()
sys.exit(3)
"""

SPEW = """
while True:
    sys.stdout.buffer.write(b"spam\\n")
"""

TAKE2 = """
count = 0
for line in sys.stdin.buffer:
    sys.stdout.buffer.write(line)
    count += 1
    if count == 2:
        break
"""

SLEEPER = """
import time
time.sleep(60)
"""

COUNTDOWN = """
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

NOTED_COUNTDOWN = """
# COUNTDOWN, but a record that is not a number is only noted
side = open(sys.argv[1], "a")
for line in sys.stdin.buffer:
    side.write(line.decode())
    side.flush()
    if not line[:1].isdigit():
        continue
    n = int(line)
    if n <= 1:
        break
    sys.stdout.buffer.write(b"%d\\n" % (n - 1))
    sys.stdout.buffer.flush()
"""

GEN = """
n = int(sys.argv[1])
for i in range(n):
    sys.stdout.buffer.write(b"%06d\\n" % i)
"""

SINK = """
with open(sys.argv[1], "wb") as out:
    for line in sys.stdin.buffer:
        out.write(line)
"""

LAPS = """
# forward the first lap of records, note every record, stop after two laps
n = int(sys.argv[2])
side = open(sys.argv[1], "wb")
for count, line in enumerate(sys.stdin.buffer, 1):
    side.write(line)
    if count == 2 * n:
        break
    if count <= n:
        sys.stdout.buffer.write(line)
        sys.stdout.buffer.flush()
"""

STDOUT_FLAGS = """
import fcntl
with open(sys.argv[1], "w") as side:
    side.write("%d\\n" % (fcntl.fcntl(1, fcntl.F_GETFL) & os.O_NONBLOCK))
sys.stdin.buffer.readline()
"""

WHOAMI = """
sys.stdin.buffer.read()
sys.stdout.write(os.environ["ARCHON_INSTANCE"] + ":" + os.environ["ARCHON_REPLICA"] + "\\n")
"""

TAG = """
tag = os.environ["ARCHON_REPLICA"].encode() + b":"
for line in sys.stdin.buffer:
    sys.stdout.buffer.write(tag + line)
"""

SAVE = """
with open(sys.argv[1] + os.environ["ARCHON_REPLICA"], "wb") as out:
    out.write(sys.stdin.buffer.read())
"""

EMIT = """
sys.stdout.buffer.write(open(sys.argv[1], "rb").read())
"""

FORK = """
system S {{
  componenttype Fan {{ port stdin : StreamIn; port stdout : StreamOut many; }}
  component A : Fan impl "{a}";
  component B : Filter impl "{b}";
  component C : Filter impl "{c}";
  connector p1 : Pipe; connector p2 : Pipe;
  attach A.stdout to p1.source; attach B.stdin to p1.sink;
  attach A.stdout to p2.source; attach C.stdin to p2.sink;
}}
"""


@pytest.fixture(autouse=True)
def _leaves_no_descriptor_or_thread():
    """Each test leaves this process's open descriptors and live threads as
    it found them, once stage threads still draining have had a moment."""

    def counts() -> tuple[int, int]:
        return len(os.listdir("/proc/self/fd")), threading.active_count()

    before = counts()
    yield
    settle = time.monotonic() + 5
    while counts() != before and time.monotonic() < settle:
        time.sleep(0.01)
    assert counts() == before


@pytest.fixture
def started(monkeypatch) -> list[threading.Thread]:
    """Every thread started while the test runs."""
    threads: list[threading.Thread] = []
    real_start = threading.Thread.start

    def start(thread: threading.Thread) -> None:
        threads.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return threads


@pytest.fixture
def spawned(monkeypatch) -> list[subprocess.Popen]:
    """Every process spawned while the test runs."""
    procs: list[subprocess.Popen] = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return procs


def _built(src: str):
    result = resolve(parse(src), builtin_type_table())
    assert result.architecture is not None, result.diagnostics
    return plan(result.architecture, result.table)


def _pipeline(stages: list[str], inp: str, out: str) -> str:
    decls = "".join(
        f'component S{i} : Filter impl "{impl}";\n' for i, impl in enumerate(stages)
    )
    chain = " | ".join(f"S{i}()" for i in range(len(stages)))
    return (
        f"system S {{ {decls} pipeline P: input | {chain} | output;"
        f' input "{inp}"; output "{out}"; }}'
    )


def test_upper_rev_matches_shell_oracle(tmp_path, make_filter):
    upper, rev = make_filter("upper", UPPER), make_filter("rev", REV)
    inp, out, oracle = tmp_path / "in.txt", tmp_path / "out.txt", tmp_path / "oracle.txt"
    inp.write_bytes(b"abc\nxyz\n")
    report = run(_built(_pipeline([upper, rev], inp, out)))
    assert report.overall == 0
    subprocess.run(f"{upper} < {inp} | {rev} > {oracle}", shell=True, check=True)
    assert out.read_bytes() == oracle.read_bytes() == b"CBA\nZYX\n"


def test_empty_input_empty_output(tmp_path, make_filter):
    cat = make_filter("cat", CAT)
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_bytes(b"")
    report = run(_built(_pipeline([cat], inp, out)))
    assert report.overall == 0
    assert out.read_bytes() == b""


def test_final_stage_status_is_overall(tmp_path, make_filter):
    cat, exit3 = make_filter("cat", CAT), make_filter("exit3", EXIT3)
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_bytes(b"x\n")
    report = run(_built(_pipeline([cat, exit3], inp, out)))
    assert report.overall == 3


def test_early_close_recorded_not_failed(tmp_path, make_filter):
    spew, take2 = make_filter("spew", SPEW), make_filter("take2", TAKE2)
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_bytes(b"")
    report = run(_built(_pipeline([spew, take2], inp, out)), timeout=20)
    assert report.overall == 0
    assert "S0" in report.early_close
    assert out.read_bytes() == b"spam\nspam\n"


def test_timeout_kills_and_reports_124(tmp_path, make_filter):
    sleeper = make_filter("sleeper", SLEEPER)
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_bytes(b"")
    t0 = time.monotonic()
    report = run(_built(_pipeline([sleeper], inp, out)), timeout=0.5)
    assert report.timed_out
    assert report.overall == 124
    assert time.monotonic() - t0 < 10


def test_orphaned_grandchild_cannot_outlast_the_deadline(tmp_path):
    # each replica exits at once, but the sleep it leaves behind keeps the
    # merge stage's input open: only the deadline can end the run
    impl = "sh -c '(sleep 3 &); exec cat'"
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_bytes(b"a\nb\nc\n")
    src = _pipeline([impl], inp, out).replace(
        f'impl "{impl}";', f'impl "{impl}" stateless replicas 2;'
    )
    t0 = time.monotonic()
    report = run(_built(src), timeout=1)
    assert time.monotonic() - t0 < 2.5
    assert report.timed_out
    assert report.overall == 124


def test_run_starts_no_thread_per_process(tmp_path, started):
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_bytes(b"x\ny\n")
    built = _built(_pipeline(["cat"] * 8, inp, out))
    synthetic = [stage for stage in built.stages if stage.kind != PROCESS]
    report = run(built)
    assert report.overall == 0
    assert out.read_bytes() == b"x\ny\n"
    assert len(started) == len(synthetic) == 0


def test_pidfd_failure_is_raised_and_kills_what_was_spawned(
    tmp_path, make_filter, monkeypatch, spawned
):
    sleeper = make_filter("sleeper", SLEEPER)
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_bytes(b"")

    def refuse(pid: int) -> int:
        raise OSError("pidfd_open refused")

    monkeypatch.setattr(os, "pidfd_open", refuse)
    # the stage did spawn: the error is the run's, not a 127 for the stage
    with pytest.raises(OSError, match="refused"):
        run(_built(_pipeline([sleeper], inp, out)), timeout=10)
    assert [proc.returncode for proc in spawned] == [-signal.SIGKILL]


def test_event_stages_find_the_broker_listening(tmp_path):
    """run() starts the broker of a system with an Event connector before
    its stages, each of which finds a socket at $ARCHON_BROKER."""
    probe = 'impl "sh -c \'test -S \\"$ARCHON_BROKER\\"\'"'
    report = run(_built(f"""system News {{
      componenttype Reporter {{ port wire : EventEmit; }}
      componenttype Desk {{ port wire : EventRecv; }}
      component Field : Reporter {probe};
      component Print : Desk {probe};
      connector wire : Event;
      attach Field.wire to wire.announcer;
      attach Print.wire to wire.listener;
    }}"""), timeout=20, runtime_dir=str(tmp_path))
    assert report.overall == 0
    assert report.statuses == {"Field": 0, "Print": 0}


def test_spawn_failure_reported(tmp_path):
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_bytes(b"")
    report = run(_built(_pipeline(["/nonexistent/filter"], inp, out)))
    assert "S0" in report.spawn_failures
    assert report.overall == 127


def test_env_identifies_instance_and_replica(tmp_path, make_filter):
    whoami = make_filter("whoami", WHOAMI)
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_bytes(b"")
    report = run(_built(_pipeline([whoami], inp, out)))
    assert report.overall == 0
    assert out.read_bytes() == b"S0:0\n"


def _diamond(a: str, b: str, d: str) -> str:
    return f"""
    system S {{
      componenttype Fan {{ port stdin : StreamIn; port stdout : StreamOut many; }}
      componenttype Funnel {{ port stdin : StreamIn many; port stdout : StreamOut; }}
      component A : Fan impl "{a}";
      component B : Filter impl "{b}";
      component C : Filter impl "{b}";
      component D : Funnel impl "{d}";
      connector p1 : Pipe; connector p2 : Pipe; connector p3 : Pipe; connector p4 : Pipe;
      attach A.stdout to p1.source; attach B.stdin to p1.sink;
      attach A.stdout to p2.source; attach C.stdin to p2.sink;
      attach B.stdout to p3.source; attach D.stdin to p3.sink;
      attach C.stdout to p4.source; attach D.stdin to p4.sink;
    }}
    """


def test_diamond_conserves_records(tmp_path, make_filter):
    n = 200
    gen = make_filter("gen", GEN)
    cat = make_filter("cat", CAT)
    sink = make_filter("sink", SINK)
    side = tmp_path / "merged.txt"
    report = run(_built(_diamond(f"{gen} {n}", cat, f"{sink} {side}")), timeout=30)
    assert report.overall == 0
    lines = side.read_bytes().splitlines(keepends=True)
    assert len(lines) == 2 * n
    expected = sorted([b"%06d\n" % i for i in range(n)] * 2)
    assert sorted(lines) == expected
    assert report.channel_bytes["D.in"] == 2 * n * 7
    assert report.channel_records["D.in"] == 2 * n


def test_fanout_matches_sequential_multiset(tmp_path, make_filter):
    upper = make_filter("upper", UPPER)
    inp = tmp_path / "in.txt"
    inp.write_bytes(b"".join(b"line%04d\n" % i for i in range(500)))
    out_seq, out_par = tmp_path / "seq.txt", tmp_path / "par.txt"

    run(_built(_pipeline([upper], inp, out_seq)))
    par_src = _pipeline([upper], inp, out_par).replace(
        f'impl "{upper}";', f'impl "{upper}" stateless replicas 4;'
    )
    report = run(_built(par_src), timeout=30)
    assert report.overall == 0
    assert sorted(out_par.read_bytes().splitlines()) == sorted(
        out_seq.read_bytes().splitlines()
    )
    assert len(out_par.read_bytes().splitlines()) == 500


def test_seeded_cycle_circulates_exactly_seed_records(tmp_path, make_filter):
    countdown = make_filter("countdown", COUNTDOWN)
    cat = make_filter("cat", CAT)
    side = tmp_path / "seen.txt"
    src = f"""
    system S {{
      component A : Filter impl "{countdown} {side}" seed "8\\n";
      component B : Filter impl "{cat}";
      connector p1 : Pipe; connector p2 : Pipe;
      attach A.stdout to p1.source; attach B.stdin to p1.sink;
      attach B.stdout to p2.source; attach A.stdin to p2.sink;
    }}
    """
    t0 = time.monotonic()
    report = run(_built(src), timeout=10)
    elapsed = time.monotonic() - t0
    assert not report.timed_out
    assert report.overall == 0
    assert elapsed < 5
    assert side.read_text() == "8\n7\n6\n5\n4\n3\n2\n1\n"


def test_split_deals_one_record_at_a_time_across_chunks(tmp_path, make_filter):
    n = 30_000  # 210 kB: the split reads it in many chunks, cut mid-record
    assert n * 7 > 8 * CHUNK
    tag = make_filter("tag", TAG)
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_bytes(b"".join(b"%06d\n" % i for i in range(n)))
    src = _pipeline([tag], inp, out).replace(
        f'impl "{tag}";', f'impl "{tag}" stateless replicas 3;'
    )
    report = run(_built(src), timeout=30)
    assert report.overall == 0
    dealt: dict[bytes, list[bytes]] = {b"0": [], b"1": [], b"2": []}
    for line in out.read_bytes().splitlines():
        replica, record = line.split(b":")
        dealt[replica].append(record)
    for i in range(3):
        assert dealt[b"%d" % i] == [b"%06d" % k for k in range(i, n, 3)]
    assert report.channel_records["S0.in#0"] == len(range(0, n, 3))


def test_record_longer_than_a_chunk_passes_whole(tmp_path, make_filter):
    big = b"x" * 200_000 + b"\n"
    assert len(big) > 4 * CHUNK
    data = tmp_path / "data.txt"
    data.write_bytes(b"a\n" + big + b"b\n")
    emit, cat, sink = make_filter("emit", EMIT), make_filter("cat", CAT), make_filter("sink", SINK)
    side = tmp_path / "merged.txt"
    report = run(_built(_diamond(f"{emit} {data}", cat, f"{sink} {side}")), timeout=30)
    assert report.overall == 0
    lines = side.read_bytes().splitlines(keepends=True)
    assert sorted(lines) == sorted([b"a\n", big, b"b\n"] * 2)
    assert report.channel_records["D.in"] == 6


def test_last_record_without_newline_is_delivered(tmp_path, make_filter):
    save, emit = make_filter("save", SAVE), make_filter("emit", EMIT)
    data = tmp_path / "data.txt"
    data.write_bytes(b"a\nb\nc")
    # split: the third replica gets the unterminated record as it is
    out = tmp_path / "out.txt"
    src = _pipeline([f"{save} {tmp_path}/dealt"], data, out).replace(
        'dealt";', 'dealt" stateless replicas 3;'
    )
    assert run(_built(src), timeout=30).overall == 0
    got = [(tmp_path / f"dealt{i}").read_bytes() for i in range(3)]
    assert got == [b"a\n", b"b\n", b"c"]
    # tee: both branches get the input unchanged
    src = FORK.format(a=f"{emit} {data}", b=f"{save} {tmp_path}/b", c=f"{save} {tmp_path}/c")
    assert run(_built(src), timeout=30).overall == 0
    assert (tmp_path / "b0").read_bytes() == (tmp_path / "c0").read_bytes() == b"a\nb\nc"
    # merge: a lone unterminated input passes through unchanged
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    side = tmp_path / "merged.txt"
    cat, sink = make_filter("cat", CAT), make_filter("sink", SINK)
    src = _diamond(f"{emit} {data}", cat, f"{sink} {side}").replace(
        f'component C : Filter impl "{cat}"', f'component C : Filter impl "{emit} {empty}"'
    )
    report = run(_built(src), timeout=30)
    assert report.overall == 0
    assert side.read_bytes() == b"a\nb\nc"
    assert report.channel_records["D.in"] == 3


def test_tee_keeps_feeding_live_branch_after_other_reader_exits(tmp_path, make_filter):
    n = 50_000
    gen, take2 = make_filter("gen", GEN), make_filter("take2", TAKE2)
    save = make_filter("save", SAVE)
    src = FORK.format(a=f"{gen} {n}", b=take2, c=f"{save} {tmp_path}/kept")
    report = run(_built(src), timeout=30)
    assert report.overall == 0
    assert (tmp_path / "kept0").read_bytes() == b"".join(b"%06d\n" % i for i in range(n))
    assert report.channel_records["p2"] == n


def test_failed_stage_is_reported_and_does_not_hang(tmp_path, make_filter, capsys):
    cat = make_filter("cat", CAT)
    # a directory opens for reading, but the head split's first read fails
    out = tmp_path / "out.txt"
    src = _pipeline([cat], tmp_path, out).replace(
        f'impl "{cat}";', f'impl "{cat}" stateless replicas 2;'
    )
    t0 = time.monotonic()
    report = run(_built(src), timeout=30)
    assert time.monotonic() - t0 < 10
    assert not report.timed_out
    assert report.stage_errors["S0.split"].startswith("IsADirectoryError")
    assert out.read_bytes() == b""
    path = tmp_path / "s.arch"
    path.write_text(src)
    assert main(["run", str(path), "--timeout", "30"]) == 0
    assert "stage 'S0.split' failed: IsADirectoryError" in capsys.readouterr().err


def _self_loop(impl: str, primer: str) -> str:
    return f"""
    system S {{
      component A : Filter impl "{impl}" seed "{primer}";
      connector p : Pipe;
      attach A.stdout to p.source; attach A.stdin to p.sink;
    }}
    """


def _seeded_pair(a: str, b: str, primer: str) -> str:
    return f"""
    system S {{
      component A : Filter impl "{a}" seed "{primer}";
      component B : Filter impl "{b}";
      connector p1 : Pipe; connector p2 : Pipe;
      attach A.stdout to p1.source; attach B.stdin to p1.sink;
      attach B.stdout to p2.source; attach A.stdin to p2.sink;
    }}
    """


def test_seeded_cycle_starts_no_thread(tmp_path, make_filter, started):
    countdown, cat = make_filter("countdown", COUNTDOWN), make_filter("cat", CAT)
    side = tmp_path / "seen.txt"
    built = _built(_seeded_pair(f"{countdown} {side}", cat, "3\\n"))
    assert {stage.kind for stage in built.stages} == {PROCESS}
    assert {c.name: c.primer for c in built.channels if c.primer} == {"p2": "3\n"}
    report = run(built, timeout=10)
    assert report.overall == 0
    assert side.read_text() == "3\n2\n1\n"
    assert started == []
    # archon itself writes only the primer
    assert report.channel_bytes == {"p2": 2}
    assert report.channel_records == {"p2": 1}


def test_seeded_self_loop_runs_to_completion(tmp_path, make_filter):
    countdown = make_filter("countdown", COUNTDOWN)
    side = tmp_path / "seen.txt"
    report = run(_built(_self_loop(f"{countdown} {side}", "5\\n")), timeout=10)
    assert not report.timed_out
    assert report.overall == 0
    assert side.read_text() == "5\n4\n3\n2\n1\n"


def test_primer_larger_than_a_pipe_circulates_whole(tmp_path, make_filter):
    n = 40_000  # 320 kB, five times a default pipe
    laps, cat = make_filter("laps", LAPS), make_filter("cat", CAT)
    side = tmp_path / "seen.txt"
    primer = "".join("%07d\\n" % i for i in range(n))
    report = run(_built(_seeded_pair(f"{laps} {side} {n}", cat, primer)), timeout=30)
    assert not report.timed_out
    assert report.overall == 0
    lap = b"".join(b"%07d\n" % i for i in range(n))
    assert side.read_bytes() == lap + lap
    assert report.channel_bytes["p2"] == len(lap)
    assert report.channel_records["p2"] == n


def test_writer_of_the_seeded_pipe_gets_a_blocking_stdout(tmp_path, make_filter):
    flags = make_filter("flags", STDOUT_FLAGS)
    side = tmp_path / "flags.txt"
    report = run(_built(_self_loop(f"{flags} {side}", "x\\n")), timeout=10)
    assert report.overall == 0
    assert side.read_text() == "0\n"


def test_primer_the_pipe_refuses_is_an_io_error(tmp_path, make_filter, monkeypatch, spawned):
    countdown, cat = make_filter("countdown", COUNTDOWN), make_filter("cat", CAT)
    primer = "".join("%07d\\n" % i for i in range(40_000))
    built = _built(_seeded_pair(f"{countdown} {tmp_path}/seen.txt", cat, primer))
    real_fcntl = fcntl.fcntl

    def no_growth(fd, cmd, *args):
        if cmd == fcntl.F_SETPIPE_SZ:
            raise PermissionError("pipe size refused")
        return real_fcntl(fd, cmd, *args)

    monkeypatch.setattr(fcntl, "fcntl", no_growth)
    t0 = time.monotonic()
    with pytest.raises(ArchonError) as exc:
        run(built, timeout=10)
    assert time.monotonic() - t0 < 5
    assert exc.value.code == "IoError"
    assert "'p2'" in str(exc.value)
    assert spawned == []


def _primers(built) -> dict[str, str]:
    """The primed channels of a plan whose every stage is something that runs."""
    assert {stage.kind for stage in built.stages} <= {PROCESS, TEE, MERGE, SPLIT}
    return {channel.name: channel.primer for channel in built.channels if channel.primer}


def test_merge_reads_the_primed_pipe_beside_an_external_input(tmp_path, make_filter):
    countdown, cat = make_filter("countdown", NOTED_COUNTDOWN), make_filter("cat", CAT)
    side, inp, out = tmp_path / "seen.txt", tmp_path / "in.txt", tmp_path / "out.txt"
    notes = [b"note%d\n" % i for i in range(3)]
    inp.write_bytes(b"".join(notes))
    built = _built(
        f"""
        system S {{
          componenttype Loop {{ port stdin : StreamIn many; port stdout : StreamOut many; }}
          component A : Loop impl "{countdown} {side}" seed "8\\n";
          component B : Filter impl "{cat}";
          pipeline P: input | A() | output;
          connector p1 : Pipe; connector p2 : Pipe;
          attach A.stdout to p1.source; attach B.stdin to p1.sink;
          attach B.stdout to p2.source; attach A.stdin to p2.sink;
          input "{inp}"; output "{out}";
        }}
        """
    )
    assert _primers(built) == {"p2": "8\n"}
    assert built.stage("A.merge").reads == ("P_p0", "p2")
    report = run(built, timeout=30)
    assert not report.timed_out
    assert report.overall == 0
    seen = side.read_bytes().splitlines(keepends=True)
    assert [line for line in seen if line[:1].isdigit()] == [b"%d\n" % n for n in range(8, 0, -1)]
    assert sorted(line for line in seen if not line[:1].isdigit()) == notes
    assert out.read_bytes() == b"".join(b"%d\n" % n for n in range(7, 0, -1))
    assert report.channel_records["p2"] == 1
    assert report.channel_records["A.in"] == 8 + len(notes)
    assert report.channel_records["p1"] == 7


def test_tee_out_of_a_seeded_instance(tmp_path, make_filter):
    countdown, cat = make_filter("countdown", COUNTDOWN), make_filter("cat", CAT)
    sink = make_filter("sink", SINK)
    side, kept = tmp_path / "seen.txt", tmp_path / "kept.txt"
    built = _built(
        f"""
        system S {{
          componenttype Fan {{ port stdin : StreamIn; port stdout : StreamOut many; }}
          component A : Fan impl "{countdown} {side}" seed "5\\n";
          component B : Filter impl "{cat}";
          component C : Filter impl "{sink} {kept}";
          connector p1 : Pipe; connector p2 : Pipe; connector p3 : Pipe;
          attach A.stdout to p1.source; attach B.stdin to p1.sink;
          attach B.stdout to p2.source; attach A.stdin to p2.sink;
          attach A.stdout to p3.source; attach C.stdin to p3.sink;
        }}
        """
    )
    assert _primers(built) == {"p2": "5\n"}
    assert built.stage("A.tee").writes == ("p1", "p3")
    report = run(built, timeout=30)
    assert not report.timed_out
    assert report.overall == 0
    assert side.read_text() == "5\n4\n3\n2\n1\n"
    assert kept.read_text() == "4\n3\n2\n1\n"
    assert report.channel_records == {"p1": 4, "p2": 1, "p3": 4}


def test_two_seeded_instances_prime_two_channels(tmp_path, make_filter):
    countdown = make_filter("countdown", COUNTDOWN)
    seen_a, seen_b = tmp_path / "a.txt", tmp_path / "b.txt"
    src = _seeded_pair(f"{countdown} {seen_a}", f"{countdown} {seen_b}", "4\\n").replace(
        f'impl "{countdown} {seen_b}";', f'impl "{countdown} {seen_b}" seed "4\\n";'
    )
    built = _built(src)
    assert _primers(built) == {"p1": "4\n", "p2": "4\n"}
    report = run(built, timeout=30)
    assert not report.timed_out
    assert report.overall == 0
    # each pipe has one writer, so each instance reads the two tokens in turn:
    # its own primer, the other's primer less one, its own less two, ...
    assert seen_a.read_text() == seen_b.read_text() == "4\n3\n2\n1\n"
    assert report.channel_records == {"p1": 1, "p2": 1}
