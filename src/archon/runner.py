"""Executing a build plan: real processes, kernel pipes, stage threads.

Every ``pipe`` channel is one kernel pipe.  A process stage gets the
read end as stdin and the write end as stdout; each synthetic stage
holds its ends in one thread inside this process, running the record
pump below.  Each descriptor has one owner: a process's ends are closed
here once it is spawned, a synthetic stage's by its thread, so
end-of-file propagates the moment a writer exits.

One poll over a pidfd per process (Linux >= 5.3) reaps them all, and
the stage threads are joined, against one deadline.  A downstream stage
that stops reading kills its upstream with SIGPIPE; that death is
reported as early_close, not failure.  Any stage still running at the
deadline is a timeout (status 124): the processes left are killed and,
with the threads, get one shared 5 s grace.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable

from .broker import EventBroker
from .diagnostics import fail
from .plan import PROCESS, SEED, SPLIT, BuildPlan, Stage

SIGPIPE_STATUS = -int(signal.SIGPIPE)

# Read size of the record pump.  64 KiB reads raised the peak RSS of the
# fan-out benchmark by 3-6 MB; 16 KiB left it where it was.
CHUNK = 16 << 10


@dataclass
class RunReport:
    statuses: dict[str, int] = field(default_factory=dict)
    spawn_failures: dict[str, str] = field(default_factory=dict)
    early_close: frozenset[str] = frozenset()
    channel_bytes: dict[str, int] = field(default_factory=dict)
    channel_records: dict[str, int] = field(default_factory=dict)
    stage_errors: dict[str, str] = field(default_factory=dict)
    duration: float = 0.0
    timed_out: bool = False
    overall: int = 0


def _env_name(connector: str) -> str:
    return "ARCHON_RPC_" + connector.upper().replace("-", "_")


def _shell_status(raw: int) -> int:
    return 128 - raw if raw < 0 else raw


def run(
    built: BuildPlan,
    timeout: float | None = None,
    runtime_dir: str | None = None,
) -> RunReport:
    started = time.monotonic()
    own_dir = runtime_dir is None
    rt_dir = runtime_dir or tempfile.mkdtemp(prefix="archon-run-")
    broker = None
    report = RunReport()
    try:
        if built.broker:
            broker = EventBroker(os.path.join(rt_dir, built.broker)).start()
        _execute(built, rt_dir, timeout, report)
    finally:
        if broker is not None:
            broker.stop()
        if own_dir:
            shutil.rmtree(rt_dir, ignore_errors=True)
    for channel in built.channels:
        if channel.kind in ("file-in", "file-out"):
            try:
                report.channel_bytes[channel.name] = os.path.getsize(channel.path)
            except OSError:
                pass
    report.duration = time.monotonic() - started
    report.overall = _overall(built, report)
    return report


def _execute(
    built: BuildPlan,
    rt_dir: str,
    timeout: float | None,
    report: RunReport,
) -> None:
    env_base = dict(os.environ)
    if built.broker:
        env_base["ARCHON_BROKER"] = os.path.join(rt_dir, built.broker)
    for conn, endpoint in built.rpc:
        env_base[_env_name(conn)] = os.path.join(rt_dir, endpoint)

    read_fd: dict[str, int] = {}
    write_fd: dict[str, int] = {}
    procs: dict[str, subprocess.Popen] = {}
    pidfds: dict[int, str] = {}  # a pidfd turns a process's exit into a poll event
    threads: list[threading.Thread] = []
    try:
        try:
            for channel in built.channels:
                if channel.kind == "pipe":
                    read_fd[channel.name], write_fd[channel.name] = os.pipe()
                    continue
                reading = channel.kind == "file-in"
                flags = os.O_RDONLY if reading else os.O_WRONLY | os.O_CREAT | os.O_TRUNC
                try:
                    fd = os.open(channel.path, flags, 0o644)
                except OSError as err:
                    what = "input" if reading else "output"
                    raise fail("IoError", f"cannot open {what} '{channel.path}': {err}")
                (read_fd if reading else write_fd)[channel.name] = fd

            # Each stage takes its ends when it starts: a process's are closed
            # once it is spawned, a synthetic stage's by its thread.
            for stage in built.stages:
                ins = [read_fd.pop(ch) for ch in stage.reads]
                outs = {ch: write_fd.pop(ch) for ch in stage.writes}
                if stage.kind != PROCESS:
                    thread = threading.Thread(
                        target=_stage_body, args=(stage, ins, outs, report), daemon=True
                    )
                    thread.start()
                    threads.append(thread)
                    continue
                env = dict(env_base)
                env["ARCHON_INSTANCE"] = stage.instance
                env["ARCHON_REPLICA"] = str(stage.replica)
                try:
                    procs[stage.name] = subprocess.Popen(
                        stage.argv,
                        stdin=ins[0] if ins else subprocess.DEVNULL,
                        stdout=outs[stage.writes[0]] if outs else subprocess.DEVNULL,
                        env=env,
                    )
                except OSError as err:
                    report.spawn_failures[stage.name] = str(err)
                    continue
                finally:
                    _close_all([*ins, *outs.values()])
                pidfds[os.pidfd_open(procs[stage.name].pid)] = stage.name
        finally:
            # No copy of an end may stay here, or it holds back end of file.
            _close_all([*read_fd.values(), *write_fd.values()])
        _wait(procs, pidfds, threads, time.monotonic() + timeout if timeout else None, report)
        report.timed_out = bool(pidfds) or any(t.is_alive() for t in threads)
    finally:
        # still running at the deadline, or left behind by a failed start
        stragglers = [proc for proc in procs.values() if proc.returncode is None]
        for proc in stragglers:
            proc.kill()
        if stragglers:
            _wait(procs, pidfds, threads, time.monotonic() + 5, report)
        # a process whose pidfd_open failed has no pidfd to poll
        for name in procs.keys() - pidfds.values() - report.statuses.keys():
            procs[name].wait()
        _close_all(pidfds)
    report.early_close = frozenset(
        name for name, status in report.statuses.items() if status == SIGPIPE_STATUS
    )


def _wait(
    procs: dict[str, subprocess.Popen],
    pidfds: dict[int, str],
    threads: list[threading.Thread],
    deadline: float | None,
    report: RunReport,
) -> None:
    """Reap processes in one poll over ``pidfds``, then join the stage
    threads, until ``deadline`` (None: until all are done).  A reaped
    process leaves ``pidfds``; the ones left were running at the deadline."""
    poller = select.poll()
    for fd in pidfds:
        poller.register(fd, select.POLLIN)
    while pidfds:
        left = None if deadline is None else max(deadline - time.monotonic(), 0) * 1000
        ready = poller.poll(left)
        if not ready:
            break
        for fd, _ in ready:
            poller.unregister(fd)
            os.close(fd)
            name = pidfds.pop(fd)
            report.statuses[name] = procs[name].wait()
    for thread in threads:
        thread.join(None if deadline is None else max(deadline - time.monotonic(), 0))


def _overall(built: BuildPlan, report: RunReport) -> int:
    if report.timed_out:
        return 124
    if built.final:
        if built.final in report.statuses:
            return _shell_status(report.statuses[built.final])
        if built.final in report.spawn_failures:
            return 127
    for stage in built.stages:
        if stage.name in report.spawn_failures:
            return 127
        status = report.statuses.get(stage.name)
        if status is not None and status != 0 and status != SIGPIPE_STATUS:
            return _shell_status(status)
    return 0


def _close_all(fds: Iterable[int]) -> None:
    for fd in fds:
        try:
            os.close(fd)
        except OSError:
            pass


# --- the record pump behind every synthetic stage --------------------------


def _stage_body(
    stage: Stage, ins: list[int], outs: dict[str, int], report: RunReport
) -> None:
    """Move whole records from ``ins`` to ``outs`` in one poll loop.

    Each ready input gets one read of up to CHUNK bytes, cut after its
    last newline; the cut-off tail waits for the rest of its record, and
    at end of input it goes out as a record of its own.  The whole
    records are written before the next read, so a seeded cycle cannot
    stall on records held back here.  ``tee`` copies them to every output,
    ``split`` deals them round-robin one record at a time, ``merge`` and
    ``seed`` forward them (``seed`` writes its primer first).  An output
    whose reader has gone is dropped; the stage ends when its inputs are
    at end of file or no output is left.  It closes every descriptor it
    was given, and a failure is recorded in ``report.stage_errors``.
    """
    live = dict(outs)
    dealt = 0  # records dealt so far, so split's round-robin spans chunks
    try:
        # poll, not epoll: epoll refuses the regular file a head split reads
        poller = select.poll()
        tails: dict[int, list[bytes]] = {}  # per input, a record cut short
        for fd in ins:
            poller.register(fd, select.POLLIN)
            tails[fd] = []
        if stage.kind == SEED:
            _emit(live, stage.writes[0], stage.seed.encode("utf-8"), report)
        while tails and live:
            for fd, _ in poller.poll():
                data = os.read(fd, CHUNK)
                if not data:
                    poller.unregister(fd)
                    records = b"".join(tails.pop(fd))
                    if not records:
                        continue
                else:
                    cut = data.rfind(b"\n") + 1
                    if not cut:  # still inside one record
                        tails[fd].append(data)
                        continue
                    records = b"".join([*tails[fd], data[:cut]])
                    tails[fd] = [data[cut:]]
                if stage.kind != SPLIT:
                    for channel in stage.writes:
                        _emit(live, channel, records, report)
                    continue
                ends = records.endswith(b"\n")  # only a last tail does not
                lines = (records[:-1] if ends else records).split(b"\n")
                n = len(stage.writes)
                for i, channel in enumerate(stage.writes):
                    mine = lines[(i - dealt) % n :: n]
                    if mine:
                        _emit(live, channel, b"\n".join(mine) + b"\n" * ends, report)
                dealt += len(lines)
    except Exception as exc:
        report.stage_errors[stage.name] = f"{type(exc).__name__}: {exc}"
    finally:
        _close_all([*ins, *outs.values()])


def _emit(live: dict[str, int], channel: str, data: bytes, report: RunReport) -> None:
    """Write all of ``data`` to a live output, or drop it if its reader left."""
    fd = live.get(channel)
    if fd is None or not data:
        return
    view = memoryview(data)
    try:
        while view:  # os.write may take only part of it
            view = view[os.write(fd, view) :]
    except BrokenPipeError:
        del live[channel]
        return
    # a channel has one writer, so no other thread updates these entries
    report.channel_bytes[channel] = report.channel_bytes.get(channel, 0) + len(data)
    # every record ends in a newline but possibly the last one of a stream
    records = data.count(b"\n") + (not data.endswith(b"\n"))
    report.channel_records[channel] = report.channel_records.get(channel, 0) + records
