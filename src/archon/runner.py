"""Executing a build plan: real processes, kernel pipes, stage threads.

Every ``pipe`` channel is one kernel pipe.  A process stage gets the
read end as stdin and the write end as stdout; each ``tee``, ``merge``
and ``split`` stage holds its ends in one thread inside this process,
running the record pump below.  A pipe with a ``primer`` (a cycle's
``seed``) has it written in as the pipe is made; no stage or thread
runs for it.  Each descriptor has one owner: a process's ends are
closed here once it is spawned, a synthetic stage's by its thread, so
end-of-file propagates the moment a writer exits.

Before the first stage starts, ``run`` makes the run directory (its
own unless it is given one), the broker of a system with an ``Event``
connector, each ``RPC``/``DataAccess`` endpoint's path in the stages'
environment, and the pipes and files, in that order, on one
``ExitStack`` that undoes them in reverse once the last stage stops or
a start fails.  A file that cannot be opened, a NUL in its path
included, is an ``IoError`` raised before any stage starts; an
``impl`` that cannot be spawned, a NUL in it included, is a spawn
failure (status 127).

One poll over a pidfd per process (Linux >= 5.3) reaps them all, and
the stage threads are joined, against one deadline.  A downstream stage
that stops reading kills its upstream with SIGPIPE; that death is
reported as early_close, not failure.  Any stage still running at the
deadline is a timeout (status 124): the processes left are killed and,
with the threads, get one shared 5 s grace.
"""

from __future__ import annotations

import fcntl
import os
import select
import signal
import subprocess
import tempfile
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Iterable

from .diagnostics import fail
from .plan import PROCESS, SPLIT, BuildPlan, Channel, Stage

SIGPIPE_STATUS = -int(signal.SIGPIPE)

# Buffer of the record pump per input, reused for every read: a default
# pipe's capacity, so one read takes what a full pipe holds.  The fan-out
# benchmark's peak RSS read 46.85 MB with 16 KiB reads into fresh bytes and
# 46.90 MB with this (medians of 10 runs, BENCH_pump_buffers.json).
CHUNK = 64 << 10


@dataclass
class RunReport:
    statuses: dict[str, int] = field(default_factory=dict)
    spawn_failures: dict[str, str] = field(default_factory=dict)
    early_close: frozenset[str] = frozenset()
    channel_bytes: dict[str, int] = field(default_factory=dict)
    channel_records: dict[str, int] = field(default_factory=dict)
    stage_errors: dict[str, str] = field(default_factory=dict)
    unheard_events: int = 0  # events the broker delivered to no listener
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
    report = RunReport()
    env_base = dict(os.environ)
    read_fd: dict[str, int] = {}
    write_fd: dict[str, int] = {}
    procs: dict[str, subprocess.Popen] = {}
    pidfds: dict[int, str] = {}  # a pidfd turns a process's exit into a poll event
    threads: list[threading.Thread] = []
    with ExitStack() as stack:
        rt_dir = runtime_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="archon-run-", ignore_cleanup_errors=True)
        )
        if built.broker:
            from .broker import EventBroker  # only a system with an Event connector loads it

            broker = EventBroker(os.path.join(rt_dir, built.broker))
            # stop() joins the connection threads, so the count read after it is final
            stack.callback(lambda: setattr(report, "unheard_events", broker.unheard))
            env_base["ARCHON_BROKER"] = stack.enter_context(broker).endpoint
        for conn, endpoint in built.rpc:
            env_base[_env_name(conn)] = os.path.join(rt_dir, endpoint)

        @stack.callback
        def reap() -> None:
            # what runs past the deadline or was left by a failed start is
            # killed, and the processes and threads share one grace
            stragglers = [proc for proc in procs.values() if proc.returncode is None]
            for proc in stragglers:
                proc.kill()
            if stragglers:
                _wait(procs, pidfds, threads, time.monotonic() + 5, report)
            # a process whose pidfd_open failed has no pidfd to poll
            for name in procs.keys() - pidfds.values() - report.statuses.keys():
                procs[name].wait()
            _close_all(pidfds)

        try:
            for channel in built.channels:
                if channel.kind == "pipe":
                    read_fd[channel.name], write_fd[channel.name] = os.pipe()
                    if channel.primer:
                        _prime(write_fd[channel.name], channel, report)
                    continue
                reading = channel.kind == "file-in"
                flags = os.O_RDONLY if reading else os.O_WRONLY | os.O_CREAT | os.O_TRUNC
                try:
                    fd = os.open(channel.path, flags, 0o644)
                except (OSError, ValueError) as err:  # ValueError: a NUL in the path
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
                except (OSError, ValueError) as err:  # ValueError: a NUL in the argv
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
    report.early_close = frozenset(
        name for name, status in report.statuses.items() if status == SIGPIPE_STATUS
    )
    for channel in built.channels:
        if channel.kind in ("file-in", "file-out"):
            try:
                report.channel_bytes[channel.name] = os.path.getsize(channel.path)
            except OSError:
                pass
    report.duration = time.monotonic() - started
    report.overall = _overall(built, report)
    return report


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


def _prime(fd: int, channel: Channel, report: RunReport) -> None:
    """Write the channel's primer into its empty pipe ``fd`` without
    blocking, growing the pipe first if the primer is larger than it."""
    primer = channel.primer.encode("utf-8")
    try:
        if len(primer) > fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ):
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, len(primer))
        os.set_blocking(fd, False)
        _write_all(fd, primer)
    except OSError as err:  # a full pipe raises BlockingIOError
        raise fail("IoError", f"cannot seed '{channel.name}' with {len(primer)} bytes: {err}")
    finally:
        # O_NONBLOCK is shared with the producer that inherits this end
        os.set_blocking(fd, True)
    # every record ends in a newline but possibly the last one
    records = primer.count(b"\n") + (not primer.endswith(b"\n"))
    _count(report, channel.name, len(primer), records)


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

    Each input owns one buffer of CHUNK bytes, reused for every read.  A
    ready input gets one read into its buffer, behind the record cut
    short there; the chunk is cut after its last newline, and the tail
    moves to the buffer's front to wait for the rest of its record.  A
    record longer than the buffer grows it, so an input holds at most
    about twice its longest record.  At end of input the tail goes out as
    a record of its own.  The whole records are written before the next
    read, so a cycle cannot stall on records held back here.  ``tee``
    writes them to every output and ``merge`` forwards them, both
    straight from the buffer; ``split`` deals them round-robin one record
    at a time.  An output whose reader has gone is dropped; the stage
    ends when its inputs are at end of file or no output is left.  It
    closes every descriptor it was given, and a failure is recorded in
    ``report.stage_errors``.
    """
    live = dict(outs)
    dealt = 0  # records dealt so far, so split's round-robin spans chunks
    try:
        # poll, not epoll: epoll refuses the regular file a head split reads
        poller = select.poll()
        held: dict[int, tuple[bytearray, int]] = {}  # per input: buffer, bytes cut short
        for fd in ins:
            poller.register(fd, select.POLLIN)
            held[fd] = (bytearray(CHUNK), 0)
        while held and live:
            for fd, _ in poller.poll():
                buf, start = held[fd]
                if start == len(buf):  # one record fills it; no view is out to stop a resize
                    buf.extend(bytes(start))
                with memoryview(buf) as view:
                    got = os.readv(fd, [view[start:]])
                    if got:
                        end = start + got
                        cut = buf.rfind(b"\n", start, end) + 1
                        if not cut:  # still inside one record
                            held[fd] = (buf, end)
                            continue
                    else:
                        poller.unregister(fd)
                        del held[fd]
                        if not start:
                            continue
                        cut = end = start
                    if stage.kind != SPLIT:
                        # what was held has no newline, nor has a last record
                        records = buf.count(b"\n", start, cut) if got else 1
                        for channel in stage.writes:
                            _emit(live, channel, view[:cut], records, report)
                    else:
                        lines = bytes(view[: cut - (got > 0)]).split(b"\n")
                        n = len(stage.writes)
                        for i, channel in enumerate(stage.writes):
                            mine = lines[(i - dealt) % n :: n]
                            if mine:
                                data = b"\n".join(mine) + b"\n" * (got > 0)
                                _emit(live, channel, data, len(mine), report)
                        dealt += len(lines)
                    if got:  # the tail moves to the front, the buffer keeps its size
                        buf[: end - cut] = view[cut:end]
                        held[fd] = (buf, end - cut)
    except Exception as exc:
        report.stage_errors[stage.name] = f"{type(exc).__name__}: {exc}"
    finally:
        _close_all([*ins, *outs.values()])


def _emit(
    live: dict[str, int], channel: str, data: bytes | memoryview, records: int, report: RunReport
) -> None:
    """Write all of ``data``, ``records`` records, to a live output, or drop
    it if its reader left."""
    fd = live.get(channel)
    if fd is None:
        return
    try:
        _write_all(fd, data)
    except BrokenPipeError:
        del live[channel]
        return
    _count(report, channel, len(data), records)


def _write_all(fd: int, data: bytes | memoryview) -> None:
    view = memoryview(data)
    while view:  # os.write may take only part of it
        view = view[os.write(fd, view) :]


def _count(report: RunReport, channel: str, nbytes: int, records: int) -> None:
    """Add ``nbytes`` bytes and ``records`` records, written to ``channel``,
    to the report's channel counts."""
    # a channel has one writer, so no other thread updates these entries
    report.channel_bytes[channel] = report.channel_bytes.get(channel, 0) + nbytes
    report.channel_records[channel] = report.channel_records.get(channel, 0) + records
