"""Socket server and client cores shared by the event broker, RPC and relay.

A server binds one or more UNIX endpoints, runs one accept thread per
listener and one daemon thread per connection.  Threads and sockets sit
in live sets that they leave when they exit or close, so a long-running
server holds only what is in use and stop() shuts down and joins exactly
that.

A client holds one connection, read in bursts by a ``BurstReader``; it
starts no thread, and ``_send`` writes the wire bytes its caller packed.
Each client decides who reads: ``RpcClient`` reads on the caller's
thread, ``BrokerClient`` in a reader thread of its own.  A dead peer
ends the reads like EOF; the client reports it with its own error code,
both to the calls waiting on a reply and to the next send.  Every
client connection is made by ``dial``.
"""

from __future__ import annotations

import socket
import threading

from .diagnostics import ArchonError, fail
from .frames import BurstReader, Frame


def dial(endpoint: str, code: str, what: str) -> socket.socket:
    """Connect to the UNIX ``endpoint``; an unreachable peer raises ``code``."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.connect(endpoint)
    except OSError as err:
        sock.close()
        raise fail(code, f"cannot reach {what} at '{endpoint}': {err}")
    return sock


def shut(sock) -> None:
    """Shut down both directions of ``sock``; it may already be gone."""
    # close() alone does not wake a thread blocked in recv on the same socket
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


class SocketServer:
    """Subclasses define ``_serve(sock)``, run in a thread per connection."""

    def __init__(self, label: str, *endpoints: str) -> None:
        self._label = label
        self._endpoints = endpoints
        self._lock = threading.Lock()
        self._listeners: list[socket.socket] = []
        self._threads: set[threading.Thread] = set()
        self._socks: set[socket.socket] = set()
        self._stopped = False
        self._errors = 0

    @property
    def errors(self) -> int:
        """Server-side failures: bad frames, raising handlers, failed deliveries."""
        return self._errors

    def start(self):
        for path in self._endpoints:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                listener.bind(path)
            except OSError as err:
                listener.close()
                self.stop()
                raise fail("EndpointInUse", f"cannot bind {self._label} '{path}': {err}")
            listener.listen()
            self._listeners.append(listener)
        for listener in self._listeners:
            self._spawn(self._accept_loop, listener)
        return self

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            socks = [*self._listeners, *self._socks]
        for sock in socks:
            shut(sock)  # wakes the blocked accepts and reads
        for listener in self._listeners:
            listener.close()
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=2)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _spawn(self, target, *args) -> threading.Thread:
        """Run ``target(*args)`` in a daemon thread, live-listed while it runs."""

        def run() -> None:
            try:
                target(*args)
            finally:
                with self._lock:
                    self._threads.discard(thread)

        thread = threading.Thread(target=run, daemon=True)
        with self._lock:  # started under the lock: stop() never sees it unstarted
            thread.start()
            self._threads.add(thread)
        return thread

    def _track(self, sock: socket.socket) -> None:
        """Live-list a socket so stop() shuts it down."""
        with self._lock:
            self._socks.add(sock)
            if self._stopped:  # accepted while stop() was shutting the rest
                shut(sock)

    def _release(self, sock: socket.socket) -> None:
        with self._lock:
            self._socks.discard(sock)
        shut(sock)
        sock.close()

    def _count_error(self) -> None:
        with self._lock:
            self._errors += 1

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return
            self._track(sock)
            self._spawn(self._connection, sock)

    def _connection(self, sock: socket.socket) -> None:
        try:
            self._serve(sock)
        except Exception:
            # a bad frame or a raising handler ends this connection only
            self._count_error()
        finally:
            self._release(sock)

    def _serve(self, sock: socket.socket) -> None:
        raise NotImplementedError


class SocketClient:
    """Caller side of one frame connection.

    ``endpoint`` is a UNIX endpoint path to dial, or a socket-like
    transport (``sendall``/``recv_into``/``fileno``/``shutdown``/``close``).
    ``code`` names the peer's failure, raised when it cannot be reached and
    when a send finds it gone.  Subclasses read with ``_read`` and define
    ``_settle()``, which lets the reads in progress see the end of the
    connection; it runs after close() shuts the socket and before a failed
    send is reported, so a frame error the peer left is raised rather than
    the broken pipe.
    """

    def __init__(self, endpoint, code: str, what: str) -> None:
        self.sock = dial(endpoint, code, what) if isinstance(endpoint, str) else endpoint
        self._code = code
        self._what = what
        self._bursts = BurstReader(self.sock)
        self._failure: ArchonError | None = None  # why the reads stopped early
        self._write_lock = threading.Lock()

    def close(self) -> None:
        shut(self.sock)  # wakes a blocked read
        self._settle()
        try:
            self.sock.close()
        except OSError:
            pass

    def _send(self, wire: bytes) -> None:
        try:
            with self._write_lock:
                self.sock.sendall(wire)
        except OSError as err:
            self._settle()
            self._raise_failure()
            raise fail(self._code, f"connection to {self._what} closed: {err}") from None

    def _raise_failure(self) -> None:
        if self._failure is not None:
            raise ArchonError(self._failure.diagnostic)

    def _read(self, flags: int = 0) -> list[Frame] | None:
        """One burst of frames, maybe none; None once the connection has ended.

        A malformed or oversized frame is kept in ``_failure`` and shuts the
        socket, so the peer sees this end hang up; a reset ends like EOF.
        """
        try:
            return self._bursts.read(flags)
        except ArchonError as exc:
            self._failure = exc
            shut(self.sock)
        except OSError:
            pass
        return None

    def _settle(self) -> None:
        raise NotImplementedError
