"""Cross-namespace connectivity by logical service name.

A site is a private endpoint namespace (a directory of UNIX sockets)
with a registry mapping logical names to endpoints inside it.  Two
sites joined by a relay reach each other's registered services by name
only; concrete endpoints never cross the link, and both sites may bind
identical endpoint values without conflict.

Stream protocol over one relay connection, multiplexed by stream id:

    FWD  name=svc  payload=b""      open a stream to logical service svc
    FWD  name=""   payload=chunk    data, forwarded bytewise in order
    FWD  name=""   payload=b""      half-close (EOF) for that direction
    RSP  correlation=stream id      relay-level error, payload "Code: why"

Names are never empty, so the open frame cannot be mistaken for EOF.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading

from .diagnostics import ArchonError, fail
from .frames import FWD, MAX_FRAME_BYTES, RSP, Frame, read_frame, write_frame
from .server import SocketClient, SocketServer

RELAY_SOCKET = "relay.sock"

_CHUNK = 1 << 16


# --- sites and routes -------------------------------------------------------


class Site:
    def __init__(self, name: str, root: str, registry: dict[str, str] | None = None):
        self.name = name
        self.root = root
        self.registry = dict(registry or {})

    def endpoint_path(self, logical: str) -> str:
        return os.path.join(self.root, self.registry[logical])


def make_site(name: str, root: str) -> Site:
    os.makedirs(root, exist_ok=True)
    return Site(name, root)


def register_service(site: Site, logical: str, endpoint: str) -> Site:
    """Value-style: returns an extended site, original untouched."""
    if not logical:
        raise fail("BadLogicalName", "logical name must be non-empty")
    if logical in site.registry:
        raise fail(
            "DuplicateLogicalName",
            f"'{logical}' is already registered in site '{site.name}'",
        )
    if os.path.isabs(endpoint) or ".." in endpoint.split(os.sep):
        raise fail(
            "BadEndpoint",
            f"endpoint '{endpoint}' must stay inside the namespace of site '{site.name}'",
        )
    extended = dict(site.registry)
    extended[logical] = endpoint
    return Site(site.name, site.root, extended)


class RelayLink:
    def __init__(self, site_a: Site, site_b: Site) -> None:
        self.site_a = site_a
        self.site_b = site_b

    def site(self, name: str) -> Site:
        if name == self.site_a.name:
            return self.site_a
        if name == self.site_b.name:
            return self.site_b
        raise fail("UnknownSite", f"no site '{name}' on this link")

    def peer(self, name: str) -> Site:
        return self.site_b if name == self.site_a.name else self.site_a

    def owner(self, logical: str) -> Site | None:
        """The forwarding table: names registered in exactly one site."""
        in_a = logical in self.site_a.registry
        in_b = logical in self.site_b.registry
        if in_a == in_b:
            return None
        return self.site_a if in_a else self.site_b


class Route:
    def __init__(self, kind: str, endpoint: str, service: str = "") -> None:
        self.kind = kind          # "direct" | "via-relay"
        self.endpoint = endpoint  # always within the caller's own namespace
        self.service = service


def resolve(link: RelayLink, from_site: str, logical: str) -> Route:
    site = link.site(from_site)
    peer = link.peer(from_site)
    local = logical in site.registry
    remote = logical in peer.registry
    if local and remote:
        raise fail("AmbiguousName", f"'{logical}' is registered in both sites")
    if local:
        return Route("direct", site.endpoint_path(logical))
    if remote:
        return Route("via-relay", os.path.join(site.root, RELAY_SOCKET), logical)
    raise fail("NotFound", f"no service '{logical}' reachable from site '{from_site}'")


# --- the relay itself -------------------------------------------------------


class Relay(SocketServer):
    """Listens inside both namespaces; forwards streams to name owners."""

    def __init__(self, link: RelayLink) -> None:
        sites = (link.site_a, link.site_b)
        super().__init__("relay at", *(os.path.join(s.root, RELAY_SOCKET) for s in sites))
        self.link = link

    def _serve(self, client: socket.socket) -> None:
        write_lock = threading.Lock()
        lock = threading.Lock()
        backends: dict[int, socket.socket] = {}
        open_ends: dict[int, set[str]] = {}

        def to_client(frame: Frame) -> None:
            with write_lock:
                try:
                    write_frame(client, frame)
                except OSError:
                    self._count_error()

        def ended(stream_id: int, direction: str) -> None:
            # a stream's backend is closed once both directions saw EOF
            with lock:
                ends = open_ends.get(stream_id)
                if ends is None:
                    return
                ends.discard(direction)
                if ends:
                    return
                del open_ends[stream_id]
                backend = backends.pop(stream_id)
            self._release(backend)

        def backend_reader(stream_id: int, backend: socket.socket) -> None:
            while True:
                try:
                    chunk = backend.recv(_CHUNK)
                except OSError:
                    chunk = b""
                to_client(Frame(FWD, chunk, stream_id=stream_id))  # empty is EOF
                if not chunk:
                    ended(stream_id, "down")
                    return

        try:
            while (frame := read_frame(client)) is not None:
                if frame.kind != FWD:
                    continue
                sid = frame.stream_id
                if frame.name:
                    owner = self.link.owner(frame.name)
                    if owner is None:
                        to_client(
                            Frame(
                                RSP,
                                f"UnknownService: no service '{frame.name}' on this link".encode(),
                                correlation=sid,
                            )
                        )
                        continue
                    backend = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    try:
                        backend.connect(owner.endpoint_path(frame.name))
                    except OSError as err:
                        backend.close()
                        to_client(
                            Frame(RSP, f"PeerDown: {err}".encode(), correlation=sid)
                        )
                        continue
                    self._track(backend)
                    with lock:
                        backends[sid] = backend
                        open_ends[sid] = {"up", "down"}
                    self._spawn(backend_reader, sid, backend)
                    if frame.payload:
                        backend.sendall(frame.payload)
                    continue
                backend = backends.get(sid)
                if backend is None:
                    continue
                try:
                    if frame.payload:
                        backend.sendall(frame.payload)
                    else:
                        backend.shutdown(socket.SHUT_WR)
                except OSError:
                    self._count_error()
                if not frame.payload:
                    ended(sid, "up")
        finally:
            with lock:
                rest = list(backends.values())
                backends.clear()
                open_ends.clear()
            for backend in rest:
                self._release(backend)


# --- caller-side multiplexing ----------------------------------------------


class RelayConnection(SocketClient):
    """One socket to the local relay endpoint, many independent streams."""

    def __init__(self, relay_endpoint: str) -> None:
        self._ids = itertools.count(1)
        self._streams: dict[int, "RelayStream"] = {}
        self._lock = threading.Lock()
        super().__init__(relay_endpoint, "PeerDown", "relay")

    def open_stream(self, service: str) -> "RelayStream":
        sid = next(self._ids)
        stream = RelayStream(self, sid)
        with self._lock:
            self._streams[sid] = stream
        try:
            self._send(Frame(FWD, b"", name=service, stream_id=sid))
        except ArchonError:
            self._forget(sid)  # never opened, so nothing will end it
            raise
        return stream

    def _forget(self, stream_id: int) -> None:
        with self._lock:
            self._streams.pop(stream_id, None)

    def _on_frame(self, frame: Frame) -> None:
        with self._lock:
            stream = self._streams.get(frame.stream_id if frame.kind == FWD else frame.correlation)
        if stream is None:
            return
        if frame.kind == RSP:
            code, _, message = frame.payload.decode("utf-8", "replace").partition(": ")
            stream._push_end(fail(code or "RelayError", message))
        elif frame.kind == FWD:
            if frame.payload:
                stream._push_data(frame.payload)
            else:
                stream._push_end(None)

    def _on_end(self, failure: ArchonError | None) -> None:
        with self._lock:
            streams = list(self._streams.values())
        for stream in streams:
            stream._push_end(failure)


class RelayStream:
    """Socket-shaped: sendall / recv / close, so protocol clients stack on it."""

    def __init__(self, conn: RelayConnection, stream_id: int) -> None:
        self._conn = conn
        self._id = stream_id
        self._buf = bytearray()
        self._eof = False
        self._error: ArchonError | None = None
        self._cond = threading.Condition()
        self._closed = False

    def sendall(self, data: bytes) -> None:
        with self._cond:
            self._raise_if_error()
        limit = MAX_FRAME_BYTES - 64  # headroom for kind + headers
        for i in range(0, len(data), limit):
            self._conn._send(Frame(FWD, bytes(data[i : i + limit]), stream_id=self._id))

    def recv(self, n: int) -> bytes:
        with self._cond:
            while not self._buf and not self._eof:
                self._cond.wait()
            self._raise_if_error()
            if self._buf:
                out = bytes(self._buf[:n])
                del self._buf[:n]
                return out
            return b""

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
        try:
            self._conn._send(Frame(FWD, b"", stream_id=self._id))
        except ArchonError:
            pass  # the relay is gone; there is no one left to tell
        self._forget_if_done()

    def shutdown(self, how: int) -> None:
        self.close()

    def _push_data(self, payload: bytes) -> None:
        with self._cond:
            self._buf.extend(payload)
            self._cond.notify_all()

    def _push_end(self, error: ArchonError | None) -> None:
        """EOF for this stream, or the relay-level error that ended it."""
        with self._cond:
            self._eof = True
            self._error = error or self._error
            self._cond.notify_all()
        self._forget_if_done()

    def _forget_if_done(self) -> None:
        # the connection holds a stream until it has sent its close and
        # heard EOF or an error back
        with self._cond:
            done = self._closed and self._eof
        if done:
            self._conn._forget(self._id)

    def _raise_if_error(self) -> None:  # called holding _cond
        if self._error is not None:
            raise ArchonError(self._error.diagnostic)
