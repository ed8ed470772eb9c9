"""Cross-namespace connectivity by logical service name.

A site is a private endpoint namespace (a directory of UNIX sockets)
with a registry mapping logical names to endpoints inside it.  Two
sites joined by a relay reach each other's registered services by name
only; concrete endpoints never cross the link, and both sites may bind
identical endpoint values without conflict.

Each relay stream is its own connection to the caller's ``relay.sock``:

    FWD  name=svc               the caller opens a stream to logical service svc
    RSP  payload=b""            the relay: the stream is open
    RSP  payload="Code: why"    the relay: it is not (UnknownService,
                                PeerDown), and it closes the connection

After the empty RSP the connection carries raw bytes both ways, joined
to a connection of the relay's own to the service.  Each side ends its
direction by shutting down its writing half, and the relay passes that
EOF on.  A stream that is not read fills only its own socket buffers,
so it holds up only its own sender.
"""

from __future__ import annotations

import os
import socket
import threading

from .diagnostics import ArchonError, fail
from .frames import FWD, KIND_NAMES, RSP, Frame, encode, pack_correlated, read_frame
from .server import SocketServer, dial, shut

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
    """Listens inside both namespaces; joins each stream to its name's owner."""

    def __init__(self, link: RelayLink) -> None:
        sites = (link.site_a, link.site_b)
        super().__init__("relay at", *(os.path.join(s.root, RELAY_SOCKET) for s in sites))
        self.link = link

    def _serve(self, client: socket.socket) -> None:
        frame = read_frame(client)
        if frame is None:
            return
        if frame.kind != FWD or not frame.name:
            raise fail("BadFrame", "a relay stream opens with a named FWD frame")
        owner = self.link.owner(frame.name)
        if owner is None:
            why = f"UnknownService: no service '{frame.name}' on this link"
            client.sendall(pack_correlated(RSP, 0, why.encode()))
            return
        backend = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            backend.connect(owner.endpoint_path(frame.name))
        except OSError as err:
            backend.close()
            client.sendall(pack_correlated(RSP, 0, f"PeerDown: {err}".encode()))
            return
        self._track(backend)
        try:
            client.sendall(pack_correlated(RSP, 0, b""))
            down = self._spawn(self._copy, backend, client)
            self._copy(client, backend)
            down.join()
        finally:
            self._release(backend)

    def _copy(self, src: socket.socket, dst: socket.socket) -> None:
        """One direction of a stream: its bytes in order, then its EOF."""
        view = memoryview(bytearray(_CHUNK))  # one buffer, reused for every read
        try:
            while got := src.recv_into(view):
                dst.sendall(view[:got])
            dst.shutdown(socket.SHUT_WR)
        except OSError:
            # one end is gone: end both directions, so nothing waits on it
            self._count_error()
            shut(src)
            shut(dst)


# --- the caller side --------------------------------------------------------


class RelayConnection:
    """Opens streams through the local relay endpoint, one connection each."""

    def __init__(self, relay_endpoint: str) -> None:
        self._endpoint = relay_endpoint
        self._streams: set[RelayStream] = set()  # released by close()
        self._lock = threading.Lock()

    def open_stream(self, service: str) -> "RelayStream":
        opener = encode(Frame(FWD, name=service))
        sock = dial(self._endpoint, "PeerDown", "relay")
        try:
            sock.sendall(opener)
        except OSError as err:
            sock.close()
            raise fail("PeerDown", f"connection to relay closed: {err}") from None
        stream = RelayStream(self, sock)
        with self._lock:
            self._streams.add(stream)
        return stream

    def close(self) -> None:
        with self._lock:
            streams = list(self._streams)
        for stream in streams:
            self._release(stream)

    def _release(self, stream: "RelayStream") -> None:
        with self._lock:
            self._streams.discard(stream)
        shut(stream._sock)  # wakes a reader blocked in recv
        stream._sock.close()


class RelayStream:
    """Socket-shaped: sendall / recv / recv_into / fileno / shutdown / close,
    so protocol clients stack on it."""

    def __init__(self, conn: RelayConnection, sock: socket.socket) -> None:
        self._conn = conn
        self._sock = sock
        self._answered = False
        self._lock = threading.Lock()
        self._closed = False
        self._ended = False

    def sendall(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as err:
            raise fail("PeerDown", f"relay stream closed: {err}") from None

    def recv(self, n: int) -> bytes:
        return self._read(self._sock.recv, n) or b""

    def recv_into(self, buffer, nbytes: int = 0, flags: int = 0) -> int:
        return self._read(self._sock.recv_into, buffer, nbytes, flags) or 0

    def _read(self, read, *args):
        """``read(*args)`` after the relay's answer; falsy at the end of the stream."""
        try:
            if not self._answered:
                self._answered = True
                self._read_answer()
            got = read(*args)
        except BlockingIOError:
            raise  # MSG_DONTWAIT and nothing yet: not the end of the stream
        except OSError:
            got = None  # a reset stream ends like EOF
        except ArchonError:
            shut(self._sock)  # the relay sees this end hang up
            self._settle(ended=True)
            raise
        if not got:
            self._settle(ended=True)
        return got

    def close(self) -> None:
        """Half-close: the service sees EOF, and replies still arrive."""
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the relay is gone; there is no one left to tell
        self._settle(closed=True)

    def shutdown(self, how: int) -> None:
        """SHUT_RDWR ends both directions and releases the stream; else close()."""
        if how == socket.SHUT_RDWR:
            self._conn._release(self)
        else:
            self.close()

    def fileno(self) -> int:
        return self._sock.fileno()

    def _read_answer(self) -> None:
        frame = read_frame(self._sock)
        if frame is None:
            return  # the relay went away; recv finds the same EOF
        if frame.kind != RSP:
            raise fail("BadFrame", f"relay answered a stream open with {KIND_NAMES[frame.kind]}")
        if frame.payload:
            code, _, why = frame.payload.decode("utf-8", "replace").partition(": ")
            raise fail(code or "RelayError", why)

    def _settle(self, closed: bool = False, ended: bool = False) -> None:
        # the socket is released once it is closed and has seen EOF or an error
        with self._lock:
            self._closed |= closed
            self._ended |= ended
            done = self._closed and self._ended
        if done:
            self._conn._release(self)
