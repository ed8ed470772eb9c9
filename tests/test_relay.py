import os
import random
import socket
import struct
import sys
import tempfile
import threading
import time

import pytest

from archon.diagnostics import ArchonError
from archon.frames import MAX_FRAME_BYTES, REQ, Frame, read_frame, write_frame
from archon.relay import (
    Relay,
    RelayConnection,
    RelayLink,
    make_site,
    register_service,
    resolve,
)
from archon.rpc import RpcClient, RpcServer
from archon.server import shut


@pytest.fixture
def roots():
    base = tempfile.mkdtemp(prefix="archon-")
    return os.path.join(base, "a"), os.path.join(base, "b")


class _echo_server:
    """Raw byte echo on a UNIX socket, one connection at a time, until close()."""

    def __init__(self, path):
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(path)
        self.listener.listen()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            while True:
                try:
                    chunk = sock.recv(1 << 16)
                except OSError:
                    break
                if not chunk:
                    break
                sock.sendall(chunk)
            sock.close()

    def close(self):
        # close() alone leaves a blocked accept() waiting on a stale descriptor
        shut(self.listener)
        self.listener.close()
        self.thread.join(5)


def test_register_and_duplicate(roots):
    site = make_site("A", roots[0])
    site = register_service(site, "db", "db.sock")
    assert site.registry == {"db": "db.sock"}
    with pytest.raises(ArchonError) as exc:
        register_service(site, "db", "other.sock")
    assert exc.value.code == "DuplicateLogicalName"


def test_an_unknown_site_and_an_empty_logical_name_are_refused(roots):
    a, b = make_site("A", roots[0]), make_site("B", roots[1])
    link = RelayLink(a, b)
    assert link.site("A") is a and link.site("B") is b
    with pytest.raises(ArchonError) as exc:
        link.site("C")
    assert exc.value.code == "UnknownSite"
    with pytest.raises(ArchonError) as exc:
        register_service(a, "", "x.sock")
    assert exc.value.code == "BadLogicalName"
    assert a.registry == {}


def test_overlapping_endpoint_values_are_legal(roots):
    a = register_service(make_site("A", roots[0]), "db", "svc.sock")
    b = register_service(make_site("B", roots[1]), "cache", "svc.sock")
    assert a.registry["db"] == b.registry["cache"] == "svc.sock"
    assert a.endpoint_path("db") != b.endpoint_path("cache")


def test_endpoint_must_stay_in_namespace(roots):
    site = make_site("A", roots[0])
    for bad in ("/etc/passwd", "../escape.sock"):
        with pytest.raises(ArchonError) as exc:
            register_service(site, "svc", bad)
        assert exc.value.code == "BadEndpoint"


def test_resolve_direct_relay_notfound_ambiguous(roots):
    a = register_service(make_site("A", roots[0]), "db", "db.sock")
    a = register_service(a, "both", "x.sock")
    b = register_service(make_site("B", roots[1]), "svc", "svc.sock")
    b = register_service(b, "both", "y.sock")
    link = RelayLink(a, b)

    direct = resolve(link, "A", "db")
    assert direct.kind == "direct"
    assert direct.endpoint == os.path.join(roots[0], "db.sock")

    via = resolve(link, "A", "svc")
    assert via.kind == "via-relay"
    assert via.service == "svc"
    assert via.endpoint.startswith(roots[0])  # never the remote endpoint

    with pytest.raises(ArchonError) as exc:
        resolve(link, "A", "nope")
    assert exc.value.code == "NotFound"
    with pytest.raises(ArchonError) as exc:
        resolve(link, "A", "both")
    assert exc.value.code == "AmbiguousName"


def test_echo_round_trip_64k(roots):
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "echo", "echo.sock")
    listener = _echo_server(b.endpoint_path("echo"))
    link = RelayLink(a, b)
    with Relay(link):
        route = resolve(link, "A", "echo")
        conn = RelayConnection(route.endpoint)
        stream = conn.open_stream(route.service)
        payload = random.Random(5).randbytes(64 * 1024)
        stream.sendall(payload)
        stream.close()
        got = bytearray()
        while len(got) < len(payload):
            chunk = stream.recv(1 << 16)
            if not chunk:
                break
            got.extend(chunk)
        assert bytes(got) == payload
        conn.close()
    listener.close()


def test_interleaved_streams_stay_intact(roots):
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "echo", "echo.sock")
    listener = _echo_server(b.endpoint_path("echo"))
    link = RelayLink(a, b)
    with Relay(link):
        conn = RelayConnection(resolve(link, "A", "echo").endpoint)
        streams = [conn.open_stream("echo") for _ in range(2)]
        for stream in streams:
            # a stream whose EOF the relay loses fails the test, not hangs it
            stream._sock.settimeout(10)
        payloads = [bytes([i]) * 5000 for i in range(2)]
        for i in range(5):
            for stream, payload in zip(streams, payloads):
                stream.sendall(payload[i * 1000 : (i + 1) * 1000])
        for stream in streams:
            stream.close()
        for stream, payload in zip(streams, payloads):
            got = bytearray()
            while len(got) < 5000:
                chunk = stream.recv(4096)
                if not chunk:
                    break
                got.extend(chunk)
            assert bytes(got) == payload
        conn.close()
    listener.close()


def test_unknown_service_error_frame(roots):
    a, b = make_site("A", roots[0]), make_site("B", roots[1])
    link = RelayLink(a, b)
    with Relay(link):
        conn = RelayConnection(os.path.join(roots[0], "relay.sock"))
        stream = conn.open_stream("ghost")
        with pytest.raises(ArchonError) as exc:
            stream.recv(16)
        assert exc.value.code == "UnknownService"
        conn.close()


def test_rpc_transparency_across_sites(roots):
    """Caller sees identical behavior whether the definer is local or remote."""
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "svc", "svc.sock")
    link = RelayLink(a, b)
    with RpcServer(b.endpoint_path("svc"), handler=lambda p: p[::-1], batch=2):
        with Relay(link):
            route = resolve(link, "A", "svc")
            conn = RelayConnection(route.endpoint)
            client = RpcClient(conn.open_stream(route.service))
            first = client.call_async(b"abc")
            second = client.call_async(b"defg")
            assert client.result(first) == b"cba"
            assert client.result(second) == b"gfed"
            client.close()
            conn.close()


def test_a_call_through_a_relay_times_out_on_a_mute_service(roots):
    """The relay's answer to the open arrives, the reply never does."""
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "svc", "svc.sock")
    mute = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)  # accepts, never answers
    mute.bind(b.endpoint_path("svc"))
    mute.listen()
    relay = Relay(RelayLink(a, b)).start()
    # a call that ignores its timeout fails the test when the relay stops, not hangs it
    stopper = threading.Timer(5, relay.stop)
    stopper.start()
    try:
        conn = RelayConnection(os.path.join(roots[0], "relay.sock"))
        client = RpcClient(conn.open_stream("svc"))
        t0 = time.monotonic()
        with pytest.raises(ArchonError) as exc:
            client.call(b"hello", timeout=0.5)
        assert exc.value.code == "DefinerUnavailable"
        assert time.monotonic() - t0 < 1.5
        client.close()
        conn.close()
    finally:
        stopper.cancel()
        relay.stop()
        mute.close()


def test_remote_endpoint_never_exposed(roots):
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "svc", "secret-name.sock")
    route = resolve(RelayLink(a, b), "A", "svc")
    for value in vars(route).values():
        assert "secret-name" not in str(value)
        assert roots[1] not in str(value)


def test_oversized_frame_from_relay_fails_its_streams(roots):
    os.makedirs(roots[0])
    path = os.path.join(roots[0], "relay.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen()

    def rogue():
        sock, _ = listener.accept()
        read_frame(sock)  # the stream's open frame
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        sock.recv(1)  # until the client shuts its end
        sock.close()

    thread = threading.Thread(target=rogue)
    thread.start()
    conn = RelayConnection(path)
    stream = conn.open_stream("svc")
    with pytest.raises(ArchonError) as exc:
        stream.recv(16)
    assert exc.value.code == "FrameTooLarge"
    thread.join(5)
    assert not thread.is_alive()
    conn.close()
    listener.close()


def test_dead_relay_ends_streams_and_fails_sends(roots):
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "echo", "echo.sock")
    listener = _echo_server(b.endpoint_path("echo"))
    link = RelayLink(a, b)
    relay = Relay(link).start()
    conn = RelayConnection(resolve(link, "A", "echo").endpoint)
    stream = conn.open_stream("echo")
    stream.sendall(b"ping")
    assert stream.recv(4) == b"ping"
    relay.stop()
    assert stream.recv(4) == b""
    with pytest.raises(ArchonError) as exc:
        stream.sendall(b"late")
    assert exc.value.code == "PeerDown"
    with pytest.raises(ArchonError) as exc:
        conn.open_stream("echo")
    assert exc.value.code == "PeerDown"
    stream.close()  # no relay left to tell; not an error
    assert not conn._streams  # neither the ended stream nor the failed open is kept
    conn.close()
    listener.close()


def test_a_stream_nobody_reads_does_not_stall_its_neighbours(roots):
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "echo", "echo.sock")
    b = register_service(b, "sink", "sink.sock")
    echo = _echo_server(b.endpoint_path("echo"))
    sink = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)  # never accepts, never reads
    sink.bind(b.endpoint_path("sink"))
    sink.listen()
    link = RelayLink(a, b)
    relay = Relay(link).start()
    conn = RelayConnection(resolve(link, "A", "echo").endpoint)
    stuck = conn.open_stream("sink")

    def flood():
        try:
            stuck.sendall(bytes(8 << 20))
        except ArchonError:
            pass  # the relay is stopped below

    flooder = threading.Thread(target=flood, daemon=True)
    flooder.start()
    time.sleep(0.2)  # the flood fills every buffer on its way to the sink
    answers = []

    def ping():
        try:
            stream = conn.open_stream("echo")
            stream.sendall(b"ping")
            answers.append(stream.recv(4))
        except ArchonError:
            pass  # the relay is stopped below

    pinger = threading.Thread(target=ping, daemon=True)
    pinger.start()
    pinger.join(1.0)
    try:
        assert answers == [b"ping"]
        assert flooder.is_alive()  # the flood is still blocked, on its own stream only
    finally:
        relay.stop()
        flooder.join(5)
        pinger.join(5)
        conn.close()
        sink.close()
        echo.close()


def test_an_unread_stream_holds_up_its_sender(roots):
    size = 32 << 20
    payload = bytes(range(256)) * (size // 256)
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "source", "source.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(b.endpoint_path("source"))
    listener.listen()
    sent = threading.Event()

    def source():
        sock, _ = listener.accept()
        try:
            sock.sendall(payload)
            sent.set()
            sock.shutdown(socket.SHUT_WR)
            sock.recv(1)  # until the caller closes its end
        except OSError:
            pass
        finally:
            sock.close()

    sender = threading.Thread(target=source, daemon=True)
    sender.start()
    link = RelayLink(a, b)
    with Relay(link):
        conn = RelayConnection(resolve(link, "A", "source").endpoint)
        stream = conn.open_stream("source")
        try:
            assert not sent.wait(1.0)  # held by the socket buffers, not buffered in memory
            got = []

            def drain():
                while chunk := stream.recv(1 << 16):
                    got.append(chunk)

            reader = threading.Thread(target=drain, daemon=True)
            reader.start()
            reader.join(10)
            assert not reader.is_alive()
            assert sent.is_set()
            assert b"".join(got) == payload
            stream.close()
            sender.join(5)
        finally:
            conn.close()
            listener.close()


def test_concurrent_streams_are_each_released(roots):
    """Whichever of close() and the end of its reads comes second releases a
    stream's socket, under many threads and frequent thread switches."""
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "svc", "svc.sock")
    link = RelayLink(a, b)
    failures = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with RpcServer(b.endpoint_path("svc")), Relay(link):
            conn = RelayConnection(resolve(link, "A", "svc").endpoint)

            def worker(k):
                for i in range(30):
                    payload = b"%d-%d" % (k, i)
                    try:
                        if i % 3 == 0:  # closed, then its reader sees EOF, then closed again
                            client = RpcClient(conn.open_stream("svc"))
                            got = client.call(payload)
                            client.close()
                        elif i % 3 == 1:  # closed once, then read to EOF
                            stream = conn.open_stream("svc")
                            write_frame(stream, Frame(REQ, payload, correlation=1))
                            stream.close()
                            got = read_frame(stream).payload
                            assert read_frame(stream) is None
                        else:  # refused, then closed
                            stream = conn.open_stream("ghost")
                            with pytest.raises(ArchonError, match="UnknownService"):
                                stream.recv(1)
                            stream.close()
                            got = payload
                    except (ArchonError, AssertionError) as exc:
                        got = exc
                    if got != payload:
                        failures.append(got)

            workers = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(30)
            assert not any(thread.is_alive() for thread in workers)
            assert failures == []
            deadline = time.monotonic() + 5
            while conn._streams and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not conn._streams
            conn.close()
    finally:
        sys.setswitchinterval(interval)
