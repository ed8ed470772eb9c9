"""The shared server core holds only what is live, and stop() joins all of it."""

import os
import tempfile
import threading
import time

from archon.broker import BrokerClient, EventBroker
from archon.relay import Relay, RelayConnection, RelayLink, make_site, register_service
from archon.relay import resolve as resolve_route
from archon.rpc import RpcClient, RpcServer

ROUNDS = 200


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _settle(condition, deadline: float = 5.0) -> bool:
    """Poll until condition() holds; threads finish shortly after a close."""
    end = time.monotonic() + deadline
    while not condition():
        if time.monotonic() > end:
            return False
        time.sleep(0.005)
    return True


def _link() -> tuple[str, RelayLink]:
    """Sites west and east; east registers an "echo" service."""
    base = tempfile.mkdtemp(prefix="archon-")
    west = make_site("west", os.path.join(base, "w"))
    east = register_service(make_site("east", os.path.join(base, "e")), "echo", "echo.sock")
    return base, RelayLink(west, east)


def test_connections_and_relay_streams_leave_nothing_behind():
    threads_before = threading.active_count()
    fds_before = _open_fds()
    base, link = _link()
    rpc = RpcServer(os.path.join(base, "rpc.sock")).start()
    broker = EventBroker(os.path.join(base, "bus.sock")).start()
    backend = RpcServer(link.site_b.endpoint_path("echo")).start()
    relay = Relay(link).start()
    servers = [rpc, broker, backend, relay]
    try:
        for i in range(ROUNDS):
            client = RpcClient(rpc.endpoint)
            assert client.call(b"%d" % i) == b"%d" % i
            client.close()
            announcer = BrokerClient(broker.endpoint)
            announcer.publish("t", b"%d" % i)
            announcer.close()

        route = resolve_route(link, "west", "echo")
        conn = RelayConnection(route.endpoint)
        fds_open = _open_fds()
        for i in range(ROUNDS):
            client = RpcClient(conn.open_stream(route.service))
            assert client.call(b"%d" % i) == b"%d" % i
            client.close()
        assert _settle(lambda: not conn._streams), f"{len(conn._streams)} streams kept"
        # a finished stream's backend socket is closed, not kept until conn ends
        assert _settle(lambda: _open_fds() <= fds_open + 5), (
            f"{_open_fds() - fds_open} fds left open by {ROUNDS} streams"
        )
        conn.close()

        for server in servers:
            assert _settle(lambda: len(server._threads) == len(server._listeners)), (
                f"{type(server).__name__} keeps {len(server._threads)} threads"
            )
            assert server.errors == 0
    finally:
        for server in servers:
            server.stop()
    assert _settle(lambda: threading.active_count() == threads_before)
    assert _settle(lambda: _open_fds() <= fds_before + 5)


def test_stop_while_a_stream_reader_is_starting(monkeypatch):
    _, link = _link()
    with RpcServer(link.site_b.endpoint_path("echo")), Relay(link):
        conn = RelayConnection(resolve_route(link, "west", "echo").endpoint)
        client = RpcClient(conn.open_stream("echo"))
        assert client.call(b"up") == b"up"  # the relay serves this connection
        real_start = threading.Thread.start

        def slow_start(thread):
            time.sleep(0.2)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", slow_start)
        conn.open_stream("echo")
        time.sleep(0.05)  # stop() now races the spawn of the stream's reader
    monkeypatch.undo()
    client.close()
    conn.close()
