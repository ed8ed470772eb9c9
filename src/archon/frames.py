"""Binary framing shared by the event broker, RPC endpoints, and site relays.

A frame on the wire is:

    4 bytes  big-endian length of everything after this field
    1 byte   kind
    header   kind-specific, see below
    payload  raw bytes

Kind headers:

    EVT, REG   2-byte big-endian topic length, then the UTF-8 topic
    REQ, RSP   8-byte big-endian correlation id
    FWD        2-byte big-endian name length, UTF-8 name, 8-byte stream id

The length field counts the kind byte, the header, and the payload, and is
capped at 1 MiB in both directions: encoding a larger frame raises, and a
reader that sees a larger length aborts instead of buffering it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .diagnostics import fail

EVT = 1
REQ = 2
RSP = 3
REG = 4
FWD = 5

KIND_NAMES = {EVT: "EVT", REQ: "REQ", RSP: "RSP", REG: "REG", FWD: "FWD"}

MAX_FRAME_BYTES = 1 << 20

_LEN = struct.Struct(">I")
_SHORT = struct.Struct(">H")
_CORR = struct.Struct(">Q")


@dataclass(frozen=True)
class Frame:
    kind: int
    payload: bytes = b""
    topic: str = ""          # EVT / REG
    correlation: int = 0     # REQ / RSP
    name: str = ""           # FWD
    stream_id: int = field(default=0)  # FWD

    def __post_init__(self) -> None:
        if self.kind not in KIND_NAMES:
            raise fail("BadFrame", f"unknown frame kind {self.kind}")


def encode(frame: Frame) -> bytes:
    if frame.kind in (EVT, REG):
        topic = frame.topic.encode("utf-8")
        if len(topic) > 0xFFFF:
            raise fail("BadFrame", "topic longer than 65535 bytes")
        header = _SHORT.pack(len(topic)) + topic
    elif frame.kind in (REQ, RSP):
        header = _CORR.pack(frame.correlation)
    else:  # FWD
        name = frame.name.encode("utf-8")
        if len(name) > 0xFFFF:
            raise fail("BadFrame", "service name longer than 65535 bytes")
        header = _SHORT.pack(len(name)) + name + _CORR.pack(frame.stream_id)
    body = bytes([frame.kind]) + header + frame.payload
    if len(body) > MAX_FRAME_BYTES:
        raise fail("FrameTooLarge", f"frame body is {len(body)} bytes, cap is {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def decode(body: bytes) -> Frame:
    """Decode a frame body (everything after the length prefix)."""
    if not body:
        raise fail("BadFrame", "empty frame body")
    kind = body[0]
    if kind not in KIND_NAMES:
        raise fail("BadFrame", f"unknown frame kind {kind}")
    rest = body[1:]
    if kind in (EVT, REG):
        if len(rest) < 2:
            raise fail("BadFrame", "truncated topic header")
        (tlen,) = _SHORT.unpack_from(rest)
        if len(rest) < 2 + tlen:
            raise fail("BadFrame", "truncated topic")
        topic = _text(rest[2 : 2 + tlen], "topic")
        return Frame(kind, rest[2 + tlen :], topic=topic)
    if kind in (REQ, RSP):
        if len(rest) < 8:
            raise fail("BadFrame", "truncated correlation id")
        (corr,) = _CORR.unpack_from(rest)
        return Frame(kind, rest[8:], correlation=corr)
    if len(rest) < 2:
        raise fail("BadFrame", "truncated name header")
    (nlen,) = _SHORT.unpack_from(rest)
    if len(rest) < 2 + nlen + 8:
        raise fail("BadFrame", "truncated forward header")
    name = _text(rest[2 : 2 + nlen], "service name")
    (stream_id,) = _CORR.unpack_from(rest, 2 + nlen)
    return Frame(kind, rest[2 + nlen + 8 :], name=name, stream_id=stream_id)


def _text(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise fail("BadFrame", f"{what} is not UTF-8") from None


def read_frame(sock) -> Frame | None:
    """Read one frame from a socket-like object. None on clean EOF."""
    head = _read_exact(sock, 4)
    if head is None:
        return None
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise fail("FrameTooLarge", f"peer announced {length} byte frame, cap is {MAX_FRAME_BYTES}")
    body = _read_exact(sock, length)
    if body is None:
        raise fail("BadFrame", "connection closed mid-frame")
    return decode(body)


def write_frame(sock, frame: Frame) -> None:
    sock.sendall(encode(frame))


def _read_exact(sock, n: int) -> bytes | None:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise fail("BadFrame", "connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)
