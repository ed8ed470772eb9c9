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

Reading.  A long-lived connection is read in bursts by ``bursts``: each
``recv_into`` fills one 16 KiB buffer per connection, and every frame that
read completed comes out as one list, in arrival order.  A partial frame
stays in the buffer for the next read; a frame larger than the buffer grows
it to that frame's size, and it shrinks back once the frame is out.  The
cap is checked on the 4-byte header, before any of the body is buffered,
and the whole frames ahead of a bad header or body are delivered before
the error is raised.  ``read_frame`` reads exactly one frame and nothing
past it, for a handshake that hands the connection on as a raw stream.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass, field

from .diagnostics import ArchonError, fail

EVT = 1
REQ = 2
RSP = 3
REG = 4
FWD = 5

KIND_NAMES = {EVT: "EVT", REQ: "REQ", RSP: "RSP", REG: "REG", FWD: "FWD"}

MAX_FRAME_BYTES = 1 << 20

_BURST = 1 << 14  # bytes a burst reader holds between frames

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
    return _decode(body, 0, len(body))


def _decode(buf, at: int, end: int) -> Frame:
    """Decode the frame body ``buf[at:end]``; ``buf`` is bytes or a memoryview."""
    if at >= end:
        raise fail("BadFrame", "empty frame body")
    kind = buf[at]
    if kind not in KIND_NAMES:
        raise fail("BadFrame", f"unknown frame kind {kind}")
    at += 1
    if kind in (EVT, REG):
        if end - at < 2:
            raise fail("BadFrame", "truncated topic header")
        (tlen,) = _SHORT.unpack_from(buf, at)
        at += 2
        if end - at < tlen:
            raise fail("BadFrame", "truncated topic")
        topic = _text(buf[at : at + tlen], "topic")
        return Frame(kind, bytes(buf[at + tlen : end]), topic=topic)
    if kind in (REQ, RSP):
        if end - at < 8:
            raise fail("BadFrame", "truncated correlation id")
        (corr,) = _CORR.unpack_from(buf, at)
        return Frame(kind, bytes(buf[at + 8 : end]), correlation=corr)
    if end - at < 2:
        raise fail("BadFrame", "truncated name header")
    (nlen,) = _SHORT.unpack_from(buf, at)
    at += 2
    if end - at < nlen + 8:
        raise fail("BadFrame", "truncated forward header")
    name = _text(buf[at : at + nlen], "service name")
    (stream_id,) = _CORR.unpack_from(buf, at + nlen)
    return Frame(kind, bytes(buf[at + nlen + 8 : end]), name=name, stream_id=stream_id)


def _text(raw, what: str) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError:
        raise fail("BadFrame", f"{what} is not UTF-8") from None


def bursts(sock) -> Iterator[list[Frame]]:
    """The frames of a connection, one list per ``recv_into`` that completed any.

    Ends on EOF between frames; EOF inside a frame is a BadFrame.
    """
    buf = bytearray(_BURST)
    view = memoryview(buf)
    start = end = 0  # buf[start:end] is read but not yet decoded
    while True:
        got = sock.recv_into(view[end:])
        if not got:
            if end > start:
                raise fail("BadFrame", "connection closed mid-frame")
            return
        end += got
        frames = []
        failure = None
        need = 0  # the whole size of the frame left partial, once its header is in
        while end - start >= 4:
            (length,) = _LEN.unpack_from(buf, start)
            if length > MAX_FRAME_BYTES:
                failure = _too_large(length)
                break
            need = 4 + length
            if start + need > end:
                break
            try:
                frames.append(_decode(view, start + 4, start + need))
            except ArchonError as exc:
                failure = exc
                break
            start += need
            need = 0
        if frames:
            yield frames
            del frames  # the next read waits holding no frame
        if failure is not None:
            raise failure
        # the partial frame moves to the front of a buffer that holds all of it
        left = end - start
        size = max(_BURST, need)
        if size != len(buf):
            grown = bytearray(size)
            grown[:left] = view[start:end]
            view.release()
            buf, view = grown, memoryview(grown)
        elif start:
            view[:left] = view[start:end]
        start, end = 0, left


def read_frame(sock) -> Frame | None:
    """Read one frame from a socket-like object. None on clean EOF."""
    head = _read_exact(sock, 4)
    if head is None:
        return None
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise _too_large(length)
    body = _read_exact(sock, length)
    if body is None:
        raise fail("BadFrame", "connection closed mid-frame")
    return decode(body)


def _too_large(length: int) -> ArchonError:
    return fail("FrameTooLarge", f"peer announced {length} byte frame, cap is {MAX_FRAME_BYTES}")


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
