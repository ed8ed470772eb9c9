"""Binary framing shared by the event broker, RPC endpoints, and site relays.

A frame on the wire is:

    4 bytes  big-endian length of everything after this field
    1 byte   kind
    header   kind-specific, see below
    payload  raw bytes

Kind headers (big-endian), and the struct that packs length, kind and header:

    REQ, RSP   8-byte correlation id             >IBQ  length, kind, correlation
    EVT, REG   2-byte topic length, UTF-8 topic  >IBH  length, kind, topic length
    FWD        2-byte name length, UTF-8 name,   >IBH  length, kind, name length;
               8-byte stream id                  >Q    the stream id, after the name

The length field counts the kind byte, the header, and the payload, and is
capped at 1 MiB in both directions: encoding a larger frame raises, and a
reader that sees a larger length aborts instead of buffering it.
``pack_correlated`` and ``pack_topic`` write the first two shapes, each in
one place: the RPC and event hot paths send their bytes and build no
``Frame``, and ``encode`` hands a ``Frame``'s fields to them.  A ``Frame``
is a tuple of its six fields; a decoded one is built in one step straight
from the bytes read.

Reading.  A long-lived connection is read in bursts by a ``BurstReader``:
each ``read`` is one ``recv_into`` into one 16 KiB buffer per connection,
and returns every frame that read completed as one list, in arrival order.
A partial frame stays in the buffer for the next read, so a caller may
wait for the connection to become readable between reads and give up
mid-frame; a frame larger than the buffer grows it to that frame's size,
and it shrinks back once the frame is out.  The cap is checked on the
4-byte header, before any of the body is buffered, and the whole frames
ahead of a bad header or body are returned before the error is raised.
``bursts`` is the same reader as a generator that blocks until each list
is non-empty.  ``read_frame`` reads exactly one frame and nothing past it,
for a handshake that hands the connection on as a raw stream.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from collections.abc import Iterator

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
_CORRELATED = struct.Struct(">IBQ")  # length, kind, correlation id
_TOPICAL = struct.Struct(">IBH")  # length, kind, topic or name length


class Frame(namedtuple("Frame", "kind payload topic correlation name stream_id")):
    """One frame; only the fields of its kind are set:
    ``topic`` (EVT, REG), ``correlation`` (REQ, RSP), ``name`` and ``stream_id`` (FWD)."""

    __slots__ = ()

    def __new__(cls, kind, payload=b"", topic="", correlation=0, name="", stream_id=0):
        if kind not in KIND_NAMES:
            raise fail("BadFrame", f"unknown frame kind {kind}")
        return tuple.__new__(cls, (kind, payload, topic, correlation, name, stream_id))


_new = tuple.__new__  # builds a Frame whose kind is already checked


def pack_correlated(kind: int, correlation: int, payload: bytes) -> bytes:
    """The bytes of a REQ or RSP frame."""
    size = 9 + len(payload)
    if size > MAX_FRAME_BYTES:
        raise fail("FrameTooLarge", f"frame body is {size} bytes, cap is {MAX_FRAME_BYTES}")
    return b"".join((_CORRELATED.pack(size, kind, correlation), payload))


def pack_topic(kind: int, topic: str, payload: bytes) -> bytes:
    """The bytes of an EVT or REG frame."""
    raw = topic.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise fail("BadFrame", "topic longer than 65535 bytes")
    size = 3 + len(raw) + len(payload)
    if size > MAX_FRAME_BYTES:
        raise fail("FrameTooLarge", f"frame body is {size} bytes, cap is {MAX_FRAME_BYTES}")
    return b"".join((_TOPICAL.pack(size, kind, len(raw)), raw, payload))


def encode(frame: Frame) -> bytes:
    kind, payload, topic, correlation, name, stream_id = frame
    if kind == REQ or kind == RSP:
        return pack_correlated(kind, correlation, payload)
    if kind == EVT or kind == REG:
        return pack_topic(kind, topic, payload)
    name = name.encode("utf-8")  # FWD
    if len(name) > 0xFFFF:
        raise fail("BadFrame", "service name longer than 65535 bytes")
    size = 11 + len(name) + len(payload)
    if size > MAX_FRAME_BYTES:
        raise fail("FrameTooLarge", f"frame body is {size} bytes, cap is {MAX_FRAME_BYTES}")
    return b"".join((_TOPICAL.pack(size, FWD, len(name)), name, _CORR.pack(stream_id), payload))


def decode(body: bytes) -> Frame:
    """Decode a frame body (everything after the length prefix)."""
    return _decode(body, 0, len(body))


def _decode(buf, at: int, end: int) -> Frame:
    """Decode the frame body ``buf[at:end]``; ``buf`` is bytes or a memoryview."""
    if at >= end:
        raise fail("BadFrame", "empty frame body")
    kind = buf[at]
    at += 1
    if kind == REQ or kind == RSP:
        if end - at < 8:
            raise fail("BadFrame", "truncated correlation id")
        (corr,) = _CORR.unpack_from(buf, at)
        return _new(Frame, (kind, bytes(buf[at + 8 : end]), "", corr, "", 0))
    if kind == EVT or kind == REG:
        if end - at < 2:
            raise fail("BadFrame", "truncated topic header")
        (tlen,) = _SHORT.unpack_from(buf, at)
        at += 2
        if end - at < tlen:
            raise fail("BadFrame", "truncated topic")
        topic = _text(buf[at : at + tlen], "topic")
        return _new(Frame, (kind, bytes(buf[at + tlen : end]), topic, 0, "", 0))
    if kind != FWD:
        raise fail("BadFrame", f"unknown frame kind {kind}")
    if end - at < 2:
        raise fail("BadFrame", "truncated name header")
    (nlen,) = _SHORT.unpack_from(buf, at)
    at += 2
    if end - at < nlen + 8:
        raise fail("BadFrame", "truncated forward header")
    name = _text(buf[at : at + nlen], "service name")
    (stream_id,) = _CORR.unpack_from(buf, at + nlen)
    return _new(Frame, (kind, bytes(buf[at + nlen + 8 : end]), "", 0, name, stream_id))


def _text(raw, what: str) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError:
        raise fail("BadFrame", f"{what} is not UTF-8") from None


class BurstReader:
    """Reads one connection a ``recv_into`` at a time, keeping a partial frame."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self._buf = bytearray(_BURST)
        self._view = memoryview(self._buf)
        self._end = 0  # buf[:end] is a partial frame, read but not yet decoded
        self._failure: ArchonError | None = None  # raised by the next read

    def read(self, flags: int = 0) -> list[Frame] | None:
        """One ``recv_into``: the frames it completed, maybe none; None on EOF
        between frames.  EOF inside a frame is a BadFrame.  A bad frame is
        raised by the read after the one that returned the frames ahead of it.
        ``flags`` go to ``recv_into``; with MSG_DONTWAIT a read that would
        block returns no frames.
        """
        if self._failure is not None:
            raise self._failure
        buf, view, end = self._buf, self._view, self._end
        into = view[end:]
        try:
            # no flags, no third argument: not every socket-like takes one
            got = self._sock.recv_into(into, 0, flags) if flags else self._sock.recv_into(into)
        except BlockingIOError:
            return []
        if not got:
            if end:
                raise fail("BadFrame", "connection closed mid-frame")
            return None
        end += got
        frames = []
        start = need = 0  # need: the whole size of the frame left partial, once its header is in
        while end - start >= 4:
            (length,) = _LEN.unpack_from(buf, start)
            if length > MAX_FRAME_BYTES:
                self._failure = _too_large(length)
                break
            need = 4 + length
            if start + need > end:
                break
            try:
                frames.append(_decode(view, start + 4, start + need))
            except ArchonError as exc:
                self._failure = exc
                break
            start += need
            need = 0
        if self._failure is not None and not frames:
            raise self._failure
        # a partial frame moves to the front of a buffer that holds all of it
        self._end = left = end - start
        size = max(_BURST, need)
        if size != len(buf):
            grown = bytearray(size)
            grown[:left] = view[start:end]
            view.release()
            self._buf, self._view = grown, memoryview(grown)
        elif left and start:
            view[:left] = view[start:end]
        return frames


def bursts(sock) -> Iterator[list[Frame]]:
    """The frames of a connection, one list per ``recv_into`` that completed any.

    Ends on EOF between frames; EOF inside a frame is a BadFrame.
    """
    reader = BurstReader(sock)
    while True:
        frames = reader.read()
        if frames is None:
            return
        if frames:
            yield frames
        del frames  # the next read waits holding no frame


def read_frame(sock) -> Frame | None:
    """Read one frame from a socket-like object. None on clean EOF."""
    head = _read_exact(sock, 4, eof_ok=True)
    if head is None:
        return None
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise _too_large(length)
    return decode(_read_exact(sock, length))


def _too_large(length: int) -> ArchonError:
    return fail("FrameTooLarge", f"peer announced {length} byte frame, cap is {MAX_FRAME_BYTES}")


def write_frame(sock, frame: Frame) -> None:
    sock.sendall(encode(frame))


def _read_exact(sock, n: int, eof_ok: bool = False) -> bytes | None:
    """``n`` bytes; None on EOF before the first of them if ``eof_ok``."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if eof_ok and got == 0:
                return None
            raise fail("BadFrame", "connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)
