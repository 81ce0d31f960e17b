"""Minimal topic broker over length-prefixed TCP frames.

Wire format: every message is a u32 big-endian byte count followed by that
many payload bytes.  Payload opcodes:

* 0x01 SUBSCRIBE: remaining bytes are the UTF-8 topic.
* 0x02 PUBLISH: u16 big-endian topic length, topic bytes, message bytes.

Deliveries to subscribers reuse the PUBLISH shape so one parser serves both
directions: the broker forwards each PUBLISH frame as it received it.
Topics match exactly (no wildcards).  Fan-out runs per received batch, the
frames one read returned, under a single dispatch lock, in arrival order, so
per-connection ordering is preserved.
There is no persistence and no acknowledgement; a publish with no subscribers
is dropped.  A malformed frame closes the offending connection.
"""

from __future__ import annotations

import logging
import random
import socket
import struct
import threading
import uuid
from collections import deque
from typing import Iterable

log = logging.getLogger(__name__)

OP_SUBSCRIBE = 0x01
OP_PUBLISH = 0x02

_LEN = struct.Struct(">I")
_TOPIC_LEN = struct.Struct(">H")
MAX_FRAME = 1 << 20  # sanity cap so a corrupt length cannot balloon memory
READ_SIZE = 1 << 16  # bytes asked of one recv, and the most one coalesced write sends
SYNC_PREFIX = "__sync/"  # single-use echo topics of BrokerClient.sync


class ProtocolError(ValueError):
    pass


def encode_subscribe(topic: str) -> bytes:
    return bytes([OP_SUBSCRIBE]) + topic.encode("utf-8")


def encode_publish(topic: str, payload: bytes) -> bytes:
    data = topic.encode("utf-8")
    return bytes([OP_PUBLISH]) + _TOPIC_LEN.pack(len(data)) + data + payload


def parse_frames(frames: Iterable[bytes]) -> list:
    """Parse whole frames, length prefix included, as ``FrameReader.read``
    returns them; the one parser of both directions.

    Each frame becomes ``(topic, data)`` for a PUBLISH or ``(topic, None)``
    for a SUBSCRIBE.  A malformed frame becomes the exception it raises
    (``ProtocolError``, or ``UnicodeDecodeError`` for a topic that is not
    UTF-8), in its place, so a caller can handle the frames before it
    first.  Each distinct topic is decoded once per call.
    """
    out: list = []
    append = out.append
    topics: dict[bytes, str] = {}
    for raw in frames:
        n = len(raw)
        op = raw[4] if n > 4 else None
        if op == OP_PUBLISH:
            if n < 7:
                append(ProtocolError("publish payload truncated"))
                continue
            (tlen,) = _TOPIC_LEN.unpack_from(raw, 5)
            end = 7 + tlen
            if n < end:
                append(ProtocolError("publish topic truncated"))
                continue
            name = raw[7:end]
            data = raw[end:]
        elif op == OP_SUBSCRIBE:
            name = raw[5:]
            data = None
        else:
            append(ProtocolError("empty payload" if op is None
                                 else f"unknown opcode {op:#x}"))
            continue
        topic = topics.get(name)
        if topic is None:
            try:
                topic = topics[name] = name.decode("utf-8")
            except UnicodeDecodeError as exc:
                append(exc)
                continue
        append((topic, data))
    return out


class FrameReader:
    """Whole frames from a stream socket, read up to 64 KiB at a time.

    Each frame keeps its length prefix, so a broker can forward it as it
    came.  A frame split across reads is held until its last byte arrives,
    also across a socket timeout.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = b""

    def read(self) -> list[bytes] | None:
        """The next whole frames, in order; ``None`` on orderly shutdown.

        Blocks until at least one frame is complete and returns every frame
        that one ``recv`` completed.  A length prefix over ``MAX_FRAME``
        raises ``ProtocolError`` once the frames before it are handed out.
        """
        while True:
            frames = self._split()
            if frames:
                return frames
            chunk = self._sock.recv(READ_SIZE)
            if not chunk:
                return None
            self._buf += chunk

    def _split(self) -> list[bytes]:
        buf = self._buf
        n = len(buf)
        off = 0
        frames = []
        while n - off >= _LEN.size:
            (size,) = _LEN.unpack_from(buf, off)
            if size > MAX_FRAME:
                if frames:
                    break
                raise ProtocolError(f"frame of {size} bytes exceeds cap")
            end = off + _LEN.size + size
            if end > n:
                break
            frames.append(buf[off:end])
            off = end
        if off:
            self._buf = buf[off:]
        return frames


class Broker:
    """Threaded broker: one reader thread per connection, shared dispatch lock."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        drop_prob: float = 0.0,
        seed: int = 0,
    ):
        self._listener = socket.create_server((host, port))
        self._host = host
        self._port = self._listener.getsockname()[1]
        self._drop_prob = drop_prob
        self._rng = random.Random(seed)
        self._subs: dict[str, list[socket.socket]] = {}
        self._conns: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closing = False
        self._threads: list[threading.Thread] = []
        self.published = 0
        self.delivered = 0
        self.dropped = 0

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    def counters(self) -> dict[str, int]:
        """Frames published, delivered and dropped so far, read under the
        dispatch lock: a delivery counts once its write has returned, so a
        subscriber can hold bytes the unlocked fields do not count yet."""
        with self._lock:
            return {"published": self.published, "delivered": self.delivered,
                    "dropped": self.dropped}

    def start(self) -> "Broker":
        t = threading.Thread(target=self._accept_loop, daemon=True)
        with self._lock:
            self._threads.append(t)
        t.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._conns.add(conn)
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            t.start()
            with self._lock:
                # keep only live threads, or every connection ever made stays
                self._threads = [th for th in self._threads if th.is_alive()]
                self._threads.append(t)

    def _serve(self, conn: socket.socket) -> None:
        reader = FrameReader(conn)
        try:
            while True:
                frames = reader.read()
                if frames is None:
                    break
                self._dispatch(conn, frames)
        except (ProtocolError, UnicodeDecodeError) as exc:
            log.warning("closing connection after malformed frame: %s", exc)
        except OSError:
            pass
        finally:
            self._forget(conn)

    def _dispatch(self, conn: socket.socket, frames: list[bytes]) -> None:
        """Handle one read's frames in order under one hold of the lock.

        A PUBLISH frame is forwarded as received, length prefix included.
        Each subscriber gets one write per run of frames between
        subscribes: a SUBSCRIBE first sends what the frames before it
        queued, so the stream up to a subscription is out before it counts,
        as when frames were handled one at a time.  Frames before a
        malformed one are still sent.
        """
        outbox: dict[socket.socket, list[bytes]] = {}
        with self._lock:
            try:
                for raw, parsed in zip(frames, parse_frames(frames)):
                    if isinstance(parsed, Exception):
                        raise parsed
                    topic, data = parsed
                    if data is None:
                        self._flush_locked(outbox)
                        self._subs.setdefault(topic, []).append(conn)
                        continue
                    self.published += 1
                    # a sync echo is control traffic, never a lossy delivery
                    sync = topic.startswith(SYNC_PREFIX)
                    for sub in self._subs.get(topic, ()):
                        if (not sync and self._drop_prob > 0
                                and self._rng.random() < self._drop_prob):
                            self.dropped += 1
                            continue
                        outbox.setdefault(sub, []).append(raw)
                    if sync:
                        self._subs.pop(topic, None)   # its one echo is out
            finally:
                self._flush_locked(outbox)

    def _flush_locked(self, outbox: dict[socket.socket, list[bytes]]) -> None:
        dead = []
        for sub, raws in outbox.items():
            try:
                sub.sendall(b"".join(raws))
                self.delivered += len(raws)
            except OSError:
                dead.append(sub)
        outbox.clear()
        for sub in dead:
            self._forget_locked(sub)

    def _forget(self, conn: socket.socket) -> None:
        with self._lock:
            self._forget_locked(conn)

    def _forget_locked(self, conn: socket.socket) -> None:
        self._conns.discard(conn)
        for topic, subs in list(self._subs.items()):
            if conn in subs:
                subs.remove(conn)
                if not subs:
                    del self._subs[topic]
        try:
            # shutdown first: close() alone leaves a reader blocked in recv
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        self._closing = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not connected is expected for a listener
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            self._forget(conn)
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            t.join(timeout=2.0)

    def __enter__(self) -> "Broker":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class BrokerClient:
    """Blocking client for the framed socket protocol."""

    def __init__(self, address: tuple[str, int], timeout: float | None = None):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = FrameReader(self._sock)
        self._inbox: deque = deque()   # parsed deliveries not yet returned

    def subscribe(self, topic: str) -> None:
        self.send_raw(encode_subscribe(topic))

    def publish(self, topic: str, payload: bytes) -> None:
        self.publish_many(((topic, payload),))

    def publish_many(self, messages: Iterable[tuple[str, bytes]]) -> int:
        """Publish each (topic, payload) in order; returns the count.

        Frames are coalesced into writes of up to ``READ_SIZE`` bytes; all
        of them are sent when this returns.  Each frame is the bytes of
        ``encode_publish`` behind their length; the part before the payload
        is built once per (topic, payload length).
        """
        heads: dict[tuple[str, int], bytes] = {}
        parts: list[bytes] = []
        append = parts.append
        size = sent = 0
        for topic, payload in messages:
            n = len(payload)
            head = heads.get((topic, n))
            if head is None:
                body = encode_publish(topic, b"")
                head = heads[(topic, n)] = _LEN.pack(len(body) + n) + body
            n += len(head)
            if size + n > READ_SIZE and parts:
                self._sock.sendall(b"".join(parts))
                parts.clear()
                size = 0
            append(head)
            append(payload)
            size += n
            sent += 1
        if parts:
            self._sock.sendall(b"".join(parts))
        return sent

    def recv(self) -> tuple[str, bytes] | None:
        """Next (topic, payload) delivery, or None when the broker hangs up.

        Each read's deliveries are parsed together; a malformed one raises
        when its turn comes, after the deliveries before it.
        """
        inbox = self._inbox
        if not inbox:
            frames = self._reader.read()
            if frames is None:
                return None
            inbox.extend(parse_frames(frames))
        item = inbox.popleft()
        if isinstance(item, Exception):
            raise item
        if item[1] is None:
            raise ProtocolError("unexpected non-publish delivery")
        return item

    def sync(self) -> None:
        """Block until all prior subscribes on this connection are registered.

        Works by echoing a publish through a throwaway topic: the broker
        handles one connection's frames in order, so seeing the echo proves
        the earlier subscribes landed.  Call before other publishers start;
        an already-running feed would interleave its deliveries here.
        """
        topic = f"{SYNC_PREFIX}{uuid.uuid4().hex}"
        self.subscribe(topic)
        self.publish(topic, b"")
        got = self.recv()
        if got is None or got[0] != topic:
            raise ProtocolError("sync echo lost; is another publisher running?")

    def send_raw(self, payload: bytes) -> None:
        self._sock.sendall(_LEN.pack(len(payload)) + payload)

    def settimeout(self, timeout: float | None) -> None:
        self._sock.settimeout(timeout)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "BrokerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
