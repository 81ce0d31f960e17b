"""Minimal topic broker over length-prefixed TCP frames.

Wire format: every message is a u32 big-endian byte count followed by that
many payload bytes.  Payload opcodes:

* 0x01 SUBSCRIBE: remaining bytes are the UTF-8 topic.
* 0x02 PUBLISH: u16 big-endian topic length, topic bytes, message bytes.

Deliveries to subscribers reuse the PUBLISH shape so one parser serves both
directions.  Topics match exactly (no wildcards), fan-out happens in arrival
order under a single dispatch lock, and per-connection ordering is preserved.
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

log = logging.getLogger(__name__)

OP_SUBSCRIBE = 0x01
OP_PUBLISH = 0x02

_LEN = struct.Struct(">I")
_TOPIC_LEN = struct.Struct(">H")
MAX_FRAME = 1 << 20  # sanity cap so a corrupt length cannot balloon memory
SYNC_PREFIX = "__sync/"  # single-use echo topics of BrokerClient.sync


class ProtocolError(ValueError):
    pass


def encode_subscribe(topic: str) -> bytes:
    return bytes([OP_SUBSCRIBE]) + topic.encode("utf-8")


def encode_publish(topic: str, payload: bytes) -> bytes:
    data = topic.encode("utf-8")
    return bytes([OP_PUBLISH]) + _TOPIC_LEN.pack(len(data)) + data + payload


def parse_payload(payload: bytes):
    """Return ("subscribe", topic) or ("publish", topic, data)."""
    if not payload:
        raise ProtocolError("empty payload")
    op = payload[0]
    if op == OP_SUBSCRIBE:
        return ("subscribe", payload[1:].decode("utf-8"))
    if op == OP_PUBLISH:
        if len(payload) < 3:
            raise ProtocolError("publish payload truncated")
        (tlen,) = _TOPIC_LEN.unpack_from(payload, 1)
        if len(payload) < 3 + tlen:
            raise ProtocolError("publish topic truncated")
        topic = payload[1 : 3 + tlen][2:].decode("utf-8")
        return ("publish", topic, payload[3 + tlen :])
    raise ProtocolError(f"unknown opcode {op:#x}")


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_LEN.pack(len(payload)) + payload)


def recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket) -> bytes | None:
    """One framed payload, or None on orderly shutdown."""
    head = recv_exact(sock, _LEN.size)
    if head is None:
        return None
    (size,) = _LEN.unpack(head)
    if size > MAX_FRAME:
        raise ProtocolError(f"frame of {size} bytes exceeds cap")
    return recv_exact(sock, size)


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
        try:
            while True:
                payload = recv_frame(conn)
                if payload is None:
                    break
                parsed = parse_payload(payload)
                if parsed[0] == "subscribe":
                    with self._lock:
                        self._subs.setdefault(parsed[1], []).append(conn)
                else:
                    self._dispatch(parsed[1], parsed[2])
        except (ProtocolError, UnicodeDecodeError) as exc:
            log.warning("closing connection after malformed frame: %s", exc)
        except OSError:
            pass
        finally:
            self._forget(conn)

    def _dispatch(self, topic: str, payload: bytes) -> None:
        frame = encode_publish(topic, payload)
        with self._lock:
            self.published += 1
            targets = list(self._subs.get(topic, ()))
            dead = []
            for sub in targets:
                if self._drop_prob > 0 and self._rng.random() < self._drop_prob:
                    self.dropped += 1
                    continue
                try:
                    send_frame(sub, frame)
                    self.delivered += 1
                except OSError:
                    dead.append(sub)
            for sub in dead:
                self._forget_locked(sub)
            if topic.startswith(SYNC_PREFIX):
                self._subs.pop(topic, None)   # its one echo is out

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

    def subscribe(self, topic: str) -> None:
        send_frame(self._sock, encode_subscribe(topic))

    def publish(self, topic: str, payload: bytes) -> None:
        send_frame(self._sock, encode_publish(topic, payload))

    def recv(self) -> tuple[str, bytes] | None:
        """Next (topic, payload) delivery, or None when the broker hangs up."""
        payload = recv_frame(self._sock)
        if payload is None:
            return None
        parsed = parse_payload(payload)
        if parsed[0] != "publish":
            raise ProtocolError("unexpected non-publish delivery")
        return (parsed[1], parsed[2])

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
        send_frame(self._sock, payload)

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
