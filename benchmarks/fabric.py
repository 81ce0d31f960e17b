"""Replay -> broker -> consumer floods over loopback.

The broker runs in its own process, started as ``corridorsim broker --port
0``.  In ``flood`` the generator process holds two threads and two
connections: the publisher (``replay.replay_publish`` with ``rate=0``, in
the calling thread) and one consumer thread.  The consumer stops after the
expected number of frames, so the timing window ends at the last frame and
its command; it never waits out an idle timeout.  (``corridorsim bench``
does wait one out: its ``consumer.join()`` returns only after
``idle_timeout`` of silence, so its wall time includes that quiet tail.)
``codec_flood`` runs the in-process part of that path alone.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import islice

from corridorsim.metrics import read_schedule, read_trace
from corridorsim.v2x.broker import BrokerClient
from corridorsim.v2x.bsm import decode_bsm, encode_bsm
from corridorsim.v2x.headunit import (BSM_TOPICS, HeadUnitCore, command_stream,
                                      socket_frames)
from corridorsim.v2x.replay import frames_from_trace, replay_publish

TICK_RATE = 100.0     # head-unit ticks per second of data time, as `bench`
# Only reached when frames are lost; a healthy flood never waits on it.
IDLE_TIMEOUT = 20.0


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class BrokerProcess:
    """A stand-alone broker child; ``stop`` returns the CPU seconds it used."""

    def __init__(self, src_dir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        self._cpu0 = _children_cpu_s()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "corridorsim.cli", "broker", "--port", "0"],
            stdout=subprocess.PIPE, env=env, text=True)
        line = self.proc.stdout.readline()
        try:
            host, _, port = line.rsplit(" ", 1)[-1].strip().rpartition(":")
            self.address = (host, int(port))
        except ValueError:
            self.stop()
            raise RuntimeError(f"broker did not start: {line!r}") from None

    def stop(self) -> float:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return _children_cpu_s() - self._cpu0

    def __enter__(self) -> "BrokerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def subscribed_client(address: tuple[str, int]) -> BrokerClient:
    client = BrokerClient(address)
    for topic in BSM_TOPICS:
        client.subscribe(topic)
    client.sync()
    return client


@dataclass
class Flood:
    frames_expected: int
    published: int = 0
    delivered: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0                # head-unit flood: generator-process CPU
    commands: list = field(default_factory=list)
    seq_gaps: int = 0                 # codec flood: out-of-sequence frames
    core: HeadUnitCore | None = None


def flood(address, cfg, trace_path: str, schedule_path: str | None,
          frames_expected: int) -> Flood:
    """Publish one trace into a head unit (``socket_frames`` ->
    ``command_stream``); time from the publish call to the last command."""
    result = Flood(frames_expected)
    client = subscribed_client(address)
    done = [0.0]
    errors: list[BaseException] = []

    def counted(frames):
        for frame in islice(frames, frames_expected):
            result.delivered += 1
            yield frame

    def consume():
        try:
            result.core = core = HeadUnitCore(cfg)
            frames = counted(socket_frames(client, core, IDLE_TIMEOUT))
            result.commands = list(command_stream(frames, core, TICK_RATE))
            done[0] = time.perf_counter()
        except Exception as exc:  # re-raised in the publishing thread
            errors.append(exc)
        finally:
            client.close()

    consumer = threading.Thread(target=consume, name="flood-consumer")
    consumer.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result.published = replay_publish(trace_path, address, cfg, rate=0.0,
                                          schedule_path=schedule_path)
    finally:
        consumer.join()
    if errors:
        raise errors[0]
    result.cpu_s = time.process_time() - cpu0
    result.wall_s = (done[0] or time.perf_counter()) - t0
    return result


def codec_flood(cfg, trace_path: str, schedule_path: str,
                frames_expected: int) -> Flood:
    """Build the frames of one trace, encode and decode each, in the calling
    thread; time the whole trip.

    These are the in-process steps of ``replay_publish`` and the head unit's
    feed -- trace reading, frame building and the codec -- without sockets,
    broker or head unit.  Read back through the broker in one thread, the
    same frames ran at 20k to 31k frames/s from one run to the next, as the
    broker process and the generator waited on each other.  Each
    vehicle's 8-bit sequence number must advance by one from frame to
    frame.
    """
    result = Flood(frames_expected)
    next_seq: dict[int, int] = {}
    t0 = time.perf_counter()
    frames = frames_from_trace(read_trace(trace_path), cfg, read_schedule(schedule_path))
    for frame in frames:
        result.published += 1
        frame = decode_bsm(encode_bsm(frame))
        result.delivered += 1
        if frame.seq != next_seq.get(frame.vehicle_id, 0):
            result.seq_gaps += 1
        next_seq[frame.vehicle_id] = (frame.seq + 1) & 0xFF   # u8 on the wire
    result.wall_s = time.perf_counter() - t0
    return result
