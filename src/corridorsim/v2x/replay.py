"""Replay a recorded trace as a stream of safety-message frames.

Each trace row becomes one frame published on topic ``bsm/<zone>``.  Frames
are emitted sequentially in trace order (which is time order); the publisher
is open loop and never waits for consumers.  ``rate`` paces publishes against
the wall clock at that many frames per second; a rate of zero publishes as
fast as the socket accepts, in coalesced writes, which keeps the frame
*content* identical since timestamps come from the trace, not the clock.
The trace file is read row by row as frames go out, never held whole.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

from corridorsim.coordinator import ScheduleEntry
from corridorsim.core import CorridorConfig
from corridorsim.metrics import iter_trace, read_schedule
# read_trace is unused here; benchmarks/layers.py patches this name
from corridorsim.metrics import read_trace  # noqa: F401
from corridorsim.v2x.broker import BrokerClient
from corridorsim.v2x.bsm import BSM_TOPICS, BsmFrame, encode_bsm


def _mz_positions(config: CorridorConfig) -> dict[tuple[str, int], float]:
    out = {}
    for route in config.routes:
        for zone, ap in config.zones_on(route.name):
            out[(route.name, zone.index)] = ap.mz_start
    return out


def frames_from_trace(
    rows: Iterable[tuple],
    config: CorridorConfig,
    schedule: list[ScheduleEntry] | None = None,
) -> Iterator[BsmFrame]:
    """Yield one frame per trace row, in row order.

    Merging times come from the schedule sidecar keyed by (vehicle, zone);
    rows without a schedule entry (baseline traces, rows outside any zone)
    carry a zero merging time.
    """
    mz_at = _mz_positions(config)
    tm_at = {(e.vehicle_id, e.zone): e.tm for e in schedule or ()}
    build = BsmFrame.from_state
    seq: dict[int, int] = {}
    for t, vid, route, s, v, _u, zone in rows:
        n = seq.get(vid, 0)
        seq[vid] = n + 1
        if zone > 0:
            yield build(vid, v, tm_at.get((vid, zone), 0.0),
                        mz_at[(route, zone)] - s, zone, n, t)
        else:
            yield build(vid, v, 0.0, 0.0, zone, n, t)


def publish_frames(
    frames: Iterable[BsmFrame],
    address: tuple[str, int],
    rate: float = 100.0,
) -> int:
    """Publish frames to a broker at ``rate`` per second; returns the count.

    With ``rate`` 0 the frames go out in coalesced writes; paced, each frame
    is on the wire before the wait for the next.
    """
    def messages():
        for frame in frames:
            payload = encode_bsm(frame)   # raises on a zone id with no topic
            yield BSM_TOPICS[frame.cz], payload

    with BrokerClient(address) as client:
        if rate <= 0:
            return client.publish_many(messages())
        sent = 0
        start = time.monotonic()
        for topic, payload in messages():
            delay = start + sent / rate - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            client.publish(topic, payload)
            sent += 1
    return sent


def replay_publish(
    trace_path: str,
    address: tuple[str, int],
    config: CorridorConfig,
    rate: float = 100.0,
    schedule_path: str | None = None,
) -> int:
    """Publish a trace file's frames, reading its rows as they are sent."""
    schedule = read_schedule(schedule_path) if schedule_path else None
    frames = frames_from_trace(iter_trace(trace_path), config, schedule)
    return publish_frames(frames, address, rate)
