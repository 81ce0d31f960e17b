"""Replay a recorded trace as a stream of safety-message frames.

Each trace row becomes one frame published on topic ``bsm/<zone>``.
``wire_fields`` is the one place rows are quantized: it turns each row into
the frame's fields in wire units, as a plain tuple.  The publisher packs
those tuples straight into payloads with ``encode_bsm``, building no frame
object; ``frames_from_trace`` wraps the same tuples as ``BsmFrame``s for
in-process consumers.  Frames are emitted sequentially in trace order
(which is time order); the publisher is open loop and never waits for
consumers.  ``rate`` paces publishes against the wall clock at that many
frames per second; a rate of zero publishes as fast as the socket accepts,
in coalesced writes, which keeps the frame *content* identical since
timestamps come from the trace, not the clock.  The trace file is read row
by row as frames go out, never held whole.
"""

from __future__ import annotations

import time
from functools import partial
from math import isfinite
from typing import Iterable, Iterator

from corridorsim.coordinator import ScheduleEntry
from corridorsim.core import CorridorConfig
from corridorsim.metrics import iter_trace, read_schedule
# read_trace is unused here; benchmarks/layers.py patches this name
from corridorsim.metrics import read_trace  # noqa: F401
from corridorsim.v2x.broker import BrokerClient
from corridorsim.v2x.bsm import (BSM_TOPICS, DIST_UNIT, MSG_BSM, SPEED_UNIT,
                                 BsmFrame, encode_bsm)


def _mz_positions(config: CorridorConfig) -> dict[tuple[str, int], float]:
    out = {}
    for route in config.routes:
        for zone, ap in config.zones_on(route.name):
            out[(route.name, zone.index)] = ap.mz_start
    return out


def wire_fields(
    rows: Iterable[tuple],
    config: CorridorConfig,
    schedule: list[ScheduleEntry] | None = None,
) -> Iterator[tuple]:
    """Yield each trace row's frame fields in wire units, in row order, as
    ``BsmFrame`` orders them.

    Speed (m/s), merging time (s), distance to the MZ line (m) and the
    timestamp (s) are rounded to their units, halves to even; negative
    speed and distance become zero.  Each vehicle's sequence number counts
    its rows modulo 256.  Merging times come from the schedule sidecar
    keyed by (vehicle, zone); rows without a schedule entry (baseline
    traces) carry a zero merging time, and rows outside any zone a zero
    merging time and distance.  A row whose time, position or speed is not
    finite, or that is in a zone its route does not pass, a schedule entry
    whose merging time is not finite, and a row with a value too large to
    round to an integer of wire units raise ``ValueError``.  Fields are not
    range-checked: ``encode_bsm`` does that.
    """
    mz_at = _mz_positions(config)
    tm_at: dict[tuple[int, int], float] = {}
    for e in schedule or ():
        if not isfinite(e.tm):
            raise ValueError(f"schedule: vehicle {e.vehicle_id} in zone {e.zone} has "
                             f"merging time {e.tm!r} s; a frame needs a finite one")
        tm_at[e.vehicle_id, e.zone] = e.tm
    seq: dict[int, int] = {}
    for t, vid, route, s, v, _u, zone in rows:
        if not (isfinite(t) and isfinite(s) and isfinite(v)):
            raise ValueError(f"trace row at t={t:.3f} s: vehicle {vid} has position "
                             f"{s!r} m and speed {v!r} m/s; a frame needs finite values")
        n = seq.get(vid, 0)
        seq[vid] = (n + 1) & 0xFF
        try:
            speed = round((0.0 if v < 0.0 else v) / SPEED_UNIT)
            stamp = round(t * 1000.0)
            if zone > 0:
                try:
                    dist = mz_at[route, zone] - s
                except KeyError:
                    raise ValueError(f"trace row at t={t:.3f} s: vehicle {vid} on "
                                     f"route {route!r} is in zone {zone}, which the "
                                     "route does not pass") from None
                fields = (MSG_BSM, vid, 0, 0, speed, round(tm_at.get((vid, zone), 0.0) * 1000.0),
                          round((0.0 if dist < 0.0 else dist) / DIST_UNIT), zone, n, stamp)
            else:
                fields = MSG_BSM, vid, 0, 0, speed, 0, 0, zone, n, stamp
        except OverflowError:   # finite, but infinite in wire units
            raise ValueError(f"trace row at t={t:.3f} s: vehicle {vid} has a time, "
                             "position, speed or merging time too large for a "
                             "frame") from None
        yield fields


def frames_from_trace(
    rows: Iterable[tuple],
    config: CorridorConfig,
    schedule: list[ScheduleEntry] | None = None,
) -> Iterator[BsmFrame]:
    """``wire_fields`` as ``BsmFrame``s, one per trace row, in row order."""
    return map(partial(tuple.__new__, BsmFrame), wire_fields(rows, config, schedule))


def publish_frames(
    frames: Iterable[tuple],
    address: tuple[str, int],
    rate: float = 100.0,
) -> int:
    """Publish frames to a broker at ``rate`` per second; returns the count.

    Each frame is a tuple of wire fields (``wire_fields``'s, or a
    ``BsmFrame``), packed by ``encode_bsm``.  With ``rate`` 0 the frames go
    out in coalesced writes; paced, each frame is on the wire before the
    wait for the next.
    """
    encode = encode_bsm   # read at call time, so a patched name is used

    def messages():
        for fields in frames:
            payload = encode(fields)   # raises on a zone id with no topic
            yield BSM_TOPICS[fields[7]], payload

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
    fields = wire_fields(iter_trace(trace_path), config, schedule)
    return publish_frames(fields, address, rate)
