"""On-board head unit: plans ego speed commands from received safety messages.

The unit models one ghost vehicle driving a configured route alongside the
broadcast traffic.  Each tick it

1. integrates ego distance at the last commanded speed,
2. locates the current coordination zone from hard-coded route geometry,
3. filters buffered frames to that zone (the buffer holds each vehicle's
   latest frame; a frame stamped more than ``stale_after`` before the tick
   is dropped, with the buffer swept only on ticks where such a frame can
   be in it),
4. picks the frame immediately ahead by distance-to-zone as putative leader
   (nearest larger distance below ego's own; ties break on lower vehicle id),
5. schedules its merging time from the leader's broadcast one via the
   arrival-time recursion, or from its own kinematics with no leader,
6. solves the energy-optimal trajectory and emits the planned speed.

Plans are recomputed only when the leader identity or its merging time
changes, so the command stream is a deterministic function of the frame
stream and the tick grid.  Ticks are driven by a data clock derived from
frame timestamps; wall pacing upstream changes nothing downstream.
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace
from typing import Iterable, Iterator

from corridorsim.coordinator import (
    RELATION_CONFLICT_LANE,
    RELATION_NONE,
    RELATION_SAME_LANE,
    ScheduleEntry,
    merging_time,
)
from corridorsim.core import Approach, ConflictZoneSpec, CorridorConfig
from corridorsim.sim import MIN_SCHED_SPEED, plan_merge
# solve_bounded is unused here; benchmarks/layers.py patches this name
from corridorsim.trajectory import evaluate, solve_bounded  # noqa: F401
from corridorsim.v2x.broker import BrokerClient
from corridorsim.v2x.bsm import BSM_TOPICS, MSG_SPAT, BsmFrame, FrameError, decode_bsm

log = logging.getLogger(__name__)

__all__ = [
    "HeadUnitCore",
    "command_stream",
    "socket_frames",
    "run_over_socket",
    "BSM_TOPICS",
]

_DIST_EPS = 1e-9


class HeadUnitCore:
    """Pure planning logic; clock and transport agnostic.

    Feed frames with :meth:`ingest`, then call :meth:`tick` with monotone
    timestamps; every tick returns the speed command in m/s.
    """

    def __init__(self, config: CorridorConfig, route: str | None = None,
                 stale_after: float = 1.0):
        self.cfg = config
        self.route = config.route(route or config.main_route)
        self.zones = config.zones_on(self.route.name)
        self.bounds = config.bounds
        self.headway = config.headway
        self.stale_after = stale_after

        self.dist = 0.0
        self.v_cmd = self.route.limit_at(0.0)
        self.buffer: dict[int, BsmFrame] = {}
        # at most the oldest buffered timestamp_ms; inf for an empty buffer
        self._oldest_ms: float = math.inf
        self.t_last_rx: float | None = None
        self._t_prev: float | None = None

        self.plan = None
        self.plan_key: tuple | None = None
        self.v_hold: float | None = None
        self.leader_id: int | None = None

        self.decode_errors = 0
        self.spat_frames = 0
        self.stale = False
        self.stale_ticks = 0
        self.replans = 0
        self.clamped_plans = 0

    # ------------------------------------------------------------------
    # intake

    def ingest(self, frame: BsmFrame, t: float) -> None:
        if frame.msg_id == MSG_SPAT:
            self.spat_frames += 1
            return
        self.buffer[frame.vehicle_id] = frame
        if frame.timestamp_ms < self._oldest_ms:
            self._oldest_ms = frame.timestamp_ms
        self.t_last_rx = t

    def ingest_bytes(self, data: bytes, t: float) -> None:
        try:
            frame = decode_bsm(data)
        except FrameError:
            self.decode_errors += 1
            return
        self.ingest(frame, t)

    # ------------------------------------------------------------------
    # per-tick planning

    def tick(self, t: float) -> float:
        if self._t_prev is not None and t > self._t_prev:
            self.dist += self.v_cmd * (t - self._t_prev)
        self._t_prev = t
        self._expire(t)

        hit = self._locate(self.dist)
        if hit is None:
            self._clear_plan()
            self.v_cmd = self.route.limit_at(self.dist)
            return self.v_cmd
        zone, ap = hit

        if self.dist >= ap.mz_start:
            # merging zone is crossed at the planned constant speed
            self.v_cmd = self.v_hold if self.v_hold is not None else zone.mz_speed
            return self.v_cmd

        # feed loss: hold the last command rather than replan on thin air
        self.stale = (self.t_last_rx is not None
                      and t - self.t_last_rx > self.stale_after)
        if self.stale:
            self.stale_ticks += 1
            return self.v_cmd

        leader = self._leader(zone, ap)
        key = (zone.index,
               leader.vehicle_id if leader else None,
               leader.tm_ms if leader else None)
        if self.plan is None or key != self.plan_key:
            self._replan(zone, ap, leader, t)
            self.plan_key = key
        if self.plan is not None:
            _, v, _ = evaluate(self.plan, min(t, self.plan.tm))
            self.v_cmd = min(max(v, 0.0), self.bounds.v_max)
        return self.v_cmd

    # ------------------------------------------------------------------
    # internals

    def _expire(self, t: float) -> None:
        """Drop frames stamped more than ``stale_after`` before ``t``.

        The buffer is swept only when the lower bound on its timestamps is
        itself stale: the test is monotone in the timestamp, so while the
        bound is fresh every frame is.  Each sweep sets the bound to the
        oldest frame left; ``ingest`` lowers it.
        """
        cutoff = t - self.stale_after
        if not self._oldest_ms / 1000.0 < cutoff:
            return
        buffer = self.buffer
        for vid in [vid for vid, f in buffer.items()
                    if f.timestamp_ms / 1000.0 < cutoff]:
            del buffer[vid]
        self._oldest_ms = min((f.timestamp_ms for f in buffer.values()),
                              default=math.inf)

    def _locate(self, d: float):
        for zone, ap in self.zones:
            if ap.cz_start <= d < ap.mz_start + zone.mz_length:
                return zone, ap
        return None

    def _clear_plan(self) -> None:
        self.plan = None
        self.plan_key = None
        self.v_hold = None
        self.leader_id = None

    def _leader(self, zone: ConflictZoneSpec, ap: Approach) -> BsmFrame | None:
        """Closest frame strictly ahead by distance-to-zone; ties on lower id.

        The scan is order independent: the (distance, id) key is total, so
        frame arrival order within a tick cannot change the choice.
        """
        ego_dist = ap.mz_start - self.dist
        best = None
        for frame in self.buffer.values():
            if frame.cz != zone.index:
                continue
            if frame.dist_m >= ego_dist - _DIST_EPS:
                continue
            if (best is None or frame.dist_dm > best.dist_dm
                    or (frame.dist_dm == best.dist_dm
                        and frame.vehicle_id < best.vehicle_id)):
                best = frame
        return best

    def _replan(self, zone: ConflictZoneSpec, ap: Approach,
                leader: BsmFrame | None, t: float) -> None:
        self.replans += 1
        self.leader_id = leader.vehicle_id if leader else None
        ego_dist = max(ap.mz_start - self.dist, 1e-6)
        # remaining distance stands in for the zone length in the recursion
        shim = replace(zone, cz_length=ego_dist)
        if leader is None:
            relation = RELATION_NONE
            prev = None
        else:
            # the frame carries no lane: in a shared-lane zone any leader
            # is a same-lane one
            relation = RELATION_SAME_LANE if zone.shared_lane else RELATION_CONFLICT_LANE
            prev = ScheduleEntry(vehicle_id=leader.vehicle_id, zone=zone.index,
                                 t0=0.0, tm=leader.tm_s, tf=0.0,
                                 v_at_tm=max(leader.speed_mps, 0.05),
                                 relation=relation, lane="")
        sched_v0 = max(self.v_cmd, MIN_SCHED_SPEED)
        tm = merging_time(prev, relation, shim, t, sched_v0,
                          self.bounds, self.headway)
        plan = plan_merge(self.dist, self.v_cmd, t, ap.mz_start, zone, tm, self.bounds)
        if not plan.clean:
            self.clamped_plans += 1
            log.warning("headunit: no clean plan at d=%.1f m; clamping", self.dist)
        self.plan = plan.coeffs
        self.v_hold = plan.v_hold


def command_stream(frames: Iterable[BsmFrame], core: HeadUnitCore,
                   rate: float = 100.0) -> Iterator[tuple[float, float]]:
    """Drive core ticks from frame timestamps; yield (t, command) pairs.

    Ticks fire every 1/rate seconds of data time starting at the first
    frame's timestamp.  A frame stamped at or before a tick instant is
    ingested before that tick fires, so the stream is reproducible no
    matter how the frames were paced on the wire.
    """
    dt = 1.0 / rate
    t0 = None
    n = 0
    for frame in frames:
        ts = frame.timestamp_ms / 1000.0
        if t0 is None:
            t0 = ts
        while t0 + n * dt < ts - 1e-9:
            t = t0 + n * dt
            yield (t, core.tick(t))
            n += 1
        core.ingest(frame, ts)
    if t0 is not None:
        t = t0 + n * dt
        yield (t, core.tick(t))


def socket_frames(client: BrokerClient, core: HeadUnitCore,
                  idle_timeout: float = 2.0) -> Iterator[BsmFrame]:
    """Decode broker deliveries into frames; stop after idle_timeout of quiet.

    Undecodable payloads are dropped and counted on the core.
    """
    client.settimeout(idle_timeout)
    while True:
        try:
            msg = client.recv()
        except (TimeoutError, OSError):
            return
        if msg is None:
            return
        try:
            yield decode_bsm(msg[1])
        except FrameError:
            core.decode_errors += 1


def run_over_socket(address: tuple[str, int], core: HeadUnitCore,
                    rate: float = 100.0, idle_timeout: float = 2.0,
                    topics: Iterable[str] = BSM_TOPICS,
                    ) -> Iterator[tuple[float, float]]:
    """Subscribe, then stream (t, command) until the feed goes quiet.

    Subscriptions are sent before this returns (the broker keeps no
    history, so they must land before the publisher starts).
    """
    client = BrokerClient(address)
    for topic in topics:
        client.subscribe(topic)
    client.sync()

    def _stream():
        try:
            yield from command_stream(
                socket_frames(client, core, idle_timeout), core, rate)
        finally:
            client.close()

    return _stream()
