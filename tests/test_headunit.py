import dataclasses
import itertools
import math
import random
import threading

import pytest

from corridorsim.core import load_config_file
from corridorsim import sim
from corridorsim.v2x.broker import Broker
from corridorsim.v2x.bsm import MSG_SPAT, BsmFrame, decode_bsm, encode_bsm
from corridorsim.v2x.headunit import (
    HeadUnitCore, command_stream, run_over_socket, socket_frames)
from corridorsim.v2x.replay import frames_from_trace, publish_frames
from corridorsim.trajectory import terminal_speed

BENCH = "configs/bench.yaml"
V40 = 17.8816  # 40 mph
V_SRZ = 8.314944  # 18.6 mph


@pytest.fixture(scope="module")
def cfg():
    return load_config_file(BENCH)


def leader_frame(vid, dist, tm, speed=13.4, cz=1, ts=0.0):
    return BsmFrame.from_state(vehicle_id=vid, speed=speed, tm=tm,
                               dist=dist, cz=cz, seq=0, timestamp=ts)


class TestLeaderSelection:
    def chosen(self, cfg, frames):
        core = HeadUnitCore(cfg)
        core.dist = 250.0  # zone 1 control zone entry; 100 m to the line
        for f in frames:
            core.ingest(f, 0.0)
        core.tick(0.0)
        return core.leader_id

    def test_closest_ahead_wins_and_order_is_irrelevant(self, cfg):
        frames = [
            leader_frame(5, 30.0, 6.0),
            leader_frame(3, 30.0, 6.0),
            leader_frame(9, 45.0, 6.5),
            leader_frame(2, 100.0, 7.0),   # equal distance: not ahead
            leader_frame(4, 120.0, 7.5),   # behind ego
        ]
        for perm in itertools.permutations(frames):
            assert self.chosen(cfg, list(perm)) == 9

    def test_distance_tie_breaks_on_lower_id(self, cfg):
        frames = [leader_frame(5, 30.0, 6.0), leader_frame(3, 30.0, 6.0)]
        for perm in itertools.permutations(frames):
            assert self.chosen(cfg, list(perm)) == 3

    def test_other_zone_frames_ignored(self, cfg):
        assert self.chosen(cfg, [leader_frame(8, 10.0, 6.0, cz=2)]) is None


def test_merging_time_from_leader_cross_lane(cfg):
    # zone 1 approaches ride distinct lanes, so the gap term is S/v_prev
    core = HeadUnitCore(cfg)
    core.dist = 250.0
    frame = leader_frame(7, 30.0, 6.0, speed=13.4)
    core.ingest(frame, 0.0)
    cmd = core.tick(0.0)
    expected = 6.0 + 15.0 / frame.speed_mps
    assert math.isclose(core.plan.tm, expected, rel_tol=1e-12)
    # plan starts from the current command, so the first tick is continuous
    assert math.isclose(cmd, V40, rel_tol=1e-12)


def test_merging_time_from_leader_same_lane(cfg):
    # zone 2 approaches share one lane label: gap term is headway*v0/v_prev
    core = HeadUnitCore(cfg)
    core.dist = 610.0
    frame = leader_frame(7, 20.0, 4.0, speed=8.32, cz=2)
    core.ingest(frame, 0.0)
    core.tick(0.0)
    expected = 4.0 + 1.2 * V40 / frame.speed_mps
    assert math.isclose(core.plan.tm, expected, rel_tol=1e-12)


def test_no_leader_at_limit_is_passthrough(cfg):
    # own-kinematics scheduling at the speed limit plans a constant cruise
    core = HeadUnitCore(cfg)
    core.dist = 300.0
    for k in range(5):
        cmd = core.tick(0.1 * k)
        assert math.isclose(cmd, V40, abs_tol=1e-9)
    assert core.leader_id is None and core.replans == 1


def test_unreachable_merge_runs_the_clamped_partial_plan(cfg):
    # 5 m before zone 2's MZ line at 40 mph: no merging time gives a clean
    # plan down to 18.6 mph
    core = HeadUnitCore(cfg)
    core.dist = 695.0
    core.tick(0.0)
    assert core.replans == 1 and core.clamped_plans == 1
    assert core.plan is not None
    assert core.v_hold == max(terminal_speed(core.plan.coeffs), 0.05)


def test_stale_feed_holds_last_command(cfg):
    core = HeadUnitCore(cfg)
    core.dist = 255.0
    core.ingest(leader_frame(7, 30.0, 6.0), 0.0)
    held = core.tick(0.5)
    assert not core.stale
    cmd = core.tick(1.6)  # 1.6 s since the last frame, past the 1 s budget
    assert core.stale and core.stale_ticks == 1
    assert cmd == held
    # fresh traffic revives planning
    core.ingest(leader_frame(8, 40.0, 8.0, ts=1.7), 1.7)
    core.tick(1.8)
    assert not core.stale and core.leader_id == 8


class StubClient:
    """Delivers the given payloads in order, then times out as a quiet
    broker connection does."""

    def __init__(self, payloads):
        self.inbox = [("bsm/test", p) for p in payloads]
        self.timeout = None

    def settimeout(self, timeout):
        self.timeout = timeout

    def recv(self):
        if not self.inbox:
            raise TimeoutError
        return self.inbox.pop(0)


def test_socket_frames_count_decode_errors_and_spat(cfg):
    core = HeadUnitCore(cfg)
    spat = BsmFrame(msg_id=MSG_SPAT, timestamp_ms=100)
    client = StubClient([b"too short", encode_bsm(spat)])
    out = list(command_stream(socket_frames(client, core, idle_timeout=0.5), core))
    assert client.timeout == 0.5 and not client.inbox
    assert core.decode_errors == 1
    assert core.spat_frames == 1
    assert not core.buffer
    # the junk payload yields no frame; the SPaT frame's stamp opens the grid
    assert [t for t, _ in out] == [0.1]


@pytest.mark.parametrize("seed", range(6))
def test_expiry_keeps_what_a_full_sweep_keeps(cfg, seed):
    """After every tick the buffer holds exactly the frames a sweep of the
    whole buffer would keep, with late frames and vehicles coming and
    going."""
    rng = random.Random(seed)
    core = HeadUnitCore(cfg, stale_after=rng.choice([0.05, 0.3, 1.0]))
    want: dict[int, BsmFrame] = {}
    live = set(range(5))
    next_vid = 5
    for step in range(1500):
        t = step * 0.01
        if rng.random() < 0.03:
            live.add(next_vid)
            next_vid += 1
        if live and rng.random() < 0.03:
            live.discard(rng.choice(sorted(live)))
        for vid in rng.sample(sorted(live), k=min(len(live), rng.randint(0, 3))):
            # mostly current, sometimes late by up to 2 s, never before 0
            lag = rng.choice([0, 0, 0, 1, 10, 300, 2000])
            frame = BsmFrame(vehicle_id=vid, cz=rng.randint(0, 3),
                             dist_dm=rng.randint(0, 3000),
                             timestamp_ms=max(round(t * 1000) - rng.randint(0, lag), 0))
            core.ingest(frame, t)
            want[vid] = frame
        core.tick(t)
        cutoff = t - core.stale_after
        want = {vid: f for vid, f in want.items() if not f.timestamp_ms / 1000.0 < cutoff}
        assert core.buffer == want, (seed, step)


def test_command_stream_tick_grid():
    # frames at or before a tick instant are ingested before it fires
    cfg = load_config_file(BENCH)
    core = HeadUnitCore(cfg)
    frames = [
        BsmFrame.from_state(1, 10.0, 5.0, 40.0, 1, 0, timestamp=0.0),
        BsmFrame.from_state(1, 10.0, 5.0, 39.0, 1, 1, timestamp=0.1),
        BsmFrame.from_state(1, 10.0, 5.0, 38.0, 1, 2, timestamp=0.2),
    ]
    out = list(command_stream(iter(frames), core, rate=10.0))
    assert [round(t, 6) for t, _ in out] == [0.0, 0.1, 0.2]


def test_empty_route_drive_through_all_zones(cfg):
    # with no traffic at all the unit still sequences: limit, planned
    # deceleration, constant-speed merging zones, limit again
    core = HeadUnitCore(cfg)
    cmds = {}
    for k in range(1400):
        t = 0.1 * k
        v = core.tick(t)
        assert -1e-9 <= v <= V40 + 1e-9
        cmds[round(core.dist, 1)] = v
    assert core.clamped_plans == 0
    assert core.dist > 1250.0
    by_span = lambda lo, hi: [v for d, v in cmds.items() if lo <= d < hi]
    for v in by_span(0.0, 250.0):
        assert math.isclose(v, V40, abs_tol=1e-9)
    for v in by_span(705.0, 820.0):  # inside the speed-reduction MZ
        assert math.isclose(v, V_SRZ, abs_tol=1e-6)
    for v in by_span(840.0, 1090.0):
        assert math.isclose(v, V40, abs_tol=1e-9)
    for v in by_span(1220.0, 1240.0):
        assert math.isclose(v, 11.176, abs_tol=1e-6)


def test_socket_and_twin_streams_match(cfg):
    run_cfg = dataclasses.replace(cfg, horizon=15.0, seed=3)
    res = sim.run(run_cfg)
    frames = list(frames_from_trace(res.rows, run_cfg, res.schedule))
    assert frames

    broker = Broker(port=0).start()
    try:
        core_net = HeadUnitCore(run_cfg)
        stream = run_over_socket(broker.address, core_net, idle_timeout=1.0)
        got: list[tuple[float, float]] = []
        consumer = threading.Thread(target=lambda: got.extend(stream))
        consumer.start()
        publish_frames(frames, broker.address, rate=0.0)
        consumer.join(timeout=60.0)
        assert not consumer.is_alive()
    finally:
        broker.stop()

    core_twin = HeadUnitCore(run_cfg)
    want = list(command_stream((decode_bsm(encode_bsm(f)) for f in frames),
                               core_twin, rate=100.0))
    assert len(got) == len(want)
    worst = max(abs(a[1] - b[1]) for a, b in zip(got, want))
    assert worst <= 1e-6
    assert core_net.decode_errors == 0
