"""Zone coordinator: merging-time recursion, FIFO queue, MZ occupancy."""

import math

import numpy as np
import pytest

from corridorsim.core import Approach, Bounds, ConflictZoneSpec
from corridorsim.coordinator import (
    ConflictPair,
    DuplicateRegistrationError,
    OccupancyInterval,
    UnknownVehicleError,
    ZoneCoordinator,
    merging_time,
    occupancy_check,
)


def make_zone(cz=100.0, mz=30.0, mz_speed=10.0, kind="merge"):
    return ConflictZoneSpec(
        index=1, kind=kind, cz_length=cz, mz_length=mz, mz_speed=mz_speed,
        approaches=(
            Approach(route="a", lane="lane_a", cz_start=0.0, mz_start=cz),
            Approach(route="b", lane="lane_b", cz_start=0.0, mz_start=cz, priority=True),
        ),
    )


def merge_at(zone, bounds, t0, v0, prev=None, same_lane=False):
    """merging_time for a vehicle at the zone's control-zone entry."""
    return merging_time(t0, v0, zone.cz_length, prev, same_lane, zone.mz_length, bounds)


# ---------------------------------------------------------------------------
# merging_time


def test_no_predecessor_at_ramp_limit():
    zone = make_zone()
    bounds = Bounds(u_min=-3.0, u_max=1.5, v_min=0.0, v_max=17.88)
    tm, truncated = merge_at(zone, bounds, t0=50.0, v0=17.88)
    assert tm - 50.0 == pytest.approx(5.592841163310962, abs=1e-4)
    assert not truncated


def test_same_lane_gap_term():
    # follower at 10 m/s, 12 m spacing at the leader's 10 m/s merge speed:
    # candidate 10 + 1.2 clears both kinematic floors and the 20 s ceiling
    zone = make_zone()
    bounds = Bounds(u_min=-3.0, u_max=1.5, v_min=5.0, v_max=13.4)
    tm, truncated = merge_at(zone, bounds, t0=0.0, v0=10.0, prev=(10.0, 10.0),
                             same_lane=True)
    assert tm == pytest.approx(11.2, abs=1e-12)
    assert not truncated


def test_conflict_lane_gap_term():
    zone = make_zone(mz=30.0)
    bounds = Bounds(u_min=-3.0, u_max=1.5, v_min=5.0, v_max=13.4)
    tm, _ = merge_at(zone, bounds, t0=0.0, v0=10.0, prev=(10.0, 10.0),
                     same_lane=False)
    assert tm == pytest.approx(13.0, abs=1e-12)


def test_kinematic_floor_dominates_early_leader():
    # leader merges almost immediately; follower still needs L/v0
    zone = make_zone()
    bounds = Bounds(u_min=-3.0, u_max=1.5, v_min=0.0, v_max=17.88)
    tm, _ = merge_at(zone, bounds, t0=0.0, v0=10.0, prev=(1.0, 10.0), same_lane=True)
    assert tm == pytest.approx(10.0, abs=1e-12)


def test_ceiling_truncates_gap_term():
    zone = make_zone()
    bounds = Bounds(u_min=-3.0, u_max=1.5, v_min=5.0, v_max=13.4)
    # candidate 18 + 3 = 21 exceeds the 20 s ceiling
    tm, truncated = merge_at(zone, bounds, t0=0.0, v0=10.0, prev=(18.0, 10.0),
                             same_lane=False)
    assert tm == pytest.approx(20.0, abs=1e-12)
    assert truncated


def test_zero_entry_speed_rejected():
    zone = make_zone()
    bounds = Bounds(u_min=-3.0, u_max=1.5, v_min=0.0, v_max=17.88)
    with pytest.raises(ValueError):
        merge_at(zone, bounds, t0=0.0, v0=0.0)


# ---------------------------------------------------------------------------
# ZoneCoordinator


@pytest.fixture
def coordinator():
    bounds = Bounds(u_min=-3.0, u_max=1.5, v_min=0.0, v_max=17.88)
    return ZoneCoordinator(make_zone(), bounds)


def test_register_empty_queue(coordinator):
    entry = coordinator.register_arrival(7, t0=0.0, v0=13.4, lane="lane_a")
    assert entry.relation == "none"
    assert entry.tm == pytest.approx(max(100.0 / 13.4, 100.0 / 17.88))
    assert entry.tm == pytest.approx(7.462686567164179)
    assert coordinator.entry(7) is entry and coordinator.history == [entry]


def test_register_follower_spacing(coordinator):
    first = coordinator.register_arrival(1, t0=0.0, v0=13.4, lane="lane_a")
    coordinator.set_terminal_speed(1, 12.0)
    second = coordinator.register_arrival(2, t0=0.1, v0=13.4, lane="lane_a")
    assert second.relation == "same_lane"
    assert second.tm >= first.tm + 1.2 * 13.4 / 12.0 - 1e-9


def test_register_duplicate_rejected(coordinator):
    coordinator.register_arrival(1, t0=0.0, v0=13.4, lane="lane_a")
    with pytest.raises(DuplicateRegistrationError):
        coordinator.register_arrival(1, t0=0.5, v0=13.4, lane="lane_a")


def test_release_decrements_queue(coordinator):
    coordinator.register_arrival(1, t0=0.0, v0=13.4, lane="lane_a")
    coordinator.register_arrival(2, t0=0.5, v0=13.4, lane="lane_a")
    entry = coordinator.entry(1)
    coordinator.release(1, tf=entry.tm + 2.0)
    # vehicle 2 is queued alone
    assert coordinator.entry(2).vehicle_id == 2 and coordinator.follower(2) is None
    with pytest.raises(UnknownVehicleError):
        coordinator.entry(1)


def test_release_before_merge_rejected(coordinator):
    coordinator.register_arrival(1, t0=0.0, v0=13.4, lane="lane_a")
    entry = coordinator.entry(1)
    with pytest.raises(ValueError):
        coordinator.release(1, tf=entry.tm - 0.5)


def test_release_then_reregister_allowed(coordinator):
    coordinator.register_arrival(1, t0=0.0, v0=13.4, lane="lane_a")
    coordinator.release(1, tf=coordinator.entry(1).tm + 2.0)
    entry = coordinator.register_arrival(1, t0=30.0, v0=13.4, lane="lane_a")
    assert entry.t0 == 30.0
    # both passages keep their occupancy history
    assert sum(1 for iv in coordinator.occupancy if iv.vehicle_id == 1) == 2


def test_follower_recursion_reads_the_predecessor_booking_as_it_stands(coordinator):
    # the recursion asks for the follower's booked time until the
    # predecessor's booking moves, then for the moved time plus the gap term
    coordinator.register_arrival(1, t0=0.0, v0=13.4, lane="lane_a")
    coordinator.set_terminal_speed(1, 12.0)
    second = coordinator.register_arrival(2, t0=0.1, v0=13.4, lane="lane_b")
    third = coordinator.register_arrival(3, t0=0.2, v0=11.0, lane="lane_b")
    follower, tm = coordinator.follower(1)
    assert follower is second and tm == second.tm
    first = coordinator.adjust_merging_time(1, coordinator.entry(1).tm + 0.5)
    coordinator.set_terminal_speed(1, 10.0)
    follower, tm = coordinator.follower(1)
    assert follower is second and second.tm < tm == pytest.approx(first.tm + 30.0 / 10.0)
    coordinator.adjust_merging_time(2, tm)
    # same lane behind 2: its own scheduling speed 11.0 over 2's 10.0 m/s
    follower, tm = coordinator.follower(2)
    assert follower is third and tm == pytest.approx(second.tm + 1.2 * 11.0 / 10.0)
    assert coordinator.follower(3) is None
    with pytest.raises(UnknownVehicleError):
        coordinator.follower(9)
    coordinator.release(1, tf=first.tf)
    assert coordinator.follower(2)[0] is third


def test_adjust_merging_time_only_relaxes(coordinator):
    coordinator.register_arrival(1, t0=0.0, v0=13.4, lane="lane_a")
    tm = coordinator.entry(1).tm
    coordinator.adjust_merging_time(1, tm + 0.1)
    assert coordinator.entry(1).tm == pytest.approx(tm + 0.1)
    with pytest.raises(ValueError):
        coordinator.adjust_merging_time(1, tm - 0.5)


def test_truncation_counted(caplog):
    zone = make_zone()
    bounds = Bounds(u_min=-3.0, u_max=1.5, v_min=5.0, v_max=13.4)
    coord = ZoneCoordinator(zone, bounds)
    coord.register_arrival(1, t0=0.0, v0=13.4, lane="lane_b")
    coord.set_terminal_speed(1, 1.6)   # 30 m at 1.6 m/s: 18.75 s gap term
    with caplog.at_level("WARNING"):
        coord.register_arrival(2, t0=0.0, v0=10.0, lane="lane_a")
    assert sum(e.truncated for e in coord.history) == 1
    assert coord.entry(2).truncated


# ---------------------------------------------------------------------------
# occupancy


def test_same_lane_overlap_is_not_lateral_conflict():
    intervals = [
        OccupancyInterval(1, 10.0, 13.0, "lane_a"),
        OccupancyInterval(2, 12.0, 15.0, "lane_a"),
    ]
    assert occupancy_check(1, intervals) == []


def test_conflict_lane_overlap_reported():
    intervals = [
        OccupancyInterval(1, 10.0, 13.0, "lane_a"),
        OccupancyInterval(2, 12.0, 15.0, "lane_b"),
    ]
    pairs = occupancy_check(1, intervals)
    assert pairs == [ConflictPair(1, 1, 2, 12.0, 13.0)]


def test_touching_intervals_do_not_conflict():
    intervals = [
        OccupancyInterval(1, 10.0, 12.0, "lane_a"),
        OccupancyInterval(2, 12.0, 15.0, "lane_b"),
    ]
    assert occupancy_check(1, intervals) == []


def test_schedule_chain_keeps_conflict_lanes_disjoint():
    # fixed-terminal zone: merge speed equals the zone speed, so the booked
    # intervals are exact and the recursion's cross-lane gap term must keep
    # them disjoint over arbitrary compliant arrival streams
    rng = np.random.default_rng(99)
    bounds = Bounds(u_min=-3.0, u_max=1.5, v_min=0.0, v_max=17.8816)
    for stream in range(200):
        zone = make_zone(cz=100.0, mz=15.0, mz_speed=11.176, kind="roundabout")
        coord = ZoneCoordinator(zone, bounds)
        t = 0.0
        for vid in range(30):
            t += float(rng.exponential(2.0))
            lane = "lane_a" if rng.random() < 0.6 else "lane_b"
            v0 = float(rng.uniform(0.85, 1.0)) * 11.176
            coord.register_arrival(vid, t0=t, v0=v0, lane=lane)
        assert occupancy_check(zone.index, coord.occupancy) == []


def test_schedule_is_fifo_monotone_and_clamped():
    rng = np.random.default_rng(5)
    bounds = Bounds(u_min=-3.0, u_max=1.5, v_min=0.0, v_max=17.8816)
    for stream in range(100):
        zone = make_zone(cz=100.0, mz=15.0, mz_speed=17.8816)
        coord = ZoneCoordinator(zone, bounds)
        t = 0.0
        entries = []
        for vid in range(40):
            t += float(rng.exponential(1.5))
            lane = "lane_a" if rng.random() < 0.5 else "lane_b"
            v0 = float(rng.uniform(0.8, 1.0)) * 17.8816
            entries.append(coord.register_arrival(vid, t0=t, v0=v0, lane=lane))
        for a, b in zip(entries, entries[1:]):
            assert b.tm >= a.tm - 1e-9
        for e in entries:
            assert e.tm >= e.t0 + 100.0 / bounds.v_max - 1e-9


def test_identical_streams_identical_schedules():
    bounds = Bounds(u_min=-3.0, u_max=1.5, v_min=0.0, v_max=17.8816)
    arrivals = [(i, 1.7 * i, 15.0 - 0.1 * i, "lane_a" if i % 3 else "lane_b")
                for i in range(25)]

    def run():
        coord = ZoneCoordinator(make_zone(), bounds)
        return [coord.register_arrival(vid, t0=t, v0=v, lane=lane).tm
                for vid, t, v, lane in arrivals]

    assert run() == run()
