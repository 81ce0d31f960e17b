"""Simulation engine and metrics: spawning statistics, controller examples,
integrator invariants, safety checks on whole traces, determinism."""

import bisect
import dataclasses
import hashlib
import logging
import math

import numpy as np
import pytest

from corridorsim.coordinator import OccupancyInterval, occupancy_check
from corridorsim.core import Bounds, VehicleState, load_config, load_config_file
from corridorsim import metrics, sim
from corridorsim.sim import (
    StepContext,
    arrival_times,
    baseline_step,
    optimal_step,
    plan_merge,
)
from corridorsim.trajectory import (
    BoundaryConditions,
    InfeasibleHorizonError,
    solve_bounded,
    solve_unconstrained,
    terminal_speed,
)
from corridorsim.v2x.replay import frames_from_trace
import oracles
from oracles import trace_text

TABLE1 = "configs/table1.yaml"


def table1(mode="optimal", horizon=120.0, seed=1):
    return dataclasses.replace(load_config_file(TABLE1), mode=mode, horizon=horizon, seed=seed)


# ---------------------------------------------------------------------------
# spawner


def test_poisson_count_within_three_sigma():
    cfg = dataclasses.replace(load_config_file(TABLE1), horizon=3600.0)
    n = len(arrival_times(cfg, [r.name for r in cfg.routes].index("highway")))
    lam = 800.0
    assert abs(n - lam) <= 3.0 * math.sqrt(lam)


def test_zero_flow_spawns_nothing():
    cfg = dataclasses.replace(load_config(ZERO_FLOW), mode="baseline")
    res = sim.run(cfg)
    assert res.spawned == 0 and not res.rows


def test_arrival_streams_are_deterministic_and_independent():
    cfg = dataclasses.replace(load_config_file(TABLE1), horizon=600.0)
    names = [r.name for r in cfg.routes]
    assert names == ["main", "highway", "srz_feeder", "ring"]
    a = [arrival_times(cfg, i) for i in range(len(names))]
    assert a == [arrival_times(cfg, i) for i in range(len(names))]
    # adding traffic elsewhere must not disturb an existing stream: the ring
    # stream is keyed by route position, not by global draw order
    assert a[3] != a[0]


def test_vehicle_ids_increase_in_spawn_order():
    res = sim.run(table1(mode="baseline", horizon=60.0))
    first_seen = {}
    for t, vid, route, *_ in res.rows:
        first_seen.setdefault(vid, (t, route))
    per_route = {}
    for vid, (t, route) in sorted(first_seen.items()):
        per_route.setdefault(route, []).append(t)
    for times in per_route.values():
        assert times == sorted(times)


# ---------------------------------------------------------------------------
# baseline controller examples

BOUNDS = Bounds(u_min=-3.0, u_max=1.5, v_min=0.0, v_max=17.8816)


def ctx(**kw):
    base = dict(v_des=17.8816, dt=0.1, bounds=BOUNDS)
    base.update(kw)
    return StepContext(**base)


def test_free_road_at_desired_speed_gives_zero_accel():
    veh = VehicleState(vehicle_id=1, route="main", s=0.0, v=17.8816)
    assert baseline_step(veh, None, ctx()) == pytest.approx(0.0, abs=1e-12)


def test_stopped_leader_two_meters_ahead_forces_hard_braking():
    veh = VehicleState(vehicle_id=1, route="main", s=100.0, v=10.0)
    leader = VehicleState(vehicle_id=2, route="main", s=102.0, v=0.0)
    u = baseline_step(veh, leader, ctx())
    assert u <= -sim.COMFORT_DECEL


def test_limit_drop_braking_engages_inside_stopping_distance():
    veh = VehicleState(vehicle_id=1, route="main", s=0.0, v=17.8816)
    v_low = 8.314944
    # outside the envelope: no reaction yet
    far = ctx(limit_cuts=((60.0, v_low),))
    assert baseline_step(veh, None, far) == pytest.approx(0.0, abs=1e-12)
    # just inside (v^2 - vL^2)/2b = 41.76 m: braking at comfort rate
    near = ctx(limit_cuts=((41.0, v_low),))
    assert baseline_step(veh, None, near) == pytest.approx(-3.0)


def test_yield_blocked_vehicle_tracks_virtual_line_leader():
    veh = VehicleState(vehicle_id=1, route="main", s=340.0, v=8.0)
    u = baseline_step(veh, None, ctx(line_gap=9.8))
    assert u < -1.0   # strong deceleration approaching the stop point


# ---------------------------------------------------------------------------
# optimal controller


def test_tracking_a_cruise_plan_is_exact():
    bc = BoundaryConditions(p0=0.0, v0=10.0, t0=0.0, p_mz=100.0, tm=10.0)
    coeffs = solve_unconstrained(bc)
    veh = VehicleState(vehicle_id=1, route="main", s=50.0, v=10.0)
    u, clamped, p_plan = optimal_step(veh, coeffs, 5.0, 0.1, BOUNDS, 10.0)
    assert not clamped
    assert u == pytest.approx(0.0, abs=1e-9)
    assert p_plan == pytest.approx(51.0, abs=1e-9)   # the plan at t + dt


def test_tracking_extrapolates_past_the_merging_time():
    bc = BoundaryConditions(p0=0.0, v0=10.0, t0=0.0, p_mz=100.0, tm=10.0)
    coeffs = solve_unconstrained(bc)
    veh = VehicleState(vehicle_id=1, route="main", s=99.5, v=10.0)
    u, _, p_plan = optimal_step(veh, coeffs, 9.95, 0.1, BOUNDS, 10.0)
    assert u == pytest.approx(0.0, abs=1e-9)
    assert p_plan == pytest.approx(100.0, abs=1e-9)  # held at the plan's end


def test_plan_merge_clean_at_first_attempt_keeps_the_booked_tm():
    cfg = table1()
    plan = plan_merge(250.0, 15.0, 0.0, 350.0, cfg.zones[0], 8.0, cfg.bounds)
    assert plan.clean and plan.tm == 8.0
    assert plan.coeffs.tm == 8.0
    assert plan.v_hold == max(terminal_speed(plan.coeffs), 0.05)


def _clean(p0, v0, t0, p_mz, tm, bounds):
    try:
        solve_bounded(BoundaryConditions(p0=p0, v0=v0, t0=t0, p_mz=p_mz, tm=tm), bounds)
        return True
    except InfeasibleHorizonError:
        return False


def test_plan_merge_books_the_least_clean_horizon():
    # zone 1 at v_max, booked 0.42 s sooner than v_max covers the 100 m: the
    # first clean plan cruises on v_max, within solve_with_speed_arc's 1e-6 m
    # of the line, not at a 0.1 s step after the booking
    cfg = table1()
    v = cfg.bounds.v_max
    tm = 100.0 / v - 0.42
    plan = plan_merge(250.0, v, 0.0, 350.0, cfg.zones[0], tm, cfg.bounds)
    assert plan.clean and plan.coeffs.tm == plan.tm
    assert plan.tm == pytest.approx((100.0 - 1e-6) / v, abs=1e-12)
    assert _clean(250.0, v, 0.0, 350.0, plan.tm, cfg.bounds)
    assert not _clean(250.0, v, 0.0, 350.0, math.nextafter(plan.tm, 0.0), cfg.bounds)


# the four zone-1 replans that crashed optimal Table-1 runs at 300 s with
# 0.1 s relaxation steps: (seed, distance to the line, speed, booked horizon,
# the window of clean horizons a 1 ms scan found)
CRASH_STATES = [
    (12, 7.28, 15.19, 0.45, (0.472, 0.495)),
    (25, 12.2, 15.69, 0.74, (0.760, 0.820)),
    (33, 9.93, 14.4, 0.64, (0.674, 0.726)),
    (38, 10.66, 15.28, 0.64, (0.683, 0.733)),
]


@pytest.mark.parametrize("seed,dist,v0,booked,scanned", CRASH_STATES,
                         ids=[f"seed{c[0]}" for c in CRASH_STATES])
def test_crash_state_books_a_clean_plan_inside_its_window(seed, dist, v0, booked, scanned):
    # free terminal speed: u(t0) = 3*(D - v0*T)/T^2 falls through u_max and
    # then u_min as T grows, so the window is [root at u_max, root at u_min]
    cfg = table1()
    b = cfg.bounds
    t0, p0 = 134.5, 350.0 - dist

    def root(u):
        return (-3.0 * v0 + math.sqrt(9.0 * v0 * v0 + 12.0 * u * dist)) / (2.0 * u)

    lo, hi = root(b.u_max), root(b.u_min)
    assert (lo, hi) == pytest.approx(scanned, abs=1.5e-3)
    plan = plan_merge(p0, v0, t0, 350.0, cfg.zones[0], t0 + booked, b)
    assert plan.clean
    assert lo - 1e-9 <= plan.tm - t0 <= hi
    assert not _clean(p0, v0, t0, 350.0, plan.tm - 1e-9, b)


def test_plan_merge_without_a_clean_horizon_runs_the_partial_at_the_booked_tm():
    # 5 m before zone 2's MZ line at 40 mph: reaching 18.6 mph there takes
    # about 25 m/s^2 of braking, whatever the merging time
    cfg = table1()
    v = cfg.bounds.v_max
    zone = cfg.zones[1]
    plan = plan_merge(695.0, v, 0.0, 700.0, zone, 5.0 / v, cfg.bounds)
    assert plan.clean is False
    assert plan.tm == 5.0 / v and plan.coeffs.tm == plan.tm
    assert plan.v_hold == max(terminal_speed(plan.coeffs), 0.05)


def test_unclean_plans_are_counted_not_warned(caplog):
    # bench geometry seed 2 books three merges with no clean horizon
    cfg = dataclasses.replace(load_config_file("configs/bench.yaml"), seed=2)
    with caplog.at_level(logging.DEBUG, logger="corridorsim"):
        res = sim.run(cfg)
    assert res.events["relax_exhausted"] == 3
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert sum("no clean plan" in r.getMessage() for r in caplog.records) == 3


def test_least_float_snaps_near_the_switch_and_raises_far_from_it():
    # a guess a few ulps off snaps to the switch; a stale one raises rather
    # than walking float by float without end
    assert sim._least_float(lambda s: s >= 0.1, 0.1 + 1e-16) == 0.1
    assert sim._least_float(lambda s: s >= 0.1, 0.1 - 1e-16) == 0.1
    for guess in (0.2, 0.05):
        with pytest.raises(RuntimeError, match="no switch"):
            sim._least_float(lambda s: s >= 0.1, guess)


# ---------------------------------------------------------------------------
# integrator invariants


@pytest.fixture(scope="module")
def result():
    return sim.run(table1(mode="optimal", horizon=120.0))


class TestIntegratorInvariants:
    def test_kinematic_identity(self, result):
        dt = 0.1
        for rows in _by_vehicle(result.rows).values():
            for a, b in zip(rows, rows[1:]):
                assert abs(b[3] - a[3] - b[4] * dt) <= 1e-9

    def test_time_grid_and_state_ranges(self, result):
        for t, vid, route, s, v, u, zone in result.rows:
            assert abs(t - round(t / 0.1) * 0.1) < 1e-9
            assert v >= 0.0
            assert -3.0 - 1e-9 <= u <= 1.5 + 1e-9
            assert zone in (0, 1, 2, 3)

    def test_positions_never_decrease(self, result):
        for rows in _by_vehicle(result.rows).values():
            ss = [r[3] for r in rows]
            assert all(b >= a for a, b in zip(ss, ss[1:]))

    def test_zone_column_matches_geometry(self, result):
        cfg = load_config_file(TABLE1)
        spans = {}
        for z in cfg.zones:
            for ap in z.approaches:
                spans.setdefault(ap.route, []).append(
                    (ap.cz_start, ap.mz_start + z.mz_length, z.index))
        for t, vid, route, s, v, u, zone in result.rows:
            expect = 0
            for lo, hi, idx in spans[route]:
                if lo <= s < hi:
                    expect = idx
                    break
            assert zone == expect

    def test_conservation(self, result):
        assert result.spawned == result.exited + result.active_at_end


def _by_vehicle(rows):
    out = {}
    for row in rows:
        out.setdefault(row[1], []).append(row)
    return out


def test_two_runs_same_seed_bitwise_identical():
    a = sim.run(table1(mode="optimal", horizon=90.0, seed=3))
    b = sim.run(table1(mode="optimal", horizon=90.0, seed=3))
    ha = hashlib.sha256(trace_text(a.rows).encode()).hexdigest()
    hb = hashlib.sha256(trace_text(b.rows).encode()).hexdigest()
    assert ha == hb


# sha256 over trace, schedule and events bytes of Table-1 cut to 60 s; the
# step loop and the writers must reproduce them bit for bit
GOLDEN_60S = {
    ("optimal", 1): "baf57999f1e7fcf78b6986ac73f5ffafa8b133d0b0e4f7fe8a84d57c0ce2c165",
    ("optimal", 3): "3df08bc30b5e8719258dc510d94fb1f95842f0947e87765abd93706fc8618826",
    ("baseline", 1): "406a2a3ff4e03b1089f7ff33ea8587eb340396ffed80605d17b0e505742cb47a",
    ("baseline", 3): "c343650852f8e0278ac1730f9f4a6d35720c4a08cb4262cfa7ac08a9679dfd8d",
}


@pytest.mark.parametrize("mode,seed", sorted(GOLDEN_60S))
def test_outputs_match_golden_digest(tmp_path, mode, seed):
    res = sim.run(table1(mode=mode, horizon=60.0, seed=seed))
    paths = [tmp_path / name for name in ("trace.csv", "schedule.csv", "events.json")]
    metrics.write_trace(str(paths[0]), res.rows)
    metrics.write_schedule(str(paths[1]), res.schedule)
    metrics.write_events(str(paths[2]), res.events)
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    assert h.hexdigest() == GOLDEN_60S[(mode, seed)]


def _off_grid_table1():
    """Table-1 with zone geometry off the binary grid, so the window
    comparisons round."""
    with open(TABLE1) as fh:
        doc = fh.read()
    for a, b in (("mz_entry: 350 m", "mz_entry: 349.9 m"), ("mz_entry: 700 m", "mz_entry: 700.3 m"),
                 ("mz_entry: 1200 m", "mz_entry: 1199.7 m"), ("length: 100 m", "length: 99.3 m"),
                 ("mz_length: 15 m", "mz_length: 15.1 m"), ("mz_length: 125 m", "mz_length: 124.9 m")):
        doc = doc.replace(a, b)
    return load_config(doc)


@pytest.mark.parametrize("cfg", [table1(), _off_grid_table1()], ids=["table1", "off-grid"])
def test_route_cells_match_window_comparisons(cfg):
    rng = np.random.default_rng(5)
    for rt in sim.Simulation(cfg).routes:
        bindings = cfg.zones_on(rt.name)
        probes = rng.uniform(-10.0, rt.spec.length + 10.0, 2000).tolist()
        edges = [edge for zone, ap in bindings
                 for edge in (ap.cz_start, ap.mz_start, ap.mz_start + zone.mz_length)]
        edges += [end for end, _ in rt.spec.limit_boundaries()[1:]] + [rt.spec.length]
        for edge in edges:
            s = edge - 4 * math.ulp(edge)
            for _ in range(9):
                probes.append(s)
                s = math.nextafter(s, math.inf)
        for s in probes:
            column, frames, entrant, limit, cut = rt.cells[bisect.bisect_right(rt.edges, s)]
            assert column == next((z.index for z, ap in bindings
                                   if ap.cz_start <= s < ap.mz_start + z.mz_length), 0)
            assert [sl.zone.index for sl in frames] == [
                z.index for z, ap in bindings if ap.cz_start <= s < ap.mz_start + z.mz_length]
            assert (entrant and entrant.zone.index) == next(
                (z.index for z, ap in bindings if ap.cz_start <= s < ap.mz_start), None)
            assert limit == rt.spec.limit_at(s)
            assert cut == bisect.bisect_right(rt.cuts, (s, math.inf))


def test_different_seed_changes_the_trace():
    a = sim.run(table1(mode="baseline", horizon=60.0, seed=1))
    b = sim.run(table1(mode="baseline", horizon=60.0, seed=2))
    assert trace_text(a.rows) != trace_text(b.rows)


# ---------------------------------------------------------------------------
# behaviour on the corridor


def test_single_probe_vehicle_modes_agree_within_two_percent(monkeypatch):
    # one vehicle on the main route at 0 s and none on the others
    monkeypatch.setattr(sim, "arrival_times", lambda config, i:
                        [0.0] if config.routes[i].name == config.main_route else [])
    times = {}
    for mode in ("baseline", "optimal"):
        res = sim.run(table1(mode=mode, horizon=150.0))
        assert res.spawned == 1 and res.exited == 1
        m = metrics.compute_metrics(res.rows, table1(mode=mode))
        times[mode] = m.corridor_time
    rel = abs(times["optimal"] - times["baseline"]) / times["baseline"]
    assert rel < 0.02


def test_short_runs_have_no_rear_end_or_lateral_violations():
    for mode in ("baseline", "optimal"):
        cfg = table1(mode=mode, horizon=120.0, seed=5)
        res = sim.run(cfg)
        assert metrics.rear_end_check(metrics.by_step(res.rows), cfg) == []
        assert metrics.occupancy_from_trace(res.rows, cfg) == []


def test_yielding_vehicle_stops_within_half_meter_of_the_line():
    cfg = dataclasses.replace(load_config(YIELD_TRAP), mode="baseline")
    res = sim.run(cfg)
    stopped = [(t, s) for t, vid, route, s, v, u, zone in res.rows
               if route == "minor" and v < 0.1 and s > 200.0]
    assert stopped, "the minor-road vehicle should have been forced to stop"
    line = 350.0
    s_rest = max(s for _, s in stopped)
    assert line - 0.5 <= s_rest < line


def test_released_schedule_entries_record_actual_exit_times():
    res = sim.run(table1(mode="optimal", horizon=120.0))
    finished = [rec for rec in res.schedule if rec.tf > rec.tm]
    assert finished
    for rec in finished:
        assert rec.t0 < rec.tm < rec.tf


@pytest.mark.parametrize("seed", [4, 5, 7])
def test_unreleased_schedule_rows_keep_the_booked_exit(seed):
    # a replan moves tm and v_at_tm; the booked exit must move with them
    cfg = table1(mode="optimal", horizon=60.0, seed=seed)
    res = sim.run(cfg)
    reach, route_of = {}, {}
    for _, vid, route, s, _, _, _ in res.rows:
        reach[vid] = max(s, reach.get(vid, s))
        route_of[vid] = route
    checked = 0
    for rec in res.schedule:
        zone, ap = next((z, ap) for z, ap in cfg.zones_on(route_of[rec.vehicle_id])
                        if z.index == rec.zone)
        if reach[rec.vehicle_id] >= ap.mz_start + zone.mz_length - 1e-9:
            continue   # released: tf is the recorded exit
        checked += 1
        assert rec.tf == rec.tm + zone.mz_length / rec.v_at_tm, rec
    assert checked


# Table-1 optimal runs (horizon, seed) whose bookings overlapped while a
# replan could move a predecessor's booking later behind its follower's back,
# and the lateral pairs verify still finds in each trace. Each remaining
# pair is booked back to back; the first vehicle reaches the line 10-25 ms
# behind its plan under a governor cap, and the follower enters on time.
# The coordinator's book, whose released entries end at the instant the
# crossing rule places the vehicle on the merging zone's end (the instant the
# trace's rows give), names these pairs and the lag pairs whose overlap the
# lateral check forgives (under 0.01 s), and no other.
LATERAL_PAIRS = {
    (300.0, 3): {(1, 212, 209)},
    (300.0, 13): set(),
    (300.0, 25): {(1, 93, 91)},
    (300.0, 38): {(1, 38, 40)},
    (600.0, 13): set(),
}
FORGIVEN_LAG_PAIRS = {
    (300.0, 13): {(1, 200, 201)},
    (600.0, 13): {(1, 200, 201), (3, 209, 274)},
}


@pytest.mark.parametrize("horizon,seed", sorted(LATERAL_PAIRS))
def test_bookings_stay_conflict_free_after_replans(horizon, seed):
    cfg = table1(mode="optimal", horizon=horizon, seed=seed)
    res = sim.run(cfg)
    assert res.events["follower_pushes"] > 0
    by_vehicle = _by_vehicle(res.rows)
    executed = set()
    for zone in cfg.zones:
        if zone.shared_lane:
            continue
        entries = {e.vehicle_id: e for e in res.schedule if e.zone == zone.index}
        booked = [OccupancyInterval(e.vehicle_id, e.tm, e.tm + zone.mz_length / e.v_at_tm, e.lane)
                  for e in entries.values()]
        assert occupancy_check(zone.index, booked) == []
        book = [OccupancyInterval(e.vehicle_id, e.tm, e.tf, e.lane) for e in entries.values()]
        for pair in occupancy_check(zone.index, book):
            executed.add((zone.index, pair.vehicle_a, pair.vehicle_b))
            # the first of the pair reached the line after its booked time
            first = entries[pair.vehicle_a]
            vrows = by_vehicle[first.vehicle_id]
            assert oracles.crossing(vrows, zone.approach_for(vrows[0][2]).mz_start) > first.tm
    lateral = metrics.occupancy_from_trace(res.rows, cfg)
    assert {(p.zone, p.vehicle_a, p.vehicle_b) for p in lateral} == LATERAL_PAIRS[(horizon, seed)]
    assert executed == LATERAL_PAIRS[(horizon, seed)] | FORGIVEN_LAG_PAIRS.get((horizon, seed), set())
    released = 0
    for e in res.schedule:
        vrows = by_vehicle[e.vehicle_id]
        zone, ap = next((z, ap) for z, ap in cfg.zones_on(vrows[0][2]) if z.index == e.zone)
        t_out = oracles.crossing(vrows, ap.mz_start + zone.mz_length)
        if t_out is not None:   # released; otherwise tf is the booked exit
            released += 1
            assert abs(t_out - e.tf) <= 1e-9, e
    assert released > len(res.schedule) // 2


# ---------------------------------------------------------------------------
# metrics module


@pytest.fixture(scope="module")
def optimal_60s():
    cfg = table1(mode="optimal", horizon=60.0)
    return cfg, sim.run(cfg)


def test_schedule_roundtrip_is_exact(tmp_path, optimal_60s):
    _, res = optimal_60s
    # no Table-1 run truncates a gap term; one flagged row covers the 0/1 field
    flagged = dataclasses.replace(res.schedule[-1], vehicle_id=10**6, truncated=True)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    metrics.write_schedule(str(first), res.schedule + [flagged])
    back = metrics.read_schedule(str(first))
    metrics.write_schedule(str(second), back)
    assert second.read_bytes() == first.read_bytes()
    assert back[-1].truncated is True and not any(e.truncated for e in back[:-1])


def test_frames_match_with_the_read_back_schedule(tmp_path, optimal_60s):
    cfg, res = optimal_60s
    path = tmp_path / "schedule.csv"
    metrics.write_schedule(str(path), res.schedule)
    frames = list(frames_from_trace(res.rows, cfg, res.schedule))
    assert any(f.tm_ms for f in frames)
    assert list(frames_from_trace(res.rows, cfg, metrics.read_schedule(str(path)))) == frames


def test_trace_roundtrip_is_exact(tmp_path):
    res = sim.run(table1(mode="baseline", horizon=30.0))
    path = tmp_path / "trace.csv"
    metrics.write_trace(str(path), res.rows)
    back = metrics.read_trace(str(path))
    assert len(back) == len(res.rows)
    assert trace_text(back) == trace_text(res.rows)


def test_metrics_hand_computed_vehicle():
    cfg = load_config(ZERO_FLOW)
    rows = [
        (0.0, 1, "main", 0.0, 10.0, 1.0, 0),
        (0.1, 1, "main", 1.0, 10.1, 0.5, 0),
        (0.2, 1, "main", 500.0, 10.15, 0.5, 0),
    ]
    m = metrics.compute_metrics(rows, cfg)
    assert m.completed == 1
    assert m.corridor_time == pytest.approx(0.2)
    # integrals use executed controls only (the final row is a snapshot)
    assert m.mean_effort == pytest.approx(1.0 * 0.1 + 0.25 * 0.1)
    assert m.mean_work == pytest.approx(10.0 * 1.0 * 0.1 + 10.1 * 0.5 * 0.1)


def test_rear_end_check_flags_a_compressed_pair():
    cfg = load_config(ZERO_FLOW)
    rows = [
        (0.0, 1, "main", 100.0, 10.0, 0.0, 0),
        (0.0, 2, "main", 90.0, 10.0, 0.0, 0),   # gap 10 < 1.2 * 10
    ]
    bad = metrics.rear_end_check(metrics.by_step(rows), cfg)
    assert len(bad) == 1
    t, follower, leader, gap, required = bad[0]
    assert (follower, leader) == (2, 1)
    assert gap == pytest.approx(10.0) and required == pytest.approx(12.0)


def test_rear_end_check_accepts_exact_headway():
    cfg = load_config(ZERO_FLOW)
    rows = [
        (0.0, 1, "main", 112.0, 10.0, 0.0, 0),
        (0.0, 2, "main", 100.0, 10.0, 0.0, 0),
    ]
    assert metrics.rear_end_check(metrics.by_step(rows), cfg) == []


def test_occupancy_from_trace_catches_cross_lane_overlap():
    cfg = load_config(TWO_LANE_MERGE)
    rows = []
    # vehicle 1 (main) occupies the merging zone over 5..15 s; vehicle 2
    # (side) enters at 7.5 s while 1 is still inside
    for k in range(300):
        t = k * 0.1
        s1 = min(340.0 + 2.0 * t, 380.0)
        s2 = min(335.0 + 2.0 * t, 380.0)
        rows.append((t, 1, "main", s1, 2.0, 0.0, 1))
        rows.append((t, 2, "side", s2, 2.0, 0.0, 1))
    conflicts = metrics.occupancy_from_trace(rows, cfg)
    assert conflicts
    pair = conflicts[0]
    assert {pair.vehicle_a, pair.vehicle_b} == {1, 2}


def test_a_vehicle_still_inside_at_the_end_occupies_until_the_last_time_plus_dt():
    cfg = load_config(TWO_LANE_MERGE)
    rows = []
    for k in range(11):     # the data ends at t = 1.0 s with both inside
        t = k / 10
        rows.append((t, 1, "main", 349.5 + 0.2 * k, 2.0, 0.0, 1))
        rows.append((t, 2, "side", 349.0 + 0.2 * k, 2.0, 0.0, 1))
    conflicts = metrics.occupancy_from_trace(rows, cfg)
    assert conflicts == oracles.occupancy_from_trace(rows, cfg)
    (pair,) = conflicts
    assert (pair.vehicle_a, pair.vehicle_b) == (1, 2)
    # at 0.4 s, 2 is 0.2 m short of the line at 2 m/s: it enters at 0.5 s
    assert pair.overlap_start == pytest.approx(0.5, abs=1e-12)
    assert pair.overlap_end == 1.0 + cfg.dt


def test_a_line_at_the_spawn_point_is_crossed_at_the_first_row():
    # zone 1's control zone starts at 0 m, where the vehicle spawns at 1.3 s;
    # it leaves the merging zone (370 m) and the route (500 m) on a row
    cfg = load_config(TWO_LANE_MERGE.replace("length: 100 m", "length: 350 m"))
    assert cfg.zones[0].approach_for("main").cz_start == 0.0
    rows = [((13 + k) / 10, 1, "main", float(k), 10.0, 0.0, 1 if k < 370 else 0)
            for k in range(501)]
    m = metrics.compute_metrics(rows, cfg)
    assert m == oracles.compute_metrics(rows, cfg)
    assert m.zone_time == {1: pytest.approx(37.0, abs=1e-9)}
    assert m.corridor_time == pytest.approx(50.0, abs=1e-9)


def test_same_lane_zone_is_exempt_from_occupancy():
    cfg = load_config(TWO_LANE_MERGE.replace("lane: side_lane", "lane: shared")
                      .replace("lane: shared_main", "lane: shared"))
    rows = [
        (0.0, 1, "main", 355.0, 2.0, 0.0, 1),
        (0.0, 2, "side", 356.0, 2.0, 0.0, 1),
    ]
    assert metrics.occupancy_from_trace(rows, cfg) == []


def test_report_includes_improvement_column():
    cfg = table1()
    runs = {}
    for mode in ("baseline", "optimal"):
        c = table1(mode=mode, horizon=200.0)
        res = sim.run(c)
        runs[mode] = [metrics.compute_metrics(res.rows, c)]
    text = metrics.render_report(cfg, runs)
    assert "improvement" in text
    assert "zone 3 (roundabout)" in text
    assert "corridor time" in text


def test_report_scores_each_row_in_its_better_direction():
    # optimal is faster but completes fewer vehicles: both rows must say so
    cfg = table1()
    runs = {"baseline": [metrics.Metrics(corridor_time=150.0, completed=215)],
            "optimal": [metrics.Metrics(corridor_time=120.0, completed=200)]}
    lines = metrics.render_report(cfg, runs).splitlines()
    gain = {line[:34].strip(): line[-14:].strip() for line in lines[2:]}
    assert gain["corridor time [s]"] == "20.0%"
    assert gain["vehicles completed"] == "-7.0%"


# ---------------------------------------------------------------------------
# config fixtures


ZERO_FLOW = """
seed: 1
dt: 0.1 s
horizon: 10 s
main_route: main
bounds: {u_min: -3 m/s2, u_max: 1.5 m/s2, v_min: 0 m/s, v_max: 17.8816 m/s}
routes:
  main:
    flow: 0 vph
    segments:
      - {length: 500 m, limit: 17.8816 m/s}
zones: []
"""

# a minor road facing a saturated priority stream: the acceptance window
# never opens, so the minor vehicle must stop at the line
YIELD_TRAP = """
seed: 12
dt: 0.1 s
horizon: 60 s
main_route: minor
bounds: {u_min: -3 m/s2, u_max: 1.5 m/s2, v_min: 0 m/s, v_max: 17.8816 m/s}
routes:
  minor:
    flow: 150 vph
    segments:
      - {length: 500 m, limit: 17.8816 m/s}
  major:
    flow: 3600 vph
    segments:
      - {length: 365 m, limit: 17.8816 m/s}
zones:
  - z: 1
    kind: merge
    length: 100 m
    mz_length: 15 m
    mz_speed: 17.8816 m/s
    approaches:
      - {route: minor, lane: ramp, mz_entry: 350 m, priority: false}
      - {route: major, lane: through, mz_entry: 350 m, priority: true}
"""

TWO_LANE_MERGE = """
seed: 1
dt: 0.1 s
horizon: 40 s
main_route: main
bounds: {u_min: -3 m/s2, u_max: 1.5 m/s2, v_min: 0 m/s, v_max: 17.8816 m/s}
routes:
  main:
    flow: 100 vph
    segments:
      - {length: 500 m, limit: 17.8816 m/s}
  side:
    flow: 100 vph
    segments:
      - {length: 370 m, limit: 17.8816 m/s}
zones:
  - z: 1
    kind: merge
    length: 100 m
    mz_length: 20 m
    mz_speed: 17.8816 m/s
    approaches:
      - {route: main, lane: shared_main, mz_entry: 350 m, priority: false}
      - {route: side, lane: side_lane, mz_entry: 350 m, priority: true}
"""
