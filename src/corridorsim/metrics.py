"""Trace files and everything derived from them.

The trace CSV is the single source of truth for analysis: metrics, the
rear-end check, and the lateral-occupancy check are all computed from the
written rows, never from in-memory simulator state, so a reported number is
always reproducible from the file alone.

Row format: ``t,id,route,s,v,u,zone`` with t printed at millisecond
resolution and s/v/u at nine decimals. Each row carries the state at time t
and the control executed over [t, t+dt); the extra row emitted when a
vehicle leaves its route is a terminal state snapshot and contributes no
integration interval.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterator

from corridorsim.coordinator import MzOccupancy, OccupancyInterval, ScheduleEntry, occupancy_check
from corridorsim.core import CorridorConfig

__all__ = [
    "TRACE_HEADER",
    "write_trace",
    "iter_trace",
    "read_trace",
    "write_schedule",
    "read_schedule",
    "write_events",
    "compute_metrics",
    "Metrics",
    "summarize",
    "rear_end_check",
    "occupancy_from_trace",
    "render_report",
]

TRACE_HEADER = "t,id,route,s,v,u,zone"
SCHEDULE_HEADER = "vehicle,zone,t0,tm,tf,v_at_tm,relation,lane,truncated"
STOP_SPEED = 0.1


_ROW_FORMAT = "%.3f,%d,%s,%.9f,%.9f,%.9f,%d\n"
_CHUNK_ROWS = 8192   # bounds the transient text of one write
_SCHEDULE_FORMAT = "%d,%d,%.9f,%.9f,%.9f,%.9f,%s,%s,%d\n"
_schedule_row = attrgetter(*(f.name for f in fields(ScheduleEntry)))


def _trace_text(rows: list[tuple]):
    yield TRACE_HEADER + "\n"
    for i in range(0, len(rows), _CHUNK_ROWS):
        yield "".join([_ROW_FORMAT % row for row in rows[i:i + _CHUNK_ROWS]])


def write_trace(path: str, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(_trace_text(rows))


def trace_bytes(rows: list[tuple]) -> bytes:
    return "".join(_trace_text(rows)).encode()


def iter_trace(path: str) -> Iterator[tuple]:
    """Trace rows one at a time, typed as ``read_trace`` returns them."""
    routes: dict[str, str] = {}   # one string per route name, not one per row
    times: dict[str, float] = {}  # one float per time step, not one per row
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or ",".join(header) != TRACE_HEADER:
            raise ValueError(f"{path}: not a trace file (bad header)")
        for t, vid, route, s, v, u, zone in reader:
            tf = times.get(t)
            if tf is None:
                tf = times[t] = float(t)
            yield (tf, int(vid), routes.setdefault(route, route), float(s),
                   float(v), float(u), int(zone))


def read_trace(path: str) -> list[tuple]:
    return list(iter_trace(path))


def write_schedule(path: str, schedule: list[ScheduleEntry]) -> None:
    """One row per entry, fields in ``ScheduleEntry`` order; truncated as 0/1."""
    with open(path, "w", newline="") as fh:
        fh.write(SCHEDULE_HEADER + "\n")
        fh.writelines(_SCHEDULE_FORMAT % _schedule_row(e) for e in schedule)


def read_schedule(path: str) -> list[ScheduleEntry]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or ",".join(header) != SCHEDULE_HEADER:
            raise ValueError(f"{path}: not a schedule file (bad header)")
        return [ScheduleEntry(int(vid), int(zone), float(t0), float(tm), float(tf),
                              float(v_at_tm), relation, lane, truncated == "1")
                for vid, zone, t0, tm, tf, v_at_tm, relation, lane, truncated in reader]


def write_events(path: str, events: dict) -> None:
    with open(path, "w") as fh:
        json.dump(dict(sorted(events.items())), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# metrics


@dataclass
class Metrics:
    mode: str
    seed: int
    spawned_per_route: dict = field(default_factory=dict)
    completed_per_route: dict = field(default_factory=dict)
    corridor_time: float = float("nan")      # mean, completed main-route vehicles
    zone_time: dict = field(default_factory=dict)   # zone -> mean transit time
    mean_effort: float = float("nan")        # mean integral of u^2 dt
    mean_work: float = float("nan")          # mean integral of max(0, u*v) dt
    mean_stops: float = float("nan")
    completed: int = 0
    censored: int = 0


def _per_vehicle(rows: list[tuple]) -> dict[int, list[tuple]]:
    by_vehicle: dict[int, list[tuple]] = defaultdict(list)
    for row in rows:
        by_vehicle[row[1]].append(row)
    return by_vehicle


def compute_metrics(rows: list[tuple], config: CorridorConfig,
                    mode: str = "", seed: int = -1) -> Metrics:
    dt = config.dt
    m = Metrics(mode=mode or config.mode, seed=seed if seed >= 0 else config.seed)
    lengths = {r.name: r.length for r in config.routes}
    zone_samples: dict[int, list[float]] = defaultdict(list)
    corridor_samples: list[float] = []
    efforts: list[float] = []
    works: list[float] = []
    stops: list[int] = []
    for vid, vrows in _per_vehicle(rows).items():
        route = vrows[0][2]
        m.spawned_per_route[route] = m.spawned_per_route.get(route, 0) + 1
        completed = vrows[-1][3] >= lengths[route] - 1e-6
        if not completed:
            m.censored += 1
            continue
        m.completed += 1
        m.completed_per_route[route] = m.completed_per_route.get(route, 0) + 1
        travel = vrows[-1][0] - vrows[0][0]
        if route == config.main_route:
            corridor_samples.append(travel)
        effort = 0.0
        work = 0.0
        zone_dwell: dict[int, int] = defaultdict(int)
        stop_count = 0
        below = vrows[0][4] < STOP_SPEED
        for row in vrows[:-1]:
            _, _, _, _, v, u, zone = row
            effort += u * u * dt
            work += max(0.0, u * v) * dt
            if zone:
                zone_dwell[zone] += 1
        for row in vrows:
            now_below = row[4] < STOP_SPEED
            if now_below and not below:
                stop_count += 1
            below = now_below
        if vrows[0][4] < STOP_SPEED:
            stop_count += 1
        efforts.append(effort)
        works.append(work)
        stops.append(stop_count)
        for zone, n in zone_dwell.items():
            zone_samples[zone].append(n * dt)
    if corridor_samples:
        m.corridor_time = sum(corridor_samples) / len(corridor_samples)
    m.zone_time = {z: sum(v) / len(v) for z, v in zone_samples.items()}
    if efforts:
        m.mean_effort = sum(efforts) / len(efforts)
        m.mean_work = sum(works) / len(works)
        m.mean_stops = sum(stops) / len(stops)
    return m


def summarize(runs: list[Metrics]) -> dict:
    """Mean and sample standard deviation of each scalar across seeds."""
    def agg(values):
        vals = [v for v in values if not math.isnan(v)]
        if not vals:
            return (float("nan"), float("nan"))
        mean = sum(vals) / len(vals)
        if len(vals) < 2:
            return (mean, 0.0)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        return (mean, math.sqrt(var))

    zones = sorted({z for m in runs for z in m.zone_time})
    return {
        "corridor_time": agg([m.corridor_time for m in runs]),
        "zone_time": {z: agg([m.zone_time.get(z, float("nan")) for m in runs])
                      for z in zones},
        "mean_effort": agg([m.mean_effort for m in runs]),
        "mean_work": agg([m.mean_work for m in runs]),
        "mean_stops": agg([m.mean_stops for m in runs]),
        "completed": agg([float(m.completed) for m in runs]),
    }


# ---------------------------------------------------------------------------
# safety checks


def rear_end_check(rows: list[tuple], config: CorridorConfig,
                   tol: float = 1e-6) -> list[tuple]:
    """Headway violations: same-route consecutive pairs everywhere, plus
    cross-route pairs inside the merging zone of a shared-lane zone. The
    required gap is headway * follower speed. Returns
    (t, follower, leader, gap, required) tuples."""
    h = config.headway
    shared = [zone for zone in config.zones if zone.shared_lane]
    by_time: dict[float, list[tuple]] = defaultdict(list)
    for row in rows:
        by_time[row[0]].append(row)
    violations = []
    for t in sorted(by_time):
        group = by_time[t]
        per_route: dict[str, list[tuple]] = defaultdict(list)
        for row in group:
            per_route[row[2]].append(row)
        for route_rows in per_route.values():
            route_rows.sort(key=lambda r: -r[3])
            for lead, foll in zip(route_rows, route_rows[1:]):
                gap = lead[3] - foll[3]
                required = h * foll[4]
                if gap < required - tol:
                    violations.append((t, foll[1], lead[1], gap, required))
        for zone in shared:
            merged = []
            for ap in zone.approaches:
                for row in per_route.get(ap.route, []):
                    x = row[3] - ap.mz_start
                    if 0.0 <= x < zone.mz_length:
                        merged.append((x, row))
            merged.sort(key=lambda e: -e[0])
            for (x_lead, lead), (x_foll, foll) in zip(merged, merged[1:]):
                if lead[2] == foll[2]:
                    continue   # same route already covered above
                gap = x_lead - x_foll
                required = h * foll[4]
                if gap < required - tol:
                    violations.append((t, foll[1], lead[1], gap, required))
    return violations


def _crossing_time(vrows: list[tuple], boundary: float) -> float | None:
    """Linear-interpolated time at which the vehicle position crosses the
    boundary; None if it never does within its rows."""
    prev = vrows[0]
    if prev[3] >= boundary:
        return prev[0]
    for row in vrows[1:]:
        if row[3] >= boundary:
            span = row[3] - prev[3]
            frac = 0.0 if span <= 0 else (boundary - prev[3]) / span
            return prev[0] + frac * (row[0] - prev[0])
        prev = row
    return None


def occupancy_from_trace(rows: list[tuple], config: CorridorConfig,
                         tol: float = 1e-2) -> list:
    """Lateral-exclusion check on actual motion: merging-zone entry and exit
    times are interpolated from the trace, vehicles still inside at the end
    of the data are treated as occupying until the last timestamp, and
    overlapping cross-lane stays are reported via the same pairwise check
    the coordinator uses. The tolerance absorbs interpolation error so
    touching intervals stay legal."""
    if not rows:
        return []
    t_end = max(row[0] for row in rows) + config.dt
    by_vehicle = _per_vehicle(rows)
    conflicts = []
    for zone in config.zones:
        if zone.shared_lane:
            continue   # single shared lane: rear-end rules govern, not exclusion
        intervals = []
        for ap in zone.approaches:
            mz_end = ap.mz_start + zone.mz_length
            for vid, vrows in by_vehicle.items():
                if vrows[0][2] != ap.route:
                    continue
                t_in = _crossing_time(vrows, ap.mz_start)
                if t_in is None:
                    continue
                t_out = _crossing_time(vrows, mz_end)
                if t_out is None:
                    t_out = t_end
                intervals.append(OccupancyInterval(vehicle_id=vid, t_enter=t_in,
                                                   t_exit=t_out, lane=ap.lane))
        occ = MzOccupancy(zone=zone.index, intervals=intervals)
        conflicts.extend(occupancy_check(occ, tol=tol))
    return conflicts


# ---------------------------------------------------------------------------
# reporting


def _fmt(pair: tuple[float, float]) -> str:
    mean, std = pair
    if math.isnan(mean):
        return "      n/a"
    return f"{mean:8.2f} ± {std:5.2f}"


def render_report(config: CorridorConfig, by_mode: dict[str, list[Metrics]]) -> str:
    """Plain-text comparison table. With both modes present, adds the
    improvement column (positive = optimal better)."""
    zone_names = {z.index: f"zone {z.index} ({z.kind})" for z in config.zones}
    have_both = "baseline" in by_mode and "optimal" in by_mode
    sums = {mode: summarize(runs) for mode, runs in by_mode.items()}
    lines = []
    seeds = {mode: len(runs) for mode, runs in by_mode.items()}
    lines.append("corridor comparison over seeds: "
                 + ", ".join(f"{m}={n}" for m, n in sorted(seeds.items())))
    header = f"{'metric':<34}"
    for mode in sorted(by_mode):
        header += f"{mode:>18}"
    if have_both:
        header += f"{'improvement':>14}"
    lines.append(header)

    def row(label, key, zone=None):
        line = f"{label:<34}"
        vals = {}
        for mode in sorted(by_mode):
            pair = sums[mode][key] if zone is None else sums[mode][key].get(
                zone, (float("nan"), float("nan")))
            vals[mode] = pair
            line += f"{_fmt(pair):>18}"
        if have_both:
            b, o = vals["baseline"][0], vals["optimal"][0]
            if not math.isnan(b) and not math.isnan(o) and b:
                line += f"{(b - o) / b * 100.0:>13.1f}%"
            else:
                line += f"{'n/a':>14}"
        lines.append(line)

    for z in sorted(zone_names):
        row(zone_names[z] + " time [s]", "zone_time", zone=z)
    row("corridor time [s]", "corridor_time")
    row("control effort [m^2/s^3]", "mean_effort")
    row("positive work [m^2/s^2]", "mean_work")
    row("stops per vehicle", "mean_stops")
    row("vehicles completed", "completed")
    return "\n".join(lines) + "\n"
