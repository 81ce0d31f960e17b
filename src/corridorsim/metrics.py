"""Trace files and everything derived from them.

The trace CSV is the single source of truth for analysis: metrics, the
rear-end check, and the lateral-occupancy check are all computed from the
written rows, never from in-memory simulator state, so a reported number is
always reproducible from the file alone.

Row format: ``t,id,route,s,v,u,zone`` with t printed at millisecond
resolution and s/v/u at nine decimals. Each row carries the state at time t
and the control executed over [t, t+dt); the extra row emitted when a
vehicle leaves its route is a terminal state snapshot and contributes no
integration interval. Rows come in non-decreasing t: a vehicle that leaves
its route in the step to t writes its terminal row before the rows of t.

Every reader and check takes one pass over the rows and holds one time step
plus a little state per vehicle, so ``run`` and ``verify`` never hold a
whole trace.
"""

from __future__ import annotations

import csv
import json
import marshal
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import chain, groupby
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

from corridorsim.coordinator import OccupancyInterval, ScheduleEntry, occupancy_check
from corridorsim.core import HEADWAY, CorridorConfig, crossed, crossing_time

__all__ = [
    "TRACE_HEADER",
    "write_trace",
    "TraceSink",
    "read_steps",
    "iter_trace",
    "read_trace",
    "by_step",
    "write_schedule",
    "read_schedule",
    "write_events",
    "compute_metrics",
    "MetricsAccumulator",
    "Metrics",
    "summarize",
    "rear_end_check",
    "occupancy_from_trace",
    "Crossings",
    "render_report",
]

TRACE_HEADER = "t,id,route,s,v,u,zone"
_HEADER_BYTES = TRACE_HEADER.encode()
SCHEDULE_HEADER = "vehicle,zone,t0,tm,tf,v_at_tm,relation,lane,truncated"
STOP_SPEED = 0.1
_REAR_END_TOL = 1e-6    # m of headway gap shortfall the rear-end check forgives
_OCCUPANCY_TOL = 1e-2   # s of MZ overlap the lateral check forgives


_ROW_FORMAT = "%.3f,%d,%s,%.9f,%.9f,%.9f,%d\n"
_CHUNK_ROWS = 8192   # rows held before a write: bounds its transient text
_SCHEDULE_FORMAT = "%d,%d,%.9f,%.9f,%.9f,%.9f,%s,%s,%d\n"
_schedule_row = attrgetter(*(f.name for f in fields(ScheduleEntry)))


def _rows_text(rows: list[tuple]) -> str:
    return "".join([_ROW_FORMAT % row for row in rows])


def write_trace(path: str, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        for i in range(0, len(rows), _CHUNK_ROWS):
            fh.write(_rows_text(rows[i:i + _CHUNK_ROWS]))


def _write_rows(fh, rows: list[tuple], consume) -> None:
    """Write the text of ``rows`` to ``fh``, then hand them to ``consume``."""
    fh.write(_rows_text(rows))
    consume(rows)


def _writer_process_helps() -> bool:
    """Whether a forked writer can run beside the simulation: this process
    may run on two CPUs or more. Where ``os.fork`` or
    ``os.sched_getaffinity`` is missing the writer stays in-process."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _write_all(out, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[out.write(view):]


class TraceSink:
    """Row sink for ``sim.run`` that streams the trace: it writes the rows
    to ``fh`` and folds them into ``metrics``; ``close`` ends the run and
    returns the ``Metrics``. ``fh`` must hold nothing yet; the process that
    writes the rows writes the header too. ``extend`` takes a batch of rows
    (``sim.run`` hands over one per step) into the one buffer, and each
    ``_CHUNK_ROWS`` of them go to ``_write_rows(fh, rows, metrics.add)``.

    Where this process may run on a second CPU, that write runs in a forked
    process, so the text and the fold overlap the simulation: each chunk
    goes down a pipe as a length-prefixed ``marshal`` record, and the writer
    replies with its fold, which ``metrics`` takes over. Otherwise it runs
    in this process. The bytes written and the fold are the same either
    way, and ``metrics.result()`` makes the ``Metrics`` in this process.

    Use it as a context manager: leaving the block kills and reaps a writer
    that ``close`` has not ended, whatever the block raised."""

    def __init__(self, fh, metrics: MetricsAccumulator) -> None:
        self.pid = 0    # the writer process until it is reaped
        self._rows: list[tuple] = []
        self._metrics = metrics
        self._out = None    # the pipe to the writer process, if one runs
        if not _writer_process_helps():
            fh.write(TRACE_HEADER + "\n")
            self._send = lambda rows: _write_rows(fh, rows, metrics.add)
            return
        rows_r, rows_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(rows_w)
            os.close(reply_r)
            _writer_process(rows_r, reply_w, fh, metrics)   # never returns
        os.close(rows_r)
        os.close(reply_w)
        self.pid = pid
        self._out = open(rows_w, "wb", buffering=0)
        self._reply = open(reply_r, "rb")
        self._send = self._send_chunk

    def extend(self, rows: Iterable[tuple]) -> None:
        held = self._rows
        held += rows
        if len(held) >= _CHUNK_ROWS:
            self._send(held)
            self._rows = []

    def _send_chunk(self, rows: list[tuple]) -> None:
        data = marshal.dumps(rows)
        try:
            _write_all(self._out, len(data).to_bytes(8, "little") + data)
        except BrokenPipeError:     # the writer is gone
            raise _writer_error(self._reap()) from None

    def close(self) -> Metrics:
        if self._rows:
            self._send(self._rows)
            self._rows = []
        if self._out is not None:
            self._out.close()     # the end of the rows: the writer finishes and replies
            reply = self._reply.read()
            self._reply.close()
            code = self._reap()
            if code:
                raise _writer_error(code)
            import pickle
            self._metrics._vehicles = pickle.loads(reply)
        return self._metrics.result()

    def _reap(self) -> int:
        """Wait for the writer; its exit code, or minus the signal that
        killed it."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        return os.waitstatus_to_exitcode(status)

    def __enter__(self) -> TraceSink:
        return self

    def __exit__(self, *exc) -> None:
        if self._out is None:
            return
        if self.pid:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        self._out.close()
        self._reply.close()


def _writer_error(code: int) -> RuntimeError:
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return RuntimeError(f"trace writer process {how} before the trace was written")


def _writer_process(rows_fd: int, reply_fd: int, fh, metrics: MetricsAccumulator) -> None:
    """The body of ``TraceSink``'s forked writer: the header, then
    ``_write_rows(fh, chunk, metrics.add)`` for each chunk read from
    ``rows_fd`` until it closes, then the pickled fold of ``metrics`` to
    ``reply_fd``. It ends in ``os._exit`` on every path, with status 0 only
    once the reply is written, so it never returns into the caller's stack
    or flushes a buffer it inherited."""
    code = 1
    try:
        import gc
        gc.disable()    # a collection could run finalizers of the parent's objects
        fh.write(TRACE_HEADER + "\n")
        with open(rows_fd, "rb") as rows:
            while head := rows.read(8):
                size = int.from_bytes(head, "little")
                data = rows.read(size)
                if len(head) < 8 or len(data) < size:
                    return      # cut off mid-chunk: the parent is gone
                _write_rows(fh, marshal.loads(data), metrics.add)
        fh.flush()
        import pickle
        with open(reply_fd, "wb") as reply:
            reply.write(pickle.dumps(metrics._vehicles))
        code = 0
    finally:
        os._exit(code)


def _row_error(path: str, line_no: int, line: bytes, t_prev: float) -> str:
    where = f"{path}:{line_no}"
    try:
        parts = line.decode().rstrip("\r\n").split(",")
    except UnicodeDecodeError:
        return f"{where}: not UTF-8 text"
    if len(parts) != 7:
        return f"{where}: expected 7 fields, got {len(parts)}"
    for name, text, kind in zip(TRACE_HEADER.split(","), parts,
                                (float, int, str, float, float, float, int)):
        try:
            kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            return f"{where}: field {name} is not {what}: {text!r}"
    return f"{where}: time goes back from {t_prev:.3f} to {parts[0]}"


def read_steps(path: str) -> Iterator[tuple[float, list[tuple]]]:
    """A trace file one time step at a time: ``(t, rows)`` with the step's
    rows in file order, typed as ``read_trace`` returns them.

    Fields are split at every comma; the writer never quotes one. Rows must
    come in non-decreasing ``t``. A bad header, a row without exactly seven
    fields, a non-numeric field or a step back in time raises ``ValueError``
    naming the file and the 1-based line."""
    routes: dict[bytes, str] = {}   # one string per route name, not one per row
    ints: dict[bytes, int] = {}     # id and zone texts: a lookup costs less than int()
    get_int = ints.get
    with open(path, "rb") as fh:    # float and int parse bytes as they are
        if fh.readline().rstrip(b"\r\n") != _HEADER_BYTES:
            raise ValueError(f"{path}: not a trace file (bad header)")
        t_text = route_text = None
        t = -math.inf
        done = 0    # rows in the steps yielded so far; each line is one row
        step: list[tuple] = []
        append = step.append
        for line in fh:
            try:
                ts, vid, rt, s, v, u, zone = line.split(b",")
                if ts != t_text:
                    tf = float(ts)
                    if tf != t:
                        if tf < t:
                            raise ValueError
                        if step:
                            yield t, step
                            done += len(step)
                            step = []
                            append = step.append
                        t = tf
                    t_text = ts
                if rt != route_text:
                    route_text = rt
                    route = routes.get(rt)
                    if route is None:
                        route = routes[rt] = rt.decode()
                i = get_int(vid)
                if i is None:
                    i = ints[vid] = int(vid)
                z = get_int(zone)
                if z is None:
                    z = ints[zone] = int(zone)
                append((t, i, route, float(s), float(v), float(u), z))
            except ValueError:
                line_no = 2 + done + len(step)
                raise ValueError(_row_error(path, line_no, line, t)) from None
        if step:
            yield t, step


def iter_trace(path: str) -> Iterator[tuple]:
    """Trace rows one at a time, typed as ``read_trace`` returns them."""
    return chain.from_iterable(rows for _, rows in read_steps(path))


def read_trace(path: str) -> list[tuple]:
    return list(iter_trace(path))


def by_step(rows: Iterable[tuple]) -> Iterator[tuple[float, list[tuple]]]:
    """In-memory rows in trace order, one time step at a time as
    ``read_steps`` yields them."""
    for t, group in groupby(rows, _first):
        yield t, list(group)


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
    spawned_per_route: dict = field(default_factory=dict)
    completed_per_route: dict = field(default_factory=dict)
    corridor_time: float = float("nan")      # mean, completed main-route vehicles
    zone_time: dict = field(default_factory=dict)   # zone -> mean transit time
    mean_effort: float = float("nan")        # mean integral of u^2 dt
    mean_work: float = float("nan")          # mean integral of max(0, u*v) dt
    mean_stops: float = float("nan")
    completed: int = 0
    censored: int = 0


class Crossings:
    """Per-vehicle fold of trace rows in time order: each vehicle's first
    and last row and, for each line of its route it crossed (every zone's
    ``cz_start``, ``mz_start`` and ``mz_end``, and the route end), the
    instant ``crossing_time`` gives from the row before and the new speed
    in the row at the crossing; the first row crosses at its own time the
    lines it is already past. ``rows``, if given, are folded at once."""

    def __init__(self, config: CorridorConfig, rows: Iterable[tuple] = ()) -> None:
        self.config = config
        # route -> its lines ascending, closed by a NaN no s crosses
        self._lines = {}
        for route in config.routes:
            lines = {route.length}
            for zone, ap in config.zones_on(route.name):
                lines.update((ap.cz_start, ap.mz_start, ap.mz_start + zone.mz_length))
            self._lines[route.name] = (*sorted(lines), math.nan)
        # vehicle id -> [first row, last row, its route's lines, line -> the
        # instant it crossed it, the next line]
        self._vehicles: dict[int, list] = {}
        self.add(rows)

    def _start(self, row: tuple) -> list:
        lines = self._lines.get(row[2], _NO_LINES)
        st = [row, row, lines, {}, lines[0]]
        self._cross(st, row)    # at row[0]: the step from a row to itself
        return st

    @staticmethod
    def _cross(st: list, row: tuple) -> None:
        """Record the lines ``row`` is past and the last row was not."""
        prev, lines, instants, line = st[1:5]
        while crossed(row[3], line):
            instants[line] = crossing_time(prev[0], row[0], prev[3], row[4], line)
            line = lines[len(instants)]
        st[4] = line

    def add(self, rows: Iterable[tuple]) -> None:
        vehicles = self._vehicles
        for row in rows:
            st = vehicles.get(row[1])
            if st is None:
                vehicles[row[1]] = self._start(row)
                continue
            if crossed(row[3], st[4]):
                self._cross(st, row)
            st[1] = row

    def through(self, steps: Iterable[tuple[float, list[tuple]]]):
        """Pass ``steps`` on unchanged, folding the rows of each."""
        for step in steps:
            self.add(step[1])
            yield step


_NO_LINES = (math.nan,)


class MetricsAccumulator(Crossings):
    """``compute_metrics`` in one pass: ``add`` takes rows in trace order, in
    as many calls as it likes, and keeps the crossing instants and a few
    numbers per vehicle, not its rows; ``result`` gives the ``Metrics``."""

    def add(self, rows: Iterable[tuple]) -> None:
        dt = self.config.dt
        vehicles = self._vehicles
        for row in rows:
            st = vehicles.get(row[1])
            if st is None:
                below = row[4] < STOP_SPEED
                # the fold's fields, then effort, work, stops and whether the
                # last row was below STOP_SPEED; effort and work take a row
                # once a later one shows it was not the vehicle's last
                vehicles[row[1]] = self._start(row) + [0.0, 0.0, int(below), below]
                continue
            _, _, _, _, v, u, _ = st[1]
            st[5] += u * u * dt
            w = u * v
            st[6] += (w if w > 0.0 else 0.0) * dt    # max(0.0, u * v)
            below = row[4] < STOP_SPEED
            if below and not st[8]:
                st[7] += 1
            st[8] = below
            if crossed(row[3], st[4]):
                self._cross(st, row)
            st[1] = row

    def result(self) -> Metrics:
        """Means over the vehicles that crossed their route's end. Corridor
        time (main route) runs from the first row to that crossing, and a
        zone's time from its ``cz_start`` crossing to its ``mz_end`` one."""
        config = self.config
        m = Metrics()
        zone_samples: dict[int, list[float]] = defaultdict(list)
        corridor_samples: list[float] = []
        efforts: list[float] = []
        works: list[float] = []
        stops: list[int] = []
        for first, _, _, instants, _, effort, work, stop_count, _ in self._vehicles.values():
            route = first[2]
            m.spawned_per_route[route] = m.spawned_per_route.get(route, 0) + 1
            done = instants.get(config.route(route).length)
            if done is None:
                m.censored += 1
                continue
            m.completed += 1
            m.completed_per_route[route] = m.completed_per_route.get(route, 0) + 1
            if route == config.main_route:
                corridor_samples.append(done - first[0])
            efforts.append(effort)
            works.append(work)
            stops.append(stop_count)
            for zone, ap in config.zones_on(route):
                out = instants.get(ap.mz_start + zone.mz_length)
                if out is not None:
                    zone_samples[zone.index].append(out - instants[ap.cz_start])
        if corridor_samples:
            m.corridor_time = sum(corridor_samples) / len(corridor_samples)
        m.zone_time = {z: sum(v) / len(v) for z, v in zone_samples.items()}
        if efforts:
            m.mean_effort = sum(efforts) / len(efforts)
            m.mean_work = sum(works) / len(works)
            m.mean_stops = sum(stops) / len(stops)
        return m


def compute_metrics(rows: Iterable[tuple], config: CorridorConfig) -> Metrics:
    return MetricsAccumulator(config, rows).result()


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


def rear_end_check(steps: Iterable[tuple[float, list[tuple]]],
                   config: CorridorConfig) -> list[tuple]:
    """Headway violations: same-route consecutive pairs everywhere, plus
    cross-route pairs inside the merging zone of a shared-lane zone. The
    required gap is headway * follower speed; a gap short of it by up to
    ``_REAR_END_TOL`` passes. Takes the trace a time step at a time
    (``read_steps``, or ``by_step`` of in-memory rows) and holds one step.
    Returns (t, follower, leader, gap, required) tuples."""
    h = HEADWAY
    tol = _REAR_END_TOL
    shared = [zone for zone in config.zones if zone.shared_lane]
    violations = []
    for t, rows in steps:
        per_route: dict[str, list[tuple]] = {}
        for route, run in groupby(rows, _row_route):
            group = per_route.get(route)
            if group is None:
                per_route[route] = list(run)
            else:
                group += run
        for route_rows in per_route.values():
            if len(route_rows) < 2:
                continue
            route_rows.sort(key=_row_s, reverse=True)   # stable: ties keep file order
            lead = route_rows[0]
            for foll in route_rows[1:]:
                gap = lead[3] - foll[3]
                required = h * foll[4]
                if gap < required - tol:
                    violations.append((t, foll[1], lead[1], gap, required))
                lead = foll
        for zone in shared:
            merged = []
            for ap in zone.approaches:
                for row in per_route.get(ap.route, ()):
                    x = row[3] - ap.mz_start
                    if 0.0 <= x < zone.mz_length:
                        merged.append((x, row))
            merged.sort(key=_first, reverse=True)
            for (x_lead, lead), (x_foll, foll) in zip(merged, merged[1:]):
                if lead[2] == foll[2]:
                    continue   # same route already covered above
                gap = x_lead - x_foll
                required = h * foll[4]
                if gap < required - tol:
                    violations.append((t, foll[1], lead[1], gap, required))
    return violations


_first = itemgetter(0)      # a row's t, or a merged entry's x
_row_route = itemgetter(2)
_row_s = itemgetter(3)


def occupancy_from_trace(rows: Iterable[tuple] | Crossings, config: CorridorConfig) -> list:
    """Lateral-exclusion check on actual motion: each vehicle occupies a
    merging zone from the instant it crossed the zone's ``mz_start`` to the
    instant it crossed its ``mz_end`` (``Crossings``); a vehicle still
    inside at the end of the data occupies it until the last timestamp plus
    ``dt``. Overlapping cross-lane stays are reported via the same pairwise
    check the coordinator uses, forgiving ``_OCCUPANCY_TOL``. ``rows`` are
    every row of a trace in time order, or a ``Crossings`` fed them."""
    fold = rows if isinstance(rows, Crossings) else Crossings(config, rows)
    vehicles = fold._vehicles
    t_end = max((st[1][0] for st in vehicles.values()), default=0.0) + config.dt
    conflicts = []
    for zone in config.zones:
        if zone.shared_lane:
            continue   # single shared lane: rear-end rules govern, not exclusion
        intervals = []
        for ap in zone.approaches:
            mz_end = ap.mz_start + zone.mz_length
            for vid, (first, _, _, instants, *_) in vehicles.items():
                if first[2] == ap.route and ap.mz_start in instants:
                    intervals.append(OccupancyInterval(vid, instants[ap.mz_start],
                                                       instants.get(mz_end, t_end), ap.lane))
        conflicts.extend(occupancy_check(zone.index, intervals, _OCCUPANCY_TOL))
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
    improvement column: optimal's change relative to the baseline in each
    row's better direction (lower times, effort, work and stops; more
    vehicles completed), so positive = optimal better."""
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

    def row(label, key, zone=None, better="lower"):
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
                gain = (b - o) / b if better == "lower" else (o - b) / b
                line += f"{gain * 100.0:>13.1f}%"
            else:
                line += f"{'n/a':>14}"
        lines.append(line)

    for z in sorted(zone_names):
        row(zone_names[z] + " time [s]", "zone_time", zone=z)
    row("corridor time [s]", "corridor_time")
    row("control effort [m^2/s^3]", "mean_effort")
    row("positive work [m^2/s^2]", "mean_work")
    row("stops per vehicle", "mean_stops")
    row("vehicles completed", "completed", better="higher")
    return "\n".join(lines) + "\n"
