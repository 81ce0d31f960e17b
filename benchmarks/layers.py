"""Per-layer tracing from outside the program.

Spans are recorded by replacing public functions and methods of the
corridorsim modules with timing wrappers for the duration of a traced pass,
then restoring the originals.  Hot calls (``evaluate`` runs ~250k times per
seed) are folded into per-name aggregates -- calls, total time, self time,
raised -- instead of being stored one by one; the few coarse spans (one per
``sim.run``, trace write, check, ...) are also kept as records with their
parent and written out when the benchmark ends.

A wrapper is patched into the namespace the caller looks the name up in:
``sim`` imports ``evaluate`` by name, so ``corridorsim.sim.evaluate`` is
replaced, not ``corridorsim.trajectory.evaluate``.  Each thread keeps its
own span stack and aggregate table, so the fabric's publisher and consumer
threads never update shared counters.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, list[int]]] = []
        self.spans: list[dict] = []
        self.tag = ""

    def reset(self, tag: str) -> None:
        with self._lock:
            for table in self._tables:
                table.clear()
        self.tag = tag

    def _state(self) -> tuple[list, dict]:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], {})
            with self._lock:
                self._tables.append(st[1])
        return st

    def _close(self, name: str, t0: int, frame: list, failed: bool,
               keep: bool) -> None:
        dur = perf_counter_ns() - t0
        stack, table = self._state()
        stack.pop()
        if stack:
            stack[-1][1] += dur
        rec = table.get(name)
        if rec is None:
            rec = table[name] = [0, 0, 0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]
        rec[3] += failed
        if keep:
            self.spans.append({"tag": self.tag, "name": name, "start_ns": t0,
                               "end_ns": t0 + dur, "self_ns": dur - frame[1],
                               "parent": stack[-1][0] if stack else None})

    def wrap(self, name: str, fn, keep: bool = False):
        def traced(*args, **kwargs):
            stack, _ = self._state()
            frame = [name, 0]
            stack.append(frame)
            failed = False
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                self._close(name, t0, frame, failed, keep)
        return traced

    def wrap_iter(self, name: str, fn):
        """Time each ``next`` on the iterator ``fn`` returns, one span per item."""
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                stack, _ = self._state()
                frame = [name, 0]
                stack.append(frame)
                t0 = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    stack.pop()
                    return
                except BaseException:
                    self._close(name, t0, frame, True, False)
                    raise
                self._close(name, t0, frame, False, False)
                yield item
        return traced

    def totals(self) -> dict[str, list[int]]:
        """name -> [calls, total_ns, self_ns, raised], summed over threads."""
        out: dict[str, list[int]] = {}
        with self._lock:
            for table in self._tables:
                for name, rec in table.items():
                    acc = out.setdefault(name, [0, 0, 0, 0])
                    for i, value in enumerate(rec):
                        acc[i] += value
        return out

    @contextmanager
    def installed(self):
        """Patch every layer boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, kind in _patch_points():
                orig = owner.__dict__[attr]
                if kind == "iter":
                    new = self.wrap_iter(name, orig)
                else:
                    new = self.wrap(name, orig, keep=(kind == "span"))
                saved.append((owner, attr, orig))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


def _patch_points():
    """(owner, attribute, span name, kind) for every traced boundary.

    kind is "span" for coarse calls kept as span records, "agg" for hot
    calls kept only as aggregates, "iter" for generators timed per item.
    """
    from corridorsim import cli, core, sim
    from corridorsim.coordinator import ZoneCoordinator
    from corridorsim.v2x import headunit, replay
    from corridorsim.v2x.broker import BrokerClient
    from corridorsim.v2x.headunit import HeadUnitCore

    return [
        (core, "load_config_file", "core.load_config", "span"),
        (cli, "load_config_file", "core.load_config", "span"),
        (sim, "run", "sim.run", "span"),
        (sim, "baseline_step", "sim.baseline_step", "agg"),
        (sim, "optimal_step", "sim.optimal_step", "agg"),
        (sim, "evaluate", "trajectory.evaluate", "agg"),
        (sim, "solve_bounded", "trajectory.solve_bounded", "agg"),
        (headunit, "evaluate", "trajectory.evaluate", "agg"),
        (headunit, "solve_bounded", "trajectory.solve_bounded", "agg"),
        (ZoneCoordinator, "register_arrival", "coordinator.register_arrival", "agg"),
        (ZoneCoordinator, "adjust_merging_time", "coordinator.adjust_merging_time", "agg"),
        (cli, "write_trace", "metrics.write_trace", "span"),
        (cli, "compute_metrics", "metrics.compute_metrics", "span"),
        (cli, "render_report", "metrics.render_report", "span"),
        (cli, "read_trace", "metrics.read_trace", "span"),
        (cli, "rear_end_check", "metrics.rear_end_check", "span"),
        (cli, "occupancy_from_trace", "metrics.occupancy_from_trace", "span"),
        (replay, "read_trace", "replay.read_trace", "span"),
        (replay, "frames_from_trace", "replay.frames_from_trace", "iter"),
        (replay, "encode_bsm", "bsm.encode", "agg"),
        (headunit, "decode_bsm", "bsm.decode", "agg"),
        (BrokerClient, "publish", "broker.publish", "agg"),
        (BrokerClient, "recv", "broker.recv", "agg"),
        (HeadUnitCore, "ingest", "headunit.ingest", "agg"),
        (HeadUnitCore, "tick", "headunit.tick", "agg"),
    ]


# Per-layer metrics, in report order: name -> unit.  Every name is reported
# on every workload; a layer a workload bypasses reads 0.
PER_LAYER = {
    "core.load_config.s": "s",
    "sim.run.s": "s",
    "sim.run.self_s": "s",
    "sim.vehicle_steps": "count",
    "sim.baseline_step.calls": "count",
    "sim.baseline_step.us": "us",
    "sim.optimal_step.calls": "count",
    "sim.optimal_step.us": "us",
    "sim.events.governor_caps": "count",
    "sim.events.control_clamps": "count",
    "sim.events.tm_relaxations": "count",
    "sim.events.relax_exhausted": "count",
    "sim.events.replans": "count",
    "sim.events.spawn_withheld": "count",
    "trajectory.evaluate.calls": "count",
    "trajectory.evaluate.per_vehicle_step": "ratio",
    "trajectory.evaluate.us": "us",
    "trajectory.solve_bounded.calls": "count",
    "trajectory.solve_bounded.failed": "count",
    "trajectory.solve_bounded.useful_ratio": "ratio",
    "trajectory.solve_bounded.us": "us",
    "coordinator.register_arrival.calls": "count",
    "coordinator.register_arrival.us": "us",
    "coordinator.adjust_merging_time.calls": "count",
    "metrics.write_trace.s": "s",
    "metrics.compute_metrics.s": "s",
    "metrics.render_report.s": "s",
    "metrics.read_trace.s": "s",
    "metrics.rear_end_check.s": "s",
    "metrics.occupancy_from_trace.s": "s",
    "replay.read_trace.s": "s",
    "replay.frames_from_trace.us_per_frame": "us",
    "bsm.encode.us": "us",
    "bsm.decode.us": "us",
    "broker.frames_published": "count",
    "broker.frames_delivered": "count",
    "broker.publish_blocked_s": "s",
    "broker.recv_wait_s": "s",
    "broker.process_cpu_s": "s",
    "headunit.ingest.us": "us",
    "headunit.tick.calls": "count",
    "headunit.tick.us": "us",
    "headunit.replans": "count",
    "headunit.clamped_plans": "count",
    "headunit.stale_ticks": "count",
    "fabric.generator_cpu_share": "ratio",
    "trace.overhead_pct": "%",
}


def layer_values(totals: dict[str, list[int]], extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span aggregates plus the
    counts read off the program's own outputs (``extra``)."""
    def calls(name):
        return totals.get(name, [0, 0, 0, 0])[0]

    def total_s(name):
        return totals.get(name, [0, 0, 0, 0])[1] / 1e9

    def mean_us(name):
        n = calls(name)
        return total_s(name) * 1e6 / n if n else 0.0

    steps = extra.get("sim.vehicle_steps", 0)
    sb_calls = calls("trajectory.solve_bounded")
    sb_failed = totals.get("trajectory.solve_bounded", [0, 0, 0, 0])[3]
    out = {
        "core.load_config.s": total_s("core.load_config") / max(calls("core.load_config"), 1),
        "sim.run.s": total_s("sim.run"),
        "sim.run.self_s": totals.get("sim.run", [0, 0, 0, 0])[2] / 1e9,
        "sim.baseline_step.calls": calls("sim.baseline_step"),
        "sim.baseline_step.us": mean_us("sim.baseline_step"),
        "sim.optimal_step.calls": calls("sim.optimal_step"),
        "sim.optimal_step.us": mean_us("sim.optimal_step"),
        "trajectory.evaluate.calls": calls("trajectory.evaluate"),
        "trajectory.evaluate.per_vehicle_step": (calls("trajectory.evaluate") / steps
                                                 if steps else 0.0),
        "trajectory.evaluate.us": mean_us("trajectory.evaluate"),
        "trajectory.solve_bounded.calls": sb_calls,
        "trajectory.solve_bounded.failed": sb_failed,
        "trajectory.solve_bounded.useful_ratio": ((sb_calls - sb_failed) / sb_calls
                                                  if sb_calls else 0.0),
        "trajectory.solve_bounded.us": mean_us("trajectory.solve_bounded"),
        "coordinator.register_arrival.calls": calls("coordinator.register_arrival"),
        "coordinator.register_arrival.us": mean_us("coordinator.register_arrival"),
        "coordinator.adjust_merging_time.calls": calls("coordinator.adjust_merging_time"),
        "metrics.write_trace.s": total_s("metrics.write_trace"),
        "metrics.compute_metrics.s": total_s("metrics.compute_metrics"),
        "metrics.render_report.s": total_s("metrics.render_report"),
        "metrics.read_trace.s": total_s("metrics.read_trace"),
        "metrics.rear_end_check.s": total_s("metrics.rear_end_check"),
        "metrics.occupancy_from_trace.s": total_s("metrics.occupancy_from_trace"),
        "replay.read_trace.s": total_s("replay.read_trace"),
        "replay.frames_from_trace.us_per_frame": mean_us("replay.frames_from_trace"),
        "bsm.encode.us": mean_us("bsm.encode"),
        "bsm.decode.us": mean_us("bsm.decode"),
        "broker.publish_blocked_s": total_s("broker.publish"),
        "broker.recv_wait_s": total_s("broker.recv"),
        "headunit.ingest.us": mean_us("headunit.ingest"),
        "headunit.tick.calls": calls("headunit.tick"),
        "headunit.tick.us": mean_us("headunit.tick"),
    }
    for name in PER_LAYER:
        out.setdefault(name, 0)
    out.update(extra)
    return out


def exact_counts(values: dict[str, float]) -> dict[str, float]:
    """The per-layer values that must repeat exactly from pass to pass."""
    return {k: v for k, v in values.items() if PER_LAYER.get(k) == "count"}
