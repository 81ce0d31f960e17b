"""Trace replay: the wire tuples against the reference quantizer in
``oracles``, the bytes a raw subscriber receives from ``replay_publish``,
and the ``replay`` verb's bad input."""

import dataclasses
import random
import re
import threading

import pytest

import oracles
from corridorsim import sim
from corridorsim.cli import main
from corridorsim.coordinator import ScheduleEntry
from corridorsim.core import load_config_file
from corridorsim.metrics import read_schedule, read_trace, write_schedule, write_trace
from corridorsim.v2x.broker import Broker, BrokerClient
from corridorsim.v2x.bsm import (BSM_TOPICS, DIST_UNIT, SPEED_UNIT, BsmFrame,
                                 FrameError, encode_bsm)
from corridorsim.v2x.replay import frames_from_trace, replay_publish, wire_fields

BENCH = "configs/bench.yaml"
TABLE1 = "configs/table1.yaml"
U32_MAX = 2**32 - 1
T_MAX = 4294967.295          # s: the last timestamp a u32 of ms holds
TM_MAX = 2147483.647         # s: the last merging time an i32 of ms holds


@pytest.fixture(scope="module")
def cfg():
    return load_config_file(BENCH)


def _exact_half(unit: float, k: int) -> float:
    """A value whose quotient by ``unit`` is exactly ``k + 0.5``."""
    while (k + 0.5) * unit / unit != k + 0.5:
        k += 1
    return (k + 0.5) * unit


def _random_rows(cfg, rng: random.Random, n: int):
    """``n`` trace rows with every field in range, and a schedule.

    The rows hold exact halves of the speed and distance units, negative
    speed and distance, zone 0, vehicles with more than 256 rows, the
    largest vehicle id, timestamps at the u32 limit and merging times at
    the i32 limits; about one (vehicle, zone) in three has no booking.
    """
    places = [(route.name, zone.index, ap.mz_start) for route in cfg.routes
              for zone, ap in cfg.zones_on(route.name)]
    routes = [route.name for route in cfg.routes]
    vids = [0, 1, 2, 3, 17, 255, 256, U32_MAX]
    rows = []
    for _ in range(n):
        vid = rng.choice(vids)
        pick = rng.random()
        if pick < 0.2:
            v = _exact_half(SPEED_UNIT, rng.randrange(65535))
        elif pick < 0.3:
            v = -rng.uniform(0.0, 5.0)
        else:
            v = rng.uniform(0.0, 65535.49 * SPEED_UNIT)
        pick = rng.random()
        if pick < 0.1:
            t = T_MAX
        elif pick < 0.2:
            t = (rng.randrange(U32_MAX) + 0.5) / 1000.0   # about half a ms
        else:
            t = rng.uniform(0.0, T_MAX)
        if rng.random() < 0.3:
            route, zone, s = rng.choice(routes), 0, rng.uniform(-10.0, 2000.0)
        else:
            route, zone, mz = rng.choice(places)
            pick = rng.random()
            if pick < 0.2:
                s = mz - _exact_half(DIST_UNIT, rng.randrange(65535))
            elif pick < 0.3:
                s = mz + rng.uniform(0.0, 50.0)           # past the line
            else:
                s = mz - rng.uniform(0.0, 6553.4)
        rows.append((t, vid, route, s, v, rng.uniform(-3.0, 1.5), zone))
    schedule = []
    for vid in vids:
        for zone in range(1, 4):
            if rng.random() < 0.7:
                tm = rng.choice([TM_MAX, -TM_MAX - 0.001, 0.0005, -0.0015,
                                 rng.uniform(-TM_MAX, TM_MAX)])
                schedule.append(ScheduleEntry(vid, zone, 0.0, tm, tm, 10.0, "none", "ramp"))
    return rows, schedule


def test_wire_tuples_encode_as_the_reference_frames(cfg):
    rng = random.Random(17)
    rows, schedule = _random_rows(cfg, rng, 12_000)
    want = oracles.frames_from_trace(rows, cfg, schedule)
    fields = list(wire_fields(rows, cfg, schedule))
    assert [encode_bsm(f) for f in fields] == [encode_bsm(f) for f in want]
    frames = list(frames_from_trace(rows, cfg, schedule))
    assert frames == want and all(type(f) is BsmFrame for f in frames)
    # the edges the rows are meant to hold
    assert {f.cz for f in want} == {0, 1, 2, 3}
    assert max(f.timestamp_ms for f in want) == U32_MAX
    assert max(f.tm_ms for f in want) == 2**31 - 1 and min(f.tm_ms for f in want) == -(2**31)
    assert sum(f.vehicle_id == U32_MAX for f in want) > 256
    assert {f.seq for f in want if f.vehicle_id == U32_MAX} == set(range(256))
    assert sum(r[4] < 0 for r in rows) > 500
    mz = {(route.name, zone.index): ap.mz_start for route in cfg.routes
          for zone, ap in cfg.zones_on(route.name)}
    assert sum(r[6] > 0 and r[3] > mz[r[2], r[6]] for r in rows) > 500
    assert sum((r[4] / SPEED_UNIT) % 1.0 == 0.5 for r in rows) > 1000
    assert sum(r[6] > 0 and (mz[r[2], r[6]] - r[3]) / DIST_UNIT % 1.0 == 0.5
               for r in rows) > 1000


# one row, one field out of range, and the message the codec gives it
BAD_ROWS = [
    (dict(v=7000.0), "speed out of u16 range"),
    (dict(v=65535.5 * SPEED_UNIT), "speed out of u16 range"),   # rounds up to 65536
    (dict(s=350.0 - 6553.6), "distance out of u16 range"),
    (dict(vid=U32_MAX + 1), "vehicle_id out of u32 range"),
    (dict(vid=-1), "vehicle_id out of u32 range"),
    (dict(vid=1.5), "vehicle_id is not an integer: 1.5"),
    (dict(t=T_MAX + 0.0006), "timestamp out of u32 range"),
    (dict(t=-0.001), "timestamp out of u32 range"),
    (dict(tm=TM_MAX + 0.001), "merging time out of i32 range"),
    (dict(tm=-TM_MAX - 0.002), "merging time out of i32 range"),
    (dict(zone=-1), "zone id -1 out of range 0..3"),
    (dict(v=7000.0, t=-1.0), "speed out of u16 range"),         # field order
]


@pytest.mark.parametrize("change, message", BAD_ROWS)
def test_out_of_range_rows_raise_the_codec_message(cfg, change, message):
    tm = change.pop("tm", 5.0)
    row = dict(t=1.0, vid=7, route="main", s=300.0, v=10.0, u=0.0, zone=1)
    row.update(change)
    rows = [tuple(row.values())]
    schedule = [ScheduleEntry(7, 1, 0.0, tm, tm, 10.0, "none", "ramp")]
    [reference] = oracles.frames_from_trace(rows, cfg, schedule)
    for frame in (reference, next(wire_fields(rows, cfg, schedule))):
        with pytest.raises(FrameError, match=f"^{re.escape(message)}$"):
            encode_bsm(frame)


def test_a_zone_the_route_does_not_pass_is_bad_input(cfg):
    for route, zone in (("main", 7), ("highway", 3)):
        rows = [(1.0, 7, route, 300.0, 10.0, 0.0, zone)]
        with pytest.raises(ValueError, match=f"route '{route}' is in zone {zone}"):
            list(wire_fields(rows, cfg))


# ---------------------------------------------------------------------------
# replay_publish through a broker


@pytest.fixture(scope="module", params=[(BENCH, 1), (TABLE1, 3)], ids=["bench", "table1"])
def recorded(request, tmp_path_factory):
    """An optimal run's trace and schedule files, 60 s of data, and its config."""
    path, seed = request.param
    cfg = dataclasses.replace(load_config_file(path), horizon=60.0, seed=seed,
                              mode="optimal")
    res = sim.run(cfg)
    out = tmp_path_factory.mktemp("replay")
    trace, schedule = str(out / "trace.csv"), str(out / "schedule.csv")
    write_trace(trace, res.rows)
    write_schedule(schedule, res.schedule)
    return cfg, trace, schedule


def _received(address, publish, n: int):
    """What a subscriber to every zone topic receives while ``publish`` runs,
    up to ``n`` deliveries; returns (publish's result, deliveries)."""
    got = []
    client = BrokerClient(address, timeout=30.0)
    try:
        for topic in BSM_TOPICS:
            client.subscribe(topic)
        client.sync()

        def consume():
            while len(got) < n:
                item = client.recv()
                if item is None:
                    return
                got.append(item)

        consumer = threading.Thread(target=consume)
        consumer.start()
        try:
            sent = publish()
        finally:
            consumer.join(timeout=60.0)
        assert not consumer.is_alive()
    finally:
        client.close()
    return sent, got


@pytest.mark.parametrize("rate", [0.0, 40_000.0], ids=["flood", "paced"])
def test_subscriber_receives_the_reference_bytes(recorded, rate):
    cfg, trace, schedule = recorded
    want = [(BSM_TOPICS[f.cz], encode_bsm(f)) for f in
            oracles.frames_from_trace(read_trace(trace), cfg, read_schedule(schedule))]
    with Broker(port=0) as broker:
        sent, got = _received(broker.address, lambda: replay_publish(
            trace, broker.address, cfg, rate=rate, schedule_path=schedule), len(want))
    assert sent == len(want) > 5000
    assert got == want


# ---------------------------------------------------------------------------
# the replay verb


@pytest.mark.parametrize("row, message", [
    ("0.000,1,main,0.000000000,7000.000000000,0.000000000,0", "speed out of u16 range"),
    ("0.000,1,main,300.000000000,10.000000000,0.000000000,7", "is in zone 7"),
])
def test_replay_verb_exits_2_on_a_row_it_cannot_send(tmp_path, capsys, row, message):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,id,route,s,v,u,zone\n" + row + "\n")
    with Broker(port=0) as broker:
        host, port = broker.address
        rc = main(["replay", "--config", BENCH, "--trace", str(trace),
                   "--address", f"{host}:{port}", "--rate", "0"])
        assert broker.counters()["published"] == 0
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
