"""Configuration loading, unit handling, validation."""

import dataclasses
import math
import pathlib
import random

import pytest

from corridorsim.core import (
    Bounds,
    ConfigError,
    RouteSegment,
    RouteSpec,
    crossed,
    crossing_time,
    load_config,
    load_config_file,
    parse_quantity,
    serialize_config,
)

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def table1_text():
    return (CONFIG_DIR / "table1.yaml").read_text()


def test_mph_conversion_values():
    # the exact factor 0.44704; a negative limit is the loader's to reject
    for mph, mps in ((40.0, 17.8816), (25.0, 11.176), (18.6, 8.314944), (0.0, 0.0)):
        assert parse_quantity(f"{mph} mph", "speed", "x") == pytest.approx(mps, abs=1e-12)
    doc = table1_text().replace("limit: 18.6 mph", "limit: -5 mph", 1)
    with pytest.raises(ConfigError, match="segment limit must be strictly positive"):
        load_config(doc)


def test_quantity_parsing():
    assert parse_quantity("100 m", "length", "x") == 100.0
    assert parse_quantity("1.5 km", "length", "x") == 1500.0
    assert parse_quantity("40 mph", "speed", "x") == pytest.approx(17.8816)
    assert parse_quantity("800 vph", "flow", "x") == pytest.approx(800 / 3600)
    assert parse_quantity("100 ms", "time", "x") == pytest.approx(0.1)
    with pytest.raises(ConfigError):
        parse_quantity(100, "length", "x")          # bare number, no unit
    with pytest.raises(ConfigError):
        parse_quantity("100 furlong", "length", "x")


def test_table1_document_loads():
    cfg = load_config(table1_text())
    srz = next(z for z in cfg.zones if z.kind == "speed_reduction")
    assert srz.mz_speed == pytest.approx(8.314944, abs=1e-4)
    assert srz.mz_length == 125.0
    assert srz.cz_length == 100.0
    assert cfg.route("main").length == 1500.0
    assert cfg.bounds.v_max == pytest.approx(17.8816)
    assert cfg.route("srz_feeder").flow_vps == pytest.approx(1300 / 3600)
    # both SRZ approaches share one physical lane
    lanes = {ap.lane for ap in srz.approaches}
    assert len(lanes) == 1
    assert [z.shared_lane for z in cfg.zones] == [False, True, False]


def test_mixed_lane_zone_rejected():
    # zone 3 gets a third approach; its lane label decides merge or crossing
    ring = "      - {route: ring, lane: circulating, mz_entry: 350 m, priority: true}\n"
    third = "      - {route: highway, lane: %s, mz_entry: 110 m, priority: false}\n"
    mixed = table1_text().replace(ring, ring + third % "approach")
    with pytest.raises(ConfigError, match="lane label") as exc:
        load_config(mixed)
    assert exc.value.path == "zones[2].approaches"
    distinct = load_config(table1_text().replace(ring, ring + third % "third"))
    assert len(distinct.zones[2].approaches) == 3 and not distinct.zones[2].shared_lane


def test_positive_u_min_rejected():
    doc = table1_text().replace("u_min: -3.0 m/s2", "u_min: 1.0 m/s2")
    with pytest.raises(ConfigError, match="u_min must be negative"):
        load_config(doc)


def test_zone_geometry_identity_enforced():
    # the control zone starts length before mz_entry; a second position for
    # it is not a key the loader reads
    doc = table1_text().replace(
        "- {route: main, lane: ramp, mz_entry: 350 m, priority: false}",
        "- {route: main, lane: ramp, mz_entry: 350 m, cz_entry: 200 m, priority: false}")
    with pytest.raises(ConfigError, match="unknown key") as info:
        load_config(doc)
    assert info.value.path == "zones[0].approaches[0].cz_entry"
    assert load_config(table1_text()).zones[0].approaches[0].cz_start == 250.0


@pytest.mark.parametrize("old, new, path", [
    ("horizon: 600 s\n", "horizn: 600 s\n", "horizn"),
    ("v_max: 40 mph", "v_mx: 40 mph", "bounds.v_mx"),
    # the car-following and spawn constants live in sim, not in the document
    ("main_route: main\n", "main_route: main\nbaseline:\n  yield_gap: 4.0 s\n", "baseline"),
    ("main_route: main\n", "main_route: main\nspawn:\n  min_lead: 2.0 m\n", "spawn"),
    ("flow: 800 vph", "flw: 800 vph", "routes.highway.flw"),
    ("{length: 365 m, limit: 25 mph}", "{length: 365 m, limt: 25 mph}",
     "routes.ring.segments[0].limt"),
    ("mz_length: 15 m", "mz_lenght: 15 m", "zones[0].mz_lenght"),
    ("main_route: main\n", "main_route: main\nprobe_only: true\n", "probe_only"),
    # the safe time headway is core.HEADWAY, not a key
    ("main_route: main\n", "main_route: main\nheadway: 1.2 s\n", "headway"),
    # run --mode sets the mode, and a zone's kind its terminal rule
    ("seed: 1\n", "mode: baseline\nseed: 1\n", "mode"),
    ("mz_speed: 40 mph\n", "mz_speed: 40 mph\n    terminal: free\n", "zones[0].terminal"),
], ids=["top", "bounds", "baseline", "spawn", "route", "segment", "zone", "probe_only",
        "headway", "mode", "terminal"])
def test_unknown_key_rejected(old, new, path):
    # an optional key read with its default would otherwise load a misspelt
    # key as the default value; test_zone_geometry_identity_enforced holds
    # the approach level
    doc = table1_text().replace(old, new, 1)
    assert new in doc
    with pytest.raises(ConfigError, match="unknown key, expected one of") as info:
        load_config(doc)
    assert info.value.path == path
    assert str(info.value).startswith(f"{path}: unknown key")


@pytest.mark.parametrize("key", ["baseline", "spawn"])
@pytest.mark.parametrize("value", ["0", '""', "[]", "false", "null"])
def test_optional_mapping_that_is_not_one_rejected(key, value):
    # the car-following and spawn constants live in sim, so a baseline or
    # spawn key is unknown whatever it holds, a falsy value or null included
    doc = table1_text() + f"{key}: {value}\n"
    with pytest.raises(ConfigError, match="unknown key") as info:
        load_config(doc)
    assert info.value.path == key


# ---------------------------------------------------------------------------
# the crossing rule


def test_a_step_that_ends_on_the_line_crosses_it_at_the_step_end():
    # s + v * dt lands exactly on the line: crossed, at t + dt
    t, dt, s, v = 1.0, 0.5, 10.0, 4.0
    assert s + v * dt == 12.0 and crossed(s + v * dt, 12.0)
    assert crossing_time(t, t + dt, s, v, 12.0) == t + dt
    # a hair short of the line, inside the slack, still counts as crossed
    assert crossed(12.0 - 1e-9, 12.0) and not crossed(12.0 - 2e-9, 12.0)


def test_a_vehicle_that_stops_within_the_slack_of_a_line_is_there_from_the_step_start():
    line = 350.0
    for s in (line - 1e-9, line - 5e-10, math.nextafter(line, 0.0)):
        assert crossed(s, line)
        # v_new = 0: no division, and the instant stays inside the step
        assert crossing_time(4.2, 4.3, s, 0.0, line) == 4.2
        # barely moving: t + gap / v would pass the step end; it is clamped
        assert crossing_time(4.2, 4.3, s, 1e-15, line) == 4.3


def test_a_line_at_zero_is_crossed_where_the_vehicle_spawns():
    assert crossed(0.0, 0.0)
    assert crossing_time(3.2, 3.3, 0.0, 17.0, 0.0) == 3.2
    assert crossing_time(3.2, 3.3, 0.5, 17.0, 0.0) == 3.2      # already past


def test_mz_speed_above_segment_limit_rejected():
    doc = table1_text().replace("mz_speed: 18.6 mph", "mz_speed: 40 mph", 1)
    assert "mz_speed: 40 mph" in doc
    with pytest.raises(ConfigError, match="exceeds") as info:
        load_config(doc)
    assert info.value.path == "zones[1].mz_speed"


@pytest.mark.parametrize("old, new, path", [
    # zones 1 and 3 hold 40 and 25 mph above a 20 mph ceiling
    ("v_max: 40 mph", "v_max: 20 mph", "zones[0].mz_speed"),
    # zone 2's 18.6 mph sits below a 20 mph floor
    ("v_min: 0 m/s", "v_min: 20 mph", "zones[1].mz_speed"),
])
def test_mz_speed_outside_speed_bounds_rejected(old, new, path):
    doc = table1_text().replace(old, new, 1)
    assert new in doc
    with pytest.raises(ConfigError, match="speed bounds") as info:
        load_config(doc)
    assert info.value.path == path


@pytest.mark.parametrize("name", ["ma,in", 'ma"in', "ma\rin", "ma\nin", ""])
def test_route_name_a_trace_cannot_carry_rejected(name):
    quoted = '"' + name.replace('"', '\\"').replace("\r", "\\r").replace("\n", "\\n") + '"'
    doc = ((CONFIG_DIR / "bench.yaml").read_text()
           .replace("main_route: main", f"main_route: {quoted}")
           .replace("\n  main:", f"\n  {quoted}:")
           .replace("route: main,", f"route: {quoted},"))
    assert doc.count(quoted) == 5
    with pytest.raises(ConfigError, match="route name") as info:
        load_config(doc)
    assert info.value.path == f"routes.{name}"


def test_overlapping_zones_rejected():
    doc = table1_text().replace("- {route: main, lane: srz, mz_entry: 700 m, priority: true}",
                                "- {route: main, lane: srz, mz_entry: 420 m, priority: true}")
    with pytest.raises(ConfigError, match="overlap"):
        load_config(doc)


def test_missing_unit_suffix_rejected():
    doc = table1_text().replace("dt: 0.1 s", "dt: 0.1")
    with pytest.raises(ConfigError, match="unit"):
        load_config(doc)


def test_zero_flow_allowed():
    doc = table1_text().replace("flow: 500 vph", "flow: 0 vph")
    cfg = load_config(doc)
    assert cfg.route("main").flow_vps == 0.0


def test_load_is_idempotent():
    cfg = load_config(table1_text())
    again = load_config(serialize_config(cfg))
    assert again == cfg
    assert load_config(serialize_config(again)) == again
    # the per-route lookups cached at construction survive the round trip
    for route in cfg.routes:
        assert cfg.route(route.name) is route
        twin = again.route(route.name)
        assert twin.length == route.length
        assert twin.limit_boundaries() == route.limit_boundaries()


def test_every_field_the_format_carries_round_trips():
    # each value apart from its default and from Table-1's, so a serializer
    # that dropped or misnamed any key would load that field differently
    cfg = load_config(table1_text())
    cfg = dataclasses.replace(
        cfg, seed=7,
        bounds=Bounds(u_min=-2.5, u_max=1.25, v_min=0.5, v_max=19.0),
        routes=tuple(dataclasses.replace(r, flow_vps=r.flow_vps + 0.01, segments=tuple(
            RouteSegment(length=s.length + 0.5, limit=s.limit + 0.25) for s in r.segments))
            for r in cfg.routes),
        zones=tuple(dataclasses.replace(z, approaches=tuple(
            dataclasses.replace(ap, priority=not ap.priority) for ap in z.approaches))
            for z in cfg.zones))
    text = serialize_config(cfg)
    assert load_config(text) == cfg
    assert "mode" not in text and "terminal" not in text


def _linear_limit(route, s):
    """The segment-scan definition of limit_at, summing ends as it goes."""
    pos = 0.0
    for seg in route.segments:
        pos += seg.length
        if s < pos:
            return seg.limit
    return route.segments[-1].limit


def test_limit_at_matches_linear_scan():
    rng = random.Random(11)
    routes = list(load_config(table1_text()).routes)
    for _ in range(200):
        segs = tuple(RouteSegment(length=rng.uniform(0.1, 500.0), limit=rng.uniform(1.0, 40.0))
                     for _ in range(rng.randint(1, 6)))
        routes.append(RouteSpec(name="r", flow_vps=0.1, segments=segs))
    for route in routes:
        probes = [0.0, -1.0, math.inf]
        end = 0.0
        for seg in route.segments:
            end += seg.length
            probes += [end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)]
        probes.append(end + 1.0)
        assert route.length == end
        for s in probes:
            assert route.limit_at(s) == _linear_limit(route, s), (route, s)


def test_load_config_file(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(table1_text())
    assert load_config_file(p) == load_config(table1_text())


def test_bounds_validation():
    with pytest.raises(ConfigError):
        Bounds(u_min=-1.0, u_max=2.0, v_min=10.0, v_max=5.0).validate()


def test_error_paths_are_named():
    doc = table1_text().replace("v_max: 40 mph", "v_max: -1 m/s")
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert "v_max" in str(err.value)
