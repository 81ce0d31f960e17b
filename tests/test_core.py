"""Configuration loading, unit handling, validation."""

import math
import pathlib
import random

import pytest

from corridorsim.core import (
    Bounds,
    ConfigError,
    RouteSegment,
    RouteSpec,
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
    ("headway: 1.2 s\nmain_route", "headwy: 9 s\nmain_route", "headwy"),
    ("v_max: 40 mph", "v_mx: 40 mph", "bounds.v_mx"),
    ("yield_gap: 4.0 s", "yeld_gap: 9 s", "baseline.yeld_gap"),
    ("min_lead: 2.0 m", "min_led: 9 m", "spawn.min_led"),
    ("flow: 800 vph", "flw: 800 vph", "routes.highway.flw"),
    ("{length: 365 m, limit: 25 mph}", "{length: 365 m, limt: 25 mph}",
     "routes.ring.segments[0].limt"),
    ("terminal: free", "termnal: free", "zones[0].termnal"),
    ("spawn:\n  min_lead: 2.0 m", "spawn:\n  min_lead: 2.0 m\n  probe_only: true",
     "spawn.probe_only"),
], ids=["top", "bounds", "baseline", "spawn", "route", "segment", "zone", "probe_only"])
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


def test_mz_speed_above_segment_limit_rejected():
    doc = table1_text().replace("mz_speed: 18.6 mph\n    terminal: mz_speed",
                                "mz_speed: 40 mph\n    terminal: mz_speed", 1)
    with pytest.raises(ConfigError, match="exceeds"):
        load_config(doc)


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
