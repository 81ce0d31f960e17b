"""Shared types, unit handling and corridor configuration.

Configuration documents are YAML with explicit unit suffixes on every
dimensioned quantity ("100 m", "40 mph", "1.2 s", "800 vph"). Speeds given
in mph are converted to m/s on load; everything downstream of load_config
works in SI units.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import yaml

__all__ = [
    "ConfigError",
    "Bounds",
    "Approach",
    "ConflictZoneSpec",
    "RouteSegment",
    "RouteSpec",
    "BaselineParams",
    "SpawnParams",
    "CorridorConfig",
    "VehicleState",
    "mph_to_mps",
    "load_config",
    "load_config_file",
    "serialize_config",
]

MPH_IN_MPS = 0.44704

ZONE_KINDS = ("merge", "speed_reduction", "roundabout")
TERMINAL_RULES = ("free", "mz_speed")
MODES = ("baseline", "optimal")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def mph_to_mps(value: float) -> float:
    """Convert miles per hour to meters per second (exact factor 0.44704)."""
    if value < 0:
        raise ValueError("speed must be non-negative")
    return value * MPH_IN_MPS


# ---------------------------------------------------------------------------
# quantity parsing

_QUANTITY_RE = re.compile(r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z/^0-9]*)\s*$")

# unit -> factor into the SI base of its dimension
_UNITS = {
    "length": {"m": 1.0, "km": 1000.0},
    "speed": {"m/s": 1.0, "mps": 1.0, "mph": MPH_IN_MPS, "km/h": 1 / 3.6, "kph": 1 / 3.6},
    "accel": {"m/s2": 1.0, "m/s^2": 1.0, "mps2": 1.0},
    "time": {"s": 1.0, "ms": 1e-3, "min": 60.0},
    "flow": {"vph": 1 / 3600.0, "vps": 1.0},
}


def parse_quantity(raw, dimension: str, path: str) -> float:
    """Parse 'value unit' into SI. Bare numbers are rejected so unit intent
    is always explicit in config files."""
    table = _UNITS[dimension]
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raise ConfigError(f"missing unit suffix, expected one of {sorted(table)}", path)
    if not isinstance(raw, str):
        raise ConfigError(f"expected a quantity string, got {type(raw).__name__}", path)
    m = _QUANTITY_RE.match(raw)
    if not m:
        raise ConfigError(f"cannot parse quantity {raw!r}", path)
    value, unit = float(m.group(1)), m.group(2)
    if unit not in table:
        raise ConfigError(f"unknown {dimension} unit {unit!r}, expected one of {sorted(table)}", path)
    return value * table[unit]


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class Bounds:
    """Global control and speed envelope shared by every vehicle."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float

    def validate(self, path: str = "bounds") -> None:
        if not self.u_min < 0:
            raise ConfigError("u_min must be negative", f"{path}.u_min")
        if not self.u_max > 0:
            raise ConfigError("u_max must be positive", f"{path}.u_max")
        if self.v_min < 0:
            raise ConfigError("v_min must be non-negative", f"{path}.v_min")
        if not self.v_max > self.v_min:
            raise ConfigError("v_max must exceed v_min", f"{path}.v_max")


@dataclass(frozen=True)
class RouteSegment:
    length: float
    limit: float


@dataclass(frozen=True)
class RouteSpec:
    """A one-lane route described as consecutive constant-limit segments;
    segment ends are summed once, left to right."""

    name: str
    flow_vps: float
    segments: tuple[RouteSegment, ...]
    _ends: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_ends", tuple(accumulate(s.length for s in self.segments)))

    @property
    def length(self) -> float:
        return self._ends[-1] if self._ends else 0.0

    def limit_at(self, s: float) -> float:
        """Limit of the first segment whose end lies beyond s; the last
        segment's limit at or past the route end."""
        i = bisect_right(self._ends, s)
        return self.segments[i if i < len(self._ends) else -1].limit

    def limit_boundaries(self) -> tuple[tuple[float, float], ...]:
        """(start position, limit) for each segment, in order."""
        starts = (0.0,) + self._ends[:-1]
        return tuple((pos, seg.limit) for pos, seg in zip(starts, self.segments))


@dataclass(frozen=True)
class Approach:
    """One route feeding a conflict zone.

    Routes that share a lane label merge into the same physical lane at the
    merging zone; distinct labels cross it laterally. ``priority`` marks the
    stream that does not yield under baseline driving.
    """

    route: str
    lane: str
    cz_start: float
    mz_start: float
    priority: bool = False


@dataclass(frozen=True)
class ConflictZoneSpec:
    """Geometry and policy of one conflict zone.

    The control zone (CZ) covers ``cz_length`` meters upstream of the merging
    zone (MZ) on every approach; the MZ itself is ``mz_length`` meters crossed
    at constant speed.
    """

    index: int
    kind: str
    cz_length: float
    mz_length: float
    mz_speed: float
    approaches: tuple[Approach, ...]
    terminal_rule: str

    @property
    def shared_lane(self) -> bool:
        """True when every approach carries one lane label: the routes merge
        into one lane and follow through the MZ. Otherwise every label is
        distinct and the routes cross it laterally; load rejects a mix."""
        return len({ap.lane for ap in self.approaches}) == 1

    def approach_for(self, route: str) -> Optional[Approach]:
        for ap in self.approaches:
            if ap.route == route:
                return ap
        return None


@dataclass(frozen=True)
class BaselineParams:
    """Car-following and yield parameters for the baseline driver model."""

    max_accel: float = 1.5
    comfort_decel: float = 3.0
    min_gap: float = 2.0
    headway: float = 1.2
    yield_gap: float = 4.0
    speed_exponent: float = 4.0


@dataclass(frozen=True)
class SpawnParams:
    min_lead: float = 2.0
    probe_only: bool = False


@dataclass(frozen=True)
class CorridorConfig:
    mode: str
    seed: int
    dt: float
    horizon: float
    headway: float
    main_route: str
    bounds: Bounds
    routes: tuple[RouteSpec, ...]
    zones: tuple[ConflictZoneSpec, ...]
    baseline: BaselineParams = field(default_factory=BaselineParams)
    spawn: SpawnParams = field(default_factory=SpawnParams)
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):   # the first route of a name wins, as in a scan
        object.__setattr__(self, "_by_name", {r.name: r for r in reversed(self.routes)})

    def route(self, name: str) -> RouteSpec:
        return self._by_name[name]

    @property
    def flows(self) -> dict[str, float]:
        """Spawn rate per route in vehicles/second."""
        return {r.name: r.flow_vps for r in self.routes}

    def zones_on(self, route: str) -> tuple[tuple[ConflictZoneSpec, Approach], ...]:
        """Zones fed by ``route`` ordered by CZ start position."""
        hits = []
        for z in self.zones:
            ap = z.approach_for(route)
            if ap is not None:
                hits.append((z, ap))
        hits.sort(key=lambda pair: pair[1].cz_start)
        return tuple(hits)


# ---------------------------------------------------------------------------
# runtime state types


@dataclass
class VehicleState:
    """Kinematic state of one simulated vehicle."""

    vehicle_id: int
    route: str
    s: float
    v: float
    u: float = 0.0    # control executed over the current step


# ---------------------------------------------------------------------------
# loading


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r}", path)
    return mapping[key]


def _load_route(name: str, raw: dict, path: str) -> RouteSpec:
    if not name or any(c in name for c in ',"\r\n'):
        # a trace row holds the name as one unquoted CSV field
        raise ConfigError("route name must be non-empty and hold no comma, "
                          "double quote, CR or LF", path)
    if not isinstance(raw, dict):
        raise ConfigError("route must be a mapping", path)
    flow = parse_quantity(_require(raw, "flow", path), "flow", f"{path}.flow")
    if flow < 0:
        raise ConfigError("flow must be non-negative", f"{path}.flow")
    raw_segs = _require(raw, "segments", path)
    if not isinstance(raw_segs, list) or not raw_segs:
        raise ConfigError("segments must be a non-empty list", f"{path}.segments")
    segs = []
    for i, rs in enumerate(raw_segs):
        spath = f"{path}.segments[{i}]"
        length = parse_quantity(_require(rs, "length", spath), "length", f"{spath}.length")
        limit = parse_quantity(_require(rs, "limit", spath), "speed", f"{spath}.limit")
        if length <= 0:
            raise ConfigError("segment length must be strictly positive", f"{spath}.length")
        if limit <= 0:
            raise ConfigError("segment limit must be strictly positive", f"{spath}.limit")
        segs.append(RouteSegment(length=length, limit=limit))
    return RouteSpec(name=name, flow_vps=flow, segments=tuple(segs))


def _load_zone(raw: dict, routes: dict[str, RouteSpec], bounds: Bounds,
               path: str) -> ConflictZoneSpec:
    index = _require(raw, "z", path)
    if not isinstance(index, int) or isinstance(index, bool) or index < 1:
        raise ConfigError("z must be a positive integer zone index", f"{path}.z")
    kind = _require(raw, "kind", path)
    if kind not in ZONE_KINDS:
        raise ConfigError(f"kind must be one of {ZONE_KINDS}", f"{path}.kind")
    cz_length = parse_quantity(_require(raw, "length", path), "length", f"{path}.length")
    mz_length = parse_quantity(_require(raw, "mz_length", path), "length", f"{path}.mz_length")
    mz_speed = parse_quantity(_require(raw, "mz_speed", path), "speed", f"{path}.mz_speed")
    if cz_length <= 0:
        raise ConfigError("control zone length must be strictly positive", f"{path}.length")
    if mz_length <= 0:
        raise ConfigError("merging zone length must be strictly positive", f"{path}.mz_length")
    if mz_speed <= 0:
        raise ConfigError("merging zone speed must be strictly positive", f"{path}.mz_speed")
    if not bounds.v_min - 1e-9 <= mz_speed <= bounds.v_max + 1e-9:
        raise ConfigError(
            f"mz_speed {mz_speed:.6g} m/s lies outside the speed bounds "
            f"[{bounds.v_min:.6g}, {bounds.v_max:.6g}] m/s", f"{path}.mz_speed")
    terminal = raw.get("terminal", "free" if kind == "merge" else "mz_speed")
    if terminal not in TERMINAL_RULES:
        raise ConfigError(f"terminal must be one of {TERMINAL_RULES}", f"{path}.terminal")

    raw_aps = _require(raw, "approaches", path)
    if not isinstance(raw_aps, list) or not raw_aps:
        raise ConfigError("approaches must be a non-empty list", f"{path}.approaches")
    aps = []
    for i, ra in enumerate(raw_aps):
        apath = f"{path}.approaches[{i}]"
        rname = _require(ra, "route", apath)
        if rname not in routes:
            raise ConfigError(f"unknown route {rname!r}", f"{apath}.route")
        lane = _require(ra, "lane", apath)
        mz_start = parse_quantity(_require(ra, "mz_entry", apath), "length", f"{apath}.mz_entry")
        cz_start = mz_start - cz_length
        if "cz_entry" in ra:
            declared = parse_quantity(ra["cz_entry"], "length", f"{apath}.cz_entry")
            if abs(declared - cz_start) > 1e-9:
                raise ConfigError(
                    "cz_entry, mz_entry and zone length disagree "
                    f"(mz_entry - cz_entry = {mz_start - declared:.6g}, length = {cz_length:.6g})",
                    f"{apath}.cz_entry",
                )
        if cz_start < 0:
            raise ConfigError("control zone extends upstream of the route start", f"{apath}.mz_entry")
        route = routes[rname]
        if mz_start + mz_length > route.length + 1e-9:
            raise ConfigError("merging zone extends past the route end", f"{apath}.mz_entry")
        limit = route.limit_at(mz_start + 1e-9)
        if mz_speed > limit + 1e-9:
            raise ConfigError(
                f"mz_speed {mz_speed:.6g} m/s exceeds the {limit:.6g} m/s limit at the merging zone",
                f"{path}.mz_speed",
            )
        aps.append(Approach(route=rname, lane=str(lane), cz_start=cz_start, mz_start=mz_start,
                            priority=bool(ra.get("priority", False))))
    if 1 < len({ap.lane for ap in aps}) < len(aps):
        raise ConfigError("approaches must all share one lane label (a merge) or all carry "
                          "distinct labels (a crossing)", f"{path}.approaches")
    return ConflictZoneSpec(index=index, kind=kind, cz_length=cz_length, mz_length=mz_length,
                            mz_speed=mz_speed, approaches=tuple(aps), terminal_rule=terminal)


def load_config(text: str) -> CorridorConfig:
    """Parse and validate a YAML corridor document. Loading is idempotent:
    load_config(serialize_config(cfg)) compares equal to cfg."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a mapping")

    mode = doc.get("mode", "optimal")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}", "mode")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a non-negative integer", "seed")
    dt = parse_quantity(_require(doc, "dt", ""), "time", "dt")
    if dt <= 0:
        raise ConfigError("dt must be strictly positive", "dt")
    horizon = parse_quantity(_require(doc, "horizon", ""), "time", "horizon")
    if horizon <= 0:
        raise ConfigError("horizon must be strictly positive", "horizon")
    headway = parse_quantity(doc.get("headway", "1.2 s"), "time", "headway")
    if headway <= 0:
        raise ConfigError("headway must be strictly positive", "headway")

    braw = _require(doc, "bounds", "")
    bounds = Bounds(
        u_min=parse_quantity(_require(braw, "u_min", "bounds"), "accel", "bounds.u_min"),
        u_max=parse_quantity(_require(braw, "u_max", "bounds"), "accel", "bounds.u_max"),
        v_min=parse_quantity(_require(braw, "v_min", "bounds"), "speed", "bounds.v_min"),
        v_max=parse_quantity(_require(braw, "v_max", "bounds"), "speed", "bounds.v_max"),
    )
    bounds.validate()

    raw_routes = _require(doc, "routes", "")
    if not isinstance(raw_routes, dict) or not raw_routes:
        raise ConfigError("routes must be a non-empty mapping", "routes")
    routes: dict[str, RouteSpec] = {}
    for name, rr in raw_routes.items():
        routes[str(name)] = _load_route(str(name), rr, f"routes.{name}")

    main_route = _require(doc, "main_route", "")
    if main_route not in routes:
        raise ConfigError(f"main_route {main_route!r} is not a defined route", "main_route")

    raw_zones = _require(doc, "zones", "")
    if raw_zones is None:
        raw_zones = []
    if not isinstance(raw_zones, list):
        raise ConfigError("zones must be a list", "zones")
    zones = []
    seen = set()
    for i, rz in enumerate(raw_zones):
        z = _load_zone(rz, routes, bounds, f"zones[{i}]")
        if z.index in seen:
            raise ConfigError(f"duplicate zone index {z.index}", f"zones[{i}].z")
        seen.add(z.index)
        zones.append(z)
    zones.sort(key=lambda z: z.index)

    # zones touching one route must not overlap along it
    for name in routes:
        spans = []
        for z in zones:
            ap = z.approach_for(name)
            if ap is not None:
                spans.append((ap.cz_start, ap.mz_start + z.mz_length, z.index))
        spans.sort()
        for (s0, e0, i0), (s1, e1, i1) in zip(spans, spans[1:]):
            if s1 < e0 - 1e-9:
                raise ConfigError(f"zones {i0} and {i1} overlap on route {name!r}", "zones")

    bl = doc.get("baseline", {}) or {}
    baseline = BaselineParams(
        max_accel=parse_quantity(bl.get("max_accel", "1.5 m/s2"), "accel", "baseline.max_accel"),
        comfort_decel=parse_quantity(bl.get("comfort_decel", "3.0 m/s2"), "accel", "baseline.comfort_decel"),
        min_gap=parse_quantity(bl.get("min_gap", "2.0 m"), "length", "baseline.min_gap"),
        headway=parse_quantity(bl.get("headway", "1.2 s"), "time", "baseline.headway"),
        yield_gap=parse_quantity(bl.get("yield_gap", "4.0 s"), "time", "baseline.yield_gap"),
        speed_exponent=float(bl.get("speed_exponent", 4.0)),
    )
    if baseline.max_accel <= 0 or baseline.comfort_decel <= 0:
        raise ConfigError("baseline accelerations must be strictly positive", "baseline")

    sp = doc.get("spawn", {}) or {}
    spawn = SpawnParams(
        min_lead=parse_quantity(sp.get("min_lead", "2.0 m"), "length", "spawn.min_lead"),
        probe_only=bool(sp.get("probe_only", False)),
    )

    return CorridorConfig(
        mode=mode, seed=seed, dt=dt, horizon=horizon, headway=headway,
        main_route=main_route, bounds=bounds, routes=tuple(routes.values()),
        zones=tuple(zones), baseline=baseline, spawn=spawn,
    )


def load_config_file(path) -> CorridorConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())


def _fmt(value: float, unit: str) -> str:
    return f"{value!r} {unit}"


def serialize_config(cfg: CorridorConfig) -> str:
    """Emit a canonical SI-unit YAML document for ``cfg``.

    Floats are written with repr precision so a load/serialize/load round
    trip is structurally exact.
    """
    doc = {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "dt": _fmt(cfg.dt, "s"),
        "horizon": _fmt(cfg.horizon, "s"),
        "headway": _fmt(cfg.headway, "s"),
        "main_route": cfg.main_route,
        "bounds": {
            "u_min": _fmt(cfg.bounds.u_min, "m/s2"),
            "u_max": _fmt(cfg.bounds.u_max, "m/s2"),
            "v_min": _fmt(cfg.bounds.v_min, "m/s"),
            "v_max": _fmt(cfg.bounds.v_max, "m/s"),
        },
        "baseline": {
            "max_accel": _fmt(cfg.baseline.max_accel, "m/s2"),
            "comfort_decel": _fmt(cfg.baseline.comfort_decel, "m/s2"),
            "min_gap": _fmt(cfg.baseline.min_gap, "m"),
            "headway": _fmt(cfg.baseline.headway, "s"),
            "yield_gap": _fmt(cfg.baseline.yield_gap, "s"),
            "speed_exponent": cfg.baseline.speed_exponent,
        },
        "spawn": {
            "min_lead": _fmt(cfg.spawn.min_lead, "m"),
            "probe_only": cfg.spawn.probe_only,
        },
        "routes": {
            r.name: {
                "flow": _fmt(r.flow_vps, "vps"),
                "segments": [
                    {"length": _fmt(s.length, "m"), "limit": _fmt(s.limit, "m/s")}
                    for s in r.segments
                ],
            }
            for r in cfg.routes
        },
        "zones": [
            {
                "z": z.index,
                "kind": z.kind,
                "length": _fmt(z.cz_length, "m"),
                "mz_length": _fmt(z.mz_length, "m"),
                "mz_speed": _fmt(z.mz_speed, "m/s"),
                "terminal": z.terminal_rule,
                "approaches": [
                    {
                        "route": ap.route,
                        "lane": ap.lane,
                        "mz_entry": _fmt(ap.mz_start, "m"),
                        "priority": ap.priority,
                    }
                    for ap in z.approaches
                ],
            }
            for z in cfg.zones
        ],
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
