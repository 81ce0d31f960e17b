"""Shared types, unit handling and corridor configuration.

Configuration documents are YAML with explicit unit suffixes on every
dimensioned quantity ("100 m", "40 mph", "1.2 s", "800 vph"). Speeds given
in mph are converted to m/s on load; everything downstream of load_config
works in SI units.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Collection, Optional

import yaml

__all__ = [
    "ConfigError",
    "Bounds",
    "Approach",
    "ConflictZoneSpec",
    "RouteSegment",
    "RouteSpec",
    "CorridorConfig",
    "VehicleState",
    "HEADWAY",
    "crossed",
    "crossing_time",
    "load_config",
    "load_config_file",
    "serialize_config",
]

MPH_IN_MPS = 0.44704

ZONE_KINDS = ("merge", "speed_reduction", "roundabout")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


# ---------------------------------------------------------------------------
# quantity parsing

_QUANTITY_RE = re.compile(r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z/^0-9]*)\s*$")

# unit -> factor into the SI base of its dimension; each dimension's first
# unit is that base, the one serialize_config writes
_UNITS = {
    "length": {"m": 1.0, "km": 1000.0},
    "speed": {"m/s": 1.0, "mps": 1.0, "mph": MPH_IN_MPS, "km/h": 1 / 3.6, "kph": 1 / 3.6},
    "accel": {"m/s2": 1.0, "m/s^2": 1.0, "mps2": 1.0},
    "time": {"s": 1.0, "ms": 1e-3, "min": 60.0},
    "flow": {"vps": 1.0, "vph": 1 / 3600.0},
}


def parse_quantity(raw, dimension: str, path: str) -> float:
    """Parse 'value unit' into SI. Bare numbers are rejected so unit intent
    is always explicit in config files, and so is a value past the float
    range."""
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
    value *= table[unit]
    if not math.isfinite(value):
        raise ConfigError(f"quantity {raw!r} is not finite", path)
    return value


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class Bounds:
    """Global control and speed envelope shared by every vehicle."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float

    def validate(self) -> None:
        if not self.u_min < 0:
            raise ConfigError("u_min must be negative", "bounds.u_min")
        if not self.u_max > 0:
            raise ConfigError("u_max must be positive", "bounds.u_max")
        if self.v_min < 0:
            raise ConfigError("v_min must be non-negative", "bounds.v_min")
        if not self.v_max > self.v_min:
            raise ConfigError("v_max must exceed v_min", "bounds.v_max")


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

    @property
    def terminal_rule(self) -> str:
        """The speed condition at the merging time: ``"free"`` at a merge,
        where the planner chooses the speed, and ``"mz_speed"`` at any
        other kind, whose merging zone is crossed at ``mz_speed``."""
        return "free" if self.kind == "merge" else "mz_speed"

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
class CorridorConfig:
    """A loaded scenario. ``mode`` is not part of the document: ``run
    --mode`` sets it on a copy for each run."""

    dt: float
    horizon: float
    main_route: str
    bounds: Bounds
    routes: tuple[RouteSpec, ...]
    zones: tuple[ConflictZoneSpec, ...]
    seed: int = 0
    mode: str = "optimal"
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):   # the first route of a name wins, as in a scan
        object.__setattr__(self, "_by_name", {r.name: r for r in reversed(self.routes)})

    def route(self, name: str) -> RouteSpec:
        return self._by_name[name]

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


HEADWAY = 1.2   # s, the safe time headway h the rear-end constraint is built on


def crossed(s: float, line: float) -> bool:
    """Whether a vehicle at ``s`` counts as past ``line``: the one rule the
    simulation, the trace checks and the report apply to every line."""
    return s >= line - 1e-9


def crossing_time(t: float, t_next: float, s: float, v_new: float, line: float) -> float:
    """The instant in [t, t_next] at which a vehicle at ``s`` at ``t``, moving
    at the integrator's new speed ``v_new`` over the step, reaches ``line``:
    ``t + (line - s) / v_new``, clamped; ``t`` for a vehicle already at or
    past the line, or one that does not move."""
    gap = line - s
    if not (gap > 0.0 and v_new > 0.0):
        return t
    tc = t + gap / v_new
    return t_next if tc > t_next else tc


# ---------------------------------------------------------------------------
# loading

# key -> dimension of each mapping whose keys are its dataclass's fields, all
# required; the key check, the parsing and serialize_config read these
_BOUNDS_KEYS = {"u_min": "accel", "u_max": "accel", "v_min": "speed", "v_max": "speed"}
_SEGMENT_KEYS = {"length": "length", "limit": "speed"}


def _mapping(raw, keys: Collection[str], path: str) -> dict:
    """``raw``, checked to be a mapping whose every key is one of ``keys``:
    a misspelt optional key would otherwise load as its default."""
    if not isinstance(raw, dict):
        raise ConfigError("must be a mapping", path)
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown key, expected one of {sorted(keys)}",
                              f"{path}.{key}" if path else str(key))
    return raw


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r}", path)
    return mapping[key]


def _fields(raw, keys: dict, path: str) -> dict:
    """The SI value of each key of ``keys``, every one required, by field
    name."""
    _mapping(raw, keys, path)
    return {key: parse_quantity(_require(raw, key, path), dimension, f"{path}.{key}")
            for key, dimension in keys.items()}


def _load_route(name: str, raw: dict, path: str) -> RouteSpec:
    if not name or any(c in name for c in ',"\r\n'):
        # a trace row holds the name as one unquoted CSV field
        raise ConfigError("route name must be non-empty and hold no comma, "
                          "double quote, CR or LF", path)
    _mapping(raw, ("flow", "segments"), path)
    flow = parse_quantity(_require(raw, "flow", path), "flow", f"{path}.flow")
    if flow < 0:
        raise ConfigError("flow must be non-negative", f"{path}.flow")
    raw_segs = _require(raw, "segments", path)
    if not isinstance(raw_segs, list) or not raw_segs:
        raise ConfigError("segments must be a non-empty list", f"{path}.segments")
    segs = []
    for i, rs in enumerate(raw_segs):
        spath = f"{path}.segments[{i}]"
        seg = RouteSegment(**_fields(rs, _SEGMENT_KEYS, spath))
        if seg.length <= 0:
            raise ConfigError("segment length must be strictly positive", f"{spath}.length")
        if seg.limit <= 0:
            raise ConfigError("segment limit must be strictly positive", f"{spath}.limit")
        segs.append(seg)
    return RouteSpec(name=name, flow_vps=flow, segments=tuple(segs))


def _load_zone(raw: dict, routes: dict[str, RouteSpec], bounds: Bounds,
               path: str) -> ConflictZoneSpec:
    _mapping(raw, ("z", "kind", "length", "mz_length", "mz_speed", "approaches"), path)
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

    raw_aps = _require(raw, "approaches", path)
    if not isinstance(raw_aps, list) or not raw_aps:
        raise ConfigError("approaches must be a non-empty list", f"{path}.approaches")
    aps = []
    for i, ra in enumerate(raw_aps):
        apath = f"{path}.approaches[{i}]"
        _mapping(ra, ("route", "lane", "mz_entry", "priority"), apath)
        rname = _require(ra, "route", apath)
        if rname not in routes:
            raise ConfigError(f"unknown route {rname!r}", f"{apath}.route")
        lane = _require(ra, "lane", apath)
        mz_start = parse_quantity(_require(ra, "mz_entry", apath), "length", f"{apath}.mz_entry")
        cz_start = mz_start - cz_length
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
        if "priority" in ra and not isinstance(ra["priority"], bool):
            raise ConfigError(f"expected true or false, got {ra['priority']!r}", f"{apath}.priority")
        aps.append(Approach(route=rname, lane=str(lane), cz_start=cz_start, mz_start=mz_start,
                            **({"priority": ra["priority"]} if "priority" in ra else {})))
    if 1 < len({ap.lane for ap in aps}) < len(aps):
        raise ConfigError("approaches must all share one lane label (a merge) or all carry "
                          "distinct labels (a crossing)", f"{path}.approaches")
    return ConflictZoneSpec(index=index, kind=kind, cz_length=cz_length, mz_length=mz_length,
                            mz_speed=mz_speed, approaches=tuple(aps))


def load_config(text: str) -> CorridorConfig:
    """Parse and validate a YAML corridor document. Loading is idempotent:
    load_config(serialize_config(cfg)) compares equal to cfg. A key the
    document leaves out takes its field's default."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a mapping")
    _mapping(doc, ("seed", "dt", "horizon", "main_route", "bounds", "routes", "zones"), "")

    given = {}    # the optional keys the document sets
    if "seed" in doc:
        given["seed"] = seed = doc["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("seed must be a non-negative integer", "seed")
    dt = parse_quantity(_require(doc, "dt", ""), "time", "dt")
    if dt <= 0:
        raise ConfigError("dt must be strictly positive", "dt")
    horizon = parse_quantity(_require(doc, "horizon", ""), "time", "horizon")
    if horizon <= 0:
        raise ConfigError("horizon must be strictly positive", "horizon")
    if not math.isfinite(horizon / dt):
        raise ConfigError("too small: horizon / dt is not finite", "dt")

    bounds = Bounds(**_fields(_require(doc, "bounds", ""), _BOUNDS_KEYS, "bounds"))
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

    return CorridorConfig(
        dt=dt, horizon=horizon, main_route=main_route, bounds=bounds,
        routes=tuple(routes.values()), zones=tuple(zones), **given,
    )


def load_config_file(path) -> CorridorConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())


def _fmt(value: float, dimension: str) -> str:
    """``value`` with the SI unit of ``dimension``."""
    return f"{value!r} {next(iter(_UNITS[dimension]))}"


def _emit(obj, keys: dict) -> dict:
    return {key: _fmt(getattr(obj, key), dimension) for key, dimension in keys.items()}


def serialize_config(cfg: CorridorConfig) -> str:
    """Emit a canonical SI-unit YAML document for ``cfg``.

    Floats are written with repr precision so a load/serialize/load round
    trip is structurally exact.
    """
    doc = {
        "seed": cfg.seed,
        "dt": _fmt(cfg.dt, "time"),
        "horizon": _fmt(cfg.horizon, "time"),
        "main_route": cfg.main_route,
        "bounds": _emit(cfg.bounds, _BOUNDS_KEYS),
        "routes": {
            r.name: {
                "flow": _fmt(r.flow_vps, "flow"),
                "segments": [_emit(s, _SEGMENT_KEYS) for s in r.segments],
            }
            for r in cfg.routes
        },
        "zones": [
            {
                "z": z.index,
                "kind": z.kind,
                "length": _fmt(z.cz_length, "length"),
                "mz_length": _fmt(z.mz_length, "length"),
                "mz_speed": _fmt(z.mz_speed, "speed"),
                "approaches": [
                    {
                        "route": ap.route,
                        "lane": ap.lane,
                        "mz_entry": _fmt(ap.mz_start, "length"),
                        "priority": ap.priority,
                    }
                    for ap in z.approaches
                ],
            }
            for z in cfg.zones
        ],
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
