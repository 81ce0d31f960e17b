#!/usr/bin/env python3
"""Layered corridorsim benchmark.

    python3 benchmarks/run.py --workload corridor-optimal --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see benchmarks/README.md for why each exists):

* corridor-optimal   ``corridorsim run --mode optimal`` for each seed on the
                     Table-1 geometry, then ``verify`` on every trace.
* corridor-baseline  the same with ``--mode baseline``; no trajectory or
                     coordinator call.
* fabric-flood       the optimal traces replayed with ``rate=0`` through a
                     broker process into a head unit.

Every pass interleaves the verb calls with floods, so each metric gets
samples from the whole run (see ``make_pass``); on fabric-flood the floods
go through a fresh broker process per pass.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of traced passes, which run next to untraced ones so
the tracing overhead is measured too.  All files are read and written
inside the repository, under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "table1.yaml"
WORK = ROOT / ".bench_work"

WORKLOADS = ("corridor-optimal", "corridor-baseline", "fabric-flood")
# Population the ROADMAP measures on.  It is fixed, not drawn from --seed:
# it holds the known defects (optimal seed 3 lateral overlap, baseline seed 1
# rear-end violations), and trace sizes differ by up to 70 % between seeds,
# so a drawn population would swamp the timing spread.
DEFAULT_SEEDS = "1,2,3"
HORIZON_S = 300.0          # Table-1 ships 600 s; the ROADMAP figures use 300 s
SETUP_SAMPLES = 5
TOLERANCE = 1e-6           # socket vs twin command gap, as criterion 7
SIDE_FRAMES = 10_000       # rows of a corridor workload's codec flood

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "run_us_per_vehicle_step": "us",
    "verify_s": "s",
    "fabric_frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
}
EVENT_KEYS = ("governor_caps", "control_clamps", "tm_relaxations",
              "relax_exhausted", "replans", "spawn_withheld")


def log(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# set-up


def _import_setup_s(cfg_path: Path, fabric: bool) -> float:
    """Import the modules the workload uses and load its config, in a fresh
    interpreter; returns the time from the first import to the loaded config."""
    extra = "import corridorsim.v2x.replay, corridorsim.v2x.headunit\n" if fabric else ""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            "import corridorsim.cli\n" + extra +
            "corridorsim.cli.load_config_file(sys.argv[1])\n"
            "print(repr(time.perf_counter() - t0))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, str(cfg_path)], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def _broker_setup_s() -> float:
    """Spawn a broker process, then subscribe the consumer and sync."""
    from fabric import BrokerProcess, subscribed_client

    t0 = time.perf_counter()
    with BrokerProcess(str(SRC)) as broker:
        client = subscribed_client(broker.address)
        elapsed = time.perf_counter() - t0
        client.close()
    return elapsed


def measure_setup(cfg_path: Path, fabric: bool) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        s = _import_setup_s(cfg_path, fabric)
        if fabric:
            s += _broker_setup_s()
        samples.append(s)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# inputs and outputs


@dataclasses.dataclass
class Ctx:
    workload: str
    mode: str
    population: list[int]     # simulation seeds, as given
    seeds: list[int]          # the same, in run order
    verb_seeds: list[int]     # seeds the run and verify verbs are timed on
    work: Path
    cfg_path: Path
    cfg: object

    @property
    def fabric(self) -> bool:
        return self.workload == "fabric-flood"

    def path(self, kind: str, seed: int, ext: str) -> Path:
        return self.work / "out" / f"{kind}_{self.mode}_{seed}.{ext}"


def prepare(workload: str, population: list[int], seeds: list[int]) -> Ctx:
    from corridorsim.core import load_config_file, serialize_config

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    want = dataclasses.replace(load_config_file(CONFIG), horizon=HORIZON_S)
    cfg_path = work / "table1_300s.yaml"
    cfg_path.write_text(serialize_config(want))
    if load_config_file(cfg_path) != want:
        raise SystemExit("error: derived Table-1 config does not round-trip")
    mode = "baseline" if workload == "corridor-baseline" else "optimal"
    # fabric-flood times the verbs on the first seed only: its own subject is
    # the flood, and its input for every seed is made once (fabric_inputs)
    verb_seeds = population[:1] if workload == "fabric-flood" else seeds
    return Ctx(workload, mode, population, seeds, verb_seeds, work, cfg_path, want)


class Findings:
    """Keeps the result of the safety checks ``verify`` runs, so flagged
    vehicles can be counted without running the checks again."""

    def __init__(self, cli):
        self.rear: list = []
        self.lateral: list = []
        rear, lateral = cli.rear_end_check, cli.occupancy_from_trace

        def rear_end_check(*args, **kwargs):
            self.rear = rear(*args, **kwargs)
            return self.rear

        def occupancy_from_trace(*args, **kwargs):
            self.lateral = lateral(*args, **kwargs)
            return self.lateral

        cli.rear_end_check = rear_end_check
        cli.occupancy_from_trace = occupancy_from_trace

    def flagged(self) -> set[int]:
        ids = {row[1] for row in self.rear}
        for pair in self.lateral:
            ids.update((pair.vehicle_a, pair.vehicle_b))
        return ids


def scan_traces(ctx: Ctx) -> dict[int, tuple[int, int]]:
    """seed -> (data rows, distinct vehicles) of each written trace."""
    out = {}
    for seed in ctx.seeds:
        rows, ids = 0, set()
        with open(ctx.path("trace", seed, "csv")) as fh:
            next(fh)
            for line in fh:
                rows += 1
                ids.add(line.split(",", 2)[1])
        out[seed] = (rows, len(ids))
    return out


def output_digest(ctx: Ctx, commands: dict | None) -> str:
    """sha256 over the trace, schedule and events bytes of every seed, plus
    the head-unit command stream of each seed when given."""
    h = hashlib.sha256()
    for seed in sorted(ctx.seeds):
        for kind, ext in (("trace", "csv"), ("schedule", "csv"), ("events", "json")):
            h.update(ctx.path(kind, seed, ext).read_bytes())
        if commands is not None:
            h.update("".join(f"{t:.3f},{v:.9f}\n" for t, v in commands[seed]).encode())
    return h.hexdigest()


def event_counts(ctx: Ctx) -> dict[str, int]:
    totals = dict.fromkeys(EVENT_KEYS, 0)
    for seed in ctx.seeds:
        events = json.loads(ctx.path("events", seed, "json").read_text())
        for key in EVENT_KEYS:
            totals[key] += events.get(key, 0)
    return {f"sim.events.{k}": v for k, v in totals.items()}


def fabric_inputs(ctx: Ctx, cli) -> dict[int, list]:
    """Put every seed's optimal trace, schedule and events into the output
    directory; return each seed's twin command stream.

    The twin is the head unit run in-process over the frames after an
    encode/decode round trip: the reference the socket stream must equal.
    Inputs and twins are pure functions of the sources and the config, so
    they are made once under that key and reused by later runs.
    """
    from corridorsim.metrics import read_schedule, read_trace
    from corridorsim.v2x.bsm import decode_bsm, encode_bsm
    from corridorsim.v2x.headunit import HeadUnitCore, command_stream
    from corridorsim.v2x.replay import frames_from_trace
    from fabric import TICK_RATE

    key = hashlib.sha256(ctx.cfg_path.read_bytes())
    for path in sorted((SRC / "corridorsim").rglob("*.py")):
        key.update(path.read_bytes())
    cache = WORK / "cache" / key.hexdigest()
    cache.mkdir(parents=True, exist_ok=True)
    twins = {}
    for seed in ctx.seeds:
        names = [ctx.path(kind, seed, ext).name for kind, ext in
                 (("trace", "csv"), ("schedule", "csv"), ("events", "json"))]
        if not all((cache / n).is_file() for n in names):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["run", "--config", str(ctx.cfg_path), "--mode", ctx.mode,
                          "--seeds", str(seed), "--out", str(cache)])
        for n in names:
            shutil.copyfile(cache / n, ctx.work / "out" / n)
        twin = cache / f"twin_{seed}.json"
        if not twin.is_file():
            frames = frames_from_trace(read_trace(str(cache / names[0])), ctx.cfg,
                                       read_schedule(str(cache / names[1])))
            commands = list(command_stream((decode_bsm(encode_bsm(f)) for f in frames),
                                           HeadUnitCore(ctx.cfg), TICK_RATE))
            tmp = twin.with_suffix(".tmp")
            tmp.write_text(json.dumps(commands))
            os.replace(tmp, twin)
        twins[seed] = [tuple(c) for c in json.loads(twin.read_text())]
    return twins


# ---------------------------------------------------------------------------
# one pass: verb calls and floods, interleaved


def new_verbs() -> dict:
    return {"run": {}, "verify": {}, "verdicts": {}, "ok": True}


def new_floods() -> dict:
    return {"frames": 0, "lost": 0, "bad": 0, "wall_s": 0.0, "cpu_s": 0.0,
            "published": 0, "delivered": 0, "commands": {}, "seeds": [],
            "hu": dict.fromkeys(("replans", "clamped_plans", "stale_ticks"), 0)}


def run_verbs(ctx: Ctx, cli, findings: Findings, seed: int, out: dict,
              run: bool) -> None:
    """``run`` on ``seed`` (when ``run`` is true), then ``verify`` on its
    trace; each call is timed and its time appended to ``out``."""
    with contextlib.redirect_stdout(io.StringIO()):
        if run:
            t0 = time.perf_counter()
            rc = cli.main(["run", "--config", str(ctx.cfg_path), "--mode", ctx.mode,
                           "--seeds", str(seed), "--out", str(ctx.work / "out")])
            out["run"].setdefault(seed, []).append(time.perf_counter() - t0)
            out["ok"] &= rc == 0
        t0 = time.perf_counter()
        rc = cli.main(["verify", "--config", str(ctx.cfg_path),
                       str(ctx.path("trace", seed, "csv"))])
        out["verify"].setdefault(seed, []).append(time.perf_counter() - t0)
    out["ok"] &= rc in (0, 1)     # 1 = violations found, 2 = unreadable
    out["verdicts"][seed] = (len(findings.rear), len(findings.lateral),
                             sorted(findings.flagged()))


def side_trace(ctx: Ctx, seed: int) -> Path:
    """The first SIDE_FRAMES rows of ``seed``'s trace, written once."""
    prefix = ctx.work / f"side_trace_{seed}.csv"
    if not prefix.is_file():
        with open(ctx.path("trace", seed, "csv")) as src, open(prefix, "w") as dst:
            dst.writelines(islice(src, SIDE_FRAMES + 1))
    return prefix


def run_flood(ctx: Ctx, address, cfg, seed: int, twins: dict, out: dict) -> None:
    """fabric-flood: ``seed``'s whole trace through the broker at ``address``
    into a head unit, checked against its twin.  corridor-*: the first
    SIDE_FRAMES rows of ``seed``'s trace built into frames, encoded and
    decoded in-process, so those workloads report frames/s of their own
    traces without the broker or the head unit (and through it,
    trajectory)."""
    from fabric import codec_flood, flood

    if ctx.fabric:
        trace = ctx.path("trace", seed, "csv")
        with open(trace) as fh:
            limit = sum(1 for _ in fh) - 1
        f = flood(address, cfg, str(trace), str(ctx.path("schedule", seed, "csv")), limit)
    else:
        limit = SIDE_FRAMES
        f = codec_flood(cfg, str(side_trace(ctx, seed)),
                        str(ctx.path("schedule", seed, "csv")), limit)
    out["frames"] += limit
    out["wall_s"] += f.wall_s
    out["cpu_s"] += f.cpu_s
    out["published"] += f.published
    out["delivered"] += f.delivered
    out["lost"] += limit - f.delivered + abs(f.published - limit)
    if seed not in out["seeds"]:
        out["seeds"].append(seed)
    if ctx.fabric:
        twin = twins[seed]
        out["bad"] += abs(len(f.commands) - len(twin)) + sum(
            abs(a[1] - b[1]) > TOLERANCE for a, b in zip(f.commands, twin))
        out["commands"][seed] = f.commands
        for key in out["hu"]:
            out["hu"][key] += getattr(f.core, key)
    else:
        out["bad"] += f.seq_gaps


def make_pass(ctx: Ctx, cli, findings: Findings, tracer, twins: dict,
              time_verbs: bool):
    """One pass, with its timed calls spread over it so each metric gets
    samples from every part of the run:

    * corridor-*: per seed, ``run`` + ``verify``, a flood, ``verify``, a
      flood, ``verify``, a flood.
    * fabric-flood: per seed, ``run`` + ``verify`` on the first seed, that
      seed's flood, ``verify`` on the first seed.  Without ``time_verbs``
      (a traced run, which reports no verb timings here) only the first
      ``run`` + ``verify`` is made.

    Garbage is collected before each timed call, so one call's leftovers
    neither pause the next nor add to its peak memory.
    """
    from corridorsim import core
    from fabric import BrokerProcess

    cfg = core.load_config_file(ctx.cfg_path)

    def traced_if(on: bool):
        return tracer.installed() if on else contextlib.nullcontext()

    def one_pass(i: int, traced: bool) -> dict:
        # the traced calls are the ones the workload exists to measure
        verbs, floods = new_verbs(), new_floods()

        def verb(seed: int, run: bool) -> None:
            gc.collect()
            with traced_if(traced and not ctx.fabric):
                run_verbs(ctx, cli, findings, seed, verbs, run)

        def flood(seed: int, address=None) -> None:
            gc.collect()
            with traced_if(traced and ctx.fabric):
                run_flood(ctx, address, cfg, seed, twins, floods)

        if ctx.fabric:
            first = ctx.verb_seeds[0]
            with BrokerProcess(str(SRC)) as broker:
                for k, seed in enumerate(ctx.seeds):
                    if time_verbs or k == 0:
                        verb(first, run=True)
                    flood(seed, broker.address)
                    if time_verbs:
                        verb(first, run=False)
                broker_cpu_s = broker.stop()
        else:
            for seed in ctx.seeds:
                verb(seed, run=True)
                flood(seed)
                verb(seed, run=False)
                flood(seed)
                verb(seed, run=False)
                flood(seed)
        flood_s = floods["wall_s"]
        run_s = sum(map(sum, verbs["run"].values()))
        verify_s = sum(map(sum, verbs["verify"].values()))
        p = {"verbs": verbs, "floods": floods, "traced": traced,
             "primary_s": flood_s if ctx.fabric else run_s + verify_s,
             "digest": output_digest(ctx, floods["commands"] if ctx.fabric else None)}
        if ctx.fabric:
            p["extra"] = {
                "broker.frames_published": floods["published"],
                "broker.frames_delivered": floods["delivered"],
                "broker.process_cpu_s": broker_cpu_s,
                "fabric.generator_cpu_share": floods["cpu_s"] / flood_s,
                **{f"headunit.{k}": v for k, v in floods["hu"].items()},
            }
        else:
            p["extra"] = event_counts(ctx)
        n = floods["frames"]
        log(f"pass {i + 1}{' traced' if traced else ''}: run {run_s:.3f} s, "
            f"verify {verify_s:.3f} s, flood {n} frames in {flood_s:.3f} s "
            f"({n / flood_s:.0f} frames/s)")
        return p

    return one_pass


def repeat(one_pass, seconds: float, tracer=None) -> list[dict]:
    """Run whole passes until ``seconds`` have passed.

    With a tracer there are at least 3 passes: untraced, traced, traced,
    then alternating, so traced passes can be compared with each other and
    with untraced ones.
    """
    results: list[dict] = []
    start = time.perf_counter()
    least = 1 if tracer is None else 3
    while len(results) < least or time.perf_counter() - start < seconds:
        i = len(results)
        traced = tracer is not None and (i == 1 or (i >= 2 and i % 2 == 0))
        if traced:
            tracer.reset(f"pass-{i + 1}")
        p = one_pass(i, traced)
        if traced:
            p["totals"] = tracer.totals()
        results.append(p)
    return results


# ---------------------------------------------------------------------------
# checks and metrics


def check(ctx: Ctx, passes: list[dict], scan: dict) -> tuple[bool, int, int]:
    """Print every output check; returns (outputs correct, attempted, failed).

    Flagged vehicles are known program defects: they count as failed
    operations but leave the outputs correct.  Lost or diverged frames, a
    verb error and bytes that differ between passes make them incorrect.
    """
    ok = all(p["verbs"]["ok"] for p in passes)
    last = passes[-1]
    attempted = failed = 0
    for seed in sorted(ctx.verb_seeds):
        n_rear, n_lat, ids = last["verbs"]["verdicts"][seed]
        attempted += scan[seed][1]
        failed += len(ids)
        shown = ", ".join(map(str, ids[:10])) + (" ..." if len(ids) > 10 else "")
        log(f"check verify {ctx.mode} seed {seed}: {n_rear} rear-end, {n_lat} lateral "
            f"-> {len(ids)} of {scan[seed][1]} vehicles flagged"
            + (f" ({shown})" if ids else ""))
    fl = last["floods"]
    frames = fl["frames"]
    what = ("commands off the in-process twin by > 1e-06 m/s" if ctx.fabric
            else "frames out of sequence (in-process encode and decode)")
    log(f"check fabric {ctx.mode} seeds {','.join(map(str, fl['seeds']))}: "
        f"{fl['published']} published, {fl['delivered']} delivered of {frames}, "
        f"{fl['bad']} {what}")
    attempted += frames
    failed += fl["lost"] + fl["bad"]
    ok &= all(p["floods"]["lost"] == 0 and p["floods"]["bad"] == 0 for p in passes)

    digests = {p["digest"] for p in passes}
    same = "identical" if len(digests) == 1 else "DIFFERS"
    log(f"digest {ctx.workload} sha256 {passes[0]['digest']} "
        f"({same} over {len(passes)} pass{'es' if len(passes) > 1 else ''})")
    if len(digests) != 1:
        log("error: output bytes differ between passes of the same inputs")
        ok = False
    return ok, attempted, failed


def verb_s(passes: list[dict], key: str, rows: dict[int, int]) -> float:
    """Verb time over its seeds at the median per-row cost of all calls.

    The verbs are CPU-bound and the machine's speed drifts both ways: CPU
    time tracks wall time, and the same ``verify`` call mostly takes within
    5 % of one value but now and then 40 % less for a few seconds, or more
    for a few.  The fastest call follows those spells; the median of the
    calls spread over a run does not.  Pooling the calls of all seeds per
    trace row gives the median more samples.
    """
    per_row = statistics.median(t / rows[s] for p in passes
                                for s, ts in p["verbs"][key].items() for t in ts)
    return per_row * sum(rows[s] for s in passes[0]["verbs"][key])


def end_to_end(passes: list[dict], setup_s: float, scan: dict) -> dict:
    rows = {seed: n for seed, (n, _) in scan.items()}
    run_s = verb_s(passes, "run", rows)
    steps = sum(rows[s] for s in passes[0]["verbs"]["run"])
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "run_us_per_vehicle_step": run_s * 1e6 / steps,
        "verify_s": verb_s(passes, "verify", rows),
        # traces of different seeds flood at different rates: pool them
        "fabric_frames_per_s": (sum(p["floods"]["delivered"] for p in passes)
                                / sum(p["floods"]["wall_s"] for p in passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ctx: Ctx, passes: list[dict], steps: int) -> tuple[dict, bool]:
    from layers import PER_LAYER, exact_counts, layer_values

    layers = []
    for p in passes:
        if p["traced"]:
            extra = dict(p["extra"], **{"sim.vehicle_steps": 0 if ctx.fabric else steps})
            layers.append(layer_values(p["totals"], extra))
    counts = [exact_counts(v) for v in layers]
    ok = all(c == counts[0] for c in counts)
    if not ok:
        diff = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        log(f"error: exact per-layer counts differ between traced passes: {diff}")
    values = {k: statistics.median(v[k] for v in layers) for k in PER_LAYER
              if k != "trace.overhead_pct"}
    values.update(counts[0])
    plain = statistics.median(p["primary_s"] for p in passes if not p["traced"])
    traced = statistics.median(p["primary_s"] for p in passes if p["traced"])
    values["trace.overhead_pct"] = (traced / plain - 1.0) * 100.0
    return values, ok


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> dict:
    import corridorsim.cli as cli
    from layers import PER_LAYER, Tracer

    population = [int(s) for s in args.seeds.split(",") if s.strip()]
    order = random.Random(args.seed).sample(population, len(population))
    ctx = prepare(args.workload, population, order)
    log(f"workload {args.workload}: Table-1 at {HORIZON_S:g} s, mode {ctx.mode}, "
        f"seeds {','.join(map(str, order))} (order from --seed {args.seed})")

    setup_s = None if args.trace else measure_setup(ctx.cfg_path, ctx.fabric)
    tracer = Tracer()
    twins = fabric_inputs(ctx, cli) if ctx.fabric else {}
    one_pass = make_pass(ctx, cli, Findings(cli), tracer, twins,
                         time_verbs=not args.trace)
    passes = repeat(one_pass, args.seconds, tracer if args.trace else None)
    scan = scan_traces(ctx)
    steps = sum(scan[seed][0] for seed in ctx.verb_seeds)
    ok, attempted, failed = check(ctx, passes, scan)

    if args.trace:
        values, counts_ok = per_layer(ctx, passes, steps)
        ok &= counts_ok
        units = PER_LAYER
        spans = ctx.work / "spans.jsonl"
        spans.write_text("".join(json.dumps(s) + "\n" for s in tracer.spans))
        log(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    else:
        values = end_to_end(passes, setup_s, scan)
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    for name, m in metrics.items():
        log(f"metric {name} = {m['value']:.6g} {m['unit']}")
    log(f"operations: {failed} failed of {attempted} attempted")
    return {"correct": bool(ok), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own interpreter, so set-up and peak RSS stay its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--seeds", args.seeds]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            log(f"[{workload}] {line}")
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {workload} exited with {done.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = m
        table.append((workload, result))
    log("")
    log(f"{'metric':<42}" + "".join(f"{w:>20}" for w, _ in table))
    for name, m in table[0][1]["metrics"].items():
        log(f"{name + ' [' + m['unit'] + ']':<42}"
            + "".join(f"{r['metrics'][name]['value']:>20.6g}" for _, r in table))
    log(f"{'failed / attempted':<42}"
        + "".join(f"{str(r['failed']) + ' / ' + str(r['attempted']):>20}" for _, r in table))
    log(f"{'outputs correct':<42}" + "".join(f"{str(r['correct']):>20}" for _, r in table))
    return merged


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1,
                    help="orders the seed population within each pass")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measure whole passes for at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seeds", default=DEFAULT_SEEDS,
                    help=f"simulation seed population (default {DEFAULT_SEEDS})")
    args = ap.parse_args(argv)

    if not (SRC / "corridorsim" / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"error: {ROOT} holds no corridorsim sources (src/corridorsim, "
              "configs/table1.yaml)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
