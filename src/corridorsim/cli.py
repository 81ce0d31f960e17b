"""Command-line front end.

Subcommands:

* ``run``      simulate one or both control modes over a seed list and write
               trace/schedule/events files plus a comparison report.
* ``verify``   re-run the safety checks against a recorded trace.
* ``bench``    replay a trace through the broker into a head unit and compare
               its command stream with an in-process twin.
* ``broker``   stand-alone message broker.
* ``replay``   publish a recorded trace as safety-message frames.
* ``headunit`` subscribe to a broker and stream speed commands.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import math
import os
import signal
import sys
import threading
import time

from corridorsim.core import ConfigError, CorridorConfig, load_config_file
from corridorsim import sim
from corridorsim.metrics import (
    Crossings,
    Metrics,
    MetricsAccumulator,
    TraceSink,
    iter_trace,
    occupancy_from_trace,
    read_schedule,
    read_steps,
    render_report,
    rear_end_check,
    write_events,
    write_schedule,
)
# unused since run, verify and bench stream; benchmarks/layers.py patches these names
from corridorsim.metrics import compute_metrics, read_trace, write_trace  # noqa: F401

log = logging.getLogger("corridorsim")


def _parse_seeds(text: str | None, default: int) -> list[int]:
    """'3' -> [3]; '1,4,9' -> [1,4,9]; '1..10' -> [1..10]; None -> [default].
    A list that names no seed (``5..1``, ``,``) or holds anything but a
    non-negative integer is bad input, which exits 2 with the error on
    stderr."""
    if not text:
        return [default]
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        seeds = []
    if not seeds or min(seeds) < 0:
        print(f"error: --seeds {text!r} is not a seed, a comma list or a range "
              "lo..hi with 0 <= lo <= hi", file=sys.stderr)
        raise SystemExit(2)
    return seeds


def _load(path: str) -> CorridorConfig:
    """The config at ``path``; one that cannot be read or is invalid is bad
    input, which exits 2 with the error on stderr."""
    try:
        return load_config_file(path)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _port(text: str) -> int:
    """A TCP port, 0 to 65535: the argparse type of ``--port``."""
    try:
        number = int(text)
    except ValueError:
        number = -1
    if not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in [0, 65535], got {text!r}")
    return number


def _address(text: str) -> tuple[str, int]:
    """``host:port``, the host 127.0.0.1 where left out: the argparse type
    of ``--address``."""
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", _port(port))


def _ranged(what: str, holds):
    """An argparse type: the float ``text`` names, where it is finite and
    ``holds`` for it."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and holds(value)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_share = _ranged("a finite share in [0, 1]", lambda x: 0.0 <= x <= 1.0)
# a socket timeout past about 9.2e9 s overflows
_idle_timeout = _ranged("> 0 and at most 1e9 s", lambda x: 0.0 < x <= 1e9)
# a paced publisher waits about 1/rate per frame, which past 1e9 s overflows
# like the timeout
_rate = _ranged("0, or finite and >= 1e-9 frames/s", lambda x: x == 0.0 or x >= 1e-9)


# ---------------------------------------------------------------------------
# run


def _run_one(cfg: CorridorConfig, mode: str, seed: int, out: str) -> Metrics:
    """One simulation's trace, schedule and events in ``out``. The trace is
    written as ``trace_<tag>.csv.part`` and renamed last, so a run that
    fails or is interrupted leaves no file of its tag."""
    run_cfg = dataclasses.replace(cfg, mode=mode, seed=seed)
    tag = f"{mode}_{seed}"
    trace, schedule, events = (os.path.join(out, name) for name in (
        f"trace_{tag}.csv", f"schedule_{tag}.csv", f"events_{tag}.json"))
    partial = trace + ".part"

    def remove_tag() -> None:
        for path in (trace, partial, schedule, events):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    remove_tag()
    try:
        # the trace opens before the writer forks, so a bad --out raises here
        with open(partial, "w", newline="") as fh, \
                TraceSink(fh, MetricsAccumulator(run_cfg)) as sink:
            result = sim.run(run_cfg, sink)
            run_metrics = sink.close()
        write_schedule(schedule, result.schedule)
        write_events(events, result.events)
        os.replace(partial, trace)
    except BaseException:
        remove_tag()
        raise
    return run_metrics


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def _sigterm_raises():
    """Within the block, SIGTERM (the signal of ``kill`` and ``timeout``)
    raises ``SystemExit(143)``, so ``_run_one`` removes its files and
    ``TraceSink`` reaps its writer as they do on Ctrl-C; the previous
    handler comes back after. Only the main thread may set a handler, so
    in any other the block changes nothing."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args.config)
    seeds = _parse_seeds(args.seeds, cfg.seed)
    modes = ["baseline", "optimal"] if args.mode == "both" else [args.mode]
    os.makedirs(args.out, exist_ok=True)
    by_mode: dict[str, list[Metrics]] = {}
    with _sigterm_raises():
        for mode in modes:
            for seed in seeds:
                log.info("running mode=%s seed=%d", mode, seed)
                by_mode.setdefault(mode, []).append(_run_one(cfg, mode, seed, args.out))
    report = render_report(cfg, by_mode)
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(report)
    print(report, end="")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load(args.config)
    crossings = Crossings(cfg)
    try:
        # the one read of the file, a time step at a time
        rear = rear_end_check(crossings.through(read_steps(args.trace)), cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lateral = occupancy_from_trace(crossings, cfg)
    print(f"rear-end violations:  {len(rear)}")
    for t, follower, leader, gap, need in rear[:20]:
        print(f"  t={t:.1f}s vehicle {follower} behind {leader}: "
              f"gap {gap:.3f} m < required {need:.3f} m")
    print(f"lateral overlaps:     {len(lateral)}")
    for pair in lateral[:20]:
        print(f"  zone {pair.zone}: vehicles {pair.vehicle_a}/{pair.vehicle_b} "
              f"overlap [{pair.overlap_start:.2f}, {pair.overlap_end:.2f}] s")
    clean = not rear and not lateral
    print("clean" if clean else "VIOLATIONS FOUND")
    return 0 if clean else 1


# ---------------------------------------------------------------------------
# bench


BENCH_TOLERANCE = 1e-6   # m/s a socket command may differ from the twin's


class _BadInput(Exception):
    """A trace row or frame that ``bench`` cannot read or encode."""


def cmd_bench(args: argparse.Namespace) -> int:
    from collections import deque

    from corridorsim.v2x.broker import Broker
    from corridorsim.v2x.bsm import decode_bsm, encode_bsm
    from corridorsim.v2x.headunit import HeadUnitCore, command_stream, run_over_socket
    from corridorsim.v2x.replay import publish_frames, wire_fields

    cfg = _load(args.config)
    try:
        schedule = read_schedule(args.schedule) if args.schedule else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def fields():
        """The trace's frame fields in wire units, made as its rows are read."""
        return wire_fields(iter_trace(args.trace), cfg, schedule)

    def twin_frames():
        """The frames as the socket path decodes them.  A row that cannot be
        read or a frame that cannot be encoded is bad input; an error the
        head unit raises while planning is not caught here."""
        try:
            for frame in fields():
                yield decode_bsm(encode_bsm(frame))
        except (OSError, ValueError) as exc:
            raise _BadInput(exc) from exc

    # the twin runs first: its pass reads the whole trace, so a bad row is
    # reported before any socket opens
    twin_core = HeadUnitCore(cfg)
    try:
        twin_cmds = list(command_stream(twin_frames(), twin_core))
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not twin_cmds:    # a stream of no frames holds no tick
        print("error: trace produced no frames", file=sys.stderr)
        return 2

    broker = Broker(drop_prob=args.drop_prob).start()
    core = HeadUnitCore(cfg)
    stream = run_over_socket(broker.address, core, idle_timeout=args.idle_timeout)
    socket_cmds: list[tuple[float, float]] = []
    received_at: deque[float] = deque(maxlen=2)

    def consume() -> None:
        for cmd in stream:
            socket_cmds.append(cmd)
            received_at.append(time.monotonic())

    consumer = threading.Thread(target=consume)
    consumer.start()
    t_start = time.monotonic()
    published = publish_frames(fields(), broker.address, rate=args.rate)
    consumer.join()
    # the stream's closing tick fires only after idle_timeout of quiet, so
    # the clock stops at the command before it
    wall = max(received_at[0] - t_start, 0.0) if len(received_at) == 2 else 0.0
    broker.stop()
    counts = broker.counters()

    n = min(len(socket_cmds), len(twin_cmds))
    worst = max((abs(a[1] - b[1]) for a, b in zip(socket_cmds, twin_cmds)),
                default=0.0)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("t,command\n")
            for t, v in socket_cmds:
                fh.write(f"{t:.3f},{v:.9f}\n")
    print(f"frames published:    {published} in {wall:.1f} s wall")
    print(f"broker:              {counts['published']} published, "
          f"{counts['delivered']} delivered, {counts['dropped']} dropped")
    print(f"commands (socket):   {len(socket_cmds)}")
    print(f"commands (twin):     {len(twin_cmds)}")
    print(f"worst |dv|:          {worst:.3e} m/s over {n} shared ticks")
    print(f"decode errors:       {core.decode_errors}")
    print(f"stale ticks:         {core.stale_ticks}")
    print(f"replans:             {core.replans} ({core.clamped_plans} clamped)")
    if worst > BENCH_TOLERANCE or len(socket_cmds) > len(twin_cmds):
        print("DIVERGED")
        return 1
    if len(socket_cmds) < len(twin_cmds):
        # agrees wherever it has a tick, so the socket feed stopped early
        print(f"LOST FEED: socket stream ended after {n} of {len(twin_cmds)} ticks")
        return 3
    print("equivalent")
    return 0


# ---------------------------------------------------------------------------
# long-running network verbs


def cmd_broker(args: argparse.Namespace) -> int:
    from corridorsim.v2x.broker import Broker

    broker = Broker(host=args.host, port=args.port, drop_prob=args.drop_prob).start()
    host, port = broker.address
    print(f"broker listening on {host}:{port}", flush=True)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        broker.stop()
    counts = broker.counters()
    print(f"broker: {counts['published']} published, {counts['delivered']} "
          f"delivered, {counts['dropped']} dropped", flush=True)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from corridorsim.v2x.replay import replay_publish

    cfg = _load(args.config)
    try:
        sent = replay_publish(args.trace, args.address, cfg,
                              rate=args.rate, schedule_path=args.schedule)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"published {sent} frames")
    return 0


def cmd_headunit(args: argparse.Namespace) -> int:
    from corridorsim.v2x.headunit import HeadUnitCore, run_over_socket

    cfg = _load(args.config)
    core = HeadUnitCore(cfg)
    try:
        stream = run_over_socket(args.address, core, idle_timeout=args.idle_timeout)
    except OSError as exc:    # the broker cannot be reached
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sink = sys.stdout if args.out in (None, "-") else open(args.out, "w")
    except OSError as exc:
        stream.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sink.write("t,command\n")
        for t, v in stream:
            sink.write(f"{t:.3f},{v:.9f}\n")
            sink.flush()
    except KeyboardInterrupt:
        pass
    finally:
        if sink is not sys.stdout:
            sink.close()
    print(f"decode errors: {core.decode_errors}, stale ticks: {core.stale_ticks}, "
          f"replans: {core.replans} ({core.clamped_plans} clamped), "
          f"SPaT frames: {core.spat_frames}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as the verbs report bad input: one
    ``error:`` line on stderr, exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="corridorsim", description="corridor coordination simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate and write traces plus a report")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=["baseline", "optimal", "both"],
                   default="both")
    p.add_argument("--seeds", help="e.g. 7 or 1,2,3 or 1..10 (default: config seed)")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="safety checks on a recorded trace")
    p.add_argument("--config", required=True)
    p.add_argument("trace")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="socket replay vs in-process twin")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--schedule")
    p.add_argument("--rate", type=_rate, default=0.0,
                   help="publish pacing in frames/s; 0 floods (default)")
    p.add_argument("--idle-timeout", type=_idle_timeout, default=2.0)
    p.add_argument("--drop-prob", type=_share, default=0.0)
    p.add_argument("--out", help="write the socket command stream as CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("broker", help="run a stand-alone broker")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=7700)
    p.add_argument("--drop-prob", type=_share, default=0.0)
    p.set_defaults(func=cmd_broker)

    p = sub.add_parser("replay", help="publish a trace as message frames")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--schedule")
    p.add_argument("--address", type=_address, default="127.0.0.1:7700")
    p.add_argument("--rate", type=_rate, default=100.0)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("headunit", help="stream speed commands from a broker")
    p.add_argument("--config", required=True)
    p.add_argument("--address", type=_address, default="127.0.0.1:7700")
    p.add_argument("--idle-timeout", type=_idle_timeout, default=2.0)
    p.add_argument("--out", help="command CSV path, - for stdout")
    p.set_defaults(func=cmd_headunit)

    return ap


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("CORRIDORSIM_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
