"""Streamed trace handling: the one-pass checks and metrics equal the
list-based references in ``oracles``, malformed trace files are rejected with
their line, and the memory ``run`` and ``verify`` hold does not grow with the
trace."""

import contextlib
import dataclasses
import gc
import io
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

import oracles
from corridorsim import cli, metrics, sim
from corridorsim.core import load_config_file, serialize_config

TABLE1 = "configs/table1.yaml"
BENCH = "configs/bench.yaml"


def _config_file(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(serialize_config(cfg))
    return str(path)


def _verify(monkeypatch, cfg_path, trace):
    """``cli.main(["verify", ...])`` with what its two checks returned, as the
    benchmark reads them: through the names in ``cli``, once each."""
    got = {}
    for name in ("rear_end_check", "occupancy_from_trace"):
        def spy(*args, _check=getattr(cli, name), _name=name, **kwargs):
            assert _name not in got
            got[_name] = _check(*args, **kwargs)
            return got[_name]
        monkeypatch.setattr(cli, name, spy)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", "--config", cfg_path, trace])
    assert rc == (0 if not any(got.values()) else 1)
    return got["rear_end_check"], got["occupancy_from_trace"]


def _assert_checks_equal_oracles(rows, cfg):
    assert metrics.rear_end_check(metrics.by_step(rows), cfg) == oracles.rear_end_check(rows, cfg)
    assert metrics.occupancy_from_trace(rows, cfg) == oracles.occupancy_from_trace(rows, cfg)
    want = oracles.compute_metrics(rows, cfg)
    assert metrics.compute_metrics(rows, cfg) == want
    acc = metrics.MetricsAccumulator(cfg)
    for row in rows:      # every split of the rows into chunks
        acc.add([row])
    assert acc.result() == want


def _runs():
    bench = load_config_file(BENCH)
    table1 = dataclasses.replace(load_config_file(TABLE1), horizon=60.0)
    for name, cfg, seeds in (("bench", bench, [bench.seed]), ("table1-60s", table1, [1, 3])):
        for seed in seeds:
            for mode in ("baseline", "optimal"):
                yield pytest.param(cfg, mode, seed, id=f"{name}-{mode}-{seed}")


@pytest.mark.parametrize("cfg,mode,seed", _runs())
def test_streamed_run_and_verify_equal_the_oracles(tmp_path, monkeypatch, cfg, mode, seed):
    run_cfg = dataclasses.replace(cfg, mode=mode, seed=seed)
    rows = sim.run(run_cfg).rows
    _assert_checks_equal_oracles(rows, run_cfg)

    # run: the trace streamed through TraceSink, metrics from its chunks
    got = cli._run_one(cfg, mode, seed, str(tmp_path))
    assert got == oracles.compute_metrics(rows, run_cfg)
    trace = tmp_path / f"trace_{mode}_{seed}.csv"
    assert trace.read_bytes() == oracles.trace_text(rows).encode()

    # verify: one pass over the file, checks through the cli names
    back = metrics.read_trace(str(trace))
    rear, lateral = _verify(monkeypatch, _config_file(tmp_path, run_cfg), str(trace))
    assert rear == oracles.rear_end_check(back, run_cfg)
    assert lateral == oracles.occupancy_from_trace(back, run_cfg)


def _handmade_rows():
    """Table-1 geometry, 4 s at 0.1 s, every vehicle at constant control.
    Vehicles 1 and 3 share an ``s`` on main at t = 0 and their first rows
    are already inside zone 1's merging zone; 5 (main) and 4 (srz_feeder)
    keep the same ``x`` in zone 2's shared merging zone; highway vehicle 2
    starts below the stop speed, crosses zone 1 while 1 and 3 are inside and
    leaves its route, so its terminal row opens a step that also holds
    control rows; 3, 6 (ring) and 7 (main) are still inside a merging zone at
    the end; 8 stops and starts again."""
    lengths = {"main": 1500.0, "highway": 365.0, "srz_feeder": 475.0, "ring": 365.0}
    vehicles = [   # id, route, s and speed at t = 0, control
        (1, "main", 360.0, 2.0, 0.5),
        (3, "main", 360.0, 2.0, -0.5),
        (2, "highway", 348.0, 0.05, 2.5),
        (5, "main", 710.0, 8.0, 0.0),
        (4, "srz_feeder", 360.0, 8.0, 0.0),
        (6, "ring", 347.0, 2.0, 0.0),
        (7, "main", 1197.0, 2.0, 0.0),
        (8, "main", 100.0, 0.5, -0.25),
    ]
    rows, active = [], vehicles
    for k in range(41):
        t = k / 10
        step, still = [], []
        for vid, route, s0, v0, u in active:
            s = round(s0 + v0 * t + 0.5 * u * t * t, 9)
            v = round(abs(v0 + u * t), 9)
            if s >= lengths[route]:
                rows.append((t, vid, route, s, v, u, 0))   # terminal row first
                continue
            step.append((t, vid, route, s, v, u, 1 if route != "main" else 0))
            still.append((vid, route, s0, v0, u))
        rows += step
        active = still
    return rows


def test_edge_cases_equal_the_oracles(tmp_path, monkeypatch):
    cfg = load_config_file(TABLE1)
    rows = _handmade_rows()
    assert [r[1] for r in rows if r[0] == 3.7][:2] == [2, 1]   # terminal row opens the step
    rear = oracles.rear_end_check(rows, cfg)
    lateral = oracles.occupancy_from_trace(rows, cfg)
    assert [(r[1], r[2]) for r in rear if r[0] == 0.0] == [(3, 1), (4, 5)]   # ties
    assert {frozenset((p.vehicle_a, p.vehicle_b)) for p in lateral} == {
        frozenset((1, 2)), frozenset((3, 2)), frozenset((6, 7))}
    m = oracles.compute_metrics(rows, cfg)
    assert (m.completed, m.mean_stops) == (1, 1.0)
    _assert_checks_equal_oracles(rows, cfg)

    trace = tmp_path / "trace.csv"
    metrics.write_trace(str(trace), rows)
    back = metrics.read_trace(str(trace))
    assert back == rows
    assert _verify(monkeypatch, TABLE1, str(trace)) == (rear, lateral)


def _text_rows():
    """Rows whose text is easy to get wrong: 0.0 next to -0.0 (equal, yet
    printed apart), equal times held in distinct float objects, NaN and
    infinite values."""
    zero, neg = 0.0, -0.0
    nan, inf = float("nan"), float("inf")
    t1, t2 = float("0.3"), float("0.3")
    assert t1 is not t2
    return [(zero, 1, "main", 1.0, 2.0, 0.5, 0), (neg, 2, "main", 3.0, 2.0, -0.0, 0),
            (zero, 3, "highway", 0.0, 0.0, 0.0, 1), (neg, 4, "ring", -0.0, 0.0, 0.25, 3),
            (t1, 1, "main", 1.2, 2.0, 0.5, 0), (t2, 2, "main", 3.2, 2.0, 0.0, 0),
            (t2, 3, "highway", 0.0, 0.0, 0.0, 1), (t1, 4, "ring", 0.0, 0.0, 0.25, 3),
            (nan, 1, "main", nan, inf, -inf, 0), (nan, 2, "main", 3.0, nan, 0.0, 0),
            (float("nan"), 3, "highway", 0.0, 0.0, nan, 1)]


def _stepped_rows(n):
    """n rows of 40 vehicles, one float object for the time of each step as
    ``sim.run`` makes it; every seventh step a vehicle leaves with a terminal
    row stamped with the next step's time, computed apart, as ``sim.run``
    does too."""
    rows, step = [], 0
    while len(rows) < n:
        t = step * 0.1
        rows += [(t, vid, "main", vid * 30.0 + step * 0.7, 7.0 + vid * 0.01, 0.1 - vid * 0.01,
                  vid % 4) for vid in range(1, 41)]
        if step % 7 == 6:
            rows.append(((step + 1) * 0.1, 1000 + step, "ring", 365.0, 5.0, 0.0, 0))
        step += 1
    return rows[:n]


def _canon(value):
    """A value ``==`` compares in full: dicts as sorted items, NaN as a string."""
    if isinstance(value, dict):
        return sorted((k, _canon(v)) for k, v in value.items())
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


# ---------------------------------------------------------------------------
# the writer process: ``run`` hands its rows to a forked writer where it may
# use two CPUs, and writes the same bytes and metrics as in one process


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the processes forked during the test. The host shows two
    CPUs, so ``run`` takes the writer-process path on any host."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    _cpus(monkeypatch, 2)
    return pids


def _reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a block that hangs, instead of hanging the suite."""
    def expired(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("cfg,mode,seed", _runs())
def test_writer_process_writes_what_one_process_writes(tmp_path, monkeypatch, forks,
                                                       cfg, mode, seed):
    got = {}
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus_{cpus}"
        out.mkdir()
        m = cli._run_one(cfg, mode, seed, str(out))
        got[cpus] = m, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(forks) == 1    # the two-CPU run only
    _reaped(forks[0])
    assert list(got[1][1]) == [f"{kind}_{mode}_{seed}.{ext}" for kind, ext in
                               (("events", "json"), ("schedule", "csv"), ("trace", "csv"))]
    assert got[2] == got[1]


@pytest.mark.parametrize("batch", [1, 8191, 8193])
def test_batched_trace_text_equals_the_reference(tmp_path, monkeypatch, forks, batch):
    cfg = load_config_file(TABLE1)
    rows = _text_rows() + _stepped_rows(3 * metrics._CHUNK_ROWS) + _text_rows()
    want = oracles.trace_text(rows)
    whole = tmp_path / "whole.csv"
    metrics.write_trace(str(whole), rows)
    assert whole.read_bytes() == want.encode()
    assert "\n-0.000,2,main," in want and "\nnan,1,main,nan,inf,-inf," in want
    want_metrics = _canon(dataclasses.asdict(oracles.compute_metrics(rows, cfg)))

    for cpus in (1, 2):     # the sink's two paths: in-process, then a writer process
        _cpus(monkeypatch, cpus)
        trace = tmp_path / f"trace_{cpus}.csv"
        chunks = []
        with open(trace, "w", newline="") as fh, \
                metrics.TraceSink(fh, metrics.MetricsAccumulator(cfg)) as sink:
            if cpus == 2:
                assert sink.pid == forks[0]
            send = sink._send

            def spy(chunk, send=send):
                chunks.append(len(chunk))
                send(chunk)

            sink._send = spy
            for i in range(0, len(rows), batch):
                sink.extend(rows[i:i + batch])
            got = sink.close()
        assert len(forks) == cpus - 1
        assert trace.read_bytes() == want.encode()
        assert sum(chunks) == len(rows) and len(chunks) > 1
        assert max(chunks) < metrics._CHUNK_ROWS + batch
        assert _canon(dataclasses.asdict(got)) == want_metrics
    _reaped(forks[0])


class _Boom(Exception):
    pass


def _stale_outputs(out):
    """Files an earlier run left in ``out``: all of tag optimal_1, which the
    next run of that tag replaces, and the trace of another tag."""
    for name in ("trace_optimal_1.csv", "schedule_optimal_1.csv", "events_optimal_1.json",
                 "trace_optimal_2.csv"):
        (out / name).write_text("stale\n")


def _left(out):
    return sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize("kind", [_Boom, KeyboardInterrupt])
def test_run_error_propagates_and_reaps_the_writer(tmp_path, monkeypatch, forks, kind):
    raised = kind("mid-run")

    def run(cfg, sink):
        # the stale files of the tag are gone before the run starts
        assert _left(tmp_path) == ["trace_optimal_1.csv.part", "trace_optimal_2.csv"]
        sink.extend(_stepped_rows(metrics._CHUNK_ROWS + 1))   # one chunk sent, one row held
        raise raised

    monkeypatch.setattr(sim, "run", run)
    _stale_outputs(tmp_path)
    with _deadline(60), pytest.raises(kind) as exc:
        cli._run_one(load_config_file(BENCH), "optimal", 1, str(tmp_path))
    assert exc.value is raised
    assert len(forks) == 1
    _reaped(forks[0])
    assert _left(tmp_path) == ["trace_optimal_2.csv"]   # no file of the failed tag


@pytest.mark.parametrize("when", ["first-chunk", "reply"])
def test_killed_writer_fails_the_run(tmp_path, monkeypatch, forks, when):
    run_sim = sim.run

    def run(cfg, sink):
        # killed before the first chunk is sent, or once every row is sent
        # and before the end of the rows asks for the reply
        if when == "first-chunk":
            os.kill(sink.pid, signal.SIGKILL)
        result = run_sim(cfg, sink)
        if when == "reply":
            os.kill(sink.pid, signal.SIGKILL)
        return result

    monkeypatch.setattr(sim, "run", run)
    _stale_outputs(tmp_path)
    with _deadline(60), pytest.raises(RuntimeError,
                                      match="trace writer process was killed by signal 9"):
        cli._run_one(load_config_file(BENCH), "optimal", 1, str(tmp_path))
    assert len(forks) == 1
    _reaped(forks[0])
    assert _left(tmp_path) == ["trace_optimal_2.csv"]   # no file of the failed tag


def test_bad_out_raises_before_the_fork(tmp_path, forks):
    with pytest.raises(FileNotFoundError):
        cli._run_one(load_config_file(BENCH), "optimal", 1, str(tmp_path / "missing"))
    assert forks == []


def test_sigterm_leaves_no_file_of_the_tag_and_no_process(tmp_path):
    # SIGTERM, the signal of kill and timeout, ends a run as Ctrl-C does; a
    # 3600 s horizon keeps the first run going past the signal
    text = pathlib.Path(TABLE1).read_text()
    cfg = tmp_path / "table1_3600s.yaml"
    cfg.write_text(re.sub(r"(?m)^horizon: .*$", "horizon: 3600 s", text))
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "corridorsim.cli", "run", "--config", str(cfg),
         "--mode", "both", "--seeds", "1", "--out", str(out)],
        stderr=subprocess.PIPE, text=True)
    children = pathlib.Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    writers = []
    try:
        deadline = time.monotonic() + 60.0
        # running: the trace is open and, on two CPUs, its writer forked
        while not (out / "trace_baseline_1.csv.part").exists() or (
                metrics._writer_process_helps() and children.exists() and not writers):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "run never started its trace"
            time.sleep(0.02)
            if children.exists():
                writers = [int(pid) for pid in children.read_text().split()]
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 128 + signal.SIGTERM, err
    assert err == ""
    assert _left(out) == []
    for pid in writers:     # reaped, not left running or a zombie
        assert not pathlib.Path(f"/proc/{pid}").exists(), pid


def test_run_from_a_thread_keeps_the_sigterm_handler(tmp_path):
    # tests and benchmarks call main in-process, from any thread: run sets
    # its handler only in the main thread and puts the old one back
    before = signal.getsignal(signal.SIGTERM)
    rc = []

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            rc.append(cli.main(["run", "--config", BENCH, "--mode", "baseline", "--seeds", "1",
                                "--out", str(tmp_path / "thread")]))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and rc == [0]
    run()
    assert rc == [0, 0]
    assert signal.getsignal(signal.SIGTERM) is before


ROWS = "".join(f"{k / 10:.3f},{vid},main,{100.0 * vid + k:.9f},10.000000000,0.000000000,0\n"
               for k in range(3) for vid in (2, 1))
GOOD = "t,id,route,s,v,u,zone\n" + ROWS


@pytest.mark.parametrize("text,line,what", [
    ("time,vehicle\n0,1\n", None, "not a trace file (bad header)"),
    (GOOD + "0.300,1,main,1.0,1.0,0.0\n", 8, "expected 7 fields, got 6"),
    (GOOD + "0.300,1,main,1.0,1.0,0.0,0,9\n" + ROWS, 8, "expected 7 fields, got 8"),
    (GOOD + "\n" + ROWS, 8, "expected 7 fields, got 1"),
    (GOOD + "0.300,1,main,1.0,fast,0.0,0\n", 8, "field v is not a number: 'fast'"),
    (GOOD + "0.300,1.5,main,1.0,1.0,0.0,0\n", 8, "field id is not an integer: '1.5'"),
    (GOOD + "0.300,1,main,1.0,1.0,0.0,0\n0.100,2,main,1.0,1.0,0.0,0\n", 9,
     "time goes back from 0.300 to 0.100"),
    (GOOD.encode() + b"0.300,1,ma\xffin,1.0,1.0,0.0,0\n", 8, "not UTF-8 text"),
], ids=["header", "six-fields", "eight-fields", "blank-line", "not-a-number",
        "not-an-integer", "time-back", "not-utf8"])
def test_malformed_trace_rejected_with_its_line(tmp_path, capsys, text, line, what):
    trace = tmp_path / "bad.csv"
    trace.write_bytes(text if isinstance(text, bytes) else text.encode())
    where = f"{trace}:{line}: " if line else f"{trace}: "
    with pytest.raises(ValueError) as err:
        metrics.read_trace(str(trace))
    assert str(err.value) == where + what
    with pytest.raises(ValueError) as err_steps:
        for _ in metrics.read_steps(str(trace)):
            pass
    assert str(err_steps.value) == str(err.value)

    assert cli.main(["verify", "--config", BENCH, str(trace)]) == 2
    out, errout = capsys.readouterr()
    assert out == ""
    assert errout == f"error: {err.value}\n"


def test_well_formed_trace_reads_in_steps(tmp_path):
    trace = tmp_path / "good.csv"
    trace.write_text(GOOD)
    got = list(metrics.read_steps(str(trace)))
    assert [t for t, _ in got] == [0.0, 0.1, 0.2]
    assert [[r[1] for r in rows] for _, rows in got] == [[2, 1]] * 3
    assert metrics.read_trace(str(trace)) == [r for _, rows in got for r in rows]


def _peak_mb(argv):
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) in (0, 1)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_run_and_verify_peak_memory_does_not_grow_with_the_horizon(tmp_path):
    base = dataclasses.replace(load_config_file(TABLE1), mode="optimal", seed=1)
    argv = {}
    for horizon in (60, 180):
        cfg_path = _config_file(tmp_path, dataclasses.replace(base, horizon=float(horizon)),
                                f"table1_{horizon}s.yaml")
        out = str(tmp_path / f"out_{horizon}")
        argv[horizon] = (["run", "--config", cfg_path, "--mode", "optimal", "--seeds", "1",
                          "--out", out],
                         ["verify", "--config", cfg_path, f"{out}/trace_optimal_1.csv"])
    # first calls in a process allocate caches that later ones reuse
    with contextlib.redirect_stdout(io.StringIO()):
        for call in argv[60]:
            cli.main(call)
    run = {h: _peak_mb(argv[h][0]) for h in (60, 180)}
    verify = {h: _peak_mb(argv[h][1]) for h in (60, 180)}
    assert abs(run[180] - run[60]) < 1.0, run
    assert abs(verify[180] - verify[60]) < 1.0, verify


def test_bench_streams_the_trace(tmp_path):
    cfg = dataclasses.replace(load_config_file(TABLE1), mode="optimal", seed=1,
                              horizon=120.0)
    cfg_path = _config_file(tmp_path, cfg)
    out = str(tmp_path / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", "--config", cfg_path, "--mode", "optimal", "--seeds", "1",
                  "--out", out])
    peak = _peak_mb(["bench", "--config", cfg_path,
                     "--trace", f"{out}/trace_optimal_1.csv",
                     "--schedule", f"{out}/schedule_optimal_1.csv"])
    # holding the trace's rows and frames, bench peaked at 16.8 MB here
    assert peak <= 8.4, peak
