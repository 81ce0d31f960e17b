import os
import re
import subprocess
import sys

import pytest

from corridorsim import sim
from corridorsim.cli import _address, _parse_seeds, main

BENCH = "configs/bench.yaml"


def test_seed_list_parsing():
    assert _parse_seeds(None, 7) == [7]
    assert _parse_seeds("3", 7) == [3]
    assert _parse_seeds("1,4,9", 7) == [1, 4, 9]
    assert _parse_seeds("1..5", 7) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("seeds", ["5..1", ",", "x", "1,x", "1..x", "..", " , ", "-1", "-2..1"])
def test_bad_seed_list_exits_2(tmp_path, capsys, seeds):
    # a list that names no seed, or a negative one, is bad input, as an
    # unreadable config is
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", BENCH, f"--seeds={seeds}", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: --seeds ")
    assert not out.exists()


def test_address_parsing():
    assert _address("127.0.0.1:7700") == ("127.0.0.1", 7700)
    assert _address(":9000") == ("127.0.0.1", 9000)


def test_run_writes_outputs_and_report(tmp_path):
    out = str(tmp_path)
    rc = main(["run", "--config", BENCH, "--mode", "optimal",
               "--seeds", "2", "--out", out])
    assert rc == 0
    for name in ("trace_optimal_2.csv", "schedule_optimal_2.csv",
                 "events_optimal_2.json", "report.txt"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "report.txt")) as fh:
        report = fh.read()
    assert "corridor comparison over seeds" in report
    assert "zone 3 (roundabout)" in report


def test_run_both_modes_reports_improvement(tmp_path, capsys):
    out = str(tmp_path)
    rc = main(["run", "--config", BENCH, "--mode", "both",
               "--seeds", "4", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "improvement" in text
    assert os.path.exists(os.path.join(out, "trace_baseline_4.csv"))
    assert os.path.exists(os.path.join(out, "trace_optimal_4.csv"))


def test_verify_accepts_clean_trace(tmp_path, capsys):
    out = str(tmp_path)
    main(["run", "--config", BENCH, "--mode", "optimal",
          "--seeds", "2", "--out", out])
    capsys.readouterr()
    rc = main(["verify", "--config", BENCH,
               os.path.join(out, "trace_optimal_2.csv")])
    assert rc == 0
    assert "clean" in capsys.readouterr().out


def test_verify_flags_tailgating(tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_text(
        "t,id,route,s,v,u,zone\n"
        "0.000,2,main,100.000000000,10.000000000,0.000000000,0\n"
        "0.000,1,main,95.000000000,10.000000000,0.000000000,0\n")
    rc = main(["verify", "--config", BENCH, str(trace)])
    assert rc == 1
    assert "VIOLATIONS" in capsys.readouterr().out


def test_verify_rejects_missing_and_malformed(tmp_path, capsys):
    rc = main(["verify", "--config", BENCH, str(tmp_path / "nope.csv")])
    assert rc == 2
    bad = tmp_path / "bad_header.csv"
    bad.write_text("time,vehicle\n0,1\n")
    rc = main(["verify", "--config", BENCH, str(bad)])
    assert rc == 2
    capsys.readouterr()


# config -> (text of the bench config, its replacement, start of the error)
_BAD_EDITS = {
    "misspelt": ("headway: 1.2 s\n", "headwy: 9 s\n", "headwy: unknown key, expected one of ["),
    "huge-horizon": ("horizon: 60 s", "horizon: 1e400 s",
                     "horizon: quantity '1e400 s' is not finite"),
    "tiny-dt": ("dt: 0.1 s", "dt: 1e-320 s", "dt: too small: horizon / dt is not finite"),
    "word-exponent": ("speed_exponent: 4.0", "speed_exponent: fast",
                      "baseline.speed_exponent: expected a finite number, got 'fast'"),
    "bool-exponent": ("speed_exponent: 4.0", "speed_exponent: true",
                      "baseline.speed_exponent: expected a finite number, got True"),
    "inf-exponent": ("speed_exponent: 4.0", "speed_exponent: .inf",
                     "baseline.speed_exponent: expected a finite number, got inf"),
    "word-priority": ("priority: false}", "priority: nope}",
                      "zones[0].approaches[0].priority: expected true or false, got 'nope'"),
}


@pytest.mark.parametrize("verb", ["run", "verify", "bench"])
@pytest.mark.parametrize("config", ["missing", "invalid", *_BAD_EDITS])
def test_unreadable_config_exits_2(tmp_path, capsys, monkeypatch, verb, config):
    # 1 means violations found (verify) or DIVERGED (bench); bad input is 2,
    # reported in one line before any simulation starts
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(sim, "run", no_run)
    path = tmp_path / "config.yaml"
    if config == "invalid":
        path.write_text("horizon: soon\n")
    elif config in _BAD_EDITS:
        old, new, _ = _BAD_EDITS[config]
        with open(BENCH) as fh:
            text = fh.read()
        assert old in text
        path.write_text(text.replace(old, new, 1))
    trace = tmp_path / "trace.csv"
    trace.write_text("t,id,route,s,v,u,zone\n")
    argv = {"run": ["run", "--config", str(path), "--out", str(tmp_path / "out")],
            "verify": ["verify", "--config", str(path), str(trace)],
            "bench": ["bench", "--config", str(path), "--trace", str(trace)]}[verb]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + (_BAD_EDITS[config][2] if config in _BAD_EDITS else ""))
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.fixture()
def short_trace(tmp_path):
    """Trace and schedule of the bench geometry cut to 12 s of data time."""
    import dataclasses
    from corridorsim.core import load_config_file
    from corridorsim import sim
    from corridorsim.metrics import write_schedule, write_trace

    cfg = dataclasses.replace(load_config_file(BENCH), horizon=12.0, seed=6)
    res = sim.run(cfg)
    trace = str(tmp_path / "trace.csv")
    sched = str(tmp_path / "sched.csv")
    write_trace(trace, res.rows)
    write_schedule(sched, res.schedule)
    return trace, sched


def test_bench_round_trip(tmp_path, capsys, short_trace):
    trace, sched = short_trace
    # 12 s data time but config says 60 s: bench must still pass, the clock
    # is driven by the frames themselves
    out = str(tmp_path / "commands.csv")
    rc = main(["bench", "--config", BENCH, "--trace", trace,
               "--schedule", sched, "--idle-timeout", "1.0", "--out", out])
    text = capsys.readouterr().out
    assert rc == 0, text
    assert "equivalent" in text
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,command"
    assert len(lines) > 100


def test_bench_wall_time_excludes_idle_tail(capsys, short_trace):
    trace, sched = short_trace
    rc = main(["bench", "--config", BENCH, "--trace", trace,
               "--schedule", sched, "--idle-timeout", "5"])
    text = capsys.readouterr().out
    assert rc == 0, text
    wall = float(re.search(r"in ([0-9.]+) s wall", text).group(1))
    assert wall < 5.0, text


def test_bench_total_loss_is_a_lost_feed(short_trace):
    # every delivery dropped: the socket stream is empty, which agrees with
    # the twin on every shared tick, so the verdict is a lost feed, not a
    # divergence; a subprocess keeps a hang from holding the suite
    trace, sched = short_trace
    proc = subprocess.run(
        [sys.executable, "-m", "corridorsim.cli", "bench", "--config", BENCH,
         "--trace", trace, "--schedule", sched, "--drop-prob", "1.0",
         "--idle-timeout", "0.5"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "commands (socket):   0" in proc.stdout
    assert "LOST FEED" in proc.stdout and "DIVERGED" not in proc.stdout


def test_bench_reports_bad_input_but_not_planner_errors(tmp_path, capsys,
                                                       short_trace, monkeypatch):
    from corridorsim.v2x.headunit import HeadUnitCore

    trace, sched = short_trace
    assert main(["bench", "--config", BENCH, "--trace", str(tmp_path / "nope.csv")]) == 2
    fast = tmp_path / "fast.csv"    # 7000 m/s does not fit the frame's u16 speed
    fast.write_text("t,id,route,s,v,u,zone\n"
                    "0.000,1,main,0.000000000,7000.000000000,0.000000000,0\n")
    assert main(["bench", "--config", BENCH, "--trace", str(fast)]) == 2
    assert "speed out of u16 range" in capsys.readouterr().err

    def broken_tick(self, t):
        raise ValueError("planner bug")

    monkeypatch.setattr(HeadUnitCore, "tick", broken_tick)
    with pytest.raises(ValueError, match="planner bug"):
        main(["bench", "--config", BENCH, "--trace", trace, "--schedule", sched])


@pytest.mark.parametrize("row, tm, message", [
    ("0.000,1,main,0.000000000,inf,0.000000000,0", None,
     "trace row at t=0.000 s: vehicle 1 has position 0.0 m and speed inf m/s"),
    ("inf,1,main,0.000000000,10.000000000,0.000000000,0", None,
     "trace row at t=inf s: vehicle 1 has position 0.0 m and speed 10.0 m/s"),
    ("0.000,1,main,-inf,10.000000000,0.000000000,0", None,
     "trace row at t=0.000 s: vehicle 1 has position -inf m and speed 10.0 m/s"),
    ("0.000,1,main,0.000000000,10.000000000,0.000000000,0", "inf",
     "schedule: vehicle 1 in zone 1 has merging time inf s"),
])
def test_a_value_that_is_not_finite_is_bad_input(tmp_path, capsys, row, tm, message):
    # no frame carries an infinite time, position, speed or merging time:
    # bench and replay exit 2 naming the value, as for a speed that
    # overflows the frame
    from corridorsim.v2x.broker import Broker

    trace = tmp_path / "trace.csv"
    trace.write_text("t,id,route,s,v,u,zone\n" + row + "\n")
    sidecar = []
    if tm is not None:
        schedule = tmp_path / "schedule.csv"
        schedule.write_text("vehicle,zone,t0,tm,tf,v_at_tm,relation,lane,truncated\n"
                            f"1,1,0.0,{tm},30.0,10.0,none,main,0\n")
        sidecar = ["--schedule", str(schedule)]
    assert main(["bench", "--config", BENCH, "--trace", str(trace)] + sidecar) == 2
    with Broker(port=0) as broker:
        host, port = broker.address
        assert main(["replay", "--config", BENCH, "--trace", str(trace),
                     "--address", f"{host}:{port}", "--rate", "0"] + sidecar) == 2
        assert broker.counters()["published"] == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {message}; a frame needs "
                   + ("a finite one" if tm else "finite values")] * 2


@pytest.mark.parametrize("row, tm", [
    ("1e306,1,main,0.000000000,10.000000000,0.000000000,0", None),
    ("0.000,1,main,0.000000000,1e307,0.000000000,0", None),
    ("0.000,1,main,-1e308,10.000000000,0.000000000,1", None),
    ("0.000,1,main,300.000000000,10.000000000,0.000000000,1", "1e306"),
], ids=["time", "speed", "position", "merging-time"])
def test_a_value_too_large_for_a_frame_is_bad_input(tmp_path, capsys, row, tm):
    # a finite time, speed, position or merging time whose wire units
    # overflow a float: bench and replay exit 2 naming the row
    from corridorsim.v2x.broker import Broker

    trace = tmp_path / "trace.csv"
    trace.write_text("t,id,route,s,v,u,zone\n" + row + "\n")
    sidecar = []
    if tm is not None:
        schedule = tmp_path / "schedule.csv"
        schedule.write_text("vehicle,zone,t0,tm,tf,v_at_tm,relation,lane,truncated\n"
                            f"1,1,0.0,{tm},30.0,10.0,none,main,0\n")
        sidecar = ["--schedule", str(schedule)]
    assert main(["bench", "--config", BENCH, "--trace", str(trace)] + sidecar) == 2
    with Broker(port=0) as broker:
        host, port = broker.address
        assert main(["replay", "--config", BENCH, "--trace", str(trace),
                     "--address", f"{host}:{port}", "--rate", "0"] + sidecar) == 2
        assert broker.counters()["published"] == 0
    t = float(row.split(",", 1)[0])
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: trace row at t={t:.3f} s: vehicle 1 has a time, position, "
                   "speed or merging time too large for a frame"] * 2


def test_headunit_verb_prints_its_counters(tmp_path, capsys):
    import dataclasses
    import threading
    import time

    from corridorsim import sim
    from corridorsim.core import load_config_file
    from corridorsim.v2x.broker import Broker, BrokerClient
    from corridorsim.v2x.bsm import BSM_TOPICS, MSG_SPAT, decode_bsm, encode_bsm
    from corridorsim.v2x.headunit import HeadUnitCore, command_stream
    from corridorsim.v2x.replay import frames_from_trace

    cfg = load_config_file(BENCH)
    res = sim.run(dataclasses.replace(cfg, horizon=30.0, seed=6))   # the ego reaches zone 1
    frames = list(frames_from_trace(res.rows, cfg, res.schedule))
    frames += [frames[-1]._replace(msg_id=MSG_SPAT)] * 2   # phase markers, at the last time
    twin = HeadUnitCore(cfg)
    list(command_stream((decode_bsm(encode_bsm(f)) for f in frames), twin))
    assert twin.replans > 0

    rc = []
    with Broker(port=0) as broker:
        host, port = broker.address
        verb = threading.Thread(target=lambda: rc.append(main(
            ["headunit", "--config", BENCH, "--address", f"{host}:{port}",
             "--idle-timeout", "1.0", "--out", str(tmp_path / "commands.csv")])))
        verb.start()
        deadline = time.monotonic() + 30.0
        while broker.counters()["published"] == 0:   # the verb's sync: it has subscribed
            assert time.monotonic() < deadline, "headunit verb never subscribed"
            time.sleep(0.01)
        messages = [(BSM_TOPICS[f.cz], encode_bsm(f)) for f in frames]
        messages.append((BSM_TOPICS[0], b"not a frame"))
        with BrokerClient(broker.address) as client:
            client.publish_many(messages)
        verb.join(timeout=60.0)
        assert not verb.is_alive()
    assert rc == [0]
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"decode errors: 1, stale ticks: {twin.stale_ticks}, replans: {twin.replans} "
        f"({twin.clamped_plans} clamped), SPaT frames: 2")


def test_console_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "corridorsim.cli", "--help"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    for verb in ("run", "verify", "bench", "broker", "replay", "headunit"):
        assert verb in proc.stdout


def test_verbs_other_than_run_do_not_load_numpy():
    # numpy is for drawing arrivals only; importing it costs every verb's start
    code = ("import sys\n"
            "import corridorsim.cli, corridorsim.v2x.headunit, corridorsim.v2x.replay\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
