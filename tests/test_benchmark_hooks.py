"""The benchmark's tracer patches program names in place; a refactor that
moves one of them would make ``benchmarks/run.py --trace 1`` fail, and one
that stopped ``verify`` calling them would change what it counts."""

import sys
from pathlib import Path

import pytest

from corridorsim import cli
from corridorsim.coordinator import ConflictPair

ROOT = Path(__file__).resolve().parents[1]


def test_patch_points_exist_where_the_tracer_looks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from benchmarks.layers import _patch_points

    points = _patch_points()
    assert points
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in points
               if attr not in owner.__dict__]
    assert missing == []


_DIRTY = ("t,id,route,s,v,u,zone\n"     # 1 is 5 m behind 2 at 10 m/s
          "0.000,2,main,100.000000000,10.000000000,0.000000000,0\n"
          "0.000,1,main,95.000000000,10.000000000,0.000000000,0\n")


@pytest.mark.parametrize("rear, lateral, code", [
    (None, None, 1),        # the checks' own results: the trace is dirty
    ([], [], 0),
    ([(0.0, 1, 2, 5.0, 12.0)], [], 1),
    ([], [ConflictPair(1, 7, 8, 1.0, 1.5)], 1),
], ids=["as-checked", "both-clean", "rear-end", "lateral"])
def test_verify_exits_on_what_the_two_cli_checks_return(tmp_path, monkeypatch, capsys,
                                                         rear, lateral, code):
    # benchmarks/run.py's Findings wraps cli.rear_end_check and
    # cli.occupancy_from_trace to count flagged vehicles as failed
    # operations: verify must call each once, through those names, and its
    # exit code must follow what they return
    trace = tmp_path / "trace.csv"
    trace.write_text(_DIRTY)
    calls = {}

    def recording(name, result):
        check = getattr(cli, name)

        def wrapper(*args, **kwargs):
            got = check(*args, **kwargs)    # still runs: it reads the file
            calls.setdefault(name, []).append(got)
            return got if result is None else result
        return wrapper

    monkeypatch.setattr(cli, "rear_end_check", recording("rear_end_check", rear))
    monkeypatch.setattr(cli, "occupancy_from_trace", recording("occupancy_from_trace", lateral))
    assert cli.main(["verify", "--config", "configs/bench.yaml", str(trace)]) == code
    assert {name: len(got) for name, got in calls.items()} == {
        "rear_end_check": 1, "occupancy_from_trace": 1}
    assert len(calls["rear_end_check"][0]) == 1     # the real check saw the tailgater
    assert ("VIOLATIONS FOUND" if code else "clean") in capsys.readouterr().out
