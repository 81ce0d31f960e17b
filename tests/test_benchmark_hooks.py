"""The benchmark's tracer patches program names in place; a refactor that
moves one of them would make ``benchmarks/run.py --trace 1`` fail."""

import sys
from pathlib import Path

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
