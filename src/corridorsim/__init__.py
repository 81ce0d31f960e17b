"""Deterministic corridor simulator with two-level coordinated merging
and a desk-scale V2X message fabric."""
