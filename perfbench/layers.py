"""Per-layer metrics computed from one traced command's spans.

Names are ``<module>.<function>.<stat>``; ``self_s`` is time in the function
minus time in traced functions it called, ``total_s`` includes them, and
``calls_per_step`` divides the call count by the number of time steps.
What each should move, and where:

* ``stepper.*``, ``stepper1d.step.self_s``, ``stepper2d.step2d.self_s`` and
  the energy totals: ``wall_s`` on every workload.
* ``operators.{apply_A,apply_D,solve_A,build_step_matrix_1d,solve_step_1d}``,
  ``mesh.{sample,norm}``, ``expr.evaluate``, ``damping.q_coefficient``:
  ``wall_s`` on beam-spatial, barely on the plate workloads.
* ``operators.{apply_H,apply_Phi,solve_H}`` and ``operators.solve_step_2d``:
  ``wall_s`` on plate-energy first, plate-temporal second.
  ``applies_per_call`` counts applications of the step operator
  a*H^2 + Phi^2/2 (two ``apply_Phi`` calls each) made inside a solve.
* ``cli.load_config.total_s``: ``setup_s``.  ``cli.execute.self_s``
  (artifact writing and checks): ``wall_s`` on plate-energy.

A metric whose function no longer exists in the package is absent.
"""
from __future__ import annotations

import numpy as np

from tracer import Summary

STEP_FUNCTIONS = ("stepper1d.step", "stepper2d.step2d")
PER_STEP = (
    "operators.apply_A",
    "operators.apply_D",
    "operators.solve_A",
    "operators.build_step_matrix_1d",
    "operators.solve_step_1d",
    "operators.apply_H",
    "operators.apply_Phi",
    "operators.solve_H",
    "mesh.sample",
    "mesh.norm",
    "expr.evaluate",
    "damping.q_coefficient",
)
SELF_ONLY = STEP_FUNCTIONS + ("operators.solve_step_2d", "cli.execute")
TOTALS = (
    "stepper1d.energy",
    "stepper2d.energy2d",
    "operators.solve_step_2d",
    "cli.load_config",
)
SOLVE_2D = "operators.solve_step_2d"
# Suffixes of the metrics that are exact counts and must repeat run to run.
EXACT_COUNTS = (".calls_per_step", ".applies_per_call", ".steps")


def layer_metrics(spans_path) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """({name: (value, unit)}, [names of absent metrics])."""
    s = Summary(spans_path)
    values: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(name: str, present: bool, value, unit: str) -> None:
        if present:
            values[name] = (float(value()), unit)
        else:
            absent.append(name)

    def self_s(fn):
        return lambda: s.self_s[s.ids[fn]]

    stepping = [fn for fn in STEP_FUNCTIONS if s.has(fn)]
    steps = sum(int(s.calls[s.ids[fn]]) for fn in stepping)
    step_us = s.durations(stepping) * 1e6
    put("stepper.steps", bool(stepping), lambda: steps, "count")
    for q in (50, 99):
        put(
            f"stepper.step_us_p{q}",
            bool(stepping),
            lambda: np.percentile(step_us, q) if steps else 0.0,
            "us",
        )
    for fn in PER_STEP:
        put(
            f"{fn}.calls_per_step",
            s.has(fn),
            lambda: s.calls[s.ids[fn]] / steps if steps else 0.0,
            "count/step",
        )
        put(f"{fn}.self_s", s.has(fn), self_s(fn), "s")
    for fn in SELF_ONLY:
        put(f"{fn}.self_s", s.has(fn), self_s(fn), "s")
    for fn in TOTALS:
        put(f"{fn}.total_s", s.has(fn), lambda: s.total_s[s.ids[fn]], "s")
    solves = int(s.calls[s.ids[SOLVE_2D]]) if s.has(SOLVE_2D) else 0
    put(
        f"{SOLVE_2D}.applies_per_call",
        s.has(SOLVE_2D) and s.has("operators.apply_Phi"),
        lambda: s.calls_within("operators.apply_Phi", SOLVE_2D) / 2 / solves
        if solves
        else 0.0,
        "count/call",
    )
    return values, absent
