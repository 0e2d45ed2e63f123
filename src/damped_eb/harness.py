"""Refinement studies: self-convergence errors and observed orders.

Each table row is labeled by its own refinement parameter p (N in time,
J in space) and its error compares the run at p against the run at the
halved refinement p//2; orders between consecutive rows are pairwise
log2 ratios.  Temporal rows share one spatial grid, and the time-step
convention tau = T/(N+1) makes every run's terminal field land exactly
on T.  Spatial rows share one N (hence one tau), so every grid of a spatial
study (each J and each J//2) steps in one batched time loop
(:func:`damped_eb.stepper1d.run_batch`); rows are compared at coincident
nodes (coarse j <-> fine 2j), weighted by the row grid's mesh width.
A study reads only the final states that ``run_batch`` returns and passes
it no hook, so its runs take no energies and keep nothing whose size grows
with N.  The studies return numbers; the CLI writes them as report.csv and
report.md.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import mesh
from .mesh import TimeGrid
from .stepper1d import run_batch

__all__ = [
    "ReportRow",
    "ConvergenceReport",
    "check_refinements",
    "temporal_study",
    "spatial_study",
]

@dataclasses.dataclass
class ReportRow:
    param: int  # N for temporal studies, J for spatial ones
    step: float  # tau resp. h of the row's run
    step_pair: float  # tau resp. h of the halved refinement it is compared to
    error: float
    order: float | None  # absent on the first row


@dataclasses.dataclass
class ConvergenceReport:
    kind: str  # "temporal" | "spatial"
    dimension: int
    law_name: str
    theory_order: float
    rows: list[ReportRow]


def _orders(errors: list[float]) -> list[float | None]:
    out: list[float | None] = [None]
    for prev, cur in zip(errors, errors[1:]):
        if prev > 0.0 and cur > 0.0:
            out.append(math.log2(prev / cur))
        else:
            out.append(None)
    return out


def check_refinements(kind: str, values, key: str) -> None:
    """Raise ValueError unless ``values`` can be the refinement list ``key``
    of a ``kind`` ("temporal" or "spatial") study: strictly ascending, each
    N >= 2 resp. each J even and >= 4, as row p compares the runs at p and p//2.
    """
    values = list(values)
    if kind == "temporal":
        rule, ok = ">= 2", all(N >= 2 for N in values)
        why = "row N compares the runs with N and N//2 steps"
    else:
        rule, ok = "even and >= 4", all(J >= 4 and J % 2 == 0 for J in values)
        why = "row J compares grids J and J//2 at shared nodes: even J >= 4"
    if not (values and ok and all(a < b for a, b in zip(values, values[1:]))):
        raise ValueError(
            f"{key} entries must be {rule} and strictly ascending; {why}; got {values}"
        )


def temporal_study(problem, J: int, N_list: list[int]) -> ConvergenceReport:
    """Error/order table over the strictly ascending time refinements in
    ``N_list`` (:func:`check_refinements`).

    Row N holds the discrete L2 difference between the terminal fields of
    the N-step run and the (N//2)-step run; both end at t = T.
    """
    check_refinements("temporal", N_list, "N_list")
    grid = mesh.grid_for(problem.dimension, J)
    Ns = sorted(set(N_list) | {N // 2 for N in N_list})
    tgs = {N: TimeGrid(N, problem.T) for N in Ns}
    terminal = {N: run_batch(problem, [grid], tg)[0].U_curr for N, tg in tgs.items()}
    errors = [mesh.norm(grid, terminal[N] - terminal[N // 2]) for N in N_list]
    rows = [
        ReportRow(N, tgs[N].tau, tgs[N // 2].tau, err, order)
        for N, err, order in zip(N_list, errors, _orders(errors))
    ]
    return ConvergenceReport("temporal", problem.dimension, problem.law.name, 2.0, rows)


def spatial_study(problem, N: int, J_list: list[int]) -> ConvergenceReport:
    """Error/order table over the strictly ascending grid refinements in
    ``J_list`` (:func:`check_refinements`).

    Row J compares the run on grid J against the run on grid J//2 at the
    coarse grid's nodes, with the row grid's mesh width in the norm
    weight; J must be even, or grids J and J//2 share no nodes.  All runs
    share the same time step and advance together in one batched run.
    """
    check_refinements("spatial", J_list, "J_list")
    Js = sorted(set(J_list) | {J // 2 for J in J_list})
    grids = [mesh.grid_for(problem.dimension, J) for J in Js]
    states = run_batch(problem, grids, TimeGrid(N, problem.T))
    terminal = {J: state.U_curr for J, state in zip(Js, states)}
    dimension = problem.dimension
    interior = (slice(1, -1),) * dimension
    coincident = (slice(2, -2, 2),) * dimension  # fine nodes 2j, coarse interior j
    errors = []
    for J in J_list:
        diff = terminal[J // 2][interior] - terminal[J][coincident]
        h_row = 1.0 / (2 * J)
        errors.append(float(np.sqrt(h_row**dimension * np.sum(diff * diff))))
    rows = [
        ReportRow(J, 1.0 / (2 * J), 1.0 / J, err, order)
        for J, err, order in zip(J_list, errors, _orders(errors))
    ]
    return ConvergenceReport("spatial", dimension, problem.law.name, 4.0, rows)

