"""Refinement studies: self-convergence errors, observed orders, energy runs.

Each table row is labeled by its own refinement parameter p (N in time,
J in space) and its error compares the run at p against the run at the
halved refinement p//2; orders between consecutive rows are pairwise
log2 ratios.  Temporal rows share one spatial grid, and the time-step
convention tau = T/(N+1) makes every run's terminal field land exactly
on T.  Spatial rows share one N (hence one tau) and are compared at
coincident nodes (coarse j <-> fine 2j), weighted by the row grid's mesh
width.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import mesh
from .mesh import Grid, TimeGrid
from .stepper1d import EnergyRecord, run

__all__ = [
    "ReportRow",
    "ConvergenceReport",
    "temporal_study",
    "spatial_study",
    "energy_study",
    "report_csv",
    "report_markdown",
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
    profile: str = "paper"


def _terminal(problem, grid: Grid, N: int) -> np.ndarray:
    state, _ = run(problem, grid, TimeGrid(N, problem.T))
    return state.U_curr


def _orders(errors: list[float]) -> list[float | None]:
    out: list[float | None] = [None]
    for prev, cur in zip(errors, errors[1:]):
        if prev > 0.0 and cur > 0.0:
            out.append(math.log2(prev / cur))
        else:
            out.append(None)
    return out


def temporal_study(
    problem,
    J: int,
    N_list: list[int],
    J2: int | None = None,
    profile: str = "paper",
) -> ConvergenceReport:
    """Error/order table over the ascending time refinements in ``N_list``.

    Row N holds the discrete L2 difference between the terminal fields of
    the N-step run and the (N//2)-step run; both end at t = T.
    """
    if list(N_list) != sorted(N_list) or N_list[0] < 2:
        raise ValueError("N_list must be ascending with N >= 2")
    grid = mesh.grid_for(problem.dimension, J, J2)
    cache: dict[int, np.ndarray] = {}

    def terminal(N):
        if N not in cache:
            cache[N] = _terminal(problem, grid, N)
        return cache[N]

    errors = [mesh.norm(grid, terminal(N) - terminal(N // 2)) for N in N_list]
    rows = [
        ReportRow(N, problem.T / (N + 1), problem.T / (N // 2 + 1), err, order)
        for N, err, order in zip(N_list, errors, _orders(errors))
    ]
    return ConvergenceReport(
        "temporal", problem.dimension, problem.law.name, 2.0, rows, profile
    )


def spatial_study(
    problem,
    N: int,
    J_list: list[int],
    profile: str = "paper",
) -> ConvergenceReport:
    """Error/order table over the ascending grid refinements in ``J_list``.

    Row J compares the run on grid J against the run on grid J//2 at the
    coarse grid's nodes, with the row grid's mesh width in the norm
    weight; both runs share the same time step.
    """
    if list(J_list) != sorted(J_list) or J_list[0] < 4:
        raise ValueError("J_list must be ascending with J >= 4")
    cache: dict[int, np.ndarray] = {}

    def terminal(J):
        if J not in cache:
            cache[J] = _terminal(problem, mesh.grid_for(problem.dimension, J), N)
        return cache[J]

    dimension = problem.dimension
    interior = (slice(1, -1),) * dimension
    coincident = (slice(2, -2, 2),) * dimension  # fine nodes 2j, coarse interior j
    errors = []
    for J in J_list:
        diff = terminal(J // 2)[interior] - terminal(J)[coincident]
        h_row = 1.0 / (2 * J)
        errors.append(float(np.sqrt(h_row**dimension * np.sum(diff * diff))))
    rows = [
        ReportRow(J, 1.0 / (2 * J), 1.0 / J, err, order)
        for J, err, order in zip(J_list, errors, _orders(errors))
    ]
    return ConvergenceReport(
        "spatial", dimension, problem.law.name, 4.0, rows, profile
    )


def energy_study(problem, grid, tg: TimeGrid) -> list[EnergyRecord]:
    """Single run collecting the energy sequence."""
    _, records = run(problem, grid, tg)
    return records


def _fmt_error(e: float) -> str:
    return f"{e:.5g}"


def _fmt_order(o: float | None) -> str:
    return "*" if o is None else f"{o:.2f}"


def report_csv(report: ConvergenceReport) -> str:
    """CSV body (header plus one row per refinement, full-precision floats)."""
    param = "N" if report.kind == "temporal" else "J"
    step = "tau" if report.kind == "temporal" else "h"
    lines = [f"{param},{step},{step}_pair,error,order"]
    for r in report.rows:
        order = "" if r.order is None else repr(float(r.order))
        lines.append(
            f"{r.param},{float(r.step)!r},{float(r.step_pair)!r},"
            f"{float(r.error)!r},{order}"
        )
    return "\n".join(lines) + "\n"


def report_markdown(report: ConvergenceReport) -> str:
    """Markdown table mirroring the CSV, with a closing theory-order row."""
    dim = f"{report.dimension}D"
    title = (
        f"{report.kind.capitalize()} refinement study ({dim}, law "
        f"{report.law_name}, profile {report.profile})"
    )
    if report.kind == "temporal":
        head = "| N | error | order |"
        label = lambda r: str(r.param)
    else:
        head = "| 2J | error | order |"
        label = lambda r: str(2 * r.param)
    lines = [title, "", head, "|---|---|---|"]
    for r in report.rows:
        lines.append(f"| {label(r)} | {_fmt_error(r.error)} | {_fmt_order(r.order)} |")
    lines.append(f"| Theory |  | {report.theory_order:.2f} |")
    return "\n".join(lines) + "\n"
