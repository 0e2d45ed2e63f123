"""Fully discrete compact scheme for the damped plate equation on (0, 1)^2.

Mirrors the 1D stepper with the tensor-product operators H and Phi in
place of A and D, the f-norm inside the damping coefficient
q_n = P(||V^n||_f^2), and one exact solve in the tensor sine basis

    (a H^2 + (1/2) Phi^2) U^{n+1} = rhs,    a = 1/tau^2 + q_n/(2 tau).

V^{n+1} is recovered through two tridiagonal sweeps: V^{n+1} = V^{n-1} +
H^{-1} Phi (U^{n+1} - U^{n-1}).
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import damping as damping_mod
from . import mesh, operators
from .damping import DampingLaw
from .mesh import Grid2D, TimeGrid
from .stepper1d import EnergyRecord, StabilityReport, stability_check

__all__ = [
    "Problem2D",
    "StepperState2D",
    "init2d",
    "step2d",
    "energy2d",
    "run2d",
    "stability_check2d",
]


@dataclasses.dataclass
class Problem2D:
    """Plate problem data; expressions in (x, y, t), u0/u1 independent of t."""

    u0: object
    u1: object
    f: object
    law: DampingLaw
    T: float
    lap_u0: object | None = None
    bilap_u0: object | None = None


@dataclasses.dataclass
class StepperState2D:
    n: int
    U_prev: np.ndarray
    U_curr: np.ndarray
    V_prev: np.ndarray
    V_curr: np.ndarray
    q_curr: float


def init2d(problem: Problem2D, grid: Grid2D, tg: TimeGrid) -> StepperState2D:
    tau = tg.tau
    U0 = mesh.sample(grid, problem.u0, 0.0)
    if problem.lap_u0 is not None:
        V0 = mesh.sample(grid, problem.lap_u0, 0.0)
    else:
        V0 = operators.solve_H(operators.apply_Phi(U0))
    q0 = damping_mod.q_checked(damping_mod.laplacian_integral(V0), problem.law, 0, 0.0)
    if problem.bilap_u0 is not None:
        bilap = mesh.sample(grid, problem.bilap_u0, 0.0)
    else:
        bilap = operators.solve_H(operators.apply_Phi(V0))
    u1s = mesh.sample(grid, problem.u1, 0.0)
    f0 = mesh.sample(grid, problem.f, 0.0)
    u2 = -q0 * u1s - bilap + f0
    U1 = U0 + tau * u1s + 0.5 * tau * tau * u2
    V1 = operators.solve_H(operators.apply_Phi(U1))
    return StepperState2D(1, U0, U1, V0, V1, q0)


def step2d(
    state: StepperState2D,
    f_n: np.ndarray,
    tau: float,
    law: DampingLaw,
) -> StepperState2D:
    z = damping_mod.laplacian_integral(state.V_curr)
    q = damping_mod.q_checked(z, law, state.n, state.n * tau)
    a = 1.0 / (tau * tau) + q / (2.0 * tau)
    combo = (
        f_n
        + (2.0 / (tau * tau)) * state.U_curr
        - (1.0 / (tau * tau) - q / (2.0 * tau)) * state.U_prev
    )
    rhs = (
        operators.apply_H(operators.apply_H(combo))
        - operators.apply_Phi(operators.apply_H(state.V_prev))
        + 0.5 * operators.apply_Phi(operators.apply_Phi(state.U_prev))
    )
    U_next = operators.solve_step_2d(a, rhs)
    V_next = state.V_prev + operators.solve_H(
        operators.apply_Phi(U_next - state.U_prev)
    )
    return StepperState2D(state.n + 1, state.U_curr, U_next, state.V_curr, V_next, q)


def energy2d(state: StepperState2D, tau: float) -> EnergyRecord:
    grid = mesh.grid2d(
        (state.U_curr.shape[0] - 1) // 2, (state.U_curr.shape[1] - 1) // 2
    )
    HdU = operators.apply_H((state.U_curr - state.U_prev) / tau)
    E = np.sqrt(
        mesh.norm(grid, HdU) ** 2
        + 0.5
        * (
            mesh.norm(grid, operators.apply_H(state.V_curr)) ** 2
            + mesh.norm(grid, operators.apply_H(state.V_prev)) ** 2
        )
    )
    return EnergyRecord(state.n - 1, float(E))


def run2d(
    problem: Problem2D,
    grid: Grid2D,
    tg: TimeGrid,
    observers: tuple = (),
) -> tuple[StepperState2D, list[EnergyRecord]]:
    tau = tg.tau
    state = init2d(problem, grid, tg)
    rec = energy2d(state, tau)
    rec.bound = rec.E
    records = [rec]
    for obs in observers:
        obs(state)
    E0 = rec.E
    fsum = 0.0
    for n in range(1, tg.N + 1):
        f_n = mesh.sample(grid, problem.f, tg.t(n))
        state = step2d(state, f_n, tau, problem.law)
        fsum += mesh.norm(grid, f_n)
        rec = energy2d(state, tau)
        rec.bound = E0 + 2.0 * tau * fsum
        records.append(rec)
        for obs in observers:
            obs(state)
    return state, records


def stability_check2d(
    records: list[EnergyRecord], tol: float = 1e-10
) -> StabilityReport:
    return stability_check(records, tol)
