"""The compact scheme for the damped beam on (0, 1) and plate on (0, 1)^2.

The fourth-order equation u_tt + q(t) u_t + Lap^2 u = f is reduced with the
auxiliary variable v = Lap u and discretized by the implicit two-level
compact scheme (all fields vanish on the boundary)

    A (U^{n+1} - 2U^n + U^{n-1})/tau^2
        + q_n A (U^{n+1} - U^{n-1})/(2 tau)
        + D (V^{n+1} + V^{n-1})/2          = A f^n,
    A (V^{n+1} - V^{n-1})                  = D (U^{n+1} - U^{n-1}),

with (A, D) the compact average and second difference on a beam and the
tensor operators (H, Phi) on a plate, and the nonlocal coefficient
q_n = P(||V^n||^2), the b-norm (1D) resp. f-norm (2D) realizing Simpson's
rule.  Eliminating V^{n+1} (premultiply the first equation by A and
substitute the second; A and D commute) leaves (a A^2 + D^2/2) U^{n+1} =
rhs, a = 1/tau^2 + q_n/(2 tau), after which V^{n+1} = V^{n-1} + A^{-1} D
(U^{n+1} - U^{n-1}).  Both operators are diagonal in the (tensor) sine
(DST-I) basis of the interior, so one scheme, whose dimension comes from
the grid, steps the sine coefficients (hats) of U and V elementwise.  So
does q_n with no inverse transform: interior node j has Simpson weight
h (1 - (-1)^j/3) along each axis, and (-1)^j maps mode k to mode m+1-k,
so along each axis c -> h (c + flip(c)/3), and ||V||^2 = sum Vh (weighted
Vh); in 1D that is h (Vh.Vh + Vh.Vh[::-1]/3).

Startup: U^0 samples u0; V^0 = A^{-1} D U^0 (or samples an analytic
laplacian override); U^1 = U^0 + tau*u1 + (tau^2/2)*u2 with the
consistent acceleration u2 = -q(0)*u1 - A^{-1} D V^0 + f^0.

The module also carries the discrete energy

    E^n = sqrt(||A dU^{n+1}/tau||^2 + (||A V^{n+1}||^2 + ||A V^n||^2)/2),

which is non-increasing step by step when f = 0, the companion stability
bound E^n <= E^0 + 2 tau sum ||f^j||, and an RK4 method-of-lines
integrator for the spatially semi-discrete beam, used as an independent
reference solution (stencils and banded solves only).
"""
from __future__ import annotations

import dataclasses
import math
from typing import ClassVar

import numpy as np

from . import damping as damping_mod
from . import mesh, operators
from .damping import DampingLaw
from .mesh import Grid, Grid1D, TimeGrid

__all__ = [
    "Problem1D",
    "StepperState",
    "StepperState1D",
    "EnergyRecord",
    "StabilityReport",
    "IntegrationError",
    "init",
    "step",
    "energy",
    "run",
    "stability_check",
    "mol_reference",
]


class IntegrationError(RuntimeError):
    """Explicit time integration diverged (reduce the step size)."""


@dataclasses.dataclass
class Problem1D:
    """Problem data u_tt + q u_t + u_xxxx = f on (0,1) with hinged ends.

    ``u0``/``u1``/``f`` are expression trees or callables ``(x, t)``;
    u0 and u1 must not depend on t.  ``lap_u0``/``bilap_u0`` optionally
    supply the analytic laplacian / bilaplacian of u0 for the startup
    (otherwise both are realized discretely).  ``dimension`` names the
    grid the problem lives on (the plate subclass sets 2).
    """

    dimension: ClassVar[int] = 1
    u0: object
    u1: object
    f: object
    law: DampingLaw
    T: float
    lap_u0: object | None = None
    bilap_u0: object | None = None


@dataclasses.dataclass
class StepperState:
    """Sliding two-level window (U^{n-1}, U^n, V^{n-1}, V^n) at index n,
    as nodal fields on a 1D or 2D grid."""

    n: int
    U_prev: np.ndarray
    U_curr: np.ndarray
    V_prev: np.ndarray
    V_curr: np.ndarray
    q_curr: float


StepperState1D = StepperState


@dataclasses.dataclass
class EnergyRecord:
    """Energy E^n (== the stability norm of U^n) and the running bound."""

    n: int
    E: float
    bound: float | None = None


@dataclasses.dataclass
class StabilityReport:
    ok: bool
    tol: float
    violations: list[tuple[int, float]]  # (index, excess above the bound)


class _SineScheme:
    """The scheme on the sine coefficients of one grid's interior, step tau.

    The grid's dimension picks the symbols (lam, mu): of (A, D) on a beam,
    of (H, Phi) on a plate.  A window is the tuple (Uh^{n-1}, Uh^n,
    Vh^{n-1}, Vh^n).
    """

    def __init__(self, grid: Grid, tau: float) -> None:
        shape = grid.shape
        self.grid, self.tau, self.cell = grid, tau, grid.cell
        self.S, lam, mu = operators._sine_symbols([n - 2 for n in shape])
        self.interior = (Ellipsis,) + grid.interior
        self.flips = [
            (Ellipsis, slice(None, None, -1)) + (slice(None),) * k
            for k in range(len(shape))
        ]
        self.lam, self.lam2, self.half_mu2 = lam, lam * lam, 0.5 * mu * mu
        self.DA = mu * lam  # symbol of D A
        self.AinvD = mu / lam  # symbol of A^{-1} D

    def sine(self, x: np.ndarray) -> np.ndarray:
        """Sine transform (its own inverse) along each spatial (trailing) axis."""
        x = x @ self.S[-1]
        return self.S[0] @ x if len(self.S) == 2 else x

    def sample(self, f, t: float) -> np.ndarray:
        """Sine coefficients of ``f`` sampled at time t."""
        return self.sine(mesh.sample(self.grid, f, t)[self.interior])

    def coefficients(self, state: StepperState) -> tuple[np.ndarray, ...]:
        fields = np.stack((state.U_prev, state.U_curr, state.V_prev, state.V_curr))
        return tuple(self.sine(fields[self.interior]))

    def state(self, n: int, window, q: float) -> StepperState:
        fields = np.zeros((4,) + self.grid.shape)
        fields[self.interior] = self.sine(np.stack(window))
        return StepperState(n, *fields, q)

    def z(self, V: np.ndarray) -> float:
        """||V||^2 in the Simpson norm: c -> c + flip(c)/3 along each axis."""
        w = V
        for flip in self.flips:
            w = w + w[flip] / 3.0
        return self.cell * float(np.vdot(V, w))

    def norm(self, u: np.ndarray) -> float:
        """l2 norm of the nodal field with coefficients u (Parseval)."""
        return math.sqrt(self.cell * np.vdot(u, u))

    def start(self, problem) -> tuple[tuple[np.ndarray, ...], float]:
        """Startup window at n = 1 and q_0."""
        tau = self.tau
        U0 = self.sample(problem.u0, 0.0)
        if problem.lap_u0 is not None:
            V0 = self.sample(problem.lap_u0, 0.0)
        else:
            V0 = self.AinvD * U0
        q0 = damping_mod.q_checked(self.z(V0), problem.law, 0, 0.0)
        if problem.bilap_u0 is not None:
            bilap = self.sample(problem.bilap_u0, 0.0)
        else:
            bilap = self.AinvD * V0
        u1 = self.sample(problem.u1, 0.0)
        u2 = -q0 * u1 - bilap + self.sample(problem.f, 0.0)
        U1 = U0 + tau * u1 + 0.5 * tau * tau * u2
        return (U0, U1, V0, self.AinvD * U1), q0

    def advance(self, window, f_hat: np.ndarray, n: int, law: DampingLaw):
        """Next window and q_n from the window at level n and f^n's coefficients."""
        U_prev, U, V_prev, V = window
        q = damping_mod.q_checked(self.z(V), law, n, n * self.tau)
        r = 1.0 / (self.tau * self.tau)
        c = q / (2.0 * self.tau)
        combo = f_hat + (2.0 * r) * U - (r - c) * U_prev
        rhs = self.lam2 * combo - self.DA * V_prev + self.half_mu2 * U_prev
        U_next = rhs / ((r + c) * self.lam2 + self.half_mu2)
        return (U, U_next, V, V_prev + self.AinvD * (U_next - U_prev)), q

    def energy(self, window) -> float:
        """E of a window; by Parseval ||A u|| = ||lam * uh||."""
        U_prev, U, V_prev, V = window
        dU = self.lam * (U - U_prev) / self.tau
        AV, AV_prev = self.lam * V, self.lam * V_prev
        s = np.vdot(dU, dU) + 0.5 * (np.vdot(AV, AV) + np.vdot(AV_prev, AV_prev))
        return math.sqrt(self.cell * s)


def _scheme_of(state: StepperState, tau: float) -> _SineScheme:
    return _SineScheme(mesh.grid_of(state.U_curr.shape), tau)


def init(problem, grid: Grid, tg: TimeGrid) -> StepperState:
    """Startup levels (U^0, U^1, V^0, V^1); the state sits at n = 1."""
    scheme = _SineScheme(grid, tg.tau)
    return scheme.state(1, *scheme.start(problem))


def step(
    state: StepperState, f_n: np.ndarray, tau: float, law: DampingLaw
) -> StepperState:
    """Advance one level: solve for U^{n+1}, then recover V^{n+1}."""
    scheme = _scheme_of(state, tau)
    f_hat = scheme.sine(f_n[scheme.interior])
    window, q = scheme.advance(scheme.coefficients(state), f_hat, state.n, law)
    return scheme.state(state.n + 1, window, q)


def energy(state: StepperState, tau: float) -> EnergyRecord:
    """Energy of the window held by ``state`` (record index state.n - 1)."""
    scheme = _scheme_of(state, tau)
    return EnergyRecord(state.n - 1, scheme.energy(scheme.coefficients(state)))


def run(
    problem,
    grid: Grid,
    tg: TimeGrid,
    observers: tuple = (),
) -> tuple[StepperState, list[EnergyRecord]]:
    """Initialize and take N steps (ending at U^{N+1}, time T).

    The grid sets the dimension: a ``Grid1D`` runs a beam, a ``Grid2D`` a
    plate.  Observers are callables invoked with the state after startup
    and after every step.  Returns the final state and one energy record
    per level, each carrying the running stability bound
    E^0 + 2 tau sum ||f^j||.  The steps run on sine coefficients; nodal
    states are built only for observers and the result.
    """
    tau = tg.tau
    scheme = _SineScheme(grid, tau)
    window, q = scheme.start(problem)
    E0 = scheme.energy(window)
    records = [EnergyRecord(0, E0, E0)]
    if observers:
        state = scheme.state(1, window, q)
        for obs in observers:
            obs(state)
    fsum = 0.0
    for n in range(1, tg.N + 1):
        f_hat = scheme.sample(problem.f, tg.t(n))
        window, q = scheme.advance(window, f_hat, n, problem.law)
        fsum += scheme.norm(f_hat)
        records.append(EnergyRecord(n, scheme.energy(window), E0 + 2.0 * tau * fsum))
        if observers:
            state = scheme.state(n + 1, window, q)
            for obs in observers:
                obs(state)
    return scheme.state(tg.N + 1, window, q), records


def stability_check(records: list[EnergyRecord], tol: float = 1e-10) -> StabilityReport:
    """Check E^n <= E^0 + 2 tau sum_{j<=n} ||f^j|| + tol*(1 + E^0) at every n;
    a NaN energy counts as a violation."""
    E0 = records[0].E
    slack = tol * (1.0 + E0)
    violations = [
        (r.n, r.E - r.bound - slack)
        for r in records
        if not r.E <= r.bound + slack
    ]
    return StabilityReport(not violations, tol, violations)


def mol_reference(
    problem: Problem1D, grid: Grid1D, t_end: float, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical RK4 on the semi-discrete system; returns (U, U', V) at t_end.

    The system integrated is U' = W, A W' = A f - q(t) A W - D V,
    A V' = D W with q(t) = P(||V||_b^2).  The caller picks dt; stability
    of RK4 on this stiff system needs roughly dt <= h^2/4.
    """
    h = grid.h
    U = mesh.sample(grid, problem.u0, 0.0)
    W = mesh.sample(grid, problem.u1, 0.0)
    V = operators.solve_A(operators.apply_D(U, h))
    nsteps = max(1, round(t_end / dt))
    dt = t_end / nsteps

    def deriv(t, u, w, v):
        q = damping_mod.q_coefficient(v, problem.law)
        dw = mesh.sample(grid, problem.f, t) - q * w - operators.solve_A(
            operators.apply_D(v, h)
        )
        dv = operators.solve_A(operators.apply_D(w, h))
        return w, dw, dv

    # divergence is detected explicitly below; silence the transient
    # overflow warnings an unstable trajectory produces on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            t = k * dt
            k1 = deriv(t, U, W, V)
            k2 = deriv(
                t + 0.5 * dt,
                U + 0.5 * dt * k1[0],
                W + 0.5 * dt * k1[1],
                V + 0.5 * dt * k1[2],
            )
            k3 = deriv(
                t + 0.5 * dt,
                U + 0.5 * dt * k2[0],
                W + 0.5 * dt * k2[1],
                V + 0.5 * dt * k2[2],
            )
            k4 = deriv(t + dt, U + dt * k3[0], W + dt * k3[1], V + dt * k3[2])
            U = U + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            W = W + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            V = V + (dt / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
            if not np.isfinite(U).all():
                raise IntegrationError(
                    f"RK4 diverged at t={t + dt:.6g}; reduce dt (need about "
                    f"h^2/4 = {h * h / 4.0:.3e} or smaller)"
                )
    return U, W, V
