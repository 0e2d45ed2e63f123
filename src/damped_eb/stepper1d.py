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
rule.  Both operators are diagonal in the (tensor) sine (DST-I) basis of
the interior, so one scheme, whose dimension comes from the grid, steps
the sine coefficients (hats) elementwise; lam and mu denote the symbols of
A and D.  As A and D commute, the second equation says that the offset
W^n = V^n - A^{-1} D U^n has W^{n+1} = W^{n-1}: W takes one value on even
and one on odd levels, both fixed by the startup window (and zero unless
an analytic laplacian of u0 is given).  So V needs no recursion of its
own, V^n = A^{-1} D U^n + W_{n mod 2}, and substituting it into the first
equation premultiplied by A leaves a recurrence on U alone.  It is stepped
in its increment (summed) form: with delta^n = U^{n+1} - U^n,
c_n = q_n/(2 tau) and Q = lam^2/tau^2 + mu^2/2,

    (Q + c_n lam^2) deltah^n = lam^2 fh^n - mu^2 Uh^n - mu lam Wh_{(n-1) mod 2}
                               + (Q - c_n lam^2) deltah^{n-1},
    Uh^{n+1} = Uh^n + deltah^n.

Every term is of the size of delta; the position form, which forms
2 lam^2/tau^2 U^n - (Q - c_n lam^2) U^{n-1}, cancels two terms of the size
of U/tau^2 down to that size at each step and loses about four digits over
16,384 steps (Henrici 1962; Hairer, Lubich & Wanner 2006, VIII.5).

q_n needs no inverse transform either: interior node j has Simpson weight
h (1 - (-1)^j/3) along each axis, and (-1)^j maps mode k to mode m+1-k,
so along each axis c -> h (c + flip(c)/3), and ||V||^2 = sum Vh (weighted
Vh); in 1D that is h (Vh.Vh + Vh.Vh[::-1]/3).

A run steps a batch of grids of one dimension with one tau (a spatial
study steps all its grids in one time loop; a single run is a batch of
one) on one concatenated coefficient vector, U one running vector.  A step
takes the same path for any number of grids: the flips by one permutation
gather per axis and z by one product with per-grid weight rows; one call
of the law on the array of z, checked on Python floats; c_n lam^2 by one
product of q_n with per-grid weight rows; and one elementwise update of
the whole batch into a row of a history block of delta and V, every array
it writes allocated once per run.  A forcing f = g(t) F(x[, y]) is staged:
F is transformed once per grid, g evaluated once on all t_n, and one outer
product writes lam^2 f^n into a block's delta rows.  A full block's
energies are taken in one pass (its size is a fixed number of
coefficients, so it stays in cache), their square roots after the loop.
Of size N, a run keeps only its energies and bounds, the times t_n and
g(t_n).

Startup: U^0 samples u0; V^0 = A^{-1} D U^0 (or samples an analytic
laplacian override); delta^0 = tau*u1 + (tau^2/2)*u2 with the consistent
acceleration u2 = -q(0)*u1 - A^{-1} D V^0 + f^0, and U^1 = U^0 + delta^0.

The module also carries the discrete energy

    E^n = sqrt(||A dU^{n+1}/tau||^2 + (||A V^{n+1}||^2 + ||A V^n||^2)/2),

which is non-increasing step by step when f = 0, the companion stability
bound E^n <= E^0 + 2 tau sum ||f^j||, and an RK4 method-of-lines
integrator for the spatially semi-discrete beam, used as an independent
reference solution (nodal stencils and solves of A only).
"""
from __future__ import annotations

import dataclasses
import math
from typing import ClassVar

import numpy as np

from . import damping as damping_mod
from . import expr as expr_mod
from . import mesh, operators
from .damping import DampingLaw
from .mesh import Grid, Grid1D, TimeGrid

__all__ = [
    "Problem1D",
    "StepperState",
    "EnergyRecord",
    "StabilityReport",
    "IntegrationError",
    "init",
    "step",
    "energy",
    "run",
    "run_batch",
    "stability_check",
    "mol_reference",
]


# Coefficients of U (and of V) that one energy block of run_batch holds:
# 64 kB per array, which stays in cache.  A 1D spatial study J = 2..32
# (119 coefficients) gets 68 rows per block, a lone 2D J = 32 grid (3,969)
# the minimum of 2.
_BLOCK_COEFFICIENTS = 8192


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
    """The scheme on the sine coefficients of a batch of grids of one
    dimension, all stepped with the same tau.

    Each grid's interior coefficients are flattened into one block of a
    single vector, next to the grid's symbols (lam, mu): of (A, D) on a
    beam, of (H, Phi) on a plate.  A step is elementwise on that vector;
    q_n is one scalar per grid, and the per-grid values (z, E, ||f||, q_n)
    meet the coefficients only through weight matrices built once, so one
    path serves any number of grids.  A step (:meth:`advance`) reads U^n,
    the increment delta^{n-1} = U^n - U^{n-1} and V^n, writes delta^n by
    the increment form of the recurrence on U, adds it to U in place and
    recovers V^{n+1} = A^{-1} D U^{n+1} + W (module docstring).  A step
    writes only into arrays allocated once, with the scheme or the run (the
    law's result aside); transforms run per grid, only at the ends of a run.
    """

    def __init__(self, grids: list[Grid], tau: float) -> None:
        if len({len(g.shape) for g in grids}) != 1:
            raise ValueError("a batch holds grids of one dimension")
        self.grids, self.tau = grids, tau
        self.S, lams, mus = zip(
            *(operators._sine_symbols([n - 2 for n in g.shape]) for g in grids)
        )
        self.shapes = [lam.shape for lam in lams]
        sizes = [lam.size for lam in lams]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        self.blocks = [slice(a, b) for a, b in zip(starts, ends)]
        cell = np.array([g.cell for g in grids])
        # z's flip c -> flip(c) along each axis of every grid, as one
        # permutation of the whole vector per axis; owner is the grid of each
        # coefficient.
        self.owner = np.repeat(np.arange(len(grids)), sizes)
        index = [np.arange(lam.size).reshape(lam.shape) for lam in lams]
        self.flips = [
            np.concatenate(
                [a + np.flip(i, axis).ravel() for a, i in zip(starts, index)]
            )
            for axis in range(-1, -1 - len(self.shapes[0]), -1)
        ]
        lam = np.concatenate([x.ravel() for x in lams])
        mu = np.concatenate([x.ravel() for x in mus])
        self.size = lam.size
        self.lam2 = lam * lam
        self.mu2 = mu * mu
        self.DA = mu * lam  # symbol of D A
        self.AinvD = mu / lam  # symbol of A^{-1} D
        self.Q = self.lam2 / (tau * tau) + 0.5 * self.mu2
        # Per-grid and per-coefficient values meet only in products with one
        # row (z, ||f||^2, c_n lam^2) or column (E^2) of weights per grid, zero
        # off its block: cell for z and ||f||^2, lam2/(2 tau) for
        # c_n lam^2 = q_n lam2/(2 tau), and
        # cell*lam2/2*((2/tau^2) delta^2 + Vh^2 + Vh-^2) for E^2.  One term of
        # each sum is nonzero and q_n is finite, so spreading q_n is exact.
        owner, k = self.owner, np.arange(lam.size)
        self.z_weights = np.zeros((len(grids), lam.size))
        self.z_weights[owner, k] = cell[owner]
        self.c_weights = np.zeros((len(grids), lam.size))
        self.c_weights[owner, k] = self.lam2 / (2.0 * tau)
        self.V_weights = np.zeros((lam.size, len(grids)))
        self.V_weights[k, owner] = 0.5 * cell[owner] * self.lam2
        self.dU_weights = (2.0 / (tau * tau)) * self.V_weights
        # the step's scratch: two coefficient vectors and z
        self.work = np.empty((2, lam.size))
        self.z = np.empty(len(grids))

    def sine(self, parts: list[np.ndarray]) -> np.ndarray:
        """Coefficient vector of one interior nodal array per grid (leading
        axes kept)."""
        flat = [
            operators._transform(S, x).reshape(x.shape[: x.ndim - len(S)] + (-1,))
            for S, x in zip(self.S, parts)
        ]
        return np.concatenate(flat, axis=-1)

    def nodal(self, coeffs: np.ndarray) -> list[np.ndarray]:
        """Nodal fields, one per grid, of a coefficient vector (leading axes kept)."""
        lead = coeffs.shape[:-1]
        out = []
        for S, grid, block, shape in zip(self.S, self.grids, self.blocks, self.shapes):
            fields = np.zeros(lead + grid.shape)
            fields[(Ellipsis,) + grid.interior] = operators._transform(
                S, coeffs[..., block].reshape(lead + shape)
            )
            out.append(fields)
        return out

    def sample(self, f, t: float) -> np.ndarray:
        """Coefficients of ``f`` sampled at time t on every grid."""
        return self.sine([mesh.sample(g, f, t)[g.interior] for g in self.grids])

    def coefficients(self, state: StepperState) -> np.ndarray:
        """Window of a state on a batch of one grid, one level per row."""
        (grid,) = self.grids
        fields = np.stack((state.U_prev, state.U_curr, state.V_prev, state.V_curr))
        return self.sine([fields[(Ellipsis,) + grid.interior]])

    def states(self, n: int, window, q) -> list[StepperState]:
        """One nodal state per grid at index n, given q_n per grid."""
        fields = self.nodal(np.stack(window))
        return [StepperState(n, *f, q_i) for f, q_i in zip(fields, q.tolist())]

    def norms(self, u: np.ndarray) -> np.ndarray:
        """l2 norm per grid of the nodal field with coefficients u (Parseval)."""
        return np.sqrt(np.dot(u * u, self.z_weights.T))

    def q(self, V: np.ndarray, law: DampingLaw, n: int) -> np.ndarray:
        """q_n per grid from z = ||V||^2 (:func:`damped_eb.damping.q_batch`),
        where c -> c + flip(c)/3 along each axis; z is written into the
        scheme's scratch."""
        w = V
        for flip, out in zip(self.flips, self.work):
            # (mode="raise" would buffer the gather; the index is valid)
            w.take(flip, out=out, mode="wrap")
            out *= 1.0 / 3.0
            out += w
            w = out
        w *= V
        z = np.dot(self.z_weights, w, out=self.z)
        return damping_mod.q_batch(z, law, n, n * self.tau, self.grids)

    def forcing(self, f, times: np.ndarray):
        """The coefficients of f(., times[0]) on every grid; the map
        (n, rows) that writes the coefficients of lam^2 f(., times[n + k])
        into rows[k] for each k; and the array of ||f(., times[n])|| per
        grid, whose rows are written by the map.

        An expression g(t) * F(x[, y]) (:func:`damped_eb.expr.split_time`) is
        staged: F is sampled and transformed once, g evaluated on all times,
        and a call is one outer product.  Any other f, or a g or F that
        leaves its domain, is sampled at each time (naming the node where it
        fails).
        """
        norms = np.empty((len(times), len(self.grids)))
        split = expr_mod.split_time(f) if hasattr(f, "_eval") else None
        if split is not None:
            g, F = split
            try:
                F_hat = self.sample(F, 0.0)
                g_n = expr_mod.evaluate(g, t=times) if g else np.ones_like(times)
            except expr_mod.DomainError:
                split = None
        if split is not None:
            np.multiply(g_n[:, None], self.norms(F_hat), out=norms)
            np.abs(norms, out=norms)
            lam2_F = self.lam2 * F_hat

            def staged(n, rows):
                np.multiply(g_n[n : n + len(rows), None], lam2_F, out=rows)

            return g_n[0] * F_hat, staged, norms

        def sampled(n):
            f_hat = self.sample(f, times.item(n))
            norms[n] = self.norms(f_hat)
            return f_hat

        def sampled_rows(n, rows):
            for k, row in enumerate(rows, n):
                np.multiply(self.lam2, sampled(k), out=row)

        return sampled(0), sampled_rows, norms

    def start(self, problem, f_hat: np.ndarray):
        """Startup at n = 1, given f^0's coefficients: the window
        (U^0, U^1, V^0, V^1), delta^0 = tau u1 + (tau^2/2) u2, q_0 per grid,
        and the offsets (W, D A W) of the even and of the odd levels."""
        tau = self.tau
        U0 = self.sample(problem.u0, 0.0)
        if problem.lap_u0 is not None:
            V0 = self.sample(problem.lap_u0, 0.0)
        else:
            V0 = self.AinvD * U0
        q0 = self.q(V0, problem.law, 0)
        if problem.bilap_u0 is not None:
            bilap = self.sample(problem.bilap_u0, 0.0)
        else:
            bilap = self.AinvD * V0
        u1 = self.sample(problem.u1, 0.0)
        u2 = -q0[self.owner] * u1 - bilap + f_hat
        d = tau * u1 + 0.5 * tau * tau * u2
        U1 = U0 + d
        W = V0 - self.AinvD * U0
        zero = np.zeros_like(W)
        window = (U0, U1, V0, self.AinvD * U1)
        return window, d, q0, [(W, self.DA * W), (zero, zero)]

    def advance(self, U, d, V, offset, n: int, law: DampingLaw, out):
        """q_n per grid; writes delta^n and V^{n+1} into ``out`` and adds
        delta^n to U in place.

        Reads U^n, d = delta^{n-1}, V^n and the offset (W, D A W) of level
        n - 1, which is that of level n + 1.  The first array of ``out``
        holds the coefficients of lam^2 f^n on entry.
        """
        q = self.q(V, law, n)
        b, c = self.work
        W, DA_W = offset
        d_next, V_next = out
        np.multiply(self.mu2, U, out=b)
        d_next -= b
        d_next -= DA_W
        np.dot(q, self.c_weights, out=c)  # c_n lam^2
        np.subtract(self.Q, c, out=b)
        b *= d
        d_next += b
        c += self.Q
        d_next /= c
        U += d_next
        np.multiply(self.AinvD, U, out=V_next)
        V_next += W
        return q

    def squared_energy(self, D: np.ndarray, V: np.ndarray) -> np.ndarray:
        """E^2 per grid (columns) of each window (delta^k, V^k, V^{k+1}),
        given the increments as rows of D and the levels of V as the rows of
        V (one more); by Parseval ||A u|| = ||lam * uh||."""
        V2 = (V * V) @ self.V_weights
        return (D * D) @ self.dU_weights + V2[1:] + V2[:-1]


def _scheme_of(state: StepperState, tau: float) -> _SineScheme:
    return _SineScheme([mesh.grid_of(state.U_curr.shape)], tau)


def init(problem, grid: Grid, tg: TimeGrid) -> StepperState:
    """Startup levels (U^0, U^1, V^0, V^1); the state sits at n = 1."""
    scheme = _SineScheme([grid], tg.tau)
    f_hat, _, _ = scheme.forcing(problem.f, np.zeros(1))
    window, _, q, _ = scheme.start(problem, f_hat)
    (state,) = scheme.states(1, window, q)
    return state


def step(
    state: StepperState, f_n: np.ndarray, tau: float, law: DampingLaw
) -> StepperState:
    """Advance one level: solve for U^{n+1}, then recover V^{n+1}."""
    scheme = _scheme_of(state, tau)
    f_hat = scheme.sine([f_n[scheme.grids[0].interior]])
    U_prev, U, V_prev, V = scheme.coefficients(state)
    W = V_prev - scheme.AinvD * U_prev
    U_next = U.copy()
    out = (scheme.lam2 * f_hat, np.empty_like(V))
    q = scheme.advance(U_next, U - U_prev, V, (W, scheme.DA * W), state.n, law, out)
    (new,) = scheme.states(state.n + 1, (U, U_next, V, out[1]), q)
    return new


def energy(state: StepperState, tau: float) -> EnergyRecord:
    """Energy of the window held by ``state`` (record index state.n - 1)."""
    scheme = _scheme_of(state, tau)
    U_prev, U, V_prev, V = scheme.coefficients(state)
    (E2,) = scheme.squared_energy((U - U_prev)[None], np.stack((V_prev, V)))[0]
    return EnergyRecord(state.n - 1, math.sqrt(E2))


def run_batch(
    problem,
    grids: list[Grid],
    tg: TimeGrid,
    observers: tuple = (),
) -> tuple[list[StepperState], np.ndarray, np.ndarray]:
    """Run ``problem`` on several grids of its dimension at once, N steps
    each with the same time grid (ending at U^{N+1}, time T).

    All runs advance together in one time loop, on one vector of sine
    coefficients; when f is a product g(t) * F(x[, y]), F is transformed
    once per grid and g evaluated once per run.  Observers are called with each
    grid's state after startup and after every step.  Returns the final
    state of each grid, in the order of ``grids``, and two arrays of shape
    (N+1, len(grids)): the energy E^n of each grid and its running
    stability bound E^0 + 2 tau sum_{j<=n} ||f^j||.  Besides the times t_n
    (and g(t_n)), these are the only arrays of a run that grow with N.  A
    :class:`damped_eb.damping.DampingError` names the grid whose run failed.
    """
    tau, N, law = tg.tau, tg.N, problem.law
    scheme = _SineScheme(list(grids), tau)

    def observe(n, i, q):
        for state in scheme.states(n, (U - D[i], U, V[i - 1], V[i]), q):
            for obs in observers:
                obs(state)

    # History of delta and V in blocks of `rows` windows, window i being
    # (D[i], V[i - 1], V[i]): row 0 carries delta^{n-1} and V^n in, the
    # steps fill rows 1.. (a delta row holds lam^2 f^n, staged at the
    # block's start, until its step), and a full block's energies take one pass.
    rows = max(2, _BLOCK_COEFFICIENTS // scheme.size)
    D = np.empty((rows + 1, scheme.size))
    V = np.empty_like(D)
    D_row, V_row = list(D), list(V)  # views made once
    energies = np.empty((N + 1, len(grids)))
    # a state that overflows is stopped by the guard on z (DampingError);
    # silence the overflow warnings it raises on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        times = np.arange(N + 1, dtype=float)
        times *= tau
        f_hat, force, bounds = scheme.forcing(problem.f, times)
        (_, U, V[0], V[1]), D[1], q, offsets = scheme.start(problem, f_hat)
        if observers:
            observe(1, 1, q)
        i = 1  # row of level n
        force(1, D[2 : min(rows, N + 1) + 1])
        for n in range(1, N + 1):
            if i == rows:
                energies[n - i : n] = scheme.squared_energy(D[1:], V)
                D[0], V[0] = D[i], V[i]
                i = 0
                force(n, D[1 : min(rows, N + 1 - n) + 1])
            out = (D_row[i + 1], V_row[i + 1])
            q = scheme.advance(U, D_row[i], V_row[i], offsets[(n - 1) & 1], n, law, out)
            i += 1
            if observers:
                observe(n + 1, i, q)
        energies[N + 1 - i :] = scheme.squared_energy(D[1 : i + 1], V[: i + 1])
        np.sqrt(energies, out=energies)
        bounds[0] = 0.0  # the bound sums ||f^j|| over j >= 1
        np.cumsum(bounds, axis=0, out=bounds)
        bounds *= 2.0 * tau
        bounds += energies[0]
    return scheme.states(N + 1, (U - D[i], U, V[i - 1], V[i]), q), energies, bounds


def run(
    problem,
    grid: Grid,
    tg: TimeGrid,
    observers: tuple = (),
) -> tuple[StepperState, list[EnergyRecord]]:
    """Initialize and take N steps (ending at U^{N+1}, time T): the batch of
    one grid of :func:`run_batch`.

    The grid sets the dimension: a ``Grid1D`` runs a beam, a ``Grid2D`` a
    plate.  Observers are callables invoked with the state after startup
    and after every step.  Returns the final state and one energy record
    per level, each carrying the running stability bound
    E^0 + 2 tau sum ||f^j||.  The steps run on sine coefficients; nodal
    states are built only for observers and the result.
    """
    (state,), energies, bounds = run_batch(problem, [grid], tg, observers)
    levels = zip(energies[:, 0].tolist(), bounds[:, 0].tolist())
    return state, [EnergyRecord(n, E, bound) for n, (E, bound) in enumerate(levels)]


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
