"""The compact scheme for the damped beam on (0, 1) and plate on (0, 1)^2.

The fourth-order equation u_tt + q(t) u_t + Lap^2 u = f is reduced with the
auxiliary variable v = Lap u and discretized by the implicit two-level
compact scheme (U and V vanish on the boundary)

    A (U^{n+1} - 2U^n + U^{n-1})/tau^2
        + q_n A (U^{n+1} - U^{n-1})/(2 tau)
        + D (V^{n+1} + V^{n-1})/2          = A f^n,
    A (V^{n+1} - V^{n-1})                  = D (U^{n+1} - U^{n-1}),

with (A, D) the compact average and second difference on a beam and the
tensor operators (H, Phi) on a plate, and the nonlocal coefficient
q_n = P(||V^n||^2), the b-norm (1D) resp. f-norm (2D) realizing Simpson's
rule.  The right side averages f with the left side's stencil, as in
Collatz's Mehrstellen form: f is evaluated on the closed grid, so A f^n
reads f's boundary values at the first and last interior nodes (under
hinged conditions u_xxxx = f on the boundary, which need not vanish).
Both operators are diagonal in the (tensor) sine (DST-I) basis of
the interior, so one scheme, whose dimension comes from the grid, steps
the sine coefficients (hats) elementwise; lam and mu denote the symbols of
A and D.  As A and D commute and the startup sets V^0 = A^{-1} D U^0 and
V^1 = A^{-1} D U^1, the second equation gives V^n = A^{-1} D U^n at every
level of a run.  So V needs no recursion of its own, and substituting it
into the first equation premultiplied by A leaves a recurrence on U alone.
It is stepped in its increment (summed) form: with delta^n = U^{n+1} - U^n,
c_n = q_n/(2 tau) and Q = lam^2/tau^2 + mu^2/2,

    (Q + c_n lam^2) deltah^n = lam (A f)h^n - mu^2 Uh^n
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

The nodal :func:`step` takes any window: its offset W = V^{n-1} - A^{-1} D
U^{n-1}, which the second equation carries to V^{n+1}, enters the right
side as -mu lam Wh and is added to the recovered V^{n+1}.

A run steps a batch of grids of one dimension with one tau (a spatial
study steps all its grids in one time loop; a single run is a batch of
one) on one concatenated coefficient vector, U one running vector.  A step
takes the same path for any number of grids: the flips by one permutation
gather per axis and z by one product with per-grid weight rows; one call
of the law on the array of z; c_n lam^2 by one product of q_n with
per-grid weight rows; and one elementwise update of the whole batch into
a row of a history block of delta, V, z and q, every array it writes
allocated once per run.  A forcing f = g(t) F(x[, y]) is staged: F is
averaged and transformed once per grid, g evaluated once on the t_n of a
block, and one outer product writes lam (A f^n)h into the block's rows of
f.  A full block passes one damping guard (a failure is raised at the end
of the block that holds it but names the failing level).  For a caller's
hook, its energies, energy-balance defects and stability bounds are then
taken in one pass (its size is a fixed number of coefficients, so it
stays in cache) and handed over; a run keeps nothing whose size grows
with N.

Startup: U^0 samples u0; V^0 = A^{-1} D U^0; delta^0 = tau*u1 +
(tau^2/2)*u2 with the consistent acceleration
u2 = -q(0)*u1 - A^{-1} D V^0 + A^{-1} (A f^0), and U^1 = U^0 + delta^0.
The startup forms (A f^0)h/lam itself, so a staged or sampled forcing
serves only the steps n >= 1.

The module also carries the discrete energy

    E^n = sqrt(||A dU^{n+1}/tau||^2 + (||A V^{n+1}||^2 + ||A V^n||^2)/2),

whose balance E_n^2 - E_{n-1}^2 + q_n/(2 tau) ||A s||^2 = (A f^n, A s),
s = U^{n+1} - U^{n-1}, holds at every step (the scheme's first equation
against A s), so E is non-increasing when f = 0; the companion stability
bound E^n <= E^0 + 2 tau sum ||f^j||, where ||f|| = sqrt(cell sum f^2)
sums over every node of the closed grid: along each axis
((a + 10b + c)/12)^2 <= (a^2 + 10b^2 + c^2)/12, so ||A f|| <= ||f||, which
bounds (A f^n, A s) by ||f^n|| ||A s||; and an RK4 method-of-lines
integrator for the spatially semi-discrete beam, used as an independent
reference solution (nodal stencils and solves of A only).
"""
from __future__ import annotations

import dataclasses
import functools
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
    "bound_violations",
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
    u0 and u1 must not depend on t and must vanish on the boundary (to
    1e-12 of their largest magnitude on the grid), or the startup raises
    ValueError.  ``dimension`` names the grid the problem lives on (the
    plate subclass sets 2).
    """

    dimension: ClassVar[int] = 1
    u0: object
    u1: object
    f: object
    law: DampingLaw
    T: float


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
    q_n is one scalar per grid, and the per-grid values (z, E, q_n)
    meet the coefficients only through weight matrices built once, so one
    path serves any number of grids.  A step (:meth:`advance`) reads U^n,
    the increment delta^{n-1} = U^n - U^{n-1} and q_n, writes delta^n by
    the increment form of the recurrence on U, adds it to U in place and
    recovers V^{n+1} = A^{-1} D U^{n+1} (module docstring).  A step
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
        self.lam = lam
        self.lam2 = lam * lam
        self.mu2 = mu * mu
        self.DA = mu * lam  # symbol of D A
        self.AinvD = mu / lam  # symbol of A^{-1} D
        self.Q = self.lam2 / (tau * tau) + 0.5 * self.mu2
        # Per-grid and per-coefficient values meet only in products with one
        # row (z, c_n lam^2) or column (E^2) of weights per grid, zero
        # off its block: cell for z, lam2/(2 tau) for
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
        # the step's scratch: two coefficient vectors
        self.work = np.empty((2, lam.size))

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

    def average(self, fields: list[np.ndarray]) -> np.ndarray:
        """Coefficients of the compact average A f (H f on a plate) of one
        nodal field per grid, boundary values included."""
        return self.sine([
            functools.reduce(operators._compact_along, range(f.ndim), f)[g.interior]
            for g, f in zip(self.grids, fields)
        ])

    def sample(self, f, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(A f)h of ``f`` at time t on every grid, f evaluated on the closed
        grid, and ||f|| = sqrt(cell sum f^2) over all its nodes per grid."""
        fields = [mesh.evaluate(g, f, t) for g in self.grids]
        norms = [g.cell * np.sum(v * v) for g, v in zip(self.grids, fields)]
        return self.average(fields), np.sqrt(norms)

    def coefficients(self, state: StepperState) -> np.ndarray:
        """Window of a state on a batch of one grid, one level per row."""
        (grid,) = self.grids
        fields = np.stack((state.U_prev, state.U_curr, state.V_prev, state.V_curr))
        return self.sine([fields[(Ellipsis,) + grid.interior]])

    def states(self, n: int, window, q) -> list[StepperState]:
        """One nodal state per grid at index n, given q_n per grid."""
        fields = self.nodal(np.stack(window))
        return [StepperState(n, *f, q_i) for f, q_i in zip(fields, q.tolist())]

    def integral(self, V: np.ndarray, z: np.ndarray) -> None:
        """Writes z = ||V||^2 per grid into ``z``, where c -> c + flip(c)/3
        along each axis."""
        w = V
        for flip, out in zip(self.flips, self.work):
            # (mode="raise" would buffer the gather; the index is valid)
            w.take(flip, out=out, mode="wrap")
            out *= 1.0 / 3.0
            out += w
            w = out
        w *= V
        np.dot(self.z_weights, w, out=z)

    def forcing(self, f):
        """The map (n, rows, norms=None) that writes the coefficients of
        lam (A f^{n+k})h, f^j = f(., j tau), into rows[k] for each k, and
        ||f^{n+k}|| per grid (:meth:`sample`) into norms[k] when norms is
        given (:meth:`start` samples f^0 itself).

        An expression g(t) * F(x[, y]) (:func:`damped_eb.expr.split_time`) is
        staged: F is sampled and averaged once, g evaluated on the times
        of a call, and the call is one outer product.  Any other f, an F
        that leaves its domain, or a call whose times take g out of its
        domain, is sampled at each time (naming the node where it fails).
        """
        split = expr_mod.split_time(f) if hasattr(f, "_eval") else None
        if split is not None:
            g, F = split
            try:
                AF_hat, F_norms = self.sample(F, 0.0)
            except expr_mod.DomainError:
                split = None
            else:
                lam_AF = self.lam * AF_hat

        def force(n, rows, norms=None):
            times = np.arange(n, n + len(rows), dtype=float)
            times *= self.tau
            if split is not None:
                try:
                    g_n = expr_mod.evaluate(g, t=times) if g else np.ones_like(times)
                except expr_mod.DomainError:
                    pass  # sample this call's levels, naming the failing node
                else:
                    np.multiply(g_n[:, None], lam_AF, out=rows)
                    if norms is not None:
                        np.multiply(g_n[:, None], F_norms, out=norms)
                        np.abs(norms, out=norms)
                    return
            for k, row in enumerate(rows):
                Af_hat, f_norms = self.sample(f, times.item(k))
                if norms is not None:
                    norms[k] = f_norms
                np.multiply(self.lam, Af_hat, out=row)

        return force

    def initial(self, problem, key: str) -> np.ndarray:
        """Coefficients of the initial datum ``key`` (u0 or u1) on every grid;
        raises ValueError on a datum :func:`damped_eb.mesh.initial` rejects."""
        u = getattr(problem, key)
        return self.sine([mesh.initial(g, u, key)[g.interior] for g in self.grids])

    def start(self, problem, z0, q0):
        """Startup at n = 1: the window (U^0, U^1, V^0, V^1) and
        delta^0 = tau u1 + (tau^2/2) u2 with
        u2 = -q_0 u1 - A^{-1} D V^0 + A^{-1} (A f^0) (each sampled at t = 0;
        z_0 and q_0 per grid written, unchecked, into z0 and q0).  Raises
        ValueError on initial data :meth:`initial` rejects."""
        tau = self.tau
        Af_hat, _ = self.sample(problem.f, 0.0)
        U0 = self.initial(problem, "u0")
        V0 = self.AinvD * U0
        self.integral(V0, z0)
        problem.law.evaluate(z0, q0)
        bilap = self.AinvD * V0
        u1 = self.initial(problem, "u1")
        u2 = -q0[self.owner] * u1 - bilap + Af_hat / self.lam
        d = tau * u1 + 0.5 * tau * tau * u2
        U1 = U0 + d
        window = (U0, U1, V0, self.AinvD * U1)
        return window, d

    def advance(self, U, d, q, F, out) -> None:
        """Writes delta^n and V^{n+1} into ``out`` and adds delta^n to U in
        place, given U^n, d = delta^{n-1}, q_n per grid and the coefficients
        F of lam (A f^n)h."""
        b, c = self.work
        d_next, V_next = out
        np.multiply(self.mu2, U, out=b)
        np.subtract(F, b, out=d_next)
        np.dot(q, self.c_weights, out=c)  # c_n lam^2
        np.subtract(self.Q, c, out=b)
        b *= d
        d_next += b
        c += self.Q
        d_next /= c
        U += d_next
        np.multiply(self.AinvD, U, out=V_next)

    def squared_energy(self, D: np.ndarray, V: np.ndarray) -> np.ndarray:
        """E^2 per grid (columns) of each window (delta^k, V^k, V^{k+1}),
        given the increments as rows of D and the levels of V as the rows of
        V (one more); by Parseval ||A u|| = ||lam * uh||."""
        V2 = (V * V) @ self.V_weights
        return (D * D) @ self.dU_weights + V2[1:] + V2[:-1]

    def balance(self, E2_prev, E2, D, F, q) -> np.ndarray:
        """Defect per grid (columns) of the energy balance (module docstring)
        of each step n: rows of E2, F and q hold E_n^2, lam (A f^n)h and q_n, of
        D delta^{n-1}, delta^n, ... (one more), s = U^{n+1} - U^{n-1}."""
        s = D[1:] + D[:-1]
        As2 = (s * s) @ self.V_weights  # ||A s||^2 / 2
        As2 *= q / self.tau
        As2 -= (F * s) @ self.z_weights.T  # (A f^n, A s)
        return As2 + np.diff(E2, axis=0, prepend=E2_prev[None])


@functools.lru_cache(maxsize=8)
def _nodal_scheme(shape: tuple[int, ...], tau: float) -> _SineScheme:
    """The scheme of the lone grid with node shape ``shape``, shared by the
    nodal :func:`init`, :func:`step` and :func:`energy`, so a loop of nodal
    steps builds it once (with its scratch: one thread at a time may call
    them)."""
    return _SineScheme([mesh.grid_of(shape)], tau)


def init(problem, grid: Grid, tg: TimeGrid) -> StepperState:
    """Startup levels (U^0, U^1, V^0, V^1); the state sits at n = 1."""
    scheme = _nodal_scheme(grid.shape, tg.tau)
    z, q = np.empty((2, 1, 1))  # level 0 of one grid
    with np.errstate(all="ignore"):  # a failing q_0 is raised by the guard
        window, _ = scheme.start(problem, z[0], q[0])
    damping_mod.check_levels(problem.law, z, q, 0, tg.tau, scheme.grids)
    (state,) = scheme.states(1, window, q[0])
    return state


def step(
    state: StepperState, f_n: np.ndarray, tau: float, law: DampingLaw
) -> StepperState:
    """Advance any window one level: solve for U^{n+1}, then recover V^{n+1},
    carrying the window's offset W (module docstring).  ``f_n`` holds f^n
    at every node, boundary included, and the right side averages it
    there.  The new state holds the given U^n and V^n as its U_prev and
    V_prev."""
    scheme = _nodal_scheme(state.U_curr.shape, tau)
    U_prev, U, V_prev, V = scheme.coefficients(state)
    W = V_prev - scheme.AinvD * U_prev
    U_next = U.copy()
    d_next, V_next = np.empty_like(U), np.empty_like(V)
    F = scheme.lam * scheme.average([f_n]) - scheme.DA * W
    z, q = np.empty((2, 1, 1))  # level n of one grid
    scheme.integral(V, z[0])
    law.evaluate(z[0], q[0])
    damping_mod.check_levels(law, z, q, state.n, tau, scheme.grids)
    scheme.advance(U_next, U - U_prev, q[0], F, (d_next, V_next))
    V_next += W
    ((U_new, V_new),) = scheme.nodal(np.stack((U_next, V_next)))
    return StepperState(state.n + 1, state.U_curr, U_new, state.V_curr, V_new, q.item())


def energy(state: StepperState, tau: float) -> EnergyRecord:
    """Energy of the window held by ``state`` (record index state.n - 1)."""
    scheme = _nodal_scheme(state.U_curr.shape, tau)
    U_prev, U, V_prev, V = scheme.coefficients(state)
    (E2,) = scheme.squared_energy((U - U_prev)[None], np.stack((V_prev, V)))[0]
    return EnergyRecord(state.n - 1, math.sqrt(E2))


def run_batch(
    problem,
    grids: list[Grid],
    tg: TimeGrid,
    on_block=None,
) -> list[StepperState]:
    """Run ``problem`` on several grids of its dimension at once, N steps
    each with the same time grid (ending at U^{N+1}, time T), and return the
    final state of each grid, in the order of ``grids``.

    All runs advance together in one time loop, on one vector of sine
    coefficients; when f is a product g(t) * F(x[, y]), F is transformed
    once per grid and g evaluated once per block of levels.  A run keeps
    nothing whose size grows with N.  A :class:`damped_eb.damping.DampingError`
    names the failing level and grid.

    ``on_block``, if given, receives the run's per-level outputs: it is
    called as each block of levels n0..n0+m-1 passes the guard (the blocks
    cover 0..N in order) with n0 and views, valid during the call, of shape
    (m, len(grids)): q_n, z_n = ||V^n||^2, E_n^2, the defect of the energy
    balance (module docstring; 0 at n = 0) and the stability bound
    E^0 + 2 tau sum_{1<=j<=n} ||f^j||.  Without it a run takes no energies
    and no norms of f.
    """
    tau, N, law = tg.tau, tg.N, problem.law
    scheme = _SineScheme(list(grids), tau)
    # History of delta, V, lam (A f^n)h, z_n and q_n in blocks of `rows`
    # windows, window i being (D[i], V[i - 1], V[i]): row 0 carries delta^{n-1}
    # and V^n in, the step that writes D[i] reads F[i] (staged at the block's
    # start) and writes its z_n and q_n into Z[i] and Q[i]; a full block is
    # checked by one guard.  For the hook, B[i] holds ||f^n||, then the bound,
    # and E2[i] E_n^2, row 0 carrying the E^2 of the level before the block.
    rows = max(2, _BLOCK_COEFFICIENTS // scheme.size)
    D, V, F = np.zeros((3, rows + 1, scheme.size))
    Z, Q, E2, B = np.zeros((4, rows + 1, len(grids)))
    D_row, V_row, F_row, Z_row, Q_row = map(list, (D, V, F, Z, Q))  # views, once
    E0, total = np.zeros((2, len(grids)))  # E^0, and sum ||f^j|| before the block

    def prepare(n, first):  # rows first.. of F (and B) with the levels from n on
        end = min(rows, N + first - n) + 1
        force(n, F[first:end], None if on_block is None else B[first:end])

    def close(n0, m):  # the block of levels n0 .. n0 + m - 1, in rows 1 .. m
        damping_mod.check_levels(law, Z[1 : m + 1], Q[1 : m + 1], n0, tau, grids)
        if on_block is None:
            return
        E2[1 : m + 1] = scheme.squared_energy(D[1 : m + 1], V[: m + 1])
        if n0 == 0:  # level 0: no step before it
            E2[0] = E2[1]
            np.sqrt(E2[1], out=E0)
        parts = D[: m + 1], F[1 : m + 1], Q[1 : m + 1]
        defect = scheme.balance(E2[0], E2[1 : m + 1], *parts)
        bound = B[1 : m + 1]  # ||f^n||, 0 at n = 0
        bound[0] += total
        np.cumsum(bound, axis=0, out=bound)
        total[...] = bound[-1]
        bound *= 2.0 * tau
        bound += E0
        E2[0] = E2[m]
        on_block(n0, Q[1 : m + 1], Z[1 : m + 1], E2[1 : m + 1], defect, bound)

    # a failing level (or an overflow) is raised by the guard as its block
    # closes; silence the warnings of the levels after it, thrown away then
    with np.errstate(all="ignore"):
        force = scheme.forcing(problem.f)
        (_, U, V[0], V[1]), D[1] = scheme.start(problem, Z[1], Q[1])
        D[0] = -D[1]  # level 0: s = f = 0, no defect
        n0, i = 0, 1  # rows 1 .. i hold the levels n0 .. n0 + i - 1
        try:
            prepare(1, 2)
            for n in range(1, N + 1):
                if i == rows:
                    close(n0, i)
                    D[0], V[0] = D[i], V[i]
                    prepare(n, 1)
                    n0, i = n, 0
                z, q, out = Z_row[i + 1], Q_row[i + 1], (D_row[i + 1], V_row[i + 1])
                scheme.integral(V_row[i], z)
                law.evaluate(z, q)
                scheme.advance(U, D_row[i], q, F_row[i + 1], out)
                i += 1
        except damping_mod.DampingError:  # from the guard of a closing block
            raise
        except Exception:  # from a law, forcing or hook: name an earlier failure first
            damping_mod.check_levels(law, Z[1 : i + 1], Q[1 : i + 1], n0, tau, grids)
            raise
        close(n0, i)
    return scheme.states(N + 1, (U - D[i], U, V[i - 1], V[i]), Q[i])


def run(
    problem,
    grid: Grid,
    tg: TimeGrid,
) -> tuple[StepperState, list[EnergyRecord]]:
    """Initialize and take N steps (ending at U^{N+1}, time T): the batch of
    one grid of :func:`run_batch`.

    The grid sets the dimension: a ``Grid1D`` runs a beam, a ``Grid2D`` a
    plate.  Returns the final state and one energy record per level, each
    carrying the running stability bound E^0 + 2 tau sum ||f^j||, collected
    through the hook.  The steps run on sine coefficients; the nodal state
    is built only for the result.
    """
    blocks = []

    def keep(n0, q, z, E2, defect, bound):
        blocks.append(np.hstack((E2, bound)))

    (state,) = run_batch(problem, [grid], tg, keep)
    E2, bound = np.concatenate(blocks).T
    levels = zip(np.sqrt(E2).tolist(), bound.tolist())
    return state, [EnergyRecord(n, E, b) for n, (E, b) in enumerate(levels)]


def bound_violations(
    E: np.ndarray, bound: np.ndarray, tol: float
) -> list[tuple[int, float]]:
    """(n, excess) at each level n where E^n > bound^n + tol*(1 + E^0), from
    the arrays of E^n and of the bound (a grid's columns, over all blocks, of
    :func:`run_batch`'s hook); a NaN energy counts as a violation."""
    slack = tol * (1.0 + E[0])
    (n,) = np.nonzero(~(E <= bound + slack))
    return list(zip(n.tolist(), (E[n] - bound[n] - slack).tolist()))


def stability_check(records: list[EnergyRecord], tol: float = 1e-10) -> StabilityReport:
    """Check E^n <= E^0 + 2 tau sum_{j<=n} ||f^j|| + tol*(1 + E^0) at every n
    (:func:`bound_violations` on the records' energies and bounds)."""
    E, bound = np.array([(r.E, r.bound) for r in records]).T
    violations = [(records[k].n, x) for k, x in bound_violations(E, bound, tol)]
    return StabilityReport(not violations, tol, violations)


def mol_reference(
    problem: Problem1D, grid: Grid1D, t_end: float, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical RK4 on the semi-discrete system; returns (U, U', V) at t_end.

    The system integrated is U' = W, A W' = A f - q(t) A W - D V,
    A V' = D W with q(t) = P(||V||_b^2), A f reading f on the closed grid
    as the scheme's right side does.  The caller picks dt; stability
    of RK4 on this stiff system needs roughly dt <= h^2/4.  Raises
    ValueError on initial data :func:`damped_eb.mesh.initial` rejects.
    """
    h = grid.h
    U = mesh.initial(grid, problem.u0, "u0")
    W = mesh.initial(grid, problem.u1, "u1")
    V = operators.solve_A(operators.apply_D(U, h))
    nsteps = max(1, round(t_end / dt))
    dt = t_end / nsteps

    def deriv(t, u, w, v):
        q = damping_mod.q_coefficient(v, problem.law)
        f = operators.solve_A(operators.apply_A(mesh.evaluate(grid, problem.f, t)))
        dw = f - q * w - operators.solve_A(
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
