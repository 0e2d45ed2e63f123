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
so along each axis c -> h (c + flip(c)/3), and ||V||^2 = Vh . M Vh with M
the product of these maps; in 1D that is h (Vh.Vh + Vh.Vh[::-1]/3).  M is
symmetric, so ||V||^2 sums M_ij Vh_i Vh_j over the pairs i <= j where M is
nonzero (about 1.5 pairs per coefficient in 1D, 2.5 in 2D).

The nodal :func:`step` takes any window: its offset W = V^{n-1} - A^{-1} D
U^{n-1}, which the second equation carries to V^{n+1}, enters the right
side as -mu lam Wh and is added to the recovered V^{n+1}.

A run steps a batch of grids of one dimension with one tau (a spatial
study steps all its grids in one time loop; a single run is a batch of
one) on one concatenated coefficient vector.  A level takes one fixed
list of nine numpy calls (sqrt law; eight with the linear or constant
law) for any dimension and number of grids: z = ||A^{-1} D U^n||^2 by one
gather of both factors of every pair from U^n, their product and one
product with per-grid weight rows (the symbols of A^{-1} D folded in),
which also writes a + b z for the law P = phi(a + b z) (a law without a
named form as a = 0, b = 1), so only phi is left; Q -+ c_n lam^2 by one
product of (q_n, 1) with stacked per-grid
rows; and the update in five more calls, every array allocated once per
run.  A forcing f = g(t) F(x[, y]) is staged: F is averaged and
transformed once per grid, lam (A F)h enters the numerator through the
level's coefficient row (1, 1, g(t_n)), and g is evaluated once on the
t_n of a block; any other f is sampled as each level is stepped.  The
time loop hands the step a block of levels per call, as views taken once
per run, so a level costs those numpy calls and little else; the nodal
step is the same call on a block of one level.  A full block passes one
damping guard (a failure is raised at the end of the block that holds it
but names the failing level).  A run with a hook keeps a row of U and
delta per level of a short block: V = A^{-1} D U is formed once per
block, and the hook's energies, energy-balance defects and stability
bounds are taken in one pass (its size is a fixed number of
coefficients, so it stays in cache) and handed over.  A run without one
steps on a ring of two rows in blocks of a few hundred levels and forms V
for its final states only.  A run keeps nothing whose size grows with N.

Startup: U^0 samples u0; V^0 = A^{-1} D U^0; delta^0 = tau*u1 +
(tau^2/2)*u2 with the consistent acceleration
u2 = -q(0)*u1 - A^{-1} D V^0 + A^{-1} (A f^0), and U^1 = U^0 + delta^0.
z_0 and q(0) come from the step itself on level 0's rows, whose update
is then overwritten.  The startup forms (A f^0)h/lam itself, so a staged
or sampled forcing serves only the steps n >= 1.

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
import operator
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


# Coefficients of U that one guard block of a hooked run holds, one row per
# level for its energy pass: 64 kB per array, which stays in cache.  A 1D
# spatial study J = 2..32 (119 coefficients) gets 68 rows per block, a lone
# 2D J = 16 grid (961) 8 and a J = 32 grid (3,969) the floor of 8, as a
# block's fixed costs outweigh the cache there.  A run without a hook steps
# on a ring of two rows, so its blocks hold _RING_LEVELS levels of z and q.
_BLOCK_COEFFICIENTS = 8192
_RING_LEVELS = 256


def _block_levels(size: int, hooked: bool) -> int:
    """Levels one guard block of a run on ``size`` coefficients holds."""
    return max(8, _BLOCK_COEFFICIENTS // size) if hooked else _RING_LEVELS


class IntegrationError(RuntimeError):
    """Explicit time integration diverged (reduce the step size)."""


@dataclasses.dataclass
class Problem1D:
    """Problem data u_tt + q u_t + u_xxxx = f on (0,1) with hinged ends.

    ``u0``/``u1``/``f`` are expression trees or callables ``(x, t)``;
    u0 and u1 must not depend on t and must vanish on the boundary (to
    1e-12 of their largest finite magnitude on the grid), or the startup
    raises ValueError.  ``dimension`` names the grid the problem lives on (the
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
    path serves any number of grids.  :meth:`advance` steps through a
    block of levels: per level it takes z_n = ||V^n||^2 from U^n (V^n =
    A^{-1} D U^n, module docstring) and q_n = P(z_n) (:meth:`product`),
    then writes delta^n by the increment form of the recurrence on U from
    U^n, the increment delta^{n-1} = U^n - U^{n-1}, q_n and f^n, and
    U^{n+1} = U^n + delta^n, in nine numpy calls with the sqrt law.  A step
    writes only into arrays allocated once, with the scheme or the run
    (:meth:`history`); transforms run per grid, only at the ends of a run.
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
        lam = np.concatenate([x.ravel() for x in lams])
        mu = np.concatenate([x.ravel() for x in mus])
        self.size = lam.size
        self.lam = lam
        self.lam2 = lam * lam
        self.DA = mu * lam  # symbol of D A
        self.AinvD = mu / lam  # symbol of A^{-1} D
        Q = self.lam2 / (tau * tau) + 0.5 * mu * mu
        # Per-grid and per-coefficient values meet only in products with one
        # row (z, the update's coefficients) or column (E^2) of weights per
        # grid, zero off its block.  One term of each sum is nonzero and q_n
        # is finite, so spreading q_n is exact.
        #
        # z = Vh . M Vh per grid, M the sum over the copies of V flipped
        # along each subset of the axes weighted cell * 3^-(axes flipped)
        # (module docstring).  M is symmetric, so z sums M_kk V_k^2 and, for
        # each flip, 2 M_kj V_k V_j over its pairs k < j; as Vh = A^{-1} D Uh,
        # each pair's weight carries the symbols (A^{-1} D)_k (A^{-1} D)_j and
        # z is read from U: one gather of both factors of every term (the j,
        # then the k), one product of the two and one with a weight row per
        # grid, whose last column meets the constant 1 kept after the products
        # (:meth:`product`).
        self.owner = owner = np.repeat(np.arange(len(grids)), sizes)
        k = np.arange(lam.size)
        copies = [[np.arange(x.size).reshape(x.shape) for x in lams]]
        for axis in range(-1, -1 - len(self.shapes[0]), -1):
            copies += [[np.flip(i, axis) for i in copy] for copy in copies]
        # copy c is flipped along the axes of c's set bits (bit 0 the last)
        third = 1.0 / 3.0  # Simpson's weight of a flipped axis
        flip_weights = [third ** bin(c).count("1") for c in range(len(copies))]
        diagonal = np.zeros(lam.size)
        i, j, M = [k], [k], [diagonal]
        for copy, w in zip(copies, flip_weights):
            flipped = np.concatenate([a + c.ravel() for a, c in zip(starts, copy)])
            diagonal += w * (flipped == k)
            pair = k < flipped
            i.append(k[pair])
            j.append(flipped[pair])
            M.append(np.full(i[-1].size, 2.0 * w))
        i, j, M = (np.concatenate(x) for x in (i, j, M))
        self.gather = np.concatenate((j, i))
        grid = owner[i]
        self.z_weights = np.zeros((len(grids), M.size + 1))
        M *= cell[grid] * self.AinvD[i] * self.AinvD[j]
        self.z_weights[grid, np.arange(M.size)] = M
        self.cell_weights = np.zeros((len(grids), lam.size))
        self.cell_weights[owner, k] = cell[owner]
        # The update's coefficients Q -+ c_n lam^2, c_n lam^2 = q_n lam2/(2 tau),
        # as a product of (q_1, ..., q_G, 1) with `stack`: per grid, each
        # part's sign times lam2/(2 tau) on the grid's block; last, Q.
        stack = np.zeros((len(grids) + 1, 2, lam.size))
        for p, (constant, sign) in enumerate([(Q, -1.0), (Q, 1.0)]):
            stack[owner, p, k] = sign * self.lam2 / (2.0 * tau)
            stack[-1, p] = constant
        self.stack = stack.reshape(len(grids) + 1, -1)
        self.V_weights = np.zeros((lam.size, len(grids)))
        self.V_weights[k, owner] = 0.5 * cell[owner] * self.lam2
        self.dU_weights = (2.0 / (tau * tau)) * self.V_weights
        # the step's scratch: the factors of z's pairs, the j then the k
        # (`taken`), the k row becoming their `products`, then a constant 1;
        # the update's coefficients -mu^2, Q - c_n lam^2 (the `parts` that
        # multiply U^n and delta^{n-1}) and Q + c_n lam^2 (`plus`), the last two
        # written by the product with `stack` (into `Q_pm`); and the numerator's
        # terms T: the two products P, then the level's lam (A F)h
        factors = np.ones(2 * M.size + 1)
        self.taken, self.products = factors[:-1], factors[M.size :]
        self.f_j, self.f_i = factors[: M.size], factors[M.size : -1]
        self._weights = {}  # the product's rows of each fold (a, b)
        coef = np.empty((3, lam.size))
        coef[0] = -mu * mu
        self.parts, self.plus, self.Q_pm = coef[:2], coef[2], coef[1:].reshape(-1)
        self.T = np.zeros((3, lam.size))
        self.P = self.T[:2]

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

    def product(self, law: DampingLaw):
        """(weights, phi): z's product for ``law``, P = phi(a + b z), and what
        is left of the law after it.  ``weights.dot`` of the pair products
        and the constant 1 after them writes (z, a + b z) per grid, then phi
        (None for the identity) writes q over a + b z, in place.  (a, b, phi)
        is a named law's :attr:`damped_eb.damping.DampingLaw.fold` and any
        other law's (0, 1, :meth:`DampingLaw.evaluate`), whose a + b z is z
        as the second half of the rows sums it (BLAS may round it apart from
        the first half's z in the last bit)."""
        a, b, phi = law.fold or (0.0, 1.0, law.evaluate)
        weights = self._weights.get((a, b))
        if weights is None:
            weights = np.vstack((self.z_weights, b * self.z_weights))
            weights[len(self.grids) :, -1] = a
            self._weights[a, b] = weights
        return weights, phi

    def history(self, levels: int, hooked: bool):
        """The rows of a guard block of ``levels`` levels and the tuples of
        :meth:`advance` on them: (X, C, R, steps).  The step from row j, at
        level n, reads X[j] = (U^n, delta^{n-1}) and C[j] = (1, 1, g_n), so
        that C[j] . T adds lam (A f^n)h = g_n lam (A F)h to the numerator; it
        writes z_n and q_n per grid into R[j + 1] = (z_1..z_G, q_1..q_G, 1) and
        (U^{n+1}, delta^n) into X[j + 1].  A hooked run keeps a row of X per
        level for its energy pass; any other run steps on a ring of two rows
        of X (row j is X[j % 2]), so its memory does not grow with
        ``levels``."""
        rows, g = levels + 1, len(self.grids)
        X = np.zeros((rows if hooked else 2, 2, self.size))
        C = np.ones((rows, 3))
        R = np.ones((rows, 2 * g + 1))

        def ring(a):  # the row of ``a`` that rows 0 .. levels view
            views = list(a)
            return [views[k % len(views)] for k in range(rows)]

        U, D, Xs = map(ring, (X[:, 0], X[:, 1], X))
        zq, q, q1 = map(list, (R[:, : 2 * g], R[:, g:-1], R[:, g:]))
        columns = U, Xs, list(C), zq[1:], q[1:], q1[1:], U, D[1:], U[1:]
        return X, C, R, list(zip(*columns))

    def forcing(self, f):
        """The map (n, levels, g, norms=None, rows=None) that serves
        lam (A f^{n+k})h, f^j = f(., j tau), to the k-th of ``levels`` (tuples
        of :meth:`advance`) as g[k] times T's last row, and returns the levels
        to step (``levels`` itself where f is staged).  A hooked run also
        passes ``norms`` and ``rows``, and gets ||f^{n+k}|| per grid
        (:meth:`sample`) in norms[k] (:meth:`start` samples f^0 itself) and
        lam (A f^{n+k})h in rows[k]: g[k] lam (A F)h where f is staged, T's
        last row of level k where it is sampled.  So only this map knows
        which.

        An expression g(t) * F(x[, y]) (:func:`damped_eb.expr.split_time`) is
        staged: F is sampled and averaged once, lam (A F)h written into T
        here, and g evaluated on the times of a call.  Any other f, an F that
        leaves its domain, or a call whose times take g out of its domain (and
        each call after it) is sampled: g is 1, and T's last row is written
        as each level is taken from the returned iterator (naming the node
        where f fails).
        """
        T = self.T
        split = expr_mod.split_time(f) if hasattr(f, "_eval") else None
        if split is not None:
            g, F = split
            try:
                AF_hat, F_norms = self.sample(F, 0.0)
            except expr_mod.DomainError:
                split = None
            else:
                np.multiply(self.lam, AF_hat, out=T[2])

        def force(n, levels, g_n, norms=None, rows=None):
            nonlocal split
            times = np.arange(n, n + len(g_n), dtype=float)
            times *= self.tau
            if split is not None:
                try:
                    g_n[...] = expr_mod.evaluate(g, t=times) if g else 1.0
                except expr_mod.DomainError:
                    split = None  # sample from here on, naming the failing node
                else:
                    if norms is not None:
                        np.multiply(g_n[:, None], F_norms, out=norms)
                        np.abs(norms, out=norms)
                        np.multiply(g_n[:, None], T[2], out=rows)
                    return levels
            g_n[...] = 1.0
            return sampled(levels, times, norms, rows)

        def sampled(levels, times, norms, rows):
            for k, level in enumerate(levels):
                Af_hat, f_norms = self.sample(f, times.item(k))
                np.multiply(self.lam, Af_hat, out=T[2])
                if norms is not None:
                    norms[k] = f_norms
                    rows[k] = T[2]
                yield level

        return force

    def initial(self, problem, key: str) -> np.ndarray:
        """Coefficients of the initial datum ``key`` (u0 or u1) on every grid;
        raises ValueError on a datum :func:`damped_eb.mesh.initial` rejects."""
        u = getattr(problem, key)
        return self.sine([mesh.initial(g, u, key)[g.interior] for g in self.grids])

    def start(self, problem, level) -> None:
        """Startup at n = 1 on ``level``, the tuple of rows of level 0
        (:meth:`advance`): writes U^0 into its U^n, z_0 and q_0 per grid by
        :meth:`advance` on it (unchecked), then delta^0 = tau u1 + (tau^2/2) u2,
        u2 = -q_0 u1 - A^{-1} D V^0 + A^{-1} (A f^0) (each sampled at t = 0),
        and U^1 = U^0 + delta^0 over that step's delta^n and U^{n+1}.  Raises
        ValueError on initial data :meth:`initial` rejects."""
        tau = self.tau
        q0, _, U0, d_next, U1 = level[4:]  # q_0, U^0, delta^0, U^1
        Af_hat, _ = self.sample(problem.f, 0.0)
        U0[...] = self.initial(problem, "u0")
        self.advance(problem.law, [level])
        bilap = self.AinvD * (self.AinvD * U0)
        u1 = self.initial(problem, "u1")
        u2 = -q0[self.owner] * u1 - bilap + Af_hat / self.lam
        d_next[...] = tau * u1 + 0.5 * tau * tau * u2
        np.add(U0, d_next, U1)

    def advance(self, law, levels) -> None:
        """Steps through ``levels``, an iterable of one tuple of rows
        (S^n, X^n, c_n, (z_n, q_n), q_n, (q_n, 1), U^n, delta^n, U^{n+1}) per
        level (:meth:`history`), X^n holding (U^n, delta^{n-1}), c_n the
        coefficient row (1, 1, g_n) and S^n the row whose A^{-1} D image is V^n
        (U^n in a run), with the scheme's scratch T of two products P and
        lam (A F)h: per level, writes z_n = ||V^n||^2 and q_n = P(z_n) per
        grid, then delta^n and U^{n+1} = U^n + delta^n.  This is the one code
        that forms z and q: for a run, its startup (:meth:`start`) and the
        nodal :func:`step`.  Unchecked: the caller guards z and q.  A law that
        raises does so after its level's tuple was taken from ``levels``.

        A level is one fixed list of numpy calls, for any dimension and number
        of grids: three for z and a + b z (:meth:`product`), phi for what is
        left of the law (one for sqrt, none for the linear and constant laws;
        :meth:`DampingLaw.evaluate` for any other law) and five for the update:

            (q_n, 1) . stack   -> Q - c_n lam^2, Q + c_n lam^2
            (-mu^2, Q - c_n lam^2) * X^n
                               -> P = (-mu^2 U^n, (Q - c_n lam^2) delta^{n-1})
            (1, 1, g_n) . T    -> the numerator, into delta^n
            delta^n / (Q + c_n lam^2),  U^n + delta^n;

        nine with the sqrt law, eight with the linear or constant law.  The
        scheme's arrays, the law and the ufuncs are bound once per call, each
        ufunc is called with ``out`` by position (cheaper than an in-place
        operator) and the products are taken by ``ndarray.dot`` (np.dot's
        routine without its dispatch)."""
        weights, phi = self.product(law)
        gather, taken, f_i, f_j, products = (
            self.gather, self.taken, self.f_i, self.f_j, self.products
        )
        stack, Q_pm, parts, plus = self.stack, self.Q_pm, self.parts, self.plus
        T, P = self.T, self.P
        add, multiply, divide = np.add, np.multiply, np.divide
        for S, X, c, zq, q, q1, U, d_next, U_next in levels:
            # (mode="raise" would buffer the gather; the index is valid)
            S.take(gather, None, taken, "wrap")
            multiply(f_i, f_j, f_i)
            weights.dot(products, zq)
            if phi is not None:
                phi(q, q)
            q1.dot(stack, Q_pm)
            multiply(parts, X, P)
            c.dot(T, d_next)
            divide(d_next, plus, d_next)
            add(U, d_next, U_next)

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
        As2 -= (F * s) @ self.cell_weights.T  # (A f^n, A s)
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
    X, _, R, steps = scheme.history(1, hooked=False)  # level 0 of one grid
    with np.errstate(all="ignore"):  # a failing q_0 is raised by the guard
        scheme.start(problem, steps[0])
    q = R[1:, 1:2]
    damping_mod.check_levels(problem.law, R[1:, :1], q, 0, tg.tau, scheme.grids)
    U = X[:, 0]  # U^0, U^1
    return scheme.states(1, (*U, *(scheme.AinvD * U)), q[0])[0]


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
    X, _, R, steps = scheme.history(1, hooked=False)  # level n of one grid
    X[0] = U, U - U_prev
    scheme.T[2] = scheme.lam * scheme.average([f_n]) - scheme.DA * W
    # z_n is read from the row whose A^{-1} D image is V^n, not from U^n
    steps[0] = (V / scheme.AinvD,) + steps[0][1:]
    with np.errstate(all="ignore"):  # a failing q_n is raised by the guard
        scheme.advance(law, steps)
    q = R[1:, 1:2]
    damping_mod.check_levels(law, R[1:, :1], q, state.n, tau, scheme.grids)
    U_next = X[1, 0]
    V_next = scheme.AinvD * U_next
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
    G, AinvD = len(grids), scheme.AinvD
    # The levels in guard blocks of `rows` levels (:meth:`_SineScheme.
    # history`): rows 1 .. m of R hold z_n and q_n of the block's levels n0 ..
    # n0 + m - 1, written by the steps from rows 0 .. m - 1; row 0 of X carries
    # U^n0 and delta^{n0-1} in, and a full block is checked by one guard.  For
    # the hook, a row of X per level gives the windows (D[i], V^{n0+i-1},
    # V^{n0+i}) of the energy pass, V = A^{-1} D U formed there; the forcing
    # map writes lam (A f^n)h of the step from row i into F[i] and ||f^n||
    # into B[i], then the bound, and E2[i] holds E_n^2, row 0 carrying the E^2
    # of the level before the block.
    hooked = on_block is not None
    rows = min(_block_levels(scheme.size, hooked), N + 1)
    X, C, R, steps = scheme.history(rows, hooked)
    U, D, Z, q = X[:, 0], X[:, 1], R[:, :G], R[:, G:-1]
    ring = len(X)  # row j of a block is X[j % ring]
    if hooked:
        V, F = np.empty((rows + 1, scheme.size)), np.zeros((rows + 1, scheme.size))
        E2, B = np.zeros((2, rows + 1, G))
        E0, total = np.zeros((2, G))  # E^0, and sum ||f^j|| before the block

    def close(n0, m):  # the block of levels n0 .. n0 + m - 1, in rows 1 .. m
        damping_mod.check_levels(law, Z[1 : m + 1], q[1 : m + 1], n0, tau, grids)
        if not hooked:
            return
        np.multiply(AinvD, U[: m + 1], out=V[: m + 1])
        E2[1 : m + 1] = scheme.squared_energy(D[1 : m + 1], V[: m + 1])
        if n0 == 0:  # level 0: no step before it
            E2[0] = E2[1]
            np.sqrt(E2[1], out=E0)
        defect = scheme.balance(E2[0], E2[1 : m + 1], D[: m + 1], F[:m], q[1 : m + 1])
        bound = B[1 : m + 1]  # ||f^n||, 0 at n = 0
        bound[0] += total
        np.cumsum(bound, axis=0, out=bound)
        total[...] = bound[-1]
        bound *= 2.0 * tau
        bound += E0
        E2[0] = E2[m]
        on_block(n0, q[1 : m + 1], Z[1 : m + 1], E2[1 : m + 1], defect, bound)

    # a failing level (or an overflow) is raised by the guard as its block
    # closes; silence the warnings of the levels after it, thrown away then
    with np.errstate(all="ignore"):
        force = scheme.forcing(problem.f)
        scheme.start(problem, steps[0])
        D[0] = -D[1]  # level 0: s = f = 0, no defect
        n0, i = 0, 1  # rows 1 .. i hold the levels n0 .. n0 + i - 1, unguarded
        try:
            while True:
                m = min(rows, N + 1 - n0)  # the block's levels, in rows 1 .. m
                # the block's steps, from rows i .. m - 1, write rows i + 1 .. m
                left = iter(steps[i:m])
                hook = (B[i + 1 : m + 1], F[i:m]) if hooked else ()
                block = force(n0 + i, left, C[i:m, 2], *hook)
                try:
                    scheme.advance(law, block)
                except Exception:  # from the law or f, at the last level taken
                    i = m - 1 - operator.length_hint(left)
                    raise
                i = 0  # the guard of close checks rows 1 .. m
                close(n0, m)
                if n0 + m > N:
                    break
                X[0] = X[m % ring]
                n0 += m
        except damping_mod.DampingError:  # from the guard of a closing block
            raise
        except Exception:  # from a law, forcing or hook: name an earlier failure first
            if i:
                levels = Z[1 : i + 1], q[1 : i + 1]
                damping_mod.check_levels(law, *levels, n0, tau, grids)
            raise
    U_ends = U[[(m - 1) % ring, m % ring]]  # U^N and U^{N+1}
    return scheme.states(N + 1, (*U_ends, *(AinvD * U_ends)), q[m])


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
