"""Uniform grids on the unit interval/square and discrete inner products/norms.

Grid functions are plain float64 arrays over the full closed grid
(including boundary nodes) so stencil code can read neighbors without index
guards; :func:`sample` and :func:`initial` set the boundary values to exact
zero, :func:`evaluate` returns them (the scheme's right side averages f
from it, boundary included).  A 1D grid with parameter J has
2J+1 nodes x_j = j*h, h = 1/(2J); the even node count is what makes the
Simpson-type weighted norms below well defined.  A 2D grid is the tensor
product of two such axes.  Each grid carries its node ``axes``, its
``shape``, the ``cell`` volume h resp. h1*h2, the open (sparse) mesh
``coords`` of its nodes and the ``interior`` index, so sampling, inner
products and the l2/inf norms are written once for both dimensions.

Norms (interior sums only; u denotes the grid function):

    l2    sqrt(cell * sum u_j^2)                    cell = h resp. h1*h2
    inf   max |u_j|
    a     sqrt(2h * sum_{odd j} u_j^2)                             1D only
    b     sqrt(2/3 ||u||^2 + 1/3 ||u||_a^2)                        1D only
    e     2/3 sqrt(h1 h2 sum (u_ee'^2 + u_oe'^2 + 3 u_oo'^2))      2D only
    f     sqrt(4/9 ||u||^2 + ||u||_e^2)                            2D only

where in the e-norm the sum runs over panel-indexed pairs
(even,odd), (odd,even), (odd,odd).  The squares of the b and f norms
coincide with composite Simpson quadrature of u^2 (see damping module).
"""
from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np

from . import expr as expr_mod

__all__ = [
    "Grid1D",
    "Grid2D",
    "TimeGrid",
    "grid1d",
    "grid2d",
    "grid_for",
    "grid_of",
    "evaluate",
    "sample",
    "initial",
    "inner",
    "norm",
]


def _set_mesh(grid, axes: tuple[np.ndarray, ...], cell: float) -> None:
    """Attach the attributes derived from a grid's node axes."""
    grid.axes = axes
    grid.shape = tuple(a.size for a in axes)
    grid.cell = cell
    grid.coords = tuple(np.meshgrid(*axes, indexing="ij", sparse=True))
    grid.interior = (slice(1, -1),) * len(axes)


@dataclasses.dataclass
class Grid1D:
    """Uniform mesh on [0, 1] with 2J+1 nodes."""

    J: int

    def __post_init__(self):
        if self.J < 2:
            raise ValueError("Grid1D requires J >= 2")
        self.h = 1.0 / (2 * self.J)
        _set_mesh(self, (np.linspace(0.0, 1.0, 2 * self.J + 1),), self.h)


@dataclasses.dataclass
class Grid2D:
    """Uniform mesh on [0, 1]^2 with (2J1+1) x (2J2+1) nodes."""

    J1: int
    J2: int

    def __post_init__(self):
        if self.J1 < 2 or self.J2 < 2:
            raise ValueError("Grid2D requires J1, J2 >= 2")
        self.h1 = 1.0 / (2 * self.J1)
        self.h2 = 1.0 / (2 * self.J2)
        axes = tuple(np.linspace(0.0, 1.0, 2 * J + 1) for J in (self.J1, self.J2))
        _set_mesh(self, axes, self.h1 * self.h2)


@dataclasses.dataclass
class TimeGrid:
    """Uniform partition t_n = n*tau, 0 <= n <= N+1, with tau = T/(N+1).

    The final index N+1 lands exactly on T, which keeps terminal fields of
    an N-step run and its doubled (2N-step) refinement at the same time.
    """

    N: int
    T: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("TimeGrid requires N >= 1")
        if not 0 < self.T < np.inf:
            raise ValueError(f"TimeGrid requires 0 < T < inf, got {self.T}")
        self.tau = self.T / (self.N + 1)

    def t(self, n: int) -> float:
        return n * self.tau


Grid = Grid1D | Grid2D

# cached accessors (grids are immutable by convention)
grid1d = functools.cache(Grid1D)
grid2d = functools.cache(Grid2D)


def grid_for(dimension: int, J: int) -> Grid:
    """The cached grid of a beam (dimension 1, J) or a square plate
    (dimension 2, J x J)."""
    return grid1d(J) if dimension == 1 else grid2d(J, J)


def grid_of(shape: tuple[int, ...]) -> Grid:
    """The cached grid whose node arrays have ``shape``."""
    Js = [(n - 1) // 2 for n in shape]
    return grid1d(*Js) if len(Js) == 1 else grid2d(*Js)


def _eval_on(f, coords, t):
    if hasattr(f, "_eval"):  # expression tree
        return expr_mod.evaluate(f, *coords, t=t)
    return f(*coords, t)


def evaluate(grid: Grid, f, t: float = 0.0) -> np.ndarray:
    """Evaluate ``f`` at every node, boundary included (a read-only array).

    ``f`` may be an expression tree or a callable ``f(x, t)`` / ``f(x, y, t)``
    accepting numpy arrays (on a plate, x and y come as the open mesh, a
    column and a row that broadcast against each other).  Domain errors
    are re-raised with the offending node's location.
    """
    try:
        values = _eval_on(f, grid.coords, t)
    except expr_mod.DomainError:
        _locate_domain_error(grid, f, t)
        raise
    return np.broadcast_to(values, grid.shape)


def sample(grid: Grid, f, t: float = 0.0) -> np.ndarray:
    """:func:`evaluate` ``f`` at the nodes; boundary values are forced to
    exact zero."""
    out = np.zeros(grid.shape)
    out[grid.interior] = evaluate(grid, f, t)[grid.interior]
    return out


def initial(grid: Grid, u, key: str) -> np.ndarray:
    """:func:`sample` the initial datum ``key`` (u0 or u1) at t = 0.

    Raises ValueError when u depends on t (an expression that uses t, or a
    callable that reads differently at t = 1 on some node), or when u does
    not vanish on the boundary, which the hinged problem cannot hold: a
    boundary node is not finite or reads more than 1e-12 times the largest
    finite magnitude on the grid.  The error names the key, the node and the
    value.
    """
    if hasattr(u, "_eval"):  # expression tree
        uses_t = expr_mod.uses_variable(u, "t")
    else:  # a callable, sampled at t = 0 and t = 1
        at_0, at_1 = (evaluate(grid, u, t) for t in (0.0, 1.0))
        uses_t = not np.array_equal(at_0, at_1, equal_nan=True)
    if uses_t:
        raise ValueError(f"{key} uses t, but initial data may not depend on t")
    values = evaluate(grid, u, 0.0)
    size = np.abs(values)
    edge = np.where(np.isfinite(size), size, np.inf)
    edge[grid.interior] = 0.0
    k = np.unravel_index(np.argmax(edge), grid.shape)
    if edge[k] > 1e-12 * size.max(where=np.isfinite(size), initial=0.0):
        at = ", ".join(f"{c}={a[i]}" for c, a, i in zip("xy", grid.axes, k))
        raise ValueError(
            f"{key} = {values[k]:.6g} at the boundary node {at}, but initial "
            f"data must vanish on the boundary"
        )
    out = np.zeros(grid.shape)
    out[grid.interior] = values[grid.interior]
    return out


def _locate_domain_error(grid, f, t):
    """Re-evaluate pointwise to name the first failing node."""
    for point in itertools.product(*grid.axes):
        try:
            _eval_on(f, point, t)
        except expr_mod.DomainError as exc:
            at = "".join(f"{name}={c}, " for name, c in zip("xy", point))
            raise expr_mod.DomainError(f"{exc} at {at}t={t}") from None


def _check(grid: Grid, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u)
    if u.shape != grid.shape:
        raise ValueError(f"grid mismatch: grid shape {grid.shape}, values {u.shape}")
    return u


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Discrete L2 inner product over interior nodes."""
    u = _check(grid, u)[grid.interior]
    v = _check(grid, v)[grid.interior]
    return grid.cell * float(np.sum(u * v))


def norm(grid: Grid, u: np.ndarray, kind: str = "l2") -> float:
    """Discrete norm of the given kind; see the module docstring for formulas."""
    u = _check(grid, u)
    kind = kind.lower()
    if kind == "l2":
        w = u[grid.interior]
        return float(np.sqrt(grid.cell * np.sum(w * w)))
    if kind == "inf":
        return float(np.max(np.abs(u[grid.interior])))
    if isinstance(grid, Grid1D):
        if kind == "a":
            odd = u[1:-1:2]
            return float(np.sqrt(2.0 * grid.h * np.dot(odd, odd)))
        if kind == "b":
            l2 = norm(grid, u, "l2")
            a = norm(grid, u, "a")
            return float(np.sqrt((2.0 / 3.0) * l2 * l2 + (1.0 / 3.0) * a * a))
        raise ValueError(f"norm kind {kind!r} not defined on a 1D grid")
    if kind == "e":
        eo = u[0:-1:2, 1::2]  # (even, odd) node pairs
        oe = u[1::2, 0:-1:2]
        oo = u[1::2, 1::2]
        s = float(np.sum(eo * eo) + np.sum(oe * oe) + 3.0 * np.sum(oo * oo))
        return float((2.0 / 3.0) * np.sqrt(grid.h1 * grid.h2 * s))
    if kind == "f":
        l2 = norm(grid, u, "l2")
        e = norm(grid, u, "e")
        return float(np.sqrt((4.0 / 9.0) * l2 * l2 + e * e))
    raise ValueError(f"norm kind {kind!r} not defined on a 2D grid")
