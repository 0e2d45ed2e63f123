"""Damping laws P and the Simpson quadrature behind the nonlocal coefficient.

The damping coefficient multiplying the velocity is the scalar
q = P(integral of |laplacian u|^2).  On the grid that integral is taken by
composite Simpson quadrature, whose value for a squared grid function
vanishing on the boundary coincides exactly with the square of the
weighted b-norm (1D) / f-norm (2D) from the mesh module; the per-step
coefficient is therefore q = P(||V||_b^2) resp. P(||V||_f^2).
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from . import expr as expr_mod
from .mesh import grid_of, norm

__all__ = [
    "DampingError",
    "DampingLaw",
    "LawReport",
    "constant_law",
    "linear_law",
    "sqrt_law",
    "law_from_spec",
    "simpson_1d",
    "simpson_2d",
    "q_coefficient",
    "q_checked",
    "q_batch",
    "validate_law",
]


class DampingError(ValueError):
    """The damping coefficient left its hypotheses (negative or non-finite)."""


@dataclasses.dataclass(frozen=True)
class DampingLaw:
    """Scalar law P: [0, inf) -> (0, inf).

    The steppers call ``func`` once per step on the ndarray of z, one per
    grid; it may return a scalar, which holds for every grid.  A ``func``
    that raises on the array (one written for floats, say) is called per
    grid on floats instead (:func:`q_batch`).  ``p0`` is the
    claimed positive lower bound of P and ``lipschitz`` the claimed bound on
    P'; either may be None when unknown (they are hypotheses of the
    stability/convergence statements; :func:`validate_law` samples both).
    The steppers enforce that each z_n = ||V^n||^2 is finite, so P is only
    evaluated on [0, inf), and that each q_n is admissible (:meth:`admits`,
    :func:`q_checked`).
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray | float]
    p0: float | None = None
    lipschitz: float | None = None

    def __call__(self, z: float) -> float:
        return float(self.func(z))

    @property
    def floor(self) -> float:
        """The least admissible q, max(0, p0)."""
        return max(0.0, self.p0 or 0.0)

    def admits(self, q: float) -> bool:
        """The law's hypothesis on a damping coefficient: q finite and >= floor."""
        return self.floor <= q < math.inf


def constant_law(c: float = 1.0) -> DampingLaw:
    """P = c; raises ValueError unless c is finite and >= 0."""
    if not 0.0 <= c < math.inf:
        raise ValueError(f"constant law needs a finite c >= 0, got {c:g}")
    return DampingLaw(f"constant:{c:g}", lambda z: c, p0=c, lipschitz=0.0)


def linear_law() -> DampingLaw:
    return DampingLaw("linear", lambda z: 1.0 + z, p0=1.0, lipschitz=1.0)


def sqrt_law() -> DampingLaw:
    return DampingLaw("sqrt", lambda z: np.sqrt(1.0 + z), p0=1.0, lipschitz=0.5)


def law_from_spec(spec: str, p0: float | None = None) -> DampingLaw:
    """Build a law from a registry name or a one-variable expression in z.

    Names: ``constant`` (optionally ``constant:<c>``), ``linear`` (1+z),
    ``sqrt`` (sqrt(1+z)).  Anything else is parsed as an expression with
    the variable z, e.g. ``"1/(1+z) + 2"``.  ``p0`` is the claimed lower
    bound of an expression law; a named law carries its own, so passing
    ``p0`` with a name raises ValueError, as does a non-finite ``p0``.
    """
    if p0 is not None and not math.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0}")
    text = spec.strip()
    named = {"linear": linear_law, "sqrt": sqrt_law, "constant": constant_law}
    if text in named or text.startswith("constant:"):
        if p0 is not None:
            raise ValueError(
                "a named law sets its own p0; p0 applies to expression laws only"
            )
        if text in named:
            return named[text]()
        return constant_law(float(text.split(":", 1)[1]))
    tree = expr_mod.parse(text, aliases={"z": "x"})
    return DampingLaw(text, lambda z: expr_mod.evaluate(tree, x=z), p0=p0)


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights h/3 * (1, 4, 2, ..., 2, 4, 1) on n nodes."""
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return (h / 3.0) * w


def simpson_1d(values: np.ndarray, h: float) -> float:
    """Composite Simpson integral of nodal ``values`` (odd length 2J+1)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] % 2 == 0 or values.shape[0] < 3:
        raise ValueError("simpson_1d needs an odd number (>= 3) of nodes")
    return float(_simpson_weights(values.shape[0], h) @ values)


def simpson_2d(values: np.ndarray, h1: float, h2: float) -> float:
    """Composite 2D Simpson integral over panels of size 2*h1 x 2*h2: the
    nine-point tensor rule w1 @ values @ w2 of the 1D Simpson weights."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] % 2 == 0 or v.shape[1] % 2 == 0:
        raise ValueError("simpson_2d needs odd node counts in both directions")
    if min(v.shape) < 3:
        raise ValueError("simpson_2d needs at least 3 nodes per direction")
    w1, w2 = (_simpson_weights(n, h) for n, h in zip(v.shape, (h1, h2)))
    return float(w1 @ v @ w2)


def q_coefficient(V: np.ndarray, law: DampingLaw) -> float:
    """Damping coefficient P(||V||_b^2) in 1D, P(||V||_f^2) in 2D, the norms
    being the Simpson integrals of V^2."""
    V = np.asarray(V)
    kind = "b" if V.ndim == 1 else "f"
    return law(norm(grid_of(V.shape), V, kind) ** 2)


def q_checked(z: float, law: DampingLaw, n: int, t: float, grid=None) -> float:
    """q_n = P(z) with z = ||V^n||^2, for a fully discrete step at level n, time t.

    Raises :class:`DampingError` when z is non-finite (the state stopped
    being finite; P is not evaluated), when q_n is negative or non-finite
    (a law undefined at z, raising :class:`~damped_eb.expr.DomainError`,
    counts as q_n = nan), which voids the scheme's stability (and, for
    a <= 0, its solvability), or when q_n falls below the law's claimed
    lower bound p0.  The message names ``grid`` (by its repr, e.g.
    ``Grid1D(J=8)``) when one is given, so that a batch of runs says which
    run failed.
    """
    try:
        q = law(z) if math.isfinite(z) else math.nan
    except expr_mod.DomainError:
        q = math.nan
    if not (math.isfinite(z) and law.admits(q)):
        on = "" if grid is None else f" on {grid!r}"
        raise DampingError(
            f"damping coefficient q = {q!r} at n = {n}, t = {t:.6g} from law "
            f"{law.name!r} and z = ||V||^2 = {z:.6g}{on}; z must be finite, q finite "
            f"and >= {law.floor:g}"
        )
    return q


def q_batch(z: np.ndarray, law: DampingLaw, n: int, t: float, grids) -> np.ndarray:
    """q_n per grid of a batch of runs, z holding ||V^n||^2 per grid.

    Calls ``law.func`` once on the array z.  When that call raises, or any
    grid's z or q fails the checks of :func:`q_checked`, every grid's q_n
    is taken by :func:`q_checked` instead, which raises its
    :class:`DampingError` for the first grid that fails.  The checks run
    on the whole batch at once: the sum of every z and q is finite exactly
    when each is (a sum that overflows only sends the batch to the
    per-grid checks), and then every q is admissible when the least is.
    """
    zs = z.tolist()
    try:
        q = np.asarray(law.func(z), dtype=float)
        if q.shape != z.shape:  # a scalar law value holds for every grid
            q = np.full(z.shape, q)
        qs = q.tolist()
        if math.isfinite(sum(zs) + sum(qs)) and law.admits(min(qs)):
            return q
    except Exception:  # a DomainError, or a law that takes floats only
        pass
    return np.array([q_checked(z_i, law, n, t, g) for z_i, g in zip(zs, grids)])


@dataclasses.dataclass
class LawReport:
    """Advisory validation of a law's assumed bounds on [0, z_max]."""

    law: str
    z_max: float
    samples: int
    p_min: float
    p_max: float
    lower_bound_violations: list[tuple[float, float]]
    monotonicity_violations: list[tuple[float, float]]
    lipschitz_violations: list[tuple[float, float]]

    @property
    def ok(self) -> bool:
        return not (
            self.lower_bound_violations
            or self.monotonicity_violations
            or self.lipschitz_violations
        )


def validate_law(law: DampingLaw, z_max: float, samples: int = 1000) -> LawReport:
    """Sample P on [0, z_max] and report violations of its claimed bounds.

    Checks that each sample is a q the steppers admit
    (:meth:`DampingLaw.admits`), monotone nondecrease, and the Lipschitz
    bound on consecutive samples (when given).  Violations are
    reported, not raised; raises ValueError on z_max <= 0 and
    :class:`DampingError` naming the first sample z where P is undefined.
    """
    if z_max <= 0:
        raise ValueError("z_max must be positive")
    zs = np.linspace(0.0, z_max, max(2, samples))
    ps = np.empty_like(zs)
    for i, z in enumerate(zs):
        try:
            ps[i] = law(z)
        except expr_mod.DomainError as exc:
            raise DampingError(
                f"law {law.name!r} is undefined at z = {z:.6g}: {exc}"
            ) from None
    lower = [(z, p) for z, p in zip(zs.tolist(), ps.tolist()) if not law.admits(p)]
    mono = [
        (float(zs[i]), float(ps[i + 1] - ps[i]))
        for i in range(len(zs) - 1)
        if ps[i + 1] < ps[i]
    ]
    lip = []
    if law.lipschitz is not None:
        dz = zs[1] - zs[0]
        lip = [
            (float(zs[i]), float(abs(ps[i + 1] - ps[i]) / dz))
            for i in range(len(zs) - 1)
            if abs(ps[i + 1] - ps[i]) > law.lipschitz * dz * (1.0 + 1e-12)
        ]
    return LawReport(
        law=law.name,
        z_max=float(z_max),
        samples=len(zs),
        p_min=float(ps.min()),
        p_max=float(ps.max()),
        lower_bound_violations=lower,
        monotonicity_violations=mono,
        lipschitz_violations=lip,
    )
