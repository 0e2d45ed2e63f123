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
    "check_levels",
    "validate_law",
]


class DampingError(ValueError):
    """The damping coefficient left its hypotheses (negative or non-finite)."""


@dataclasses.dataclass(frozen=True)
class DampingLaw:
    """Scalar law P: [0, inf) -> (0, inf).

    The steppers take every law as P = phi(a + b z): they form a + b z per
    grid in the product that sums z, then call phi on it in place.  A named
    law states its formula once, as its :attr:`fold` (a, b, phi); any other
    law steps as (0, 1, :meth:`evaluate`), which calls ``func`` once per
    step on the ndarray of z, one per grid (``func`` may return a scalar
    that holds for every grid), or per grid on floats when that raises (a
    law written for floats, say).  ``p0`` is the claimed positive lower
    bound of P and ``lipschitz`` the claimed bound on P'; either may be None
    when unknown (they are hypotheses of the stability/convergence
    statements; :func:`validate_law` samples both).  The steppers enforce
    that each z_n = ||V^n||^2 is finite and that each q_n is admissible
    (:meth:`admits`, :func:`check_levels`).
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

    @property
    def fold(self) -> tuple[float, float, Callable | None] | None:
        """(a, b, phi) with P(z) = phi(a + b z) for a named law's ``func``
        (phi None for the identity), else None."""
        return getattr(self.func, "fold", None)

    def evaluate(self, z: np.ndarray, out: np.ndarray) -> None:
        """Write q = P(z) per grid into ``out``, which may be z itself: one
        call of ``func`` on the array z or, when that raises, one per grid on
        floats, with q = nan where z is non-finite or P undefined
        (:class:`~damped_eb.expr.DomainError`)."""
        try:
            out[...] = self.func(z)
        except Exception:  # a DomainError, or a law that takes floats only
            for k, z_k in enumerate(map(float, z)):
                try:
                    out[k] = self(z_k) if math.isfinite(z_k) else math.nan
                except expr_mod.DomainError:
                    out[k] = math.nan


def _named(a: float, b: float, phi=None):
    """P(z) = phi(a + b z) (phi None for the identity), carrying (a, b, phi)
    as ``fold`` (:attr:`DampingLaw.fold`)."""

    def P(z):
        return a + b * z if phi is None else phi(a + b * z)

    P.fold = (a, b, phi)
    return P


def constant_law(c: float = 1.0) -> DampingLaw:
    """P = c; raises ValueError unless c is finite and >= 0."""
    if not 0.0 <= c < math.inf:
        raise ValueError(f"constant law needs a finite c >= 0, got {c:g}")
    return DampingLaw(f"constant:{c:g}", _named(c, 0.0), p0=c, lipschitz=0.0)


def linear_law() -> DampingLaw:
    return DampingLaw("linear", _named(1.0, 1.0), p0=1.0, lipschitz=1.0)


def sqrt_law() -> DampingLaw:
    return DampingLaw("sqrt", _named(1.0, 1.0, np.sqrt), p0=1.0, lipschitz=0.5)


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


def check_levels(law: DampingLaw, z, q, n0: int, tau: float, grids) -> None:
    """The steppers' guard: raise :class:`DampingError` unless each z_n =
    ||V^n||^2 is finite and each q_n admissible (:meth:`DampingLaw.admits`).

    Row k of ``z`` and ``q`` holds level n0 + k, column g grid ``grids[g]``.
    One test covers all rows: the sum of every z and q is finite exactly
    when each is (one that overflows only sends the rows to the scan), and
    then every q is admissible when the least is.  Only when it fails are
    the levels scanned; the error names the first failing level's n, t =
    n tau, z, q (nan for a non-finite z) and grid (e.g. ``Grid1D(J=8)``).
    """
    with np.errstate(over="ignore"):
        if math.isfinite(z.sum() + q.sum()) and law.admits(q.min()):
            return
    for n, (z_n, q_n) in enumerate(zip(z.tolist(), q.tolist()), n0):
        for z_g, q_g, grid in zip(z_n, q_n, grids):
            q_g = q_g if math.isfinite(z_g) else math.nan
            if not law.admits(q_g):
                raise DampingError(
                    f"damping coefficient q = {q_g!r} at n = {n}, t = {n * tau:.6g} "
                    f"from law {law.name!r} and z = ||V||^2 = {z_g:.6g} on {grid!r}; "
                    f"z must be finite, q finite and >= {law.floor:g}"
                )


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
