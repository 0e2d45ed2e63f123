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
    "validate_law",
]


class DampingError(ValueError):
    """The damping coefficient left its hypotheses (negative or non-finite)."""


@dataclasses.dataclass(frozen=True)
class DampingLaw:
    """Scalar law P: [0, inf) -> (0, inf).

    ``p0`` is the claimed positive lower bound of P and ``lipschitz`` the
    claimed bound on P'; either may be None when unknown (they are
    hypotheses of the stability/convergence statements; :func:`validate_law`
    samples both).  The steppers enforce that each z_n = ||V^n||^2 is
    finite, so P is only evaluated on [0, inf), and that each q_n is
    finite, >= 0 and, when p0 is given, >= p0 (:func:`q_checked`).
    """

    name: str
    func: Callable[[float], float]
    p0: float | None = None
    lipschitz: float | None = None

    def __call__(self, z: float) -> float:
        return float(self.func(z))


def constant_law(c: float = 1.0) -> DampingLaw:
    return DampingLaw(f"constant:{c:g}", lambda z: c, p0=c, lipschitz=0.0)


def linear_law() -> DampingLaw:
    return DampingLaw("linear", lambda z: 1.0 + z, p0=1.0, lipschitz=1.0)


def sqrt_law() -> DampingLaw:
    return DampingLaw("sqrt", lambda z: np.sqrt(1.0 + z), p0=1.0, lipschitz=0.5)


def law_from_spec(spec: str, p0: float | None = None) -> DampingLaw:
    """Build a law from a registry name or a one-variable expression in z.

    Names: ``constant`` (optionally ``constant:<c>``), ``linear`` (1+z),
    ``sqrt`` (sqrt(1+z)).  Anything else is parsed as an expression with
    the variable z, e.g. ``"1/(1+z) + 2"``.
    """
    text = spec.strip()
    if text == "linear":
        return linear_law()
    if text == "sqrt":
        return sqrt_law()
    if text == "constant":
        return constant_law()
    if text.startswith("constant:"):
        return constant_law(float(text.split(":", 1)[1]))
    tree = expr_mod.parse(text, aliases={"z": "x"})
    return DampingLaw(text, lambda z: expr_mod.evaluate(tree, x=z), p0=p0)


def simpson_1d(values: np.ndarray, h: float) -> float:
    """Composite Simpson integral of nodal ``values`` (odd length 2J+1)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] % 2 == 0 or values.shape[0] < 3:
        raise ValueError("simpson_1d needs an odd number (>= 3) of nodes")
    return (h / 3.0) * float(
        np.sum(values[0:-2:2]) + 4.0 * np.sum(values[1:-1:2]) + np.sum(values[2::2])
    )


def simpson_2d(
    values: np.ndarray, h1: float, h2: float, reduced: bool = True
) -> float:
    """Composite 2D Simpson integral over panels of size 2*h1 x 2*h2.

    ``reduced=True`` uses the four-coefficient per-panel sum that drops
    every node on the top/right panel edges; it equals the full nine-point
    rule whenever the integrand vanishes on the boundary of the square.
    Pass ``reduced=False`` for general integrands.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] % 2 == 0 or v.shape[1] % 2 == 0:
        raise ValueError("simpson_2d needs odd node counts in both directions")
    if min(v.shape) < 3:
        raise ValueError("simpson_2d needs at least 3 nodes per direction")
    if reduced:
        s = (
            4.0 * np.sum(v[0:-1:2, 0:-1:2])
            + 8.0 * np.sum(v[0:-1:2, 1::2])
            + 8.0 * np.sum(v[1::2, 0:-1:2])
            + 16.0 * np.sum(v[1::2, 1::2])
        )
        return h1 * h2 / 9.0 * float(s)
    weights = ((1.0, 4.0, 1.0), (4.0, 16.0, 4.0), (1.0, 4.0, 1.0))
    m1, m2 = v.shape[0] - 2, v.shape[1] - 2  # panel starts run 0..m-1 step 2
    s = 0.0
    for di, row in enumerate(weights):
        for dj, w in enumerate(row):
            s += w * float(np.sum(v[di : di + m1 : 2, dj : dj + m2 : 2]))
    return h1 * h2 / 9.0 * s


def q_coefficient(V: np.ndarray, law: DampingLaw) -> float:
    """Damping coefficient P(||V||_b^2) in 1D, P(||V||_f^2) in 2D, the norms
    being the Simpson integrals of V^2."""
    V = np.asarray(V)
    kind = "b" if V.ndim == 1 else "f"
    return law(norm(grid_of(V.shape), V, kind) ** 2)


def q_checked(z: float, law: DampingLaw, n: int, t: float) -> float:
    """q_n = P(z) with z = ||V^n||^2, for a fully discrete step at level n, time t.

    Raises :class:`DampingError` when z is non-finite (the state stopped
    being finite; P is not evaluated), when q_n is negative or non-finite,
    which voids the scheme's stability (and, for a <= 0, its solvability),
    or when q_n falls below the law's claimed lower bound p0.
    """
    q = law(z) if math.isfinite(z) else math.nan
    floor = max(0.0, law.p0 or 0.0)
    if not floor <= q < math.inf:
        raise DampingError(
            f"damping coefficient q = {q!r} at n = {n}, t = {t:.6g} from law "
            f"{law.name!r} and z = ||V||^2 = {z:.6g}; z must be finite, q finite "
            f"and >= {floor:g}"
        )
    return q


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

    Checks P >= p0 (when p0 given), monotone nondecrease, and the
    Lipschitz bound on consecutive samples (when given).  Report only;
    never raises.
    """
    if z_max <= 0:
        raise ValueError("z_max must be positive")
    zs = np.linspace(0.0, z_max, max(2, samples))
    ps = np.array([law(z) for z in zs])
    lower = []
    if law.p0 is not None:
        lower = [(float(z), float(p)) for z, p in zip(zs, ps) if p < law.p0]
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
