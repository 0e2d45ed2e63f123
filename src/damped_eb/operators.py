"""Compact difference operators and the direct solvers they need.

1D, on grid functions u (length 2J+1, zero boundary):

    A u |_j = (u_{j+1} + 10 u_j + u_{j-1}) / 12      "compact average"
    D u |_j = (u_{j+1} - 2 u_j + u_{j-1}) / h^2      second difference

Both are polynomials in the same Dirichlet tridiagonal matrix, so they
commute; the implicit time step reduces to one SPD pentadiagonal solve
with matrix a*A^2 + (1/2)*D^2.

2D (tensor products along the two axes):

    H u = A_x (B_y u)                  with B the y-direction compact average
    Phi u = B_y (Dx u) + A_x (Dy u)

A, B and D are polynomials in the Dirichlet second difference, so H, Phi
and the 2D step operator a*H^2 + (1/2)*Phi^2 are all diagonal in the
tensor sine (DST-I) basis; the 2D step is solved exactly by one forward
transform, one division by the operator's symbol and one inverse
transform (a fast direct solver in the sense of Buzbee, Golub & Nielson,
SIAM J. Numer. Anal. 7, 1970, and Swarztrauber, SIAM Rev. 19, 1977).
"""
from __future__ import annotations

import dataclasses

import numpy as np
from scipy import linalg as sla

from .mesh import Grid1D

__all__ = [
    "StepMatrix1D",
    "apply_A",
    "apply_D",
    "solve_A",
    "apply_H",
    "apply_Phi",
    "solve_H",
    "build_step_matrix_1d",
    "solve_step_1d",
    "solve_step_2d",
]


# ---------------------------------------------------------------------------
# 1D stencil application

def apply_A(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    out[1:-1] = (u[2:] + 10.0 * u[1:-1] + u[:-2]) / 12.0
    return out


def apply_D(u: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(u)
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    return out


_COMPACT_FACTORS: dict[int, np.ndarray] = {}


def _compact_factor(m: int) -> np.ndarray:
    """Cached banded Cholesky factor of A (strictly diagonally dominant SPD)."""
    fac = _COMPACT_FACTORS.get(m)
    if fac is None:
        ab = np.zeros((2, m))
        ab[0, 1:] = 1.0 / 12.0
        ab[1, :] = 10.0 / 12.0
        fac = sla.cholesky_banded(ab, check_finite=False)
        _COMPACT_FACTORS[m] = fac
    return fac


def solve_A(b: np.ndarray) -> np.ndarray:
    """Solve A u = b for u with zero boundary (tridiagonal elimination)."""
    out = np.zeros_like(b)
    out[1:-1] = sla.cho_solve_banded(
        (_compact_factor(b.shape[0] - 2), False), b[1:-1], check_finite=False
    )
    return out


# ---------------------------------------------------------------------------
# 1D implicit step matrix: a*A^2 + (1/2)*D^2, pentadiagonal SPD for a > 0

@dataclasses.dataclass
class StepMatrix1D:
    a: float
    h: float
    ab: np.ndarray  # upper banded storage (3, m) for solveh_banded


_PENTA_TEMPLATES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _penta_templates(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Banded layouts of A^2 and of h^4 * D^2 over the interior (size m)."""
    cached = _PENTA_TEMPLATES.get(m)
    if cached is not None:
        return cached
    # A^2 = I + (h^2/6) D_scaled + (h^4/144) D_scaled^2 with D_scaled = h^2 D;
    # written out: main 17/24 (101/144 at the ends), off1 5/36, off2 1/144.
    a2 = np.zeros((3, m))
    a2[2, :] = 17.0 / 24.0
    a2[2, [0, -1]] = 101.0 / 144.0
    a2[1, 1:] = 5.0 / 36.0
    a2[0, 2:] = 1.0 / 144.0
    # (h^2 D)^2: main 6 (5 at the ends), off1 -4, off2 1
    t2 = np.zeros((3, m))
    t2[2, :] = 6.0
    t2[2, [0, -1]] = 5.0
    t2[1, 1:] = -4.0
    t2[0, 2:] = 1.0
    _PENTA_TEMPLATES[m] = (a2, t2)
    return a2, t2


def build_step_matrix_1d(a: float, grid: Grid1D) -> StepMatrix1D:
    if a <= 0:
        raise ValueError("step matrix requires a > 0")
    m = 2 * grid.J - 1
    a2, t2 = _penta_templates(m)
    h4 = grid.h ** 4
    return StepMatrix1D(a, grid.h, a * a2 + (0.5 / h4) * t2)


def solve_step_1d(matrix: StepMatrix1D, rhs: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rhs)
    out[1:-1] = sla.solveh_banded(matrix.ab, rhs[1:-1], check_finite=False)
    return out


# ---------------------------------------------------------------------------
# 2D operators (tensor sweeps over full arrays with zero boundary)

def _compact_along(u: np.ndarray, axis: int) -> np.ndarray:
    out = np.zeros_like(u)
    if axis == 0:
        out[1:-1, :] = (u[2:, :] + 10.0 * u[1:-1, :] + u[:-2, :]) / 12.0
    else:
        out[:, 1:-1] = (u[:, 2:] + 10.0 * u[:, 1:-1] + u[:, :-2]) / 12.0
    return out


def _diff_along(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    out = np.zeros_like(u)
    if axis == 0:
        out[1:-1, :] = (u[2:, :] - 2.0 * u[1:-1, :] + u[:-2, :]) / (h * h)
    else:
        out[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / (h * h)
    return out


def _steps(shape: tuple[int, int]) -> tuple[float, float]:
    return 1.0 / (shape[0] - 1), 1.0 / (shape[1] - 1)


def apply_H(u: np.ndarray) -> np.ndarray:
    """H = A_x B_y; sweep order is immaterial (the factors commute)."""
    return _compact_along(_compact_along(u, 1), 0)


def apply_Phi(u: np.ndarray) -> np.ndarray:
    """Phi = B_y Dx + A_x Dy (mesh widths inferred from the unit square)."""
    h1, h2 = _steps(u.shape)
    return _compact_along(_diff_along(u, 0, h1), 1) + _compact_along(
        _diff_along(u, 1, h2), 0
    )


def solve_H(b: np.ndarray) -> np.ndarray:
    """Solve H u = b via one tridiagonal sweep per direction."""
    m1, m2 = b.shape[0] - 2, b.shape[1] - 2
    w = sla.cho_solve_banded((_compact_factor(m1), False), b[1:-1, 1:-1], check_finite=False)
    u = sla.cho_solve_banded((_compact_factor(m2), False), w.T, check_finite=False).T
    out = np.zeros_like(b)
    out[1:-1, 1:-1] = u
    return out


# ---------------------------------------------------------------------------
# 2D implicit step: a*H^2 + (1/2)*Phi^2, diagonal in the tensor sine basis

_SINE_MODES: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _sine_modes(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal DST-I matrix S over m interior nodes (S = S^T = S^-1),
    with the eigenvalues mu_k of D and lambda_k of the compact average."""
    cached = _SINE_MODES.get(m)
    if cached is None:
        h = 1.0 / (m + 1)
        k = np.arange(1, m + 1)
        jk = np.outer(k, k) % (2 * (m + 1))  # exact phase reduction
        S = np.sqrt(2.0 * h) * np.sin(jk * np.pi * h)
        mu = -(4.0 / (h * h)) * np.sin(k * np.pi * h / 2.0) ** 2
        lam = 1.0 + (h * h / 12.0) * mu
        cached = (S, mu, lam)
        _SINE_MODES[m] = cached
    return cached


def solve_step_2d(a: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (a*H^2 + (1/2)*Phi^2) u = rhs exactly in the sine basis.

    Per mode (k, l) the operator's symbol is a*lamH^2 + (1/2)*lamPhi^2 with
    lamH = lamA_k lamB_l and lamPhi = mu_k lamB_l + lamA_k mu_l; it is
    positive for a > 0.
    """
    if a <= 0:
        raise ValueError("2D step requires a > 0")
    S1, mu1, lam1 = _sine_modes(rhs.shape[0] - 2)
    S2, mu2, lam2 = _sine_modes(rhs.shape[1] - 2)
    lam_H = np.outer(lam1, lam2)
    lam_Phi = np.outer(mu1, lam2) + np.outer(lam1, mu2)
    symbol = a * lam_H * lam_H + 0.5 * lam_Phi * lam_Phi
    out = np.zeros_like(rhs)
    out[1:-1, 1:-1] = S1 @ ((S1 @ rhs[1:-1, 1:-1] @ S2) / symbol) @ S2
    return out
