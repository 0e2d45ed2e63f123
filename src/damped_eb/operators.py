"""Compact difference operators, their sine basis and the implicit step solves.

1D, on grid functions u (length 2J+1, zero boundary):

    A u |_j = (u_{j+1} + 10 u_j + u_{j-1}) / 12      "compact average"
    D u |_j = (u_{j+1} - 2 u_j + u_{j-1}) / h^2      second difference

2D (tensor products along the two axes):

    H u = A_x (B_y u)                  with B the y-direction compact average
    Phi u = B_y (Dx u) + A_x (Dy u)

A, B and D are polynomials in the Dirichlet second difference, so all four
operators commute and share its eigenvectors, the (tensor) sine (DST-I)
modes: each acts on sine coefficients as multiplication by its symbol, and
the step operators a*A^2 + (1/2)*D^2 and a*H^2 + (1/2)*Phi^2 are divided out
elementwise (a fast direct solver in the sense of Buzbee, Golub & Nielson,
SIAM J. Numer. Anal. 7, 1970, and Swarztrauber, SIAM Rev. 19, 1977).  The
steppers run on those coefficients through :func:`_sine_symbols`; the
stencils and the banded solves below are the nodal operators, which the
method-of-lines reference and the tests use.
"""
from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from .mesh import Grid1D

__all__ = [
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
# Sine (DST-I) basis: eigenvectors of A and D, and per axis of H and Phi

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


def _sine_symbols(ms) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Sine matrices per axis of an interior with ``ms`` nodes per axis, and
    the symbols (lam, mu): of (A, D) in 1D, of (H, Phi) in 2D, where
    lamH = lam_1 (x) lam_2 and lamPhi = mu_1 (x) lam_2 + lam_1 (x) mu_2."""
    modes = [_sine_modes(m) for m in ms]
    S = [s for s, _, _ in modes]
    if len(modes) == 1:
        _, mu, lam = modes[0]
        return S, lam, mu
    (_, mu1, lam1), (_, mu2, lam2) = modes
    return S, np.outer(lam1, lam2), np.outer(mu1, lam2) + np.outer(lam1, mu2)


# ---------------------------------------------------------------------------
# 1D implicit step: a*A^2 + (1/2)*D^2, diagonal in the sine basis

def build_step_matrix_1d(grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (lambda_k^2, mu_k^2/2) of A^2 and D^2/2 in the sine basis of
    the grid's interior; the step matrix a*A^2 + D^2/2 is their a-weighted sum."""
    _, lam, mu = _sine_symbols((2 * grid.J - 1,))
    return lam * lam, 0.5 * mu * mu


def solve_step_1d(
    matrix: tuple[np.ndarray, np.ndarray], a: float, rhs: np.ndarray
) -> np.ndarray:
    """Solve (a*A^2 + D^2/2) u = rhs on sine coefficients (a > 0)."""
    if a <= 0:
        raise ValueError("step matrix requires a > 0")
    A2, half_D2 = matrix
    return rhs / (a * A2 + half_D2)


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

def solve_step_2d(a: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (a*H^2 + (1/2)*Phi^2) u = rhs exactly in the sine basis; the
    symbol a*lamH^2 + (1/2)*lamPhi^2 is positive for a > 0."""
    if a <= 0:
        raise ValueError("2D step requires a > 0")
    (S1, S2), lam_H, lam_Phi = _sine_symbols([n - 2 for n in rhs.shape])
    symbol = a * lam_H * lam_H + 0.5 * lam_Phi * lam_Phi
    out = np.zeros_like(rhs)
    out[1:-1, 1:-1] = S1 @ ((S1 @ rhs[1:-1, 1:-1] @ S2) / symbol) @ S2
    return out
