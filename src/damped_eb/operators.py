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

import functools

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
# Stencils along one axis of a grid function, and the 1D operators

def _stencil_along(u: np.ndarray, axis: int, centre: float, scale: float) -> np.ndarray:
    """(u_{j+1} + centre*u_j + u_{j-1}) / scale along ``axis``, zero on its boundary."""
    lead = (slice(None),) * axis
    up, mid, down = (lead + (s,) for s in (np.s_[2:], np.s_[1:-1], np.s_[:-2]))
    out = np.zeros_like(u)
    out[mid] = (u[up] + centre * u[mid] + u[down]) / scale
    return out


def _compact_along(u: np.ndarray, axis: int) -> np.ndarray:
    return _stencil_along(u, axis, 10.0, 12.0)


def _diff_along(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    return _stencil_along(u, axis, -2.0, h * h)


def apply_A(u: np.ndarray) -> np.ndarray:
    return _compact_along(u, 0)


def apply_D(u: np.ndarray, h: float) -> np.ndarray:
    return _diff_along(u, 0, h)


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


def _solve_along(b: np.ndarray, axis: int) -> np.ndarray:
    """Solve the compact average along ``axis`` of interior values b
    (banded Cholesky elimination)."""
    b = np.moveaxis(b, axis, 0)
    fac = _compact_factor(b.shape[0])
    u = sla.cho_solve_banded((fac, False), b, check_finite=False)
    return np.moveaxis(u, 0, axis)


def solve_A(b: np.ndarray) -> np.ndarray:
    """Solve A u = b for u with zero boundary (tridiagonal elimination)."""
    out = np.zeros_like(b)
    out[1:-1] = _solve_along(b[1:-1], 0)
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


def _sine_symbols(ms) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Sine matrices per axis of an interior with ``ms`` nodes per axis, and
    the symbols (lam, mu): of (A, D) in 1D, of (H, Phi) in 2D.  The compact
    average acts along every axis, lamH = lam_1 (x) lam_2, and Phi sums the
    second difference along one axis times the averages along the others,
    lamPhi = mu_1 (x) lam_2 + lam_1 (x) mu_2."""
    S, mus, lams = zip(*(_sine_modes(m) for m in ms))
    tensor = functools.partial(functools.reduce, np.multiply.outer)
    mu = sum(tensor(lams[:k] + (mus[k],) + lams[k + 1 :]) for k in range(len(ms)))
    return S, tensor(lams), mu


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

def apply_H(u: np.ndarray) -> np.ndarray:
    """H = A_x B_y; sweep order is immaterial (the factors commute)."""
    return _compact_along(_compact_along(u, 1), 0)


def apply_Phi(u: np.ndarray) -> np.ndarray:
    """Phi = B_y Dx + A_x Dy (mesh widths inferred from the unit square)."""
    h1, h2 = (1.0 / (n - 1) for n in u.shape)
    return _compact_along(_diff_along(u, 0, h1), 1) + _compact_along(
        _diff_along(u, 1, h2), 0
    )


def solve_H(b: np.ndarray) -> np.ndarray:
    """Solve H u = b via one tridiagonal sweep per direction."""
    out = np.zeros_like(b)
    out[1:-1, 1:-1] = _solve_along(_solve_along(b[1:-1, 1:-1], 0), 1)
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
