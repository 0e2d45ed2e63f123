import numpy as np
import pytest

from damped_eb import mesh, operators
from damped_eb.mesh import Grid1D, Grid2D

from oracles import (
    dense_H,
    dense_Phi,
    dense_compact,
    dense_second_diff,
    random_gridfn_1d,
    random_gridfn_2d,
)


def sine_mode_1d(grid, k):
    s = np.sin(k * np.pi * grid.axes[0])
    s[0] = s[-1] = 0.0
    return s


def mode_eigenvalues(J, k):
    h = 1.0 / (2 * J)
    mu = -(4.0 / h**2) * np.sin(k * np.pi * h / 2.0) ** 2
    lam = 1.0 + h**2 / 12.0 * mu
    return mu, lam


def rel(x, y):
    scale = max(1.0, np.max(np.abs(x)), np.max(np.abs(y)))
    return np.max(np.abs(x - y)) / scale


# ---------------------------------------------------------------------------
# apply_A / apply_D / solve_A


def test_apply_A_unit_spike():
    u = np.zeros(9)
    u[4] = 1.0
    out = operators.apply_A(u)
    assert out[4] == 10.0 / 12.0
    assert out[3] == out[5] == 1.0 / 12.0
    assert out[2] == out[6] == 0.0


def test_apply_A_zero():
    assert not operators.apply_A(np.zeros(11)).any()


def test_apply_A_sine_modes_against_dense():
    g = Grid1D(4)
    A = dense_compact(2 * g.J - 1)
    for k in range(1, 2 * g.J):
        s = sine_mode_1d(g, k)
        mu, lam = mode_eigenvalues(g.J, k)
        out = operators.apply_A(s)
        assert rel(out[1:-1], lam * s[1:-1]) < 1e-14
        assert rel(out[1:-1], A @ s[1:-1]) < 1e-14


def test_apply_D_spike_J2():
    u = np.zeros(5)
    u[2] = 1.0
    out = operators.apply_D(u, 0.25)
    assert np.allclose(out[1:-1], [16.0, -32.0, 16.0], atol=1e-12)


def test_apply_D_dense_oracle_random():
    rng = np.random.default_rng(3)
    g = Grid1D(6)
    D = dense_second_diff(2 * g.J - 1, g.h)
    for _ in range(20):
        u = random_gridfn_1d(rng, g.J)
        assert rel(operators.apply_D(u, g.h)[1:-1], D @ u[1:-1]) < 1e-13


def test_apply_D_zero():
    assert not operators.apply_D(np.zeros(9), 0.125).any()


@pytest.mark.parametrize("J", [2, 8, 64])
def test_solve_A_inverse_consistency(J):
    rng = np.random.default_rng(4)
    u = random_gridfn_1d(rng, J)
    recovered = operators.solve_A(operators.apply_A(u))
    assert np.max(np.abs(recovered - u)) <= 1e-14 * max(1.0, np.max(np.abs(u)))


@pytest.mark.parametrize("J1,J2", [(4, None), (2, 3), (4, 6), (8, 5)])
def test_compact_solves_dense_oracle(J1, J2):
    # solve_A on a beam (J2 None), solve_H on a plate
    rng = np.random.default_rng(7)
    if J2 is None:
        M, b = dense_compact(2 * J1 - 1), random_gridfn_1d(rng, J1)
        u = operators.solve_A(b)
    else:
        M, b = dense_H(2 * J1 - 1, 2 * J2 - 1), random_gridfn_2d(rng, J1, J2)
        u = operators.solve_H(b)
    interior = (slice(1, -1),) * b.ndim
    expected = np.linalg.solve(M, b[interior].ravel()).reshape(b[interior].shape)
    assert rel(u[interior], expected) < 1e-13
    assert not (u - np.pad(u[interior], 1)).any()  # zero boundary


def test_solve_A_sine_mode_scaling():
    g = Grid1D(8)
    for k in (1, 5, 11):
        s = sine_mode_1d(g, k)
        _, lam = mode_eigenvalues(g.J, k)
        assert rel(operators.solve_A(s)[1:-1], s[1:-1] / lam) < 1e-13


def test_solve_A_zero():
    assert not operators.solve_A(np.zeros(9)).any()


# ---------------------------------------------------------------------------
# 1D step matrix


@pytest.mark.parametrize(
    "solve",
    [
        lambda: operators.solve_step_1d(
            operators.build_step_matrix_1d(Grid1D(4)), 0.0, np.ones(7)
        ),
        lambda: operators.solve_step_2d(0.0, np.ones((9, 9))),
    ],
    ids=["1d", "2d"],
)
def test_step_matrix_requires_positive_a(solve):
    with pytest.raises(ValueError):
        solve()


def solve_step_1d_nodal(a, g, rhs):
    """Nodal interior solution of the 1D step system via the sine basis."""
    S = operators._sine_modes(2 * g.J - 1)[0]
    return S @ operators.solve_step_1d(
        operators.build_step_matrix_1d(g), a, S @ rhs[1:-1]
    )


def test_solve_step_1d_inverse_consistency():
    rng = np.random.default_rng(5)
    g = Grid1D(8)
    a = 1234.5
    u = random_gridfn_1d(rng, g.J)
    rhs = a * operators.apply_A(operators.apply_A(u)) + 0.5 * operators.apply_D(
        operators.apply_D(u, g.h), g.h
    )
    assert rel(solve_step_1d_nodal(a, g, rhs), u[1:-1]) < 1e-12


def test_solve_step_1d_sine_scaling():
    g = Grid1D(8)
    a = 300.0
    for k in (1, 4, 9):
        s = sine_mode_1d(g, k)
        mu, lam = mode_eigenvalues(g.J, k)
        expected = s[1:-1] / (a * lam**2 + 0.5 * mu**2)
        assert rel(solve_step_1d_nodal(a, g, s), expected) < 1e-12


def test_solve_step_1d_dense_oracle():
    rng = np.random.default_rng(6)
    g = Grid1D(8)
    m = 2 * g.J - 1
    a = 57.0
    A = dense_compact(m)
    D = dense_second_diff(m, g.h)
    M = a * A @ A + 0.5 * D @ D
    rhs = random_gridfn_1d(rng, g.J)
    assert rel(solve_step_1d_nodal(a, g, rhs), np.linalg.solve(M, rhs[1:-1])) < 1e-12


# ---------------------------------------------------------------------------
# 2D operators


def test_apply_H_separable():
    g = Grid2D(3, 4)
    rng = np.random.default_rng(11)
    a = random_gridfn_1d(rng, g.J1)
    b = random_gridfn_1d(rng, g.J2)
    u = np.outer(a, b)
    out = operators.apply_H(u)
    expected = np.outer(operators.apply_A(a), operators.apply_A(b))
    assert rel(out, expected) < 1e-14


def test_apply_H_and_Phi_zero():
    u = np.zeros((9, 11))
    assert not operators.apply_H(u).any()
    assert not operators.apply_Phi(u).any()


def test_apply_Phi_sine_modes_against_dense():
    g = Grid2D(4, 4)
    X, Y = np.meshgrid(*g.axes, indexing="ij")
    m = 2 * g.J1 - 1
    Phi = dense_Phi(m, m, g.h1, g.h2)
    for k, l in [(1, 1), (2, 3), (5, 7)]:
        mode = np.sin(k * np.pi * X) * np.sin(l * np.pi * Y)
        mode[0, :] = mode[-1, :] = mode[:, 0] = mode[:, -1] = 0.0
        mu, lamA = mode_eigenvalues(g.J1, k)
        nu, lamB = mode_eigenvalues(g.J2, l)
        out = operators.apply_Phi(mode)
        assert rel(out[1:-1, 1:-1], (lamB * mu + lamA * nu) * mode[1:-1, 1:-1]) < 1e-12
        dense = (Phi @ mode[1:-1, 1:-1].ravel()).reshape(m, m)
        assert rel(out[1:-1, 1:-1], dense) < 1e-12


@pytest.mark.parametrize("J1,J2", [(2, 3), (4, 6), (8, 5)])
def test_solve_H_inverse_consistency(J1, J2):
    rng = np.random.default_rng(12)
    u = random_gridfn_2d(rng, J1, J2)
    recovered = operators.solve_H(operators.apply_H(u))
    assert rel(recovered, u) < 1e-12


def test_solve_H_mode_scaling():
    g = Grid2D(4, 4)
    X, Y = np.meshgrid(*g.axes, indexing="ij")
    mode = np.sin(2 * np.pi * X) * np.sin(3 * np.pi * Y)
    mode[0, :] = mode[-1, :] = mode[:, 0] = mode[:, -1] = 0.0
    _, lamA = mode_eigenvalues(g.J1, 2)
    _, lamB = mode_eigenvalues(g.J2, 3)
    assert rel(operators.solve_H(mode), mode / (lamA * lamB)) < 1e-12


def test_solve_H_zero():
    assert not operators.solve_H(np.zeros((9, 9))).any()


# ---------------------------------------------------------------------------
# 2D step operator


def test_solve_step_2d_inverse_consistency():
    rng = np.random.default_rng(13)
    a = 2500.0
    u = random_gridfn_2d(rng, 4, 4)
    rhs = a * operators.apply_H(operators.apply_H(u)) + 0.5 * operators.apply_Phi(
        operators.apply_Phi(u)
    )
    sol = operators.solve_step_2d(a, rhs)
    assert rel(sol, u) < 1e-11


def test_solve_step_2d_mode_scaling():
    g = Grid2D(4, 4)
    a = 96.0
    X, Y = np.meshgrid(*g.axes, indexing="ij")
    mode = np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    mode[0, :] = mode[-1, :] = mode[:, 0] = mode[:, -1] = 0.0
    mu, lamA = mode_eigenvalues(g.J1, 1)
    nu, lamB = mode_eigenvalues(g.J2, 2)
    scale = a * (lamA * lamB) ** 2 + 0.5 * (lamB * mu + lamA * nu) ** 2
    sol = operators.solve_step_2d(a, mode)
    assert rel(sol, mode / scale) < 1e-11


@pytest.mark.parametrize("a", [4096.0, 1.0])  # a*H^2 resp. Phi^2 dominates
@pytest.mark.parametrize("J1,J2", [(4, 4), (4, 6), (2, 3)])
def test_solve_step_2d_dense_oracle(J1, J2, a):
    rng = np.random.default_rng(14)
    g = Grid2D(J1, J2)
    m1, m2 = 2 * J1 - 1, 2 * J2 - 1
    H = dense_H(m1, m2)
    Phi = dense_Phi(m1, m2, g.h1, g.h2)
    M = a * H @ H + 0.5 * Phi @ Phi
    rhs = random_gridfn_2d(rng, J1, J2)
    sol = operators.solve_step_2d(a, rhs)
    expected = np.linalg.solve(M, rhs[1:-1, 1:-1].ravel()).reshape(m1, m2)
    assert rel(sol[1:-1, 1:-1], expected) < 1e-9


def test_solve_step_2d_zero_rhs():
    assert not operators.solve_step_2d(10.0, np.zeros((9, 9))).any()


# ---------------------------------------------------------------------------
# operator identities (self-adjointness, bounds, commutation)


def test_compact_second_diff_adjointness():
    rng = np.random.default_rng(17)
    for _ in range(500):
        J = int(rng.integers(2, 17))
        g = mesh.grid1d(J)
        u = random_gridfn_1d(rng, J)
        v = random_gridfn_1d(rng, J)
        lhs = mesh.inner(g, operators.apply_A(u), operators.apply_D(v, g.h))
        rhs = mesh.inner(g, operators.apply_D(u, g.h), operators.apply_A(v))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs))


def test_summation_by_parts():
    # <v, D w> = -h sum_j (forward-diff v)_j (forward-diff w)_j over all cells
    rng = np.random.default_rng(18)
    for _ in range(500):
        J = int(rng.integers(2, 17))
        g = mesh.grid1d(J)
        v = random_gridfn_1d(rng, J)
        w = random_gridfn_1d(rng, J)
        lhs = mesh.inner(g, v, operators.apply_D(w, g.h))
        dv = np.diff(v) / g.h
        dw = np.diff(w) / g.h
        rhs = -g.h * float(np.dot(dv, dw))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs))


def test_compact_norm_bounds():
    # sqrt(3)/3 ||u|| <= ||A u|| <= ||u||
    rng = np.random.default_rng(19)
    for _ in range(500):
        J = int(rng.integers(2, 17))
        g = mesh.grid1d(J)
        u = random_gridfn_1d(rng, J)
        l2 = mesh.norm(g, u)
        au = mesh.norm(g, operators.apply_A(u))
        assert np.sqrt(3.0) / 3.0 * l2 <= au <= l2


def test_tensor_compact_norm_bounds():
    # (4/9)||u|| <= ||H u|| <= ||u||
    rng = np.random.default_rng(20)
    for _ in range(500):
        J1 = int(rng.integers(2, 7))
        J2 = int(rng.integers(2, 7))
        g = mesh.grid2d(J1, J2)
        u = random_gridfn_2d(rng, J1, J2)
        l2 = mesh.norm(g, u)
        hu = mesh.norm(g, operators.apply_H(u))
        assert (4.0 / 9.0) * l2 <= hu <= l2


def test_tensor_adjointness_2d():
    rng = np.random.default_rng(21)
    for _ in range(500):
        J1 = int(rng.integers(2, 7))
        J2 = int(rng.integers(2, 7))
        g = mesh.grid2d(J1, J2)
        u = random_gridfn_2d(rng, J1, J2)
        v = random_gridfn_2d(rng, J1, J2)
        lhs = mesh.inner(g, operators.apply_H(u), operators.apply_Phi(v))
        rhs = mesh.inner(g, operators.apply_Phi(u), operators.apply_H(v))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs))


def test_compact_and_second_diff_commute():
    rng = np.random.default_rng(22)
    for _ in range(100):
        J = int(rng.integers(2, 17))
        g = mesh.grid1d(J)
        u = random_gridfn_1d(rng, J)
        ad = operators.apply_A(operators.apply_D(u, g.h))
        da = operators.apply_D(operators.apply_A(u), g.h)
        assert rel(ad, da) < 1e-13
