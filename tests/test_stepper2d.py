import dataclasses

import numpy as np
import pytest

from damped_eb import damping, expr, mesh, operators
from damped_eb.mesh import Grid2D, TimeGrid
from damped_eb.stepper2d import (
    Problem2D,
    energy2d,
    init2d,
    run2d,
    stability_check2d,
    step2d,
)

from oracles import block_step_2d, dense_H, dense_Phi


def forced_problem(law=None):
    return Problem2D(
        u0=expr.parse("sin(pi*x)*sin(pi*y)"),
        u1=expr.parse("0"),
        f=expr.parse("t^3*sin(pi*x)*sin(pi*y)"),
        law=law or damping.linear_law(),
        T=1.0,
    )


def free_problem(law=None):
    return Problem2D(
        u0=expr.parse("sin(pi*x)*sin(pi*y)"),
        u1=expr.parse("0"),
        f=expr.parse("0"),
        law=law or damping.linear_law(),
        T=1.0,
    )


def zero_problem():
    z = expr.parse("0")
    return Problem2D(z, z, z, damping.linear_law(), 1.0)


def test_init2d_zero_data():
    st = init2d(zero_problem(), Grid2D(4, 4), TimeGrid(8, 1.0))
    for field in (st.U_prev, st.U_curr, st.V_prev, st.V_curr):
        assert not field.any()


def test_init2d_discrete_laplacian_accuracy():
    g = Grid2D(16, 16)
    st = init2d(forced_problem(), g, TimeGrid(64, 1.0))
    X, Y = np.meshgrid(*g.axes, indexing="ij")
    exact = -2.0 * np.pi**2 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    err = np.max(np.abs(st.V_prev[1:-1, 1:-1] - exact[1:-1, 1:-1]))
    assert err <= 10.0 * (g.h1**4 + g.h2**4)


def test_init2d_law_independent_when_velocity_zero():
    g = Grid2D(4, 4)
    tg = TimeGrid(8, 1.0)
    st_a = init2d(forced_problem(damping.linear_law()), g, tg)
    st_b = init2d(forced_problem(damping.constant_law(99.0)), g, tg)
    assert np.array_equal(st_a.U_curr, st_b.U_curr)


def test_step2d_zero_state():
    g = Grid2D(4, 4)
    tg = TimeGrid(8, 1.0)
    st = init2d(zero_problem(), g, tg)
    st2 = step2d(st, np.zeros(g.shape), tg.tau, damping.linear_law())
    assert not st2.U_curr.any() and not st2.V_curr.any()


def test_step2d_matches_dense_block_oracle():
    g = Grid2D(4, 4)
    tg = TimeGrid(8, 1.0)
    prob = forced_problem()
    st = init2d(prob, g, tg)
    f1 = mesh.sample(g, prob.f, tg.t(1))
    st2 = step2d(st, f1, tg.tau, prob.law)
    q = damping.q_coefficient(st.V_curr, prob.law)
    U_ref, V_ref = block_step_2d(
        st.U_prev, st.U_curr, st.V_prev, st.V_curr, f1, tg.tau, q, g.h1, g.h2
    )
    assert np.max(np.abs(st2.U_curr - U_ref)) / max(1.0, np.max(np.abs(U_ref))) < 1e-9
    assert np.max(np.abs(st2.V_curr - V_ref)) / max(1.0, np.max(np.abs(V_ref))) < 1e-9


def test_step2d_residuals_of_coupled_equations():
    g = Grid2D(4, 4)
    tg = TimeGrid(8, 1.0)
    prob = forced_problem()
    tau = tg.tau
    m = 2 * g.J1 - 1
    H = dense_H(m, m)
    Phi = dense_Phi(m, m, g.h1, g.h2)
    vec = lambda w: w[1:-1, 1:-1].ravel()
    st = init2d(prob, g, tg)
    for n in range(1, 5):
        f_n = mesh.sample(g, prob.f, tg.t(n))
        q = damping.q_coefficient(st.V_curr, prob.law)
        new = step2d(st, f_n, tau, prob.law)
        r1 = (
            H @ ((vec(new.U_curr) - 2 * vec(st.U_curr) + vec(st.U_prev)) / tau**2)
            + q * (H @ ((vec(new.U_curr) - vec(st.U_prev)) / (2 * tau)))
            + Phi @ ((vec(new.V_curr) + vec(st.V_prev)) / 2.0)
            - H @ vec(f_n)
        )
        r2 = H @ ((vec(new.V_curr) - vec(st.V_prev)) / (2 * tau)) - Phi @ (
            (vec(new.U_curr) - vec(st.U_prev)) / (2 * tau)
        )
        scale1 = max(
            1.0,
            np.max(np.abs(H @ ((vec(new.U_curr) - 2 * vec(st.U_curr) + vec(st.U_prev)) / tau**2))),
        )
        scale2 = max(1.0, np.max(np.abs(Phi @ ((vec(new.U_curr) - vec(st.U_prev)) / (2 * tau)))))
        assert np.max(np.abs(r1)) <= 1e-9 * scale1
        assert np.max(np.abs(r2)) <= 1e-9 * scale2
        st = new


def test_step2d_anisotropic_grid_residual():
    g = Grid2D(4, 8)
    tg = TimeGrid(8, 1.0)
    prob = forced_problem()
    tau = tg.tau
    H = dense_H(2 * g.J1 - 1, 2 * g.J2 - 1)
    Phi = dense_Phi(2 * g.J1 - 1, 2 * g.J2 - 1, g.h1, g.h2)
    vec = lambda w: w[1:-1, 1:-1].ravel()
    st = init2d(prob, g, tg)
    f1 = mesh.sample(g, prob.f, tg.t(1))
    q = damping.q_coefficient(st.V_curr, prob.law)
    new = step2d(st, f1, tau, prob.law)
    r2 = H @ ((vec(new.V_curr) - vec(st.V_prev)) / (2 * tau)) - Phi @ (
        (vec(new.U_curr) - vec(st.U_prev)) / (2 * tau)
    )
    scale = max(1.0, np.max(np.abs(Phi @ ((vec(new.U_curr) - vec(st.U_prev)) / (2 * tau)))))
    assert np.max(np.abs(r2)) <= 1e-9 * scale


def test_run2d_energy_monotone_without_forcing():
    state, records = run2d(free_problem(), Grid2D(8, 8), TimeGrid(50, 1.0))
    E = [r.E for r in records]
    tol = 1e-11 * (1.0 + E[0])
    assert all(E[i + 1] <= E[i] + tol for i in range(len(E) - 1))
    assert E[-1] < E[0]


def test_run2d_zero_data_zero_energy():
    state, records = run2d(zero_problem(), Grid2D(4, 4), TimeGrid(5, 1.0))
    assert all(r.E == 0.0 for r in records)
    assert not state.U_curr.any()


def test_run2d_stability_bound():
    state, records = run2d(forced_problem(), Grid2D(8, 8), TimeGrid(60, 1.0))
    assert stability_check2d(records).ok


def test_run2d_symmetry_for_symmetric_data():
    # u0, u1, f all symmetric under x <-> y on a square grid: every level of
    # the nodal loop and the run's final state
    prob, g, tg = forced_problem(), Grid2D(8, 8), TimeGrid(10, 1.0)
    st = init2d(prob, g, tg)
    collected = [st.U_prev, st.U_curr]
    for n in range(1, tg.N + 1):
        st = step2d(st, mesh.sample(g, prob.f, tg.t(n)), tg.tau, prob.law)
        collected.append(st.U_curr)
    final, _ = run2d(prob, g, tg)
    assert np.max(np.abs(final.U_curr - st.U_curr)) <= 1e-12
    for U in collected + [final.U_curr]:
        assert np.max(np.abs(U - U.T)) <= 1e-10 * max(1.0, np.max(np.abs(U)))


def test_energy2d_zero_state():
    st = init2d(zero_problem(), Grid2D(4, 4), TimeGrid(4, 1.0))
    assert energy2d(st, 0.2).E == 0.0
