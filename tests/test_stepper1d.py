import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from damped_eb import damping, expr, mesh, operators, stepper1d
from damped_eb.cli import STABILITY_TOL
from damped_eb.mesh import Grid1D, Grid2D, TimeGrid
from damped_eb.stepper1d import (
    _BLOCK_COEFFICIENTS,
    Problem1D,
    StepperState,
    _SineScheme,
    energy,
    init,
    mol_reference,
    run,
    run_batch,
    stability_check,
    step,
)
from damped_eb.stepper2d import Problem2D, energy2d, step2d

from oracles import (
    block_step_1d,
    dense_compact,
    dense_H,
    dense_Phi,
    dense_second_diff,
    random_gridfn_1d,
    random_gridfn_2d,
)


def forced_problem(law=None):
    return Problem1D(
        u0=expr.parse("sin(pi*x)"),
        u1=expr.parse("0"),
        f=expr.parse("t^3*sin(pi*x)"),
        law=law or damping.sqrt_law(),
        T=1.0,
    )


def free_problem(law=None):
    return Problem1D(
        u0=expr.parse("sin(pi*x)"),
        u1=expr.parse("0"),
        f=expr.parse("0"),
        law=law or damping.sqrt_law(),
        T=1.0,
    )


def forced_plate_problem():
    return Problem2D(
        u0=expr.parse("sin(pi*x)*sin(pi*y)"),
        u1=expr.parse("0"),
        f=expr.parse("t^3*sin(pi*x)*sin(pi*y)"),
        law=damping.linear_law(),
        T=1.0,
    )


# one shared scheme: the grid's dimension picks beam or plate, and the
# nodal wrappers, energy and A-type operator of that dimension
def closed_norm(grid, f):
    """sqrt(cell * sum f^2) over every node of the grid, boundary included."""
    return math.sqrt(grid.cell * np.sum(f * f))


DIMENSIONS = {
    1: (step, energy, operators.apply_A),
    2: (step2d, energy2d, operators.apply_H),
}


def zero_problem():
    z = expr.parse("0")
    return Problem1D(z, z, z, damping.sqrt_law(), 1.0)


def test_init_zero_data_gives_zero_state():
    st = init(zero_problem(), Grid1D(8), TimeGrid(8, 1.0))
    for field in (st.U_prev, st.U_curr, st.V_prev, st.V_curr):
        assert not field.any()
    assert st.q_curr == 1.0  # P(0) for sqrt(1+z)


def test_init_discrete_laplacian_accuracy():
    g = Grid1D(32)
    st = init(forced_problem(), g, TimeGrid(64, 1.0))
    # discrete V^0 equals the compact eigenvalue ratio applied to the sine
    mu = -(4.0 / g.h**2) * np.sin(np.pi * g.h / 2.0) ** 2
    lam = 1.0 + g.h**2 / 12.0 * mu
    s = np.sin(np.pi * g.axes[0])
    assert np.max(np.abs(st.V_prev[1:-1] - (mu / lam) * s[1:-1])) < 1e-11
    # and approximates the continuous laplacian to fourth order
    assert np.max(np.abs(st.V_prev + np.pi**2 * s)) <= 10.0 * g.h**4


def test_init_zero_velocity_removes_damping_from_acceleration():
    g = Grid1D(8)
    tg = TimeGrid(8, 1.0)
    st_a = init(forced_problem(damping.sqrt_law()), g, tg)
    st_b = init(forced_problem(damping.constant_law(250.0)), g, tg)
    # u1 = 0 and f(.,0) = 0, so U^1 is independent of the law
    assert np.array_equal(st_a.U_curr, st_b.U_curr)


def test_step_zero_state_stays_zero():
    g = Grid1D(8)
    tg = TimeGrid(8, 1.0)
    st = init(zero_problem(), g, tg)
    st2 = step(st, np.zeros(g.shape), tg.tau, damping.sqrt_law())
    assert not st2.U_curr.any()
    assert not st2.V_curr.any()


# a = 1/tau^2 + q/(2 tau) with tau = 1/(N+1): small at N = 1, large at N = 512
@pytest.mark.parametrize("N", [1, 8, 512], ids=lambda N: f"N{N}")
@pytest.mark.parametrize(
    "law", [damping.sqrt_law(), damping.constant_law(250.0)], ids=["sqrt", "const250"]
)
@pytest.mark.parametrize("J", [2, 3, 8])
def test_step_matches_dense_block_oracle(J, law, N):
    g = Grid1D(J)
    tg = TimeGrid(N, 1.0)
    prob = forced_problem(law)
    st = init(prob, g, tg)
    f1 = mesh.sample(g, prob.f, tg.t(1))
    st2 = step(st, f1, tg.tau, prob.law)
    q = damping.q_coefficient(st.V_curr, prob.law)
    U_ref, V_ref = block_step_1d(
        st.U_prev, st.U_curr, st.V_prev, st.V_curr, f1, tg.tau, q, g.h
    )
    scale = max(1.0, np.max(np.abs(U_ref)))
    assert np.max(np.abs(st2.U_curr - U_ref)) / scale < 1e-10
    assert np.max(np.abs(st2.V_curr - V_ref)) / max(1.0, np.max(np.abs(V_ref))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    J1=strategies.integers(2, 32),
    J2=strategies.integers(2, 8),
    seed=strategies.integers(0, 2**32 - 1),
)
@example(J1=2, J2=3, seed=0)
@example(J1=8, J2=5, seed=1)
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_step_damping_integral_matches_simpson_norm(dim, J1, J2, seed):
    # with P(z) = z the step's q_n is the z it computed from V^n's sine
    # coefficients: the b-norm on a beam grid J1, the f-norm on a plate J1 x J2
    rng = np.random.default_rng(seed)
    if dim == 1:
        g, kind = Grid1D(J1), "b"
        fields = [random_gridfn_1d(rng, J1) for _ in range(4)]
    else:
        g, kind = Grid2D(J1, J2), "f"
        fields = [random_gridfn_2d(rng, J1, J2) for _ in range(4)]
    state = StepperState(1, *fields, q_curr=0.0)
    identity = damping.DampingLaw("identity", lambda z: z)
    new = DIMENSIONS[dim][0](state, np.zeros(g.shape), 0.01, identity)
    assert new.q_curr == pytest.approx(mesh.norm(g, fields[3], kind) ** 2, rel=1e-13)


def nodal_states(problem, g, tg):
    """The states at n = 1, ..., N + 1 of the nodal init/step loop on grid g
    alone: the one at n + 1 holds U^n, U^{n+1}, V^n, V^{n+1} and q_n."""
    step_fn = DIMENSIONS[len(g.shape)][0]
    states = [init(problem, g, tg)]
    for n in range(1, tg.N + 1):
        f_n = mesh.sample(g, problem.f, tg.t(n))
        states.append(step_fn(states[-1], f_n, tg.tau, problem.law))
    return states


class Blocks:
    """An ``on_block`` hook that keeps a copy of each block, checking that
    the blocks arrive in order of their levels."""

    def __init__(self):
        self.parts, self.levels = [], 0

    def __call__(self, n0, *arrays):
        assert n0 == self.levels
        self.levels += len(arrays[0])
        self.parts.append([a.copy() for a in arrays])

    def rows(self):
        """q, z, E2, defect and bound, each with one row per level."""
        return [np.concatenate(x) for x in zip(*self.parts)]


@pytest.mark.parametrize(
    "g",
    [Grid1D(8), Grid2D(4, 4), Grid2D(2, 3), Grid2D(8, 5)],
    ids=["1d-8", "2d-4x4", "2d-2x3", "2d-8x5"],
)
def test_run_observers_and_records_match_nodal_steps(g):
    # what run_batch's on_block hook observes of each level (q_n, z_n, E_n^2
    # and the energy-balance defect), run's energies and the final state,
    # against the nodal init/step loop, and the balance of that loop from the
    # stencils
    tg = TimeGrid(24, 1.0)
    dim = len(g.shape)
    prob = forced_problem() if dim == 1 else forced_plate_problem()
    _, energy_fn, apply_A = DIMENSIONS[dim]
    blocks = Blocks()
    (final,) = run_batch(prob, [g], tg, on_block=blocks)
    q, z, E2, defect, _ = (x[:, 0] for x in blocks.rows())
    _, records = run(prob, g, tg)
    energies = [r.E for r in records]
    states = nodal_states(prob, g, tg)
    assert blocks.levels == len(energies) == len(states) == tg.N + 1

    def norm_A(u):
        return mesh.norm(g, apply_A(u))

    kind = "b" if dim == 1 else "f"
    for n, (st, E) in enumerate(zip(states, energies)):
        assert q[n] == pytest.approx(st.q_curr, rel=1e-12)
        assert z[n] == pytest.approx(mesh.norm(g, st.V_prev, kind) ** 2, rel=1e-12)
        assert E == math.sqrt(E2[n])
        assert E == pytest.approx(energy_fn(st, tg.tau).E, rel=1e-13)
        stencil_E2 = norm_A((st.U_curr - st.U_prev) / tg.tau) ** 2 + 0.5 * (
            norm_A(st.V_curr) ** 2 + norm_A(st.V_prev) ** 2
        )
        assert E == pytest.approx(math.sqrt(stencil_E2), rel=1e-12)
        assert abs(defect[n]) <= 1e-13 * (1.0 + E2[n])
        if n:
            s = st.U_curr - states[n - 1].U_prev  # U^{n+1} - U^{n-1}
            A_f = apply_A(mesh.sample(g, prob.f, tg.t(n)))
            balance = (
                stencil_E2 - prev_E2 + q[n] / (2 * tg.tau) * norm_A(s) ** 2
                - mesh.inner(g, A_f, apply_A(s))
            )
            assert abs(balance) <= 1e-12 * (1.0 + E2[n])
        prev_E2 = stencil_E2
    for name in ("U_prev", "U_curr", "V_prev", "V_curr"):
        a, b = getattr(final, name), getattr(states[-1], name)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_balance_is_the_stencil_energy_balance_of_any_rows(dim):
    # on arbitrary rows, which no step produced, the defect is each grid's
    # E_n^2 - E_{n-1}^2 + q_n/(2 tau) ||A s||^2 - (A f, A s), taken with the
    # stencils on the nodal fields of s = delta^n + delta^{n-1} and f
    rng = np.random.default_rng(11)
    grids, tau = BATCHES[dim], 0.1
    apply_A = DIMENSIONS[dim][2]
    scheme = _SineScheme(grids, tau)
    D = rng.standard_normal((3, scheme.size))
    F = rng.standard_normal((2, scheme.size))
    q, E2 = rng.uniform(0.0, 3.0, (2, 2, len(grids)))
    E2_prev = rng.uniform(0.0, 3.0, len(grids))
    defect = scheme.balance(E2_prev, E2, D, F, q)
    before = np.vstack((E2_prev, E2[:-1]))
    for r in range(2):
        s = scheme.nodal(D[r] + D[r + 1])
        f = scheme.nodal(F[r] / scheme.lam2)
        for k, g in enumerate(grids):
            A_s = apply_A(s[k])
            damped = q[r, k] / (2 * tau) * mesh.norm(g, A_s) ** 2
            forced = mesh.inner(g, apply_A(f[k]), A_s)
            expected = E2[r, k] - before[r, k] + damped - forced
            scale = 1.0 + abs(damped) + abs(forced) + E2[r, k]
            assert abs(defect[r, k] - expected) <= 1e-13 * scale


def scheme_residuals(prev, new, q, f, tau):
    """Largest residuals of the scheme's two equations at level prev.n, from
    the states at prev.n and prev.n + 1 and q_n, relative to the largest
    second difference in time (first) and D dU/(2 tau) (second), at least 1."""
    g = mesh.grid_of(new.U_curr.shape)
    if len(g.shape) == 1:
        A, D = dense_compact(2 * g.J - 1), dense_second_diff(2 * g.J - 1, g.h)
    else:
        m1, m2 = 2 * g.J1 - 1, 2 * g.J2 - 1
        A, D = dense_H(m1, m2), dense_Phi(m1, m2, g.h1, g.h2)

    def vec(u):
        return u[g.interior].ravel()

    Upp, Up, Un = vec(new.U_curr), vec(prev.U_curr), vec(prev.U_prev)
    Vpp, Vn = vec(new.V_curr), vec(prev.V_prev)
    f_n = vec(mesh.sample(g, f, prev.n * tau))
    r1 = (
        A @ ((Upp - 2 * Up + Un) / tau**2)
        + q * (A @ ((Upp - Un) / (2 * tau)))
        + D @ ((Vpp + Vn) / 2.0)
        - A @ f_n
    )
    r2 = A @ ((Vpp - Vn) / (2 * tau)) - D @ ((Upp - Un) / (2 * tau))
    scale1 = max(1.0, np.max(np.abs(A @ ((Upp - 2 * Up + Un) / tau**2))))
    scale2 = max(1.0, np.max(np.abs(D @ ((Upp - Un) / (2 * tau)))))
    return np.max(np.abs(r1)) / scale1, np.max(np.abs(r2)) / scale2


def test_scheme_residual_small_after_each_step():
    g = Grid1D(8)
    tg = TimeGrid(8, 1.0)
    prob = forced_problem()
    st = init(prob, g, tg)
    for n in range(1, tg.N + 1):
        f_n = mesh.sample(g, prob.f, tg.t(n))
        q = damping.q_coefficient(st.V_curr, prob.law)
        new = step(st, f_n, tg.tau, prob.law)
        r1, r2 = scheme_residuals(st, new, q, prob.f, tg.tau)
        assert r1 <= 1e-10 and r2 <= 1e-10
        st = new


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_nodal_step_holds_on_a_random_window(dim):
    # a window with V != A^{-1} D U, which no run produces: the nodal step
    # folds its offset W = V^{n-1} - A^{-1} D U^{n-1} into the right side and
    # into V^{n+1}, and both equations of the scheme hold
    rng = np.random.default_rng(23)
    if dim == 1:
        g, fields = Grid1D(8), [random_gridfn_1d(rng, 8) for _ in range(4)]
    else:
        g, fields = Grid2D(4, 3), [random_gridfn_2d(rng, 4, 3) for _ in range(4)]
    f = "t^3*sin(pi*x)" if dim == 1 else "t^3*sin(pi*x)*sin(pi*y)"
    problem, tau = forced_batch(dim, f), 1.0 / 13
    state = StepperState(5, *fields, q_curr=0.0)
    f_n = mesh.sample(g, problem.f, state.n * tau)
    new = DIMENSIONS[dim][0](state, f_n, tau, problem.law)
    r1, r2 = scheme_residuals(state, new, new.q_curr, problem.f, tau)
    assert r1 <= 1e-10 and r2 <= 1e-10
    # U^n and V^n pass into the new window as they were given, not through
    # the sine transform and back
    assert np.array_equal(new.U_prev, state.U_curr)
    assert np.array_equal(new.V_prev, state.V_curr)


@pytest.mark.parametrize("g", [Grid1D(8), Grid2D(4, 3)], ids=["1d", "2d"])
def test_nodal_loop_builds_its_scheme_once(monkeypatch, g):
    builds = []
    build = _SineScheme.__init__

    def counted(self, grids, tau):
        builds.append((grids, tau))
        build(self, grids, tau)

    stepper1d._nodal_scheme.cache_clear()
    monkeypatch.setattr(_SineScheme, "__init__", counted)
    tg = TimeGrid(6, 1.0)
    problem = forced_problem() if len(g.shape) == 1 else forced_plate_problem()
    _, energy_fn, _ = DIMENSIONS[len(g.shape)]
    for state in nodal_states(problem, g, tg):
        energy_fn(state, tg.tau)
    assert builds == [([g], tg.tau)]


def block_rows(grids):
    size = sum(math.prod(n - 2 for n in g.shape) for g in grids)
    return max(2, _BLOCK_COEFFICIENTS // size)


@pytest.mark.parametrize(
    "N_of_rows",
    [lambda rows: 1, lambda rows: rows, lambda rows: 3 * rows + 1],
    ids=["N-1", "N-rows", "N-3rows+1"],
)
@pytest.mark.parametrize(
    "grids",
    [[Grid2D(32, 32)], [Grid1D(J) for J in (2, 4, 8, 16, 32)]],
    ids=["2d-lone-32", "1d-batch-2..32"],
)
def test_block_energies_match_energy_of_each_window(grids, N_of_rows):
    # run_batch takes the hook's values of a block of levels in one pass,
    # carrying the E^2 of the level before it (for the defect) and the sum
    # of ||f^j|| (for the bound) from block to block; N = 1, a full block,
    # and three full blocks and a partial one cover its ends.  Each grid's
    # run and nodal loop run alone.
    dim = len(grids[0].shape)
    f = "t^3*sin(pi*x)" if dim == 1 else "t^3*sin(pi*x)*sin(pi*y)"
    rows = block_rows(grids)
    tg = TimeGrid(N_of_rows(rows), 1.0)
    problem = forced_batch(dim, f)
    blocks = Blocks()
    run_batch(problem, grids, tg, on_block=blocks)
    q, z, E2, defect, bound = blocks.rows()
    energies = np.sqrt(E2)
    assert len(blocks.parts) == -(-(tg.N + 1) // rows)
    assert np.all(np.abs(defect) <= 1e-13 * (1.0 + E2))
    for k, g in enumerate(grids):
        _, records = run(problem, g, tg)
        alone = np.array([(r.E, r.bound) for r in records])
        if len(grids) == 1:  # the same run
            assert np.array_equal(alone, np.column_stack((energies, bound)))
        total = 0.0
        for n, state in enumerate(nodal_states(problem, g, tg)):
            E = energy(state, tg.tau).E
            assert energies[n, k] == pytest.approx(E, rel=1e-12)
            assert q[n, k] == pytest.approx(state.q_curr, rel=1e-12)
            if n:
                total += mesh.norm(g, mesh.sample(g, problem.f, n * tg.tau))
            expected = energies[0, k] + 2.0 * tg.tau * total
            assert bound[n, k] == pytest.approx(expected, rel=1e-12)
            assert alone[n] == pytest.approx((energies[n, k], bound[n, k]), rel=1e-12)


def test_run_executes_n_steps_and_records():
    g = Grid1D(4)
    state, records = run(forced_problem(), g, TimeGrid(1, 1.0))
    assert state.n == 2  # exactly one step from the startup level
    assert len(records) == 2
    assert records[0].n == 0 and records[1].n == 1


def test_run_energy_monotone_without_forcing():
    g = Grid1D(16)
    state, records = run(free_problem(), g, TimeGrid(400, 1.0))
    E = [r.E for r in records]
    tol = 1e-12 * (1.0 + E[0])
    assert all(E[i + 1] <= E[i] + tol for i in range(len(E) - 1))
    assert E[-1] < E[0]  # visible decay, not just non-increase


def test_run_energy_definition_matches_norms():
    # hand-built window: A*dU = s, V levels equal s
    g = Grid1D(6)
    tau = 0.1
    rng = np.random.default_rng(40)
    s = np.zeros(g.shape)
    s[1:-1] = rng.standard_normal(2 * g.J - 1)
    state = StepperState(
        n=1,
        U_prev=np.zeros(g.shape),
        U_curr=tau * operators.solve_A(s),
        V_prev=s.copy(),
        V_curr=s.copy(),
        q_curr=1.0,
    )
    rec = energy(state, tau)
    expected = np.sqrt(
        mesh.norm(g, s) ** 2 + mesh.norm(g, operators.apply_A(s)) ** 2
    )
    assert rec.E == pytest.approx(expected, rel=1e-13)


def test_stability_bound_holds_on_forced_run():
    state, records = run(forced_problem(), Grid1D(16), TimeGrid(200, 1.0))
    report = stability_check(records)
    assert report.ok


def test_stability_check_flags_corrupted_record():
    state, clean = run(forced_problem(), Grid1D(8), TimeGrid(50, 1.0))
    for corrupted in (2 * clean[20].E + 1.0, np.nan):  # an excess, a NaN energy
        records = list(clean)
        records[20] = dataclasses.replace(records[20], E=corrupted)
        report = stability_check(records)
        assert not report.ok
        assert report.violations[0][0] == 20


def test_superposition_with_constant_law():
    # with P constant the forcing-to-solution map is affine
    law = damping.constant_law(3.0)
    g = Grid1D(8)
    tg = TimeGrid(16, 1.0)
    u0 = expr.parse("sin(pi*x)")
    u1 = expr.parse("0")

    def terminal(f_src):
        prob = Problem1D(u0, u1, expr.parse(f_src), law, 1.0)
        state, _ = run(prob, g, tg)
        return state.U_curr

    U0 = terminal("0")
    U1 = terminal("t*sin(pi*x)")
    U2 = terminal("sin(2*pi*x)*exp(-t)")
    U12 = terminal("t*sin(pi*x) + sin(2*pi*x)*exp(-t)")
    lhs = U1 + U2 - U0
    assert np.max(np.abs(lhs - U12)) <= 1e-10 * max(1.0, np.max(np.abs(U12)))


def test_mol_zero_data():
    U, W, V = mol_reference(zero_problem(), Grid1D(8), 1.0, 1e-3)
    assert not U.any() and not W.any() and not V.any()


def test_mol_energy_dissipates_without_forcing():
    g = Grid1D(8)
    prob = free_problem()
    dt = g.h**2 / 8.0
    samples = []
    for t_end in (0.1, 0.2, 0.4, 0.8):
        U, W, V = mol_reference(prob, g, t_end, dt)
        E = np.sqrt(
            mesh.norm(g, operators.apply_A(W)) ** 2
            + mesh.norm(g, operators.apply_A(V)) ** 2
        )
        samples.append(E)
    assert all(b <= a * (1 + 1e-9) for a, b in zip(samples, samples[1:]))


def test_mol_instability_detected():
    g = Grid1D(8)
    from damped_eb.stepper1d import IntegrationError

    with pytest.raises(IntegrationError):
        mol_reference(forced_problem(), g, 1.0, dt=g.h)  # far beyond stability


def test_fully_discrete_converges_to_mol_at_second_order():
    g = Grid1D(8)
    prob = forced_problem()
    U_ref, _, _ = mol_reference(prob, g, 1.0, dt=g.h**2 / 8.0)
    errors = []
    for N in (63, 127):
        state, _ = run(prob, g, TimeGrid(N, 1.0))
        errors.append(mesh.norm(g, state.U_curr - U_ref))
    ratio = errors[0] / errors[1]
    assert 3.3 <= ratio <= 4.7


# forcing of the form g(t) * F(x[, y]) is staged: F is transformed once per
# grid, and a step scales it by g(t_n)
STAGED = {
    1: [
        "t^3*sin(pi*x)",
        "0.93*(t^3*sin(pi*x))",
        "-(t^2)*x*(1-x)",
        "sin(pi*x)",
        "exp(-t)",
        "0",
    ],
    2: ["t^3*sin(pi*x)*sin(pi*y)", "-2*t*sin(pi*x)*sin(pi*y)", "1.1*(exp(-t)*(x*y))"],
}
BATCHES = {
    1: [Grid1D(2), Grid1D(5), Grid1D(16)],
    2: [Grid2D(2, 3), Grid2D(4, 4), Grid2D(8, 5)],
}


@pytest.mark.parametrize(
    "dim,source", [(dim, src) for dim, sources in STAGED.items() for src in sources]
)
def test_staged_forcing_matches_sampled_coefficients(dim, source):
    tree = expr.parse(source)
    assert expr.split_time(tree) is not None
    grids = BATCHES[dim]
    scheme = _SineScheme(grids, 0.37)
    force = scheme.forcing(tree)
    rows = np.empty((2, scheme.size))
    f_norms = np.empty((2, len(grids)))
    force(1, rows, f_norms)  # lam (A f^n)h of steps n = 1, 2; the startup samples f^0
    apply_A = DIMENSIONS[dim][2]
    for n in (1, 2):
        t = n * scheme.tau
        # the stencil's average of f on the closed grid, boundary included
        fields = [mesh.evaluate(g, tree, t) for g in grids]
        ref = scheme.sine([apply_A(f)[g.interior] for f, g in zip(fields, grids)])
        ref *= scheme.lam
        err = np.max(np.abs(rows[n - 1] - ref))
        assert err <= 1e-13 * max(1.0, np.max(np.abs(ref)))
        norms = [closed_norm(g, f) for f, g in zip(fields, grids)]
        assert f_norms[n - 1] == pytest.approx(norms, rel=1e-13, abs=1e-300)


def test_staged_forcing_samples_only_at_startup(monkeypatch):
    calls = []  # every nodal evaluation, sampled or initial data
    evaluate = mesh.evaluate
    monkeypatch.setattr(mesh, "evaluate", lambda *a: calls.append(a) or evaluate(*a))
    counts = []
    for N in (4, 16):
        calls.clear()
        run(forced_problem(), Grid1D(8), TimeGrid(N, 1.0))
        counts.append(len(calls))
    assert counts == [4, 4]  # u0, u1, the space factor of f and f^0
    calls.clear()
    mixed = dataclasses.replace(forced_problem(), f=expr.parse("sin(pi*x*t)"))
    run(mixed, Grid1D(8), TimeGrid(16, 1.0))
    assert len(calls) == 3 + 16  # u0, u1, f^0, then f at every step


@pytest.mark.parametrize(
    "source,grid,message",
    [
        (
            "sqrt(t-0.5)*sin(pi*x)",
            Grid1D(4),
            "invalid value encountered in sqrt at x=0.0, t=0.0",
        ),
        (
            "sqrt(0.5-t)*sin(pi*x)",
            Grid1D(4),
            "invalid value encountered in sqrt at x=0.0, t=0.5555555555555556",
        ),
        (
            "sin(pi*x)*sin(pi*y)*sqrt(t-0.5)",
            Grid2D(2, 3),
            "invalid value encountered in sqrt at x=0.0, y=0.0, t=0.0",
        ),
    ],
)
def test_staged_forcing_domain_error_names_the_node(source, grid, message):
    # the same message, byte for byte, as sampling f at every step gives
    problem_cls = Problem1D if len(grid.shape) == 1 else Problem2D
    u0 = "sin(pi*x)" if len(grid.shape) == 1 else "sin(pi*x)*sin(pi*y)"
    zero = expr.parse("0")
    f = expr.parse(source)
    prob = problem_cls(expr.parse(u0), zero, f, damping.sqrt_law(), 1.0)
    with pytest.raises(expr.DomainError) as err:
        run(prob, grid, TimeGrid(8, 1.0))
    assert str(err.value) == message


def test_batch_holds_grids_of_one_dimension():
    with pytest.raises(ValueError, match="one dimension"):
        _SineScheme([Grid1D(4), Grid2D(4, 4)], 0.1)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_batch_damping_integrals_match_simpson_norms(dim):
    # a batch computes z per grid through flip permutations of the
    # concatenated coefficients; each z is that grid's norm
    rng = np.random.default_rng(7)
    grids, kind = BATCHES[dim], "b" if dim == 1 else "f"
    fields = [
        random_gridfn_1d(rng, g.J) if dim == 1 else random_gridfn_2d(rng, g.J1, g.J2)
        for g in grids
    ]
    scheme = _SineScheme(grids, 0.1)
    V = scheme.sine([u[g.interior] for u, g in zip(fields, grids)])
    z = np.empty(len(grids))
    scheme.integral(V, z)
    norms = [mesh.norm(g, u, kind) ** 2 for g, u in zip(grids, fields)]
    assert z == pytest.approx(norms, rel=1e-13)


def forced_batch(dim, f="t^3*sin(pi*x)", law=None):
    u0 = "sin(pi*x)" if dim == 1 else "sin(pi*x)*sin(pi*y)"
    problem_cls = Problem1D if dim == 1 else Problem2D
    zero = expr.parse("0")
    f = expr.parse(f) if isinstance(f, str) else f
    return problem_cls(expr.parse(u0), zero, f, law or damping.sqrt_law(), 1.0)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_batch_evaluates_law_once_per_step(dim):
    # one call on the array of z of every grid, not one call per grid
    calls = []

    def counting(z):
        calls.append(np.shape(z))
        return np.sqrt(1.0 + z)

    law = damping.DampingLaw("counting", counting, p0=1.0)
    grids = [Grid1D(J) for J in (2, 3, 5, 8, 16)] if dim == 1 else BATCHES[2]
    N = 12
    run_batch(forced_batch(dim, law=law), grids, TimeGrid(N, 1.0))
    assert calls == [(len(grids),)] * (N + 1)


def test_staged_time_factor_evaluated_once(monkeypatch):
    # g(t) = t^3 is evaluated on all times of a block at once, not per step
    # (one block here: levels 1..N; the startup samples f^0)
    calls = []
    evaluate = expr.evaluate

    def spy(tree, *args, **kwargs):
        if not (expr.uses_variable(tree, "x") or expr.uses_variable(tree, "y")):
            calls.append(np.shape(kwargs.get("t", 0.0)))
        return evaluate(tree, *args, **kwargs)

    monkeypatch.setattr(expr, "evaluate", spy)
    for N in (4, 16):
        calls.clear()
        run(forced_problem(), Grid1D(8), TimeGrid(N, 1.0))
        t_calls = [shape for shape in calls if shape]
        assert t_calls == [(N,)]


@pytest.mark.parametrize(
    "func, array_func",
    [
        (lambda z: math.sqrt(1.0 + z), lambda z: np.sqrt(1.0 + z)),
        (lambda z: 2.0 if z < 5.0 else 3.0, lambda z: np.where(z < 5.0, 2.0, 3.0)),
    ],
    ids=["math-sqrt", "branch"],
)
@pytest.mark.parametrize("sizes", [(2, 4, 8), (8,)], ids=["batch", "lone"])
def test_law_of_floats_only_is_evaluated_per_grid(func, array_func, sizes):
    # a law written for floats, which may raise on the array of z, gives the
    # run of the same law written for arrays
    grids = [Grid1D(J) for J in sizes]
    tg = TimeGrid(16, 1.0)
    blocks, ref_blocks = Blocks(), Blocks()
    floats = run_batch(
        forced_batch(1, law=damping.DampingLaw("f", func, 1.0)), grids, tg, blocks
    )
    arrays = run_batch(
        forced_batch(1, law=damping.DampingLaw("a", array_func, 1.0)), grids, tg,
        ref_blocks,
    )
    for a, b in zip(blocks.rows(), ref_blocks.rows()):
        assert np.array_equal(a, b)
    for state, ref in zip(floats, arrays):
        assert state.q_curr == ref.q_curr


def scalar_only(law):
    """``law`` evaluated one z at a time: every step takes the per-grid
    path on floats."""

    def func(z):
        if isinstance(z, np.ndarray):
            raise expr.DomainError("the reference takes one z at a time")
        return law.func(z)

    return dataclasses.replace(law, func=func)


REFERENCE_LAWS = [
    "sqrt",
    "linear",
    "constant",
    "2 + z/(1+z)",
    "1/(1+z) + 2",
    "1 + z^0.5",
    "2 + exp(-z)",
]
REFERENCE_F = {
    1: [
        "t^3*sin(pi*x)",  # staged
        "sin(pi*x)",  # t-free
        "sin(pi*x*t)",  # not separable
        lambda x, t: np.sin(np.pi * x) * np.cos(t),  # callable
    ],
    2: [
        "t^3*sin(pi*x)*sin(pi*y)",
        "x*y*(1-x)",
        "sin(pi*x*y*t)",
        lambda x, y, t: x * y * np.cos(t),
    ],
}


@settings(max_examples=40, deadline=None)
@given(
    dim=strategies.sampled_from([1, 2]),
    sizes=strategies.lists(strategies.integers(2, 9), min_size=1, max_size=4),
    law=strategies.sampled_from(REFERENCE_LAWS),
    kind=strategies.integers(0, 3),
    N=strategies.integers(2, 24),
)
@example(dim=1, sizes=[2, 4, 8, 9], law="1/(1+z) + 2", kind=0, N=24)
@example(dim=2, sizes=[2, 5, 3], law="constant", kind=2, N=8)
def test_batch_matches_per_grid_q_checked_reference(dim, sizes, law, kind, N):
    # the one law call per step on the array of z gives the q of a per-grid
    # q_checked, so states and the hook's values (energies and bounds among
    # them) agree bit for bit
    grids = [Grid1D(J) if dim == 1 else Grid2D(J, 11 - J) for J in sizes]
    law = damping.law_from_spec(law)
    problem = forced_batch(dim, REFERENCE_F[dim][kind], law)
    reference = dataclasses.replace(problem, law=scalar_only(law))
    tg = TimeGrid(N, 1.0)
    blocks, ref_blocks = Blocks(), Blocks()
    states = run_batch(problem, grids, tg, blocks)
    ref_states = run_batch(reference, grids, tg, ref_blocks)
    for a, b in zip(blocks.rows(), ref_blocks.rows()):
        assert np.array_equal(a, b)
    for state, ref in zip(states, ref_states):
        assert state.q_curr == ref.q_curr and isinstance(state.q_curr, float)
        for name in ("U_prev", "U_curr", "V_prev", "V_curr"):
            assert np.array_equal(getattr(state, name), getattr(ref, name))


# with q = 1, z = ||V^n||^2 grows from 0 under each forcing; a law that
# leaves its hypotheses once z passes z_fail does so inside an energy block
# (68 rows for the 1D batch, 36 for the lone 2D grid)
GROWING = {
    1: ([Grid1D(J) for J in (2, 4, 8, 16, 32)], "1000*t*sin(pi*x)", 1000.0),
    2: ([Grid2D(8, 8)], "1000*t*sin(pi*x)*sin(pi*y)", 100.0),
}


def growing_problem(dim, func):
    """The growing run of GROWING[dim] with the law ``func``, p0 = 1."""
    zero, f = expr.parse("0"), expr.parse(GROWING[dim][1])
    law = damping.DampingLaw("threshold", func, p0=1.0)
    return (Problem1D if dim == 1 else Problem2D)(zero, zero, f, law, 1.0)


def named_failure(err):
    """(n, t, z, q, grid) as a DampingError names them."""
    pattern = r"q = (\S+) at n = (\d+), t = (\S+) from law .* = (\S+) on (.+);"
    q, n, t, z, grid = re.search(pattern, str(err)).groups()
    return int(n), float(t), float(z), float(q), grid


@pytest.mark.parametrize("dim", [1, 2], ids=["1d-batch", "2d-lone"])
def test_failure_inside_a_block_is_named_as_the_nodal_steps_name_it(dim):
    # q drops below p0 at a level that neither starts nor ends its block; the
    # guard raises as that block closes, naming the level, time, z, q and
    # grid that the nodal init/step loop on that grid names at once, and the
    # hook gets every block before it, never the failing one
    grids, _, z_fail = GROWING[dim]
    problem = growing_problem(dim, lambda z: np.where(z < z_fail, 1.0, 0.5))
    tg = TimeGrid(200, 1.0)
    rows = max(2, _BLOCK_COEFFICIENTS // _SineScheme(grids, tg.tau).size)
    assert rows == (68 if dim == 1 else 36)
    blocks = Blocks()
    with pytest.raises(damping.DampingError) as err:
        run_batch(problem, grids, tg, on_block=blocks)
    n, t, z, q, name = named_failure(err.value)
    assert n > rows and 0 < n % rows < rows - 1
    assert blocks.levels == n - n % rows
    (grid,) = [g for g in grids if repr(g) == name]
    with pytest.raises(damping.DampingError) as nodal:
        nodal_states(problem, grid, tg)
    n_ref, t_ref, z_ref, q_ref, name_ref = named_failure(nodal.value)
    assert (n, t, q, name) == (n_ref, t_ref, q_ref, name_ref) and q == 0.5
    assert z == pytest.approx(z_ref, rel=1e-5)  # printed to 6 digits


def test_law_raising_after_a_failed_level_still_names_that_level():
    # a law of floats only leaves its hypotheses at one level and raises an
    # error that is no DomainError some levels later in the same block; the
    # run still raises the DampingError of the failed level
    grids, _, z_fail = GROWING[1]
    raised = []

    def func(z):
        if isinstance(z, np.ndarray):
            raise TypeError("the law takes one z at a time")
        if z >= 1.4 * z_fail:
            raised.append(z)
            raise OverflowError("z too large for this law")
        return 1.0 if z < z_fail else 0.5

    tg = TimeGrid(200, 1.0)
    with pytest.raises(damping.DampingError) as err:
        run_batch(growing_problem(1, func), grids, tg)
    assert raised  # the law raised after the failed level, before its block closed
    array_law = growing_problem(1, lambda z: np.where(z < z_fail, 1.0, 0.5))
    with pytest.raises(damping.DampingError) as ref:
        run_batch(array_law, grids, tg)
    assert str(err.value) == str(ref.value)


def start_mol_reference(problem, grid, tg):
    """The RK4 reference to t = 0.01 (stable with dt = 0.001 for J <= 4)."""
    return mol_reference(problem, grid, 0.01, 0.001)


@pytest.mark.parametrize("key", ["u0", "u1"])
def test_initial_data_that_depend_on_t_are_rejected(key):
    # the startup samples u0 and u1 at t = 0, so u1 = t*sin(pi*x) used to
    # run as u1 = 0 without a word
    problem = dataclasses.replace(forced_problem(), **{key: expr.parse("t*sin(pi*x)")})
    for start in (run, init, start_mol_reference):
        with pytest.raises(ValueError, match=f"^{key} uses t"):
            start(problem, Grid1D(4), TimeGrid(8, 1.0))


@pytest.mark.parametrize("key", ["u0", "u1"])
def test_callable_initial_data_that_depend_on_t_are_rejected(key):
    # a callable datum is sampled at t = 0 and at t = 1, so t*sin(pi*x) no
    # longer runs as 0 without a word; one that ignores t runs as the same
    # expression does
    message = f"^{key} uses t, but initial data may not depend on t$"
    problem = forced_problem()
    uses_t = dataclasses.replace(problem, **{key: lambda x, t: t * np.sin(np.pi * x)})
    for start in (run, init, start_mol_reference):
        with pytest.raises(ValueError, match=message):
            start(uses_t, Grid1D(4), TimeGrid(8, 1.0))
    free = dataclasses.replace(problem, **{key: lambda x, t: 0.5 * np.sin(np.pi * x)})
    same = dataclasses.replace(problem, **{key: expr.parse("0.5*sin(pi*x)")})
    (a, _), (b, _) = (run(p, Grid1D(4), TimeGrid(8, 1.0)) for p in (free, same))
    assert np.array_equal(a.U_curr, b.U_curr)


@pytest.mark.parametrize(
    "key,u,grid,node",
    [
        ("u0", expr.parse("x"), Grid1D(4), "u0 = 1 at the boundary node x=1.0"),
        ("u0", lambda x, t: x, Grid1D(4), "u0 = 1 at the boundary node x=1.0"),
        ("u1", expr.parse("x*y"), Grid2D(4, 4),
         "u1 = 1 at the boundary node x=1.0, y=1.0"),
    ],
    ids=["1d-u0", "1d-u0-callable", "2d-u1"],
)
def test_initial_data_that_do_not_vanish_on_the_boundary_are_rejected(
    key, u, grid, node
):
    # sampling zeroes the boundary nodes, so u0 = x used to run as a
    # different u0 without a word (and did so in the RK4 reference)
    cls = Problem1D if isinstance(grid, Grid1D) else Problem2D
    zero = expr.parse("0")
    problem = cls(u0=zero, u1=zero, f=zero, law=damping.sqrt_law(), T=1.0)
    problem = dataclasses.replace(problem, **{key: u})
    message = f"^{re.escape(node)}, but initial data must vanish on the boundary$"
    starts = (run, init) if cls is Problem2D else (run, init, start_mol_reference)
    for start in starts:
        with pytest.raises(ValueError, match=message):
            start(problem, grid, TimeGrid(8, 1.0))


def test_initial_data_vanishing_to_round_off_on_the_boundary_are_accepted():
    # sin(64 pi x) reads 7.8e-15 of its maximum at x = 1
    problem = dataclasses.replace(forced_problem(), u1=expr.parse("sin(64*pi*x)"))
    assert init(problem, Grid1D(64), TimeGrid(8, 1.0)).n == 1


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63,
    reason="np.longdouble has no extended precision on this platform",
)
def test_increment_form_matches_extended_precision():
    # A single-mode run of 16,384 steps against the same recurrence for that
    # mode in 80-bit long double, from the same float64 symbols and data.
    # The step carries delta^n = U^{n+1} - U^n, whose terms are all of the
    # size of delta; the position form, P U^n - (Q - c_n lam^2) U^{n-1}
    # with P ~ 2 Q ~ 2 lam^2/tau^2, drifted by 3.5e-10 relative here.
    g, tg = Grid1D(16), TimeGrid(16384, 1.0)
    state, _ = run(forced_problem(), g, tg)
    S, lam, mu = operators._sine_symbols([g.shape[0] - 2])
    U_hat = operators._transform(S, state.U_curr[g.interior])
    F_hat = operators._transform(S, mesh.sample(g, forced_problem().u0)[g.interior])
    assert np.max(np.abs(U_hat[1:])) < 1e-15  # the run stays in mode 1

    ld = np.longdouble
    tau, h, F = ld(tg.tau), ld(g.cell), ld(F_hat[0])  # u0 = F = sin(pi x)
    lam2, mu2, AinvD = ld(lam[0]) ** 2, ld(mu[0]) ** 2, ld(mu[0]) / ld(lam[0])
    Q = lam2 / (tau * tau) + mu2 / 2
    d = (tau * tau / 2) * (-AinvD * AinvD * F)  # u1 = 0 and f(., 0) = 0
    U = F + d
    for n in range(1, tg.N + 1):
        V = AinvD * U
        c = np.sqrt(1 + h * V * V) / (2 * tau) * lam2  # sqrt law, z = h V^2
        d = (lam2 * (n * tau) ** 3 * F - mu2 * U + (Q - c) * d) / (Q + c)
        U += d
    assert abs(U_hat[0] - U) <= 1e-13 * abs(U)


def test_run_without_a_hook_keeps_nothing_per_level():
    # A run hands its per-level outputs to the hook and keeps none of them;
    # the times and g(t_n) are formed per block, so without a hook the traced
    # peak of a run does not grow with N.
    grids = [Grid1D(J) for J in (2, 4, 8, 16, 32)]
    problem = forced_batch(1)
    run_batch(problem, grids, TimeGrid(64, 1.0))  # warm-up
    peaks = []
    for N in (512, 16384):
        tracemalloc.start()
        try:
            run_batch(problem, grids, TimeGrid(N, 1.0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1024


@pytest.mark.parametrize(
    "g,f",
    [
        (Grid1D(8), "t^3*sin(pi*x)"),
        (Grid1D(5), "sin(pi*x*t) + x"),
        (Grid2D(4, 5), "t^3*sin(pi*x)*sin(pi*y)"),
        (Grid2D(3, 3), "cos(3*t)*x*y + sin(pi*x*y*t)"),
    ],
    ids=["1d-staged", "1d-sampled", "2d-staged", "2d-sampled"],
)
def test_bound_is_the_first_energy_plus_2_tau_times_the_forcing_norms(g, f):
    # recomputed from f^j alone: E^0 + 2 tau sum_{j=1..n} ||f^j||, the norm
    # summing every node of the closed grid
    problem = forced_batch(len(g.shape), f)
    tg = TimeGrid(20, 1.0)
    _, records = run(problem, g, tg)
    total = 0.0
    for n, rec in enumerate(records):
        if n:
            total += closed_norm(g, mesh.evaluate(g, problem.f, n * tg.tau))
        expected = records[0].E + 2.0 * tg.tau * total
        assert rec.bound == pytest.approx(expected, rel=1e-12)


def _sines(dim, coefficients):
    """Expression text of sum_k c_k sin(k pi x) (times sin(pi y) on a plate)."""
    y = "*sin(pi*y)" if dim == 2 else ""
    return " + ".join(
        f"({c!r})*sin({k}*pi*x){y}" for k, c in enumerate(coefficients, 1)
    )


coefficient = strategies.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    dim=strategies.sampled_from([1, 2]),
    sizes=strategies.lists(strategies.integers(2, 8), min_size=1, max_size=3),
    law=strategies.sampled_from(REFERENCE_LAWS),
    u0=strategies.lists(coefficient, min_size=1, max_size=3),
    u1=strategies.lists(coefficient, min_size=1, max_size=3),
    kind=strategies.integers(0, 3),
    N=strategies.integers(1, 40),
)
@example(  # u1 != 0 on Grid1D(8), N = 64
    dim=1, sizes=[8], law="sqrt", u0=[1.0], u1=[0.0, 0.0, 0.3], kind=0, N=64,
)
def test_energy_balance_holds_on_random_runs(dim, sizes, law, u0, u1, kind, N):
    # the exact energy balance of every step, at the command line's
    # tolerance, for random data, laws, forcings and batches of either
    # dimension
    grids = [Grid1D(J) if dim == 1 else Grid2D(J, 10 - J) for J in sizes]
    problem = forced_batch(dim, REFERENCE_F[dim][kind], damping.law_from_spec(law))
    problem = dataclasses.replace(
        problem,
        u0=expr.parse(_sines(dim, u0)),
        u1=expr.parse(_sines(dim, u1)),
    )
    blocks = Blocks()
    run_batch(problem, grids, TimeGrid(N, 1.0), on_block=blocks)
    _, _, E2, defect, _ = blocks.rows()
    assert blocks.levels == N + 1
    assert np.all(np.abs(defect) <= STABILITY_TOL * (1.0 + E2))
