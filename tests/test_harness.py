from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from damped_eb import damping, expr, harness, mesh, stepper1d
from damped_eb.mesh import Grid1D, Grid2D, TimeGrid
from damped_eb.stepper1d import Problem1D, run
from damped_eb.stepper2d import Problem2D


def problem_1d(f="t^3*sin(pi*x)", law=None):
    return Problem1D(
        expr.parse("sin(pi*x)"),
        expr.parse("0"),
        expr.parse(f),
        law or damping.sqrt_law(),
        1.0,
    )


def problem_2d(f="t^3*sin(pi*x)*sin(pi*y)", law=None):
    return Problem2D(
        expr.parse("sin(pi*x)*sin(pi*y)"),
        expr.parse("0"),
        expr.parse(f),
        law or damping.linear_law(),
        1.0,
    )


def zero_problem_1d():
    z = expr.parse("0")
    return Problem1D(z, z, z, damping.sqrt_law(), 1.0)


def test_temporal_study_orders_approach_two():
    rep = harness.temporal_study(problem_1d(), 8, [128, 256, 512])
    assert rep.kind == "temporal" and rep.dimension == 1
    assert rep.rows[0].order is None
    for row in rep.rows[1:]:
        assert row.order == pytest.approx(2.0, abs=0.4)
    assert all(row.error > 0 for row in rep.rows)


def test_temporal_study_keeps_only_the_terminal_state_of_each_run():
    # each N steps as a batch of one grid; no per-level record is built
    calls = []

    def spy(problem, grids, tg):
        calls.append((len(grids), tg.N))
        return stepper1d.run_batch(problem, grids, tg)

    with mock.patch.object(harness, "run_batch", spy), mock.patch.object(
        stepper1d, "EnergyRecord", side_effect=AssertionError
    ):
        harness.temporal_study(problem_1d(), 8, [4, 8, 16])
    assert sorted(calls) == [(1, 2), (1, 4), (1, 8), (1, 16)]


def test_studies_take_no_energies():
    # a study reads only the terminal states, so its runs take no energy
    # pass and no energy-balance defect
    fail = mock.Mock(side_effect=AssertionError("a study took energies"))
    with mock.patch.object(
        stepper1d._SineScheme, "squared_energy", fail
    ), mock.patch.object(stepper1d._SineScheme, "balance", fail):
        reports = [
            harness.spatial_study(problem_1d(), 256, [4, 8]),
            harness.temporal_study(problem_1d(), 4, [8, 16]),
        ]
    for rep in reports:
        assert len(rep.rows) == 2 and all(row.error > 0 for row in rep.rows)
    assert not fail.called


def test_temporal_study_records_both_steps():
    rep = harness.temporal_study(problem_1d(), 8, [16, 32])
    row = rep.rows[0]
    assert row.step == pytest.approx(1.0 / 17.0)
    assert row.step_pair == pytest.approx(1.0 / 9.0)


def test_spatial_study_orders_approach_four():
    rep = harness.spatial_study(problem_1d(), 4096, [4, 8])
    assert rep.rows[1].order == pytest.approx(4.0, abs=0.4)
    assert all(row.error > 0 for row in rep.rows)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_spatial_study_row_is_the_l2_difference_at_shared_nodes(dim):
    # row J from two lone runs: the coarse grid J//2 against every other
    # node of grid J, weighted by grid J's mesh width h_row = 1/(2J)
    problem, J, N = (problem_1d(), 8, 64) if dim == 1 else (problem_2d(), 4, 16)
    rep = harness.spatial_study(problem, N, [J])
    fine, coarse = (
        run(problem, mesh.grid_for(dim, K), TimeGrid(N, 1.0))[0].U_curr
        for K in (J, J // 2)
    )
    diff = coarse - fine[(slice(None, None, 2),) * dim]
    h_row = 1.0 / (2 * J)
    error = np.sqrt(h_row**dim * np.sum(diff * diff))
    assert rep.rows[0].error == pytest.approx(error, rel=1e-10)


def test_studies_reject_unordered_lists():
    with pytest.raises(ValueError):
        harness.temporal_study(problem_1d(), 8, [32, 16])
    with pytest.raises(ValueError):
        harness.spatial_study(problem_1d(), 64, [8, 4])
    with pytest.raises(ValueError):
        harness.spatial_study(problem_1d(), 64, [2, 4])  # halved run needs J >= 2
    # a repeated entry is no refinement; N = 1 has no halved run
    for N_list in ([8, 8], [1, 2]):
        with pytest.raises(ValueError, match="N_list entries must be"):
            harness.temporal_study(problem_1d(), 8, N_list)
    with pytest.raises(ValueError, match="strictly ascending"):
        harness.spatial_study(problem_1d(), 64, [4, 4])


def test_spatial_study_rejects_odd_J_before_stepping():
    # grids J and J//2 share nodes only for even J; the check runs before
    # any grid is stepped
    with mock.patch.object(harness, "run_batch", side_effect=AssertionError):
        for J_list in ([5, 10], [4, 7], [6, 9, 12]):
            with pytest.raises(ValueError, match=r"even J >= 4"):
                harness.spatial_study(problem_1d(), 16, J_list)


def test_zero_data_studies_give_zero_errors_and_no_orders():
    rep = harness.temporal_study(zero_problem_1d(), 4, [8, 16])
    assert all(row.error == 0.0 for row in rep.rows)
    assert all(row.order is None for row in rep.rows)
    rep = harness.spatial_study(zero_problem_1d(), 8, [4, 8])
    assert all(row.error == 0.0 for row in rep.rows)


def test_temporal_study_2d_smoke():
    rep = harness.temporal_study(problem_2d(), 4, [8, 16])
    assert rep.dimension == 2
    assert all(row.error > 0 for row in rep.rows)
    assert rep.rows[1].order is not None


def test_spatial_study_2d_smoke():
    rep = harness.spatial_study(problem_2d(), 32, [4, 8])
    assert rep.dimension == 2
    assert all(row.error > 0 for row in rep.rows)


def test_energy_study_collects_monotone_sequence():
    _, records = run(problem_1d(f="0"), Grid1D(8), TimeGrid(100, 1.0))
    assert len(records) == 101
    E = [r.E for r in records]
    assert all(b <= a + 1e-12 * (1 + E[0]) for a, b in zip(E, E[1:]))


def test_energy_study_zero_data():
    z = expr.parse("0")
    prob = Problem2D(z, z, z, damping.linear_law(), 1.0)
    _, records = run(prob, Grid2D(4, 4), TimeGrid(5, 1.0))
    assert all(r.E == 0.0 for r in records)


def test_study_is_bit_reproducible_in_1d():
    rep1 = harness.temporal_study(problem_1d(), 8, [16, 32])
    rep2 = harness.temporal_study(problem_1d(), 8, [16, 32])
    assert rep1 == rep2


SEPARABLE_F = [
    "t^3*sin(pi*x)",
    "-2*t*sin(pi*x)*sin(pi*y)",
    "0.93*(t^3*sin(pi*x))",
    "sin(pi*x)",
    "exp(-t)",
    "0",
]
MIXED_F = ["sin(pi*x*t)", "t + sin(pi*x)"]  # not g(t)*F(x): sampled every step


@settings(max_examples=30, deadline=None)
@given(
    dim=strategies.sampled_from([1, 2]),
    J_list=strategies.sampled_from([[4, 8], [6, 12], [4, 6, 12], [4, 8, 16]]),
    law=strategies.sampled_from(["sqrt", "linear", "2 + z/(1+z)"]),
    f=strategies.sampled_from(SEPARABLE_F + MIXED_F),
    N=strategies.integers(4, 40),
)
@example(dim=1, J_list=[4, 8, 16, 32], law="sqrt", f="t^3*sin(pi*x)", N=64)
@example(dim=2, J_list=[6, 12], law="linear", f="sin(pi*x*t)", N=16)
def test_spatial_study_terminals_equal_separate_runs(dim, J_list, law, f, N):
    # one batched time loop steps every grid of the study; each grid's
    # terminal field equals its own single-grid run
    u0 = "sin(pi*x)" if dim == 1 else "sin(pi*x)*sin(pi*y)"
    problem = (Problem1D if dim == 1 else Problem2D)(
        expr.parse(u0),
        expr.parse("0"),
        expr.parse(f),
        damping.law_from_spec(law),
        1.0,
    )
    calls = []

    def spy(*args):
        out = stepper1d.run_batch(*args)
        calls.append((args[1], out))
        return out

    with mock.patch.object(harness, "run_batch", spy):
        harness.spatial_study(problem, N, J_list)
    ((grids, states),) = calls
    Js = sorted(set(J_list) | {J // 2 for J in J_list})
    assert [g.shape[0] for g in grids] == [2 * J + 1 for J in Js]
    for grid, state in zip(grids, states):
        alone, _ = run(problem, grid, TimeGrid(N, 1.0))
        for name in ("U_curr", "V_curr"):
            a, b = getattr(state, name), getattr(alone, name)
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize(
    "dim,law,failing",
    [
        (1, "1 - z", "Grid1D(J=2)"),  # every run fails; the first is named
        (1, "48.6 - z", "Grid1D(J=4)"),  # q(J=2) > 0 > q(J=4) at n = 0
        (2, "1 - z", "Grid2D(J1=2, J2=2)"),
        (2, "97.2 - z", "Grid2D(J1=4, J2=4)"),
    ],
)
def test_spatial_study_damping_error_names_the_failing_run(dim, law, failing):
    zero = expr.parse("0")
    u0 = expr.parse("sin(pi*x)" if dim == 1 else "sin(pi*x)*sin(pi*y)")
    problem = (Problem1D if dim == 1 else Problem2D)(
        u0, zero, zero, damping.law_from_spec(law), 1.0
    )
    with pytest.raises(damping.DampingError) as err:
        harness.spatial_study(problem, 16, [4, 8])
    message = str(err.value)
    assert f"on {failing};" in message
    assert f"law '{law}'" in message and "n = 0, t = 0 " in message
    assert "q = -" in message and "z = ||V||^2 = " in message
