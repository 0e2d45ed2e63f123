"""Verification against exact solutions (Roache, J. Fluids Eng. 124, 2002).

Every other convergence check compares runs of the scheme with each other,
which cannot see a defect that all of them share.  Here f is manufactured
so that u = e^{-t} sin(pi x) (beam) resp. e^{-t} sin(pi x) sin(pi y)
(plate) solves u_tt + q(t) u_t + Lap^2 u = f under the sqrt law
q = sqrt(1 + ||Lap u||^2), with ||Lap u||^2 = pi^4 e^{-2t}/2 resp.
pi^4 e^{-2t} in closed form.  u1 = -u0 and f(., 0) != 0, so every term of
the startup's delta^0 = tau u1 + (tau^2/2)(-q_0 u1 - Lap^2 u0 + f^0) is
nonzero and a dropped or mis-signed one breaks second order in time.
On fine enough time grids the same solutions show fourth order in space.
"""
import math

import pytest

from damped_eb import damping, expr, mesh
from damped_eb.mesh import Grid1D, Grid2D, TimeGrid
from damped_eb.stepper1d import Problem1D, run, run_batch
from damped_eb.stepper2d import Problem2D

T = 1.0

PROBLEMS = {
    "beam": Problem1D(
        expr.parse("sin(pi*x)"),
        expr.parse("-sin(pi*x)"),
        expr.parse(
            "(exp(-t) - sqrt(1 + pi^4*exp(-2*t)/2)*exp(-t) + pi^4*exp(-t))"
            "*sin(pi*x)"
        ),
        damping.sqrt_law(),
        T,
    ),
    "plate": Problem2D(
        expr.parse("sin(pi*x)*sin(pi*y)"),
        expr.parse("-sin(pi*x)*sin(pi*y)"),
        expr.parse(
            "(exp(-t) - sqrt(1 + pi^4*exp(-2*t))*exp(-t) + 4*pi^4*exp(-t))"
            "*sin(pi*x)*sin(pi*y)"
        ),
        damping.sqrt_law(),
        T,
    ),
}

# (grid, time refinements, bound on the finest error); each grid's spatial
# error stays below the temporal error of the finest N (a plate row N = 512
# would meet it: order 2.59)
TEMPORAL = {
    "beam": (Grid1D(32), [64, 128, 256, 512], 7e-7),
    "plate": (Grid2D(16, 16), [32, 64, 128, 256], 1.2e-6),
}

# (space refinements, bound on the finest error) at N = 4096, whose temporal
# error stays below the spatial error of the finest grid
SPATIAL = {
    "beam": ([Grid1D(J) for J in (4, 8, 16)], 3e-7),
    "plate": ([Grid2D(J, J) for J in (4, 8, 16)], 1.4e-7),
}


def error(problem, grid, state):
    """L2 error of a state's U against the exact solution at time T."""
    return mesh.norm(grid, state.U_curr - mesh.sample(grid, problem.u0) * math.exp(-T))


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_error_against_the_exact_solution_is_second_order_in_time(name):
    problem, (grid, Ns, bound) = PROBLEMS[name], TEMPORAL[name]
    assert expr.split_time(problem.f) is not None  # the staged forcing path
    errors = [error(problem, grid, run(problem, grid, TimeGrid(N, T))[0]) for N in Ns]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    # beam 1.98 / 2.00 / 2.02, plate 2.06 / 1.98 / 2.10
    assert all(1.9 <= p <= 2.2 for p in orders), (errors, orders)
    assert errors[-1] <= bound, errors  # beam 6.50e-7, plate 1.12e-6


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_error_against_the_exact_solution_is_fourth_order_in_space(name):
    problem, (grids, bound) = PROBLEMS[name], SPATIAL[name]
    finals = run_batch(problem, grids, TimeGrid(4096, T))
    errors = [error(problem, g, state) for g, state in zip(grids, finals)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    # beam 4.01 / 4.06, plate 4.01 / 4.05
    assert all(3.9 <= p <= 4.2 for p in orders), (errors, orders)
    assert errors[-1] <= bound, errors  # beam 2.59e-7, plate 1.23e-7
