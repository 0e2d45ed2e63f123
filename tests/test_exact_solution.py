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

A single sine mode is an eigenvector of the whole scheme, so it cannot see
the boundary values of f, which the compact right side averages in.  The
polynomial solutions below vanish with their second derivatives at both
ends, but their f does not, so they check fourth order in space beyond one
mode: u = e^{-t} p(x) with p = x - 2x^3 + x^4 (||u_xx||^2 = 4.8 e^{-2t},
f(0, t) = 24 e^{-t}), the plate e^{-t} p(x) p(y), and the asymmetric
u = e^{-t} r(x), r = 7x - 10x^3 + 3x^5 (||u_xx||^2 = (1920/7) e^{-2t},
f = 0 at x = 0 but not at x = 1).
"""
import math

import pytest

from damped_eb import damping, expr, mesh, operators
from damped_eb.mesh import Grid1D, Grid2D, TimeGrid
from damped_eb.stepper1d import Problem1D, mol_reference, run, run_batch
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


P, PY, R = "(x - 2*x^3 + x^4)", "(y - 2*y^3 + y^4)", "(7*x - 10*x^3 + 3*x^5)"
PLATE_Z = 2 * 4.8 * 31 / 630 + 2 * (17 / 35) ** 2  # ||Lap u||^2 e^{2t}

POLYNOMIALS = {
    "beam": Problem1D(
        expr.parse(P),
        expr.parse(f"-{P}"),
        expr.parse(f"exp(-t)*((1 - sqrt(1 + 4.8*exp(-2*t)))*{P} + 24)"),
        damping.sqrt_law(),
        T,
    ),
    "asymmetric": Problem1D(
        expr.parse(R),
        expr.parse(f"-{R}"),
        expr.parse(f"exp(-t)*((1 - sqrt(1 + 1920/7*exp(-2*t)))*{R} + 360*x)"),
        damping.sqrt_law(),
        T,
    ),
    "plate": Problem2D(
        expr.parse(f"{P}*{PY}"),
        expr.parse(f"-{P}*{PY}"),
        expr.parse(
            f"exp(-t)*((1 - sqrt(1 + {PLATE_Z!r}*exp(-2*t)))*{P}*{PY}"
            f" + 24*{PY} + 288*x*(x - 1)*y*(y - 1) + 24*{P})"
        ),
        damping.sqrt_law(),
        T,
    ),
}

# bound on the error at J = 8 (N = 4096): beam 6.07e-8, asymmetric
# 1.65e-6, plate 6.18e-10; the time error shows from J = 16 on
POLYNOMIAL_BOUNDS = {"beam": 7e-8, "asymmetric": 2e-6, "plate": 7e-10}


@pytest.mark.parametrize("name", list(POLYNOMIALS))
def test_error_against_polynomial_solutions_is_fourth_order_in_space(name):
    problem = POLYNOMIALS[name]
    assert expr.split_time(problem.f) is None  # the sampled forcing path
    grids = [mesh.grid_for(problem.dimension, J) for J in (4, 8)]
    finals = run_batch(problem, grids, TimeGrid(4096, T))
    errors = [error(problem, g, state) for g, state in zip(grids, finals)]
    order = math.log2(errors[0] / errors[1])
    # beam 4.11, asymmetric 4.00, plate 4.04; f's boundary values dropped
    # from the right side read 1.99, 1.98 and 2.38
    assert 3.8 <= order <= 4.3, (errors, order)
    assert errors[-1] <= POLYNOMIAL_BOUNDS[name], errors
    if name == "asymmetric":
        # the Simpson flip's cross term sum_k Vh_k Vh_{m+1-k}, zero for data
        # of one or two sine modes, enters z = ||V||^2 here
        for g, state in zip(grids, finals):
            S, _, _ = operators._sine_modes(2 * g.J - 1)
            Vh = S @ state.V_curr[g.interior]
            assert abs(Vh @ Vh[::-1]) > 1e-4 * (Vh @ Vh), g


def test_method_of_lines_reference_is_fourth_order_in_space():
    # the RK4 reference averages f on the closed grid as the scheme does
    problem, t_end = POLYNOMIALS["beam"], 0.25
    errors = []
    for J in (4, 8):
        g = Grid1D(J)
        U, _, _ = mol_reference(problem, g, t_end, g.h**2 / 4)
        exact = mesh.sample(g, problem.u0) * math.exp(-t_end)
        errors.append(mesh.norm(g, U - exact))
    order = math.log2(errors[0] / errors[1])
    # 4.00 (1.99 when the reference drops f's boundary values)
    assert 3.9 <= order <= 4.1, (errors, order)
