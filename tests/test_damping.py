import math

import numpy as np
import pytest

from damped_eb import damping, expr, mesh
from damped_eb.damping import (
    constant_law,
    law_from_spec,
    linear_law,
    q_coefficient,
    simpson_1d,
    simpson_2d,
    sqrt_law,
    validate_law,
)
from damped_eb.stepper1d import Problem1D, init, run, step
from damped_eb.stepper2d import Problem2D, init2d, step2d

from oracles import random_gridfn_1d, random_gridfn_2d


def test_simpson_1d_exact_for_quadratic():
    g = mesh.Grid1D(2)
    v = g.nodes**2
    assert simpson_1d(v, g.h) == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_simpson_1d_constants():
    assert simpson_1d(np.zeros(5), 0.25) == 0.0
    assert simpson_1d(np.ones(5), 0.25) == pytest.approx(1.0, abs=1e-15)


def test_simpson_1d_rejects_even_length():
    with pytest.raises(ValueError):
        simpson_1d(np.zeros(6), 0.1)


def test_simpson_matches_weighted_norm_1d():
    rng = np.random.default_rng(30)
    for _ in range(200):
        J = int(rng.integers(2, 33))
        g = mesh.grid1d(J)
        v = random_gridfn_1d(rng, J)
        quad = simpson_1d(v * v, g.h)
        nb2 = mesh.norm(g, v, "b") ** 2
        assert abs(quad - nb2) <= 1e-13 * max(1.0, abs(nb2))


def test_simpson_2d_zero_and_unit():
    g = mesh.Grid2D(3, 4)
    assert simpson_2d(np.zeros(g.shape), g.h1, g.h2) == 0.0
    ones = np.ones(g.shape)
    assert simpson_2d(ones, g.h1, g.h2) == pytest.approx(1.0, abs=1e-14)


def test_simpson_2d_parity_check():
    with pytest.raises(ValueError):
        simpson_2d(np.zeros((6, 5)), 0.1, 0.1)
    with pytest.raises(ValueError):
        simpson_2d(np.zeros((5, 4)), 0.1, 0.1)


def test_simpson_2d_nine_point_exact_for_biquadratic():
    g = mesh.Grid2D(2, 2)
    X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
    v = X**2 * Y**2
    assert simpson_2d(v, g.h1, g.h2) == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_simpson_2d_matches_weighted_norm():
    rng = np.random.default_rng(31)
    for _ in range(200):
        J1 = int(rng.integers(2, 9))
        J2 = int(rng.integers(2, 9))
        g = mesh.grid2d(J1, J2)
        w = random_gridfn_2d(rng, J1, J2)
        quad = simpson_2d(w * w, g.h1, g.h2)
        nf2 = mesh.norm(g, w, "f") ** 2
        assert abs(quad - nf2) <= 1e-13 * max(1.0, abs(nf2))


def test_q_coefficient_examples():
    V = np.zeros(5)
    assert q_coefficient(V, linear_law()) == 1.0
    assert q_coefficient(V, sqrt_law()) == 1.0
    V = np.array([0.0, 2.0, 1.0, 2.0, 0.0])
    assert q_coefficient(V, linear_law()) == pytest.approx(1.0 + 17.0 / 6.0, abs=1e-13)


def test_q_coefficient_2d_uses_f_norm():
    rng = np.random.default_rng(33)
    g = mesh.Grid2D(3, 3)
    V = random_gridfn_2d(rng, 3, 3)
    expected = 1.0 + mesh.norm(g, V, "f") ** 2
    assert q_coefficient(V, linear_law()) == pytest.approx(expected, rel=1e-14)


def test_q_coefficient_respects_lower_bound():
    rng = np.random.default_rng(34)
    for law in (constant_law(0.5), linear_law(), sqrt_law()):
        for _ in range(50):
            J = int(rng.integers(2, 17))
            V = random_gridfn_1d(rng, J)
            assert q_coefficient(V, law) >= law.p0


def test_validate_law_clean_laws():
    assert validate_law(linear_law(), 100.0).ok
    assert validate_law(sqrt_law(), 100.0).ok
    assert validate_law(constant_law(2.0), 10.0).ok


def test_validate_law_flags_lower_bound_violation():
    bad = damping.DampingLaw("bad", lambda z: z, p0=0.5)
    report = validate_law(bad, 10.0, samples=11)
    assert not report.ok
    assert report.lower_bound_violations[0][0] == 0.0


@pytest.mark.parametrize("spec,p0", [("z - 1", None), ("2 - z", 1.0), ("3 - z", None)])
def test_validate_law_flags_exactly_the_samples_the_steppers_reject(spec, p0):
    # one admissibility predicate: q finite and >= max(0, p0), with or
    # without a claimed p0
    law = damping.law_from_spec(spec, p0=p0)
    report = validate_law(law, 4.0, samples=41)
    rejected = []
    for z in np.linspace(0.0, 4.0, 41).tolist():
        z_n, q_n = np.array([[z]]), np.array([[law(z)]])
        try:
            damping.check_levels(law, z_n, q_n, 0, 0.1, [mesh.Grid1D(4)])
        except damping.DampingError:
            rejected.append((z, law(z)))
    assert rejected and report.lower_bound_violations == rejected
    assert not report.ok


def test_validate_law_flags_monotonicity():
    wavy = damping.DampingLaw("wavy", lambda z: 2.0 + np.sin(z), p0=0.5)
    report = validate_law(wavy, 10.0, samples=100)
    assert report.monotonicity_violations


def test_validate_law_flags_lipschitz():
    steep = damping.DampingLaw("steep", lambda z: z * z, p0=None, lipschitz=1.0)
    report = validate_law(steep, 10.0, samples=100)
    assert report.lipschitz_violations


def test_validate_law_flags_a_slope_just_above_the_claimed_lipschitz_bound():
    # the check allows only round-off above the claim, so slope 1 + 1e-6 is
    # over it on every sample pair
    steep = damping.DampingLaw("steep", lambda z: 1.0 + 1.000001 * z, 1.0, 1.0)
    report = validate_law(steep, 10.0, samples=100)
    assert len(report.lipschitz_violations) == 99


def test_validate_law_rejects_bad_zmax():
    with pytest.raises(ValueError):
        validate_law(linear_law(), 0.0)


def test_validate_law_names_the_first_z_where_the_law_is_undefined():
    match = r"'1/sqrt\(3 - z\)' is undefined at z = 3:"
    with pytest.raises(damping.DampingError, match=match):
        validate_law(law_from_spec("1/sqrt(3 - z)"), 10.0, samples=11)


@pytest.mark.parametrize("name", ["linear", "sqrt", "constant", "constant:2"])
def test_named_law_rejects_p0(name):
    # a named law carries its own p0; a second one would be ignored
    with pytest.raises(ValueError, match="expression laws only"):
        law_from_spec(name, p0=5.0)


@pytest.mark.parametrize("p0", [math.nan, math.inf, -math.inf])
def test_expression_law_rejects_non_finite_p0(p0):
    # a nan p0 would drop the floor on q: max(0, nan) is 0
    with pytest.raises(ValueError, match="p0 must be finite"):
        law_from_spec("0.5", p0=p0)


@pytest.mark.parametrize("c", ["nan", "inf", "-1"])
def test_constant_law_rejects_non_finite_or_negative_c(c):
    # before, constant:inf passed and every run failed at n = 0 with
    # "q finite and >= inf"
    with pytest.raises(ValueError, match="finite c >= 0"):
        law_from_spec(f"constant:{c}")
    with pytest.raises(ValueError, match="finite c >= 0"):
        constant_law(float(c))


def test_law_from_spec_names():
    assert law_from_spec("linear").name == "linear"
    assert law_from_spec("sqrt")(3.0) == 2.0
    assert law_from_spec("constant")(5.0) == 1.0
    assert law_from_spec("constant:2.5")(0.0) == 2.5


def test_law_from_spec_expression_in_z():
    law = law_from_spec("1 + 2*z")
    assert law(1.5) == 4.0
    law2 = law_from_spec("sqrt(1+z)", p0=1.0)
    assert law2(3.0) == 2.0
    assert law2.p0 == 1.0


BAD_LAWS = [
    law_from_spec("-5"),
    law_from_spec("1 - z"),
    law_from_spec("0.5", p0=1.0),  # positive, but below its claimed bound
    law_from_spec("sqrt(z - 1000)"),  # undefined at every z the runs reach
    damping.DampingLaw("nan", lambda z: np.nan),
    damping.DampingLaw("inf", lambda z: np.inf),
]
STEPPERS = {
    1: (Problem1D, mesh.Grid1D(4), init, step, "sin(pi*x)"),
    2: (Problem2D, mesh.Grid2D(4, 4), init2d, step2d, "sin(pi*x)*sin(pi*y)"),
}


@pytest.mark.parametrize("law", BAD_LAWS, ids=lambda law: law.name)
@pytest.mark.parametrize("dim", [1, 2])
def test_damping_outside_hypotheses_fails_fast(dim, law):
    problem_cls, g, init_fn, step_fn, u0 = STEPPERS[dim]
    tg = mesh.TimeGrid(8, 1.0)
    zero = expr.parse("0")
    with pytest.raises(damping.DampingError, match=r"n = 0, t = 0 "):
        init_fn(problem_cls(expr.parse(u0), zero, zero, law, 1.0), g, tg)
    good = problem_cls(expr.parse(u0), zero, zero, linear_law(), 1.0)
    st = init_fn(good, g, tg)
    with pytest.raises(damping.DampingError, match=r"n = 1, t = 0\.111111 "):
        step_fn(st, np.zeros(g.shape), tg.tau, law)


def test_run_fails_fast_below_the_law_lower_bound():
    zero = expr.parse("0")
    u0 = expr.parse("sin(pi*x)")
    g, tg = mesh.Grid1D(4), mesh.TimeGrid(8, 1.0)
    below = Problem1D(u0, zero, zero, law_from_spec("0.5", p0=1.0), 1.0)
    with pytest.raises(
        damping.DampingError, match=r"q = 0\.5 at n = 0, t = 0 from law '0\.5' .* >= 1$"
    ):
        run(below, g, tg)
    _, records = run(Problem1D(u0, zero, zero, law_from_spec("1", p0=1.0), 1.0), g, tg)
    assert len(records) == tg.N + 1  # q = p0 is allowed
