import math

import numpy as np
import pytest

from damped_eb import expr, mesh
from damped_eb.mesh import Grid1D, Grid2D, TimeGrid

from oracles import random_gridfn_1d, random_gridfn_2d


def test_grid1d_basics():
    g = Grid1D(2)
    assert g.h == 0.25
    assert g.shape == (5,)
    assert abs(g.h * 2 * g.J - 1.0) <= np.finfo(float).eps
    assert np.allclose(g.axes[0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_minimum_size():
    with pytest.raises(ValueError):
        Grid1D(1)
    with pytest.raises(ValueError):
        Grid2D(1, 4)


def test_time_grid_convention():
    tg = TimeGrid(7, 1.0)
    assert tg.tau == 1.0 / 8.0
    assert tg.t(8) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        TimeGrid(0, 1.0)
    # a nan or inf T would make tau nan or inf, and a run fail later in the damping
    for T in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="0 < T < inf"):
            TimeGrid(4, T)


def test_inner_product_examples():
    g = Grid1D(2)
    u = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    assert mesh.inner(g, u, u) == pytest.approx(0.75, abs=1e-15)
    assert mesh.inner(g, u, np.zeros(5)) == 0.0
    g2 = Grid2D(2, 2)
    w = np.zeros((5, 5))
    w[1:-1, 1:-1] = 1.0
    assert mesh.inner(g2, w, w) == pytest.approx(9.0 / 16.0, abs=1e-15)


def test_inner_grid_mismatch():
    g = Grid1D(2)
    with pytest.raises(ValueError):
        mesh.inner(g, np.zeros(5), np.zeros(7))


def test_norm_examples():
    g = Grid1D(2)
    u = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    assert mesh.norm(g, u, "l2") == pytest.approx(math.sqrt(0.75), abs=1e-15)
    assert mesh.norm(g, u, "a") == pytest.approx(1.0, abs=1e-15)
    assert mesh.norm(g, u, "b") == pytest.approx(math.sqrt(5.0 / 6.0), abs=1e-15)
    assert mesh.norm(g, u, "inf") == 1.0
    v = np.array([0.0, 2.0, 1.0, 2.0, 0.0])
    assert mesh.norm(g, v, "b") ** 2 == pytest.approx(17.0 / 6.0, abs=1e-14)
    for kind in ("l2", "inf", "a", "b"):
        assert mesh.norm(g, np.zeros(5), kind) == 0.0


def test_norm_kind_dimension_mismatch():
    g = Grid1D(2)
    g2 = Grid2D(2, 2)
    with pytest.raises(ValueError):
        mesh.norm(g, np.zeros(5), "e")
    with pytest.raises(ValueError):
        mesh.norm(g2, np.zeros((5, 5)), "a")
    with pytest.raises(ValueError):
        mesh.norm(g, np.zeros(5), "nope")


def test_sample_sine():
    g = Grid1D(2)
    out = mesh.sample(g, expr.parse("sin(pi*x)"))
    s = math.sqrt(2.0) / 2.0
    assert np.allclose(out, [0.0, s, 1.0, s, 0.0], atol=1e-15)


def test_sample_zero_and_boundary_clamp():
    g = Grid1D(4)
    assert not mesh.sample(g, expr.parse("0")).any()
    out = mesh.sample(g, expr.parse("x"))
    assert out[0] == 0.0 and out[-1] == 0.0
    assert np.array_equal(out[1:-1], g.axes[0][1:-1])


def test_sample_callable_and_t():
    g = Grid1D(4)
    out = mesh.sample(g, lambda x, t: t * x * (1 - x), t=2.0)
    assert out[2] == pytest.approx(2.0 * 0.25 * 0.75, abs=1e-15)
    g2 = Grid2D(2, 2)
    out2 = mesh.sample(g2, expr.parse("t*x*y"), t=3.0)
    assert out2[0, 3] == 0.0 and out2[4, 2] == 0.0  # boundary ring clamped
    assert out2[2, 2] == pytest.approx(3.0 * 0.25, abs=1e-15)  # x = y = 0.5
    assert out2[1, 1] == pytest.approx(3.0 * 0.0625, abs=1e-15)


def test_sample_domain_error_names_node():
    g = Grid1D(2)
    with pytest.raises(expr.DomainError) as err:
        mesh.sample(g, expr.parse("1/(x-0.5)"))
    assert "x=0.5" in str(err.value)


def test_norm_bounds_1d():
    # ||u||_a <= sqrt(2)||u|| and sqrt(6)/3 ||u|| <= ||u||_b <= 2 sqrt(3)/3 ||u||
    rng = np.random.default_rng(7)
    for _ in range(500):
        J = int(rng.integers(2, 33))
        g = mesh.grid1d(J)
        u = random_gridfn_1d(rng, J)
        l2 = mesh.norm(g, u)
        assert mesh.norm(g, u, "a") <= math.sqrt(2.0) * l2
        b = mesh.norm(g, u, "b")
        assert math.sqrt(6.0) / 3.0 * l2 <= b <= 2.0 * math.sqrt(3.0) / 3.0 * l2


def test_norm_bounds_2d():
    # ||u||_e <= 2 sqrt(3)/3 ||u|| and (2/3)||u|| <= ||u||_f <= (4/3)||u||
    rng = np.random.default_rng(8)
    for _ in range(500):
        J1 = int(rng.integers(2, 9))
        J2 = int(rng.integers(2, 9))
        g = mesh.grid2d(J1, J2)
        u = random_gridfn_2d(rng, J1, J2)
        l2 = mesh.norm(g, u)
        assert mesh.norm(g, u, "e") <= 2.0 * math.sqrt(3.0) / 3.0 * l2
        f = mesh.norm(g, u, "f")
        assert (2.0 / 3.0) * l2 <= f <= (4.0 / 3.0) * l2


def test_norms_absolutely_homogeneous():
    rng = np.random.default_rng(9)
    g = Grid1D(6)
    u = random_gridfn_1d(rng, 6)
    g2 = Grid2D(3, 5)
    w = random_gridfn_2d(rng, 3, 5)
    for c in (-2.5, 0.0, 1.75):
        for kind in ("l2", "inf", "a", "b"):
            assert mesh.norm(g, c * u, kind) == pytest.approx(
                abs(c) * mesh.norm(g, u, kind), rel=1e-14, abs=1e-300
            )
        for kind in ("l2", "inf", "e", "f"):
            assert mesh.norm(g2, c * w, kind) == pytest.approx(
                abs(c) * mesh.norm(g2, w, kind), rel=1e-14, abs=1e-300
            )


def test_sample_2d_domain_error_names_node():
    g = Grid2D(2, 2)
    with pytest.raises(expr.DomainError) as err:
        mesh.sample(g, expr.parse("1/(x-0.5)+1/(y-0.25)"))
    assert str(err.value).endswith(" at x=0.0, y=0.25, t=0.0")


def test_sample_plate_callable():
    g = Grid2D(2, 3)
    out = mesh.sample(g, lambda x, y, t: t + x + 10.0 * y, t=0.5)
    X, Y = np.meshgrid(*g.axes, indexing="ij")
    assert out.shape == g.shape
    assert np.array_equal(out[1:-1, 1:-1], (0.5 + X + 10.0 * Y)[1:-1, 1:-1])
    ring = np.ones(g.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    assert not out[ring].any()
