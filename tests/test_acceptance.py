"""Acceptance suite: convergence tables, dissipation, stability, identities.

Each test prints one `[acceptance] <name>: PASS/FAIL` line (run with
``pytest -s`` to see them live).  Reference error values and rates come
from the project's target tables; tolerances are fixed here and nowhere
else.
"""
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from damped_eb import cli, damping, expr, harness, mesh, operators
from damped_eb.mesh import Grid1D, Grid2D, TimeGrid
from damped_eb.stepper1d import Problem1D, init, mol_reference, run, stability_check, step
from damped_eb.stepper2d import Problem2D, init2d, run2d, stability_check2d, step2d

from oracles import (
    block_step_1d,
    block_step_2d,
    random_gridfn_1d,
    random_gridfn_2d,
)

LAWS = {"sqrt": damping.sqrt_law, "linear": damping.linear_law}


def beam_problem(law="sqrt", forced=True):
    return Problem1D(
        expr.parse("sin(pi*x)"),
        expr.parse("0"),
        expr.parse("t^3*sin(pi*x)" if forced else "0"),
        LAWS[law](),
        1.0,
    )


def plate_problem(law="linear", forced=True):
    return Problem2D(
        expr.parse("sin(pi*x)*sin(pi*y)"),
        expr.parse("0"),
        expr.parse("t^3*sin(pi*x)*sin(pi*y)" if forced else "0"),
        LAWS[law](),
        1.0,
    )


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: 1D temporal table ------------------------------------------


def test_criterion_1_temporal_table_1d():
    ref_err = [2.3724e-3, 6.3628e-4, 1.6217e-4, 4.0782e-5]
    ref_ord = [1.90, 1.97, 1.99]
    rep = harness.temporal_study(beam_problem("sqrt"), 64, [128, 256, 512, 1024])
    errs = [r.error for r in rep.rows]
    ords = [r.order for r in rep.rows[1:]]
    err_ok = all(re / 2.0 <= e <= re * 2.0 for e, re in zip(errs, ref_err))
    ord_ok = all(abs(o - ro) <= 0.15 for o, ro in zip(ords, ref_ord))
    detail = (
        f"errors={['%.4e' % e for e in errs]} orders={['%.2f' % o for o in ords]}"
    )
    _report("temporal-1d", err_ok and ord_ok, detail)


# -- criterion 2: 1D spatial table -------------------------------------------


@pytest.mark.parametrize(
    "law,ref_ord",
    [("sqrt", (3.96, 4.00, 3.97)), ("linear", (4.02, 4.00, 3.97))],
)
def test_criterion_2_spatial_table_1d(law, ref_ord):
    rep = harness.spatial_study(beam_problem(law), 2**15, [4, 8, 16, 32])
    ords = [r.order for r in rep.rows[1:]]
    ok = all(abs(o - ro) <= 0.15 for o, ro in zip(ords, ref_ord))
    _report(f"spatial-1d-{law}", ok, f"orders={['%.2f' % o for o in ords]}")


# -- criterion 3: 2D tables ---------------------------------------------------


@pytest.mark.parametrize(
    "law,ref_ord",
    [("linear", (1.88, 1.97, 1.99)), ("sqrt", (1.93, 1.98, 1.99))],
)
def test_criterion_3_temporal_table_2d(law, ref_ord):
    rep = harness.temporal_study(
        plate_problem(law), 16, [256, 512, 1024, 2048]
    )
    ords = [r.order for r in rep.rows[1:]]
    ok = all(abs(o - ro) <= 0.15 for o, ro in zip(ords, ref_ord))
    _report(f"temporal-2d-{law}", ok, f"orders={['%.2f' % o for o in ords]}")


@pytest.mark.parametrize(
    "law,ref_ord",
    [("linear", (3.97, 3.96, 3.84)), ("sqrt", (3.99, 3.96, 3.84))],
)
def test_criterion_3_spatial_table_2d(law, ref_ord):
    # fast profile: N = 2000 stands in for the full 10000-step run
    rep = harness.spatial_study(plate_problem(law), 2000, [4, 8, 16, 32])
    ords = [r.order for r in rep.rows[1:]]
    ok = all(abs(o - ro) <= 0.2 for o, ro in zip(ords, ref_ord))
    _report(f"spatial-2d-{law}", ok, f"orders={['%.2f' % o for o in ords]}")


# -- criterion 4: energy dissipation ------------------------------------------


def test_criterion_4_energy_dissipation_1d():
    _, records = run(beam_problem("sqrt", forced=False), Grid1D(16), TimeGrid(2**15, 1.0))
    E = [r.E for r in records]
    tol = 1e-12 * (1.0 + E[0])
    worst = max(b - a for a, b in zip(E, E[1:]))
    _report("energy-1d", worst <= tol, f"max increase={worst:.3e} tol={tol:.3e}")


def test_criterion_4_energy_dissipation_2d():
    _, records = run2d(
        plate_problem("linear", forced=False), Grid2D(32, 32), TimeGrid(2**7, 1.0)
    )
    E = [r.E for r in records]
    tol = 1e-11 * (1.0 + E[0])
    worst = max(b - a for a, b in zip(E, E[1:]))
    _report("energy-2d", worst <= tol, f"max increase={worst:.3e} tol={tol:.3e}")


# -- criterion 5: stability bounds on every bundled example -------------------


def _bundled_cfg(name):
    return Path(resources.files("damped_eb") / "configs" / name)


@pytest.mark.parametrize(
    "name",
    ["example1.cfg", "example2.cfg", "example1_energy.cfg", "example2_energy.cfg"],
)
def test_criterion_5_stability_bounds(name):
    cfg = cli.load_config(_bundled_cfg(name), command="simulate")
    law = damping.law_from_spec(cfg.law)
    N = cfg.N_fast if cfg.N_fast is not None else cfg.N
    tg = TimeGrid(N, cfg.T)
    if cfg.dimension == 1:
        prob = Problem1D(cfg.u0, cfg.u1, cfg.f, law, cfg.T)
        _, records = run(prob, Grid1D(cfg.J), tg)
        report = stability_check(records, tol=1e-10)
    else:
        prob = Problem2D(cfg.u0, cfg.u1, cfg.f, law, cfg.T)
        _, records = run2d(prob, Grid2D(cfg.J, cfg.J), tg)
        report = stability_check2d(records, tol=1e-10)
    _report(
        f"stability-{name}",
        report.ok,
        f"steps={len(records) - 1} violations={len(report.violations)}",
    )


# -- criterion 6: quadrature identities ---------------------------------------


def test_criterion_6_simpson_identities():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(200):
        J = int(rng.integers(2, 33))
        g = mesh.grid1d(J)
        v = random_gridfn_1d(rng, J)
        quad = damping.simpson_1d(v * v, g.h)
        nb2 = mesh.norm(g, v, "b") ** 2
        worst = max(worst, abs(quad - nb2) / max(1.0, abs(nb2)))
    for _ in range(200):
        J1 = int(rng.integers(2, 9))
        J2 = int(rng.integers(2, 9))
        g = mesh.grid2d(J1, J2)
        w = random_gridfn_2d(rng, J1, J2)
        quad = damping.simpson_2d(w * w, g.h1, g.h2)
        nf2 = mesh.norm(g, w, "f") ** 2
        worst = max(worst, abs(quad - nf2) / max(1.0, abs(nf2)))
    _report("simpson-identities", worst <= 1e-13, f"worst rel dev={worst:.2e}")


# -- criterion 7: operator/norm lemma suite -----------------------------------


def test_criterion_7_lemma_suite():
    rng = np.random.default_rng(4096)
    failures = []

    def check(label, cond):
        if not cond:
            failures.append(label)

    for _ in range(500):
        J = int(rng.integers(2, 17))
        g = mesh.grid1d(J)
        u = random_gridfn_1d(rng, J)
        v = random_gridfn_1d(rng, J)
        l2 = mesh.norm(g, u)
        # self-adjointness of the compact/second-difference pair
        lhs = mesh.inner(g, operators.apply_A(u), operators.apply_D(v, g.h))
        rhs = mesh.inner(g, operators.apply_D(u, g.h), operators.apply_A(v))
        check("adjoint-1d", abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs)))
        # compact-average norm bounds
        au = mesh.norm(g, operators.apply_A(u))
        check("compact-bounds", math.sqrt(3.0) / 3.0 * l2 <= au <= l2)
        # weighted-norm bounds
        check("a-bound", mesh.norm(g, u, "a") <= math.sqrt(2.0) * l2)
        b = mesh.norm(g, u, "b")
        check(
            "b-bounds",
            math.sqrt(6.0) / 3.0 * l2 <= b <= 2.0 * math.sqrt(3.0) / 3.0 * l2,
        )
        # summation by parts
        sbp = -g.h * float(np.dot(np.diff(u) / g.h, np.diff(v) / g.h))
        ip = mesh.inner(g, u, operators.apply_D(v, g.h))
        check("sbp", abs(ip - sbp) <= 1e-13 * max(1.0, abs(ip), abs(sbp)))
    for _ in range(500):
        J1 = int(rng.integers(2, 7))
        J2 = int(rng.integers(2, 7))
        g = mesh.grid2d(J1, J2)
        u = random_gridfn_2d(rng, J1, J2)
        v = random_gridfn_2d(rng, J1, J2)
        l2 = mesh.norm(g, u)
        hu = mesh.norm(g, operators.apply_H(u))
        check("tensor-bounds", (4.0 / 9.0) * l2 <= hu <= l2)
        check("e-bound", mesh.norm(g, u, "e") <= 2.0 * math.sqrt(3.0) / 3.0 * l2)
        f = mesh.norm(g, u, "f")
        check("f-bounds", (2.0 / 3.0) * l2 <= f <= (4.0 / 3.0) * l2)
        lhs = mesh.inner(g, operators.apply_H(u), operators.apply_Phi(v))
        rhs = mesh.inner(g, operators.apply_Phi(u), operators.apply_H(v))
        check("adjoint-2d", abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs)))
    _report("lemma-suite", not failures, f"failures={sorted(set(failures))}")


# -- criterion 8: one-step equivalence with the dense block oracle ------------


def test_criterion_8_oracle_equivalence_1d():
    g = Grid1D(8)
    tg = TimeGrid(8, 1.0)
    prob = beam_problem("sqrt")
    st = init(prob, g, tg)
    f1 = mesh.sample(g, prob.f, tg.t(1))
    new = step(st, f1, tg.tau, prob.law)
    q = damping.q_coefficient(st.V_curr, prob.law)
    U_ref, V_ref = block_step_1d(
        st.U_prev, st.U_curr, st.V_prev, st.V_curr, f1, tg.tau, q, g.h
    )
    dev = max(
        np.max(np.abs(new.U_curr - U_ref)) / max(1.0, np.max(np.abs(U_ref))),
        np.max(np.abs(new.V_curr - V_ref)) / max(1.0, np.max(np.abs(V_ref))),
    )
    _report("oracle-1d", dev <= 1e-10, f"max rel dev={dev:.2e}")


def test_criterion_8_oracle_equivalence_2d():
    g = Grid2D(4, 4)
    tg = TimeGrid(8, 1.0)
    prob = plate_problem("linear")
    st = init2d(prob, g, tg)
    f1 = mesh.sample(g, prob.f, tg.t(1))
    new = step2d(st, f1, tg.tau, prob.law)
    q = damping.q_coefficient(st.V_curr, prob.law)
    U_ref, V_ref = block_step_2d(
        st.U_prev, st.U_curr, st.V_prev, st.V_curr, f1, tg.tau, q, g.h1, g.h2
    )
    dev = max(
        np.max(np.abs(new.U_curr - U_ref)) / max(1.0, np.max(np.abs(U_ref))),
        np.max(np.abs(new.V_curr - V_ref)) / max(1.0, np.max(np.abs(V_ref))),
    )
    _report("oracle-2d", dev <= 1e-9, f"max rel dev={dev:.2e}")


# -- criterion 9: cross-check against the RK4 semi-discrete reference ---------


def test_criterion_9_mol_cross_check():
    g = Grid1D(8)
    prob = beam_problem("sqrt")
    U_ref, _, _ = mol_reference(prob, g, 1.0, dt=g.h**2 / 8.0)
    errs = []
    for N in (63, 127):
        state, _ = run(prob, g, TimeGrid(N, 1.0))
        errs.append(mesh.norm(g, state.U_curr - U_ref))
    ratio = errs[0] / errs[1]
    _report("mol-cross-check", 3.3 <= ratio <= 4.7, f"ratio={ratio:.3f}")


# -- criterion 10: degenerate zero data ---------------------------------------


def test_criterion_10_zero_data(tmp_path):
    zero_cfg = tmp_path / "zero.cfg"
    zero_cfg.write_text(
        "\n".join(
            [
                "[problem]",
                "dimension = 1",
                'u0 = "0"',
                'u1 = "0"',
                'f = "0"',
                "law = sqrt",
                "[grid]",
                "J = 4",
                "[time]",
                "T = 1",
                "N = 8",
                "[study]",
                "N_list = 4, 8",
                "J_list = 4, 8",
            ]
        ),
        encoding="utf-8",
    )
    problems = []

    def column(path, name):
        lines = path.read_text().splitlines()
        idx = lines[1].split(",").index(name)
        return [line.split(",")[idx] for line in lines[2:]]

    for command in ("simulate", "temporal-study", "spatial-study", "energy-study"):
        cfg = cli.load_config(zero_cfg, command=command)
        out = tmp_path / command
        code = cli.execute(cfg, out_dir=out)
        if code != 0:
            problems.append(f"{command} exited {code}")
            continue
        if command == "simulate":
            for name in ("U", "V"):
                if any(float(c) != 0.0 for c in column(out / "solution.csv", name)):
                    problems.append(f"{command}: nonzero {name} column")
        if command in ("simulate", "energy-study"):
            if any(float(c) != 0.0 for c in column(out / "report.csv", "energy")):
                problems.append(f"{command}: nonzero energy column")
        if command in ("temporal-study", "spatial-study"):
            if any(float(c) != 0.0 for c in column(out / "report.csv", "error")):
                problems.append(f"{command}: nonzero error column")

    # direct API-level checks: trajectories, errors, energies all exactly zero
    z = expr.parse("0")
    prob = Problem1D(z, z, z, damping.sqrt_law(), 1.0)
    state, records = run(prob, Grid1D(4), TimeGrid(8, 1.0))
    if state.U_curr.any() or state.V_curr.any():
        problems.append("nonzero terminal field")
    if any(r.E != 0.0 for r in records):
        problems.append("nonzero energy")
    rep_t = harness.temporal_study(prob, 4, [4, 8])
    rep_s = harness.spatial_study(prob, 8, [4, 8])
    if any(r.error != 0.0 for r in rep_t.rows + rep_s.rows):
        problems.append("nonzero study error")
    prob2 = Problem2D(z, z, z, damping.linear_law(), 1.0)
    state2, records2 = run2d(prob2, Grid2D(4, 4), TimeGrid(4, 1.0))
    if state2.U_curr.any() or any(r.E != 0.0 for r in records2):
        problems.append("nonzero 2d trajectory")
    _report("zero-data", not problems, f"problems={problems}")
