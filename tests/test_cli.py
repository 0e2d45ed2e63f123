import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from damped_eb import cli, harness, stepper1d
from damped_eb.cli import ConfigError, execute, load_config, main


def bundled(name: str) -> Path:
    return Path(resources.files("damped_eb") / "configs" / name)


def write_cfg(tmp_path: Path, text: str, name="run.cfg") -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


TINY_1D = """
[problem]
dimension = 1
u0 = "sin(pi*x)"
u1 = "0"
f = "t^3*sin(pi*x)"
law = sqrt

[grid]
J = 4

[time]
T = 1
N = 16
N_fast = 4

[study]
N_list = 8, 16
J_list = 4, 8

[output]
dir = out
"""

TINY_2D = """
[problem]
dimension = 2
u0 = "sin(pi*x)*sin(pi*y)"
u1 = "0"
f = "0"
law = linear

[grid]
J = 4

[time]
T = 1
N = 8

[output]
dir = out
"""


def test_load_bundled_example1():
    cfg = load_config(bundled("example1.cfg"), command="simulate")
    assert cfg.dimension == 1
    assert cfg.law == "sqrt"
    assert cfg.J == 64
    assert cfg.N == 32768 and cfg.N_fast == 16384
    assert cfg.N_list == [128, 256, 512, 1024]
    assert cfg.J_list == [4, 8, 16, 32]
    assert cfg.T == 1.0


def test_load_bundled_example2():
    cfg = load_config(bundled("example2.cfg"), command="simulate")
    assert cfg.dimension == 2
    assert cfg.law == "linear"
    assert cfg.N == 10000 and cfg.N_fast == 2000


def test_missing_required_key_names_it(tmp_path):
    text = TINY_1D.replace('u0 = "sin(pi*x)"\n', "")
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match="u0"):
        load_config(path, command="simulate")
    # but loading without a command defers the requirement check
    cfg = load_config(path)
    assert cfg.u0 is None


def test_unknown_key_is_error(tmp_path):
    path = write_cfg(tmp_path, TINY_1D.replace("J = 4", "J = 4\nWAT = 1"))
    with pytest.raises(ConfigError, match="WAT"):
        load_config(path)


def test_unknown_section_is_error(tmp_path):
    path = write_cfg(tmp_path, TINY_1D + "\n[bogus]\nkey = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path)


def test_repeated_key_is_error_but_repeated_section_is_not(tmp_path):
    lines = TINY_1D.strip().splitlines()
    first = lines.index("J = 4") + 1
    path = write_cfg(tmp_path, "\n".join(lines) + "\n[grid]\nJ = 8\n")
    with pytest.raises(
        ConfigError,
        match=rf"run\.cfg:{len(lines) + 2}: key 'J' repeated .*line {first}\)",
    ):
        load_config(path)
    path = write_cfg(tmp_path, TINY_1D.replace("J = 4", "") + "\n[grid]\nJ = 8\n")
    assert load_config(path).J == 8


def test_error_message_carries_line_number(tmp_path):
    lines = TINY_1D.strip().splitlines()
    idx = lines.index("J = 4")
    lines[idx] = "J = banana"
    path = write_cfg(tmp_path, "\n".join(lines))
    with pytest.raises(ConfigError, match=rf"run\.cfg:{idx + 1}"):
        load_config(path)


def test_unquoted_expression_rejected(tmp_path):
    path = write_cfg(tmp_path, TINY_1D.replace('u0 = "sin(pi*x)"', "u0 = sin(pi*x)"))
    with pytest.raises(ConfigError, match="quoted"):
        load_config(path)


def test_bad_expression_reports_line(tmp_path):
    path = write_cfg(tmp_path, TINY_1D.replace('"t^3*sin(pi*x)"', '"t^^3"'))
    with pytest.raises(ConfigError, match="expression"):
        load_config(path)


def test_dimension_mismatch_y_in_1d(tmp_path):
    path = write_cfg(tmp_path, TINY_1D.replace('"sin(pi*x)"', '"sin(pi*x)*y"', 1))
    with pytest.raises(ConfigError, match="y"):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/nope.cfg")


def test_simulate_writes_artifacts(tmp_path):
    path = write_cfg(tmp_path, TINY_1D)
    cfg = load_config(path, command="simulate")
    code = execute(cfg, out_dir=tmp_path / "out")
    assert code == 0
    report = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert report[0].startswith("# config sha256=")
    assert "profile=paper" in report[0]
    assert report[1] == "n,energy,bound"
    assert len(report) == 2 + 17  # records 0..N
    solution = (tmp_path / "out" / "solution.csv").read_text().splitlines()
    assert solution[1] == "j,x,U,V"
    assert len(solution) == 2 + 9  # one row per node


def test_simulate_2d_solution_layout(tmp_path):
    path = write_cfg(tmp_path, TINY_2D)
    cfg = load_config(path, command="simulate")
    assert execute(cfg, out_dir=tmp_path / "out") == 0
    solution = (tmp_path / "out" / "solution.csv").read_text().splitlines()
    assert solution[1] == "i,j,x,y,U,V"
    assert len(solution) == 2 + 9 * 9


def test_csv_bytes_reproducible_1d(tmp_path):
    path = write_cfg(tmp_path, TINY_1D)
    cfg = load_config(path, command="simulate")
    execute(cfg, out_dir=tmp_path / "a")
    execute(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "report.csv").read_bytes() == (
        tmp_path / "b" / "report.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "solution.csv").read_bytes() == (
        tmp_path / "b" / "solution.csv"
    ).read_bytes()


def test_temporal_study_command(tmp_path):
    path = write_cfg(tmp_path, TINY_1D)
    cfg = load_config(path, command="temporal-study")
    assert execute(cfg, out_dir=tmp_path / "out") == 0
    report = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert report[1] == "N,tau,tau_pair,error,order"
    assert len(report) == 2 + 2
    md = (tmp_path / "out" / "report.md").read_text()
    assert "| Theory |  | 2.00 |" in md


def test_study_csv_format(tmp_path):
    path = write_cfg(tmp_path, TINY_1D)
    cfg = load_config(path, command="temporal-study")
    assert execute(cfg, out_dir=tmp_path / "out") == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert lines[1] == "N,tau,tau_pair,error,order"
    first = lines[2].split(",")
    assert first[0] == "8" and first[4] == ""  # the first row has no order
    assert float(first[1]) == 1.0 / 9.0 and float(first[2]) == 1.0 / 5.0
    # full-precision round trip of the study's numbers
    rep = harness.temporal_study(cli._build_problem(cfg), cfg.J, cfg.N_list)
    assert float(lines[3].split(",")[3]) == rep.rows[1].error
    assert float(lines[3].split(",")[4]) == rep.rows[1].order


def test_study_markdown_has_theory_row_and_formats(tmp_path):
    path = write_cfg(tmp_path, TINY_1D)
    cfg = load_config(path, command="spatial-study")
    assert execute(cfg, out_dir=tmp_path / "out", profile="fast") == 0
    text = (tmp_path / "out" / "report.md").read_text()
    assert text.startswith("Spatial refinement study (1D, law sqrt, profile fast)")
    assert "| Theory |  | 4.00 |" in text
    assert "| 2J | error | order |" in text
    assert "| 8 |" in text  # rows labeled by 2J
    # orders shown to two decimals, errors to 5 significant digits
    rep = harness.spatial_study(cli._build_problem(cfg), cfg.N_fast, cfg.J_list)
    row_line = [l for l in text.split("\n") if l.startswith("| 16 |")][0]
    cells = [c.strip() for c in row_line.split("|")[1:-1]]
    assert cells[1] == f"{rep.rows[1].error:.5g}"
    assert cells[2] == f"{rep.rows[1].order:.2f}"


def test_spatial_study_command(tmp_path):
    path = write_cfg(tmp_path, TINY_1D)
    cfg = load_config(path, command="spatial-study")
    assert execute(cfg, out_dir=tmp_path / "out") == 0
    md = (tmp_path / "out" / "report.md").read_text()
    assert "| Theory |  | 4.00 |" in md


def test_energy_study_writes_svg_and_monotone(tmp_path):
    path = write_cfg(tmp_path, TINY_2D)
    cfg = load_config(path, command="energy-study")
    assert execute(cfg, out_dir=tmp_path / "out") == 0
    svg = (tmp_path / "out" / "energy.svg").read_text()
    assert "<polyline" in svg and "<svg" in svg
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()[2:]
    energies = [float(r.split(",")[1]) for r in rows]
    assert all(b <= a + 1e-11 * (1 + energies[0]) for a, b in zip(energies, energies[1:]))


def test_fast_profile_uses_fast_n(tmp_path):
    path = write_cfg(tmp_path, TINY_1D)
    cfg = load_config(path, command="simulate")
    assert execute(cfg, out_dir=tmp_path / "out", profile="fast") == 0
    report = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert "profile=fast" in report[0]
    assert len(report) == 2 + 5  # N_fast = 4 -> records 0..4


def test_zero_data_simulate_all_zero(tmp_path):
    text = TINY_1D.replace('"sin(pi*x)"', '"0"').replace('"t^3*sin(pi*x)"', '"0"')
    path = write_cfg(tmp_path, text)
    cfg = load_config(path, command="simulate")
    assert execute(cfg, out_dir=tmp_path / "out") == 0
    rows = (tmp_path / "out" / "solution.csv").read_text().splitlines()[2:]
    for row in rows:
        cells = row.split(",")
        assert float(cells[2]) == 0.0 and float(cells[3]) == 0.0


def test_unwritable_output_dir(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    path = write_cfg(tmp_path, TINY_1D)
    cfg = load_config(path, command="simulate")
    assert execute(cfg, out_dir=blocker / "sub") != 0


def test_validate_law_command(tmp_path):
    path = write_cfg(tmp_path, TINY_1D)
    cfg = load_config(path, command="validate-law")
    assert execute(cfg, out_dir=tmp_path / "out") == 0
    report = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert report[1].startswith("law,z_max,samples,p_min,p_max")
    assert report[2].startswith("sqrt,")


def test_main_entrypoint(tmp_path):
    path = write_cfg(tmp_path, TINY_1D)
    out = tmp_path / "cli_out"
    code = main(["simulate", "--config", str(path), "--out", str(out)])
    assert code == 0
    assert (out / "solution.csv").exists()


def test_python_dash_m_runs_the_command(tmp_path):
    path = write_cfg(tmp_path, TINY_1D)
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        cmd = [sys.executable, "-m", "damped_eb.cli", "validate-law", *args]
        return subprocess.run(
            cmd, env=env, cwd=tmp_path, capture_output=True, timeout=120
        )

    done = run("--config", str(path), "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "report.csv").is_file()
    missing = run("--config", str(tmp_path / "absent.cfg"))
    assert missing.returncode == 2
    assert b"not found" in missing.stderr


def test_import_leaves_scipy_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, damped_eb.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == b"False"


def test_main_rejects_bad_config(tmp_path):
    path = write_cfg(tmp_path, TINY_1D.replace("dimension = 1", "dimension = 3"))
    assert main(["simulate", "--config", str(path)]) == 2


def test_bundled_energy_configs_load():
    for name in ("example1_energy.cfg", "example2_energy.cfg"):
        cfg = load_config(bundled(name), command="energy-study")
        assert cfg.f is not None


def test_bundled_example1_temporal_study_orders(tmp_path):
    cfg = load_config(bundled("example1.cfg"), command="temporal-study")
    assert execute(cfg, out_dir=tmp_path) == 0
    rows = (tmp_path / "report.csv").read_text().splitlines()[2:]
    assert len(rows) == 4
    orders = [float(r.split(",")[4]) for r in rows[1:]]
    for order, ref in zip(orders, (1.90, 1.97, 1.99)):
        assert abs(order - ref) <= 0.15


def test_csv_reproducible_2d(tmp_path):
    path = write_cfg(tmp_path, TINY_2D)
    cfg = load_config(path, command="simulate")
    execute(cfg, out_dir=tmp_path / "a")
    execute(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "solution.csv").read_bytes() == (
        tmp_path / "b" / "solution.csv"
    ).read_bytes()


@pytest.mark.parametrize("spec", ["-5", "1 - z"])
def test_negative_damping_law_exits_with_one_error_line(tmp_path, capsys, spec):
    text = TINY_2D.replace("law = linear", f'law = "{spec}"')
    path = write_cfg(tmp_path, text.replace("N = 8", "N = 20"))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: DampingError:")
    assert "n = 0, t = 0" in err[0] and "q = -" in err[0]


def test_cg_tol_is_an_unknown_key(tmp_path, capsys):
    path = write_cfg(tmp_path, TINY_2D.replace("J = 4", "J = 4\ncg_tol = 1e-9"))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "unknown key 'cg_tol' in [grid]" in err[0]


@pytest.mark.parametrize(
    "study,key",
    [("N_list = 8, 16", "N_list_fast"), ("J_list = 4, 8", "J_list_fast")],
)
@pytest.mark.parametrize("profile", ["paper", "fast"])
def test_fast_study_lists_are_unknown_keys(tmp_path, capsys, study, key, profile):
    # under --profile fast only N_fast substitutes; a study list has no
    # fast counterpart
    path = write_cfg(tmp_path, TINY_1D.replace(study, f"{study}\n{key} = 4, 8"))
    out = tmp_path / "out"
    for command in ("temporal-study", "spatial-study", "simulate"):
        argv = [command, "--config", str(path), "--out", str(out), "--profile", profile]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: run.cfg:")
        assert err[0].endswith(f": unknown key {key!r} in [study]")
        assert not out.exists()


@pytest.mark.parametrize(
    "section,after,key",
    [("grid", "J = 4", "J2"), ("study", "J_list = 4, 8", "z_max"),
     ("study", "J_list = 4, 8", "samples")],
    ids=["J2", "z_max", "samples"],
)
def test_removed_keys_are_unknown_keys(tmp_path, capsys, section, after, key):
    # a plate is square (J x J), and validate-law samples P at 1000 points
    # on [0, 100]
    text = TINY_1D.replace(after, f"{after}\n{key} = 8")
    lineno = text.splitlines().index(f"{key} = 8") + 1
    path = write_cfg(tmp_path, text)
    for command in cli.COMMANDS:
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: run.cfg:{lineno}: unknown key {key!r} in [{section}]"
        ]
        assert not out.exists()


def test_law_below_its_p0_exits_with_one_error_line(tmp_path, capsys):
    text = TINY_1D.replace("law = sqrt", 'law = "0.5"\nlaw_p0 = 1')
    path = write_cfg(tmp_path, text)
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: DampingError:")
    assert "q = 0.5 at n = 0, t = 0 " in err[0] and err[0].endswith(">= 1")


@pytest.mark.parametrize(
    "name,f",
    [
        ("example1_energy.cfg", "1e306*sin(pi*x)"),
        ("example2_energy.cfg", "1e306*sin(pi*x)*sin(pi*y)"),
    ],
)
def test_non_finite_state_exits_with_one_error_line(tmp_path, capsys, name, f):
    # a constant law stays finite on any z, so only the guard on z stops the
    # run once the state overflows (instead of writing inf/nan artifacts)
    text = bundled(name).read_text(encoding="utf-8")
    text = text.replace('f = "0"', f'f = "{f}"').replace("law = sqrt", "law = constant")
    path = write_cfg(tmp_path, text.replace("law = linear", "law = constant"))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--out", str(out), "--profile", "fast"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: DampingError:")
    assert "z = ||V||^2 = inf" in err[0] or "z = ||V||^2 = nan" in err[0]
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize(
    "key,study,args",
    [
        ("J_list", "J_list = 5, 10", []),
        ("J_list", "J_list = 2, 4", []),
    ],
    ids=["odd", "small"],
)
def test_spatial_study_rejects_odd_or_small_J(tmp_path, capsys, key, study, args):
    path = write_cfg(tmp_path, TINY_1D.replace("J_list = 4, 8", study))
    out = tmp_path / "out"
    code = main(["spatial-study", "--config", str(path), "--out", str(out), *args])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{key} entries must be even and >= 4" in err[0]
    assert not out.exists()
    # other commands do not read J_list
    assert load_config(path, command="simulate").J_list is not None


def test_config_keys_are_the_run_config_fields():
    # a key without a field, or a field without a key, would be set or
    # dropped silently
    keys = [key for section in cli._KEYS.values() for key in section]
    fields = [f.name for f in dataclasses.fields(cli.RunConfig)]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(fields) - {"path", "raw", "command"}


def test_law_p0_with_a_named_law_exits_with_one_error_line(tmp_path, capsys):
    text = TINY_1D.replace("law = sqrt", "law = sqrt\nlaw_p0 = 5")
    path = write_cfg(tmp_path, text)
    for command in ("simulate", "validate-law"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "law_p0" in err[0] and "expression laws only" in err[0]
        assert not out.exists()


@pytest.mark.parametrize(
    "command,old,new",
    [
        ("temporal-study", "N_list = 8, 16", "N_list = 1, 2"),
        ("temporal-study", "N_list = 8, 16", "N_list = 8, 8"),
        ("spatial-study", "J_list = 4, 8", "J_list = 4, 4"),
    ],
    ids=["N-small", "N-repeated", "J-repeated"],
)
def test_study_rejects_refinement_list_before_running(
    tmp_path, capsys, command, old, new
):
    path = write_cfg(tmp_path, TINY_1D.replace(old, new))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    key = new.split("\n")[-1].split(" = ")[0]
    assert f"{key} entries must be" in err[0] and "strictly ascending" in err[0]
    assert not out.exists()


def test_law_undefined_at_z_is_a_damping_error(tmp_path, capsys):
    # zero data give z = 0 at n = 0, where sqrt(z - 1) is undefined
    text = TINY_1D.replace('"sin(pi*x)"', '"0"').replace('"t^3*sin(pi*x)"', '"0"')
    path = write_cfg(tmp_path, text.replace("law = sqrt", 'law = "sqrt(z - 1)"'))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DampingError:")
    assert "n = 0, t = 0" in err[0] and "law 'sqrt(z - 1)'" in err[0]
    assert main(["validate-law", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DampingError:")
    assert "undefined at z = 0" in err[0]


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("T = 1", "T = nan", "T"),
        ("T = 1", "T = inf", "T"),
        ("law = sqrt", 'law = "0.5"\nlaw_p0 = nan', "law_p0"),
        ("law = sqrt", "law = constant:nan", "law"),
        ("law = sqrt", "law = constant:inf", "law"),
        ("law = sqrt", "law = constant:-1", "law"),
    ],
    ids=[
        "T-nan", "T-inf", "law_p0-nan",
        "constant-nan", "constant-inf", "constant-negative",
    ],
)
def test_non_finite_float_is_a_config_error(tmp_path, capsys, old, new, key):
    # before, T = nan ran until a DampingError at t = nan, and law_p0 = nan
    # dropped the floor on q (max(0, nan) is 0), so the run exited 0; a
    # constant:<c> law with c nan, inf or negative failed every run at n = 0
    path = write_cfg(tmp_path, TINY_1D.replace(old, new))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: run.cfg: ")
    assert key in err[0] and "finite" in err[0]
    assert not out.exists()


def test_validate_law_leaves_no_directory_when_the_law_is_undefined(
    tmp_path, capsys
):
    text = TINY_1D.replace("law = sqrt", 'law = "sqrt(z - 1)"')
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["validate-law", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DampingError:")
    assert not out.exists()


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(TINY_1D.encode("utf-8").replace(b"sin(pi*x)", b"sin(\xff*x)", 1))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: run.cfg: not UTF-8")
    assert not out.exists()


def test_validate_law_reports_a_law_the_steppers_reject(tmp_path, capsys):
    # P(0) = -1: simulate fails this law at n = 0, so validate-law flags it
    path = write_cfg(tmp_path, TINY_1D.replace("law = sqrt", 'law = "z - 1"'))
    out = tmp_path / "out"
    assert main(["validate-law", "--config", str(path), "--out", str(out)]) == 0
    assert "violations found" in capsys.readouterr().out
    header, row = (out / "report.csv").read_text().splitlines()[1:]
    report = dict(zip(header.split(","), row.split(",")))
    assert float(report["p_min"]) == -1.0
    assert int(report["lower_bound_violations"]) > 0


@pytest.mark.parametrize(
    "old,new,key",
    [('u1 = "0"', 'u1 = "t*sin(pi*x)"', "u1"),
     ('u0 = "sin(pi*x)"', 'u0 = "sin(pi*x)*exp(-t)"', "u0")],
    ids=["u1", "u0"],
)
def test_initial_data_that_depends_on_t_is_a_config_error(
    tmp_path, capsys, old, new, key
):
    # the startup samples u0 and u1 at t = 0 only, so a t in them would be
    # dropped without a word
    path = write_cfg(tmp_path, TINY_1D.replace(old, new))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: run.cfg: {key} uses variable t but initial data may "
                   f"not depend on t"]
    assert not out.exists()


@pytest.mark.parametrize("key", ["lap_u0", "bilap_u0"])
def test_analytic_laplacian_overrides_are_unknown_keys(tmp_path, capsys, key):
    # the startup realizes both from u0 discretely; no override is read
    text = TINY_1D.replace('u1 = "0"', f'u1 = "0"\n{key} = "-pi^2*sin(pi*x)"')
    path = write_cfg(tmp_path, text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"unknown key {key!r} in [problem]" in err[0]


def test_energy_balance_defect_exits_with_one_error_line(
    tmp_path, capsys, monkeypatch
):
    balance = stepper1d._SineScheme.balance

    def corrupted(self, *args):
        defect = balance(self, *args)
        defect[5] += 1e-3
        return defect

    monkeypatch.setattr(stepper1d._SineScheme, "balance", corrupted)
    path = write_cfg(tmp_path, TINY_1D)
    for command in ("simulate", "energy-study"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: energy balance violated at n=5 (defect ")


def test_simulate_and_energy_study_build_no_energy_records(tmp_path, monkeypatch):
    # both commands collect energies and bounds through run_batch's hook
    def record(*args, **kwargs):
        raise AssertionError("an EnergyRecord was built")

    monkeypatch.setattr(stepper1d, "EnergyRecord", record)
    path = write_cfg(tmp_path, TINY_1D)
    for command in ("simulate", "energy-study"):
        cfg = load_config(path, command=command)
        assert execute(cfg, out_dir=tmp_path / command) == 0


def test_stability_bound_breach_exits_with_one_error_line(
    tmp_path, capsys, monkeypatch
):
    # ||f^5|| drops by 1e3 and ||f^6|| gains as much, so the bound of level 5
    # alone falls below its energy
    forcing = stepper1d._SineScheme.forcing

    def corrupted(self, f):
        force = forcing(self, f)

        def shifted(n, rows, norms=None):
            force(n, rows, norms)
            for k, change in ((5, -1e3), (6, 1e3)):
                if norms is not None and n <= k < n + len(rows):
                    norms[k - n] += change

        return shifted

    monkeypatch.setattr(stepper1d._SineScheme, "forcing", corrupted)
    path = write_cfg(tmp_path, TINY_1D)
    for command in ("simulate", "energy-study"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: stability bound violated at n=5 (excess ")


@pytest.mark.parametrize(
    "text,node",
    [
        (TINY_1D.replace('u0 = "sin(pi*x)"', 'u0 = "x"'),
         "u0 = 1 at the boundary node x=1.0"),
        (TINY_2D.replace('u1 = "0"', 'u1 = "x*y"'),
         "u1 = 1 at the boundary node x=1.0, y=1.0"),
    ],
    ids=["1d-u0", "2d-u1"],
)
def test_initial_data_off_the_boundary_exit_with_one_error_line(
    tmp_path, capsys, text, node
):
    # the hinged problem cannot hold them; sampling used to zero them there
    path = write_cfg(tmp_path, text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: ValueError: {node}, but initial data must vanish on the boundary"
    ]


# The config front end against arbitrary text built from cli._KEYS: valid
# configs of either dimension with values replaced (valid and invalid ones),
# lines dropped, repeated or added (unknown keys and sections, malformed
# lines) and bytes that are not UTF-8.  Runs are bounded (J <= 8, N <= 64)
# to keep Tier-1 fast; the property is about input handling, so the bound
# hides no defect of the scheme.
_VALUES = {
    "dimension": ["1", "2", "3", "0", "one"],
    "law": ["sqrt", "linear", "constant:2", "constant:-1", '"2 + z/(1+z)"',
            '"z - 1"', '"sqrt(z - 5)"', '"z^1e400"', '"1/z"', "cubic", '"z*("'],
    "law_p0": ["1", "0.5", "-1", "nan", "inf", "x"],
    "u0": ['"sin(pi*x)"', '"sin(pi*x)*sin(pi*y)"', '"0"', '"log(x)"', "sin(pi*x)"],
    "u1": ['"-sin(pi*x)"', '"0"', '"1e400"', '"x*y"', '""', '"t*sin(pi*x)"'],
    "f": ['"t^3*sin(pi*x)"', '"sin(pi*x*t)"', '"sqrt(t - 0.5)*sin(pi*x)"',
          '"exp(50*t)*sin(pi*x)*sin(pi*y)"', '"t*("'],
    "J": ["2", "4", "8", "1", "-3", "4.5"],
    "N": ["1", "16", "64", "0", "-5", "x"],
    "N_fast": ["1", "8", "0"],
    "T": ["1", "0.5", "1e300", "0", "-1", "inf", "nan"],
    "N_list": ["8, 16", "2, 4, 64", "16, 8", "1, 2", "", "8, x"],
    "J_list": ["4, 8", "6", "4, 6, 8", "5, 10", "2, 4", "8, 4"],
    "dir": ["out", '"out"'],
}
_OPTIONAL = ("law_p0",)
_BASE = {key: values[0] for key, values in _VALUES.items() if key not in _OPTIONAL}
_BASE_2D = {**_BASE, "dimension": "2", "u0": '"sin(pi*x)*sin(pi*y)"', "u1": '"0"',
            "f": '"t^3*sin(pi*x)*sin(pi*y)"', "J": "4"}
_JUNK = ["colour = 1", "[colours]", "J == 4", "no equals sign", "= 3",
         'f = "0"  # a comment', "[problem", "samples = 5"]


@strategies.composite
def _config_bytes(draw):
    entries = dict(draw(strategies.sampled_from([_BASE, _BASE_2D])))
    keys = strategies.sampled_from([k for ks in cli._KEYS.values() for k in ks])
    for key in draw(strategies.lists(keys, max_size=4)):
        entries[key] = draw(strategies.sampled_from(_VALUES[key]))
    for key in draw(strategies.lists(keys, max_size=2)):
        entries.pop(key, None)
    lines = []
    for section, section_keys in cli._KEYS.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {entries[k]}" for k in section_keys if k in entries]
    for _ in range(draw(strategies.integers(0, 2))):  # repeated lines
        lines.insert(draw(strategies.integers(0, len(lines))),
                     draw(strategies.sampled_from(lines)))
    for junk in draw(strategies.lists(strategies.sampled_from(_JUNK), max_size=2)):
        lines.insert(draw(strategies.integers(0, len(lines))), junk)
    raw = "\n".join(lines).encode("utf-8")
    if draw(strategies.booleans()):
        at = draw(strategies.integers(0, len(raw)))
        bad = draw(strategies.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        raw = raw[:at] + bad + raw[at:]
    return raw


@settings(max_examples=80, deadline=None)
@given(
    raw=_config_bytes(),
    command=strategies.sampled_from(cli.COMMANDS),
    profile=strategies.sampled_from(["paper", "fast"]),
)
def test_main_handles_any_config_text(raw, command, profile):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        path.write_bytes(raw)
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = [command, "--config", str(path), "--out", str(out), "--profile", profile]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
        made_dir = out.exists()
    # a warning would reach stderr as a line that is not an error line
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    if code:
        assert stdout.getvalue() == ""
        errors = stderr.getvalue().splitlines()
        assert errors and all(line.startswith("error: ") for line in errors)
    else:
        assert stderr.getvalue() == ""
    if code == 2:
        assert not made_dir
