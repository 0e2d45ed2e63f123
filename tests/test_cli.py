import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from damped_eb import cli
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


def test_spatial_study_rejects_rectangular_grid(tmp_path, capsys):
    study = "\n[study]\nJ_list = 4, 8\n"
    path = write_cfg(tmp_path, TINY_2D.replace("J = 4", "J = 4\nJ2 = 8") + study)
    out = tmp_path / "out"
    assert main(["spatial-study", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "J2" in err[0] and "square grids" in err[0]
    assert not out.exists()
    # J2 = J names the square grid the study refines; other commands keep J2
    text = TINY_2D.replace("J = 4", "J = 4\nJ2 = 4") + study
    square = write_cfg(tmp_path, text, name="square.cfg")
    assert load_config(square, command="spatial-study").J2 == 4
    assert load_config(path, command="simulate").J2 == 8


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
