"""Config-driven command line front end.

Usage:

    damped-eb <command> --config <path> [--out <dir>] [--profile paper|fast]

Commands: simulate, temporal-study, spatial-study, energy-study,
validate-law.  Configs are flat ``key = value`` files with ``[section]``
headers ([problem], [grid], [time], [study], [output]), ``#`` comments,
and double-quoted expressions; see the bundled configs for the layout.
The fast profile substitutes N_fast (when present) for N.

Artifacts land in the output directory: ``report.csv`` always,
``report.md`` for studies, ``energy.svg`` for energy studies,
``solution.csv`` (final U and V per node) for simulate.  Every CSV starts
with a comment line carrying the sha256 of the config file and the
profile, then a header row.  Exit status is nonzero on I/O errors, on a
damping coefficient that leaves its hypotheses or a state that stops being
finite (``DampingError``), and on acceptance-relevant violations of a
simulate or energy-study run: a stability-bound breach, or a defect of the
exact energy balance (:mod:`damped_eb.stepper1d`) above ``STABILITY_TOL``
relative to 1 + E_n^2 at some step n.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import damping as damping_mod
from . import expr as expr_mod
from . import harness, mesh
from .mesh import TimeGrid
from .stepper1d import Problem1D, bound_violations, run_batch
from .stepper2d import Problem2D

__all__ = ["ConfigError", "RunConfig", "load_config", "execute", "main", "entry"]

STABILITY_TOL = 1e-10


class ConfigError(ValueError):
    pass


def _int_list(text: str) -> list[int]:
    return [int(part.strip()) for part in text.split(",") if part.strip()]


# section -> key -> parser of the key's text; each key is a RunConfig field.
# Expression values (parsed by expr.parse) must be double-quoted; the others
# may be.
_KEYS = {
    "problem": {
        "dimension": int, "law": str, "law_p0": float,
        "u0": expr_mod.parse, "u1": expr_mod.parse, "f": expr_mod.parse,
    },
    "grid": {"J": int},
    "time": {"N": int, "N_fast": int, "T": float},
    "study": {"N_list": _int_list, "J_list": _int_list},
    "output": {"dir": str},
}

# study command -> (harness study kind, the refinement list it reads)
_STUDY_LISTS = {
    "temporal-study": ("temporal", "N_list"),
    "spatial-study": ("spatial", "J_list"),
}

_REQUIRED = {
    "simulate": ("dimension", "u0", "u1", "f", "law", "J", "N", "T"),
    "temporal-study": ("dimension", "u0", "u1", "f", "law", "J", "T", "N_list"),
    "spatial-study": ("dimension", "u0", "u1", "f", "law", "N", "T", "J_list"),
    "energy-study": ("dimension", "u0", "u1", "f", "law", "J", "N", "T"),
    "validate-law": ("law",),
}
COMMANDS = tuple(_REQUIRED)


@dataclasses.dataclass
class RunConfig:
    path: Path
    raw: bytes
    command: str | None = None
    dimension: int | None = None
    u0: object | None = None
    u1: object | None = None
    f: object | None = None
    law: str | None = None
    law_p0: float | None = None
    J: int | None = None
    N: int | None = None
    N_fast: int | None = None
    T: float | None = None
    N_list: list[int] | None = None
    J_list: list[int] | None = None
    dir: str = "."


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for c in line:
        if c == '"':
            in_quote = not in_quote
        if c == "#" and not in_quote:
            break
        out.append(c)
    return "".join(out)


def _convert(key: str, parse, value: str, where: str):
    if parse is expr_mod.parse:
        if not (value.startswith('"') and value.endswith('"') and len(value) >= 2):
            raise ConfigError(f"{where}: expression value for {key} must be quoted")
        try:
            return parse(value[1:-1])
        except expr_mod.ParseError as exc:
            raise ConfigError(f"{where}: bad expression for {key}: {exc}") from None
    if value.startswith('"') and value.endswith('"'):
        value = value[1:-1]
    try:
        return parse(value)
    except ValueError:
        raise ConfigError(f"{where}: invalid value {value!r} for {key}") from None


def load_config(path, command: str | None = None) -> RunConfig:
    """Parse and validate a config file; eagerly parses all expressions.

    When ``command`` is given, presence of that command's required keys is
    enforced here (errors name the missing key).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = path.read_bytes()
    cfg = RunConfig(path=path, raw=raw, command=command)
    section, seen = None, {}
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path.name}: not UTF-8 text (byte {exc.start})") from None
    for lineno, full_line in enumerate(text.splitlines(), start=1):
        where = f"{path.name}:{lineno}"
        line = _strip_comment(full_line).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"{where}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        parse = _KEYS[section].get(key)
        if parse is None:
            raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")
        if key in seen:
            raise ConfigError(
                f"{where}: key {key!r} repeated (first given on line {seen[key]})"
            )
        seen[key] = lineno
        setattr(cfg, key, _convert(key, parse, value, where))
    _validate(cfg, command)
    return cfg


def _validate(cfg: RunConfig, command: str | None):
    name = cfg.path.name
    if cfg.dimension is not None and cfg.dimension not in (1, 2):
        raise ConfigError(f"{name}: dimension must be 1 or 2")
    if cfg.J is not None and cfg.J < 2:
        raise ConfigError(f"{name}: J must be >= 2")
    for key in ("N", "N_fast"):
        v = getattr(cfg, key)
        if v is not None and v < 1:
            raise ConfigError(f"{name}: {key} must be positive")
    if cfg.T is not None and not 0 < cfg.T < np.inf:
        raise ConfigError(f"{name}: T must be positive and finite, got {cfg.T}")
    if command in _STUDY_LISTS:
        kind, key = _STUDY_LISTS[command]
        v = getattr(cfg, key)
        if v is not None:
            try:
                harness.check_refinements(kind, v, key)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from None
    if cfg.dimension == 1:
        for key, parse in _KEYS["problem"].items():
            tree = getattr(cfg, key) if parse is expr_mod.parse else None
            if tree is not None and expr_mod.uses_variable(tree, "y"):
                raise ConfigError(
                    f"{name}: {key} uses variable y but dimension = 1"
                )
    for key in ("u0", "u1"):  # initial data, sampled at t = 0
        tree = getattr(cfg, key)
        if tree is not None and expr_mod.uses_variable(tree, "t"):
            raise ConfigError(
                f"{name}: {key} uses variable t but initial data may not depend on t"
            )
    if cfg.law is not None:
        try:
            damping_mod.law_from_spec(cfg.law, p0=cfg.law_p0)
        except (ValueError, ArithmeticError) as exc:
            with_p0 = "" if cfg.law_p0 is None else f" with law_p0 = {cfg.law_p0:g}"
            raise ConfigError(f"{name}: bad law {cfg.law!r}{with_p0}: {exc}") from None
    if command is not None:
        if command not in _REQUIRED:
            raise ConfigError(f"unknown command {command!r}")
        for key in _REQUIRED[command]:
            if getattr(cfg, key) is None:
                raise ConfigError(f"{name}: missing key {key!r} for {command}")


# ---------------------------------------------------------------------------
# artifact writers

def _write_csv(path: Path, comment: str, header: list[str], rows) -> None:
    lines = [f"# {comment}", ",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _energy_svg(energies: list[float], caption: str) -> str:
    width, height = 640, 400
    ml, mr, mt, mb = 80, 20, 40, 50
    # decimate long runs; a 32768-point polyline adds nothing visually
    ns = list(range(0, len(energies), max(1, len(energies) // 2048)))
    if ns[-1] != len(energies) - 1:
        ns.append(len(energies) - 1)
    es = [energies[n] for n in ns]
    emin, emax = min(es), max(es)
    espan = (emax - emin) or 1.0
    nspan = (ns[-1] - ns[0]) or 1

    def xmap(n):
        return ml + (width - ml - mr) * (n - ns[0]) / nspan

    def ymap(e):
        return mt + (height - mt - mb) * (emax - e) / espan

    points = " ".join(f"{xmap(n):.2f},{ymap(e):.2f}" for n, e in zip(ns, es))
    return f"""<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">
<rect width="{width}" height="{height}" fill="white"/>
<text x="{width / 2:.0f}" y="22" text-anchor="middle" font-size="14">{caption}</text>
<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>
<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>
<text x="{ml}" y="{height - mb + 18}" text-anchor="middle" font-size="11">{ns[0]}</text>
<text x="{width - mr}" y="{height - mb + 18}" text-anchor="middle" font-size="11">{ns[-1]}</text>
<text x="{(ml + width - mr) / 2:.0f}" y="{height - 12}" text-anchor="middle" font-size="12">time index n</text>
<text x="{ml - 8}" y="{height - mb}" text-anchor="end" font-size="11">{emin:.6g}</text>
<text x="{ml - 8}" y="{mt + 6}" text-anchor="end" font-size="11">{emax:.6g}</text>
<text x="16" y="{(mt + height - mb) / 2:.0f}" font-size="12" transform="rotate(-90 16 {(mt + height - mb) / 2:.0f})" text-anchor="middle">energy</text>
<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" points="{points}"/>
</svg>
"""


def _write_study(out: Path, comment: str, report, profile: str) -> None:
    """report.csv (full-precision floats) and report.md of a refinement study."""
    param, step = ("N", "tau") if report.kind == "temporal" else ("J", "h")
    _write_csv(
        out / "report.csv",
        comment,
        [param, step, f"{step}_pair", "error", "order"],
        [(r.param, r.step, r.step_pair, r.error, r.order) for r in report.rows],
    )
    (out / "report.md").write_text(_report_markdown(report, profile), encoding="utf-8")


def _report_markdown(report, profile: str) -> str:
    """Markdown table mirroring the CSV, with a closing theory-order row:
    errors to 5 significant digits, orders to two decimals, spatial rows
    labeled by 2J."""
    title = (
        f"{report.kind.capitalize()} refinement study ({report.dimension}D, law "
        f"{report.law_name}, profile {profile})"
    )
    temporal = report.kind == "temporal"
    head = "| N | error | order |" if temporal else "| 2J | error | order |"
    lines = [title, "", head, "|---|---|---|"]
    for r in report.rows:
        label = r.param if temporal else 2 * r.param
        order = "*" if r.order is None else f"{r.order:.2f}"
        lines.append(f"| {label} | {r.error:.5g} | {order} |")
    lines.append(f"| Theory |  | {report.theory_order:.2f} |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command execution

def _make_dir(out: Path) -> bool:
    """Create the output directory; on failure print why and return False."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return False
    return True


def _build_problem(cfg: RunConfig):
    law = damping_mod.law_from_spec(cfg.law, p0=cfg.law_p0)
    cls = Problem1D if cfg.dimension == 1 else Problem2D
    return cls(
        u0=cfg.u0,
        u1=cfg.u1,
        f=cfg.f,
        law=law,
        T=cfg.T,
    )


def execute(cfg: RunConfig, out_dir=None, profile: str = "paper") -> int:
    """Run the config's command; returns the process exit status."""
    command = cfg.command
    if command not in COMMANDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    digest = hashlib.sha256(cfg.raw).hexdigest()
    comment = f"config sha256={digest} profile={profile}"
    out = Path(out_dir if out_dir is not None else cfg.dir)
    try:
        if command == "validate-law":  # sample P before making the directory
            law = damping_mod.law_from_spec(cfg.law, p0=cfg.law_p0)
            report = damping_mod.validate_law(law, 100.0)
            if not _make_dir(out):
                return 1
            # one column per LawReport field; a violation list is reported
            # by its length
            fields = [field.name for field in dataclasses.fields(report)]
            values = [getattr(report, key) for key in fields]
            row = [len(v) if isinstance(v, list) else v for v in values]
            _write_csv(out / "report.csv", comment, fields, [row])
            status = "ok" if report.ok else "violations found (advisory)"
            print(f"validate-law {report.law}: {status}")
            return 0

        if not _make_dir(out):
            return 1
        N = cfg.N
        if profile == "fast" and cfg.N_fast is not None:
            N = cfg.N_fast
        problem = _build_problem(cfg)
        if command in _STUDY_LISTS:
            if command == "temporal-study":
                report = harness.temporal_study(problem, cfg.J, cfg.N_list)
            else:
                report = harness.spatial_study(problem, N, cfg.J_list)
            _write_study(out, comment, report, profile)
            return 0

        # simulate / energy-study share the single run
        tg = TimeGrid(N, cfg.T)
        grid = mesh.grid_for(cfg.dimension, cfg.J)
        worst = [0.0, 0]  # largest |defect| / (1 + E_n^2) so far, and its n
        E2s, bounds = [], []  # E_n^2 and the bound of each block

        def check_balance(n0, q, z, E2, defect, bound):
            rel = np.nan_to_num(np.abs(defect[:, 0]) / (1.0 + E2[:, 0]), nan=np.inf)
            k = int(np.argmax(rel))
            if rel[k] > worst[0]:
                worst[:] = rel[k], n0 + k
            E2s.append(E2[:, 0].copy())
            bounds.append(bound[:, 0].copy())

        (state,) = run_batch(problem, [grid], tg, check_balance)
        E, bound = np.sqrt(np.concatenate(E2s)), np.concatenate(bounds)
        energy = E.tolist()
        _write_csv(
            out / "report.csv",
            comment,
            ["n", "energy", "bound"],
            zip(range(len(energy)), energy, bound.tolist()),
        )
        problems = [
            f"stability bound violated at n={n} (excess {excess:.3e})"
            for n, excess in bound_violations(E, bound, STABILITY_TOL)
        ]
        if worst[0] > STABILITY_TOL:
            problems.append(
                f"energy balance violated at n={worst[1]} (defect {worst[0]:.3e} "
                f"relative to 1 + E^2)"
            )
        if command == "energy-study":
            caption = (
                f"energy decay: {cfg.dimension}D, law {cfg.law}, "
                f"J={cfg.J}, N={N}"
            )
            (out / "energy.svg").write_text(
                _energy_svg(energy, caption), encoding="utf-8"
            )
        else:
            _write_solution(out / "solution.csv", comment, grid, state)
        if problems:
            for p in problems:
                print(f"error: {p}", file=sys.stderr)
            return 1
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _write_solution(path: Path, comment: str, grid, state) -> None:
    """One row per node: index (j, resp. i and j), coordinates, U and V."""
    d = len(grid.shape)
    index = np.indices(grid.shape).reshape(d, -1)  # nodes in C order
    coords = [a[k] for a, k in zip(grid.axes, index)]
    columns = [*index, *coords, state.U_curr.ravel(), state.V_curr.ravel()]
    rows = zip(*(c.tolist() for c in columns))
    _write_csv(path, comment, [*"ij"[-d:], *"xy"[:d], "U", "V"], rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="damped-eb",
        description=(
            "Compact-difference solver for damped Euler-Bernoulli beam and "
            "plate equations"
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a .cfg file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--profile", choices=("paper", "fast"), default="paper")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, command=args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return execute(cfg, out_dir=args.out, profile=args.profile)
    except Exception as exc:  # solver/expression failures become diagnostics
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
