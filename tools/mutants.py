"""Mutation check of the Tier-1 suite: one-line faults it must notice.

Usage (from the repository root):

    python tools/mutants.py

Each mutant replaces one text in one file under ``src/damped_eb``.  It is
applied to a fresh temporary copy of what Tier-1 reads (``src/``,
``tests/``, ``pyproject.toml`` and ``BENCHMARK.json``), and
``python -m pytest -q -x`` runs there (hypothesis seeded, so a result
repeats).  A mutant whose run fails is killed; one that passes survives.  Before any run, every mutant's old text must occur
exactly once in its file, so a refactor that moves or rewrites it breaks
this list loudly instead of testing an unmutated copy; and the unmutated
copy must pass.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
an old text is missing or repeated or the unmutated copy fails.
"""
from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/damped_eb")
TIMEOUT_S = 300  # per run; a run that hangs counts as killed


@dataclasses.dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/damped_eb
    old: str
    new: str


MUTANTS = [
    Mutant("law at 2z", "damping.py",
           "out[...] = self.func(z)", "out[...] = self.func(2.0 * z)"),
    Mutant("Simpson flip weight 1/2", "stepper1d.py",
           "out *= 1.0 / 3.0", "out *= 1.0 / 2.0"),
    Mutant("startup tau^2 for tau^2/2", "stepper1d.py",
           "0.5 * tau * tau * u2", "tau * tau * u2"),
    Mutant("sign of Q - c_n lam^2", "stepper1d.py",
           "np.subtract(self.Q, c, out=b)", "np.subtract(c, self.Q, out=b)"),
    Mutant("forcing one step late", "stepper1d.py",
           "expr_mod.evaluate(g, t=times)", "expr_mod.evaluate(g, t=times - self.tau)"),
    Mutant("guard's one test without p0", "damping.py",
           "and law.admits(q.min())", "and 0.0 <= q.min()"),
    Mutant("guard's scan names n0 for every level", "damping.py",
           "at n = {n}, t = {n * tau:.6g}", "at n = {n0}, t = {n0 * tau:.6g}"),
    Mutant("block closes without the guard", "stepper1d.py",
           "damping_mod.check_levels(law, Z[1 : m + 1]",
           "(lambda *args: None)(law, Z[1 : m + 1]"),
    Mutant("a law that raises hides an earlier failed level", "stepper1d.py",
           "damping_mod.check_levels(law, Z[1 : i + 1]",
           "(lambda *args: None)(law, Z[1 : i + 1]"),
    Mutant("V^2 pairing in E^2", "stepper1d.py",
           "V2[1:] + V2[:-1]", "V2[1:] + V2[1:]"),
    Mutant("stability bound with 4 tau", "stepper1d.py",
           "bound *= 2.0 * tau", "bound *= 4.0 * tau"),
    Mutant("the bound's running sum restarts at each block", "stepper1d.py",
           "bound[0] += total", "bound[0] += 0.0 * total"),
    Mutant("a block's first defect is taken against its own E^2", "stepper1d.py",
           "scheme.balance(E2[0], E2[1 : m + 1]", "scheme.balance(E2[1], E2[1 : m + 1]"),
    Mutant("bound predicate lets a NaN energy pass", "stepper1d.py",
           "np.nonzero(~(E <= bound + slack))", "np.nonzero(E > bound + slack)"),
    Mutant("startup drops tau u1", "stepper1d.py",
           "d = tau * u1 +", "d = 0.0 * u1 +"),
    Mutant("sign of q_0 u1 in u2", "stepper1d.py",
           "u2 = -q0[self.owner] * u1", "u2 = q0[self.owner] * u1"),
    Mutant("startup drops f^0", "stepper1d.py",
           "- bilap + Af_hat / self.lam", "- bilap"),
    Mutant("right side drops f's boundary values", "stepper1d.py",
           "fields = [mesh.evaluate(g, f, t)", "fields = [mesh.sample(g, f, t)"),
    Mutant("bound sums f's interior norm only", "stepper1d.py",
           "g.cell * np.sum(v * v)", "g.cell * np.sum(v[g.interior] ** 2)"),
    Mutant("spatial-study error weight 1/J", "harness.py",
           "h_row = 1.0 / (2 * J)", "h_row = 1.0 / J"),
    Mutant("validate_law Lipschitz slack 1e-1", "damping.py",
           "(1.0 + 1e-12)", "(1.0 + 1e-1)"),
    Mutant("sign of the window's D A W in the nodal step", "stepper1d.py",
           "- scheme.DA * W", "+ scheme.DA * W"),
    Mutant("nodal step drops W from V^{n+1}", "stepper1d.py",
           "V_next += W", "V_next += 0.0 * W"),
    Mutant("RK4 reference skips the initial-data check", "stepper1d.py",
           'U = mesh.initial(grid, problem.u0, "u0")',
           "U = mesh.sample(grid, problem.u0, 0.0)"),
]


def check_texts() -> list[str]:
    """One problem line per mutant whose old text is not in its file once."""
    problems = []
    for m in MUTANTS:
        count = (ROOT / PACKAGE / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: {m.old!r} occurs {count} times in {m.file}")
    return problems


def suite_passes(mutant: Mutant | None) -> bool:
    """Run Tier-1 with -x on a temporary copy, with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        for name in ("pyproject.toml", "BENCHMARK.json"):
            shutil.copy2(ROOT / name, copy / name)
        if mutant is not None:
            path = copy / PACKAGE / mutant.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-q", "-x",
                   "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        env = {"PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            run = subprocess.run(
                command, cwd=copy, env={**os.environ, **env},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return False
        return run.returncode == 0


def main() -> int:
    problems = check_texts()
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 2
    if not suite_passes(None):
        print("error: the unmutated copy fails Tier-1", file=sys.stderr)
        return 2
    survivors = []
    for m in MUTANTS:
        start = time.perf_counter()
        killed = not suite_passes(m)
        verdict = "killed" if killed else "SURVIVED"
        elapsed = time.perf_counter() - start
        print(f"{verdict:8} {elapsed:5.1f} s  {m.name}", flush=True)
        if not killed:
            survivors.append(m.name)
    if survivors:
        print(f"error: mutants survived: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
