"""The benchmark's workloads, their seeded inputs and their correctness gate.

Each workload is one ``damped-eb`` command under ``--profile fast`` on one
bundled config.  Seed 0 hands the program the bundled config byte for byte;
any other seed writes a derived config that multiplies the amplitudes of
``u0`` (with ``lap_u0``/``bilap_u0``) and of ``f`` by one factor drawn from
[0.8, 1.25], log-uniformly.  That moves the nonlinear damping q(t) = P(|V|^2),
and with it the 2D solver's work, while the mode structure, the grids and
the step counts stay those of the bundled study.

The range keeps each study in its asymptotic regime, where the observed
order means something.  The plate's temporal error is one mode times a
scalar whose leading tau^2 constant changes sign as the amplitude grows: it
vanishes near factors 0.72, 1.4 and 1.5, and next to such a zero the higher
order terms dominate the table (factor 0.742 reads orders 2.87, 2.34, 2.10
down the rows).  One factor for u0 and f, rather than two, keeps the error
terms of the two from cancelling in the same way.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import re
from pathlib import Path

# Finest-row observed order must sit this close to the theory order.  Over
# amplitude factors 0.8..1.25 the gap stayed below 0.011 (temporal) and
# 0.002 (spatial).
ORDER_TOL = 0.1
# Seeded amplitude factors are 2**u with u uniform in [-AMP_LOG2, AMP_LOG2].
AMP_LOG2 = 0.32
# Seed-0 table errors and final energy must match the values recorded from
# the commit that introduced the benchmark to this relative tolerance.  It
# is loose enough for round-off: an exact DST-I solve in place of the CG
# solve moved them by at most 7e-8, and reordered 1D stencil arithmetic
# moved the finest spatial row (an error of 1e-7 on fields of size 1) by
# 3.6e-6.  A change of discretization moves them by far more.
REFERENCE_RTOL = 1e-3

_SCALED = ("u0", "lap_u0", "bilap_u0", "f")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str  # bundled config under src/damped_eb/configs/
    theory_order: float | None  # None: not a refinement study
    reference: tuple[float, ...]  # seed 0: table errors, or the final energy
    quick: dict[str, str]  # self-check overrides: the smallest useful size
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="beam-spatial",
            command="spatial-study",
            config="example1.cfg",
            theory_order=4.0,
            reference=(
                0.00043399760464015634,
                2.788888376858097e-05,
                1.7395692487627092e-06,
                1.0861358560940074e-07,
            ),
            quick={"N_fast": "256", "J_list": "4, 8"},
            why=(
                "1D, N=16384, J in 2..32: 81,920 steps bound by Python per-call "
                "overhead on tiny arrays (stepper1d, 1D operators, mesh, expr, "
                "damping); never touches the 2D solver"
            ),
        ),
        Workload(
            name="plate-temporal",
            command="temporal-study",
            config="example2.cfg",
            theory_order=2.0,
            reference=(
                0.002769991828455717,
                0.0007005613215018302,
                0.00017643450072237236,
                4.429366945783354e-05,
            ),
            quick={"J": "4", "N_list": "16, 32"},
            why=(
                "2D, J=16, N in 128..2048: 3,968 forced steps, most time in the "
                "warm-started 2D solve with few operator applications per solve"
            ),
        ),
        Workload(
            name="plate-energy",
            command="energy-study",
            config="example2_energy.cfg",
            theory_order=None,
            reference=(1.507503783548673,),
            quick={"J": "4", "N": "8"},
            why=(
                "2D, J=32, N=128 unforced: few large-tau steps, each a 2D solve "
                "with hundreds of operator applications, plus the SVG artifact"
            ),
        ),
    )
}


def amplitude_factor(seed: int) -> float:
    """Factor on the amplitudes of u0 and f; 1 for seed 0."""
    if seed == 0:
        return 1.0
    return float(f"{2.0 ** random.Random(seed).uniform(-AMP_LOG2, AMP_LOG2):.6g}")


def make_config(bundled: Path, seed: int, overrides: dict[str, str] | None = None) -> bytes:
    """The config text the program sees for ``seed`` (and optional overrides)."""
    raw = bundled.read_bytes()
    factor = amplitude_factor(seed)
    if seed == 0 and not overrides:
        return raw
    lines = []
    for line in raw.decode("utf-8").splitlines():
        m = re.match(r"(\s*)(\w+)(\s*=\s*)(.*?)\s*$", line)
        if m:
            indent, key, eq, value = m.groups()
            if key in _SCALED and factor != 1.0:
                line = f'{indent}{key}{eq}"{factor!r}*({value[1:-1]})"'
            if overrides and key in overrides:
                line = f"{indent}{key}{eq}{overrides[key]}"
        lines.append(line)
    return ("\n".join(lines) + "\n").encode("utf-8")


@dataclasses.dataclass
class Outcome:
    ok: bool
    problems: list[str]
    order_gap: float | None = None


def check_outputs(
    workload: Workload, status: int, config: bytes, out_dir: Path, full: bool, seed: int
) -> Outcome:
    """Correctness gate for one command run.

    Always: exit status 0 (which covers the stability bound and, on unforced
    runs, monotone energy), and a report whose header carries the sha256 of
    the generated config.  ``full`` adds the order check on studies and, on
    seed 0, the comparison with the recorded reference values.
    """
    problems: list[str] = []
    if status != 0:
        return Outcome(False, [f"exit status {status}"])
    report = out_dir / "report.csv"
    if not report.is_file():
        return Outcome(False, ["report.csv missing"])
    lines = report.read_text(encoding="utf-8").splitlines()
    digest = hashlib.sha256(config).hexdigest()
    if not lines or f"sha256={digest}" not in lines[0]:
        problems.append("report.csv does not carry the generated config's sha256")
    rows = [line.split(",") for line in lines[2:]]
    order_gap = None
    if workload.theory_order is not None:
        values = [float(r[3]) for r in rows]
        order = float(rows[-1][4]) if rows and rows[-1][4] else math.nan
        order_gap = abs(order - workload.theory_order)
        if full and not order_gap <= ORDER_TOL:
            problems.append(
                f"finest-row order {order!r} is not within {ORDER_TOL} of "
                f"{workload.theory_order}"
            )
    else:
        energies = [float(r[1]) for r in rows]
        values = energies[-1:]
        if not (out_dir / "energy.svg").is_file():
            problems.append("energy.svg missing")
    if not values or not all(math.isfinite(v) and v > 0.0 for v in values):
        problems.append(f"non-finite or non-positive results {values!r}")
    elif full and seed == 0:
        ref = workload.reference
        if len(values) != len(ref) or any(
            abs(v - r) > REFERENCE_RTOL * abs(r) for v, r in zip(values, ref)
        ):
            problems.append(f"results {values!r} differ from reference {ref!r}")
    return Outcome(not problems, problems, order_gap)
