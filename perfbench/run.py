"""Benchmark of the damped-eb command line on three study workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  Every command goes through the public
entry point ``damped_eb.cli.main``, in a fresh single-threaded Python
process (BLAS/OpenMP pinned to one thread) that imports the package from
``src/``; nothing needs building.  Inputs come from the seed (see
``workloads.py``), scratch files live under ``.perfbench_tmp/`` in the
checkout and are removed at exit.

``--trace 0`` measures the end-to-end metrics, with tracing off:

* ``wall_s``: wall time of one command, median over the repetitions that
  fit in ``--seconds`` (at least one);
* ``setup_s``: ``import damped_eb`` plus ``load_config`` on the generated
  config, in a fresh process, median of several processes;
* ``peak_rss_mb``: peak resident memory of the command process, median.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the spans of the traced ones (see ``layers.py``),
plus ``trace.overhead_frac``, the traced over the untraced median wall time
minus 1.

Every repetition passes the correctness gate of ``workloads.check_outputs``
or counts as failed.  Readable lines with medians, maxima and sample counts,
a failure rate, the study order gap and the run's metadata come first; the
last line of standard output is the JSON result.  Without ``src/damped_eb``
the benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = SRC / "damped_eb" / "configs"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

from layers import EXACT_COUNTS, layer_metrics  # noqa: E402
from workloads import WORKLOADS, amplitude_factor, check_outputs, make_config  # noqa: E402

SETUP_SAMPLES = 5
# One command takes 15-40 s on a 2-core Xeon; a run must end within 180 s.
COMMAND_TIMEOUT_S = 120.0
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import damped_eb\n"
    "from damped_eb.cli import load_config\n"
    "load_config(sys.argv[1], sys.argv[2])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs one workload's commands in a scratch directory of the checkout."""

    def __init__(self, workload, seed: int, work: Path, full: bool = True):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.full = full
        overrides = None if full else workload.quick
        self.config = make_config(CONFIGS / workload.config, seed, overrides)
        self.config_path = work / workload.config
        self.config_path.write_bytes(self.config)
        self.env = child_env()
        self.reps = 0
        self.failures: list[str] = []
        self.order_gaps: list[float] = []

    def _spawn(self, args: list[str], log: Path) -> tuple[int, float, float]:
        """(exit status, wall seconds, peak RSS in MB) of one child process."""
        with open(log, "wb") as sink:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                args, env=self.env, cwd=self.work, stdout=sink, stderr=subprocess.STDOUT
            )
            try:
                # poll instead of blocking so that a hung command is stopped;
                # wait4 (unlike Popen.wait) also yields this child's peak RSS
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.perf_counter() - t0 > COMMAND_TIMEOUT_S:
                        proc.kill()
                    time.sleep(0.002)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def command(self, spans: Path | None = None) -> tuple[float, float]:
        """One checked run of the workload's command; (wall s, peak RSS MB)."""
        self.reps += 1
        out = self.work / f"out{self.reps}"
        trace = ["--spans", str(spans)] if spans is not None else []
        args = [sys.executable, str(BENCH / "child.py"), *trace, "--"]
        args += [self.workload.command, "--config", str(self.config_path)]
        args += ["--out", str(out), "--profile", "fast"]
        log = self.work / f"log{self.reps}.txt"
        status, wall, rss = self._spawn(args, log)
        outcome = check_outputs(self.workload, status, self.config, out, self.full, self.seed)
        if outcome.order_gap is not None:
            self.order_gaps.append(outcome.order_gap)
        if not outcome.ok:
            tail = log.read_text(errors="replace").strip().splitlines()[-5:]
            self.failures.append("; ".join(outcome.problems + tail))
        shutil.rmtree(out, ignore_errors=True)
        return wall, rss

    def setup_times(self, samples: int) -> list[float]:
        """Import plus load_config in fresh processes; one unrecorded warm-up."""
        args = [sys.executable, "-c", SETUP_CODE, str(self.config_path), self.workload.command]
        times = []
        for i in range(samples + 1):
            proc = subprocess.run(
                args, env=self.env, cwd=self.work, capture_output=True, text=True
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
            if i:
                times.append(float(proc.stdout.strip().splitlines()[-1]))
        return times


def repeat(seconds: float, body) -> None:
    """Call ``body`` at least once, and again while half a call still fits."""
    t0 = time.perf_counter()
    last = body()
    while time.perf_counter() - t0 + 0.5 * last < seconds:
        last = body()


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_metadata(workload, seed: int) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "amplitude_factor": amplitude_factor(seed),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": src_line_count(),
    }


def describe(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name:<28} (no samples)"
    return (
        f"{name:<28} p50 {statistics.median(values):.6g} {unit}  "
        f"max {max(values):.6g} {unit}  n={len(values)}"
    )


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    setup = runner.setup_times(SETUP_SAMPLES)
    walls, rss = [], []

    def body():
        wall, peak = runner.command()
        walls.append(wall)
        rss.append(peak)
        return wall

    repeat(seconds, body)
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    lines = [
        describe("wall_s", walls, "s"),
        describe("setup_s", setup, "s"),
        describe("peak_rss_mb", rss, "MB"),
    ]
    return metrics, lines


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    plain, traced, results = [], [], []

    def body():
        wall, _ = runner.command()
        plain.append(wall)
        spans = runner.work / "spans.npz"
        wall, _ = runner.command(spans)
        traced.append(wall)
        results.append(layer_metrics(spans))
        spans.unlink()
        return plain[-1] + wall

    repeat(seconds, body)
    values, absent = results[0]
    for other, _ in results[1:]:
        for key in values:
            if key.endswith(EXACT_COUNTS) and other[key] != values[key]:
                runner.failures.append(f"exact count {key} differs between traced runs")
    values["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0,
        "frac",
    )
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
    lines = [describe("untraced wall_s", plain, "s"), describe("traced wall_s", traced, "s")]
    lines += [f"{k:<44} {v:.6g} {u}" for k, (v, u) in sorted(values.items())]
    lines += [f"{k:<44} absent (function no longer exists)" for k in absent]
    return metrics, lines


def run_one(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    runner = Runner(workload, seed, work)
    measure = measure_layers if trace else measure_end_to_end
    metrics, lines = measure(runner, seconds)
    failed = len(runner.failures)
    lines.append(f"{'failure_rate':<28} {failed}/{runner.reps} = {failed / runner.reps:.6g}")
    if runner.order_gaps:
        lines.append(describe("order_gap", runner.order_gaps, "order"))
    for problem in runner.failures:
        print(f"failed: {problem}", file=sys.stderr)
    meta = run_metadata(workload, seed)
    print(f"damped-eb benchmark: {workload.name}, seed {seed}, trace {int(trace)}")
    for line in lines:
        print("  " + line)
    print(json.dumps({"metadata": meta}, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": runner.reps,
        "failed": failed,
        "metrics": metrics,
    }


def self_check(work: Path) -> bool:
    """Each workload at its smallest size: names well formed, counts repeat."""
    ok = True
    for workload in WORKLOADS.values():
        runner = Runner(workload, 0, work / workload.name, full=False)
        spans = work / "spans.npz"
        counts = []
        for _ in range(2):
            runner.command(spans)
            values, absent = layer_metrics(spans)
            counts.append({k: v for k, v in values.items() if k.endswith(EXACT_COUNTS)})
        e2e, _ = measure_end_to_end(runner, 0.0)
        names = list(values) + list(e2e) + ["trace.overhead_frac"]
        bad = [n for n in names if not NAME_RE.fullmatch(n) or len(n) > 64]
        problems = runner.failures + [f"bad metric name {n!r}" for n in bad]
        if counts[0] != counts[1]:
            problems.append("exact counts differ between two traced runs")
        if not counts[0]:
            problems.append("no exact counts")
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"self-check {workload.name}: {len(counts[0])} exact counts, {status}")
        if absent:
            print(f"  absent (function no longer exists): {', '.join(absent)}")
        ok = ok and not problems
    return ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not args.self_check and args.workload is None:
        parser.error("--workload is required unless --self-check is given")
    if not (SRC / "damped_eb" / "cli.py").is_file():
        print(f"error: no damped_eb package under {SRC}", file=sys.stderr)
        return 2
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        if args.self_check:
            for workload in WORKLOADS.values():
                (work / workload.name).mkdir()
            return 0 if self_check(work) else 1
        result = run_one(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
