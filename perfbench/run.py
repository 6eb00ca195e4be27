"""Benchmark for qlsplit: run a workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload converge-n256 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one child each

Each workload is a sequence of `qlsplit` subcommands called in-process
through `qlsplit.cli.main` with flags generated from the seed.  The run
imports qlsplit from `src/` of the checkout, sets up (import in a fresh
interpreter, input generation and warm-up; repeated), then repeats full
passes of the workload for about `--seconds` seconds and checks every
invocation's output files.  `wall_s` is the mean measured pass time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the run alternates
untraced and traced passes and reports the per-layer metrics made from
the traced passes' spans (see spans.py), which it also saves under
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 15

# name -> unit, in the order printed; must match BENCHMARK.json's end_to_end.
END_TO_END_UNITS = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_environment() -> None:
    """One thread per numeric library; no ladder worker pool."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("QLSPLIT_WORKERS", None)


def load_qlsplit():
    """Import qlsplit from the checkout; return qlsplit.cli."""
    sys.path.insert(0, str(ROOT / "src"))
    import qlsplit.cli

    return qlsplit.cli


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _clear(workdir: str) -> int:
    """Delete every file in `workdir`; return the bytes they held."""
    total = 0
    for entry in os.scandir(workdir):
        total += entry.stat().st_size
        os.remove(entry.path)
    return total


@dataclass
class Pass:
    wall: float = 0.0
    work: int = 0
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    reasons: list[str] = field(default_factory=list)


def run_pass(cli, invocations, workdir: str) -> Pass:
    """Run every invocation once; time only the `cli.main` calls."""
    result = Pass()
    for inv in invocations:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = cli.main(list(inv.argv))
            result.wall += time.perf_counter() - start
        try:
            outcome = inv.check(inv.prefix, code)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome = workloads.Outcome(False, 0, f"unreadable output: {exc!r}")
        result.attempted += 1
        result.work += outcome.work
        if not outcome.ok:
            result.failed += 1
            result.reasons.append(f"{' '.join(inv.argv[:1])}: {outcome.reason}")
        result.bytes_written += _clear(workdir)
    return result


IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import qlsplit.cli; print(time.perf_counter() - t)"
)


def time_import() -> float:
    """Seconds a fresh interpreter takes to import qlsplit (and numpy)."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def set_up(cli, name: str, seed: int, workdir: str, smoke: bool):
    """Import in a fresh interpreter, generate the inputs and warm up.

    Repeated SETUP_REPEATS times; returns (invocations, median seconds of
    one set-up).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        import_s = time_import()
        start = time.perf_counter()
        invocations = workloads.build(name, seed, workdir, smoke)
        for argv in workloads.WARMUPS[name](workdir):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(argv))
            if code not in (workloads.EXIT_OK, workloads.EXIT_BLOWUP):
                raise RuntimeError(f"warm-up {argv[0]} exited {code}")
        _clear(workdir)
        times.append(import_s + time.perf_counter() - start)
    return invocations, statistics.median(times)


def measure(cli, name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run of workload `name`.

    Returns the result object and a detail dict of the measured pass times.
    """
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    tracer = spans.Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    try:
        invocations, setup_s = set_up(cli, name, seed, workdir, smoke)
        begin = time.perf_counter()
        while True:
            untraced.append(run_pass(cli, invocations, workdir))
            if trace:
                tracer.install()
                try:
                    traced.append(run_pass(cli, invocations, workdir))
                finally:
                    tracer.uninstall()
            elapsed = time.perf_counter() - begin
            if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = untraced + traced
    for p in done:
        for reason in p.reasons:
            print(f"{name}: check failed: {reason}", file=sys.stderr)
    walls = [p.wall for p in untraced]
    detail = {"passes": len(untraced), "wall_s": walls}
    if trace:
        tracer.save(str(OUT_DIR / f"trace-{name}-seed{seed}.npz"))
        values = spans.per_layer_metrics(
            tracer,
            passes=len(traced),
            traced_wall=sum(p.wall for p in traced),
            overhead=statistics.fmean(p.wall for p in traced)
            / statistics.fmean(walls) - 1.0,
            bytes_written=statistics.median(p.bytes_written for p in traced),
        )
        units = spans.PER_LAYER_UNITS
    else:
        values = {
            "wall_s": statistics.fmean(walls),
            "work_per_s": sum(p.work for p in untraced) / sum(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    failed = sum(p.failed for p in done)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in done),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, detail


def run_child(name: str, args: argparse.Namespace) -> dict:
    """Run one workload in a child process, so each has its own peak RSS."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    *lines, last = proc.stdout.splitlines()
    print("\n".join(lines))
    return json.loads(last)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qlsplit" / "__init__.py").is_file():
        print(f"perfbench: no qlsplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        pin_environment()
        cli = load_qlsplit()
        print("provenance " + json.dumps(provenance(), sort_keys=True))
        result, detail = measure(
            cli, args.workload, args.seed, args.seconds, bool(args.trace)
        )
        print(f"detail {args.workload} " + json.dumps(detail))
        print(json.dumps(result))
        return 0

    results = {name: run_child(name, args) for name in workloads.WORKLOADS}
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:16s} {metric:30s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
