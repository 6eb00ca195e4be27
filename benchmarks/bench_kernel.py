"""Microseconds per step of `run_simulation`, for two source trees side by side.

    python3 benchmarks/bench_kernel.py --base /path/to/other/checkout/src

Each of 7 repeats times, for every grid size, one `run_simulation` call of
the base tree and one of the head tree (`src/` of this checkout), each in a
fresh single-threaded Python process after a warm-up run.  The order of
the two trees alternates from repeat to repeat.  The run is a smooth
pseudo-attractive Gaussian (a = 0.2, sigma = 0.2) with a record every 100
steps, the CLI default; it never trips a guard.  The JSON written to --out
holds every repeat, the median and quartiles of each side, the median
ratio base/head, the commit of each tree, and the machine, Python and
numpy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAU = 1.25e-7  # the blowup-n4096 step: tau (N/2)^2 = 0.52 at N = 4096
STEPS = {256: 4000, 512: 4000, 4096: 1000}
REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from qlsplit import Gaussian, GridSpec, ModelSpec, StepperConfig, run_simulation
n_points, n_steps, tau = int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
grid, model, ic = GridSpec(n_points), ModelSpec.pseudo_attractive(), Gaussian(0.2, 0.2)
cfg = StepperConfig(tau=tau, record_every=100)
run_simulation(model, ic, grid, cfg, tau * 200)
start = time.perf_counter()
rec = run_simulation(model, ic, grid, cfg, tau * n_steps)
elapsed = time.perf_counter() - start
assert not rec.blew_up
print(1e6 * elapsed / n_steps)
"""


def time_step(src: Path, n_points: int, n_steps: int) -> float:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(n_points), str(n_steps), repr(TAU)],
        check=True, capture_output=True, text=True, env=env,
    )
    return float(out.stdout)


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "runs_us": runs}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), cpu,
            )
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "system": platform.platform()}


def commit(src: Path) -> str:
    """`git describe` of the tree holding src ("-dirty" marks local edits)."""
    out = subprocess.run(
        ["git", "-C", str(src), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    )
    return out.stdout.strip() or "unknown"


def numpy_version() -> str:
    import numpy

    return numpy.__version__


def compare(base_src: Path) -> dict:
    """Time base_src against this checkout's src/; the record --out holds."""
    head_src = ROOT / "src"
    runs = {n: {"base": [], "head": []} for n in STEPS}
    for rep in range(REPEATS):
        order = ("base", "head") if rep % 2 == 0 else ("head", "base")
        for n_points, n_steps in STEPS.items():
            for side in order:
                src = base_src if side == "base" else head_src
                runs[n_points][side].append(time_step(src, n_points, n_steps))
        print(f"repeat {rep + 1}/{REPEATS} done", file=sys.stderr)

    results = []
    for n_points, n_steps in STEPS.items():
        base, head = summary(runs[n_points]["base"]), summary(runs[n_points]["head"])
        results.append({
            "n_points": n_points,
            "n_steps": n_steps,
            "base": base,
            "head": head,
            "speedup": base["median_us"] / head["median_us"],
        })
        print(f"N = {n_points:5d}: {base['median_us']:8.1f} -> "
              f"{head['median_us']:8.1f} us/step "
              f"({results[-1]['speedup']:.2f}x)")
    return {
        "script": "benchmarks/bench_kernel.py",
        "metric": "run_simulation microseconds per step, median of repeats",
        "workload": {"model": "pseudo_attractive", "ic": "Gaussian(0.2, 0.2)",
                     "tau": TAU, "record_every": 100},
        "base_commit": commit(base_src),
        "head_commit": commit(head_src),
        "repeats": REPEATS,
        "machine": machine(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "results": results,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="src/ directory of the tree to compare against")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kernel.json")
    args = parser.parse_args()
    args.out.write_text(json.dumps(compare(args.base), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
