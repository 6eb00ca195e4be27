"""Microseconds per step of `run_simulation`, for two source trees side by side.

    python3 benchmarks/bench_kernel.py --base /path/to/other/checkout/src

Each of 7 repeats times, for every grid size, one `run_simulation` call of
the base tree and one of the head tree (`src/` of this checkout), each in a
fresh single-threaded Python process after a warm-up run.  The order of
the two trees alternates from repeat to repeat.  The run is a smooth
pseudo-attractive Gaussian (a = 0.2, sigma = 0.2) with a record every 100
steps, the CLI default; it never trips a guard.  The same child also times
the phase kick's rotation exp(-i tau V) alone, without the potential, on the
potential V of the run's final state.
The JSON written to --out holds every repeat, the median and quartiles of
each side, the median ratio base/head, for the step and for the phase, the
commit of each tree, and the machine (with numpy's SIMD dispatch), Python
and numpy versions.  Both commits are resolved before the first run, and a
base outside a git work tree exits 2.
"""

from __future__ import annotations

import argparse
import importlib
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
from qlsplit.splitting import _StepKernel
u = rec.final_field
v = _StepKernel(grid, model, tau).potential(u.real**2 + u.imag**2)
phase = _StepKernel(grid, ModelSpec.cubic_nls(), tau).phase  # V = s: the rotation alone
start = time.perf_counter()
for _ in range(n_steps):
    phase(v)
phase_elapsed = time.perf_counter() - start
print(1e6 * elapsed / n_steps, 1e6 * phase_elapsed / n_steps)
"""


def time_step(src: Path, n_points: int, n_steps: int) -> tuple[float, float]:
    """Microseconds per step and per phase call of the tree holding src."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(n_points), str(n_steps), repr(TAU)],
        check=True, capture_output=True, text=True, env=env,
    )
    step_us, phase_us = map(float, out.stdout.split())
    return step_us, phase_us


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
    return {"cpu": cpu, "cpus": os.cpu_count(), "system": platform.platform(),
            "numpy_simd": numpy_simd()}


def numpy_simd() -> dict:
    """numpy's SIMD dispatch targets that this host runs, and whether AVX512F is on.

    They say whether a ufunc such as ``np.tan`` ran vectorised; "unknown"
    when numpy exposes neither ``numpy._core`` (numpy 2) nor ``numpy.core``.
    """
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(name)
        except ImportError:
            continue
        features = umath.__cpu_features__
        return {"dispatch": [t for t in umath.__cpu_dispatch__ if features.get(t)],
                "avx512f": bool(features.get("AVX512F"))}
    return {"dispatch": "unknown", "avx512f": "unknown"}


def commit(src: Path) -> str:
    """`git describe` of the tree holding src ("-dirty" marks local edits).

    Raises ValueError when src is not inside a git work tree, such as a
    `git archive` export, whose commit no record could name.
    """
    out = subprocess.run(
        ["git", "-C", str(src), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise ValueError(
            f"{src} is not inside a git work tree, so its commit cannot be named; "
            "make the base with `git clone` or `git worktree add --detach` "
            "(both work offline)"
        )
    return out.stdout.strip()


def commits(parser: argparse.ArgumentParser, base: Path) -> dict:
    """The base and head commits, resolved before any run: a base whose
    commit cannot be named is a usage error (exit 2)."""
    try:
        return {"base_commit": commit(base), "head_commit": commit(ROOT)}
    except ValueError as exc:
        parser.error(str(exc))


def numpy_version() -> str:
    import numpy

    return numpy.__version__


def compare(base_src: Path, provenance: dict) -> dict:
    """Time base_src against this checkout's src/; the record --out holds,
    with the commits in provenance."""
    head_src = ROOT / "src"
    runs = {n: {"base": [], "head": []} for n in STEPS}
    phase_runs = {n: {"base": [], "head": []} for n in STEPS}
    for rep in range(REPEATS):
        order = ("base", "head") if rep % 2 == 0 else ("head", "base")
        for n_points, n_steps in STEPS.items():
            for side in order:
                src = base_src if side == "base" else head_src
                step_us, phase_us = time_step(src, n_points, n_steps)
                runs[n_points][side].append(step_us)
                phase_runs[n_points][side].append(phase_us)
        print(f"repeat {rep + 1}/{REPEATS} done", file=sys.stderr)

    results = []
    for n_points, n_steps in STEPS.items():
        base, head = summary(runs[n_points]["base"]), summary(runs[n_points]["head"])
        base_phase = summary(phase_runs[n_points]["base"])
        head_phase = summary(phase_runs[n_points]["head"])
        results.append({
            "n_points": n_points,
            "n_steps": n_steps,
            "base": base,
            "head": head,
            "speedup": base["median_us"] / head["median_us"],
            "phase": {"base": base_phase, "head": head_phase,
                      "speedup": base_phase["median_us"] / head_phase["median_us"]},
        })
        print(f"N = {n_points:5d}: {base['median_us']:8.1f} -> "
              f"{head['median_us']:8.1f} us/step "
              f"({results[-1]['speedup']:.2f}x); phase {base_phase['median_us']:.1f} -> "
              f"{head_phase['median_us']:.1f} us")
    return {
        "script": "benchmarks/bench_kernel.py",
        "metric": "run_simulation microseconds per step, and _StepKernel.phase "
                  "microseconds per call, median of repeats",
        "workload": {"model": "pseudo_attractive", "ic": "Gaussian(0.2, 0.2)",
                     "tau": TAU, "record_every": 100},
        **provenance,
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
    provenance = commits(parser, args.base)
    args.out.write_text(json.dumps(compare(args.base, provenance), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
