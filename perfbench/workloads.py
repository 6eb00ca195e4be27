"""The benchmark's workloads: generated `qlsplit` invocations and their checks.

A workload is a list of `Invocation`s, each one `qlsplit` subcommand given
as the argv that `qlsplit.cli.main` receives, plus a check that reads the
files and exit code it produced.  The check decides whether the output is
correct and reports the work the invocation did (Strang steps, or
(amplitude, xi) modes for the stability scan).

Inputs come only from the workload seed; qlsplit sees only the flags.
This module imports neither numpy nor qlsplit, so that the import of
qlsplit is timed on its own as part of set-up.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

EXIT_OK = 0
EXIT_BLOWUP = 3


@dataclass(frozen=True)
class Outcome:
    ok: bool
    work: int
    reason: str = ""


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    prefix: str
    check: Callable[[str, int], Outcome]


def _num(x: float) -> str:
    return repr(float(x))


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- converge-n256 ------------------------------------------------------------

CONVERGE = {
    "n_points": 256,
    "amplitude": 0.2,
    "width": 0.2,
    "t_final": math.pi / 4,
    "ladder": (500, 1000, 2000, 4000, 8000),
    "reference": 40_000,
}
CONVERGE_SMOKE = dict(CONVERGE, ladder=(500, 1000, 2000), reference=8000)
ORDER_BAND = (1.8, 2.2)
ERR_L2_500 = 1.6973e-6  # err_l2 at 500 steps against the 40 000-step reference
ERR_L2_FACTOR = 3.0


def _check_converge(spec: dict) -> Callable[[str, int], Outcome]:
    work = sum(spec["ladder"]) + spec["reference"]

    def check(prefix: str, code: int) -> Outcome:
        if code != EXIT_OK:
            return Outcome(False, work, f"exit code {code}")
        summary = _read_json(prefix + "_orders.json")
        for key in ("order_l2", "order_h1"):
            order = summary[key]
            if order is None or not ORDER_BAND[0] <= order <= ORDER_BAND[1]:
                return Outcome(False, work, f"{key} = {order} outside {ORDER_BAND}")
        rows = {r["n_steps"]: r for r in summary["rows"]}
        if any(rows[n]["status"] != "ok" for n in spec["ladder"]):
            return Outcome(False, work, "a ladder run tripped the guard")
        err = rows[500]["err_l2"]
        if not ERR_L2_500 / ERR_L2_FACTOR <= err <= ERR_L2_500 * ERR_L2_FACTOR:
            return Outcome(False, work, f"err_l2 at 500 steps = {err}")
        return Outcome(True, work)

    return check


def _converge(spec: dict):
    def build(workdir: str, rng: random.Random) -> list[Invocation]:
        prefix = f"{workdir}/conv"
        argv = (
            "converge",
            "--n-points", str(spec["n_points"]),
            "--amplitude", _num(spec["amplitude"]),
            "--width", _num(spec["width"]),
            "--t-final", _num(spec["t_final"]),
            "--nt-ladder", ",".join(str(n) for n in spec["ladder"]),
            "--reference-n-steps", str(spec["reference"]),
            "--output", prefix,
        )
        return [Invocation(argv, prefix, _check_converge(spec))]

    return build


# --- blowup-n4096 -------------------------------------------------------------

BLOWUP = {"n_points": 4096, "n_steps": 40_000}
BLOWUP_SMOKE = {"n_points": 2048, "n_steps": 10_000}
BLOWUP_T_FINAL = 5e-3
ONSET_BAND = (1.9e-3, 2.5e-3)


def _steps_done(prefix: str, code: int, tau: float, n_steps: int) -> int:
    if code == EXIT_BLOWUP:
        return round(_read_json(prefix + "_blowup.json")["onset_time"] / tau)
    return n_steps


def _simulate_argv(prefix: str, **flags) -> tuple[str, ...]:
    argv = ["simulate"]
    for key, value in flags.items():
        text = _num(value) if isinstance(value, float) else str(value)
        argv += ["--" + key.replace("_", "-"), text]
    return tuple(argv + ["--output", prefix])


def _check_blowup(spec: dict) -> Callable[[str, int], Outcome]:
    tau = BLOWUP_T_FINAL / spec["n_steps"]

    def check(prefix: str, code: int) -> Outcome:
        if code != EXIT_BLOWUP:
            return Outcome(False, spec["n_steps"], f"exit code {code}, expected 3")
        sidecar = _read_json(prefix + "_blowup.json")
        work = round(sidecar["onset_time"] / tau)
        if sidecar["trigger"] != "amplitude":
            return Outcome(False, work, f"trigger {sidecar['trigger']!r}")
        onset = sidecar["onset_time"]
        if not ONSET_BAND[0] <= onset <= ONSET_BAND[1]:
            return Outcome(False, work, f"onset {onset} outside {ONSET_BAND}")
        return Outcome(True, work)

    return check


def _blowup(spec: dict):
    def build(workdir: str, rng: random.Random) -> list[Invocation]:
        prefix = f"{workdir}/blowup"
        argv = _simulate_argv(
            prefix,
            n_points=spec["n_points"],
            amplitude=0.65,
            width=0.1,
            t_final=BLOWUP_T_FINAL,
            n_steps=spec["n_steps"],
            blowup_factor=2.0,
            record_every=500,
        )
        return [Invocation(argv, prefix, _check_blowup(spec))]

    return build


# --- ensemble-n256 ------------------------------------------------------------

ENSEMBLE_AMPLITUDES = tuple(round(0.3 + 0.1 * i, 1) for i in range(10))
ENSEMBLE_WIDTHS = (0.1, 0.2, 0.4)
ENSEMBLE_SMOKE_AMPLITUDES = (0.3, 1.2)
# Each amplitude moves up by at most ENSEMBLE_JITTER, inside its 0.1 cell,
# so 0.6 stays <= STABLE_MAX and 0.9 stays >= BLOWUP_MIN.  At width 0.1 the
# guard does not trip for a in [0.884, 0.896] but trips throughout
# [0.8975, 0.9225]; the band between the two limits is not checked.
ENSEMBLE_JITTER = 0.02
STABLE_MAX = 0.62       # a <= this: exit 0 and mass conserved
BLOWUP_MIN = 0.90       # a >= this: the guard trips
MASS_DRIFT_MAX = 1e-12
ENSEMBLE_T_FINAL = 0.1
ENSEMBLE_STEPS = 1000


def _check_member(amplitude: float) -> Callable[[str, int], Outcome]:
    tau = ENSEMBLE_T_FINAL / ENSEMBLE_STEPS

    def check(prefix: str, code: int) -> Outcome:
        if code not in (EXIT_OK, EXIT_BLOWUP):
            return Outcome(False, ENSEMBLE_STEPS, f"exit code {code}")
        work = _steps_done(prefix, code, tau, ENSEMBLE_STEPS)
        if amplitude <= STABLE_MAX:
            if code != EXIT_OK:
                return Outcome(False, work, f"a = {amplitude} tripped the guard")
            mass = [float(r["mass"]) for r in _read_rows(prefix + ".csv")]
            drift = max(abs(m - mass[0]) for m in mass) / mass[0]
            if not drift <= MASS_DRIFT_MAX:
                return Outcome(False, work, f"a = {amplitude}: mass drift {drift}")
        elif amplitude >= BLOWUP_MIN and code != EXIT_BLOWUP:
            return Outcome(False, work, f"a = {amplitude} did not trip the guard")
        return Outcome(True, work)

    return check


def _ensemble(amplitudes: tuple[float, ...]):
    def build(workdir: str, rng: random.Random) -> list[Invocation]:
        points = [(a, w) for a in amplitudes for w in ENSEMBLE_WIDTHS]
        rng.shuffle(points)
        out = []
        for i, (a, w) in enumerate(points):
            a += rng.uniform(0.0, ENSEMBLE_JITTER)
            prefix = f"{workdir}/ens{i:02d}"
            argv = _simulate_argv(
                prefix,
                n_points=256,
                amplitude=a,
                width=w,
                t_final=ENSEMBLE_T_FINAL,
                n_steps=ENSEMBLE_STEPS,
                blowup_factor=2.0,
                energy_guard_factor=10.0,
                record_every=1,
            )
            out.append(Invocation(argv, prefix, _check_member(a)))
        return out

    return build


# --- stability-scan -----------------------------------------------------------

SCAN_RANGE = (0.69, 0.73)
SCAN_POINTS = 201
SCAN_SMOKE_POINTS = 21
SCAN_XI_MAX = 1024
GROWTH_TAU = 1e-4
GROWTH_WAVENUMBERS = tuple(range(1, 33))


def radicand_positive(a: float, xi: int) -> bool:
    """Sign of 2a^2 xi^2 - 2a^2 - xi^2, evaluated exactly."""
    a2 = Fraction(a) ** 2
    return 2 * a2 * xi * xi - 2 * a2 - xi * xi > 0


def _check_scan(grid: list[float]) -> Callable[[str, int], Outcome]:
    work = len(grid) * (SCAN_XI_MAX + len(GROWTH_WAVENUMBERS))

    def check(prefix: str, code: int) -> Outcome:
        if code != EXIT_OK:
            return Outcome(False, work, f"exit code {code}")
        rows = _read_rows(prefix + "_stability.csv")
        if [float(r["amplitude"]) for r in rows] != grid:
            return Outcome(False, work, "amplitude column differs from the grid")
        for r, a in zip(rows, grid):
            if bool(int(r["unstable"])) != radicand_positive(a, SCAN_XI_MAX):
                return Outcome(False, work, f"wrong verdict at a = {a!r}")
        mults = _read_rows(prefix + "_multipliers.csv")
        if len(mults) != len(grid) * len(GROWTH_WAVENUMBERS):
            return Outcome(False, work, f"{len(mults)} multiplier rows")
        for r in mults:
            w = Fraction(float(r["w"]))
            if bool(int(r["growing"])) != (2 * w * w > 1):
                return Outcome(False, work, f"wrong growth flag at w = {r['w']}")
        return Outcome(True, work)

    return check


def _scan(points: int):
    def build(workdir: str, rng: random.Random) -> list[Invocation]:
        lo, hi = SCAN_RANGE
        step = (hi - lo) / (points - 1)
        grid = [
            lo + i * step + rng.uniform(-0.4, 0.4) * step for i in range(points)
        ]
        prefix = f"{workdir}/scan"
        argv = (
            "stability",
            "--amplitude-grid", ",".join(_num(a) for a in grid),
            "--xi-max", str(SCAN_XI_MAX),
            "--growth-tau", _num(GROWTH_TAU),
            "--growth-wavenumbers", ",".join(str(k) for k in GROWTH_WAVENUMBERS),
            "--output", prefix,
        )
        return [Invocation(argv, prefix, _check_scan(grid))]

    return build


# name -> (full-size builder, reduced-size builder for smoke tests)
WORKLOADS = {
    "converge-n256": (_converge(CONVERGE), _converge(CONVERGE_SMOKE)),
    "blowup-n4096": (_blowup(BLOWUP), _blowup(BLOWUP_SMOKE)),
    "ensemble-n256": (
        _ensemble(ENSEMBLE_AMPLITUDES), _ensemble(ENSEMBLE_SMOKE_AMPLITUDES)
    ),
    "stability-scan": (_scan(SCAN_POINTS), _scan(SCAN_SMOKE_POINTS)),
}

# Short runs at the workload's sizes that fill numpy's FFT plan cache and
# touch every code path before the first timed pass.
WARMUPS = {
    "converge-n256": lambda d: [(
        "converge", "--n-points", "256", "--amplitude", "0.2", "--width", "0.2",
        "--t-final", "0.01", "--nt-ladder", "10,20,40",
        "--reference-n-steps", "80", "--output", f"{d}/warm",
    )],
    "blowup-n4096": lambda d: [_simulate_argv(
        f"{d}/warm", n_points=4096, amplitude=0.65, width=0.1, t_final=1e-5,
        n_steps=80, blowup_factor=2.0, record_every=40,
    )],
    "ensemble-n256": lambda d: [_simulate_argv(
        f"{d}/warm", n_points=256, amplitude=a, width=0.1, t_final=0.002,
        n_steps=20, blowup_factor=2.0, energy_guard_factor=10.0, record_every=1,
    ) for a in (0.3, 1.2)],
    "stability-scan": lambda d: [(
        "stability", "--amplitude-grid", "0.69,0.71,0.73", "--xi-max", "1024",
        "--growth-tau", "1e-4", "--growth-wavenumbers", "1,2,3",
        "--output", f"{d}/warm",
    )],
}


def build(name: str, seed: int, workdir: str, smoke: bool = False) -> list[Invocation]:
    """Generate the invocations of one pass of workload `name` from `seed`."""
    full, reduced = WORKLOADS[name]
    return (reduced if smoke else full)(workdir, random.Random(seed))
