"""Command-line front end: experiment configs, runners, and file writers.

A single flat JSON document configures a run; every field can be
overridden from the command line.  The subcommand selects the experiment
(a config ``experiment`` key is rejected as unknown):

    qlsplit simulate        one run, diagnostics CSV (+ snapshots, blow-up JSON)
    qlsplit converge        step-size ladder vs a fine reference, error table
    qlsplit stability       plane-wave threshold scan, verdict CSV
    qlsplit planewave-check exactness and perturbation growth on a wave train

Every stepping run takes the step tau = t_final / n_steps; converge takes
n_steps from each nt_ladder entry.  CSV cells, snapshots included, are
plain numbers or strings.  A planewave-check perturbation of mode m
seeds the modulus, (a + eps cos((m - k) x)) e^{ikx}, so both m and its
partner 2k - m must be representable; it cannot be measured, and is a
configuration error, unless its L2 norm is more than 100 times the
unperturbed march's max deviation.

Exit codes: 0 success, 2 configuration error, 3 run halted by the blow-up
guard, 4 reference-run failure in a convergence study.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .diagnostics import ConvergenceRow, ConvergenceTable, fit_order
from .model import (
    Gaussian,
    InitialCondition,
    ModelSpec,
    MultiMode,
    Perturbation,
    PlaneWave,
)
from .spectral import Field, GridSpec, h1_seminorm, l2_norm
from .splitting import (
    SimulationRecord,
    StepperConfig,
    planewave_deviation,
    run_simulation,
)
from .stability import (
    SplitStepMultipliers,
    split_step_mode_growth,
    stability_threshold_scan,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "cmd_simulate",
    "cmd_converge",
    "cmd_stability",
    "cmd_planewave_check",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_REFERENCE = 4

_MODELS = {
    "pseudo_attractive": ModelSpec.pseudo_attractive,
    "thin_film": ModelSpec.thin_film,
    "cubic": ModelSpec.cubic_nls,
}

_IC_KINDS = ("gaussian", "plane_wave", "multi_mode")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one experiment; JSON keys mirror field names.

    The annotations are the only statement of each field's type: flags and
    JSON values are read by them, so they stay within int, float, bool,
    str, ``X | None`` and ``tuple[X, ...]``.
    """

    model: str = "pseudo_attractive"
    n_points: int = 256
    ic_kind: str = "gaussian"
    amplitude: float = 0.2
    width: float | None = 0.2
    wavenumber: int | None = None
    wavenumbers: tuple[int, ...] | None = None
    perturbation_mode: int | None = None
    perturbation_amplitude: float = 1e-10
    t_final: float = 0.7853981633974483
    n_steps: int = 1000
    mollify_eps: float | None = None
    krasny_delta: float | None = None
    dealias: bool = False
    blowup_factor: float = 10.0
    energy_guard_factor: float | None = None
    record_every: int = 100
    snapshot_times: tuple[float, ...] = ()
    output: str = "qlsplit_run"
    nt_ladder: tuple[int, ...] | None = None
    reference_n_steps: int | None = None
    amplitude_grid: tuple[float, ...] | None = None
    xi_max: int = 128
    growth_tau: float | None = None
    growth_wavenumbers: tuple[int, ...] | None = None


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
_FLAG_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _typed(name: str, value: object, from_flag: bool = False) -> object:
    """Read one config value as the ExperimentConfig annotation of ``name`` says.

    A flag value is a string to parse; list fields take comma-separated
    items.  A JSON value must already have the field's type: an integer
    field takes no float and no bool, a float field takes any number, a
    tuple field takes a list, and null is only for ``X | None`` fields.
    """
    kind = _FIELD_TYPES[name]
    if type(None) in typing.get_args(kind):
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if typing.get_origin(kind) is tuple:
        if from_flag:
            value = [item for item in value.split(",") if item != ""]
        elif not isinstance(value, list):
            raise ConfigError(f"{name} expects a list, got {value!r}")
        item_kind = typing.get_args(kind)[0]
        return tuple(_typed_scalar(name, item_kind, v, from_flag) for v in value)
    return _typed_scalar(name, kind, value, from_flag)


def _typed_scalar(name: str, kind: type, value: object, from_flag: bool) -> object:
    if from_flag:
        try:
            return _FLAG_BOOLS[value.strip().lower()] if kind is bool else kind(value)
        except (KeyError, ValueError):
            pass
    # bool is a subclass of int, so it must be told apart from numbers
    elif isinstance(value, bool) == (kind is bool) and isinstance(
        value, (int, float) if kind is float else kind
    ):
        return kind(value)
    raise ConfigError(f"{name} expects {kind.__name__}, got {value!r}")


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    typed = {name: _typed(name, value) for name, value in raw.items()}
    return ExperimentConfig(**typed)


def _validate(cfg: ExperimentConfig) -> None:
    """Single-field rules; each command checks its own cross-field rules."""
    if cfg.model not in _MODELS:
        raise ConfigError(
            f"unknown model {cfg.model!r}; choose from {sorted(_MODELS)}"
        )
    if cfg.ic_kind not in _IC_KINDS:
        raise ConfigError(f"unknown ic_kind {cfg.ic_kind!r}")
    try:
        GridSpec(cfg.n_points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 0 < cfg.t_final < math.inf:
        raise ConfigError(f"t_final must be finite and positive, got {cfg.t_final}")
    if cfg.n_steps < 1:
        raise ConfigError(f"n_steps must be a positive integer, got {cfg.n_steps}")
    for name in ("amplitude", "width", "perturbation_amplitude"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if cfg.amplitude_grid and not all(0 <= a < math.inf for a in cfg.amplitude_grid):
        raise ConfigError(
            f"amplitude_grid entries must be finite and >= 0, got {cfg.amplitude_grid}"
        )
    if cfg.growth_tau is not None and not 0 < cfg.growth_tau < math.inf:
        raise ConfigError(f"growth_tau must be finite and > 0, got {cfg.growth_tau}")
    if cfg.growth_wavenumbers and min(cfg.growth_wavenumbers) < 1:
        raise ConfigError(
            f"growth_wavenumbers entries must be >= 1, got {cfg.growth_wavenumbers}"
        )
    out_dir = os.path.dirname(os.path.abspath(cfg.output))
    if not os.path.isdir(out_dir) or not os.access(out_dir, os.W_OK):
        raise ConfigError(f"output directory {out_dir!r} is not writable")


def _build_ic(cfg: ExperimentConfig) -> InitialCondition:
    pert = None
    if cfg.perturbation_mode is not None:
        pert = Perturbation(cfg.perturbation_mode, cfg.perturbation_amplitude)
    if cfg.ic_kind == "gaussian":
        if cfg.width is None:
            raise ConfigError("gaussian initial condition requires width")
        return Gaussian(cfg.amplitude, cfg.width, perturbation=pert)
    if cfg.ic_kind == "plane_wave":
        if cfg.wavenumber is None:
            raise ConfigError("plane_wave initial condition requires wavenumber")
        return PlaneWave(cfg.amplitude, cfg.wavenumber, perturbation=pert)
    if cfg.wavenumbers is None:
        raise ConfigError("multi_mode initial condition requires wavenumbers")
    return MultiMode(cfg.amplitude, cfg.wavenumbers, perturbation=pert)


def _run_once(cfg: ExperimentConfig, n_steps: int,
              record_every: int | None = None) -> SimulationRecord:
    """One run of the configured experiment in n_steps steps over t_final."""
    try:
        stepper = StepperConfig(
            tau=cfg.t_final / n_steps,
            mollify_eps=cfg.mollify_eps,
            krasny_delta=cfg.krasny_delta,
            dealias=cfg.dealias,
            blowup_factor=cfg.blowup_factor,
            energy_guard_factor=cfg.energy_guard_factor,
            record_every=record_every if record_every is not None else cfg.record_every,
            snapshot_times=cfg.snapshot_times,
        )
        return run_simulation(
            _MODELS[cfg.model](), _build_ic(cfg), GridSpec(cfg.n_points), stepper,
            cfg.t_final,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_csv(path: str, header: list[str],
               rows: typing.Iterable[typing.Sequence]) -> None:
    """Write a table as csv.writer would, for cells that need no quoting.

    Each cell is a Python number or a string, written with str (floats
    as repr); None is an empty cell.  Lines end in CRLF.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(
            ",".join("" if cell is None else str(cell) for cell in row) + "\r\n"
            for row in [header, *rows]
        )


def cmd_simulate(cfg: ExperimentConfig) -> int:
    """Run one simulation; write diagnostics, snapshots, blow-up sidecar."""
    rec = _run_once(cfg, cfg.n_steps)
    series = (rec.times, rec.max_amplitude, rec.mass, rec.energy, rec.min_ellipticity)
    _write_csv(cfg.output + ".csv", ["t", "max_amp", "mass", "energy", "min_ellipticity"],
               zip(*(column.tolist() for column in series)))
    for i, (t, fld) in enumerate(rec.snapshots):
        # scalar abs per value: vectorised np.abs differs from it in the last bit
        _write_csv(f"{cfg.output}_snapshot_{i:03d}.csv", ["x", "re_u", "im_u", "abs_u"],
                   zip(fld.grid.nodes.tolist(), fld.values.real.tolist(),
                       fld.values.imag.tolist(), map(abs, fld.values.tolist())))
    if rec.blowup is not None:
        sidecar = {
            "onset_time": rec.blowup.onset_time,
            "trigger": rec.blowup.trigger,
            "blowup_factor": cfg.blowup_factor,
            "t_final_requested": cfg.t_final,
            "tau": cfg.t_final / cfg.n_steps,
            "n_steps": cfg.n_steps,
        }
        with open(cfg.output + "_blowup.json", "w") as fh:
            json.dump(sidecar, fh, indent=2)
        print(
            f"blow-up halt at t = {rec.blowup.onset_time:.6e} "
            f"({rec.blowup.trigger}); diagnostics in {cfg.output}.csv"
        )
        return EXIT_BLOWUP
    print(f"completed t = {cfg.t_final:g}; diagnostics in {cfg.output}.csv")
    return EXIT_OK


def cmd_converge(cfg: ExperimentConfig) -> int:
    """Run a step-count ladder against a fine reference; fit the order."""
    if not cfg.nt_ladder:
        raise ConfigError("converge requires nt_ladder")
    if cfg.reference_n_steps is None:
        raise ConfigError("converge requires reference_n_steps")
    ladder = sorted(cfg.nt_ladder)
    if len(set(ladder)) != len(ladder) or ladder[0] < 1:
        raise ConfigError(f"nt_ladder entries must be distinct positive, got {ladder}")
    if cfg.reference_n_steps <= ladder[-1]:
        raise ConfigError(
            "reference_n_steps must exceed every ladder entry "
            f"({cfg.reference_n_steps} <= {ladder[-1]})"
        )

    results = {
        n: _run_once(cfg, n, record_every=n)
        for n in ladder + [cfg.reference_n_steps]
    }

    reference = results[cfg.reference_n_steps]
    if reference.blew_up:
        print(
            f"reference run (n_steps={cfg.reference_n_steps}) tripped the "
            f"blow-up guard at t = {reference.blowup.onset_time:.6e}; "
            "no convergence table produced",
            file=sys.stderr,
        )
        return EXIT_REFERENCE

    rows = []
    ok_rows = []
    for n in ladder:
        rec = results[n]
        if rec.blew_up:
            rows.append((n, None, None, "unstable"))
            continue
        diff = Field(
            reference.final_field.grid,
            rec.final_field.values - reference.final_field.values,
        )
        err_l2 = l2_norm(diff)
        err_h1 = h1_seminorm(diff)
        rows.append((n, err_l2, err_h1, "ok"))
        ok_rows.append(ConvergenceRow(n, err_l2, err_h1))

    _write_csv(cfg.output + "_table.csv",
               ["n_steps", "err_l2", "err_h1", "status"], rows)

    orders = None
    notice = None
    roundoff_floor = 1e-13
    if ok_rows and all(r.err_l2 < roundoff_floor for r in ok_rows):
        notice = "errors at roundoff level; order fit skipped"
    elif len(ok_rows) >= 3:
        table = ConvergenceTable(cfg.t_final, tuple(ok_rows))
        orders = fit_order(table)
    else:
        notice = f"only {len(ok_rows)} stable rows; order fit needs 3"

    summary = {
        "t_final": cfg.t_final,
        "reference_n_steps": cfg.reference_n_steps,
        "order_l2": None if orders is None else orders[0],
        "order_h1": None if orders is None else orders[1],
        "notice": notice,
        "rows": [
            {"n_steps": n, "err_l2": e2, "err_h1": e1, "status": status}
            for n, e2, e1, status in rows
        ],
        "filters": {
            "mollify_eps": cfg.mollify_eps,
            "krasny_delta": cfg.krasny_delta,
            "dealias": cfg.dealias,
        },
    }
    with open(cfg.output + "_orders.json", "w") as fh:
        json.dump(summary, fh, indent=2)

    if orders is not None:
        print(
            f"fitted orders: L2 {orders[0]:.3f}, H1 {orders[1]:.3f}; "
            f"table in {cfg.output}_table.csv"
        )
    else:
        print(f"{notice}; table in {cfg.output}_table.csv")
    return EXIT_OK


def _growth_multipliers(cfg: ExperimentConfig) -> SplitStepMultipliers:
    """Multipliers on the (amplitude, growth wavenumber) grid, in one call."""
    try:
        w = np.asarray(cfg.amplitude_grid, dtype=np.float64)
        k = np.asarray(cfg.growth_wavenumbers, dtype=np.float64)
    except OverflowError as exc:
        raise ConfigError(f"growth_wavenumbers entry too large: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        growth = split_step_mode_growth(w[:, None], cfg.growth_tau, k[None, :])
    if not (np.isfinite(growth.multiplier_plus).all()
            and np.isfinite(growth.multiplier_minus).all()):
        raise ConfigError(
            "growth multipliers overflow: 2 w^2 or growth_tau k^2 is not finite "
            "for some amplitude_grid and growth_wavenumbers entries"
        )
    return growth


def _write_multipliers_csv(path: str, cfg: ExperimentConfig,
                           growth: SplitStepMultipliers) -> None:
    """The rows csv.writer would write, one buffered write per amplitude.

    Every field is a plain number (floats as repr), so no field needs
    quoting; lines end in CRLF as csv.writer ends them.
    """
    tau = repr(cfg.growth_tau)
    ks = [str(int(k)) for k in cfg.growth_wavenumbers]
    plus, minus = growth.multiplier_plus, growth.multiplier_minus
    rows = zip(cfg.amplitude_grid, plus.real, plus.imag, minus.real, minus.imag,
               growth.growing[:, 0])
    with open(path, "w", newline="") as fh:
        fh.write("w,tau,k,mult_plus_re,mult_plus_im,"
                 "mult_minus_re,mult_minus_im,growing\r\n")
        # growing depends on w alone, so one flag serves a whole row of k
        for w, *parts, growing in rows:
            head = f"{float(w)!r},{tau},"
            tail = f",{int(growing)}\r\n"
            fh.write("".join([
                f"{head}{k},{pr!r},{pi!r},{mr!r},{mi!r}{tail}"
                for k, pr, pi, mr, mi in zip(ks, *(part.tolist() for part in parts))
            ]))


def cmd_stability(cfg: ExperimentConfig) -> int:
    """Scan carrier amplitudes for modewise instability; optional multipliers."""
    if not cfg.amplitude_grid:
        raise ConfigError("stability requires amplitude_grid")
    if cfg.xi_max < 1:
        raise ConfigError(f"xi_max must be >= 1, got {cfg.xi_max}")
    if (cfg.growth_tau is None) != (not cfg.growth_wavenumbers):
        raise ConfigError("growth_tau and growth_wavenumbers must be given together")
    verdicts = stability_threshold_scan(cfg.amplitude_grid, cfg.xi_max)
    # the rate is exact in extended precision; only its float64 value can overflow
    if not all(math.isfinite(v.growth_rate) for v in verdicts):
        raise ConfigError(
            "growth_rate overflows a float for some amplitude_grid entries at xi_max"
        )
    growth = None if cfg.growth_tau is None else _growth_multipliers(cfg)
    _write_csv(cfg.output + "_stability.csv",
               ["amplitude", "unstable", "worst_xi", "growth_rate"],
               [(v.amplitude, int(v.unstable), v.worst_xi, v.growth_rate)
                for v in verdicts])
    if growth is not None:
        _write_multipliers_csv(cfg.output + "_multipliers.csv", cfg, growth)
    n_unstable = sum(v.unstable for v in verdicts)
    print(
        f"{len(verdicts)} amplitudes scanned, {n_unstable} unstable; "
        f"report in {cfg.output}_stability.csv"
    )
    return EXIT_OK


def cmd_planewave_check(cfg: ExperimentConfig) -> int:
    """Measure split-step exactness on a wave train, plus perturbed growth."""
    # mode k + 1 would be relative wavenumber 1, neutral at every amplitude
    for name in ("wavenumber", "perturbation_mode"):
        if getattr(cfg, name) is None:
            raise ConfigError(f"planewave_check requires {name}")
    k, n_steps = cfg.wavenumber, cfg.n_steps
    tau = cfg.t_final / n_steps
    pert = Perturbation(mode=cfg.perturbation_mode, amplitude=cfg.perturbation_amplitude)
    grid = GridSpec(cfg.n_points)
    model = _MODELS[cfg.model]()
    try:
        _, growth = planewave_deviation(
            cfg.amplitude, k, tau, n_steps, grid, model, perturbation=pert
        )
        max_dev, _ = planewave_deviation(cfg.amplitude, k, tau, n_steps, grid, model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # with the seed eps cos((m - k) x) e^{ikx} (L2 norm |eps| sqrt(pi)) 100x
    # above the march's own deviation, roundoff moves the growth reading by
    # about 2% at most
    seed_norm = abs(cfg.perturbation_amplitude) * math.sqrt(math.pi)
    if growth is None or not seed_norm > 100 * max_dev:
        raise ConfigError(
            f"perturbation_amplitude = {cfg.perturbation_amplitude} cannot be "
            f"measured: its L2 norm {seed_norm:.3e} must exceed 100 times the "
            f"unperturbed max deviation {max_dev:.3e}, and its energy must not "
            "underflow to 0"
        )

    report = {
        "amplitude": cfg.amplitude,
        "wavenumber": k,
        "tau": tau,
        "n_steps": n_steps,
        "max_l2_deviation": max_dev,
        "perturbation_mode": cfg.perturbation_mode,
        "perturbation_amplitude": cfg.perturbation_amplitude,
        "perturbation_energy_growth": growth,
    }
    with open(cfg.output + "_planewave.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(
        f"max L2 deviation {max_dev:.3e}; perturbation energy growth "
        f"{growth:.3e}; report in {cfg.output}_planewave.json"
    )
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "converge": cmd_converge,
    "stability": cmd_stability,
    "planewave_check": cmd_planewave_check,
}

def _add_override_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON experiment config")
    for f in dataclasses.fields(ExperimentConfig):
        # lists are comma-separated, booleans true/false (1/0, yes/no, on/off)
        parser.add_argument("--" + f.name.replace("_", "-"), help=f.type)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The JSON config (or the defaults) with the given flags applied."""
    if args.config is not None:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = ExperimentConfig()
    updates = {
        name: _typed(name, getattr(args, name), from_flag=True)
        for name in _FIELD_TYPES if getattr(args, name) is not None
    }
    return dataclasses.replace(cfg, **updates)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qlsplit argument parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="qlsplit",
        description="Split-step solver and stability toolkit for 1D periodic "
        "quasilinear Schrodinger equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command.replace("_", "-"))
        _add_override_args(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _validate(cfg)
        return _COMMANDS[args.command.replace("-", "_")](cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
