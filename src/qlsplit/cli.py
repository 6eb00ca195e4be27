"""Command-line front end: experiment configs, runners, and file writers.

A single flat JSON document configures a run; every field can be
overridden from the command line.  The subcommand selects the experiment
(a config ``experiment`` key is rejected as unknown):

    qlsplit simulate        one run, diagnostics CSV (+ snapshots, blow-up JSON)
    qlsplit converge        step-size ladder vs a fine reference, error table
    qlsplit stability       plane-wave threshold scan, verdict CSV
    qlsplit planewave-check exactness and perturbation growth on a wave train

Input rules come from the config dataclasses and one table per choice:
each value is read by its ``ExperimentConfig`` annotation and every float
must be finite; ``_COMMANDS`` names the fields each subcommand requires
or reads, and every other field must be unset or keep its default (so
stability, the pseudo-attractive closed form, keeps model and n_points,
and planewave-check, on the unfiltered scheme, keeps the filters off).
A run starts from MultiMode(amplitude, wavenumbers) when wavenumbers is
given, else from Gaussian(amplitude, width); planewave-check's carrier k
is the one entry of wavenumbers.  Every stepping run takes tau = t_final
/ n_steps, converge each nt_ladder entry as n_steps, and the stepper
every ``StepperConfig`` field but tau from the config field of its name.
planewave-check's perturbation of mode m seeds the modulus,
(a + eps cos((m - k) x)) e^{ikx}, so m and its partner 2k - m must be
representable, and its L2 norm must exceed 100 times the unperturbed
march's max deviation.

Exit codes: 0 success, 2 configuration error (a ValueError, from the rules
here or from the library on the config's values, or an array too large to
allocate), 3 blow-up guard halt or a non-finite planewave-check march,
4 convergence reference-run failure.  Every command names a non-finite
result itself, so numpy's floating-point warnings are not printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .diagnostics import fit_order
from .model import (
    Gaussian,
    InitialCondition,
    ModelSpec,
    MultiMode,
    Perturbation,
)
from .spectral import GridSpec, h1_seminorm, l2_norm
from .splitting import (
    SimulationRecord,
    StepperConfig,
    planewave_deviation,
    run_simulation,
)
from .stability import split_step_mode_growth, stability_threshold_scan

__all__ = [
    "ExperimentConfig",
    "parse_config",
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one experiment; JSON keys mirror field names.

    The annotations are the only statement of each field's type: flags and
    JSON values are read by them, so they stay within int, float, bool,
    str, ``X | None`` and ``tuple[X, ...]``.
    """

    model: str = "pseudo_attractive"
    n_points: int = 256
    amplitude: float = 0.2
    width: float | None = 0.2
    wavenumbers: tuple[int, ...] | None = None
    perturbation_mode: int | None = None
    perturbation_amplitude: float = 1e-10
    t_final: float = 0.7853981633974483
    n_steps: int = 8000
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
# every StepperConfig field but the step is the config field of that name
_STEPPER_FIELDS = [f.name for f in dataclasses.fields(StepperConfig) if f.name != "tau"]
_FLAG_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _typed(name: str, value: object, from_flag: bool = False) -> object:
    """Read one config value as the ExperimentConfig annotation of ``name`` says.

    A flag value is a string to parse; list fields take comma-separated
    items.  A JSON value must already have the field's type: an integer
    field takes no float and no bool, a float field takes any number, a
    tuple field takes a list, and null is only for ``X | None`` fields,
    whose flags take ``none`` in any case.  Every float, list items
    included, must be finite.
    """
    kind = _FIELD_TYPES[name]
    if type(None) in typing.get_args(kind):
        if value is None or from_flag and value.strip().lower() == "none":
            return None
        kind = typing.get_args(kind)[0]
    if typing.get_origin(kind) is tuple:
        if from_flag:
            value = [item for item in value.split(",") if item != ""]
        elif not isinstance(value, list):
            raise ValueError(f"{name} expects a list, got {value!r}")
        item_kind = typing.get_args(kind)[0]
        return tuple(_typed_scalar(name, item_kind, v, from_flag) for v in value)
    return _typed_scalar(name, kind, value, from_flag)


def _typed_scalar(name: str, kind: type, value: object, from_flag: bool) -> object:
    try:
        if from_flag:
            typed = _FLAG_BOOLS[value.strip().lower()] if kind is bool else kind(value)
        # bool is a subclass of int, so it must be told apart from numbers
        elif isinstance(value, bool) == (kind is bool) and isinstance(
            value, (int, float) if kind is float else kind
        ):
            typed = kind(value)
        else:
            raise ValueError
    except (KeyError, ValueError):
        raise ValueError(f"{name} expects {kind.__name__}, got {value!r}") from None
    except OverflowError:  # a JSON integer beyond float range
        digits = len(str(value))
        raise ValueError(f"{name} must be finite, got an integer of {digits} digits") from None
    if kind is float and not math.isfinite(typed):
        raise ValueError(f"{name} must be finite, got {typed}")
    return typed


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer of too many digits
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    typed = {name: _typed(name, value) for name, value in raw.items()}
    return ExperimentConfig(**typed)


def _validate(cfg: ExperimentConfig) -> None:
    """Single-field rules; each command checks its own cross-field rules."""
    if cfg.model not in _MODELS:
        raise ValueError(f"unknown model {cfg.model!r}; choose from {sorted(_MODELS)}")
    if cfg.t_final <= 0:
        raise ValueError(f"t_final must be finite and positive, got {cfg.t_final}")
    if cfg.n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {cfg.n_steps}")
    if cfg.growth_tau is not None and cfg.growth_tau <= 0:
        raise ValueError(f"growth_tau must be finite and > 0, got {cfg.growth_tau}")
    if cfg.growth_wavenumbers and min(cfg.growth_wavenumbers) < 1:
        raise ValueError(
            f"growth_wavenumbers entries must be >= 1, got {cfg.growth_wavenumbers}"
        )
    out_dir = os.path.dirname(os.path.abspath(cfg.output))
    if not os.path.isdir(out_dir) or not os.access(out_dir, os.W_OK):
        raise ValueError(f"output directory {out_dir!r} is not writable")


def _build_ic(cfg: ExperimentConfig) -> InitialCondition:
    if cfg.wavenumbers is None and cfg.width is None:
        raise ValueError("a run's start requires width, or wavenumbers for a multi-mode start")
    pert = None
    if cfg.perturbation_mode is not None:
        pert = Perturbation(cfg.perturbation_mode, cfg.perturbation_amplitude)
    elif cfg.perturbation_amplitude != _DEFAULTS.perturbation_amplitude:
        raise ValueError("perturbation_amplitude requires perturbation_mode")
    if cfg.wavenumbers is None:
        return Gaussian(cfg.amplitude, cfg.width, perturbation=pert)
    return MultiMode(cfg.amplitude, cfg.wavenumbers, perturbation=pert)


def _run_once(cfg: ExperimentConfig, n_steps: int) -> SimulationRecord:
    """One run of the configured experiment in n_steps steps over t_final."""
    stepper = StepperConfig(
        tau=cfg.t_final / n_steps,
        **{name: getattr(cfg, name) for name in _STEPPER_FIELDS},
    )
    return run_simulation(
        _MODELS[cfg.model](), _build_ic(cfg), GridSpec(cfg.n_points), stepper,
        cfg.t_final,
    )


def _write_csv(path: str, header: list[str], columns: list[list[str]]) -> None:
    """Write a table of equal-length columns of cells as csv.writer would.

    Each cell is a string that needs no quoting (floats as repr, an empty
    cell as ""); lines end in CRLF.  One join and one write per table.
    """
    lines = [",".join(header), *map(",".join, zip(*columns, strict=True)), ""]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


def _write_json(path: str, document: dict) -> None:
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2)


def cmd_simulate(cfg: ExperimentConfig) -> int:
    """Run one simulation; write diagnostics, snapshots, blow-up sidecar."""
    rec = _run_once(cfg, cfg.n_steps)
    series = (rec.times, rec.max_amplitude, rec.mass, rec.energy, rec.min_ellipticity)
    _write_csv(cfg.output + ".csv", ["t", "max_amp", "mass", "energy", "min_ellipticity"],
               [list(map(repr, column.tolist())) for column in series])
    x = GridSpec(cfg.n_points).nodes.tolist() if rec.snapshots else []  # read by snapshots only
    for i, (t, u) in enumerate(rec.snapshots):
        # scalar abs per value: vectorised np.abs differs from it in the last bit
        _write_csv(f"{cfg.output}_snapshot_{i:03d}.csv", ["x", "re_u", "im_u", "abs_u"],
                   [list(map(repr, column)) for column in (
                       x, u.real.tolist(), u.imag.tolist(), map(abs, u.tolist()))])
    if rec.blowup is not None:
        _write_json(cfg.output + "_blowup.json", {
            "onset_time": rec.blowup.onset_time,
            "trigger": rec.blowup.trigger,
            "blowup_factor": cfg.blowup_factor,
            "t_final_requested": cfg.t_final,
            "tau": cfg.t_final / cfg.n_steps,
            "n_steps": cfg.n_steps,
        })
        print(
            f"blow-up halt at t = {rec.blowup.onset_time:.6e} "
            f"({rec.blowup.trigger}); diagnostics in {cfg.output}.csv"
        )
        return EXIT_BLOWUP
    print(f"completed t = {cfg.t_final:g}; diagnostics in {cfg.output}.csv")
    return EXIT_OK


def cmd_converge(cfg: ExperimentConfig) -> int:
    """Run a step-count ladder against a fine reference; fit the order."""
    ladder = sorted(cfg.nt_ladder)
    if len(set(ladder)) != len(ladder) or ladder[0] < 1:
        raise ValueError(f"nt_ladder entries must be distinct positive, got {ladder}")
    if cfg.reference_n_steps <= ladder[-1]:
        raise ValueError(
            "reference_n_steps must exceed every ladder entry "
            f"({cfg.reference_n_steps} <= {ladder[-1]})"
        )

    def run(n: int) -> SimulationRecord:
        return _run_once(dataclasses.replace(cfg, record_every=n), n)

    reference = run(cfg.reference_n_steps)
    if reference.blew_up:
        print(
            f"reference run (n_steps={cfg.reference_n_steps}) tripped the "
            f"blow-up guard at t = {reference.blowup.onset_time:.6e}; "
            "no convergence table produced",
            file=sys.stderr,
        )
        return EXIT_REFERENCE

    rows = []
    for n in ladder:
        rec = run(n)
        if rec.blew_up:
            rows.append((n, None, None, "unstable"))
            continue
        diff = rec.final_field - reference.final_field
        rows.append((n, l2_norm(diff), h1_seminorm(diff), "ok"))

    _write_csv(cfg.output + "_table.csv", ["n_steps", "err_l2", "err_h1", "status"],
               [["" if cell is None else str(cell) for cell in column]
                for column in zip(*rows)])

    ok = np.array([row[:3] for row in rows if row[3] == "ok"], dtype=float).reshape(-1, 3)
    n_ok, err_l2, err_h1 = ok.T
    orders = None
    notice = None
    roundoff_floor = 1e-13
    # a difference constant in x has an H1 seminorm of exactly 0 while its L2
    # norm is roundoff above the floor; a zero error has no logarithm to fit
    if len(ok) and ((err_l2 < roundoff_floor).all() or 0.0 in ok[:, 1:]):
        notice = "errors at roundoff level; order fit skipped"
    elif len(ok) >= 3:
        orders = fit_order(cfg.t_final / n_ok, err_l2, err_h1)
    else:
        notice = f"only {len(ok)} stable rows; order fit needs 3"

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
        "filters": {name: getattr(cfg, name)
                    for name in ("mollify_eps", "krasny_delta", "dealias")},
    }
    _write_json(cfg.output + "_orders.json", summary)

    if orders is not None:
        print(
            f"fitted orders: L2 {orders[0]:.3f}, H1 {orders[1]:.3f}; "
            f"table in {cfg.output}_table.csv"
        )
    else:
        print(f"{notice}; table in {cfg.output}_table.csv")
    return EXIT_OK


def _growth_multipliers(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """(plus, minus) on the (amplitude, growth wavenumber) grid, in one call."""
    try:
        w = np.asarray(cfg.amplitude_grid, dtype=np.float64)
        k = np.asarray(cfg.growth_wavenumbers, dtype=np.float64)
    except OverflowError as exc:
        raise ValueError(f"growth_wavenumbers entry too large: {exc}") from exc
    growth = split_step_mode_growth(w[:, None], cfg.growth_tau, k[None, :])
    if not np.isfinite(growth).all():
        raise ValueError(
            "growth multipliers overflow: 2 w^2 or growth_tau k^2 is not finite "
            "for some amplitude_grid and growth_wavenumbers entries"
        )
    return growth


def cmd_stability(cfg: ExperimentConfig) -> int:
    """Scan carrier amplitudes for modewise instability; optional multipliers."""
    if (cfg.growth_tau is None) != (not cfg.growth_wavenumbers):
        raise ValueError("growth_tau and growth_wavenumbers must be given together")
    # the rate is exact in extended precision; only its float64 value can overflow
    unstable, growth_rate = stability_threshold_scan(cfg.amplitude_grid, cfg.xi_max)
    if not np.isfinite(growth_rate).all():
        raise ValueError(
            "growth_rate overflows a float for some amplitude_grid entries at xi_max"
        )
    growth = None if cfg.growth_tau is None else _growth_multipliers(cfg)
    amplitudes = list(map(repr, cfg.amplitude_grid))
    flags = unstable.tolist()
    _write_csv(cfg.output + "_stability.csv",
               ["amplitude", "unstable", "worst_xi", "growth_rate"],
               [amplitudes, [str(int(u)) for u in flags],
                [str(cfg.xi_max) if u else "" for u in flags],
                list(map(repr, growth_rate.tolist()))])
    if growth is not None:
        ks = [str(int(k)) for k in cfg.growth_wavenumbers]
        # one row per (w, k), k fastest; growing, split_step_mode_growth's
        # radicand > 0, is one flag per w like w itself
        ws, growing = ([cell for cell in column for _ in ks] for column in (
            amplitudes, [str(int(2.0 * w * w - 1.0 > 0)) for w in cfg.amplitude_grid]))
        _write_csv(cfg.output + "_multipliers.csv",
                   ["w", "tau", "k", "mult_plus_re", "mult_plus_im",
                    "mult_minus_re", "mult_minus_im", "growing"],
                   [ws, [repr(cfg.growth_tau)] * len(ws), ks * len(amplitudes),
                    *(list(map(repr, part.ravel().tolist()))
                      for half in growth for part in (half.real, half.imag)),
                    growing])
    print(
        f"{len(unstable)} amplitudes scanned, {unstable.sum()} unstable; "
        f"report in {cfg.output}_stability.csv"
    )
    return EXIT_OK


def cmd_planewave_check(cfg: ExperimentConfig) -> int:
    """Measure split-step exactness on a wave train, plus perturbed growth."""
    if len(cfg.wavenumbers) != 1:
        raise ValueError("planewave_check takes its carrier from wavenumbers, which "
                         f"must have exactly one entry, got {list(cfg.wavenumbers)}")
    (k,), n_steps = cfg.wavenumbers, cfg.n_steps
    tau = cfg.t_final / n_steps
    pert = Perturbation(mode=cfg.perturbation_mode, amplitude=cfg.perturbation_amplitude)
    grid = GridSpec(cfg.n_points)
    model = _MODELS[cfg.model]()
    pert_dev, growth = planewave_deviation(cfg.amplitude, k, tau, n_steps, grid, model, pert)
    max_dev, _ = planewave_deviation(cfg.amplitude, k, tau, n_steps, grid, model)
    for march, dev in (("unperturbed", max_dev), ("perturbed", pert_dev)):
        if dev == math.inf:
            print(f"the {march} march turned non-finite; no growth to report")
            return EXIT_BLOWUP
    # with the seed eps cos((m - k) x) e^{ikx} (L2 norm |eps| sqrt(pi)) 100x
    # above the march's own deviation, roundoff moves the growth reading by
    # about 2% at most
    seed_norm = abs(cfg.perturbation_amplitude) * math.sqrt(math.pi)
    if growth is None or not seed_norm > 100 * max_dev:
        carrier_norm = abs(cfg.amplitude) * math.sqrt(2 * math.pi)
        share = max_dev / carrier_norm if carrier_norm > 0 else 0.0
        raise ValueError(
            f"perturbation_amplitude = {cfg.perturbation_amplitude} cannot be "
            f"measured: its L2 norm {seed_norm:.3e} must exceed 100 times the "
            f"unperturbed max deviation {max_dev:.3e}, and its energy must not "
            "underflow to 0; the unperturbed wave train deviates by "
            f"{share:.2g} of its own L2 norm a sqrt(2 pi)"
        )

    _write_json(cfg.output + "_planewave.json", {
        "amplitude": cfg.amplitude,
        "wavenumber": k,
        "tau": tau,
        "n_steps": n_steps,
        "max_l2_deviation": max_dev,
        "perturbation_mode": cfg.perturbation_mode,
        "perturbation_amplitude": cfg.perturbation_amplitude,
        "perturbation_energy_growth": growth,
    })
    print(
        f"max L2 deviation {max_dev:.3e}; perturbation energy growth "
        f"{growth:.3e}; report in {cfg.output}_planewave.json"
    )
    return EXIT_OK


# subcommand -> (runner, the fields it requires, the other fields it reads);
# every other field, and width beside wavenumbers, must be unset or at its default.
# converge sets n_steps and record_every per run and writes no snapshots.  A
# default perturbation_mode k + 1 would be neutral at every amplitude.
_RUN = ("model", "n_points", "amplitude", "width", "wavenumbers", "perturbation_mode",
        "perturbation_amplitude", "t_final", *_STEPPER_FIELDS, "output")
_COMMANDS = {
    "simulate": (cmd_simulate, (), ("n_steps", *_RUN)),
    "converge": (cmd_converge, ("nt_ladder", "reference_n_steps"), tuple(
        name for name in _RUN if name not in ("record_every", "snapshot_times"))),
    "stability": (cmd_stability, ("amplitude_grid",),
                  ("xi_max", "growth_tau", "growth_wavenumbers", "output")),
    "planewave_check": (cmd_planewave_check, ("wavenumbers", "perturbation_mode"), (
        "model", "n_points", "amplitude", "perturbation_amplitude", "t_final",
        "n_steps", "output")),
}
_DEFAULTS = ExperimentConfig()


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The JSON config (or the defaults) with the given flags applied."""
    if args.config is not None:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = _DEFAULTS
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
        p = sub.add_parser(command.replace("_", "-"), allow_abbrev=False)  # no prefixes
        p._negative_number_matcher = re.compile(r"-\.?\d")  # -2e-1, -1e-3,0.5: values too
        p.add_argument("--config", help="path to a JSON experiment config")
        for f in dataclasses.fields(ExperimentConfig):
            # lists are comma-separated, booleans true/false (1/0, yes/no, on/off)
            p.add_argument("--" + f.name.replace("_", "-"), help=f.type)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _validate(cfg)
        command = args.command.replace("-", "_")
        run, required, reads = _COMMANDS[command]
        for name in required:
            if getattr(cfg, name) in (None, ()):  # an empty list is none
                raise ValueError(f"{command} requires {name}")
        if cfg.wavenumbers is not None:  # a multi-mode start reads no width
            reads = tuple(name for name in reads if name != "width")
        changed = [name for name in _FIELD_TYPES if name not in required + reads
                   and getattr(cfg, name) not in (None, getattr(_DEFAULTS, name))]
        if changed:
            raise ValueError(f"{command} does not read {', '.join(changed)}; unset them")
        # each command reports a non-finite result itself; numpy would only warn first
        with np.errstate(over="ignore", invalid="ignore"):
            return run(cfg)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
