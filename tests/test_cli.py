"""CLI configs, subcommands, file formats, and exit codes."""

import csv
import dataclasses
import json
import shlex
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from qlsplit.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REFERENCE,
    ExperimentConfig,
    _COMMANDS,
    _build_ic,
    _config_from_args,
    build_parser,
    main,
    parse_config,
)
from qlsplit.model import Gaussian, InitialCondition, ModelSpec, MultiMode
from qlsplit.spectral import GridSpec, h1_seminorm, l2_norm
from qlsplit.splitting import StepperConfig, run_simulation
from qlsplit.stability import gn_eigenvalues


POPULATED = ExperimentConfig(
    model="thin_film",
    n_points=512,
    amplitude=0.65,
    wavenumbers=(2, 8),
    t_final=0.15,
    n_steps=20000,
    krasny_delta=1e-3,
    mollify_eps=0.05,
    dealias=True,
    blowup_factor=2.0,
    energy_guard_factor=10.0,
    snapshot_times=(0.0, 0.05),
    nt_ladder=(100, 200, 400),
    reference_n_steps=3200,
    amplitude_grid=(0.5, 0.9),
    output="out/run",
)


def config_from_argv(argv: list[str]) -> ExperimentConfig:
    return _config_from_args(build_parser().parse_args(argv))


def to_json(cfg: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg))


def write_config(tmp_path, cfg: ExperimentConfig) -> str:
    path = tmp_path / "config.json"
    path.write_text(to_json(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigRoundTrip:
    def test_default_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config(to_json(cfg)) == cfg

    def test_populated_round_trip(self):
        assert parse_config(to_json(POPULATED)) == POPULATED

    def test_flags_give_the_json_config(self, tmp_path):
        argv = ["converge"]
        for f in dataclasses.fields(POPULATED):
            value = getattr(POPULATED, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            argv += ["--" + f.name.replace("_", "-"), str(value)]
        from_json = config_from_argv(
            ["converge", "--config", write_config(tmp_path, POPULATED)]
        )
        assert config_from_argv(argv) == from_json == POPULATED

    @pytest.mark.parametrize("flag, text, expected", [
        ("--amplitude", ".5", 0.5),
        ("--n-steps", "20", 20),
        ("--nt-ladder", "10,20,", (10, 20)),
        ("--snapshot-times", "0,.5,", (0.0, 0.5)),
        *[("--dealias", word, True) for word in ("1", "true", "YES", "on")],
        *[("--dealias", word, False) for word in ("0", "False", "no", "off")],
        *[("--mollify-eps", word, None) for word in ("none", "None", "NONE")],
        ("--width", "none", None),
        # argparse took a negative number in exponent form for an option
        ("--amplitude", "-2e-1", -0.2),
        ("--perturbation-amplitude", "-1e-6", -1e-6),
    ])
    def test_flag_spellings(self, flag, text, expected):
        cfg = config_from_argv(["simulate", flag, text])
        assert getattr(cfg, flag[2:].replace("-", "_")) == expected

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_config('{"no_such_field": 1}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError):
            parse_config("{not json")


class TestValidation:
    def test_neither_tau_nor_n_steps(self, tmp_path):
        # tau is no field; n_steps, the only step, must be an integer >= 1
        for command in ("simulate", "converge", "stability", "planewave-check"):
            for text in ('{"n_steps": 0}', '{"n_steps": null}'):
                path = tmp_path / "config.json"
                path.write_text(text)
                argv = [command, "--config", str(path), "--output", str(tmp_path / "r")]
                assert main(argv) == EXIT_CONFIG
        assert not list(tmp_path.glob("r*"))

    def test_tau_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--tau", "1e-3"])
        assert exc.value.code == EXIT_CONFIG
        assert "--tau" in capsys.readouterr().err

    def test_unknown_model(self, tmp_path):
        cfg = ExperimentConfig(model="unknown", output=str(tmp_path / "r"))
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("source", ["flag", "json"])
    def test_plane_wave_ic_kind_is_unknown(self, tmp_path, capsys, source):
        # a plane wave is the multi-mode start of one wavenumber, and the start
        # is inferred from the shape field: no ic_kind spells it
        if source == "flag":
            with pytest.raises(SystemExit) as exc:
                main(["simulate", *SMALL_RUN, "--ic-kind", "plane_wave",
                      "--output", str(tmp_path / "r")])
            assert exc.value.code == EXIT_CONFIG
            assert "unrecognized arguments: --ic-kind plane_wave" in capsys.readouterr().err
        else:
            path = tmp_path / "config.json"
            path.write_text('{"ic_kind": "plane_wave", "wavenumbers": [1]}')
            argv = ["simulate", *SMALL_RUN, "--config", str(path)]
            assert main([*argv, "--output", str(tmp_path / "r")]) == EXIT_CONFIG
            assert "unknown config keys: ['ic_kind']" in capsys.readouterr().err
        assert not list(tmp_path.glob("r*"))

    @pytest.mark.parametrize("command, name, value", [
        ("converge", "ic_kind", "multi_mode"), ("planewave-check", "wavenumber", 1),
    ])
    def test_inferred_fields_are_unknown(self, tmp_path, capsys, command, name, value):
        # the start's class and the carrier come from wavenumbers; neither old
        # spelling is a flag or a config key, and no flag may be abbreviated
        flag = "--" + name.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main([command, flag, str(value), "--output", str(tmp_path / "r")])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        path = tmp_path / "config.json"
        path.write_text(json.dumps({name: value}))
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert f"unknown config keys: ['{name}']" in capsys.readouterr().err
        assert not list(tmp_path.glob("r*"))

    def test_one_shape_field_per_initial_condition_class(self):
        # wavenumbers shapes a MultiMode start, width (when wavenumbers is
        # unset) a Gaussian one: each class is reached from one field only
        shapes = {"width": ["--width", "0.5"],
                  "wavenumbers": ["--wavenumbers", "1,2", "--width", "none"]}
        starts = {shape: _build_ic(config_from_argv(["simulate", "--amplitude", "0.3", *argv]))
                  for shape, argv in shapes.items()}
        assert starts == {"width": Gaussian(0.3, 0.5), "wavenumbers": MultiMode(0.3, (1, 2))}
        classes = [type(start) for start in starts.values()]
        assert len(set(classes)) == len(classes)
        assert set(classes) == set(typing.get_args(InitialCondition))
        # the width default does not hide a multi-mode start
        assert _build_ic(config_from_argv(["simulate", "--wavenumbers", "3"])) == MultiMode(
            0.2, (3,))

    def test_unwritable_output(self, tmp_path):
        cfg = ExperimentConfig(output="/no/such/dir/run")
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_CONFIG

    def test_missing_config_file(self):
        rc = main(["simulate", "--config", "/no/such/config.json"])
        assert rc == EXIT_CONFIG

    def test_unallocatable_size_is_config_error(self, tmp_path, capsys, monkeypatch):
        # numpy raises a MemoryError when the host refuses an array; a real
        # 1e12-point allocation may be OOM-killed instead on a host that
        # overcommits, so the run raises numpy's message without allocating
        def refuse(*args):
            raise MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                              "(1000000000000,) and data type complex128")

        monkeypatch.setattr("qlsplit.cli.run_simulation", refuse)
        rc = main(["simulate", "--n-points", "1000000000000", "--n-steps", "1",
                   "--t-final", "0.001", "--output", str(tmp_path / "big")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: Unable to allocate 14.6 TiB")
        assert not list(tmp_path.glob("big*"))

    def test_stepper_fields_are_config_fields(self):
        # the CLI passes each of them to StepperConfig by name
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        for f in dataclasses.fields(StepperConfig):
            if f.name != "tau":
                assert defaults[f.name] == f.default, f.name


HINTS = typing.get_type_hints(ExperimentConfig)
FLOAT_FIELDS = [name for name, kind in HINTS.items() if kind in (float, float | None)]
FLOAT_LIST_FIELDS = [name for name, kind in HINTS.items()
                     if kind in (tuple[float, ...], tuple[float, ...] | None)]


@pytest.mark.parametrize("source, text", [
    pytest.param("flag", "nan", id="flag-nan"),
    pytest.param("flag", "inf", id="flag-inf"),
    pytest.param("flag", "-inf", id="flag-minus-inf"),
    pytest.param("json", "NaN", id="json-nan"),
    pytest.param("json", "Infinity", id="json-infinity"),
    pytest.param("json", "1" + "0" * 400, id="json-int-beyond-float"),
])
@pytest.mark.parametrize("name", FLOAT_FIELDS + FLOAT_LIST_FIELDS)
def test_non_finite_float_is_config_error(tmp_path, capsys, name, source, text):
    # a stability run that the bad value alone stops
    flag = source == "flag"
    values = {"amplitude_grid": "0.5" if flag else "[0.5]",
              name: text if flag or name in FLOAT_FIELDS else f"[{text}]"}
    argv = ["stability", "--output", str(tmp_path / "r")]
    if flag:
        argv += [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    else:
        path = tmp_path / "config.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in values.items()) + "}")
        argv += ["--config", str(path)]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("r*"))


SMALL_RUN = ["--n-points", "64", "--n-steps", "10", "--t-final", "0.01"]
LADDER = ["--nt-ladder", "10,20", "--reference-n-steps", "80", "--t-final", "0.01"]
GROWTH = ["stability", "--amplitude-grid", "0.5,0.9", "--growth-tau", "1e-4",
          "--growth-wavenumbers", "1,2"]
PLANE_WAVE_NO_MODE = ["planewave-check", "--wavenumbers", "1", "--n-points", "64",
                      "--n-steps", "10", "--t-final", "0.01"]
PLANE_WAVE = [*PLANE_WAVE_NO_MODE, "--perturbation-mode", "2"]
# the unperturbed march deviates by 1.9e-14 here; its roundoff swamps smaller seeds
PLANE_WAVE_200 = [*PLANE_WAVE, "--n-steps", "200", "--t-final", "0.2"]


@pytest.mark.parametrize("argv, config", [
    pytest.param(["converge", "--nt-ladder", "10,x", "--reference-n-steps", "80"],
                 None, id="flag-int-list-junk"),
    pytest.param(["simulate", "--snapshot-times", "0.1,abc"], None,
                 id="flag-float-list-junk"),
    pytest.param(["simulate", "--n-points", "7"], None, id="simulate-odd-n-points"),
    pytest.param(["converge", "--n-points", "7", *LADDER], None,
                 id="converge-odd-n-points"),
    # stability does not read n_points, so an odd one is named as unread
    pytest.param(["stability", "--amplitude-grid", "0.5", "--n-points", "7"], None,
                 id="stability-odd-n-points"),
    *[pytest.param(["converge", "--n-points", "64", *LADDER, "--nt-ladder", ladder], None,
                   id=f"converge-nt-ladder-{ladder}") for ladder in ("10,10", "0,10")],
    pytest.param(["simulate", *SMALL_RUN], '{"ic_kind": "sech"}', id="unknown-ic-kind"),
    # an empty list is given, and a MultiMode needs at least one wavenumber
    pytest.param(["simulate", *SMALL_RUN, "--wavenumbers", ""], None,
                 id="multi-mode-without-wavenumbers"),
    pytest.param(["simulate", *SMALL_RUN, "--width", "none"], None,
                 id="simulate-without-shape-field"),
    *[pytest.param(["simulate", "--n-points", str(n)], None, id=f"simulate-n-points-{n}")
      for n in (2**63, 2**63 - 2)],
    # a perturbation amplitude without a mode used to be dropped silently
    pytest.param(["simulate", *SMALL_RUN, "--perturbation-amplitude", "0.5"], None,
                 id="simulate-perturbation-amplitude-without-mode"),
    pytest.param(["converge", "--n-points", "64", *LADDER, "--perturbation-amplitude", "0.5"],
                 None, id="converge-perturbation-amplitude-without-mode"),
    pytest.param(["stability", "--amplitude-grid", "0.5,-1"], None,
                 id="negative-amplitude"),
    pytest.param(["stability", "--amplitude-grid", "nan,0.9"], None,
                 id="nan-amplitude"),
    pytest.param(["stability", "--amplitude-grid", "inf,0.9"], None,
                 id="inf-amplitude"),
    pytest.param([*GROWTH, "--growth-tau=-1"], None, id="negative-growth-tau"),
    pytest.param([*GROWTH, "--growth-tau", "0"], None, id="zero-growth-tau"),
    pytest.param([*GROWTH, "--growth-wavenumbers", "0,1"], None,
                 id="zero-growth-wavenumber"),
    pytest.param(["stability", "--amplitude-grid", "0.5", "--growth-tau", "1e-4"],
                 None, id="growth-tau-alone"),
    pytest.param(["stability", "--amplitude-grid", "0.5", "--growth-wavenumbers", "1"],
                 None, id="growth-wavenumbers-alone"),
    pytest.param(["stability", "--amplitude-grid", "0.5,1e200", "--growth-tau", "1e-4",
                  "--growth-wavenumbers", "1,2"], None, id="growth-amplitude-overflow"),
    pytest.param(["stability", "--amplitude-grid", "0.5", "--growth-tau", "1e300",
                  "--growth-wavenumbers", "1000000"], None, id="growth-tau-k2-overflow"),
    pytest.param([*GROWTH, "--growth-wavenumbers", "1" + "0" * 160], None,
                 id="growth-wavenumber-square-overflow"),
    pytest.param([*GROWTH, "--growth-wavenumbers", "1" + "0" * 400], None,
                 id="growth-wavenumber-beyond-float"),
    pytest.param(["stability", "--amplitude-grid", "0.5,1e306", "--xi-max", "1024"],
                 None, id="scan-growth-rate-overflow"),
    # xi_max is finite in long double and its square is not
    *[pytest.param(["stability", "--amplitude-grid", "0.5,0.9", "--xi-max",
                    "1" + "0" * zeros], None, id=f"scan-xi-max-square-overflow-{zeros}")
      for zeros in (2470, 3000)],
    pytest.param(PLANE_WAVE_NO_MODE, None, id="planewave-no-perturbation-mode"),
    pytest.param([*PLANE_WAVE, "--wavenumbers", "40"], None,
                 id="planewave-unrepresentable-wavenumber"),
    # m = k seeds the carrier's own amplitude, no sideband
    pytest.param([*PLANE_WAVE, "--perturbation-mode", "1",
                  "--perturbation-amplitude", "1e-6"], None,
                 id="planewave-perturbation-mode-is-carrier"),
    # the modulus seed also excites 2k - m = 32, which N = 64 cannot hold
    pytest.param([*PLANE_WAVE, "--perturbation-mode", "-30"], None,
                 id="planewave-unrepresentable-partner-mode"),
    pytest.param(["simulate", *SMALL_RUN, "--blowup-factor", "nan"], None,
                 id="nan-blowup-factor"),
    pytest.param(["simulate", *SMALL_RUN, "--energy-guard-factor", "nan"], None,
                 id="nan-energy-guard-factor"),
    pytest.param(["simulate", *SMALL_RUN, "--mollify-eps", "nan"], None,
                 id="nan-mollify-eps"),
    pytest.param(["simulate", "--n-steps", "10", "--t-final", "inf"], None,
                 id="simulate-inf-t-final"),
    pytest.param(["simulate", "--n-steps", "10", "--t-final", "-1"], None,
                 id="simulate-negative-t-final"),
    pytest.param(["simulate", "--n-steps", "10", "--t-final", "nan"], None,
                 id="simulate-nan-t-final"),
    pytest.param([*PLANE_WAVE, "--t-final", "inf"], None, id="planewave-inf-t-final"),
    pytest.param([*PLANE_WAVE, "--amplitude", "nan"], None,
                 id="planewave-nan-amplitude"),
    # (k^2 + f(a^2)) t is inf * 0 at t = 0: the exact wave train has no phase
    pytest.param([*PLANE_WAVE, "--amplitude", "1e200"], None,
                 id="planewave-carrier-phase-overflow"),
    pytest.param([*PLANE_WAVE, "--perturbation-amplitude", "nan"], None,
                 id="planewave-nan-perturbation-amplitude"),
    pytest.param([*PLANE_WAVE, "--perturbation-amplitude", "0"], None,
                 id="planewave-zero-perturbation-amplitude"),
    *[pytest.param([*PLANE_WAVE, "--perturbation-amplitude", amp], None,
                   id=f"planewave-unmeasurable-perturbation-{amp}")
      for amp in ("1e-200", "1e-170")],
    *[pytest.param([*PLANE_WAVE_200, "--perturbation-amplitude", amp], None,
                   id=f"planewave-perturbation-below-roundoff-{amp}")
      for amp in ("1e-14", "1e-16")],
    pytest.param(["simulate", *SMALL_RUN, "--width", "inf"], None,
                 id="simulate-inf-width"),
    # 2 width^2 overflows, or underflows to 0 and samples 0/0 at x = 0
    pytest.param(["simulate", *SMALL_RUN, "--width", "1e200"], None,
                 id="simulate-width-square-overflows"),
    pytest.param(["simulate", *SMALL_RUN, "--width", "1e-300"], None,
                 id="simulate-width-square-underflows"),
    pytest.param(["simulate", *SMALL_RUN], '{"dealias": "false"}', id="json-bool-string"),
    pytest.param(["simulate", *SMALL_RUN], '{"record_every": 2.5}', id="json-int-float"),
    pytest.param(["simulate"], '{"n_points": 64.0}', id="json-n-points-float"),
    pytest.param(["converge", "--reference-n-steps", "80"], '{"nt_ladder": 5}',
                 id="json-list-field-scalar"),
    pytest.param(["simulate", *SMALL_RUN], "[1]", id="json-not-an-object"),
    pytest.param(["simulate", *SMALL_RUN], '{"record_every": true}', id="json-int-bool"),
    pytest.param(["simulate", *SMALL_RUN], '{"amplitude": "0.3"}',
                 id="json-float-string"),
    pytest.param(["simulate", *SMALL_RUN], '{"experiment": "converge"}',
                 id="json-experiment-key"),
    pytest.param(["simulate", *SMALL_RUN], '{"tau": 0.001}', id="json-tau-key"),
    pytest.param(["simulate", *SMALL_RUN], '{"n_points": 1' + "0" * 5000 + "}",
                 id="json-int-beyond-digit-limit"),
    pytest.param(["planewave-check", "--n-points", "64", "--amplitude", "0.5",
                  "--wavenumbers", "1", "--n-steps", "100", "--t-final", "0.1",
                  "--perturbation-mode", "2", "--width", "0.5",
                  "--snapshot-times", "0.05", "--blowup-factor", "1.01"], None,
                 id="planewave-unread-fields"),
    pytest.param(["simulate", "--n-points", "64",
                  "--wavenumbers", "1,2", "--width", "0.5", "--amplitude", "0.1",
                  "--n-steps", "10", "--t-final", "0.01"], None,
                 id="simulate-unread-shape-field"),
    pytest.param(["converge", "--n-points", "64",
                  "--wavenumbers", "1,2", "--width", "0.5", "--amplitude", "0.1",
                  *LADDER], None,
                 id="converge-unread-shape-field"),
    # wavenumber is no config key; a Gaussian start's carrier was never read
    pytest.param(["simulate", *SMALL_RUN], '{"wavenumber": 3}',
                 id="gaussian-unread-wavenumber"),
    # none unsets only X | None fields
    pytest.param(["simulate", *SMALL_RUN, "--amplitude", "none"], None,
                 id="amplitude-none"),
    # fields the subcommand does not read must be unset or at their defaults
    pytest.param(["stability", "--amplitude-grid", "0.8", "--model", "cubic"], None,
                 id="stability-unread-model"),
    pytest.param(["stability", "--amplitude-grid", "0.8", "--n-points", "64",
                  "--mollify-eps", "0.1"], None, id="stability-unread-grid-and-filter"),
    pytest.param(["simulate", *SMALL_RUN, "--nt-ladder", "10,20"], None,
                 id="simulate-unread-nt-ladder"),
    pytest.param(["converge", "--n-points", "64", *LADDER, "--snapshot-times", "0.005"],
                 None, id="converge-unread-snapshot-times"),
    pytest.param(["converge", "--n-points", "64", *LADDER, "--n-steps", "7"], None,
                 id="converge-unread-n-steps"),
    pytest.param(["converge", "--n-points", "64", *LADDER, "--record-every", "3"], None,
                 id="converge-unread-record-every"),
    pytest.param([*PLANE_WAVE, "--amplitude-grid", "0.1"], None,
                 id="planewave-unread-amplitude-grid"),
])
def test_malformed_input_is_config_error(tmp_path, capsys, argv, config):
    argv = argv + ["--output", str(tmp_path / "r")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
        argv += ["--config", str(path)]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("r*"))


def test_negative_exponent_list_item_reaches_the_library(tmp_path, capsys):
    # argparse took -1e-3,0.5 for an option and exited with its own usage message
    argv = ["stability", "--amplitude-grid", "-1e-3,0.5", "--output", str(tmp_path / "r")]
    assert main(argv) == EXIT_CONFIG
    assert "carrier amplitude must be finite and >= 0" in capsys.readouterr().err


def test_command_table_covers_every_field():
    # a field that no subcommand reads, or a misspelt name, fails here
    fields = set(HINTS)
    named = set()
    for command, (_, required, reads) in _COMMANDS.items():
        assert set(required) | set(reads) <= fields, command
        named |= set(required) | set(reads)
    assert named == fields


class TestSimulate:
    def test_zero_amplitude_smoke(self, tmp_path):
        out = str(tmp_path / "zero")
        cfg = ExperimentConfig(
            amplitude=0.0, n_points=64, n_steps=50, t_final=0.05,
            record_every=10, output=out,
        )
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_OK
        rows = read_csv(out + ".csv")
        assert rows[0] == ["t", "max_amp", "mass", "energy", "min_ellipticity"]
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows[1:])

    def test_snapshot_files(self, tmp_path):
        out = str(tmp_path / "snap")
        cfg = ExperimentConfig(
            n_points=64, amplitude=0.2, width=0.5, n_steps=40, t_final=0.04,
            snapshot_times=(0.0, 0.02), output=out,
        )
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_OK
        stepper = StepperConfig(tau=cfg.t_final / cfg.n_steps,
                                snapshot_times=cfg.snapshot_times)
        rec = run_simulation(ModelSpec.pseudo_attractive(), Gaussian(0.2, 0.5),
                             GridSpec(64), stepper, cfg.t_final)
        assert len(rec.snapshots) == 2
        for i, (_, state) in enumerate(rec.snapshots):
            rows = read_csv(f"{out}_snapshot_{i:03d}.csv")
            assert rows[0] == ["x", "re_u", "im_u", "abs_u"]
            assert len(rows) == 65
            cells = [[float(cell) for cell in row] for row in rows[1:]]
            assert cells == [
                [x, u.real, u.imag, abs(u)]
                for x, u in zip(GridSpec(64).nodes.tolist(), state.tolist())
            ]
        assert cells[0][0] == pytest.approx(-np.pi)

    def test_blowup_exit_code_and_sidecar(self, tmp_path):
        out = str(tmp_path / "blow")
        cfg = ExperimentConfig(
            n_points=256, amplitude=0.65,
            wavenumbers=(2, 8), width=None, n_steps=500, t_final=0.01,
            blowup_factor=1.8, record_every=50, output=out,
            # a seed, not roundoff, sets the onset (see test_splitting)
            perturbation_mode=100, perturbation_amplitude=2e-8,
        )
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_BLOWUP
        sidecar = json.loads((tmp_path / "blow_blowup.json").read_text())
        assert sidecar["trigger"] == "amplitude"
        assert 0 < sidecar["onset_time"] < 0.01
        assert sidecar["n_steps"] == 500
        assert sidecar["tau"] == 0.01 / 500

    def test_none_flag_unsets_a_json_filter(self, tmp_path):
        run = ExperimentConfig(n_points=64, amplitude=0.5, width=0.5, n_steps=40,
                               t_final=0.04, record_every=10)
        plain = dataclasses.replace(run, output=str(tmp_path / "plain"))
        assert main(["simulate", "--config", write_config(tmp_path, plain)]) == EXIT_OK
        filtered = dataclasses.replace(run, mollify_eps=0.05, output=str(tmp_path / "off"))
        rc = main(["simulate", "--config", write_config(tmp_path, filtered),
                   "--mollify-eps", "none"])
        assert rc == EXIT_OK
        assert (tmp_path / "off.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_unset_shape_field_of_another_kind_passes(self, tmp_path):
        rc = main(["simulate", "--n-points", "64",
                   "--wavenumbers", "1,2", "--width", "none", "--amplitude", "0.1",
                   "--n-steps", "10", "--t-final", "0.01",
                   "--output", str(tmp_path / "mm")])
        assert rc == EXIT_OK
        assert (tmp_path / "mm.csv").exists()

    def test_cli_overrides(self, tmp_path):
        out = str(tmp_path / "ovr")
        rc = main([
            "simulate", "--n-points", "64", "--amplitude", "0.0",
            "--width", "0.5", "--n-steps", "20", "--t-final", "0.02",
            "--output", out,
        ])
        assert rc == EXIT_OK
        assert (tmp_path / "ovr.csv").exists()


class TestConverge:
    def test_small_ladder_second_order(self, tmp_path):
        out = str(tmp_path / "conv")
        cfg = ExperimentConfig(
            n_points=64, amplitude=0.3, width=0.5, t_final=0.2,
            nt_ladder=(50, 100, 200), reference_n_steps=3200, output=out,
        )
        rc = main(["converge", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "conv_orders.json").read_text())
        assert 1.7 < summary["order_l2"] < 2.3
        assert 1.7 < summary["order_h1"] < 2.3
        assert summary["filters"] == {
            "mollify_eps": None, "krasny_delta": None, "dealias": False,
        }
        rows = read_csv(out + "_table.csv")
        assert rows[0] == ["n_steps", "err_l2", "err_h1", "status"]
        assert [r[3] for r in rows[1:]] == ["ok", "ok", "ok"]
        errs = [float(r[1]) for r in rows[1:]]
        assert errs == sorted(errs, reverse=True)

    def test_unstable_row_flagged(self, tmp_path):
        # the coarsest run scrambles its spectrum; the energy guard flags it
        out = str(tmp_path / "stiff")
        cfg = ExperimentConfig(
            n_points=256, amplitude=0.625, width=0.1, t_final=np.pi / 4,
            nt_ladder=(500,), reference_n_steps=8000,
            energy_guard_factor=10.0, output=out,
        )
        rc = main(["converge", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_OK
        rows = read_csv(out + "_table.csv")
        assert rows[1][3] == "unstable"
        assert rows[1][1] == ""
        summary = json.loads((tmp_path / "stiff_orders.json").read_text())
        assert summary["order_l2"] is None
        assert "stable rows" in summary["notice"]

    def test_reference_blowup_exit_code(self, tmp_path, capsys, monkeypatch):
        # the reference runs first, and its trip ends the study before any rung
        runs = []
        monkeypatch.setattr("qlsplit.cli.run_simulation",
                            lambda *args: runs.append(args) or run_simulation(*args))
        out = str(tmp_path / "badref")
        cfg = ExperimentConfig(
            n_points=512, amplitude=0.625, width=0.1, t_final=np.pi / 4,
            nt_ladder=(500,), reference_n_steps=1000,
            energy_guard_factor=10.0, output=out,
        )
        rc = main(["converge", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_REFERENCE
        assert "reference run" in capsys.readouterr().err
        assert len(runs) == 1
        assert not list(tmp_path.glob("badref*"))

    def test_roundoff_ladder_skips_fit(self, tmp_path):
        # plane-wave data is integrated exactly; errors sit at roundoff.  A
        # constant carrier's differences are constant in x: their H1 seminorm
        # is exactly 0 while the L2 error of a = 5 is roundoff above 1e-13
        configs = [
            dict(model="cubic", amplitude=0.01, wavenumbers=(1,), t_final=0.1,
                 reference_n_steps=160),
            dict(amplitude=5.0, wavenumbers=(0,), t_final=1.0, reference_n_steps=80),
        ]
        for i, fields in enumerate(configs):
            out = str(tmp_path / f"exact{i}")
            cfg = ExperimentConfig(n_points=64, nt_ladder=(10, 20, 40), output=out,
                                   **fields)
            rc = main(["converge", "--config", write_config(tmp_path, cfg)])
            assert rc == EXIT_OK, fields
            summary = json.loads(Path(out + "_orders.json").read_text())
            assert summary["order_l2"] is None
            assert "roundoff" in summary["notice"]

    def test_wavenumbers_give_a_multi_mode_start(self, tmp_path, monkeypatch):
        # the reference and every rung start from MultiMode(a, (1, 2))
        starts = []
        monkeypatch.setattr("qlsplit.cli.run_simulation",
                            lambda model, ic, *rest: starts.append(ic)
                            or run_simulation(model, ic, *rest))
        rc = main(["converge", "--n-points", "64", "--amplitude", "0.1",
                   "--wavenumbers", "1,2", *LADDER, "--output", str(tmp_path / "mm")])
        assert rc == EXIT_OK
        assert starts == [MultiMode(0.1, (1, 2))] * 3

    @pytest.mark.parametrize("command, run", [("simulate", SMALL_RUN), ("converge", LADDER)])
    def test_width_beside_wavenumbers_is_named(self, tmp_path, capsys, command, run):
        rc = main([command, "--n-points", "64", *run, "--wavenumbers", "1,2",
                   "--width", "0.5", "--output", str(tmp_path / "mm")])
        assert rc == EXIT_CONFIG
        assert f"{command} does not read width; unset them" in capsys.readouterr().err
        assert not list(tmp_path.glob("mm*"))

    def test_ladder_requires_reference_above(self, tmp_path):
        cfg = ExperimentConfig(
            n_points=64, nt_ladder=(100, 200), reference_n_steps=200,
            output=str(tmp_path / "x"),
        )
        rc = main(["converge", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_CONFIG


class TestStability:
    def test_threshold_flip_report(self, tmp_path):
        out = str(tmp_path / "stab")
        cfg = ExperimentConfig(
            amplitude_grid=(0.70, 0.705, 0.7071, 0.708, 0.71),
            xi_max=128, output=out,
        )
        rc = main(["stability", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_OK
        rows = read_csv(out + "_stability.csv")
        assert rows[0] == ["amplitude", "unstable", "worst_xi", "growth_rate"]
        flags = [int(r[1]) for r in rows[1:]]
        assert flags == [0, 0, 0, 1, 1]

    def test_tiny_straddle_with_large_xi(self, tmp_path):
        thr = np.sqrt(2) / 2
        out = str(tmp_path / "straddle")
        cfg = ExperimentConfig(
            amplitude_grid=(thr - 1e-8, thr + 1e-8), xi_max=8192,
            output=out,
        )
        rc = main(["stability", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_OK
        rows = read_csv(out + "_stability.csv")
        assert [int(r[1]) for r in rows[1:]] == [0, 1]

    def test_multiplier_report(self, tmp_path):
        out = str(tmp_path / "mult")
        cfg = ExperimentConfig(
            amplitude_grid=(1.0,), xi_max=4, growth_tau=1e-4,
            growth_wavenumbers=(16,), output=out,
        )
        rc = main(["stability", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_OK
        rows = read_csv(out + "_multipliers.csv")
        assert float(rows[1][3]) == pytest.approx(1.0256, rel=1e-9)
        assert int(rows[1][7]) == 1


def reference_simulate_csvs(prefix, rec):
    """csv.writer's diagnostics CSV and snapshot CSVs of a run record."""
    with open(prefix + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "max_amp", "mass", "energy", "min_ellipticity"])
        for row in zip(rec.times, rec.max_amplitude, rec.mass, rec.energy,
                       rec.min_ellipticity):
            writer.writerow([repr(float(v)) for v in row])
    for i, (_, state) in enumerate(rec.snapshots):
        with open(f"{prefix}_snapshot_{i:03d}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "re_u", "im_u", "abs_u"])
            for x, u in zip(GridSpec(len(state)).nodes, state):
                u = complex(u)
                writer.writerow([repr(float(x)), repr(u.real), repr(u.imag), repr(abs(u))])


def test_simulate_csvs_match_csv_writer(tmp_path):
    cfg = ExperimentConfig(
        n_points=64, amplitude=0.2, width=0.5, n_steps=40, t_final=0.04,
        record_every=3, snapshot_times=(0.0, 0.02), output=str(tmp_path / "got"),
    )
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
    stepper = StepperConfig(tau=cfg.t_final / cfg.n_steps, record_every=3,
                            snapshot_times=cfg.snapshot_times)
    rec = run_simulation(ModelSpec.pseudo_attractive(), Gaussian(0.2, 0.5),
                         GridSpec(64), stepper, cfg.t_final)
    reference_simulate_csvs(str(tmp_path / "want"), rec)
    names = [".csv", "_snapshot_000.csv", "_snapshot_001.csv"]
    assert sorted(p.name for p in tmp_path.glob("want*")) == sorted("want" + n for n in names)
    for suffix in names:
        got, want = tmp_path / ("got" + suffix), tmp_path / ("want" + suffix)
        assert got.read_bytes() == want.read_bytes(), suffix


def reference_converge_table(path, cfg):
    """csv.writer's converge table, from the ladder and reference runs made here."""
    def run(n):
        stepper = StepperConfig(tau=cfg.t_final / n, record_every=n,
                                energy_guard_factor=cfg.energy_guard_factor)
        return run_simulation(ModelSpec.pseudo_attractive(),
                              Gaussian(cfg.amplitude, cfg.width),
                              GridSpec(cfg.n_points), stepper, cfg.t_final)

    reference = run(cfg.reference_n_steps).final_field
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_steps", "err_l2", "err_h1", "status"])
        for n in cfg.nt_ladder:
            rec = run(n)
            if rec.blew_up:
                writer.writerow([n, "", "", "unstable"])
                continue
            diff = rec.final_field - reference
            writer.writerow([n, repr(l2_norm(diff)), repr(h1_seminorm(diff)), "ok"])


@pytest.mark.parametrize("fields", [
    # the configs of test_small_ladder_second_order and test_unstable_row_flagged
    pytest.param(dict(n_points=64, amplitude=0.3, width=0.5, t_final=0.2,
                      nt_ladder=(50, 100, 200), reference_n_steps=3200), id="ok-rows"),
    pytest.param(dict(n_points=256, amplitude=0.625, width=0.1, t_final=np.pi / 4,
                      nt_ladder=(500,), reference_n_steps=8000,
                      energy_guard_factor=10.0), id="unstable-row"),
])
def test_converge_table_matches_csv_writer(tmp_path, fields):
    cfg = ExperimentConfig(output=str(tmp_path / "got"), **fields)
    assert main(["converge", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
    reference_converge_table(str(tmp_path / "want.csv"), cfg)
    assert (tmp_path / "got_table.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def reference_multipliers_csv(prefix, amplitude_grid, xi_max, tau, wavenumbers):
    """The per-row writer that cmd_stability replaced with array evaluations
    and buffered writes, with one scalar closed-form eigenvalue call per
    amplitude and the scalar multiplier formula it called inlined; kept as
    its reference."""
    with open(prefix + "_stability.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["amplitude", "unstable", "worst_xi", "growth_rate"])
        for a in amplitude_grid:
            lam_plus, lam_minus = gn_eigenvalues(float(a), 0, xi_max)
            unstable = lam_plus.real > 0
            rate = float(max(lam_plus.real, lam_minus.real)) if unstable else 0.0
            writer.writerow(
                [repr(float(a)), int(unstable), xi_max if unstable else "", repr(rate)]
            )
    with open(prefix + "_multipliers.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["w", "tau", "k", "mult_plus_re", "mult_plus_im",
             "mult_minus_re", "mult_minus_im", "growing"]
        )
        for w in amplitude_grid:
            for k in wavenumbers:
                radicand = 2.0 * w * w - 1.0
                shift = tau * float(k) ** 2 * np.sqrt(complex(radicand))
                plus, minus = complex(1.0 + shift), complex(1.0 - shift)
                writer.writerow(
                    [repr(float(w)), repr(tau), int(k),
                     repr(plus.real), repr(plus.imag),
                     repr(minus.real), repr(minus.imag), int(radicand > 0)]
                )


def jittered_scan_grid(seed: int = 8) -> list[float]:
    """201 amplitudes in [0.69, 0.73], each moved by up to 0.4 of a cell."""
    rng = np.random.default_rng(seed)
    step = 0.04 / 200
    return [0.69 + i * step + float(rng.uniform(-0.4, 0.4)) * step
            for i in range(201)]


THRESHOLD = float(np.sqrt(0.5))
EDGE_AMPLITUDES = [0.0, float(np.nextafter(THRESHOLD, 0.0)), THRESHOLD,
                   float(np.nextafter(THRESHOLD, 1.0)), 0.8, 1.0, 3.0, 1e3]


@pytest.mark.parametrize("grid, xi_max, tau, wavenumbers", [
    pytest.param(jittered_scan_grid(), 1024, 1e-4, tuple(range(1, 33)),
                 id="workload-shaped"),
    pytest.param(EDGE_AMPLITUDES, 1024, 1e-4, (1, 2, 32, 1000), id="edges-small-tau"),
    pytest.param(EDGE_AMPLITUDES, 1024, 0.37, (1, 2, 32, 1000), id="edges-large-tau"),
    pytest.param(jittered_scan_grid() + EDGE_AMPLITUDES, 8192, 1e-4, (1, 2),
                 id="xi-max-8192"),
])
def test_stability_csvs_match_per_row_writer(tmp_path, grid, xi_max, tau, wavenumbers):
    want = str(tmp_path / "want")
    reference_multipliers_csv(want, grid, xi_max, tau, wavenumbers)
    got = str(tmp_path / "got")
    rc = main(["stability", "--amplitude-grid", ",".join(repr(a) for a in grid),
               "--xi-max", str(xi_max), "--growth-tau", repr(tau),
               "--growth-wavenumbers", ",".join(str(k) for k in wavenumbers),
               "--output", got])
    assert rc == EXIT_OK
    for suffix in ("_stability.csv", "_multipliers.csv"):
        with open(got + suffix, "rb") as fh_got, open(want + suffix, "rb") as fh_want:
            assert fh_got.read() == fh_want.read(), suffix


@pytest.mark.parametrize("argv, code, stream, message", [
    # a^2 = 1.44e308 is finite, so the exact wave is; |u|^2 overflows in the first kick
    pytest.param([*PLANE_WAVE_NO_MODE, "--amplitude", "1.2e154", "--perturbation-mode", "3"],
                 EXIT_BLOWUP, "out",
                 "the unperturbed march turned non-finite; no growth to report",
                 id="planewave-carrier"),
    pytest.param([*PLANE_WAVE_NO_MODE, "--amplitude", "0.5", "--perturbation-mode", "3",
                  "--perturbation-amplitude", "1e160"],
                 EXIT_BLOWUP, "out", "the perturbed march turned non-finite",
                 id="planewave-seed"),
    pytest.param(["stability", "--amplitude-grid", "0.5,1e306", "--xi-max", "1024"],
                 EXIT_CONFIG, "err", "growth_rate overflows a float", id="scan-growth-rate"),
])
def test_overflow_is_reported_without_numpy_warnings(tmp_path, capsys, argv, code,
                                                     stream, message):
    # the CLI names the non-finite result itself; numpy's RuntimeWarnings
    # would only precede its message on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*argv, "--output", str(tmp_path / "r")])
    assert rc == code
    assert message in getattr(capsys.readouterr(), stream)
    assert not list(tmp_path.glob("r*"))


@pytest.mark.parametrize("value", ["5e-324", "1e-300", "1e200", "1e308"])
@pytest.mark.parametrize("flag", [
    ["--amplitude"], ["--width"], ["--t-final"], ["--mollify-eps"], ["--krasny-delta"],
    ["--blowup-factor"], ["--energy-guard-factor"],
    ["--perturbation-mode", "2", "--perturbation-amplitude"],
], ids=lambda flag: flag[-1])
def test_extreme_float_flags_end_in_an_exit_code(tmp_path, flag, value):
    # every simulate float flag, at the edges of float range: a config error,
    # a run or a guard trip, never a traceback or a numpy warning
    argv = ["simulate", "--n-points", "32", "--n-steps", "20", *flag, value,
            "--output", str(tmp_path / "r")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP)


class TestDefaultStep:
    """Every field but the wavenumber at its default: T = pi/4 in 8000 steps
    at N = 256 keeps tau (N/2)^2 = 1.61 below the resonance pi.  At 1000
    steps (12.9) a default simulate blew the energy up from 0.128 to 730."""

    @pytest.mark.parametrize("model", ["pseudo_attractive", "thin_film"])
    def test_simulate_conserves_energy(self, tmp_path, model):
        out = str(tmp_path / "run")
        assert main(["simulate", "--wavenumbers", "1", "--model", model,
                     "--output", out]) == EXIT_OK
        energy = [float(row[3]) for row in read_csv(out + ".csv")[1:]]
        assert max(abs(e - energy[0]) for e in energy) <= 1e-9 * abs(energy[0])

    def test_planewave_check_passes(self, tmp_path):
        assert main(["planewave-check", "--wavenumbers", "1", "--perturbation-mode", "3",
                     "--output", str(tmp_path / "pw")]) == EXIT_OK


class TestPlanewaveCheck:
    def test_exactness_and_report(self, tmp_path):
        out = str(tmp_path / "pw")
        cfg = ExperimentConfig(
            n_points=64, amplitude=0.5, wavenumbers=(1,),
            n_steps=200, t_final=0.2, perturbation_mode=2, output=out,
        )
        rc = main(["planewave-check", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "pw_planewave.json").read_text())
        assert report["max_l2_deviation"] < 1e-11
        assert report["perturbation_mode"] == 2
        assert report["perturbation_energy_growth"] < 2.0

    @pytest.mark.parametrize("amplitude, unstable", [
        ("0.7070067811865475", False),  # sqrt(2)/2 - 1e-4
        ("0.7072067811865476", True),  # sqrt(2)/2 + 1e-4
    ])
    def test_modulus_seed_reads_the_threshold(self, tmp_path, amplitude, unstable):
        # criterion 5's run; below the threshold a single-exponential seed
        # swings to 1.164e3 times its energy and reads as growth
        rc = main(["planewave-check", "--n-points", "256", "--amplitude", amplitude,
                   "--wavenumbers", "0", "--perturbation-mode", "126",
                   "--n-steps", "8000", "--t-final", "0.016",
                   "--output", str(tmp_path / "pw")])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "pw_planewave.json").read_text())
        growth = report["perturbation_energy_growth"]
        assert growth >= 10.0 if unstable else growth < 2.0

    @pytest.mark.parametrize("flag, value", [
        ("--mollify-eps", "0.05"), ("--krasny-delta", "1e-3"), ("--dealias", "true"),
    ])
    def test_rejects_filters(self, tmp_path, capsys, flag, value):
        rc = main([*PLANE_WAVE, flag, value, "--output", str(tmp_path / "pw")])
        assert rc == EXIT_CONFIG
        name = flag[2:].replace("-", "_")
        assert f"planewave_check does not read {name};" in capsys.readouterr().err
        assert not list(tmp_path.glob("pw*"))

    @pytest.mark.parametrize("flag, value", [
        ("--width", "0.5"), ("--snapshot-times", "0.005"), ("--record-every", "5"),
        ("--blowup-factor", "1.01"), ("--energy-guard-factor", "10"),
    ])
    def test_rejects_unread_fields(self, tmp_path, capsys, flag, value):
        rc = main([*PLANE_WAVE, flag, value, "--output", str(tmp_path / "pw")])
        assert rc == EXIT_CONFIG
        name = flag[2:].replace("-", "_")
        assert f"planewave_check does not read {name};" in capsys.readouterr().err
        assert not list(tmp_path.glob("pw*"))

    def test_unread_fields_at_their_defaults_pass(self, tmp_path):
        rc = main([*PLANE_WAVE, "--width", "0.2",
                   "--record-every", "100", "--output", str(tmp_path / "pw")])
        assert rc == EXIT_OK
        # or they may be unset
        rc = main([*PLANE_WAVE, "--width", "none", "--output", str(tmp_path / "pw")])
        assert rc == EXIT_OK

    def test_unstable_carrier_is_named(self, tmp_path, capsys):
        # below sqrt(2)/2 the carrier k = 1 grows from roundoff at its
        # self-paired sideband k - N/2; the carrier k = 0 does not
        run = ["planewave-check", "--n-points", "256", "--amplitude", "0.7070067811865475",
               "--n-steps", "8000", "--t-final", "0.016", "--output", str(tmp_path / "pw")]
        rc = main([*run, "--wavenumbers", "1", "--perturbation-mode", "21"])
        assert rc == EXIT_CONFIG
        assert "wave train deviates by 0.18 of its own L2 norm" in capsys.readouterr().err
        assert not list(tmp_path.glob("pw*"))
        rc = main([*run, "--wavenumbers", "0", "--perturbation-mode", "20"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "pw_planewave.json").read_text())
        assert report["perturbation_energy_growth"] == pytest.approx(1.0, abs=5e-4)

    def test_nonfinite_march_exits_blowup(self, tmp_path, capsys):
        # a seed of 1e160 overflows |u|^2: the march turns nan, and the
        # growth reading used to be written as NaN with exit 0
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([*PLANE_WAVE_NO_MODE, "--amplitude", "0.5", "--perturbation-mode", "3",
                       "--perturbation-amplitude", "1e160", "--output", str(tmp_path / "pw")])
        assert rc == EXIT_BLOWUP
        assert "perturbed march turned non-finite" in capsys.readouterr().out
        assert not list(tmp_path.glob("pw*"))

    def test_requires_wavenumber(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            n_points=64, amplitude=0.5, n_steps=200, t_final=0.2,
            perturbation_mode=2, output=str(tmp_path / "x"),
        )
        rc = main(["planewave-check", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_CONFIG
        assert "planewave_check requires wavenumbers" in capsys.readouterr().err

    @pytest.mark.parametrize("wavenumbers, message", [
        ("", "planewave_check requires wavenumbers"),
        ("1,2", "planewave_check takes its carrier from wavenumbers, which must have "
                "exactly one entry, got [1, 2]"),
    ], ids=["zero", "two"])
    def test_carrier_is_one_wavenumber(self, tmp_path, capsys, wavenumbers, message):
        rc = main([*PLANE_WAVE, "--wavenumbers", wavenumbers, "--output", str(tmp_path / "pw")])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("pw*"))


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_block(lang: str, after: str) -> str:
    """The first ```lang fenced block that follows the heading ``after``."""
    rest = README[README.index(after):]
    start = rest.index(f"```{lang}\n") + len(lang) + 4
    return rest[start:rest.index("```", start)]


def readme_commands() -> list[list[str]]:
    """Each `qlsplit ...` command of the README's CLI block, as its argv."""
    lines = readme_block("sh", "## CLI").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("qlsplit ")]


def test_readme_example_config_parses():
    cfg = parse_config(readme_block("json", "Example config:"))
    assert cfg.n_points == 4096 and cfg.n_steps == 40000


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_cli_commands_parse(tmp_path, monkeypatch, argv):
    # every input rule of main, with a runner that does not step
    config = tmp_path / "run.json"
    config.write_text(readme_block("json", "Example config:"))
    redirect = {"--output": str(tmp_path / "out"), "--config": str(config)}
    argv = [redirect.get(prev, arg) for prev, arg in zip([None, *argv], argv)]
    command = argv[0].replace("-", "_")
    seen = []
    monkeypatch.setitem(_COMMANDS, command,
                        (lambda cfg: seen.append(cfg) or EXIT_OK, *_COMMANDS[command][1:]))
    assert main(argv) == EXIT_OK
    assert seen[0].output == str(tmp_path / "out")
