"""CLI configs, subcommands, file formats, and exit codes."""

import csv
import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from qlsplit.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REFERENCE,
    ConfigError,
    ExperimentConfig,
    _config_from_args,
    _validate,
    build_parser,
    main,
    parse_config,
    serialize_config,
)
from qlsplit.model import Gaussian, ModelSpec
from qlsplit.spectral import GridSpec
from qlsplit.splitting import StepperConfig, run_simulation
from qlsplit.stability import stability_threshold_scan


POPULATED = ExperimentConfig(
    model="thin_film",
    n_points=512,
    ic_kind="multi_mode",
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


def write_config(tmp_path, cfg: ExperimentConfig) -> str:
    path = tmp_path / "config.json"
    path.write_text(serialize_config(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigRoundTrip:
    def test_default_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_populated_round_trip(self):
        assert parse_config(serialize_config(POPULATED)) == POPULATED

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
    ])
    def test_flag_spellings(self, flag, text, expected):
        cfg = config_from_argv(["simulate", flag, text])
        assert getattr(cfg, flag[2:].replace("-", "_")) == expected

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config('{"no_such_field": 1}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
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

    def test_unwritable_output(self, tmp_path):
        cfg = ExperimentConfig(output="/no/such/dir/run")
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_CONFIG

    def test_missing_config_file(self):
        rc = main(["simulate", "--config", "/no/such/config.json"])
        assert rc == EXIT_CONFIG


SMALL_RUN = ["--n-points", "64", "--n-steps", "10", "--t-final", "0.01"]
LADDER = ["--nt-ladder", "10,20", "--reference-n-steps", "80", "--t-final", "0.01"]
GROWTH = ["stability", "--amplitude-grid", "0.5,0.9", "--growth-tau", "1e-4",
          "--growth-wavenumbers", "1,2"]
PLANE_WAVE_NO_MODE = ["planewave-check", "--wavenumber", "1", "--n-points", "64",
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
    pytest.param(PLANE_WAVE_NO_MODE, None, id="planewave-no-perturbation-mode"),
    pytest.param([*PLANE_WAVE, "--wavenumber", "40"], None,
                 id="planewave-unrepresentable-wavenumber"),
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
    pytest.param(["simulate", "--n-steps", "10", "--t-final", "nan"], None,
                 id="simulate-nan-t-final"),
    pytest.param([*PLANE_WAVE, "--t-final", "inf"], None, id="planewave-inf-t-final"),
    pytest.param([*PLANE_WAVE, "--amplitude", "nan"], None,
                 id="planewave-nan-amplitude"),
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
    pytest.param(["simulate", *SMALL_RUN], '{"dealias": "false"}', id="json-bool-string"),
    pytest.param(["simulate", *SMALL_RUN], '{"record_every": 2.5}', id="json-int-float"),
    pytest.param(["simulate"], '{"n_points": 64.0}', id="json-n-points-float"),
    pytest.param(["simulate", *SMALL_RUN], '{"record_every": true}', id="json-int-bool"),
    pytest.param(["simulate", *SMALL_RUN], '{"amplitude": "0.3"}',
                 id="json-float-string"),
    pytest.param(["simulate", *SMALL_RUN], '{"experiment": "converge"}',
                 id="json-experiment-key"),
    pytest.param(["simulate", *SMALL_RUN], '{"tau": 0.001}', id="json-tau-key"),
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
        for i, (_, fld) in enumerate(rec.snapshots):
            rows = read_csv(f"{out}_snapshot_{i:03d}.csv")
            assert rows[0] == ["x", "re_u", "im_u", "abs_u"]
            assert len(rows) == 65
            cells = [[float(cell) for cell in row] for row in rows[1:]]
            assert cells == [
                [x, u.real, u.imag, abs(u)]
                for x, u in zip(fld.grid.nodes.tolist(), fld.values.tolist())
            ]
        assert cells[0][0] == pytest.approx(-np.pi)

    def test_blowup_exit_code_and_sidecar(self, tmp_path):
        out = str(tmp_path / "blow")
        cfg = ExperimentConfig(
            n_points=256, ic_kind="multi_mode", amplitude=0.65,
            wavenumbers=(2, 8), width=None, n_steps=500, t_final=0.01,
            blowup_factor=1.8, record_every=50, output=out,
        )
        rc = main(["simulate", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_BLOWUP
        sidecar = json.loads((tmp_path / "blow_blowup.json").read_text())
        assert sidecar["trigger"] == "amplitude"
        assert 0 < sidecar["onset_time"] < 0.01
        assert sidecar["n_steps"] == 500
        assert sidecar["tau"] == 0.01 / 500

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

    def test_reference_blowup_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "badref")
        cfg = ExperimentConfig(
            n_points=512, amplitude=0.625, width=0.1, t_final=np.pi / 4,
            nt_ladder=(500,), reference_n_steps=1000,
            energy_guard_factor=10.0, output=out,
        )
        rc = main(["converge", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_REFERENCE
        assert "reference run" in capsys.readouterr().err

    def test_roundoff_ladder_skips_fit(self, tmp_path):
        # plane-wave data is integrated exactly; errors sit at roundoff
        out = str(tmp_path / "exact")
        cfg = ExperimentConfig(
            n_points=64, model="cubic", ic_kind="plane_wave",
            amplitude=0.01, wavenumber=1, t_final=0.1,
            nt_ladder=(10, 20, 40), reference_n_steps=160, output=out,
        )
        rc = main(["converge", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "exact_orders.json").read_text())
        assert summary["order_l2"] is None
        assert "roundoff" in summary["notice"]

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


def reference_multipliers_csv(prefix, amplitude_grid, xi_max, tau, wavenumbers):
    """The per-row writer that cmd_stability replaced with one broadcast
    evaluation and buffered writes, with the scalar multiplier formula it
    called inlined; kept as its reference."""
    verdicts = stability_threshold_scan(amplitude_grid, xi_max)
    with open(prefix + "_stability.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["amplitude", "unstable", "worst_xi", "growth_rate"])
        for v in verdicts:
            writer.writerow(
                [repr(v.amplitude), int(v.unstable),
                 "" if v.worst_xi is None else v.worst_xi, repr(v.growth_rate)]
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


@pytest.mark.parametrize("grid, tau, wavenumbers", [
    pytest.param(jittered_scan_grid(), 1e-4, tuple(range(1, 33)), id="workload-shaped"),
    pytest.param(EDGE_AMPLITUDES, 1e-4, (1, 2, 32, 1000), id="edges-small-tau"),
    pytest.param(EDGE_AMPLITUDES, 0.37, (1, 2, 32, 1000), id="edges-large-tau"),
])
def test_stability_csvs_match_per_row_writer(tmp_path, grid, tau, wavenumbers):
    xi_max = 1024
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


class TestPlanewaveCheck:
    def test_exactness_and_report(self, tmp_path):
        out = str(tmp_path / "pw")
        cfg = ExperimentConfig(
            n_points=64, ic_kind="plane_wave", amplitude=0.5, wavenumber=1,
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
                   "--wavenumber", "0", "--perturbation-mode", "126",
                   "--n-steps", "8000", "--t-final", "0.016",
                   "--output", str(tmp_path / "pw")])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "pw_planewave.json").read_text())
        growth = report["perturbation_energy_growth"]
        assert growth >= 10.0 if unstable else growth < 2.0

    def test_requires_wavenumber(self, tmp_path):
        cfg = ExperimentConfig(
            n_points=64, amplitude=0.5, n_steps=200, t_final=0.2,
            perturbation_mode=2, output=str(tmp_path / "x"),
        )
        rc = main(["planewave-check", "--config", write_config(tmp_path, cfg)])
        assert rc == EXIT_CONFIG


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
def test_readme_cli_commands_parse(tmp_path, argv):
    # read the config and flags as main does, without stepping
    config = tmp_path / "run.json"
    config.write_text(readme_block("json", "Example config:"))
    redirect = {"--output": str(tmp_path / "out"), "--config": str(config)}
    argv = [redirect.get(prev, arg) for prev, arg in zip([None, *argv], argv)]
    cfg = _config_from_args(build_parser().parse_args(argv))
    _validate(cfg)
    assert cfg.output == str(tmp_path / "out")
