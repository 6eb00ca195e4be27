"""Tests of the benchmark itself, on reduced-size workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CLI = run.load_qlsplit()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SHARES = ("splitting.share", "spectral.fft_share", "diagnostics.share",
          "model.share", "stability.share", "cli.share")


@pytest.fixture(scope="module")
def smoke_results():
    cache = {}

    def get(name: str, trace: bool) -> dict:
        if (name, trace) not in cache:
            cache[name, trace], _ = run.measure(
                CLI, name, seed=3, seconds=0, trace=trace, smoke=True
            )
        return cache[name, trace]

    return get


def _names_units(entries) -> list[tuple[str, str]]:
    return [(e["name"], e["unit"]) for e in entries]


def test_metric_tables_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert _names_units(SPEC["end_to_end"]) == list(run.END_TO_END_UNITS.items())
    assert _names_units(SPEC["per_layer"]) == list(spans.PER_LAYER_UNITS.items())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_pass_untraced(smoke_results, name):
    res = smoke_results(name, False)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert [(k, m["unit"]) for k, m in res["metrics"].items()] == _names_units(
        SPEC["end_to_end"]
    )
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_pass_traced(smoke_results, name):
    res = smoke_results(name, True)
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert [(k, m["unit"]) for k, m in metrics.items()] == _names_units(
        SPEC["per_layer"]
    )
    # The layer self times account for the traced wall time.
    assert math.isclose(sum(metrics[s]["value"] for s in SHARES), 1.0, abs_tol=0.01)
    assert metrics["cli.calls"]["value"] == res["attempted"] / 2


def test_converge_traced_counts_five_ffts_per_step(smoke_results):
    metrics = smoke_results("converge-n256", True)["metrics"]
    assert metrics["spectral.fft_calls_per_step"]["value"] == 5
    spec = workloads.CONVERGE_SMOKE
    steps = sum(spec["ladder"]) + spec["reference"]
    assert metrics["splitting.steps"]["value"] == steps
    assert metrics["splitting.runs"]["value"] == len(spec["ladder"]) + 1


def test_stability_traced_counts_modes(smoke_results):
    metrics = smoke_results("stability-scan", True)["metrics"]
    per_amplitude = workloads.SCAN_XI_MAX + len(workloads.GROWTH_WAVENUMBERS)
    modes = workloads.SCAN_SMOKE_POINTS * per_amplitude
    assert metrics["stability.modes"]["value"] == modes
    assert metrics["splitting.steps"]["value"] == 0


def _set_json(path: str, key: str, value) -> None:
    with open(path) as fh:
        data = json.load(fh)
    data[key] = value
    with open(path, "w") as fh:
        json.dump(data, fh)


def _flip_first_verdict(path: str) -> None:
    lines = Path(path).read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = str(1 - int(cells[1]))
    lines[1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


DOCTORED = {
    "converge-n256": lambda p: _set_json(p + "_orders.json", "order_l2", 1.0),
    "blowup-n4096": lambda p: _set_json(p + "_blowup.json", "trigger", "energy"),
    "stability-scan": lambda p: _flip_first_verdict(p + "_stability.csv"),
}


@pytest.mark.parametrize("name", list(DOCTORED))
def test_wrong_output_is_counted_as_failed(tmp_path, name):
    invocations = workloads.build(name, 3, str(tmp_path), smoke=True)

    def doctored_main(argv):
        code = CLI.main(argv)
        DOCTORED[name](argv[argv.index("--output") + 1])
        return code

    result = run.run_pass(types.SimpleNamespace(main=doctored_main), invocations,
                          str(tmp_path))
    assert (result.attempted, result.failed) == (1, 1)
    assert result.work > 0


def test_ensemble_member_with_mass_drift_fails(tmp_path):
    inv = next(i for i in workloads.build("ensemble-n256", 3, str(tmp_path))
               if float(i.argv[i.argv.index("--amplitude") + 1]) <= 0.62)
    assert CLI.main(list(inv.argv)) == workloads.EXIT_OK
    assert inv.check(inv.prefix, 0).ok
    rows = Path(inv.prefix + ".csv").read_text().splitlines()
    cells = rows[-1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))
    rows[-1] = ",".join(cells)
    Path(inv.prefix + ".csv").write_text("\n".join(rows) + "\n")
    assert not inv.check(inv.prefix, 0).ok


def test_seed_fixes_inputs_and_keeps_checked_bands():
    def argvs(seed):
        return [i.argv for i in workloads.build("ensemble-n256", seed, "w")]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)
    for seed in range(50):
        for argv in argvs(seed):
            a = float(argv[argv.index("--amplitude") + 1])
            nominal = max(g for g in workloads.ENSEMBLE_AMPLITUDES if g <= a)
            assert a - nominal <= workloads.ENSEMBLE_JITTER
            if nominal <= 0.6:
                assert a <= workloads.STABLE_MAX
            if nominal >= 0.9:
                assert a >= workloads.BLOWUP_MIN


def test_child_run_reports_its_own_result(capsys):
    args = types.SimpleNamespace(seed=3, seconds=0, trace=0)
    res = run.run_child("stability-scan", args)
    assert res["correct"] and res["attempted"] == 1
    assert list(res["metrics"]) == list(run.END_TO_END_UNITS)
    assert "detail stability-scan" in capsys.readouterr().out


def test_radicand_sign_brackets_the_threshold():
    xi = workloads.SCAN_XI_MAX
    threshold = math.sqrt(xi * xi / (2 * xi * xi - 2))
    assert not workloads.radicand_positive(threshold * (1 - 1e-12), xi)
    assert workloads.radicand_positive(threshold * (1 + 1e-12), xi)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "converge-n256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
