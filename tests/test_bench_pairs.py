"""benchmarks/bench_pairs.py: argument rules and the per-metric summary."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench_pairs

    return bench_pairs


def fake_runs(bench_pairs, monkeypatch, base, head):
    """run_once reads wall_s from the given lists, one value per seed."""
    def run_once(checkout, workload, seed, seconds):
        runs = head if checkout == bench_pairs.ROOT else base
        return {"metrics": {"wall_s": {"value": runs[seed]}}, "failed": 0, "attempted": 1}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)


@pytest.mark.parametrize("argv", [
    ["--seeds", "1-2", "--control", "blowup-n4096"],
    ["--seeds", "1-2", "--control-seeds", "3-4"],
    ["--seeds", "5-3"],
], ids=["control-without-seeds", "seeds-without-control", "empty-range"])
def test_bad_seeds_rejected_before_any_run(bench_pairs, monkeypatch, tmp_path, argv):
    def run_once(*args):
        raise AssertionError("no pair may run")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--base", str(tmp_path),
                                      "--workload", "stability-scan", *argv,
                                      "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("base, head, resolved", [
    # base quartiles 1.0 and 2.0 around a median of 1.5: spread 0.67 > bound 0.25
    ([1.0, 2.0, 1.0, 2.0], [1.4, 1.6, 1.4, 1.6], False),
    ([1.0, 2.0, 1.0, 2.0], [0.9, 0.8, 0.9, 0.8], True),
    ([1.0, 1.02, 1.0, 1.02], [1.2, 1.1, 1.2, 1.1], True),
])
def test_resolved_flag(bench_pairs, monkeypatch, tmp_path, base, head, resolved):
    fake_runs(bench_pairs, monkeypatch, base, head)
    record = bench_pairs.pairs(tmp_path, "stability-scan", [0, 1, 2, 3], 1.0, None)
    assert record["metrics"]["wall_s"]["resolved"] is resolved


def test_machine_records_numpy_simd_dispatch(bench_pairs):
    # every BENCH record says which SIMD targets numpy dispatched to
    simd = bench_pairs.machine()["numpy_simd"]
    assert isinstance(simd["avx512f"], bool)
    assert all(isinstance(target, str) for target in simd["dispatch"])


@pytest.mark.parametrize("umath, simd", [
    (None, {"dispatch": "unknown", "avx512f": "unknown"}),
    (SimpleNamespace(__cpu_dispatch__=["AVX2", "AVX512F", "AVX512_SKX"],
                     __cpu_features__={"AVX2": True, "AVX512F": False}),
     {"dispatch": ["AVX2"], "avx512f": False}),
], ids=["neither", "numpy-1"])
def test_numpy_simd_fallbacks(bench_pairs, monkeypatch, umath, simd):
    # numpy 1.x has no numpy._core; the "numpy-1" case reads numpy.core's
    monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", None)
    monkeypatch.setitem(sys.modules, "numpy.core._multiarray_umath", umath)
    assert bench_pairs.machine()["numpy_simd"] == simd


@pytest.mark.parametrize("script", ["bench_pairs", "bench_kernel"])
def test_base_outside_git_rejected_before_any_run(monkeypatch, tmp_path, capsys, script):
    # a `git archive` export has no commit to name; both commits are resolved first
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    module = importlib.import_module(script)

    def refuse(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(module, "run_once" if script == "bench_pairs" else "time_step", refuse)
    out = tmp_path / "bench.json"
    argv = ["--base", str(tmp_path), "--out", str(out)]
    if script == "bench_pairs":
        argv += ["--workload", "stability-scan", "--seeds", "1-2"]
    monkeypatch.setattr(sys, "argv", [f"{script}.py", *argv])
    with pytest.raises(SystemExit) as exc:
        module.main()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not inside a git work tree" in err and "git clone" in err
    assert not out.exists()
