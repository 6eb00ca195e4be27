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


def fake_runs(bench_pairs, monkeypatch, base, head, head_failed=0):
    """run_once reads wall_s from the given lists, one value per seed."""
    def run_once(checkout, workload, seed, seconds):
        is_head = checkout == bench_pairs.ROOT
        runs = head if is_head else base
        return {"metrics": {"wall_s": {"value": runs[seed]}},
                "failed": head_failed if is_head else 0, "attempted": 1}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)


@pytest.mark.parametrize("argv, error", [
    (["--seeds", "1-2", "--control", "blowup-n4096"], "must be given together"),
    (["--seeds", "1-2", "--control-seeds", "3-4"], "must be given together"),
    (["--seeds", "5-3"], "no seeds in '5-3'"),
    (["--seeds", "1-3", "--claim", "work_per_s"], "--claim needs at least 10 seeds, got 3"),
], ids=["control-without-seeds", "seeds-without-control", "empty-range",
        "claim-under-ten-pairs"])
def test_bad_seeds_rejected_before_any_run(bench_pairs, monkeypatch, tmp_path, capsys,
                                           argv, error):
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
    assert error in capsys.readouterr().err
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


def checkouts(bench_pairs, monkeypatch, tmp_path, head_run="RUN = 1\n"):
    """A base and a head checkout holding a benchmark; the head is this tree."""
    for side, run in (("base", "RUN = 1\n"), ("head", head_run)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text('{"workloads": []}\n')
        (tmp_path / side / "perfbench" / "run.py").write_text(run)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path / "head")
    return tmp_path / "base"


@pytest.mark.parametrize("head_failed, met", [(0, True), (1, False)])
def test_claim_met_only_without_more_failures(bench_pairs, monkeypatch, tmp_path,
                                              head_failed, met):
    # the head wins all 10 pairs by far more than the base's spread
    base = checkouts(bench_pairs, monkeypatch, tmp_path)
    fake_runs(bench_pairs, monkeypatch, [2.0, 2.1] * 5, [1.0, 1.1] * 5, head_failed)
    record = bench_pairs.pairs(base, "stability-scan", list(range(10)), 1.0, "wall_s")
    assert record["claim"]["head_wins"] == 10
    assert record["claim"]["met"] is met


def test_claim_needs_the_same_benchmark(bench_pairs, monkeypatch, tmp_path):
    # a claim compares programs, so both sides must run identical benchmark code
    base = checkouts(bench_pairs, monkeypatch, tmp_path, head_run="RUN = 2\n")
    # compiled files and their folders are not the benchmark
    (base / "perfbench" / "__pycache__").mkdir()
    (base / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\x00")
    fake_runs(bench_pairs, monkeypatch, [2.0, 2.1] * 5, [1.0, 1.1] * 5)
    record = bench_pairs.pairs(base, "stability-scan", list(range(10)), 1.0, "wall_s")
    digests = record["bench_digest"]
    assert digests["base"] != digests["head"]
    assert record["claim"]["head_wins"] == 10
    assert record["claim"]["same_bench"] is False
    assert record["claim"]["met"] is False
    # the same run.py on both sides gives one digest, whatever __pycache__ holds
    (tmp_path / "head" / "perfbench" / "run.py").write_text("RUN = 1\n")
    assert bench_pairs.bench_digest(base) == bench_pairs.bench_digest(tmp_path / "head")


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
