"""Alternating parent/change pairs of `perfbench/run.py`, summarised as JSON.

    python3 benchmarks/bench_pairs.py --base /path/to/parent/checkout \
        --workload stability-scan --seeds 501-510 --claim work_per_s \
        --control blowup-n4096 --control-seeds 511-513 --out BENCH_x.json

Each seed is one pair: `perfbench/run.py --workload W --seed S --seconds T
--trace 0` run once in the base checkout and once in this one, each in its
own process, with the side that runs first alternating from pair to pair.
For every end-to-end metric the JSON holds each side's runs, median and
quartiles (`statistics.quantiles`, inclusive method, which is numpy's
linear percentile), the number of pairs the change won, and how much
worse the change's median is than the base's, relative to the base's
(`worse_by`, negative when it is better), next to the metric's `bound`
from BENCHMARK.json and a `within_bound` flag.  `resolved` is false when
the base's interquartile distance exceeds `bound` times its median, so
that the runs spread too widely to tell a change of the bound's size,
unless every head run beats every base run.  For the `--claim` metric
it also holds the median gain next to the base's interquartile distance,
and `met`: the change won at least 9 of 10 pairs, its median gain, in
the metric's better direction, exceeds that distance, its runs failed
no more operations than the base's, and both sides ran the same benchmark.
`bench_digest` holds each side's SHA-256 over `BENCHMARK.json` and every
file under `perfbench/` but `__pycache__`, by relative path; a claim
whose digests differ is not met.  A claim needs at least 10 pairs;
`--claim` with fewer seeds exits 2 before any run, as do a `--claim` that
is no end-to-end metric of BENCHMARK.json and a `--workload` or
`--control` that perfbench/workloads.py does not define.  `--control` runs a
second workload the same way, with no claim, under the key "control"
(it needs its own `--control-seeds`), and
`--kernel` adds `benchmarks/bench_kernel.py`'s microseconds per step of
both src/ trees under the key "kernel".  The base must be a git checkout
(`git clone`, or `git worktree add --detach`): both commits are resolved
before the first run, and a base outside a git work tree exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from bench_kernel import commits, compare, machine, numpy_version

ROOT = Path(__file__).resolve().parent.parent
CLAIM_PAIRS = 10
END_TO_END = {
    m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def bench_digest(checkout: Path) -> str:
    """SHA-256 of the benchmark a checkout runs: BENCHMARK.json and perfbench/."""
    files = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    digest = hashlib.sha256()
    for path in sorted(p for p in files if p.is_file() and "__pycache__" not in p.parts):
        name = path.relative_to(checkout).as_posix().encode()
        digest.update(name + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def defined_workloads() -> set[str]:
    """The workload names of perfbench/workloads.py, which imports only the standard library."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return set(workloads.WORKLOADS)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True, cwd=checkout,
    )  # the child's stderr, its tracebacks and failed checks, reaches the terminal
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(runs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def pairs(base: Path, workload: str, seeds: list[int], seconds: float,
          claim: str | None) -> dict:
    sides = {"base": base, "head": ROOT}
    results = {"base": [], "head": []}
    first = {}
    for i, seed in enumerate(seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        first[str(seed)] = order[0]
        for side in order:
            results[side].append(run_once(sides[side], workload, seed, seconds))
            res = results[side][-1]
            print(f"{workload} seed {seed} {side}: "
                  f"wall_s {res['metrics']['wall_s']['value']:.4g}, "
                  f"failed {res['failed']}/{res['attempted']}", file=sys.stderr)
    metrics = {}
    for name in results["base"][0]["metrics"]:
        runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in sides}
        sign = 1 if END_TO_END[name]["better"] == "higher" else -1
        wins = sum(sign * (h - b) > 0 for b, h in zip(runs["base"], runs["head"]))
        metrics[name] = m = {side: spread(runs[side]) for side in sides}
        worse_by = -sign * (m["head"]["median"] - m["base"]["median"]) / m["base"]["median"]
        bound = END_TO_END[name]["bound"]
        base_iqr = m["base"]["q3"] - m["base"]["q1"]
        head_beats_all = (min(sign * h for h in runs["head"])
                          > max(sign * b for b in runs["base"]))
        m.update(head_wins=wins, worse_by=worse_by, bound=bound,
                 within_bound=worse_by <= bound,
                 resolved=base_iqr <= bound * abs(m["base"]["median"]) or head_beats_all)
    record = {
        "command": f"python3 perfbench/run.py --workload {workload} "
                   f"--seed SEED --seconds {seconds:g} --trace 0",
        "workload": workload,
        "pairs": len(seeds),
        "seeds": seeds,
        "first_in_pair": first,
        "quartiles": "statistics.quantiles, inclusive method (linear "
                     "interpolation), of the runs per side",
        "metrics": metrics,
        "bench_digest": {side: bench_digest(sides[side]) for side in sides},
        "failed_attempted": {
            side: [[r["failed"], r["attempted"]] for r in results[side]]
            for side in sides
        },
    }
    if claim is not None:
        m = metrics[claim]
        gain = m["head"]["median"] - m["base"]["median"]
        base_iqr = m["base"]["q3"] - m["base"]["q1"]
        sign = 1 if END_TO_END[claim]["better"] == "higher" else -1
        failed = {side: sum(r["failed"] for r in results[side]) for side in sides}
        same_bench = len(set(record["bench_digest"].values())) == 1
        record["claim"] = {
            "metric": claim,
            "head_wins": m["head_wins"],
            "median_gain": gain,
            "base_iqr": base_iqr,
            "same_bench": same_bench,
            "met": (m["head_wins"] >= 0.9 * len(seeds) and sign * gain > base_iqr
                    and failed["head"] <= failed["base"] and same_bench),
        }
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout of the parent commit (holding src/ and perfbench/)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="one seed per pair, as FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--claim", help="end-to-end metric the change claims")
    parser.add_argument("--control", help="second workload, run without a claim")
    parser.add_argument("--control-seeds", type=seed_range,
                        help="one seed per control pair, as FIRST-LAST")
    parser.add_argument("--kernel", action="store_true",
                        help="also time both src/ trees with benchmarks/bench_kernel.py")
    parser.add_argument("--change", default="", help="one line saying what changed")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if (args.control is None) != (args.control_seeds is None):
        parser.error("--control and --control-seeds must be given together")
    if args.claim is not None and args.claim not in END_TO_END:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric of "
                     f"BENCHMARK.json ({', '.join(END_TO_END)})")
    if args.claim is not None and len(args.seeds) < CLAIM_PAIRS:
        parser.error(f"--claim needs at least {CLAIM_PAIRS} seeds, got {len(args.seeds)}")
    workloads = defined_workloads()
    for flag, name in (("--workload", args.workload), ("--control", args.control)):
        if name is not None and name not in workloads:
            parser.error(f"{flag} {name!r} is not a workload of perfbench/workloads.py "
                         f"({', '.join(sorted(workloads))})")
    provenance = commits(parser, args.base)

    report = {"change": args.change,
              **pairs(args.base, args.workload, args.seeds, args.seconds, args.claim)}
    report.update(
        **provenance,
        machine=machine(),
        python=platform.python_version(),
        numpy=numpy_version(),
    )
    if args.control:
        report["control"] = pairs(
            args.base, args.control, args.control_seeds, args.seconds, None
        )
    if args.kernel:
        report["kernel"] = compare(args.base / "src", provenance)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
