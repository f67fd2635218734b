"""Check that the benchmark is steady: two sets of runs must agree.

    python3 perfbench/steady.py [--workload NAME ...]

For each workload, each of two sets runs `run.py` once per seed (seeds
1..10) with the `run_seconds` of BENCHMARK.json.  For every end-to-end
metric it prints each set's median and its spread, the distance between
the first and third quartile as a share of the median, and checks that

* every spread except that of `setup_s` is within the metric's bound, and
* the two set medians differ, in either direction, by no more than the
  bound, as a share of the first.

It then makes a traced run of seed 1 twice and checks that the
deterministic per-layer metrics (calls, operation counts, sizes, failures
and shares; every unit but time and `trace.overhead`) repeat exactly.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "bits", "share")
SEEDS = 10
SETS = 2


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong verdict")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def check_timings(spec, workload):
    ok = True
    values = {m["name"]: [[] for _ in range(SETS)] for m in spec["end_to_end"]}
    for s in range(SETS):
        for seed in range(1, SEEDS + 1):
            metrics = run(workload, seed, spec["run_seconds"], 0)["metrics"]
            for name in values:
                values[name][s].append(metrics[name]["value"])
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = [statistics.median(v) for v in values[name]]
        spreads = [spread(v) for v in values[name]]
        drift = max(abs(x - medians[0]) / medians[0] for x in medians)
        passed = drift <= bound and (name == "setup_s" or max(spreads) <= bound)
        ok &= passed
        print(
            f"{workload:13s} {name:14s} medians "
            + " ".join(f"{x:10.4f}" for x in medians)
            + "  spreads " + " ".join(f"{x:6.3f}" for x in spreads)
            + f"  bound {bound:.2f}  {'ok' if passed else 'FAIL'}"
        )
    return ok


def check_counts(spec, workload):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    first, second = (run(workload, 1, spec["run_seconds"], 1)["metrics"] for _ in range(2))
    differing = [
        name for name, unit in units.items()
        if unit in EXACT_UNITS and first[name]["value"] != second[name]["value"]
    ]
    print(f"{workload:13s} seed 1 per-layer counts "
          + ("repeat exactly" if not differing else f"DIFFER: {differing}"))
    return not differing


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or names:
        ok &= check_timings(spec, workload)
        ok &= check_counts(spec, workload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
