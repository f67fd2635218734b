"""Run one workload of the rinfinity benchmark and print its metrics.

    python3 perfbench/run.py --workload thompson --seed 1 --seconds 20 --trace 0

One client poses seeded queries in a closed loop: the next query is posed
only after the previous verdict returns.  Every verdict is checked against
the answer known by construction; a wrong one stops the run.  A query
that raises counts as failed, with its exception type and the library
module it was raised in, and the run goes on.

With `--trace 0` the run measures whole blocks of queries until
`--seconds` have passed and reports the end-to-end metrics.  With
`--trace 1` it poses a fixed number of blocks, set by `--seconds`, first
untraced and then with every public library function wrapped
(tracing.py), and reports the per-layer metrics; the fixed count makes
the per-layer counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it names
the environment and the results file, which holds every query with its
sizes and latency, under `.bench_out/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import setups
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = setups.repo_root()
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7
MIN_QUERIES = 100  # so that at least ten samples lie beyond p90
# Seconds one block takes at the commit that defined the benchmark (2-core
# x86 machine, Python 3.11).  They fix the traced run's block count,
# nothing else.
BLOCK_SECONDS = {"thompson": 1.5, "golden_pl": 1.1, "lodha_moore": 0.3, "reidemeister": 1.6}


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def failing_module(exc):
    """The innermost rinfinity module in the exception's traceback."""
    module = "perfbench"
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("rinfinity."):
            module = name.split(".")[1]
        tb = tb.tb_next
    return module


class WrongVerdict(Exception):
    pass


def pose(ctx, q, where):
    """Pose one query; return its record.  Raises WrongVerdict."""
    start = time.perf_counter_ns()
    try:
        verdict, evidence = workloads.CALLS[q.kind](ctx, q)
    except Exception as exc:  # a failed query is recorded, not fatal
        elapsed = time.perf_counter_ns() - start
        return {
            "where": where,
            "kind": q.kind,
            "ns": elapsed,
            "expect": repr(q.expect),
            "failed": type(exc).__name__,
            "module": failing_module(exc),
            "sizes": q.sizes,
        }
    elapsed = time.perf_counter_ns() - start
    if not workloads.check(q, verdict, evidence):
        raise WrongVerdict(
            f"wrong verdict at block {where[0]}, query {where[1]}: kind {q.kind}, "
            f"expected {q.expect!r}, got {verdict!r}, data {q.data!r}"
        )
    return {
        "where": where,
        "kind": q.kind,
        "ns": elapsed,
        "expect": repr(q.expect),
        "sizes": {**q.sizes, **workloads.output_sizes(q, evidence)},
    }


def run_blocks(ctx, workload, seed, first, count=None, seconds=None, tracer=None):
    """Pose blocks first, first + 1, ... of the seed in order, each
    generated and materialized just before it is posed: `count` blocks,
    or, with `seconds`, blocks until that much time has passed and at
    least MIN_QUERIES were posed.  Returns the records."""
    records = []
    start = time.perf_counter()
    b = first
    while True:
        block = workloads.block(workload, seed, b)
        workloads.materialize(ctx, block)
        for i, q in enumerate(block):
            if tracer is not None:
                tracer.query = len(records)
            records.append(pose(ctx, q, (b, i)))
        b += 1
        if seconds is None:
            if b - first == count:
                return records
        elif time.perf_counter() - start >= seconds and len(records) >= MIN_QUERIES:
            return records


def prepared(workload, seed):
    """The workload's context, after one warm-up block."""
    ctx = setups.build(workload)
    run_blocks(ctx, workload, seed, -1, count=1)
    return ctx


def query_seconds(records):
    return sum(r["ns"] for r in records) / 1e9


def measured_run(args):
    # Set-up is probed before and after the queries, so that its median
    # samples the machine over the whole run.
    setup = [probe_setup(args.workload) for _ in range(SETUP_PROBES // 2)]
    ctx = prepared(args.workload, args.seed)
    records = run_blocks(ctx, args.workload, args.seed, 0, seconds=args.seconds)
    setup += [probe_setup(args.workload) for _ in range(SETUP_PROBES - len(setup))]
    ms = sorted(r["ns"] / 1e6 for r in records)
    answered = sum(1 for r in records if "failed" not in r)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "query_p50_ms": (statistics.median(ms), "ms"),
        "query_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "queries_per_s": (answered / query_seconds(records), "1/s"),
        "answered_frac": (answered / len(records), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"setup_probes_s": setup, "queries": records}
    return records, metrics, extra


def traced_run(args):
    n_blocks = max(1, round(args.seconds / BLOCK_SECONDS[args.workload] / 2))
    ctx = prepared(args.workload, args.seed)
    untraced = run_blocks(ctx, args.workload, args.seed, 0, count=n_blocks)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        records = run_blocks(ctx, args.workload, args.seed, 0, count=n_blocks, tracer=tracer)
    failures = {}
    for r in records:
        if "failed" in r:
            failures[r["module"]] = failures.get(r["module"], 0) + 1
    equal = {i for i, r in enumerate(records) if r["expect"] == "True"}
    overhead = query_seconds(records) / query_seconds(untraced)
    metrics = tracing.layer_metrics(tracer, failures, equal, overhead)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracing.write_spans(tracer, spans)
    extra = {"blocks": n_blocks, "spans_file": str(spans.relative_to(ROOT)), "queries": records}
    return records, {k: (v["value"], v["unit"]) for k, v in metrics.items()}, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        setups.import_library()
    except ImportError as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return 2
    env = environment(args)
    run = traced_run if args.trace else measured_run
    try:
        records, metrics, extra = run(args)
    except WrongVerdict as exc:
        print(f"{args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    failed = sum(1 for r in records if "failed" in r)
    result = {
        "correct": True,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": env, **result, **extra}))
    print(json.dumps({"environment": env, "results_file": str(path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
