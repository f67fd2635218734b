"""Tests of the benchmark itself: seeded inputs, verdicts, failure
accounting, span arithmetic and the result format."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import setups  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Query  # noqa: E402


def listing(workload, seed, n_blocks=2):
    return [(q.kind, q.expect, q.data) for b in range(n_blocks) for q in workloads.block(workload, seed, b)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queries_other_seed_other_queries(workload):
    assert listing(workload, 7) == listing(workload, 7)
    assert listing(workload, 7) != listing(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS[:3])
def test_word_problem_blocks_are_half_equal(workload):
    block = workloads.block(workload, 1, 0)
    assert 2 * sum(q.expect is True for q in block) == len(block)


# The cheapest queries of each kind, so the sample stays fast.
SAMPLE = {
    "thompson": lambda q: len(q.data[0]) <= min(
        workloads.TREE_LENGTHS[0], workloads.F_PL_LENGTHS[0], workloads.BRAIDED_LENGTHS[0]
    ) or (q.kind == "vine" and len(q.data[0]) <= 2 * workloads.VINE_DEPTHS[0] + 1),
    "golden_pl": lambda q: len(q.data[0]) <= workloads.GOLDEN_LENGTHS[1],
    "lodha_moore": lambda q: q.kind == "lm_suite" or len(q.data[1]) <= workloads.LM_LENGTHS[0],
    "reidemeister": lambda q: q.kind == "certify" or q.args[0].order <= 12,
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_sample_gets_expected_verdicts(workload):
    ctx = setups.build(workload)
    block = workloads.block(workload, 3, 0)
    workloads.materialize(ctx, block)
    sample = [q for q in block if SAMPLE[workload](q)]
    kinds = {(q.kind, q.expect is True) for q in sample}
    if workload != "reidemeister":
        assert {equal for _, equal in kinds} == {True, False}
    for i, q in enumerate(sample):
        record = run.pose(ctx, q, (0, i))
        assert "failed" not in record, record


def test_wrong_verdict_stops_the_run_naming_the_query():
    ctx = setups.build("golden_pl")
    block = workloads.block("golden_pl", 1, 0)
    workloads.materialize(ctx, block)
    q = min(block, key=lambda q: len(q.data[1]))
    q.expect = not q.expect
    with pytest.raises(run.WrongVerdict, match=r"block 4, query 2: kind golden.*data"):
        run.pose(ctx, q, (4, 2))


def test_exception_counts_as_failed_with_type_and_module():
    from rinfinity import treepairs

    ctx = setups.build("thompson")
    q = Query("tree", True, ("ab", "ab?"), args=((treepairs.X0, treepairs.X1), (treepairs.X0, None)))
    record = run.pose(ctx, q, (0, 0))
    assert record["failed"] == "AttributeError"
    assert record["module"] == "treepairs"


def test_self_time_on_synthetic_nested_spans():
    ticks = iter([0, 2, 5, 6, 7, 8, 9, 10, 20, 21, 24, 30])
    t = tracing.Tracer(clock=lambda: next(ticks))
    outer = t.enter("plmaps.compose", "plmaps")  # 0
    child = t.enter("numbers.__mul__", "numbers", record=False)  # 2
    nested = t.enter("numbers.__add__", "numbers", record=False)  # 5
    t.exit(nested)  # 6
    t.exit(child)  # 7
    sibling = t.enter("intlinalg.smith_normal_form", "intlinalg")  # 8
    t.exit(sibling)  # 9
    t.exit(outer)  # 10
    again = t.enter("plmaps.compose", "plmaps")  # 20
    t.exit(t.enter("numbers.__mul__", "numbers", record=False))  # 21, 24
    t.exit(again)  # 30

    assert t.calls["plmaps.compose"] == 2
    assert t.busy_ns["plmaps.compose"] == 10 + 10
    assert t.self_ns["plmaps.compose"] == (10 - 5 - 1) + (10 - 3)
    assert t.self_ns["numbers.__mul__"] == (5 - 1) + 3
    assert t.layer_busy_ns["numbers"] == 5 + 3  # the nested add is not counted twice
    assert t.busy_ns["numbers.__add__"] == 1
    # only recorded spans are kept, with their parent and query
    assert [s[0] for s in t.spans] == ["plmaps.compose", "intlinalg.smith_normal_form", "plmaps.compose"]
    assert t.spans[1][1:4] == [8, 9, 0]


def test_wrappers_pass_results_and_exceptions_through():
    ctx = setups.build("thompson")
    from rinfinity import braided, braids, treepairs

    x0, x1 = ctx["tree"]["a"], ctx["tree"]["b"]
    plain = treepairs.multiply(x0, x1)
    original = treepairs.multiply
    braid_equal = braids.braid_equal
    is_identity, leaf_count = braided.is_identity, treepairs.leaf_count
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert treepairs.multiply is not original
        assert braided.braid_equal is braids.braid_equal is not braid_equal
        assert braided.is_identity is not is_identity  # every public function
        assert treepairs.leaf_count is leaf_count  # but not a self-recursive one
        assert treepairs.multiply(x0, x1) == plain
        with pytest.raises(AttributeError):
            treepairs.multiply(x0, None)
    assert treepairs.multiply is original
    assert tracer.calls["treepairs.multiply"] == 2
    assert tracer.calls["treepairs.expansion"] > 0  # internal calls are caught


def test_layer_metrics_cover_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [m for m, _, _ in tracing.PER_LAYER]
    metrics = tracing.layer_metrics(tracing.Tracer(), {}, set(), 1.0)
    assert list(metrics) == names


def test_fails_without_the_library():
    # A directory holding only BENCHMARK.json and the benchmark, kept inside
    # the checkout's ignored output directory.
    bare = BENCH.parent / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "thompson", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
