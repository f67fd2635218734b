"""Spans around the library's public functions, installed from outside.

`installed(tracer)` wraps every public module-level function of the
`rinfinity` modules (a name without a leading `_`, defined in that
module) by replacing the module attribute, and restores them on exit.  A wrapper records a span (name, start, end,
parent span, query id), counts the call, and passes results and
exceptions through unchanged.  Because the module attribute itself is
replaced, calls the library makes internally are caught too (`multiply`
calling `expansion`, `twisted_classes` calling `is_automorphism`), and
every other module's imported binding of the same function object is
replaced as well (`braided.braid_equal`, `reidemeister.smith_normal_form`).

`ExactNumber` operators and `WordMachine.push` are wrapped on their
classes.  A run makes millions of those calls, and hundreds of thousands
of the tree constructors in COUNTED_ONLY, so their spans are folded into
counters at the same boundary instead of being kept one by one; their
time still counts as child time of the enclosing span.
Self-recursive functions, those that look up their own name as a global
(`leaf_count`, `refine`, `power`), are never wrapped.

Spans stay in memory; `write_spans` writes them out when the run ends.
"""

from __future__ import annotations

import dis
import functools
import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = (
    "numbers",
    "plmaps",
    "treepairs",
    "braids",
    "braided",
    "lodha_moore",
    "finite_groups",
    "intlinalg",
    "reidemeister",
)

# Public functions whose spans are counted but not kept.
COUNTED_ONLY = ("treepairs.caret", "treepairs.add_caret")

NUMBER_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
    "sign", "__lt__", "__le__", "__gt__", "__ge__", "__eq__",
)


class Tracer:
    """Open spans on a stack; closed ones in `spans` and in per-name sums.

    A name's busy time sums its outermost spans, and a layer's sums the
    spans not nested in another span of the same layer, so nested calls
    are not counted twice.  Self time is a span's duration minus the
    durations of its direct child spans, which in one synchronous thread
    lie inside it and do not overlap.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack = []  # [name, layer, start, child_ns, span index or -1, recorded ancestor]
        self.spans = []  # [name, start, end, parent span index, query id]
        self.query = -1
        self.calls = Counter()
        self.busy_ns = Counter()
        self.self_ns = Counter()
        self.layer_busy_ns = Counter()
        self.edges = Counter()  # (parent name, child name) -> calls
        self.counts = Counter()  # counts recorded by observers
        self.sizes = {}  # size name -> [max, total, samples]
        self._open_names = Counter()
        self._open_layers = Counter()

    def enter(self, name, layer, record=True):
        parent = self.stack[-1] if self.stack else None
        ancestor = parent[5] if parent else -1
        index = -1
        if record:
            index = len(self.spans)
            self.spans.append([name, 0, 0, ancestor, self.query])
            self.edges[(parent[0] if parent else None, name)] += 1
        frame = [name, layer, 0, 0, index, index if record else ancestor]
        self.stack.append(frame)
        self._open_names[name] += 1
        self._open_layers[layer] += 1
        frame[2] = self.clock()
        return frame

    def exit(self, frame):
        end = self.clock()
        name, layer, start, child_ns, index, _ = frame
        if self.stack.pop() is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        self._open_names[name] -= 1
        if not self._open_names[name]:
            self.busy_ns[name] += duration
        self._open_layers[layer] -= 1
        if not self._open_layers[layer]:
            self.layer_busy_ns[layer] += duration
        if self.stack:
            self.stack[-1][3] += duration
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end

    def size(self, name, value):
        entry = self.sizes.setdefault(name, [value, 0, 0])
        entry[0] = max(entry[0], value)
        entry[1] += value
        entry[2] += 1


def _wrap(tracer, name, layer, fn, record, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, layer, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return wrapper


# --- observers: counts and sizes read at the wrapper boundary ---------------


def _number_observer(ExactNumber):
    """Counts operations with an irrational operand, and the largest
    numerator or denominator, in bits, of any result."""

    def observe(tracer, args, result):
        if any(type(a) is ExactNumber and a.b for a in args):
            tracer.counts["numbers.quadratic_ops"] += 1
        if type(result) is ExactNumber:
            a, b = result.a, result.b
            bits = max(
                a.numerator.bit_length(),
                a.denominator.bit_length(),
                b.numerator.bit_length(),
                b.denominator.bit_length(),
            )
            if bits > tracer.counts["numbers.max_bits"]:
                tracer.counts["numbers.max_bits"] = bits

    return observe


def _observe_automorphisms(tracer, args, result):
    g = args[0]
    orders = g.element_orders
    candidates = 1
    for a in g.generating_sequence:
        candidates *= sum(1 for b in orders if b == orders[a])
    tracer.counts["finite_groups.candidates"] += candidates
    tracer.counts["finite_groups.automorphisms_found"] += len(result)


def _observe_certificate(tracer, args, result):
    tracer.counts["reidemeister.certified"] += int(result.ok)


OBSERVERS = {
    "plmaps.compose": lambda t, a, r: t.size("plmaps.breakpoints", len(r.breakpoints)),
    "treepairs.multiply": lambda t, a, r: t.size("treepairs.leaves", r.n_leaves),
    "braids.braid_equal": lambda t, a, r: t.size(
        "braids.letters", max(len(a[0].letters), len(a[1].letters))
    ),
    "braided.multiply": lambda t, a, r: t.size("braided.strands", r.n_strands),
    "lodha_moore.equal_up_to_depth": lambda t, a, r: t.size(
        "lodha_moore.letters", max(len(a[0].letters), len(a[1].letters))
    ),
    "intlinalg.smith_normal_form": lambda t, a, r: t.size(
        "intlinalg.snf_dim", max(a[0].nrows, a[0].ncols)
    ),
    "finite_groups.automorphisms": _observe_automorphisms,
    "reidemeister.fixed_vector_certificate": _observe_certificate,
}


def self_recursive(fn):
    return any(
        ins.opname == "LOAD_GLOBAL" and ins.argval == fn.__name__
        for ins in dis.get_instructions(fn)
    )


def public_functions(module):
    """The module's own public functions that may be wrapped."""
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and not name.startswith("_")
        and fn.__module__ == module.__name__
        and not self_recursive(fn)
    }


@contextmanager
def installed(tracer):
    """Wrap the library for the duration of the block."""
    modules = {layer: importlib.import_module(f"rinfinity.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name, fn in public_functions(module).items():
            span = f"{layer}.{name}"
            record = span not in COUNTED_ONLY
            wrappers[fn] = _wrap(tracer, span, layer, fn, record, OBSERVERS.get(span))
    patches = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrappers:
                patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    number = modules["numbers"].ExactNumber
    observe_number = _number_observer(number)
    for op in NUMBER_OPS:
        fn = vars(number)[op]
        patches.append((number, op, fn))
        setattr(number, op, _wrap(tracer, f"numbers.{op}", "numbers", fn, False, observe_number))
    machine = modules["lodha_moore"].WordMachine
    patches.append((machine, "push", machine.push))
    machine.push = _wrap(tracer, "lodha_moore.push", "lodha_moore", machine.push, False, None)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


# --- per-layer metrics --------------------------------------------------------

# (metric, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = (
    ("numbers.ops", "count", "lower"),
    ("numbers.busy_s", "s", "lower"),
    ("numbers.quadratic_ops_share", "share", "lower"),
    ("numbers.max_bits", "bits", "lower"),
    ("numbers.failed", "count", "lower"),
    ("plmaps.compose.calls", "count", "lower"),
    ("plmaps.compose.busy_s", "s", "lower"),
    ("plmaps.compose.self_s", "s", "lower"),
    ("plmaps.breakpoints_max", "count", "lower"),
    ("plmaps.breakpoints_mean", "count", "lower"),
    ("plmaps.endpoint_characters.busy_s", "s", "lower"),
    ("plmaps.failed", "count", "lower"),
    ("treepairs.multiply.calls", "count", "lower"),
    ("treepairs.multiply.busy_s", "s", "lower"),
    ("treepairs.multiply.self_s", "s", "lower"),
    ("treepairs.expansion.calls", "count", "lower"),
    ("treepairs.expansion.busy_s", "s", "lower"),
    ("treepairs.reduce.calls", "count", "lower"),
    ("treepairs.reduce.busy_s", "s", "lower"),
    ("treepairs.leaves_max", "count", "lower"),
    ("treepairs.leaves_mean", "count", "lower"),
    ("treepairs.failed", "count", "lower"),
    ("braids.braid_equal.calls", "count", "lower"),
    ("braids.braid_equal.busy_s", "s", "lower"),
    ("braids.handle_reduce.calls", "count", "lower"),
    ("braids.handle_reduce.busy_s", "s", "lower"),
    ("braids.screen_share", "share", "higher"),
    ("braids.letters_max", "count", "lower"),
    ("braids.failed", "count", "lower"),
    ("braided.multiply.calls", "count", "lower"),
    ("braided.multiply.busy_s", "s", "lower"),
    ("braided.expansion.calls", "count", "lower"),
    ("braided.equal.busy_s", "s", "lower"),
    ("braided.strands_max", "count", "lower"),
    ("braided.failed", "count", "lower"),
    ("lodha_moore.equal_up_to_depth.calls", "count", "lower"),
    ("lodha_moore.equal_pairs.busy_s", "s", "lower"),
    ("lodha_moore.distinct_pairs.busy_s", "s", "lower"),
    ("lodha_moore.push.calls", "count", "lower"),
    ("lodha_moore.evaluate_prefix.calls", "count", "lower"),
    ("lodha_moore.letters_max", "count", "lower"),
    ("lodha_moore.failed", "count", "lower"),
    ("finite_groups.automorphisms.calls", "count", "lower"),
    ("finite_groups.automorphisms.busy_s", "s", "lower"),
    ("finite_groups.candidates", "count", "lower"),
    ("finite_groups.aut_yield", "share", "higher"),
    ("finite_groups.twisted_classes.calls", "count", "lower"),
    ("finite_groups.twisted_classes.busy_s", "s", "lower"),
    ("finite_groups.is_automorphism.busy_s", "s", "lower"),
    ("finite_groups.failed", "count", "lower"),
    ("intlinalg.smith_normal_form.calls", "count", "lower"),
    ("intlinalg.smith_normal_form.busy_s", "s", "lower"),
    ("intlinalg.snf_dim_max", "count", "lower"),
    ("intlinalg.reidemeister_number_abelian.busy_s", "s", "lower"),
    ("intlinalg.failed", "count", "lower"),
    ("reidemeister.fixed_vector_certificate.calls", "count", "lower"),
    ("reidemeister.fixed_vector_certificate.busy_s", "s", "lower"),
    ("reidemeister.certified", "count", "higher"),
    ("reidemeister.failed", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

_SIZE_MAX = {
    "plmaps.breakpoints_max": "plmaps.breakpoints",
    "treepairs.leaves_max": "treepairs.leaves",
    "braids.letters_max": "braids.letters",
    "braided.strands_max": "braided.strands",
    "lodha_moore.letters_max": "lodha_moore.letters",
    "intlinalg.snf_dim_max": "intlinalg.snf_dim",
}
_SIZE_MEAN = {
    "plmaps.breakpoints_mean": "plmaps.breakpoints",
    "treepairs.leaves_mean": "treepairs.leaves",
}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, failures, equal_queries, overhead):
    """Every PER_LAYER metric from a finished traced pass.

    `failures` maps a module name to the queries that raised in it;
    `equal_queries` is the set of query ids whose pair is equal by
    construction.  Layers the workload never calls read 0.
    """
    values = {}
    for metric, _, _ in PER_LAYER:
        layer, _, rest = metric.partition(".")
        if rest == "failed":
            values[metric] = failures.get(layer, 0)
        elif metric in _SIZE_MAX:
            values[metric] = tracer.sizes.get(_SIZE_MAX[metric], [0])[0]
        elif metric in _SIZE_MEAN:
            _, total, samples = tracer.sizes.get(_SIZE_MEAN[metric], [0, 0, 0])
            values[metric] = _ratio(total, samples)
        elif rest.endswith(".calls"):
            values[metric] = tracer.calls[metric[: -len(".calls")]]
        elif rest.endswith(".busy_s"):
            values[metric] = tracer.busy_ns[metric[: -len(".busy_s")]] / 1e9
        elif rest.endswith(".self_s"):
            values[metric] = tracer.self_ns[metric[: -len(".self_s")]] / 1e9

    numbers_ops = sum(tracer.calls[f"numbers.{op}"] for op in NUMBER_OPS)
    be_calls = tracer.calls["braids.braid_equal"]
    screened = be_calls - tracer.edges[("braids.braid_equal", "braids.handle_reduce")]
    pair_ns = {True: 0, False: 0}
    for name, start, end, _, query in tracer.spans:
        if name == "lodha_moore.equal_up_to_depth":
            pair_ns[query in equal_queries] += end - start
    values.update(
        {
            "numbers.ops": numbers_ops,
            "numbers.busy_s": tracer.layer_busy_ns["numbers"] / 1e9,
            "numbers.quadratic_ops_share": _ratio(
                tracer.counts["numbers.quadratic_ops"], numbers_ops
            ),
            "numbers.max_bits": tracer.counts["numbers.max_bits"],
            "braids.screen_share": _ratio(screened, be_calls),
            "lodha_moore.equal_pairs.busy_s": pair_ns[True] / 1e9,
            "lodha_moore.distinct_pairs.busy_s": pair_ns[False] / 1e9,
            "finite_groups.candidates": tracer.counts["finite_groups.candidates"],
            "finite_groups.aut_yield": _ratio(
                tracer.counts["finite_groups.automorphisms_found"],
                tracer.counts["finite_groups.candidates"],
            ),
            "reidemeister.certified": tracer.counts["reidemeister.certified"],
            "trace.overhead": overhead,
        }
    )
    return {metric: {"value": values[metric], "unit": unit} for metric, unit, _ in PER_LAYER}


def write_spans(tracer, path):
    """One JSON array per line: name, start ns, end ns, parent span, query."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")
