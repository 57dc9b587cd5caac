"""Tests of the benchmark itself: seeded inputs, digests, the tail rule,
self-time arithmetic, and that the recorder leaves the program as it was.

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

import layers
import run
from spans import Tracer, child_counts, self_times
from workloads import WORKLOADS, permutation_walk

# a few leading inputs of round 0 per workload, to keep the digest test fast
DIGEST_INPUTS = {"scan-classgroup": 6, "scan-witness": 3, "periods-relarith": 3,
                 "transfer-survey": 8}


@pytest.fixture(scope="module")
def program():
    return run.load_program()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_inputs(program, name):
    wl = WORKLOADS[name]
    ctx = wl.prepare(program)
    for round_id in (0, 3, "warmup"):
        assert wl.round_inputs(ctx, 7, round_id) == wl.round_inputs(ctx, 7, round_id)
    assert wl.round_inputs(ctx, 7, 0) != wl.round_inputs(ctx, 8, 0)
    assert wl.round_inputs(ctx, 7, 0) != wl.round_inputs(ctx, 7, 1)


def _digest(name, seed):
    wl = WORKLOADS[name]
    mods = run.load_program()
    ctx = wl.prepare(mods)
    p = run.Pass()
    inputs = wl.round_inputs(ctx, seed, 0)[: DIGEST_INPUTS[name]]
    outputs = run.run_round(wl, mods, ctx, inputs, p, tracer=None)
    assert p.failed == 0
    assert [msg for out in outputs for msg in wl.check(mods, ctx, out)] == []
    return run.digest(wl, outputs)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_digest(name):
    assert _digest(name, 7) == _digest(name, 7)
    assert _digest(name, 7) != _digest(name, 8)


def test_rounds_meet_every_input_once_before_any_twice(program):
    walked = [x for r in range(4) for x in permutation_walk(list(range(10)), 3, "t", r)]
    assert sorted(walked[:10]) == list(range(10))

    wl = WORKLOADS["scan-witness"]
    ctx = wl.prepare(program)
    bucket = ctx[0]
    assert sorted(wl.round_inputs(ctx, 3, r)[0] for r in range(len(bucket))) == bucket

    wl = WORKLOADS["periods-relarith"]
    ctx = wl.prepare(program)
    (_, conductors, per_round) = ctx["strata"][0]
    seen = [it.q for r in range(-(-len(conductors) // per_round))
            for it in wl.round_inputs(ctx, 3, r) if (it.p, it.n) == (3, 1)]
    assert sorted(seen[: len(conductors)]) == conductors


@pytest.mark.parametrize(
    "n, value, pct, beyond",
    [
        (2000, 1980, 99, 20),
        (1000, 990, 99, 10),  # exactly ten beyond p99 is enough
        (500, 450, 90, 50),  # p99 has 5 beyond, so p90
        (50, 50, 100, 0),  # neither has ten beyond: the maximum
    ],
)
def test_tail_percentile_rule(n, value, pct, beyond):
    values = [float(v) for v in range(n, 0, -1)]  # order must not matter
    assert run.tail_percentile(values) == (value, pct, beyond)


def test_self_time_arithmetic_on_a_span_tree():
    spans = [
        (3, 2, "D", 60, 70),
        (1, 0, "B", 10, 40),
        (2, 0, "C", 50, 90),
        (0, None, "A", 0, 100),
        (5, None, "A", 100, 120),
        (4, 5, "B", 105, 110),
    ]
    calls, self_ns = self_times(spans)
    assert calls == {"A": 2, "B": 2, "C": 1, "D": 1}
    # A: 100 - (30 + 40) + 20 - 5;  B: 30 + 5;  C: 40 - 10;  D: 10
    assert self_ns == {"A": 45, "B": 35, "C": 30, "D": 10}
    roots = sum(end - start for _, parent, _, start, end in spans if parent is None)
    assert sum(self_ns.values()) == roots == 120
    assert child_counts(spans, "D", "C") == 1
    assert child_counts(spans, "B", "C") == 0


def test_tracer_records_nested_spans_and_restores_the_program(program):
    harness, transfer = program.harness, program.transfer
    scan_one, init = harness.scan_one, transfer.FiniteGroup.__init__
    tracer = Tracer()
    with tracer.install(vars(program), layers.TARGETS):
        assert harness.scan_one.__wrapped__ is scan_one
        with tracer.span(layers.ITEM_SPAN):
            harness.scan_one(79, (3,), 100, True)
    assert harness.scan_one is scan_one
    assert transfer.FiniteGroup.__init__ is init
    names = {sid: name for sid, _, name, _, _ in tracer.spans}
    parents = {name: names.get(parent) for _, parent, name, _, _ in tracer.spans}
    assert parents["harness.scan_one"] == layers.ITEM_SPAN
    assert parents["formclass.class_data"] == "harness.scan_one"
    assert parents["normtest.norm_index"] == "normtest.detect_p_divisibility"

    values, _ = layers.layer_metrics(tracer, traced_s=1.0, untraced_s=1.0)
    assert set(values) == set(layers.metric_units())
    assert values["normtest.detect_p_divisibility.calls"] == 1
    assert values["normtest.conductors_checked"] >= 1
    assert 0 < values["quadfield.fundamental_unit.distinct_ratio"] < 1


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
