"""Tests of the benchmark's own arithmetic and inputs.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchpath import use_checkout_source  # noqa: E402

use_checkout_source()

import pytest  # noqa: E402

from benchstats import (  # noqa: E402
    highest_supported_percentile,
    latency_summary,
    percentile,
    samples_beyond,
    self_times,
)
from checks import Checker  # noqa: E402
from hostspeed import ReferenceClock  # noqa: E402
import layers  # noqa: E402
from queries import (  # noqa: E402
    ServeMix,
    routed_dp_queries,
    routed_milp_query,
    serve_schedule,
)
from spans import Tracer  # noqa: E402


# -- BENCHMARK.json ------------------------------------------------------

def test_benchmark_json_names_what_run_reports():
    import json

    import layers
    import run
    from benchpath import ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        layers.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# -- percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (99, None), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_has_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(round(expected * 1000), n) >= 10


def test_latency_summary_reports_median_without_tail_below_100():
    summary = latency_summary([5.0, 1.0, 3.0])
    assert summary == {"n": 3, "p50": 3.0, "tail_pct": None, "tail": None}


def test_latency_summary_tail_is_nearest_rank():
    values = list(range(1, 101))
    summary = latency_summary(values)
    assert summary["tail_pct"] == 90.0
    assert summary["tail"] == 90
    assert percentile(values, 50) == 50
    assert sum(v > summary["tail"] for v in values) == 10


# -- self time ------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        (1, None, 0.0, 10.0),
        (2, 1, 1.0, 4.0),
        (3, 2, 2.0, 3.0),
    ]
    result = self_times(spans)
    assert result[1] == pytest.approx(7.0)
    assert result[2] == pytest.approx(2.0)
    assert result[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        (1, None, 0.0, 10.0),
        (2, 1, 1.0, 4.0),
        (3, 1, 3.0, 6.0),
        (4, 1, 9.0, 12.0),
    ]
    result = self_times(spans)
    # Children cover [1, 6] and [9, 10] of the parent's interval.
    assert result[1] == pytest.approx(4.0)
    assert result[4] == pytest.approx(3.0)


def test_summarize_marks_unreached_layers_unmeasured():
    tracer = Tracer()
    tracer.sample("milp.nodes", 0)
    metrics = layers.summarize(tracer, 3, {"serve.rejected_frac": 0.0})
    assert set(metrics) == set(layers.PER_LAYER)
    # Measured zeros stay numbers; layers never reached are None.
    assert metrics["milp.nodes"] == 0.0
    assert metrics["serve.rejected_frac"] == 0.0
    assert metrics["dp.selinger_ms"] is None
    assert metrics["api.routed_milp_frac"] is None
    assert metrics["plans.self_ms"] is None


# -- seeded inputs --------------------------------------------------------

def test_routed_milp_queries_repeat():
    first = [routed_milp_query(i) for i in range(4)]
    again = [routed_milp_query(i) for i in range(4)]
    assert first == again
    assert [q.num_tables for q in first] == [13, 14, 15, 13]
    assert [q.name for q in first] == [
        "milp-0-grid13", "milp-1-cycle14", "milp-2-chain15", "milp-3-grid13",
    ]


def test_routed_dp_queries_repeat_per_seed():
    def take(seed, count=40):
        stream = routed_dp_queries(seed)
        return [next(stream) for _ in range(count)]

    assert take(7) == take(7)
    assert take(7) != take(8)
    assert all(4 <= q.num_tables <= 12 for q in take(7)[6:])


def test_serve_schedule_repeats_per_seed_with_exact_mix():
    mix = ServeMix(rates=(10.0, 30.0), rung_seconds=2.0)
    first = serve_schedule(5, mix)
    again = serve_schedule(5, mix)
    key = [(r.due, r.kind, r.algorithm, r.deadline, r.query) for r in first]
    assert key == [
        (r.due, r.kind, r.algorithm, r.deadline, r.query) for r in again
    ]
    assert [r.due for r in first] == sorted(r.due for r in first)
    assert len(first) == 80
    rung1 = [r for r in first if r.rung == 1]
    assert len(rung1) == 60
    assert sum(r.kind == "hot" for r in rung1) == 32
    milp = [r for r in first if r.kind == "milp-deadline"]
    assert [r.rung for r in milp] == [0, 1]
    assert all(0.5 <= r.due - 2.0 * r.rung <= 1.5 for r in milp)
    assert serve_schedule(6, mix) != first


# -- tracer ---------------------------------------------------------------

def test_tracer_patches_the_callers_binding_and_restores_it():
    module = types.SimpleNamespace(work=lambda x: x * 2)

    def caller(x):
        return module.work(x)

    tracer = Tracer()
    original = module.work
    tracer.wrap_function(module, "work", "layer.work")
    tracer.enabled = True
    tracer.set_request("r1")
    assert caller(4) == 8
    tracer.uninstall()
    assert module.work is original
    assert caller(5) == 10
    assert [(s.name, s.request) for s in tracer.spans] == [
        ("layer.work", "r1")
    ]


def test_tracer_method_wrapper_nests_spans():
    class Inner:
        def run(self):
            return 1

    class Outer:
        def run(self):
            return Inner().run() + 1

    tracer = Tracer()
    tracer.wrap_method(Outer, "run", "outer.run")
    tracer.wrap_method(Inner, "run", "inner.run")
    tracer.enabled = True
    assert Outer().run() == 2
    tracer.uninstall()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner.run"].parent == by_name["outer.run"].span_id
    selfs = tracer.self_time_by_name()
    assert selfs["outer.run"] <= by_name["outer.run"].duration


# -- host speed -----------------------------------------------------------

def test_reference_clock_samples_on_cpu_time_and_restores_the_handler():
    import signal
    import time

    handler = signal.getsignal(signal.SIGPROF)
    with ReferenceClock() as clock:
        start = time.process_time()
        while time.process_time() - start < 0.8:
            pass
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    # One run on entry, one on exit, and the timer's runs in between.
    assert len(clock.samples) >= 4
    assert clock.spent_s == pytest.approx(sum(clock.samples))
    assert clock.scale() > 0


# -- correctness check ----------------------------------------------------

def test_checker_accepts_an_exact_answer_and_rejects_a_wrong_cost():
    from dataclasses import replace

    from repro.api import OptimizerService

    query = routed_milp_query(0)
    small = next(routed_dp_queries(0))
    service = OptimizerService()
    checker = Checker()
    exact = service.optimize(small, "selinger")
    assert checker.check(small, exact) == (None, 1.0)
    greedy = service.optimize(query, "greedy")
    error, ratio = checker.check(query, greedy)
    assert error is None and ratio >= 1.0
    wrong = replace(greedy, true_cost=greedy.true_cost * 0.5)
    error, _ = checker.check(query, wrong)
    assert error is not None and "recomputed" in error
