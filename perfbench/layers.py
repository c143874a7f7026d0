"""Which calls the traced run wraps, and the per-layer metrics it derives.

Every span sits at a public entry point of one module of ``repro``; the
span name is ``<layer>.<call>``, and a layer's self time is the time its
spans cover minus the time their direct child spans cover.

A metric with nothing to measure in a workload is *unmeasured*: no span,
sample or denominator of it occurred, as for the ``serve`` metrics on
the closed loops, ``milp`` on ``routed-dp``, and the shard side of
``serve-sharded``.  :func:`summarize` gives it as ``None``; the result
file lists it under ``unmeasured``, the report prints ``unmeasured``,
and only the final JSON line, which must carry a number for every
metric, shows it as 0.  A measured zero (``milp.nodes`` on
``routed-milp``) stays a number.

Not measurable from outside, and so left for tracing inside the
program: the spans inside shard child processes (their api, core, milp,
dp and plans layers; their cache, LP and basis-pool ratios are read from
the shards' heartbeat stats instead, and their CPU time from the
operating system), and the split of a branch-and-bound solve into root
LP, cut rounds, dives and tree search.
"""

from __future__ import annotations

import math
import statistics
import threading

import numpy as np

#: Per-layer metric names and units, in the order they are reported.
PER_LAYER = {
    "api.routed_milp_frac": "frac",
    "api.signature_ms": "ms",
    "api.cache_hit_rate": "frac",
    "api.self_ms": "ms",
    "core.formulation_ms": "ms",
    "core.model_vars": "count",
    "core.model_rows": "count",
    "core.warmstart_ms": "ms",
    "core.extract_ms": "ms",
    "core.coef_range_log10": "log10",
    "core.self_ms": "ms",
    "milp.standard_form_ms": "ms",
    "milp.bnb_s": "s",
    "milp.nodes": "count",
    "milp.lp_solves": "count",
    "milp.lp_s": "s",
    "milp.lp_ms_per_solve": "ms",
    "milp.lp_pivots": "count",
    "milp.post_deadline_s": "s",
    "milp.beat_seed_frac": "frac",
    "milp.worse_than_seed_frac": "frac",
    "milp.lp_warm_ratio": "frac",
    "milp.self_ms": "ms",
    "dp.greedy_ms": "ms",
    "dp.selinger_ms": "ms",
    "dp.subsets_explored": "count",
    "dp.self_ms": "ms",
    "plans.cost_eval_ms": "ms",
    "plans.cost_evals": "count",
    "plans.self_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_tail": "ms",
    "serve.service_ms_p50": "ms",
    "serve.service_ms_tail": "ms",
    "serve.coalesce_rate": "frac",
    "serve.timed_out_frac": "frac",
    "serve.rejected_frac": "frac",
    "serve.ladder_descents": "count",
    "serve.basis_pool_hit_rate": "frac",
    "serve.workers_replaced": "count",
    "serve.threads_max": "count",
    "serve.cpu_s_per_request": "s",
    "serve.self_ms": "ms",
    "serve.shardwire.encode_us": "us",
    "serve.shardwire.decode_us": "us",
    "serve.shardwire.bytes_per_msg": "bytes",
    "serve.sharded.hub_overhead_ms_p50": "ms",
    "bench.generator_lag_ms_max": "ms",
    "bench.trace_overhead_frac": "frac",
}

#: Layers whose self time is reported, per request.
LAYERS = ("api", "core", "milp", "dp", "plans", "serve")


def _coef_range_log10(form) -> float | None:
    """log10(max / min) of the nonzero |coefficients| of a standard form."""
    parts = [
        np.abs(matrix.data) for matrix in (form.a_ub, form.a_eq)
        if matrix is not None and matrix.nnz
    ]
    if not parts:
        return None
    values = np.concatenate(parts)
    values = values[values > 0]
    if not values.size:
        return None
    return float(math.log10(values.max() / values.min()))


def install(tracer) -> None:
    """Wrap each layer's public entry points (see the module docstring)."""
    import repro.api.adapters as adapters
    import repro.api.service as service
    import repro.core.optimizer as core_optimizer
    import repro.milp.branch_and_bound as bnb
    import repro.serve.server as server
    import repro.serve.sharded as sharded
    import repro.serve.shardwire as shardwire
    from repro.core.formulation import JoinOrderFormulation
    from repro.dp.greedy import GreedyOptimizer
    from repro.dp.selinger import SelingerOptimizer
    from repro.milp.lp_backend import ColdLPSession
    from repro.milp.simplex import SimplexSession
    from repro.plans.cost import PlanCostEvaluator

    local = threading.local()

    def first_arg(args):
        return args[0] if args else None

    def second_arg(args):
        return args[1] if len(args) > 1 else None

    def own_query(args):
        return getattr(args[0], "query", None) if args else None

    # api -----------------------------------------------------------------
    tracer.wrap_method(
        service.OptimizerService, "optimize", "api.optimize",
        query_of=second_arg,
    )
    for module in (service, server, sharded):
        tracer.wrap_function(
            module, "query_signature", "api.signature", query_of=first_arg,
        )

    def after_route(tracer, args, kwargs, routed, seconds):
        tracer.count("api.routes")
        if routed == "milp":
            tracer.count("api.routes_milp")

    tracer.wrap_function(
        adapters, "route_algorithm", "api.route", after=after_route,
        query_of=first_arg,
    )

    # core ----------------------------------------------------------------
    def after_formulation(tracer, args, kwargs, result, seconds):
        model = args[0].model
        tracer.sample("core.model_vars", model.num_variables)
        tracer.sample("core.model_rows", model.num_constraints)

    tracer.wrap_method(
        JoinOrderFormulation, "__init__", "core.formulation",
        after=after_formulation, query_of=second_arg,
    )
    tracer.wrap_function(
        core_optimizer, "assignment_for_plan", "core.warmstart",
    )
    tracer.wrap_function(core_optimizer, "extract_plan", "core.extract")

    def after_core(tracer, args, kwargs, result, seconds):
        seed_plan = getattr(local, "greedy_plan", None)
        local.greedy_plan = None
        if seed_plan is None or result.true_cost is None:
            return
        config = args[0].config
        with tracer.suspended():
            seed_cost = PlanCostEvaluator(
                args[1], config.cost_context(),
                use_cout=config.cost_model == "cout",
            ).cost(seed_plan)
        tracer.count("milp.seeded_solves")
        if result.true_cost < seed_cost * (1 - 1e-9):
            tracer.count("milp.beat_seed")
        elif result.true_cost > seed_cost * (1 + 1e-9):
            tracer.count("milp.worse_than_seed")

    tracer.wrap_method(
        core_optimizer.MILPJoinOptimizer, "optimize", "core.optimize",
        after=after_core, query_of=second_arg,
    )

    # milp ----------------------------------------------------------------
    def after_standard_form(tracer, args, kwargs, form, seconds):
        spread = _coef_range_log10(form)
        if spread is not None:
            tracer.sample("core.coef_range_log10", spread)

    tracer.wrap_function(
        bnb, "to_standard_form", "milp.standard_form",
        after=after_standard_form,
    )

    def after_bnb(tracer, args, kwargs, solution, seconds):
        tracer.sample("milp.nodes", solution.node_count)
        tracer.sample("milp.lp_solves", solution.lp_solves)
        tracer.sample("milp.lp_pivots", solution.lp_pivots)
        limit = args[0].options.time_limit
        tracer.sample("milp.post_deadline_s", max(0.0, seconds - limit))

    tracer.wrap_method(
        bnb.BranchAndBoundSolver, "solve", "milp.bnb", after=after_bnb,
    )
    tracer.wrap_method(ColdLPSession, "solve", "milp.lp_solve")
    tracer.wrap_method(SimplexSession, "solve", "milp.lp_solve")

    # dp ------------------------------------------------------------------
    def after_greedy(tracer, args, kwargs, result, seconds):
        local.greedy_plan = result.plan

    tracer.wrap_method(
        GreedyOptimizer, "optimize", "dp.greedy", after=after_greedy,
        query_of=own_query,
    )

    def after_selinger(tracer, args, kwargs, result, seconds):
        tracer.sample("dp.subsets_explored", result.subsets_explored)

    tracer.wrap_method(
        SelingerOptimizer, "optimize", "dp.selinger", after=after_selinger,
        query_of=own_query,
    )

    # plans ---------------------------------------------------------------
    tracer.wrap_method(
        PlanCostEvaluator, "cost", "plans.cost", query_of=own_query,
    )

    # serve ---------------------------------------------------------------
    tracer.wrap_method(
        server.OptimizationServer, "submit", "serve.submit",
        query_of=second_arg,
    )
    tracer.wrap_method(
        sharded.ShardedOptimizationServer, "submit", "serve.submit",
        query_of=second_arg,
    )

    def after_encode(tracer, args, kwargs, blob, seconds):
        tracer.sample("serve.shardwire.bytes", len(blob))

    def after_decode(tracer, args, kwargs, result, seconds):
        tracer.sample("serve.shardwire.bytes", len(args[0]))

    tracer.wrap_function(
        shardwire, "encode_request", "serve.shardwire.encode",
        after=after_encode,
    )
    tracer.wrap_function(
        shardwire, "decode_message", "serve.shardwire.decode",
        after=after_decode,
    )
    tracer.wrap_function(
        shardwire, "result_from_body", "serve.shardwire.result",
    )


def _mean(values, scale=1.0) -> float | None:
    values = list(values)
    return statistics.fmean(values) * scale if values else None


def _share(part, whole) -> float | None:
    return part / whole if whole else None


def summarize(tracer, requests: int, extra: dict) -> dict:
    """Per-layer metrics from the traced pass; ``None`` marks a metric
    the workload left unmeasured (see the module docstring).

    Times (``_ms``, ``_us``, ``_s``) are means per call of the span named
    after them, except ``milp.lp_s`` (LP time per MILP solve) and the
    ``<layer>.self_ms`` values (self time per request); MILP counts are
    means per MILP solve, ``plans.cost_evals`` is per request, and the
    ``_frac`` values are shares of their own attempts.

    ``requests`` is the number of requests the traced pass attempted;
    ``extra`` carries the values read from the public surface (stats
    snapshots, ``ServeResult`` fields, generator samples) keyed by metric
    name.
    """
    spans = tracer.by_name()
    samples = tracer.samples
    counters = tracer.counters

    def durations(name):
        return [s.duration for s in spans.get(name, ())]

    lp_time = sum(durations("milp.lp_solve"))
    lp_count = len(spans.get("milp.lp_solve", ()))
    bnb_count = len(spans.get("milp.bnb", ()))
    seeded = counters.get("milp.seeded_solves", 0)
    frames = len(spans.get("serve.shardwire.decode", ()))
    decode_time = (
        sum(durations("serve.shardwire.decode"))
        + sum(durations("serve.shardwire.result"))
    )
    cost_evals = len(spans.get("plans.cost", ()))
    metrics = {
        "api.routed_milp_frac": _share(
            counters.get("api.routes_milp", 0), counters.get("api.routes", 0)
        ),
        "api.signature_ms": _mean(durations("api.signature"), 1e3),
        "core.formulation_ms": _mean(durations("core.formulation"), 1e3),
        "core.model_vars": _mean(samples.get("core.model_vars", [])),
        "core.model_rows": _mean(samples.get("core.model_rows", [])),
        "core.warmstart_ms": _mean(durations("core.warmstart"), 1e3),
        "core.extract_ms": _mean(durations("core.extract"), 1e3),
        "core.coef_range_log10": _mean(
            samples.get("core.coef_range_log10", [])
        ),
        "milp.standard_form_ms": _mean(
            durations("milp.standard_form"), 1e3
        ),
        "milp.bnb_s": _mean(durations("milp.bnb")),
        "milp.nodes": _mean(samples.get("milp.nodes", [])),
        "milp.lp_solves": _mean(samples.get("milp.lp_solves", [])),
        "milp.lp_s": _share(lp_time, bnb_count),
        "milp.lp_ms_per_solve": _share(1e3 * lp_time, lp_count),
        "milp.lp_pivots": _mean(samples.get("milp.lp_pivots", [])),
        "milp.post_deadline_s": _mean(samples.get("milp.post_deadline_s", [])),
        "milp.beat_seed_frac": _share(
            counters.get("milp.beat_seed", 0), seeded
        ),
        "milp.worse_than_seed_frac": _share(
            counters.get("milp.worse_than_seed", 0), seeded
        ),
        "dp.greedy_ms": _mean(durations("dp.greedy"), 1e3),
        "dp.selinger_ms": _mean(durations("dp.selinger"), 1e3),
        "dp.subsets_explored": _mean(samples.get("dp.subsets_explored", [])),
        "plans.cost_eval_ms": _mean(durations("plans.cost"), 1e3),
        "plans.cost_evals": (
            _share(cost_evals, requests) if cost_evals else None
        ),
        "serve.submit_ms": _mean(durations("serve.submit"), 1e3),
        "serve.shardwire.encode_us": _mean(
            durations("serve.shardwire.encode"), 1e6
        ),
        "serve.shardwire.decode_us": _share(1e6 * decode_time, frames),
        "serve.shardwire.bytes_per_msg": _mean(
            samples.get("serve.shardwire.bytes", [])
        ),
    }
    self_by_name = tracer.self_time_by_name()
    for layer in LAYERS:
        own = [
            seconds for name, seconds in self_by_name.items()
            if name.rsplit(".", 1)[0] == layer
        ]
        metrics[f"{layer}.self_ms"] = (
            _share(1e3 * sum(own), requests) if own else None
        )
    metrics.update(extra)
    return {
        name: None if metrics.get(name) is None else float(metrics[name])
        for name in PER_LAYER
    }
