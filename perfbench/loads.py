"""The four workloads, each driven through the public surface.

``routed-milp`` and ``routed-dp`` are closed loops: one client sends the
next query when the previous answer is back.  ``serve-mixed`` and
``serve-sharded`` are open loops: one generator thread submits on a
schedule fixed by the seed, whatever the server's state, and every
latency runs from the time a request was due.

A traced run first runs the workload untraced, then replays exactly the
same requests with the layer wrappers installed, so the two passes' CPU
times give the tracing overhead and the per-layer numbers come from the
second pass.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

from benchstats import gmean, latency_summary
from checks import Checker
from hostspeed import ReferenceClock
from queries import (
    ServeMix,
    routed_dp_queries,
    routed_milp_query,
    serve_schedule,
)
import layers
from probe import SERVE_WORKERS, start_server
from spans import Tracer

from repro.api import OptimizerService, OptimizerSettings

#: Optimization budget of every closed-loop request, in seconds.
CLOSED_LOOP_BUDGET_S = 1.0

#: Limit on a rung's tail latency (its highest supported percentile, or
#: its median when it has under 100 requests) for ``sustained_rps``, ms.
LATENCY_LIMIT_MS = 250.0

#: A rung's backlog "grows" when more requests are outstanding at its
#: end than at its start by more than this many seconds of arrivals.
BACKLOG_SLACK_S = 0.25

#: A run is invalid when the open-loop generator falls further behind
#: its schedule than this.  The generator shares the interpreter lock
#: with the server it drives, so a long stretch of pure-Python solving
#: delays it too (about 100 ms at worst seen in serve-mixed); latency is
#: timed from the due time either way.
GENERATOR_LAG_BOUND_MS = 250.0

#: Seconds to wait for stragglers after the last due time.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Answer:
    """One request's outcome, as the benchmark saw it."""

    query: object
    kind: str
    latency_s: float | None
    status: str
    result: object = None
    serve: object = None
    deadline_s: float | None = None
    rung: int = 0
    error: str | None = None
    ratio: float | None = None


@dataclass
class Pass:
    """One pass over a workload's requests."""

    answers: list[Answer] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    threads_max: int = 0
    cpu_s: float = 0.0
    scale: float = 1.0
    reference_samples_s: list[float] = field(default_factory=list)
    serving_cpu_s: float = 0.0
    extra: dict = field(default_factory=dict)
    outstanding: list = field(default_factory=list)
    origin: float = 0.0
    tail_percentiles: dict | None = None


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------

#: Queries every ``routed-milp`` run measures, however long they take.
#: One such query takes 7-25 s, so a run stopped at ``--seconds`` alone
#: measured grid-13 alone whenever it took longer than that, and the
#: run's mix, not the code, set its throughput.
MILP_MIN_QUERIES = 2


def _closed_pass(
    service, queries, seconds=None, tracer=None, checker=None,
    min_queries=1,
) -> Pass:
    """Send ``queries`` one at a time; stop starting new ones once
    ``seconds`` (when given) have passed, answers and their checks
    included, and ``min_queries`` have been sent.

    ``cpu_s`` is the CPU time of this process inside the optimizer calls,
    less the reference kernel's, and ``scale`` the reference seconds per
    CPU second over the pass (see ``hostspeed.py``).  CPU time, not wall
    time, measures the code here: on a shared 2-CPU virtual machine, two
    busy processes beside it stretched the wall time of a fixed set of
    queries by up to a half, and its CPU time by at most a twentieth.

    With a ``checker``, the client computes each query's exact reference
    right after its answer, outside the measured call.
    """
    run = Pass()
    stop = time.perf_counter() + seconds if seconds is not None else None
    with ReferenceClock() as clock:
        for index, query in enumerate(queries):
            if (stop is not None and time.perf_counter() >= stop
                    and index >= min_queries):
                break
            if tracer is not None:
                tracer.set_request(f"r{index}")
            # Start marks without the kernel's runs so far; the kernel
            # runs inside the call when its timer fires there.
            t0 = time.perf_counter() - clock.spent_s
            cpu = time.process_time() - clock.spent_s
            try:
                result = service.optimize(
                    query, "auto", time_limit=CLOSED_LOOP_BUDGET_S
                )
            except Exception as error:  # noqa: BLE001 - counted as failed
                run.cpu_s += time.process_time() - clock.spent_s - cpu
                run.answers.append(Answer(
                    query, "closed", time.perf_counter() - clock.spent_s - t0,
                    "error",
                    error=f"{type(error).__name__}: {error}",
                    deadline_s=CLOSED_LOOP_BUDGET_S,
                ))
                continue
            run.cpu_s += time.process_time() - clock.spent_s - cpu
            run.answers.append(Answer(
                query, "closed", time.perf_counter() - clock.spent_s - t0,
                "completed" if result.has_plan else result.status.value,
                result=result, deadline_s=CLOSED_LOOP_BUDGET_S,
            ))
            if checker is not None:
                checker.reference_cost(query)
        if tracer is not None:
            tracer.set_request(None)
    run.scale = clock.scale()
    run.reference_samples_s = clock.samples
    return run


def run_closed(
    workload: str, seed: int, seconds: float, trace: bool, checker: Checker
):
    """Run ``routed-milp`` or ``routed-dp``; returns the passes."""
    if workload == "routed-milp":
        stream = (routed_milp_query(i) for i in itertools.count())
        min_queries = MILP_MIN_QUERIES
    else:
        stream = routed_dp_queries(seed)
        min_queries = 1
    service = OptimizerService(OptimizerSettings(), max_workers=1)
    untraced = _closed_pass(
        service, stream, seconds, checker=checker, min_queries=min_queries
    )
    if not trace:
        return untraced, None, None
    tracer = Tracer()
    layers.install(tracer)
    fresh = OptimizerService(OptimizerSettings(), max_workers=1)
    tracer.enabled = True
    try:
        traced = _closed_pass(
            fresh, [a.query for a in untraced.answers], tracer=tracer
        )
    finally:
        tracer.uninstall()
    traced.extra = {
        "api.cache_hit_rate": (
            fresh.stats.hit_rate if fresh.stats.requests else None
        ),
        "milp.lp_warm_ratio": (
            fresh.lp_stats.warm_ratio if fresh.lp_stats.solves else None
        ),
    }
    return untraced, traced, tracer


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------

#: Rate ladder (requests per second) of both serving workloads; each
#: rung lasts an equal share of ``--seconds``.  Measured on a 2-CPU
#: virtual machine with 4 s rungs:
#:
#: * ``OptimizationServer(workers=2)`` (one interpreter lock) answers the
#:   serving mix with a p95 under 10 ms up to 150 rps while no MILP solve
#:   runs; a MILP solve puts the p95 of its rung at 0.6-0.9 s from 90 rps
#:   on, and while one holds a worker the other worker and the 64-slot
#:   queue must absorb the arrivals.  The top rung, 80 rps, stays below
#:   that knee, so no request is rejected even on a slower host.
#: * ``ShardedOptimizationServer(2 shards)`` keeps its p99 under the
#:   limit up to 400-480 rps, but the generator shares the hub's
#:   interpreter lock: at a 160 rps top rung its lag passed
#:   ``GENERATOR_LAG_BOUND_MS`` in one run of ten.  Its ladder is the same
#:   as serve-mixed's, well below its knee.
RATES = (20.0, 40.0, 80.0)


def serve_mix(workload: str, seconds: float) -> ServeMix:
    # serve-sharded sends no explicit-milp requests: each holds a
    # one-worker shard for its whole deadline, and where those few seconds
    # of blocking fell swung the median between 3 and 7.5 ms from run to
    # run.  Their GIL contention with interactive requests is
    # serve-mixed's to measure.
    return ServeMix(
        rates=RATES, rung_seconds=seconds / len(RATES),
        milp=workload == "serve-mixed",
    )


def _start_server(workload: str):
    return start_server(
        "server" if workload == "serve-mixed" else "sharded",
        SERVE_WORKERS,
    )


def _shard_cpu_s(server) -> dict[int, float]:
    """CPU seconds used so far by each shard process of ``server``, by
    pid; empty for a single-process server."""
    supervisor = getattr(server, "supervisor", None)
    if supervisor is None:
        return {}
    tick = os.sysconf("SC_CLK_TCK")
    used = {}
    for handle in supervisor.handles:
        try:
            with open(f"/proc/{handle.pid}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, TypeError):
            continue  # a dead shard; its requests count as failed
        used[handle.pid] = (int(fields[11]) + int(fields[12])) / tick
    return used


def _thread_cpu_s() -> dict[int, float]:
    """CPU seconds used so far by each Python thread of this process."""
    used = {}
    for thread in threading.enumerate():
        try:
            clock = time.pthread_getcpuclockid(thread.ident)
            used[thread.ident] = time.clock_gettime(clock)
        except (OSError, TypeError):
            continue  # ended meanwhile
    return used


class ServingCpu:
    """CPU time the serving path uses over one open-loop pass.

    It adds up the CPU time of this process's Python threads but the
    generator (the server's workers and watchdog, the hub's dispatcher
    and readers), the generator's CPU time inside ``submit`` (the
    admission path), and the CPU time of every shard process, less the
    thread CPU time spent inside MILP solves.  An explicit-``milp``
    request runs until its deadline however fast the code is, and
    numpy's BLAS threads (not Python threads) spin under it, so counting
    either would let the deadline, not the program, set the figure; MILP
    speed is ``routed-milp``'s to measure.  The generator's sleeping and
    waking is the benchmark's own work (an eighth of the figure on
    ``serve-mixed``), so only its ``submit`` calls count.
    """

    def __init__(self, server) -> None:
        self.server = server
        #: CPU seconds of the serving path, and of the serving processes
        #: as a whole (this process and every shard).
        self.cpu_s = 0.0
        self.total_s = 0.0
        self._inside = {"submit": 0.0, "milp": 0.0}
        self._lock = threading.Lock()
        self._patches = []

    def _time_calls(self, cls, attr: str, key: str) -> None:
        """Add the calling thread's CPU time in ``cls.attr`` to ``key``."""
        original = cls.__dict__[attr]

        def timed(*args, **kwargs):
            start = time.thread_time()
            try:
                return original(*args, **kwargs)
            finally:
                with self._lock:
                    self._inside[key] += time.thread_time() - start

        self._patches.append((cls, attr, original))
        setattr(cls, attr, timed)

    def __enter__(self) -> "ServingCpu":
        from repro.core.optimizer import MILPJoinOptimizer

        self._time_calls(MILPJoinOptimizer, "optimize", "milp")
        self._time_calls(type(self.server), "submit", "submit")
        self._process = time.process_time()
        self._threads = _thread_cpu_s()
        self._shards = _shard_cpu_s(self.server)
        return self

    def __exit__(self, *exc) -> None:
        threads = _thread_cpu_s()
        shards = _shard_cpu_s(self.server)
        process = time.process_time()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        generator = threading.get_ident()
        shard_s = sum(
            used - self._shards.get(pid, 0.0) for pid, used in shards.items()
        )
        thread_s = sum(
            used - self._threads.get(ident, 0.0)
            for ident, used in threads.items() if ident != generator
        )
        self.cpu_s = (
            shard_s + thread_s + self._inside["submit"] - self._inside["milp"]
        )
        self.total_s = shard_s + process - self._process


def _send_and_drain(server, schedule, tracer, run, submitted, on_done):
    """Submit each request when it is due, then wait for every answer;
    returns the schedule's origin and the outcomes (``None``: none came
    within ``DRAIN_TIMEOUT_S``)."""
    tickets = []
    origin = time.perf_counter() + 0.05
    for index, request in enumerate(schedule):
        due = origin + request.due
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        now = time.perf_counter()
        run.lags_ms.append(max(0.0, now - due) * 1e3)
        if tracer is not None:
            tracer.bind_query(request.query, f"r{index}")
        submitted[index] = now
        ticket = server.submit(
            request.query, request.algorithm, deadline=request.deadline
        )
        ticket.future.add_done_callback(on_done(index))
        tickets.append(ticket)
        run.threads_max = max(run.threads_max, threading.active_count())
    drain_until = time.perf_counter() + DRAIN_TIMEOUT_S
    outcomes = []
    for ticket in tickets:
        try:
            outcomes.append(
                ticket.result(max(0.0, drain_until - time.perf_counter()))
            )
        except TimeoutError:
            outcomes.append(None)
    return origin, outcomes


def _open_pass(server, schedule, tracer=None) -> Pass:
    """Submit ``schedule`` on time; collect every resolution.

    ``cpu_s`` is the CPU time of the serving processes over the pass, and
    ``serving_cpu_s`` that of the serving path (see :class:`ServingCpu`).
    """
    run = Pass()
    resolved: list[float | None] = [None] * len(schedule)
    submitted: list[float | None] = [None] * len(schedule)

    def on_done(index):
        def callback(_future):
            resolved[index] = time.perf_counter()
        return callback

    with ServingCpu(server) as meter:
        origin, outcomes = _send_and_drain(
            server, schedule, tracer, run, submitted, on_done
        )
    run.cpu_s = meter.total_s
    run.serving_cpu_s = meter.cpu_s
    for index, (request, outcome) in enumerate(zip(schedule, outcomes)):
        due = origin + request.due
        done = resolved[index]
        if outcome is None or done is None:
            run.answers.append(Answer(
                request.query, request.kind, None, "never",
                deadline_s=request.deadline, rung=request.rung,
            ))
            continue
        run.answers.append(Answer(
            request.query, request.kind, done - due, outcome.status.value,
            result=outcome.result, serve=outcome,
            deadline_s=request.deadline, rung=request.rung,
        ))
    run.outstanding = [
        (origin + r.due, submitted[i], resolved[i])
        for i, r in enumerate(schedule)
    ]
    run.origin = origin
    return run


def _serve_extra(workload, server, run: Pass) -> None:
    """Per-layer numbers read from ``ServeResult``s and ``stats()``."""
    results = [a.serve for a in run.answers]
    snapshot = server.metrics_snapshot()
    waits = latency_summary(
        r.wait_seconds * 1e3 for r in results if r is not None
    )
    services = latency_summary(
        r.service_seconds * 1e3 for r in results
        if r is not None and not r.coalesced and r.service_seconds > 0
    )
    run.tail_percentiles = {
        "queue_wait": waits["tail_pct"], "service": services["tail_pct"],
    }
    statuses = [a.status for a in run.answers]
    n = max(1, len(statuses))
    extra = {
        "serve.queue_wait_ms_p50": waits["p50"],
        "serve.queue_wait_ms_tail": waits["tail"],
        "serve.service_ms_p50": services["p50"],
        "serve.service_ms_tail": services["tail"],
        "serve.coalesce_rate": snapshot["coalesce"]["rate"],
        "serve.timed_out_frac": statuses.count("timed_out") / n,
        "serve.rejected_frac": statuses.count("rejected") / n,
    }
    if workload == "serve-mixed":
        cache = snapshot["cache"]
        lp = snapshot["lp"]
        pool = snapshot.get("basis_pool") or {}
        descents = snapshot["resilience"]["ladder_descents"]
    else:
        cache, lp, pool, descents = _shard_totals(snapshot)
        overheads = [
            (r.total_seconds - r.wait_seconds - r.service_seconds) * 1e3
            for r in results
            if r is not None and r.ok and not r.coalesced
        ]
        extra["serve.sharded.hub_overhead_ms_p50"] = (
            statistics.median(overheads) if overheads else None
        )
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    pool_lookups = pool.get("hits", 0) + pool.get("misses", 0)
    extra.update({
        "api.cache_hit_rate": (
            cache.get("hits", 0) / lookups if lookups else None
        ),
        "milp.lp_warm_ratio": (
            lp.get("warm_solves", 0) / lp["solves"]
            if lp.get("solves") else None
        ),
        "serve.basis_pool_hit_rate": (
            pool.get("hits", 0) / pool_lookups if pool_lookups else None
        ),
        "serve.ladder_descents": descents,
        "serve.workers_replaced": snapshot["supervision"]["workers_replaced"],
        "serve.threads_max": run.threads_max,
        "serve.cpu_s_per_request": (
            run.cpu_s / len(run.answers) if run.answers else None
        ),
        "bench.generator_lag_ms_max": max(run.lags_ms, default=0.0),
    })
    run.extra = extra


def _shard_totals(snapshot):
    """Sum each shard's last heartbeat stats."""
    cache = {"hits": 0, "misses": 0}
    lp = {"solves": 0, "warm_solves": 0}
    pool = {"hits": 0, "misses": 0}
    descents = 0
    for shard in snapshot["shards"].values():
        stats = shard.get("server") or {}
        for key in cache:
            cache[key] += int((stats.get("cache") or {}).get(key, 0) or 0)
        for key in lp:
            lp[key] += int((stats.get("lp") or {}).get(key, 0) or 0)
        for key in pool:
            pool[key] += int(
                (stats.get("basis_pool") or {}).get(key, 0) or 0
            )
        descents += int(
            (stats.get("resilience") or {}).get("ladder_descents", 0) or 0
        )
    return cache, lp, pool, descents


def run_open(workload: str, seed: int, seconds: float, trace: bool):
    """Run ``serve-mixed`` or ``serve-sharded``; returns the passes."""
    schedule = serve_schedule(seed, serve_mix(workload, seconds))
    server = _start_server(workload)
    try:
        untraced = _open_pass(server, schedule)
    finally:
        server.stop(drain=True, timeout=30.0)
    if not trace:
        return untraced, None, None
    tracer = Tracer()
    layers.install(tracer)
    try:
        server = _start_server(workload)
        try:
            tracer.enabled = True
            traced = _open_pass(server, schedule, tracer)
            tracer.enabled = False
            if workload == "serve-sharded":
                # Let every shard ship one more heartbeat, so its stats
                # include the pass just finished.
                time.sleep(0.6)
            _serve_extra(workload, server, traced)
        finally:
            server.stop(drain=True, timeout=30.0)
    finally:
        tracer.uninstall()
    return untraced, traced, tracer


# ----------------------------------------------------------------------
# Checking and summaries
# ----------------------------------------------------------------------

def check_answers(answers, checker: Checker) -> list[str]:
    """Run the correctness check on every answer; returns the errors.

    A request counts as failed when it was not COMPLETED or its answer
    fails the check.
    """
    errors = []
    for answer in answers:
        if answer.status != "completed":
            detail = f"status {answer.status}, rung {answer.rung}"
            if answer.serve is not None:
                detail += (
                    f", waited {answer.serve.wait_seconds * 1e3:.0f} ms,"
                    f" served {answer.serve.service_seconds * 1e3:.0f} ms"
                    f" ({answer.serve.error})"
                )
            answer.error = answer.error or detail
        else:
            answer.error, answer.ratio = checker.check(
                answer.query, answer.result
            )
        if answer.error is not None:
            errors.append(f"{getattr(answer.query, 'name', '?')}: "
                          f"{answer.error}")
    return errors


def _misses_deadline(answer) -> bool:
    if answer.deadline_s is None:
        return False
    if answer.error is not None or answer.latency_s is None:
        return True
    return answer.latency_s > answer.deadline_s


def quality_summary(answers) -> dict:
    """Failure, deadline and plan-quality shares of one pass."""
    n = len(answers)
    with_deadline = [a for a in answers if a.deadline_s is not None]
    ratios = [a.ratio for a in answers if a.ratio is not None]
    return {
        "requests": n,
        "failed_frac": sum(a.error is not None for a in answers) / n,
        "deadline_requests": len(with_deadline),
        "deadline_miss_frac": (
            sum(_misses_deadline(a) for a in with_deadline)
            / len(with_deadline) if with_deadline else None
        ),
        "plan_cost_ratio_gmean": gmean(ratios),
        "plan_cost_ratio_max": max(ratios) if ratios else None,
    }


def _latency_ms(answers):
    """Latencies in ms; a failed answer counts as missing every limit."""
    return [
        a.latency_s * 1e3 if a.error is None else float("inf")
        for a in answers
    ]


def closed_summary(run: Pass) -> dict:
    answers = run.answers
    ok = [a for a in answers if a.error is None]
    return {
        "latency_ms": latency_summary(_latency_ms(answers)),
        "queries_per_s": (
            len(ok) / (run.cpu_s * run.scale) if run.cpu_s > 0 else 0.0
        ),
        "reference_s_per_cpu_s": run.scale,
        "reference_samples_s": run.reference_samples_s,
    }


def open_summary(run: Pass, mix: ServeMix) -> dict:
    answers = run.answers
    ok = [a for a in answers if a.error is None]
    rungs = []
    for rung, rate in enumerate(mix.rates):
        members = [a for a in answers if a.rung == rung]
        summary = latency_summary(_latency_ms(members))
        start = run.origin + rung * mix.rung_seconds
        end = start + mix.rung_seconds
        growth = _outstanding(run, end) - _outstanding(run, start)
        failed = sum(a.error is not None for a in members)
        # Too few samples for a tail percentile: hold the median to it.
        tail = summary["tail"] if summary["tail"] is not None else summary["p50"]
        sustained = (
            failed == 0
            and tail is not None and tail <= LATENCY_LIMIT_MS
            and growth <= rate * BACKLOG_SLACK_S
        )
        rungs.append({
            "rate": rate, "latency_ms": summary, "failed": failed,
            "backlog_growth": growth, "sustained": sustained,
        })
    sustained_rps = 0.0
    for rung in rungs:
        if not rung["sustained"]:
            break
        sustained_rps = rung["rate"]
    kinds = sorted({a.kind for a in answers})
    last = max(
        (done for _due, _sent, done in run.outstanding if done is not None),
        default=run.origin,
    )
    span_s = last - run.origin
    return {
        "latency_ms": latency_summary(_latency_ms(answers)),
        "latency_ms_by_kind": {
            kind: latency_summary(
                _latency_ms([a for a in answers if a.kind == kind])
            )
            for kind in kinds
        },
        # Answers per second from the schedule's origin to the last
        # resolution: the offered load while the server keeps up and
        # answers correctly, less when it falls behind or fails.
        "queries_per_s": len(ok) / span_s if span_s > 0 else 0.0,
        "serving_cpu_ms_per_answer": (
            run.serving_cpu_s * 1e3 / len(ok) if ok else None
        ),
        "rungs": rungs,
        "sustained_rps": sustained_rps,
        "generator_lag_ms_max": max(run.lags_ms, default=0.0),
        "valid": max(run.lags_ms, default=0.0) <= GENERATOR_LAG_BOUND_MS,
    }


def _outstanding(run: Pass, instant: float) -> int:
    """Requests submitted but not yet resolved at ``instant``."""
    return sum(
        1 for _due, sent, done in run.outstanding
        if sent is not None and sent <= instant
        and (done is None or done > instant)
    )
