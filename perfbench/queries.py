"""Seeded inputs of every workload.

The benchmark owns its randomness: each workload derives its queries and
its request schedule from ``--seed`` (``routed-milp`` from fixed seeds,
see :func:`routed_milp_query`), and the program under test only ever
receives the generated ``Query`` objects.
"""

from __future__ import annotations

import copy
import dataclasses
import random
from dataclasses import dataclass

from repro.workloads import QueryGenerator, job, tpch

#: Topologies ``auto`` hands to MILP.  Star and clique are left out:
#: greedy is already optimal on them, so they show nothing about MILP.
MILP_TOPOLOGIES = ("grid", "cycle", "chain")

#: Table counts of the MILP tier, by position in the query sequence.
MILP_SIZES = (13, 14, 15)

#: Topologies and table counts of the DP tier (all five topologies).
DP_TOPOLOGIES = ("chain", "star", "cycle", "clique", "grid")
DP_SIZES = range(4, 13)

#: Table counts of the serving mix: the hot set, the distinct queries
#: with a deadline, and the explicit-``milp`` requests.
HOT_SIZES = (4, 6, 8)
FRESH_SIZES = range(4, 9)
MILP_SERVE_SIZES = (4, 5)


def _stream_seed(seed: int, stream: int) -> int:
    """Independent generator seed per (workload seed, stream)."""
    return random.Random(seed * 1_000_003 + stream).getrandbits(32)


def routed_milp_query(index: int):
    """The ``index``-th query of the ``routed-milp`` workload.

    Topology and table count rotate with the position, and the generator
    seed is ``index // 3``, whatever ``--seed`` says.  One such query
    takes 7-25 s on a 2-CPU virtual machine, so only two fit in a run;
    with seeded queries the median of the two swung between 9.3 and
    17.7 s from seed to seed (a quartile spread of about a third of the
    median over six seeds), so a run would measure the draw, not the
    code.  The first two queries,
    grid-13 and cycle-14 at generator seed 0, are the MILP tier's known
    bad cases: ``auto`` returns plans 44x and 9.8x off the optimum.
    """
    topology = MILP_TOPOLOGIES[index % len(MILP_TOPOLOGIES)]
    size = MILP_SIZES[index % len(MILP_SIZES)]
    query = QueryGenerator(seed=index // len(MILP_SIZES)).generate(
        topology, size
    )
    return _named(query, f"milp-{index}-{topology}{size}")


def _named(query, name: str):
    return dataclasses.replace(query, name=name)


def routed_dp_queries(seed: int):
    """Endless ``routed-dp`` query stream: every JOB/TPC-H shape once,
    then distinct seeded 4-12-table queries of all five topologies."""
    for query in job.all_queries() + tpch.all_queries():
        yield query
    rng = random.Random(_stream_seed(seed, 0))
    generator = QueryGenerator(seed=_stream_seed(seed, 1))
    shapes = _shuffled_blocks(rng, DP_TOPOLOGIES, DP_SIZES)
    for index, (topology, size) in enumerate(shapes):
        yield _named(
            generator.generate(topology, size), f"dp-{index}-{topology}{size}"
        )


def _shuffled_blocks(rng, topologies, sizes):
    """Endless (topology, size) stream: every pair once per block, in an
    order shuffled per block.  DP time doubles per table, so drawing
    sizes independently would let the share of the slowest shapes, and
    with it the run's throughput, differ from seed to seed."""
    pairs = [(t, n) for t in topologies for n in sizes]
    while True:
        block = list(pairs)
        rng.shuffle(block)
        yield from block


@dataclass(frozen=True)
class Request:
    """One open-loop request: when it is due and what it asks."""

    due: float
    rung: int
    kind: str
    query: object
    algorithm: str
    deadline: float | None


#: Shares of a rung's ``auto`` requests held by hot requests without a
#: deadline, by hot requests with one, and by distinct requests with one.
SHARE_HOT = 0.55
SHARE_HOT_DEADLINE = 0.2
SHARES = (SHARE_HOT, SHARE_HOT_DEADLINE, 1.0 - SHARE_HOT - SHARE_HOT_DEADLINE)

#: Deadlines of the serving mix, in seconds: of the ``auto`` requests
#: that carry one, and of the explicit-``milp`` requests.  The ``milp``
#: deadline is long on purpose: with 0.6 s some of those requests had no
#: incumbent yet, or queued behind each other, and timed out in three
#: runs of five.
DEADLINE_S = 2.0
MILP_DEADLINE_S = 1.0


@dataclass(frozen=True)
class ServeMix:
    """Rate ladder of one serving workload, and whether it sends
    explicit-``milp`` requests.

    With ``milp``, each rung holds one explicit-``milp`` request, due in
    the middle half of the rung, so no two are ever in flight together.
    When they were a 0.5% share due at random times, two of them now and
    then held both workers of ``OptimizationServer`` at once, its 64-slot
    queue filled at 120 rps, and requests were rejected (16 and 28 of
    10500 in two sets of ten runs).
    """

    rates: tuple[float, ...]
    rung_seconds: float
    milp: bool = True


#: Kinds of request in the serving mix.
KINDS = ("hot", "hot-deadline", "fresh-deadline", "milp-deadline")


def _composition(count: int, shares) -> list[str]:
    """Exactly ``round(share * count)`` requests of each kind (largest
    remainders first), so every seed offers the same mix."""
    exact = [share * count for share in shares]
    counts = [int(value) for value in exact]
    by_remainder = sorted(
        range(len(shares)), key=lambda i: exact[i] - counts[i], reverse=True
    )
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    return [kind for kind, n in zip(KINDS, counts) for _ in range(n)]


def serve_schedule(seed: int, mix: ServeMix) -> list[Request]:
    """Open-loop schedule fixed by the seed: at each rung of the ladder,
    ``rate * rung_seconds`` arrivals.  The ``auto`` requests are placed
    uniformly at random in the rung's window (Poisson arrivals given
    their count), with the exact share of each kind in ``SHARES`` in
    shuffled order, so every seed offers the same load; the one
    explicit-``milp`` request (see :class:`ServeMix`) is due at a random
    time in the middle half of the window.

    * ``hot``: one of a few small queries, no deadline (plan cache and
      coalescer);
    * ``hot-deadline``: the same hot set with a deadline (the cached
      full-budget plan, or a degraded solve that writes nothing);
    * ``fresh-deadline``: a distinct small query with a deadline;
    * ``milp-deadline``: a distinct 4-5-table query sent to ``milp``
      with a deadline (warm simplex, basis pool, retry ladder).

    Every request gets its own ``Query`` object, so spans can name the
    request; repeats of a hot query are equal in content.
    """
    rng = random.Random(_stream_seed(seed, 2))
    generator = QueryGenerator(seed=_stream_seed(seed, 3))
    hot_shapes = _shuffled_blocks(rng, DP_TOPOLOGIES, HOT_SIZES)
    hot = [
        _named(generator.generate(*next(hot_shapes)), f"hot-{i}")
        for i in range(len(DP_TOPOLOGIES) * len(HOT_SIZES))
    ]
    fresh_shapes = _shuffled_blocks(rng, DP_TOPOLOGIES, FRESH_SIZES)
    milp_shapes = _shuffled_blocks(rng, DP_TOPOLOGIES, MILP_SERVE_SIZES)
    requests: list[Request] = []
    fresh = 0
    for rung, rate in enumerate(mix.rates):
        start = rung * mix.rung_seconds
        count = round(rate * mix.rung_seconds) - int(mix.milp)
        arrivals = [
            start + rng.random() * mix.rung_seconds for _ in range(count)
        ]
        kinds = _composition(count, SHARES)
        rng.shuffle(kinds)
        slots = list(zip(arrivals, kinds))
        if mix.milp:
            due = start + (0.25 + 0.5 * rng.random()) * mix.rung_seconds
            slots.append((due, "milp-deadline"))
        slots.sort()
        for due, kind in slots:
            if kind == "hot":
                query = copy.copy(rng.choice(hot))
                algorithm, deadline = "auto", None
            elif kind == "hot-deadline":
                query = copy.copy(rng.choice(hot))
                algorithm, deadline = "auto", DEADLINE_S
            elif kind == "fresh-deadline":
                query = _named(
                    generator.generate(*next(fresh_shapes)), f"fresh-{fresh}"
                )
                algorithm, deadline = "auto", DEADLINE_S
            else:
                query = _named(
                    generator.generate(*next(milp_shapes)), f"milp-{fresh}"
                )
                algorithm, deadline = "milp", MILP_DEADLINE_S
            fresh += 1
            requests.append(
                Request(due, rung, kind, query, algorithm, deadline)
            )
    return requests
