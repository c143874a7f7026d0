"""Set-up probe: start a fresh process, bring one serving tier up, and
print ``ready`` the moment it can serve its first request.

``python3 perfbench/probe.py service|server|sharded``.  The parent times
process start to the ``ready`` line; that is ``setup_s``.  For
``sharded``, ready means every shard reports healthy.
"""

from __future__ import annotations

import os
import sys
import time

#: Worker threads (or shards) of the serving tiers: two, or the host's
#: CPU count if that is smaller.
SERVE_WORKERS = min(2, os.cpu_count() or 1)


def start_server(kind: str, workers: int):
    """Start the serving tier ``kind`` (``server`` or ``sharded``) with
    ``workers`` worker threads or shards, and wait until it is ready."""
    from repro.serve import OptimizationServer, ShardedOptimizationServer

    if kind == "server":
        return OptimizationServer(workers=workers).start()
    server = ShardedOptimizationServer(
        shards=workers, workers_per_shard=1
    ).start()
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        health = server.shard_health()
        if health["healthy_shards"] == health["total_shards"]:
            return server
        time.sleep(0.01)
    server.stop(drain=False)
    raise RuntimeError("shards did not all become healthy")


def main(kind: str) -> int:
    from benchpath import use_checkout_source

    use_checkout_source()
    if kind == "service":
        from repro.api import OptimizerService

        OptimizerService()
        print("ready", flush=True)
        return 0
    server = start_server(kind, SERVE_WORKERS)
    print("ready", flush=True)
    server.stop(drain=False)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
