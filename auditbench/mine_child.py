"""The mine-offline workload's child process.

    python auditbench/mine_child.py CSV_DIR SECONDS [SPANS.json]

Opens the memory-backend service over ``CSV_DIR`` once and prints
``ready``.  Then it waits for one line on stdin: on it, it repeats
mining sweeps (one-way, two-way and bridge at the default
``MineRequest``) until SECONDS have passed, prints one JSON line
describing every sweep and its own peak RSS, and exits; at end of
input it exits at once.

With ``SPANS.json`` the layer spans of :mod:`tracing` are recorded and
written there at exit.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import sys
import time

from measure import stats_counters
from procs import peak_rss_mb

ALGORITHMS = ("one-way", "two-way", "bridge")


def _sweep(service) -> dict:
    from repro.api import MineRequest

    algorithms = []
    cpu = time.process_time()
    started = time.perf_counter()
    for algorithm in ALGORITHMS:
        began = time.perf_counter()
        result = service.mine(MineRequest(algorithm=algorithm))
        ended = time.perf_counter()
        mined = sorted(
            (repr(view.template.signature()), view.support)
            for view in result.templates
        )
        algorithms.append(
            {
                "algorithm": algorithm,
                "start": began,
                "end": ended,
                "templates": len(mined),
                "digest": hashlib.sha256(repr(mined).encode()).hexdigest(),
                "rounds": [
                    [r.length, r.candidates, r.supported_paths, r.seconds]
                    for r in result.raw.rounds
                ],
                "support": result.support_stats,
            }
        )
    return {
        "start": started,
        "end": time.perf_counter(),
        "cpu_s": time.process_time() - cpu,
        "algorithms": algorithms,
    }


def main() -> int:
    csv_dir, seconds = sys.argv[1], float(sys.argv[2])
    if len(sys.argv) > 3:
        from tracing import Tracer, install_engine

        tracer = Tracer()
        install_engine(tracer)
        atexit.register(tracer.dump, sys.argv[3])
    from repro.api import AuditService

    service = AuditService.open(csv_dir)
    print("ready", flush=True)
    if sys.stdin.readline():
        before = stats_counters(service.stats())
        sweeps = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not sweeps:
            sweeps.append(_sweep(service))
        after = stats_counters(service.stats())
        after["read_acquisitions"] -= 1  # the closing stats() call's own
        print(
            json.dumps(
                {
                    "sweeps": sweeps,
                    "counters": {k: after[k] - before[k] for k in after},
                    "peak_rss_mb": peak_rss_mb(os.getpid()),
                }
            ),
            flush=True,
        )
    service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
