"""The host's current speed, read with a fixed reference workload.

The benchmark's gated figures are CPU time of the program.  On a shared
host the CPU time of the same work drifts with what other tenants run:
by up to 2x within a minute, and by about 30% between two sets of runs
ten minutes apart on the 2-CPU host the benchmark was tuned on.  So,
while the program works, a probe process of the benchmark times a small
fixed pure-Python workload (dicts, sets, sorting, string formatting and
JSON, the kind of work the program does) again and again, and the
program's CPU time is divided by how much slower than
:data:`REFERENCE_S` that workload ran meanwhile.  A change to the
program moves the normalised figure in full; a slower host moves both
sides of the ratio.  The probe is a process of its own so that the load
generator's threads do not share its interpreter.

    python auditbench/hostspeed.py

prints the thread CPU seconds of one probe unit per line until its
standard input ends.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time
from types import TracebackType

#: Thread CPU seconds one probe unit is taken to need at the reference
#: speed (about what it needed on an idle host of the tuning machine).
#: A constant: it only sets the scale of the normalised figures.
REFERENCE_S = 0.010
#: Pause between probe units, so the probe takes about a tenth of one
#: CPU beside the program and the load generator.
PAUSE_S = 0.1


def _unit() -> int:
    rows = [
        {
            "lid": i,
            "user": i % 97,
            "patient": i * 31 % 1009,
            "date": f"2010-{i % 12 + 1:02d}-{i % 28 + 1:02d}",
        }
        for i in range(3000)
    ]
    seen: dict[int, set[int]] = {}
    for row in rows:
        seen.setdefault(row["user"], set()).add(row["patient"])
    groups = list(seen.values())
    shared = sum(len(a & b) for a, b in zip(groups, groups[1:]))
    rows.sort(key=lambda row: (row["date"], row["patient"]))
    decoded = json.loads(json.dumps(rows[:600]))
    return shared + len(decoded)


def _probe_s() -> float:
    """Thread CPU seconds of one probe unit."""
    start = time.thread_time()
    _unit()
    return time.thread_time() - start


def main() -> int:
    """Probe until standard input ends; at least one unit is timed."""
    while True:
        print(_probe_s(), flush=True)
        if select.select([sys.stdin], [], [], PAUSE_S)[0]:
            return 0


class Sampler:
    """Probes the host's speed in a probe process for the span of a
    ``with`` block: a stretch of the program's work being measured."""

    def __init__(self) -> None:
        self._samples: list[float] = []

    def __enter__(self) -> Sampler:
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(
        self,
        kind: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        # ending its input stops the probe; about ten short lines a
        # second never fill the pipe
        out, _ = self._proc.communicate()
        if self._proc.returncode != 0:
            raise RuntimeError(f"host speed probe exited with {self._proc.returncode}")
        self._samples = [float(line) for line in out.split()]

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the host ran over the
        block: the mean probe time over :data:`REFERENCE_S`."""
        return statistics.fmean(self._samples) / REFERENCE_S


if __name__ == "__main__":
    sys.exit(main())
