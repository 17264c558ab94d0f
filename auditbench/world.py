"""Seeded inputs: the hospital world and the request streams.

The same seed gives a byte-identical CSV directory and identical
streams; a different seed gives different ones (pinned by
``selftest.py``).  The program under test receives only the CSV
directory and the requests.
"""

from __future__ import annotations

import datetime as dt
import random
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any


@dataclass(frozen=True)
class World:
    """A generated world as the benchmark's load generators see it."""

    directory: Path
    lids: tuple[int, ...]
    #: ``(user, patient)`` of every log row, in log order.
    pairs: tuple[tuple[str, str], ...]
    users: tuple[str, ...]
    patients: tuple[str, ...]
    last_date: dt.datetime


def build_world(seed: int, directory: Path) -> World:
    """Simulate the ``SimulationConfig.benchmark`` hospital for ``seed``
    and save it as a CSV database directory."""
    from repro.api import save_database
    from repro.ehr import SimulationConfig, simulate

    db = simulate(SimulationConfig.benchmark(seed=seed)).db
    save_database(db, str(directory))
    log = db.table("Log")
    schema = log.schema
    lid_i, date_i, user_i, patient_i = (
        schema.column_index(c) for c in ("Lid", "Date", "User", "Patient")
    )
    rows = log.rows()
    users = db.table("Users")
    return World(
        directory=directory,
        lids=tuple(r[lid_i] for r in rows),
        pairs=tuple((r[user_i], r[patient_i]) for r in rows),
        users=tuple(sorted(users.column_values("User"))),
        patients=tuple(sorted({r[patient_i] for r in rows})),
        last_date=max(r[date_i] for r in rows),
    )


def _rng(seed: int, stream: str) -> random.Random:
    # str seeds hash with SHA-512: stable across processes and releases
    return random.Random(f"auditbench/{seed}/{stream}")


def explain_stream(world: World, seed: int, stream: str) -> Iterator[int]:
    """Log ids drawn uniformly from the whole log."""
    rng = _rng(seed, stream)
    lids = world.lids
    while True:
        yield lids[rng.randrange(len(lids))]


def ingest_stream(
    world: World, seed: int
) -> Iterator[tuple[str, str, dt.datetime]]:
    """``(user, patient, date)`` accesses after the simulated week, in
    date order.  Half replay a (user, patient) pair already in the log,
    which the repeat-access template explains; half pair a random user
    with a random patient, which should alert."""
    rng = _rng(seed, "ingest")
    date = world.last_date
    while True:
        date = date + dt.timedelta(seconds=rng.randint(1, 120))
        if rng.random() < 0.5:
            user, patient = world.pairs[rng.randrange(len(world.pairs))]
        else:
            user = world.users[rng.randrange(len(world.users))]
            patient = world.patients[rng.randrange(len(world.patients))]
        yield user, patient, date


def sample_lids(lids: Any, seed: int, count: int) -> list:
    """A seeded sample of ``count`` distinct lids (all when fewer)."""
    ordered = sorted(lids)
    return sorted(_rng(seed, "sample").sample(ordered, min(count, len(ordered))))
