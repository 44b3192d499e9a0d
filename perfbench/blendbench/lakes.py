"""Seeded inputs: the serving-shaped lake and each workload's query stream.

Every lake has the same shape: a recurring (city, country) pool sampled
into every table, about 30% of rows re-paired with a random country (so
multi-column validation has real work to reject), a noise token, a float
and an integer column. Query values are drawn hot-skewed from the pool,
the way discovery traffic concentrates on popular values. ``scale=1``
gives ~118k cells, ``scale=4`` ~1.93M cells.

Everything here is a pure function of the seed: the same seed gives the
same lake, the same queries and the same mutation sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.lake.datalake import DataLake
from repro.lake.table import Table

COLUMNS = ["city", "country", "noise", "metric", "count"]


@dataclass
class Lake:
    lake: DataLake
    pool: list[tuple[str, str]]
    countries: list[str]

    @property
    def cells(self) -> int:
        return sum(table.num_rows * len(table.columns) for table in self.lake)


def _row(rng: random.Random, pool, countries) -> tuple:
    city, country = pool[rng.randrange(len(pool))]
    if rng.random() < 0.3:
        country = countries[rng.randrange(len(countries))]
    return (city, country, f"tok{rng.randrange(4000)}", round(rng.random() * 100, 3),
            rng.randrange(1000))


def make_lake(seed: int, scale: float) -> Lake:
    rng = random.Random(seed)
    pool_size = max(10, int(800 * scale))
    countries = [f"country{i}" for i in range(max(3, pool_size // 6))]
    pool = [(f"city{i}", countries[i % len(countries)]) for i in range(pool_size)]
    lake = DataLake("perfbench")
    for table_id in range(max(2, int(120 * scale))):
        num_rows = rng.randint(max(4, int(100 * scale)), max(8, int(300 * scale)))
        rows = [_row(rng, pool, countries) for _ in range(num_rows)]
        lake.add(Table(f"t{table_id:04d}", list(COLUMNS), rows))
    return Lake(lake, pool, countries)


def small_table(rng: random.Random, lake: Lake, name: str) -> Table:
    """A freshly ingested table of the lake's shape (20-60 rows)."""
    rows = [_row(rng, lake.pool, lake.countries) for _ in range(rng.randint(20, 60))]
    return Table(name, list(COLUMNS), rows)


class QueryMaker:
    """Hot-skewed query payloads over one lake's value pool."""

    def __init__(self, lake: Lake, rng: random.Random) -> None:
        self.pool = lake.pool
        self.rng = rng

    def hot(self) -> tuple[str, str]:
        return self.pool[int(len(self.pool) * self.rng.random() ** 2.5)]

    def payload(self, modality: str, tag: int) -> Any:
        """The query value(s) for one request of *modality* (``SC``,
        ``KW``, ``MC``, ``C``, ``SS``, ``HY``). *tag* makes the MC
        ghost tuple, and so the query, unique."""
        if modality == "SC":
            return [self.hot()[0] for _ in range(12)]
        if modality == "KW":
            return [self.hot()[c % 2] for c in range(12)]
        if modality == "MC":
            return [self.hot() for _ in range(5)] + [(f"ghost{tag}", "nowhere")]
        if modality == "C":
            return ([self.hot()[0] for _ in range(20)], [str(j * 3 % 7) for j in range(20)])
        if modality == "SS":
            return [self.hot()[0], self.hot()[1]]
        if modality == "HY":
            return ([self.hot()[0] for _ in range(6)], [self.hot()[1]])
        raise ValueError(f"unknown modality {modality!r}")

    def pick(self, mix: list[tuple[str, float]]) -> str:
        roll = self.rng.random()
        for modality, upto in mix:
            if roll < upto:
                return modality
        return mix[-1][0]


def cumulative(shares: dict[str, float]) -> list[tuple[str, float]]:
    """``{"SC": .5, "KW": .35, ...}`` as cumulative thresholds for
    :meth:`QueryMaker.pick`."""
    total = 0.0
    out = []
    for modality, share in shares.items():
        total += share
        out.append((modality, total))
    return out
