"""Micro-benchmark: hybrid semantic+exact fusion seeker throughput.

The lake mixes overlap structure (a shared city/country pool, as in
``bench_seeker``) with morphological families (``customer_<n>``-style
tokens) so both fusion lanes have real signal: the exact lane ranks by
hash-overlap evidence, the semantic lane by embedding similarity over
``AllVectors``.

Phases measured::

==================  ========================================================
hybrid_rrf          HY solo execution, alpha-weighted reciprocal-rank
                    fusion (deterministic exact=True semantic lane)
semantic_exact      pure SS lane, brute-force oracle mode
semantic_hnsw       pure SS lane, HNSW beam search
==================  ========================================================

Before timing, the harness asserts the in-run exact-lane oracle
guarantees behind the committed numbers: ``alpha=0`` degenerates to the
pure exact lane's ranking, ``alpha=1`` to the pure semantic lane's, and
the two-shard scatter-gather merge of fused partials is identical to
solo execution. Results serialise as
``{phase: {"seconds": ..., "queries_per_sec": ...}}`` into
``BENCH_seeker.json`` via ``benchmarks/run_bench.py --suite hybrid``.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.hybrid import HybridSeeker
from repro.core.semantic import SemanticSeeker
from repro.core.system import Blend
from repro.index.alltables import IndexConfig
from repro.lake.datalake import DataLake
from repro.lake.table import Table
from repro.serving import ShardCoordinator
from repro.snapshot import save_sharded

DEFAULT_SEED = 71
QUERY_ROUNDS = 8


def _phase(seconds: float, queries: int) -> dict[str, float]:
    return {
        "seconds": round(seconds, 6),
        "queries_per_sec": round(queries / seconds, 1) if seconds > 0 else float("inf"),
    }


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _bench_lake(seed: int, scale: float = 1.0) -> DataLake:
    """Overlap pool + morphological families: evidence for both lanes."""
    rng = random.Random(seed)
    pool_size = max(10, int(240 * scale))
    countries = [f"country{i}" for i in range(max(3, pool_size // 6))]
    pool = [(f"city{i}", countries[i % len(countries)]) for i in range(pool_size)]
    families = ["customer", "invoice", "shipment", "account"]
    num_tables = max(3, int(30 * scale))
    lake = DataLake("bench_hybrid")
    for table_id in range(num_tables):
        family = families[table_id % len(families)]
        rows = []
        for _ in range(rng.randint(max(4, int(40 * scale)), max(8, int(120 * scale)))):
            city, country = pool[rng.randrange(pool_size)]
            rows.append(
                (
                    city,
                    country,
                    f"{family}_{rng.randrange(400)}",
                    rng.randrange(1000),
                )
            )
        lake.add(Table(f"t{table_id:03d}", ["city", "country", "entity", "count"], rows))
    lake._bench_pool = pool  # type: ignore[attr-defined]  # query source
    return lake


def _hybrid_queries(lake: DataLake, seed: int, k: int = 10) -> list[HybridSeeker]:
    rng = random.Random(seed + 1)
    pool = lake._bench_pool  # type: ignore[attr-defined]
    queries = []
    for offset in range(3):
        values = [pool[rng.randrange(len(pool))][0] for _ in range(16)]
        about = [f"customer_{rng.randrange(400)}" for _ in range(4)]
        queries.append(
            HybridSeeker(values, about=about, k=k, alpha=0.3 + 0.2 * offset)
        )
    return queries


def _assert_fusion_oracles(blend: Blend, seed: int) -> int:
    """The in-run acceptance bar: alpha degeneracy against the exact-lane
    oracle, and sharded-merge parity with solo execution."""
    rng = random.Random(seed + 2)
    pool = blend.lake._bench_pool  # type: ignore[attr-defined]
    values = [pool[rng.randrange(len(pool))][0] for _ in range(12)]
    about = [f"customer_{rng.randrange(400)}" for _ in range(3)]
    context = blend.context()

    pure_exact = HybridSeeker(values, about=about, k=8, alpha=0.0)
    oracle = pure_exact.exact_seeker.execute(context)
    fused = pure_exact.execute(context)
    if fused.table_ids() != oracle.table_ids()[:8]:
        raise AssertionError(
            f"alpha=0 fusion diverged from the exact lane: "
            f"{fused.table_ids()} vs {oracle.table_ids()[:8]}"
        )
    pure_semantic = HybridSeeker(values, about=about, k=8, alpha=1.0)
    oracle = SemanticSeeker(about, k=8, exact=True).execute(context)
    fused = pure_semantic.execute(context)
    if fused.table_ids() != oracle.table_ids():
        raise AssertionError(
            f"alpha=1 fusion diverged from the semantic lane: "
            f"{fused.table_ids()} vs {oracle.table_ids()}"
        )

    checked = 2
    queries = _hybrid_queries(blend.lake, seed, k=8)
    solo = [q.execute(context) for q in queries]
    root = Path(tempfile.mkdtemp(prefix="check_hybrid_"))
    try:
        save_sharded(blend, root / "s2", num_shards=2)
        with ShardCoordinator.load(root / "s2") as coordinator:
            for query, reference in zip(queries, solo):
                merged = coordinator.execute(query)
                if [(h.table_id, h.score) for h in merged] != [
                    (h.table_id, h.score) for h in reference
                ]:
                    raise AssertionError(
                        "2-shard fused merge diverged from solo execution"
                    )
                checked += 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return checked


def _semantic_blend(seed: int, scale: float) -> Blend:
    blend = Blend(
        _bench_lake(seed, scale),
        backend="column",
        index_config=IndexConfig(semantic=True),
    )
    blend.build_index()
    return blend


def run_benchmark(seed: int = DEFAULT_SEED, scale: float = 1.0) -> dict[str, dict[str, float]]:
    """Time the fusion phases on a freshly built semantic-enabled lake;
    returns the ``BENCH_seeker.json`` payload (hybrid rows)."""
    blend = _semantic_blend(seed, scale)
    _assert_fusion_oracles(blend, seed)

    context = blend.context()
    queries = _hybrid_queries(blend.lake, seed)
    total = QUERY_ROUNDS * len(queries)
    results: dict[str, dict[str, float]] = {}

    seconds, _ = _timed(
        lambda: [q.execute(context) for _ in range(QUERY_ROUNDS) for q in queries]
    )
    results["hybrid_rrf"] = _phase(seconds, total)

    topics = [q.semantic_seeker.values for q in queries]
    for phase, exact in (("semantic_exact", True), ("semantic_hnsw", False)):
        lane = [SemanticSeeker(topic, k=10, exact=exact) for topic in topics]
        seconds, _ = _timed(
            lambda lane=lane: [
                q.execute(context) for _ in range(QUERY_ROUNDS) for q in lane
            ]
        )
        results[phase] = _phase(seconds, total)

    return results


def run_check(seed: int = DEFAULT_SEED, scale: float = 0.25) -> str:
    """Hardware-independent fusion parity smoke
    (``run_bench.py --check-only``): alpha-degeneracy against each pure
    lane's oracle and 2-shard fused-merge parity with solo execution on
    a reduced-scale lake. No timing -- raises ``AssertionError`` on
    divergence."""
    checked = _assert_fusion_oracles(_semantic_blend(seed, scale), seed)
    return (
        f"hybrid fusion oracle parity OK: {checked} checks, alpha "
        f"degeneracy and 2-shard fused merge agree with solo execution "
        f"(scale={scale})"
    )


def format_report(results: dict[str, dict[str, float]]) -> str:
    lines = [f"{'phase':<16} {'seconds':>10} {'queries/s':>12}"]
    for phase, numbers in results.items():
        lines.append(
            f"{phase:<16} {numbers['seconds']:>10.4f} {numbers['queries_per_sec']:>12,.1f}"
        )
    exact, hnsw = (
        results.get("semantic_exact", {}).get("seconds"),
        results.get("semantic_hnsw", {}).get("seconds"),
    )
    if exact and hnsw:
        lines.append(f"HNSW beam speedup over exact lane: {exact / hnsw:.1f}x")
    return "\n".join(lines)


PHASES = ("hybrid_rrf", "semantic_exact", "semantic_hnsw")
