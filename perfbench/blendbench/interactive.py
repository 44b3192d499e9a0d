"""``interactive``: one caller, closed loop, ``Blend.discover()`` on the x1
lake with AllVectors built.

The six modalities are mixed like a discovery session: join .40, keyword
.30, multi-column .15, correlation .10, semantic .025, hybrid .025, in
blocks of 40 reads that each carry exactly those shares in a seeded
order (so the mix of a run does not drift with the seed). No query
repeats. Every answer is checked after the timed window against the
direct seeker on the same generation (MC through the scalar phases); the
checks are split over two forked children.
"""

from __future__ import annotations

import random

from repro.core.system import Blend
from repro.index.alltables import IndexConfig

from .common import (
    CHECKERS,
    SETUP_REPEATS,
    TYPED_ERRORS,
    Options,
    Outcome,
    check,
    in_children,
    latency_summary,
    make_seeker,
    median_setup,
    oracle,
    pairs,
    peak_rss_mb,
    scalar_context,
)
from .lakes import QueryMaker, make_lake
from .session import Session, now

# One block of the mix: reads per modality in every 40 reads.
BLOCK = {"SC": 16, "KW": 12, "MC": 6, "C": 4, "SS": 1, "HY": 1}
MODALITY = {
    "SC": "join",
    "KW": "keyword",
    "MC": "multi_column",
    "C": "correlation",
    "SS": "semantic",
    "HY": "hybrid",
}
K = 10
# Upper bound on reads per second of window, for pre-generating inputs.
MAX_QPS = 1500


def _queries(lake, seed: int, count: int) -> list[tuple[str, object]]:
    rng = random.Random(seed + 11)
    maker = QueryMaker(lake, rng)
    seen: set[str] = set()
    out: list[tuple[str, object]] = []
    block: list[str] = []
    while len(out) < count:
        if not block:
            block = [modality for modality, reads in BLOCK.items() for _ in range(reads)]
            rng.shuffle(block)
        modality = block.pop()
        payload = maker.payload(modality, len(out))
        while repr((modality, payload)) in seen:
            payload = maker.payload(modality, len(out))
        seen.add(repr((modality, payload)))
        out.append((modality, payload))
    return out


def discover(blend: Blend, modality: str, payload):
    if modality == "HY":
        values, about = payload
        return blend.discover(values, modalities=("hybrid",), k=K, about=about)
    return blend.discover(payload, modalities=(MODALITY[modality],), k=K)


def _loop(session, blend, queries, start_index, seconds, min_reads, answers, latencies,
          on_read=None) -> int:
    """Closed loop from ``queries[start_index]`` for *seconds* (and at
    least *min_reads* reads). Returns the next unused index."""
    i = start_index
    deadline = now() + seconds
    done = 0
    while i < len(queries) and (now() < deadline or done < min_reads):
        modality, payload = queries[i]
        began = now()
        try:
            with session.request(i):
                result = discover(blend, modality, payload)
        except TYPED_ERRORS as error:
            answers[i] = error
        else:
            latencies.append(now() - began)
            answers[i] = pairs(result.output)
        i += 1
        done += 1
        if on_read is not None:
            on_read(done)
    return i


def run(options: Options) -> Outcome:
    lake = make_lake(options.seed, options.scale)
    queries = _queries(lake, options.seed, int(MAX_QPS * options.seconds) + 2 * options.min_reads)
    answers: dict[int, object] = {}
    traced_latencies: list[float] = []
    latencies: list[float] = []

    with Session(options) as session:

        def setup(fresh_lake):
            blend = Blend(fresh_lake, index_config=IndexConfig(semantic=True))
            blend.build_index()
            blend.warm()
            return blend

        setup_s, setup_samples, blend = median_setup(
            SETUP_REPEATS, lambda: make_lake(options.seed, options.scale).lake, setup
        )
        traced_s, untraced_s = session.windows()
        next_index = 0
        extra: dict[str, float] = {}
        if session.tracer is not None:
            cache_before = blend.db.plan_cache_stats()

            def on_read(done: int) -> None:
                if done == options.min_reads:
                    after = blend.db.plan_cache_stats()
                    extra["plan_cache_hits"] = after["hits"] - cache_before["hits"]
                    extra["plan_cache_lookups"] = (
                        after["hits"] + after["misses"]
                        - cache_before["hits"] - cache_before["misses"]
                    )
                    session.exact = (session.phase[0], now())

            session.phase = (now(), 0.0)
            next_index = _loop(session, blend, queries, 0, traced_s, options.min_reads,
                               answers, traced_latencies, on_read)
            session.phase = (session.phase[0], now())
            session.untrace()
        window_start = now()
        end_index = _loop(session, blend, queries, next_index, untraced_s,
                          0 if session.tracer is not None else options.min_reads,
                          answers, latencies)
        window = now() - window_start

    context = blend.context()
    scalar = scalar_context(context)

    def check_part(part: int) -> None:
        for i in range(part, end_index, CHECKERS):
            got = answers[i]
            if isinstance(got, list):
                modality, payload = queries[i]
                check(f"read {i} ({modality})", got,
                      pairs(oracle(make_seeker(modality, payload, K), context, scalar)))

    in_children(CHECKERS, check_part)
    failed = sum(1 for i in range(end_index) if not isinstance(answers[i], list))

    summary = latency_summary(latencies)
    record = {
        "inputs": {"cells": lake.cells, "tables": len(lake.lake), "reads": end_index,
                   "generated_reads": len(queries), "writes": 0},
        "setup_samples_s": setup_samples,
        "latency": summary,
        "failed_share": failed / max(1, end_index),
    }
    if session.tracer is not None:
        exact_rids = range(0, options.min_reads)
        metrics, layer_record = session.layer_metrics(
            exact_rids, options.min_reads, extra, traced_latencies, latencies
        )
        record.update(layer_record)
        record["exact_counters"] = True
        return Outcome(attempted=end_index, failed=failed, metrics=metrics, record=record)
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (summary["p50_ms"], "ms"),
        "p99_ms": (summary["p99_ms"], "ms"),
        "throughput_qps": (len(latencies) / window, "queries/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return Outcome(attempted=end_index, failed=failed, metrics=metrics, record=record)
