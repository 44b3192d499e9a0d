"""``loaded_mc``: an open-loop, MC-heavy stream into ``BatchScheduler`` on
the x1 lake.

One generator thread submits on a seeded Poisson schedule at a fixed
rate (the count of arrivals fixed too); a second thread collects the
answers in submission order. Each request is timed from its due time, so
a stall also charges the requests queued behind it, and the generator's
lateness is recorded. The mix is MC .55, SC .25, KW .20; a fifth of the
requests repeat one of six canned queries, the others are distinct (each
submission gets its own seeker object, as a server builds one per
request). The scheduler runs its defaults: 2 workers, batches of up to
32, a 2 ms window.

After the main phase an untraced run climbs a short ladder of offered
rates; ``slo_qps`` is the highest rung whose p99 latency stays within
``LATENCY_LIMIT_MS`` and whose queue drains within that limit after the
rung ends (a rung whose generator fell behind does not count).

The main rate keeps the scheduler's workers about a quarter busy on a
2-core host: near the queueing knee a small change in host speed, or in
how two workers' kernels overlap under the interpreter lock, moves the
tail several-fold, and the run's p99 with it. On larger lakes the same
share of the scheduler is too few requests per second to reach 2000
requests within a run (the x4 lake, ~1.93M cells, costs ~14 ms per MC
query and ~13 s per build).
"""

from __future__ import annotations

import queue
import random
import threading
import time

from repro.core.system import Blend
from repro.serving import BatchScheduler, DeploymentManager

from .common import (
    SETUP_REPEATS,
    TYPED_ERRORS,
    InvalidRun,
    Options,
    Outcome,
    check,
    latency_summary,
    make_seeker,
    median_setup,
    oracle,
    pairs,
    peak_rss_mb,
    percentile,
    scalar_context,
    serving_stats_delta,
)
from .lakes import QueryMaker, cumulative, make_lake
from .session import Session, now

MIX = cumulative({"MC": 0.55, "SC": 0.25, "KW": 0.20})
CANNED = 6
CANNED_SHARE = 0.2
DISTINCT = 2000
K = 10
RATE_QPS = 100.0
# The main phase offers at least twice the run's read minimum, so p99 has
# twenty samples beyond it.
MAIN_READS_FACTOR = 2
LADDER_QPS = (100.0, 200.0, 300.0, 400.0)
LADDER_SECONDS = 1.0
LATENCY_LIMIT_MS = 250.0
# The run is invalid when a submission lags its due time by more than
# this share of the phase: the offered rate was then lower than stated.
MAX_LATENESS_SHARE = 0.1


def _queries(lake, seed: int):
    maker = QueryMaker(lake, random.Random(seed + 37))
    distinct = []
    for i in range(DISTINCT + CANNED):
        modality = maker.pick(MIX)
        distinct.append((modality, maker.payload(modality, i)))
    return distinct, maker.rng


def _key(modality: str, payload) -> tuple:
    if modality == "MC":
        return (modality, tuple(tuple(row) for row in payload), K)
    return (modality, tuple(payload), K)


class _Stream:
    """Pre-built submissions: query index, seeker object and key each."""

    def __init__(self, distinct, rng: random.Random, count: int) -> None:
        self.items = []
        cursor = 0
        for _ in range(count):
            if rng.random() < CANNED_SHARE:
                q = DISTINCT + rng.randrange(CANNED)
            else:
                q = cursor % DISTINCT
                cursor += 1
            modality, payload = distinct[q]
            self.items.append((q, make_seeker(modality, payload, K), _key(modality, payload)))
        self.next = 0

    def take(self, count: int):
        if self.next + count > len(self.items):
            raise InvalidRun("the pre-generated request stream ran out")
        chunk = self.items[self.next:self.next + count]
        self.next += count
        return chunk


def _schedule(rng: random.Random, rate: float, seconds: float, min_count: int) -> list[float]:
    """Poisson arrival offsets with exactly ``n = max(rate * seconds,
    min_count)`` arrivals in ``n / rate`` seconds: a Poisson process
    conditioned on its count, whose arrival times are sorted uniform
    draws. Fixing the count keeps the offered rate the same for every
    seed; the bursts still differ."""
    count = max(round(rate * seconds), min_count)
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def _open_loop(scheduler, items, offsets, on_done=None) -> dict:
    """Submit ``items[i]`` at ``offsets[i]`` from one thread and collect
    from another. Returns per-request latency from due time, answers,
    failures and the generator's lateness."""
    handles: queue.Queue = queue.Queue()
    lateness: list[float] = []
    results: list = [None] * len(items)
    latencies: list[float] = []
    done_at: list[float] = []
    errors: list[BaseException] = []
    start = now() + 0.005

    def generate() -> None:
        try:
            for (q, seeker, key), offset in zip(items, offsets):
                due = start + offset
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
                lateness.append(max(0.0, now() - due))
                handles.put((due, scheduler.submit(seeker, key=key)))
        except BaseException as exc:
            errors.append(exc)
        finally:
            handles.put(None)

    def collect() -> None:
        i = 0
        while True:
            entry = handles.get()
            if entry is None:
                return
            due, handle = entry
            try:
                outcome = handle.result()
            except TYPED_ERRORS as error:
                results[i] = error
            else:
                finished = now()
                latencies.append(finished - due)
                done_at.append(finished)
                results[i] = pairs(outcome.result)
            if on_done is not None:
                on_done(i + 1)
            i += 1

    threads = [threading.Thread(target=generate), threading.Thread(target=collect)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return {
        "start": start,
        "end": start + offsets[-1],
        "latencies": latencies,
        "results": results,
        "lateness": lateness,
        "last_done": max(done_at) if done_at else start,
    }


def _check_lateness(phase: dict, seconds: float) -> None:
    worst = max(phase["lateness"], default=0.0)
    if worst > MAX_LATENESS_SHARE * seconds:
        raise InvalidRun(
            f"the generator fell {worst:.3f} s behind its schedule (limit "
            f"{MAX_LATENESS_SHARE * seconds:.3f} s)"
        )


def run(options: Options) -> Outcome:
    lake = make_lake(options.seed, options.scale)
    distinct, rng = _queries(lake, options.seed)
    traced_s, untraced_s = (
        (options.seconds / 2, options.seconds / 2) if options.trace else (0.0, options.seconds)
    )
    schedule_rng = random.Random(options.seed + 41)
    traced_offsets = (
        _schedule(schedule_rng, RATE_QPS, traced_s, options.min_reads) if options.trace else []
    )
    main_offsets = _schedule(
        schedule_rng, RATE_QPS, untraced_s,
        0 if options.trace else MAIN_READS_FACTOR * options.min_reads,
    )
    ladder_offsets = (
        [] if options.trace
        else [_schedule(schedule_rng, rate, LADDER_SECONDS, 1) for rate in LADDER_QPS]
    )
    stream = _Stream(
        distinct, rng,
        len(traced_offsets) + len(main_offsets) + sum(len(o) for o in ladder_offsets),
    )
    extra: dict = {}
    phases: list[tuple[str, list, dict]] = []

    with Session(options) as session:

        def setup(fresh_lake):
            blend = Blend(fresh_lake)
            blend.build_index()
            return blend, BatchScheduler(DeploymentManager(blend))

        setup_s, setup_samples, (blend, scheduler) = median_setup(
            SETUP_REPEATS, lambda: make_lake(options.seed, options.scale).lake,
            setup, lambda result: result[1].close(),
        )
        try:
            traced_phase = None
            if session.tracer is not None:
                cache_before = blend.db.plan_cache_stats()
                stats_before = scheduler.stats.snapshot()

                def on_done(done: int) -> None:
                    if done == options.min_reads:
                        after = blend.db.plan_cache_stats()
                        extra["plan_cache_hits"] = after["hits"] - cache_before["hits"]
                        extra["plan_cache_lookups"] = (
                            after["hits"] + after["misses"]
                            - cache_before["hits"] - cache_before["misses"]
                        )
                        extra.update(serving_stats_delta(stats_before, scheduler.stats.snapshot()))
                        session.exact = (session.phase[0], now())

                items = stream.take(len(traced_offsets))
                session.phase = (now(), 0.0)
                traced_phase = _open_loop(scheduler, items, traced_offsets, on_done)
                session.phase = (session.phase[0], now())
                session.untrace()
                phases.append(("traced", items, traced_phase))
                _check_lateness(traced_phase, traced_s)
            items = stream.take(len(main_offsets))
            main = _open_loop(scheduler, items, main_offsets)
            phases.append(("main", items, main))
            _check_lateness(main, max(untraced_s, main_offsets[-1]))
            rungs = []
            for rate, offsets in zip(LADDER_QPS, ladder_offsets):
                items = stream.take(len(offsets))
                rung = _open_loop(scheduler, items, offsets)
                phases.append((f"ladder{rate:g}", items, rung))
                rungs.append((rate, rung))
        finally:
            scheduler.close()

    context = blend.context()
    scalar = scalar_context(context)
    expected: dict[int, list] = {}
    failed = attempted = 0
    for name, items, phase in phases:
        for (q, _, _), got in zip(items, phase["results"]):
            attempted += 1
            if not isinstance(got, list):
                failed += 1
                continue
            if q not in expected:
                modality, payload = distinct[q]
                expected[q] = pairs(oracle(make_seeker(modality, payload, K), context, scalar))
            check(f"{name} query {q} ({distinct[q][0]})", got, expected[q])

    ladder = []
    slo_qps = 0.0
    for rate, rung in [] if options.trace else rungs:
        p99 = percentile(rung["latencies"], 0.99) * 1e3 if rung["latencies"] else float("inf")
        drain_ms = (rung["last_done"] - rung["end"]) * 1e3
        behind = max(rung["lateness"]) > MAX_LATENESS_SHARE * LADDER_SECONDS
        meets = p99 <= LATENCY_LIMIT_MS and drain_ms <= LATENCY_LIMIT_MS and not behind
        ladder.append({"offered_qps": rate, "p99_ms": p99, "drain_ms": drain_ms,
                       "requests": len(rung["results"]), "generator_behind": behind,
                       "meets_limit": meets})
        if meets:
            slo_qps = rate
    summary = latency_summary(main["latencies"])
    lateness = [x for _, _, phase in phases for x in phase["lateness"]]
    record = {
        "inputs": {
            "cells": lake.cells, "tables": len(lake.lake), "reads": attempted, "writes": 0,
            "distinct_queries": DISTINCT, "canned_queries": CANNED,
            "offered_qps": RATE_QPS, "ladder_qps": list(LADDER_QPS),
            "ladder_seconds": LADDER_SECONDS, "latency_limit_ms": LATENCY_LIMIT_MS,
        },
        "generator_lateness_ms": {
            "p50": percentile(lateness, 0.5) * 1e3, "p99": percentile(lateness, 0.99) * 1e3,
            "max": max(lateness) * 1e3,
        },
        "setup_samples_s": setup_samples,
        "latency": summary,
        "ladder": ladder,
        "failed_share": failed / max(1, attempted),
        "workload_metrics": {"slo_qps": (slo_qps, "queries/s")} if not options.trace else {},
    }
    if session.tracer is not None:
        metrics, layer_record = session.layer_metrics(
            None, options.min_reads, extra, traced_phase["latencies"], main["latencies"]
        )
        record.update(layer_record)
        record["layers"]["batch_size_histogram"] = extra.get("batch_size_histogram")
        record["exact_counters"] = False
        return Outcome(attempted=attempted, failed=failed, metrics=metrics, record=record)
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (summary["p50_ms"], "ms"),
        "p99_ms": (summary["p99_ms"], "ms"),
        "throughput_qps": (len(main["latencies"]) / (main["last_done"] - main["start"]),
                           "queries/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return Outcome(attempted=attempted, failed=failed, metrics=metrics, record=record)
