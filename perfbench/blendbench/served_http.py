"""``served_http``: two client threads, closed loop, ``POST /query`` to a
default ``BlendServer`` on the x1 lake.

The stream mixes SC .50, KW .35 and MC .15 over hot-skewed values; a
fifth of the requests repeat one of six canned queries (dashboard and
retry traffic the scheduler coalesces). Request bodies are encoded before
timing starts; each request opens its own connection (``Connection:
close``, as urllib does). On a kept-alive connection the server's
separate header and body writes meet the client's delayed ACK, and every
request would wait ~40 ms on TCP timers, hiding every other layer. Every
answer is checked after the window against the direct seeker (MC through
the scalar phases) on the served generation.
"""

from __future__ import annotations

import http.client
import json
import random
import threading

from repro.core.system import Blend
from repro.serving import BlendServer

from .common import (
    SETUP_REPEATS,
    Options,
    Outcome,
    check,
    latency_summary,
    make_seeker,
    median_setup,
    oracle,
    pairs,
    peak_rss_mb,
    scalar_context,
    serving_stats_delta,
)
from .lakes import QueryMaker, cumulative, make_lake
from .session import Session, now

MIX = cumulative({"SC": 0.50, "KW": 0.35, "MC": 0.15})
CANNED = 6
CANNED_SHARE = 0.2
CLIENTS = 2
K = 10
MAX_QPS = 1200
WIRE = {"SC": "sc", "KW": "kw", "MC": "mc"}


def _queries(lake, seed: int, count: int) -> tuple[list[int], list[tuple[str, object]]]:
    """The request stream as indexes into a list of distinct queries."""
    maker = QueryMaker(lake, random.Random(seed + 23))
    distinct: list[tuple[str, object]] = []

    def fresh() -> int:
        modality = maker.pick(MIX)
        distinct.append((modality, maker.payload(modality, len(distinct))))
        return len(distinct) - 1

    canned = [fresh() for _ in range(CANNED)]
    stream = [
        maker.rng.choice(canned) if maker.rng.random() < CANNED_SHARE else fresh()
        for _ in range(count)
    ]
    return stream, distinct


def _body(modality: str, payload) -> bytes:
    key = "tuples" if modality == "MC" else "values"
    values = [list(row) for row in payload] if modality == "MC" else payload
    return json.dumps({"modality": WIRE[modality], key: values, "k": K}).encode()


class _Clients:
    """Closed-loop HTTP clients sharing one request cursor."""

    def __init__(self, address, bodies, stream) -> None:
        self.address = address
        self.bodies = bodies
        self.stream = stream
        self.cursor = 0
        self.lock = threading.Lock()
        self.replies: dict[int, tuple[int, bytes]] = {}
        self.done = 0

    def run(self, seconds: float, min_reads: int, latencies: list[float], on_read=None) -> None:
        deadline = now() + seconds
        errors: list[BaseException] = []

        def client() -> None:
            try:
                while True:
                    with self.lock:
                        if self.cursor >= len(self.stream) or (
                            now() >= deadline and self.done >= min_reads
                        ):
                            return
                        i = self.cursor
                        self.cursor += 1
                    began = now()
                    connection = http.client.HTTPConnection(*self.address, timeout=60)
                    try:
                        connection.request(
                            "POST", "/query", body=self.bodies[self.stream[i]],
                            headers={"Content-Type": "application/json",
                                     "Connection": "close"},
                        )
                        reply = connection.getresponse()
                        data = reply.read()
                    finally:
                        connection.close()
                    elapsed = now() - began
                    with self.lock:
                        self.replies[i] = (reply.status, data)
                        if reply.status == 200:
                            latencies.append(elapsed)
                        self.done += 1
                        if on_read is not None:
                            on_read(self.done)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]


def run(options: Options) -> Outcome:
    lake = make_lake(options.seed, options.scale)
    stream, distinct = _queries(
        lake, options.seed, int(MAX_QPS * options.seconds) + 2 * options.min_reads
    )
    bodies = [_body(modality, payload) for modality, payload in distinct]
    traced_latencies: list[float] = []
    latencies: list[float] = []
    extra: dict = {}

    with Session(options) as session:

        def setup(fresh_lake):
            blend = Blend(fresh_lake)
            blend.build_index()
            blend.warm()
            return blend, BlendServer(blend).start()

        setup_s, setup_samples, (blend, server) = median_setup(
            SETUP_REPEATS, lambda: make_lake(options.seed, options.scale).lake, setup,
            lambda result: result[1].stop(),
        )
        try:
            clients = _Clients(server.address, bodies, stream)
            traced_s, untraced_s = session.windows()
            if session.tracer is not None:
                cache_before = blend.db.plan_cache_stats()
                stats_before = server.stats.snapshot()

                def on_read(done: int) -> None:  # called under the clients' lock
                    if done == options.min_reads:
                        after = blend.db.plan_cache_stats()
                        extra["plan_cache_hits"] = after["hits"] - cache_before["hits"]
                        extra["plan_cache_lookups"] = (
                            after["hits"] + after["misses"]
                            - cache_before["hits"] - cache_before["misses"]
                        )
                        extra.update(serving_stats_delta(stats_before, server.stats.snapshot()))
                        session.exact = (session.phase[0], now())

                session.phase = (now(), 0.0)
                clients.run(traced_s, options.min_reads, traced_latencies, on_read)
                session.phase = (session.phase[0], now())
                session.untrace()
                extra["http_client_mean_s"] = sum(traced_latencies) / len(traced_latencies)
            first_untraced = clients.cursor
            clients.done = 0
            window_start = now()
            clients.run(untraced_s, 0 if session.tracer is not None else options.min_reads,
                        latencies)
            window = now() - window_start
        finally:
            server.stop()

    context = blend.context()
    scalar = scalar_context(context)
    expected: dict[int, list] = {}
    failed = 0
    for i, (status, data) in sorted(clients.replies.items()):
        if status != 200:
            failed += 1
            continue
        q = stream[i]
        if q not in expected:
            modality, payload = distinct[q]
            expected[q] = pairs(oracle(make_seeker(modality, payload, K), context, scalar))
        got = [(int(hit["table_id"]), float(hit["score"])) for hit in json.loads(data)["results"]]
        check(f"request {i} ({distinct[q][0]})", got, expected[q])

    attempted = len(clients.replies)
    summary = latency_summary(latencies)
    record = {
        "inputs": {"cells": lake.cells, "tables": len(lake.lake), "reads": attempted,
                   "distinct_queries_checked": len(expected), "writes": 0,
                   "clients": CLIENTS},
        "setup_samples_s": setup_samples,
        "latency": summary,
        "failed_share": failed / max(1, attempted),
    }
    if session.tracer is not None:
        metrics, layer_record = session.layer_metrics(
            None, options.min_reads, extra, traced_latencies, latencies
        )
        record.update(layer_record)
        record["layers"]["batch_size_histogram"] = extra.get("batch_size_histogram")
        record["exact_counters"] = False
        return Outcome(attempted=attempted, failed=failed, metrics=metrics, record=record)
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (summary["p50_ms"], "ms"),
        "p99_ms": (summary["p99_ms"], "ms"),
        "throughput_qps": (
            sum(1 for i, (s, _) in clients.replies.items() if i >= first_untraced and s == 200)
            / window,
            "queries/s",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return Outcome(attempted=attempted, failed=failed, metrics=metrics, record=record)
