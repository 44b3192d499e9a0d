"""The per-layer view: which public functions are wrapped in a traced
run, and how their spans become the per-layer metrics.

Layers are the program's modules on the query and write paths:

* ``repro.core``     -- ``Blend.discover``, each seeker's ``partials``, the
  three MC phases, the cross-query batch kernel, ``merge_partials``;
* ``repro.engine``   -- ``Database.execute`` / ``execute_columnar``;
* ``repro.lake``     -- ``DataLake.gather_rows``;
* ``repro.index``    -- ``Blend.build_index`` (with AllVectors when the
  workload builds them) and the XASH token cache;
* ``repro.serving``  -- ``BlendServer.handle_query``, ``BatchScheduler``
  submit / ``PendingQuery.result``, the shard coordinator's scatter,
  gather, swap and routed writes;
* ``repro.snapshot`` -- ``save_sharded``, ``ShardCoordinator.load``,
  delta saves and compaction.

Every per-layer time is a mean per call, in ms (``*_s`` in seconds).
Work counters are totals over the run's exact window -- the first
``min_reads`` reads of the traced phase -- so on a single-caller
workload they repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics
import sys
from bisect import bisect_left
from typing import Any, Optional

from repro.core import results as core_results
from repro.core.hybrid import HybridSeeker
from repro.core.seekers import (
    CorrelationSeeker,
    KeywordSeeker,
    MultiColumnSeeker,
    SingleColumnSeeker,
)
from repro.core.semantic import SemanticSeeker
from repro.core.system import Blend
from repro.engine.database import Database
from repro.index.xash import xash as xash_cached
from repro.lake.datalake import DataLake
from repro.serving import compaction as compaction_module
from repro.serving.scheduler import BatchScheduler, PendingQuery
from repro.serving.server import BlendServer
from repro.serving.sharded import ProcessShardWorker, ShardCoordinator
import repro.snapshot as snapshot_module

from .tracer import Patch, Span, Tracer, children_of, self_time

SEEKER_KINDS = ("SC", "KW", "MC", "C", "SS", "HY")

# (name, unit) of every per-layer metric, in report order. BENCHMARK.json
# lists the same names.
PER_LAYER: list[tuple[str, str]] = [
    ("core.discover.self_ms", "ms"),
    *[(f"core.seeker.{kind}.ms", "ms") for kind in SEEKER_KINDS],
    ("core.mc.join_ms", "ms"),
    ("core.mc.filter_ms", "ms"),
    ("core.mc.validate_ms", "ms"),
    ("core.mc.candidates", "count"),
    ("core.mc.survivors", "count"),
    ("core.mc.validated", "count"),
    ("core.mc.prune_ratio", "ratio"),
    ("core.mc.yield", "ratio"),
    ("core.batch.kernel_ms", "ms"),
    ("core.batch.size_p50", "count"),
    ("core.merge_partials_ms", "ms"),
    ("engine.sql_ms", "ms"),
    ("engine.sql_calls", "count/read"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("engine.plan_cache_lookups", "count"),
    ("lake.gather_rows_ms", "ms"),
    ("lake.gathered_rows", "count"),
    ("index.build_s", "s"),
    ("index.xash_hit_ratio", "ratio"),
    ("index.xash_lookups", "count"),
    ("serving.http_ms", "ms"),
    ("serving.queue_wait_ms", "ms"),
    ("serving.deliver_ms", "ms"),
    ("serving.coalesced_share", "ratio"),
    ("serving.completed", "count"),
    ("serving.batch_size_hist", "count"),
    ("serving.timeouts", "count"),
    ("serving.errors", "count"),
    ("serving.stale_retries", "count"),
    ("serving.scatter_ms", "ms"),
    ("serving.shard_wait_ms.max", "ms"),
    ("serving.shard_wait_ms.mean", "ms"),
    ("serving.swap_ms", "ms"),
    ("serving.write_ms.add", "ms"),
    ("serving.write_ms.replace", "ms"),
    ("serving.write_ms.remove", "ms"),
    ("snapshot.save_delta_ms", "ms"),
    ("snapshot.compact_ms", "ms"),
    ("snapshot.compactions", "count"),
    ("snapshot.bytes_written", "bytes"),
    ("snapshot.save_sharded_s", "s"),
    ("snapshot.load_s", "s"),
    ("trace.overhead_share", "ratio"),
]

# The base each ratio is a share of, reported next to it.
RATIO_BASES = {
    "core.mc.prune_ratio": "core.mc.candidates",
    "core.mc.yield": "core.mc.survivors",
    "engine.plan_cache_hit_ratio": "engine.plan_cache_lookups",
    "index.xash_hit_ratio": "index.xash_lookups",
    "serving.coalesced_share": "serving.completed",
}


# -- wrappers -------------------------------------------------------------------------


def _count_first(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["n"] = len(result[0])


def _kernel_enter(span: Span, args: tuple, kwargs: dict) -> None:
    seekers = args[1]
    span.attrs["size"] = len(seekers)
    span.attrs["sids"] = [id(seeker) for seeker in seekers]


def _xash_enter(span: Span, args: tuple, kwargs: dict) -> None:
    info = xash_cached.cache_info()
    span.attrs["xash_before"] = (info.hits, info.misses)


def _xash_exit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    info = xash_cached.cache_info()
    hits, misses = span.attrs.pop("xash_before")
    span.attrs["xash_hits"] = info.hits - hits
    span.attrs["xash_misses"] = info.misses - misses


def _request_name(args: tuple, kwargs: dict) -> Optional[str]:
    op = args[1] if len(args) > 1 else kwargs.get("op")
    return "snapshot.save_delta" if op == "save_delta" else None


class RequestLog:
    """Per-request submit and wake times of scheduler requests, keyed to
    the seeker object that was submitted (for queue-wait attribution)."""

    def __init__(self) -> None:
        self.pending: dict[int, tuple[float, int, Any]] = {}
        self.requests: list[tuple[float, int, Any, float]] = []

    def on_submit(self, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        seeker = args[1]
        key = kwargs.get("key", args[3] if len(args) > 3 else None)
        self.pending[id(result)] = (span.start, id(seeker), key)

    def on_result(self, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        record = self.pending.pop(id(args[0]), None)
        if record is not None:
            submitted, sid, key = record
            self.requests.append((submitted, sid, key, span.end))


def patches(log: RequestLog) -> list[Patch]:
    found = [
        Patch(Blend, "discover", "core.discover"),
        Patch(Blend, "execute_batch_partials", "core.batch.kernel", on_enter=_kernel_enter),
        Patch(Blend, "build_index", "index.build", on_exit=_xash_exit, on_enter=_xash_enter),
        Patch(SingleColumnSeeker, "partials", "core.seeker.SC"),
        Patch(KeywordSeeker, "partials", "core.seeker.KW"),
        Patch(MultiColumnSeeker, "partials", "core.seeker.MC"),
        Patch(CorrelationSeeker, "partials", "core.seeker.C"),
        Patch(SemanticSeeker, "partials", "core.seeker.SS"),
        Patch(HybridSeeker, "partials", "core.seeker.HY"),
        Patch(MultiColumnSeeker, "fetch_candidate_arrays", "core.mc.join", on_exit=_count_first),
        Patch(MultiColumnSeeker, "superkey_filter_batch", "core.mc.filter", on_exit=_count_first),
        Patch(MultiColumnSeeker, "validate_batch", "core.mc.validate", on_exit=_count_first),
        Patch(Database, "execute", "engine.sql"),
        Patch(Database, "execute_columnar", "engine.sql"),
        Patch(DataLake, "gather_rows", "lake.gather_rows", on_exit=_count_first),
        Patch(BlendServer, "handle_query", "serving.handle_query"),
        Patch(BatchScheduler, "submit", "serving.submit", on_exit=log.on_submit),
        Patch(PendingQuery, "result", "serving.result", on_exit=log.on_result),
        Patch(ProcessShardWorker, "send", "serving.send"),
        Patch(ProcessShardWorker, "recv", "serving.recv"),
        Patch(ProcessShardWorker, "request", _request_name),
        Patch(ShardCoordinator, "execute_batch", "serving.scatter_gather"),
        Patch(ShardCoordinator, "add_table", "serving.write.add"),
        Patch(ShardCoordinator, "replace_table", "serving.write.replace"),
        Patch(ShardCoordinator, "remove_table", "serving.write.remove"),
        Patch(ShardCoordinator, "swap_shard", "serving.swap"),
        Patch(ShardCoordinator, "compact_shard", "snapshot.compact_shard"),
        Patch(ShardCoordinator, "load", "snapshot.load"),
        Patch(compaction_module, "compact_snapshot", "snapshot.compact"),
        Patch(snapshot_module, "save_sharded", "snapshot.save_sharded"),
    ]
    # merge_partials is imported by name into several modules; wrap every
    # binding of the one function so each caller's calls are seen.
    original = core_results.merge_partials
    for name, module in sorted(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "merge_partials", None) is original:
            found.append(Patch(module, "merge_partials", "core.merge_partials"))
    return found


# -- metrics from spans ------------------------------------------------------------------


def _mean(values: list[float]) -> Optional[float]:
    return statistics.fmean(values) if values else None


def _attribute_requests(
    log: RequestLog, kernels: list[Span]
) -> tuple[list[float], list[float]]:
    """Queue wait (kernel start - submit) and delivery (wake - kernel end)
    per scheduler request. A request is carried by the first kernel that
    started after its submit and holds its seeker -- or, for a request
    coalesced onto an identical one, a seeker with the same key."""
    key_of = {sid: key for _, sid, key, _ in log.requests if key is not None}
    ordered = sorted(kernels, key=lambda s: s.start)
    starts = [k.start for k in ordered]
    kernel_sids = [set(k.attrs.get("sids", ())) for k in ordered]
    kernel_keys = [{key_of.get(sid) for sid in sids} - {None} for sids in kernel_sids]
    waits: list[float] = []
    delivers: list[float] = []
    for submitted, sid, key, woke in log.requests:
        position = bisect_left(starts, submitted)
        for j in range(position, min(position + 256, len(ordered))):
            if ordered[j].start > woke:
                break
            if sid in kernel_sids[j] or (key is not None and key in kernel_keys[j]):
                waits.append(ordered[j].start - submitted)
                delivers.append(woke - ordered[j].end)
                break
    return waits, delivers


def layer_metrics(
    tracer: Tracer,
    log: RequestLog,
    phase: tuple[float, float],
    exact: tuple[float, float],
    exact_rids: Optional[range],
    reads_in_exact: int,
    extra: dict[str, float],
) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """Per-layer metrics of one traced phase.

    *phase* bounds the spans timed (setup spans -- builds, shard saves and
    loads -- are taken from the whole run); *exact* bounds the exact
    window in time and *exact_rids*, when the workload tags spans with
    request ids, selects it by id instead. *extra* carries the values
    measured by the workload itself (plan-cache deltas, client
    latencies, serving counters, snapshot bytes, tracing overhead).
    Returns the metrics and a record naming what was not measured."""
    spans = tracer.spans
    in_phase = [s for s in spans if phase[0] <= s.start <= phase[1]]

    def in_exact(span: Span) -> bool:
        if exact_rids is not None and span.rid is not None:
            return span.rid in exact_rids
        return exact[0] <= span.start <= exact[1]

    by_name: dict[str, list[Span]] = {}
    for span in in_phase:
        by_name.setdefault(span.name, []).append(span)
    exact_by_name: dict[str, list[Span]] = {}
    for span in spans:
        if in_exact(span) and phase[0] <= span.start <= phase[1]:
            exact_by_name.setdefault(span.name, []).append(span)
    children = children_of(spans)

    values: dict[str, Optional[float]] = {}

    def mean_ms(name: str) -> Optional[float]:
        found = _mean([s.duration for s in by_name.get(name, [])])
        return None if found is None else found * 1e3

    def total(name: str) -> Optional[float]:
        found = exact_by_name.get(name)
        if found is None:
            return None
        return float(sum(s.attrs.get("n", 0) for s in found))

    def ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
        if numerator is None or denominator is None:
            return None
        return numerator / denominator if denominator else 0.0

    discover = by_name.get("core.discover", [])
    values["core.discover.self_ms"] = (
        _mean([
            self_time(s, children.get(s.span_id, []),
                      include=lambda c: c.name.startswith("core.seeker."))
            for s in discover
        ])
        if discover else None
    )
    if values["core.discover.self_ms"] is not None:
        values["core.discover.self_ms"] *= 1e3
    for kind in SEEKER_KINDS:
        values[f"core.seeker.{kind}.ms"] = mean_ms(f"core.seeker.{kind}")
    values["core.mc.join_ms"] = mean_ms("core.mc.join")
    values["core.mc.filter_ms"] = mean_ms("core.mc.filter")
    values["core.mc.validate_ms"] = mean_ms("core.mc.validate")
    candidates = total("core.mc.join")
    survivors = total("core.mc.filter")
    validated = total("core.mc.validate")
    values["core.mc.candidates"] = candidates
    values["core.mc.survivors"] = survivors
    values["core.mc.validated"] = validated
    pruned = ratio(survivors, candidates)
    values["core.mc.prune_ratio"] = None if pruned is None else (
        1.0 - pruned if candidates else 0.0
    )
    values["core.mc.yield"] = ratio(validated, survivors)

    kernels = by_name.get("core.batch.kernel", [])
    values["core.batch.kernel_ms"] = mean_ms("core.batch.kernel")
    values["core.batch.size_p50"] = (
        float(statistics.median(k.attrs["size"] for k in kernels)) if kernels else None
    )
    values["core.merge_partials_ms"] = mean_ms("core.merge_partials")

    values["engine.sql_ms"] = mean_ms("engine.sql")
    sql_calls = exact_by_name.get("engine.sql")
    values["engine.sql_calls"] = (
        len(sql_calls) / reads_in_exact if sql_calls is not None and reads_in_exact else None
    )
    values["engine.plan_cache_lookups"] = extra.get("plan_cache_lookups")
    values["engine.plan_cache_hit_ratio"] = ratio(
        extra.get("plan_cache_hits"), extra.get("plan_cache_lookups")
    )

    values["lake.gather_rows_ms"] = mean_ms("lake.gather_rows")
    values["lake.gathered_rows"] = total("lake.gather_rows")

    builds = [s for s in spans if s.name == "index.build"]
    values["index.build_s"] = _mean([s.duration for s in builds])
    if builds:
        hits = sum(s.attrs.get("xash_hits", 0) for s in builds)
        lookups = hits + sum(s.attrs.get("xash_misses", 0) for s in builds)
        values["index.xash_lookups"] = float(lookups)
        values["index.xash_hit_ratio"] = hits / lookups if lookups else 0.0
    else:
        values["index.xash_lookups"] = values["index.xash_hit_ratio"] = None

    handle = _mean([s.duration for s in by_name.get("serving.handle_query", [])])
    client = extra.get("http_client_mean_s")
    values["serving.http_ms"] = (
        (client - handle) * 1e3 if client is not None and handle is not None else None
    )
    waits, delivers = _attribute_requests(log, kernels) if log.requests else ([], [])
    values["serving.queue_wait_ms"] = _mean(waits) * 1e3 if waits else None
    values["serving.deliver_ms"] = _mean(delivers) * 1e3 if delivers else None
    for name in (
        "serving.coalesced_share",
        "serving.completed",
        "serving.batch_size_hist",
        "serving.timeouts",
        "serving.errors",
        "serving.stale_retries",
    ):
        values[name] = extra.get(name)

    scatters = by_name.get("serving.scatter_gather", [])
    scatter_ms, wait_max, wait_mean = [], [], []
    for scatter in scatters:
        kids = children.get(scatter.span_id, [])
        sends = [c.duration for c in kids if c.name == "serving.send"]
        recvs = [c.duration for c in kids if c.name == "serving.recv"]
        scatter_ms.append(sum(sends))
        if recvs:
            wait_max.append(max(recvs))
            wait_mean.append(statistics.fmean(recvs))
    values["serving.scatter_ms"] = _mean(scatter_ms) * 1e3 if scatter_ms else None
    values["serving.shard_wait_ms.max"] = _mean(wait_max) * 1e3 if wait_max else None
    values["serving.shard_wait_ms.mean"] = _mean(wait_mean) * 1e3 if wait_mean else None
    values["serving.swap_ms"] = mean_ms("serving.swap")
    for op in ("add", "replace", "remove"):
        values[f"serving.write_ms.{op}"] = mean_ms(f"serving.write.{op}")

    values["snapshot.save_delta_ms"] = mean_ms("snapshot.save_delta")
    values["snapshot.compact_ms"] = mean_ms("snapshot.compact")
    # Compactions are counted wherever the workload measures snapshot bytes.
    values["snapshot.compactions"] = (
        float(len(exact_by_name.get("snapshot.compact_shard", [])))
        if "snapshot.bytes_written" in extra else None
    )
    values["snapshot.bytes_written"] = extra.get("snapshot.bytes_written")
    saves = [s.duration for s in spans if s.name == "snapshot.save_sharded"]
    loads = [s.duration for s in spans if s.name == "snapshot.load"]
    values["snapshot.save_sharded_s"] = _mean(saves)
    values["snapshot.load_s"] = _mean(loads)
    values["trace.overhead_share"] = extra.get("trace.overhead_share")

    metrics: dict[str, tuple[float, str]] = {}
    not_measured = []
    for name, unit in PER_LAYER:
        value = values.get(name)
        if value is None:
            not_measured.append(name)
            value = 0.0
        metrics[name] = (float(value), unit)
    record = {
        "not_measured": not_measured,
        "ratio_bases": {
            ratio_name: {"ratio": metrics[ratio_name][0], base: metrics[base][0]}
            for ratio_name, base in RATIO_BASES.items()
            if ratio_name not in not_measured
        },
        "span_counts": {name: len(found) for name, found in sorted(by_name.items())},
    }
    return metrics, record
