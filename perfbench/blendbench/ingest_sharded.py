"""``ingest_sharded``: one caller thread over a two-shard
``ShardCoordinator.load(processes=True)`` on the x1 lake.

Reads (SC, KW, MC and correlation; a fifth of them canned repeats) are
interleaved with routed writes at a fixed share: ``add_table``,
``replace_table`` and ``remove_table`` of small tables. After each write
the owning shard's ``delta_fraction`` is checked, and once it crosses
``COMPACT_AT`` the shard is compacted (``compact_shard``: delta save,
clean generation, hot swap), so several compaction cycles finish in a
run. The previous generation's directory is deleted after each swap.

Every answer is checked after the window against a solo ``Blend`` that
replays the same mutation sequence (two forked children each replay it
and check every other read). Work counters and bytes written are
totalled over the ops up to the run's first ``min_reads`` reads, which
makes them exact for a seed.

Known limit: the coordinator accepts one caller at a time (a second
caller's send would find the shard worker's pipe busy), so reads, writes
and compaction all come from one thread. Compaction runs between reads:
its cost shows in ``throughput_qps`` and ``snapshot.compact_ms`` rather
than in any single read's latency. A concurrent-writer workload needs a
coordinator that admits concurrent callers.

The shards carry no AllVectors, so semantic and hybrid reads are left out
here: with the vector index built, every ``replace_table`` and
``remove_table`` rebuilds the shard's whole HNSW graph (0.3-0.5 s at x1)
and the solo replay pays it again, which does not fit a run. The
semantic index is measured on ``interactive``.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
from pathlib import Path

from repro import snapshot as snapshot_module
from repro.core.system import Blend
from repro.serving import ShardCoordinator

from .common import (
    CHECKERS,
    SETUP_REPEATS,
    TYPED_ERRORS,
    Options,
    WrongAnswer,
    Outcome,
    check,
    in_children,
    latency_summary,
    make_seeker,
    median_setup,
    oracle,
    pairs,
    peak_rss_mb,
    percentile,
    scalar_context,
)
from .lakes import QueryMaker, cumulative, make_lake, small_table
from .session import Session, now

SHARDS = 2
READ_MIX = cumulative({"SC": 0.42, "KW": 0.32, "MC": 0.16, "C": 0.10})
CANNED = 6
CANNED_SHARE = 0.2
WRITE_SHARE = 0.1
WRITE_MIX = cumulative({"add": 0.4, "replace": 0.3, "remove": 0.3})
COMPACT_AT = 0.1
K = 10
MAX_OPS_PER_S = 600


def _ops(lake, seed: int, count: int) -> list[tuple]:
    """The op stream: ``("read", modality, payload)``, ``("add", table,
    expected_id)``, ``("replace", table_id, table)`` or ``("remove",
    table_id)``. Table ids are allocated the way the coordinator (and a
    solo lake) allocate them: the next free global slot."""
    rng = random.Random(seed + 53)
    maker = QueryMaker(lake, rng)
    canned = []
    for i in range(CANNED):
        modality = maker.pick(READ_MIX)
        canned.append((modality, maker.payload(modality, -1 - i)))
    live = list(lake.lake.table_ids())
    added: list[int] = []
    next_id = lake.lake.num_slots
    ops: list[tuple] = []
    while len(ops) < count:
        if rng.random() >= WRITE_SHARE:
            if rng.random() < CANNED_SHARE:
                modality, payload = canned[rng.randrange(CANNED)]
            else:
                modality = maker.pick(READ_MIX)
                payload = maker.payload(modality, len(ops))
            ops.append(("read", modality, payload))
            continue
        kind = maker.pick(WRITE_MIX)
        if kind == "add" or len(live) < 4:
            table = small_table(rng, lake, f"w{len(ops)}")
            ops.append(("add", table, next_id))
            live.append(next_id)
            added.append(next_id)
            next_id += 1
        elif kind == "replace":
            target = live[rng.randrange(len(live))]
            ops.append(("replace", target, small_table(rng, lake, f"r{len(ops)}")))
        else:
            # Remove ingested tables first, so the lake keeps its size.
            target = added.pop(rng.randrange(len(added))) if added else live[rng.randrange(len(live))]
            live.remove(target)
            ops.append(("remove", target))
    return ops


def _files(root: Path) -> dict[str, tuple[int, int]]:
    out = {}
    for path in root.rglob("*"):
        if path.is_file():
            stat = path.stat()
            out[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return out


def _written(before: dict, after: dict) -> int:
    """Bytes of files that are new or rewritten between two listings."""
    return sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))


class _Caller:
    """Runs ops against the coordinator, compacting shards on threshold."""

    def __init__(self, coordinator: ShardCoordinator, shard_dirs: list[Path], root: Path) -> None:
        self.coordinator = coordinator
        self.shard_dirs = shard_dirs
        self.root = root
        self.generation = 0
        self.answers: dict[int, object] = {}
        self.read_latencies: list[float] = []
        self.write_latencies: list[float] = []
        self.bytes_by_op: list[tuple[int, int]] = []
        self.compactions = 0
        self.failed = 0

    def _maybe_compact(self, shard: int, op_index: int) -> None:
        stats = self.coordinator.shard_delta_stats(shard)
        if stats["delta_fraction"] <= COMPACT_AT:
            return
        self.generation += 1
        source = self.shard_dirs[shard]
        destination = self.root / f"shard{shard}-gen{self.generation}"
        before = _files(source)
        self.coordinator.compact_shard(shard, destination)
        self.bytes_by_op.append(
            (op_index, _written(before, _files(source)) + sum(
                size for size, _ in _files(destination).values()))
        )
        shutil.rmtree(source)
        self.shard_dirs[shard] = destination
        self.compactions += 1

    def step(self, i: int, op: tuple) -> bool:
        """Run op *i*; returns whether it was a read."""
        coordinator = self.coordinator
        kind = op[0]
        began = now()
        try:
            if kind == "read":
                result = coordinator.execute_batch(
                    [make_seeker(op[1], op[2], K)]
                )[0]
                self.read_latencies.append(now() - began)
                self.answers[i] = pairs(result)
                return True
            if kind == "add":
                table_id = coordinator.add_table(op[1])
                self.write_latencies.append(now() - began)
                if table_id != op[2]:
                    raise WrongAnswer(f"op {i}: add_table gave id {table_id}, not {op[2]}")
                shard = coordinator.table_shard(table_id)
            elif kind == "replace":
                coordinator.replace_table(op[1], op[2])
                self.write_latencies.append(now() - began)
                shard = coordinator.table_shard(op[1])
            else:
                shard = coordinator.table_shard(op[1])
                began = now()
                coordinator.remove_table(op[1])
                self.write_latencies.append(now() - began)
        except TYPED_ERRORS as error:
            self.answers[i] = error
            self.failed += 1
            return kind == "read"
        self._maybe_compact(shard, i)
        return False


def _replay(blend: Blend, ops: list[tuple], end: int, answers: dict, part: int = 0,
            parts: int = 1) -> None:
    """Check the answers of the reads ``i`` with ``i % parts == part``
    against a solo Blend fed every mutation of the run."""
    for i in range(end):
        op = ops[i]
        kind = op[0]
        if kind == "read":
            got = answers[i]
            if i % parts != part or not isinstance(got, list):
                continue
            context = blend.context()
            seeker = make_seeker(op[1], op[2], K)
            check(f"op {i} read ({op[1]})", got,
                  pairs(oracle(seeker, context, scalar_context(context))))
        elif kind == "add":
            if blend.add_table(op[1]) != op[2]:
                raise WrongAnswer(f"op {i}: the solo replay allocated another table id")
        elif kind == "replace":
            blend.replace_table(op[1], op[2])
        else:
            blend.remove_table(op[1])


def run(options: Options) -> Outcome:
    lake = make_lake(options.seed, options.scale)
    lake_size = {"cells": lake.cells, "tables": len(lake.lake)}
    ops = _ops(lake, options.seed, int(MAX_OPS_PER_S * options.seconds) + 3 * options.min_reads)
    root = options.out_dir / f"ingest-{options.seed}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    coordinator = None
    try:
        with Session(options) as session:
            def setup(fresh):
                fresh_lake, path = fresh
                blend = Blend(fresh_lake)
                blend.build_index()
                blend.warm()
                snapshot_module.save_sharded(blend, path, num_shards=SHARDS)
                return blend, ShardCoordinator.load(path, processes=True), path

            def teardown(result) -> None:
                result[1].close()
                shutil.rmtree(result[2])

            repeats = iter(range(SETUP_REPEATS))
            setup_s, setup_samples, (solo, coordinator, shard_root) = median_setup(
                SETUP_REPEATS,
                lambda: (make_lake(options.seed, options.scale).lake,
                         root / f"setup{next(repeats)}"),
                setup, teardown,
            )
            caller = _Caller(
                coordinator, [shard_root / f"shard{s}" for s in range(SHARDS)], root
            )
            traced_s, untraced_s = session.windows()
            i = 0
            reads = 0
            exact_end_op = None
            traced_reads = 0
            if session.tracer is not None:
                session.phase = (now(), 0.0)
                deadline = now() + traced_s
                while i < len(ops) and (now() < deadline or reads < options.min_reads):
                    with session.request(i):
                        reads += caller.step(i, ops[i])
                    if reads == options.min_reads and exact_end_op is None:
                        exact_end_op = i
                        session.exact = (session.phase[0], now())
                    i += 1
                session.phase = (session.phase[0], now())
                session.untrace()
                traced_reads = len(caller.read_latencies)
            window_start = now()
            deadline = window_start + untraced_s
            first_untraced_read = len(caller.read_latencies)
            while i < len(ops) and (
                now() < deadline or (session.tracer is None and reads < options.min_reads)
            ):
                reads += caller.step(i, ops[i])
                if reads == options.min_reads and exact_end_op is None:
                    exact_end_op = i
                i += 1
            window = now() - window_start
            children = [child.pid for child in multiprocessing.active_children()]
            rss = peak_rss_mb(children)
            shard_stats = coordinator.stats()["shards"]
        coordinator.close()
        coordinator = None
    finally:
        if coordinator is not None:
            coordinator.close()
        shutil.rmtree(root, ignore_errors=True)

    in_children(CHECKERS, lambda part: _replay(solo, ops, i, caller.answers, part, CHECKERS))

    exact_end_op = i - 1 if exact_end_op is None else exact_end_op
    exact_ops = ops[: exact_end_op + 1]
    ingested_cells = sum(
        op[1].num_rows * len(op[1].columns) if op[0] == "add"
        else op[2].num_rows * len(op[2].columns)
        for op in exact_ops if op[0] in ("add", "replace")
    )
    bytes_written = sum(b for op_index, b in caller.bytes_by_op if op_index <= exact_end_op)
    read_latencies = caller.read_latencies[first_untraced_read:]
    summary = latency_summary(read_latencies)
    writes = sum(1 for op in ops[:i] if op[0] != "read")
    record = {
        "inputs": {
            **lake_size, "ops": i, "reads": i - writes,
            "writes": writes, "shards": SHARDS, "write_share": WRITE_SHARE,
            "compact_at_delta_fraction": COMPACT_AT, "compactions": caller.compactions,
            "exact_window_ops": exact_end_op + 1, "ingested_cells": ingested_cells,
        },
        "setup_samples_s": setup_samples,
        "latency": summary,
        "failed_share": caller.failed / max(1, i),
        "shard_scheduler_stats": shard_stats,
        "workload_metrics": {
            "write_p50_ms": (percentile(caller.write_latencies, 0.5) * 1e3, "ms"),
            "write_p90_ms": (percentile(caller.write_latencies, 0.9) * 1e3, "ms"),
            "write_bytes_per_cell": (bytes_written / max(1, ingested_cells), "bytes"),
        },
    }
    if session.tracer is not None:
        extra = {"snapshot.bytes_written": float(bytes_written)}
        metrics, layer_record = session.layer_metrics(
            range(0, exact_end_op + 1), options.min_reads, extra,
            caller.read_latencies[:traced_reads], read_latencies,
        )
        record.update(layer_record)
        record["exact_counters"] = True
        return Outcome(attempted=i, failed=caller.failed, metrics=metrics, record=record)
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (summary["p50_ms"], "ms"),
        "p99_ms": (summary["p99_ms"], "ms"),
        "throughput_qps": (len(read_latencies) / window, "queries/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return Outcome(attempted=i, failed=caller.failed, metrics=metrics, record=record)
