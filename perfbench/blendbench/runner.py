"""Run one workload, print its report and the result line, write its record."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .common import MIN_READS, InvalidRun, Options, Outcome, WrongAnswer, environment

WHY = {
    "interactive": (
        "The library user's path: one caller, closed loop, Blend.discover() over all six "
        "modalities with no serving tier, so core, engine, lake and the semantic index do "
        "all the work; a serving-tier change must show no change here."
    ),
    "served_http": (
        "Two HTTP clients on a default BlendServer: parsing, serialisation, the scheduler's "
        "queue wait and batch window dominate a request, so an idle fast path or a leaner "
        "/query shows here and a kernel speed-up is diluted."
    ),
    "loaded_mc": (
        "An open-loop MC-heavy stream straight into BatchScheduler: requests queue, batches "
        "coalesce and the MC phases (union join, XASH filter, validation through "
        "gather_rows) dominate, with no HTTP in front of the scheduler."
    ),
    "ingest_sharded": (
        "The only workload where scatter/gather, process transport, index maintenance, "
        "delta saves and compaction do real work and reads pay for base plus delta; a "
        "read-path gain that costs writes, or a cache that survives writes, shows here."
    ),
}


def _workload(name: str):
    if name == "interactive":
        from . import interactive as module
    elif name == "served_http":
        from . import served_http as module
    elif name == "loaded_mc":
        from . import loaded_mc as module
    else:
        from . import ingest_sharded as module
    return module


def _format(value: float) -> str:
    return f"{value:.6g}"


def run(args: argparse.Namespace, root: Path) -> int:
    options = Options(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
        min_reads=args.min_reads if args.min_reads is not None else MIN_READS,
        out_dir=Path(args.out),
    )
    options.out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{options.workload}-seed{options.seed}-trace{int(options.trace)}"
    began = time.perf_counter()
    try:
        outcome: Outcome = _workload(options.workload).run(options)
    except WrongAnswer as wrong:
        print(f"perfbench: WRONG ANSWER in {options.workload}: {wrong}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    except InvalidRun as invalid:
        print(f"perfbench: invalid run of {options.workload}: {invalid}", file=sys.stderr)
        return 3

    record = {
        "workload": options.workload,
        "why": WHY[options.workload],
        "environment": environment(root, options),
        "wall_s": time.perf_counter() - began,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in outcome.metrics.items()},
        **outcome.record,
    }
    spans = record.pop("_tracer", None)
    if spans is not None:
        spans.write(options.out_dir / f"{stem}.spans.jsonl")
    (options.out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {options.workload} seed {options.seed} trace {int(options.trace)}")
    print(f"  why: {WHY[options.workload]}")
    print(f"  attempted {outcome.attempted} failed {outcome.failed} "
          f"failed_share {outcome.failed / max(1, outcome.attempted):.6g} ratio")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<32} {_format(value):>14} {unit}")
    for name, (value, unit) in outcome.record.get("workload_metrics", {}).items():
        print(f"  {name:<32} {_format(value):>14} {unit}   (this workload only)")
    print(f"  record: {options.out_dir / (stem + '.json')}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0
