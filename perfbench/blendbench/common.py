"""Shared pieces: run options, the result record, percentiles, the
environment record, peak memory and the oracle helpers."""

from __future__ import annotations

import gc
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.core.hybrid import HybridSeeker
from repro.core.seekers import Seeker, SeekerContext, Seekers
from repro.core.semantic import SemanticSeeker
from repro.errors import BlendError

# Percentile reported as the tail: with >= 1000 reads per run it has at
# least ten samples beyond it.
TAIL = 0.99
MIN_READS = 1000
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
# Forked children that check a run's answers after its window.
CHECKERS = 2


class WrongAnswer(AssertionError):
    """An answer differed from the oracle: the run is aborted."""


class InvalidRun(RuntimeError):
    """The load generator could not keep its schedule: the run measured
    a lower load than it claims, so it reports nothing."""


@dataclass
class Options:
    """One run's settings. ``scale`` multiplies every lake (1.0 is the
    benchmark; the self-tests run far smaller). ``min_reads`` is the read
    count a run reaches even past ``seconds``; the first ``min_reads``
    reads of a traced phase are also the exact window over which work
    counters are totalled."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: float = 1.0
    min_reads: int = MIN_READS
    out_dir: Path = Path(".")


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    record: dict[str, Any] = field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def latency_summary(seconds_list: list[float]) -> dict[str, float]:
    return {
        "p50_ms": percentile(seconds_list, 0.50) * 1e3,
        "p90_ms": percentile(seconds_list, 0.90) * 1e3,
        "p99_ms": percentile(seconds_list, TAIL) * 1e3,
        "samples": len(seconds_list),
    }


def median_setup(
    repeats: int,
    prepare: Callable[[], Any],
    setup_once: Callable[[Any], Any],
    teardown: Callable[[Any], None] = lambda result: None,
) -> tuple[float, list[float], Any]:
    """Set up ``repeats`` times and return the median seconds, every
    sample, and the last repeat's result (earlier ones go to *teardown*,
    untimed).

    Each repeat gets fresh inputs from *prepare* (untimed): the program
    caches facts on the lake's tables (inferred column types), so a
    second build over the same lake objects would be cheaper than the one
    a user pays. A full garbage collection before each repeat and after
    the last one (untimed) frees the earlier repeats and settles the
    heap, so a full collection triggered by set-up garbage does not land
    at a random point of the timed window."""
    samples = []
    result = None
    for i in range(repeats):
        if result is not None:
            teardown(result)
            result = None
        inputs = prepare()
        gc.collect()
        began = time.perf_counter()
        result = setup_once(inputs)
        samples.append(time.perf_counter() - began)
    gc.collect()
    return statistics.median(samples), samples, result


def peak_rss_mb(child_pids: Optional[list[int]] = None) -> float:
    """Peak RSS of this process plus the peak RSS of each live child in
    *child_pids* (read before the children exit)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids or []:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``"unknown"`` when the checkout is not a git work tree."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
    except OSError:
        return "unknown"
    if not text.startswith("ref:"):
        return text
    ref = text.split(None, 1)[1]
    try:
        return (root / ".git" / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, options: Options) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "git_sha": git_sha(root),
        "seed": options.seed,
        "seconds": options.seconds,
        "scale": options.scale,
        "trace": options.trace,
    }


# -- seekers and the oracle ------------------------------------------------------


def make_seeker(modality: str, payload: Any, k: int = 10, exact_semantic: bool = False) -> Seeker:
    """The seeker a request of *modality* runs, with the defaults
    ``Blend.discover`` uses for the same modality."""
    if modality == "SC":
        return Seekers.SC(payload, k=k)
    if modality == "KW":
        return Seekers.KW(payload, k=k)
    if modality == "MC":
        return Seekers.MC(payload, k=k)
    if modality == "C":
        keys, targets = payload
        return Seekers.C(keys, targets, k=k)
    if modality == "SS":
        return SemanticSeeker(payload, k=k, exact=exact_semantic)
    if modality == "HY":
        values, about = payload
        return HybridSeeker(values, about=about, k=k, exact=True)
    raise ValueError(f"unknown modality {modality!r}")


def oracle(seeker: Seeker, context: SeekerContext, scalar: SeekerContext):
    """The expected answer: MC through the scalar phases, every other
    modality through its direct ``execute``."""
    if seeker.kind == "MC":
        return seeker.execute(scalar)
    return seeker.execute(context)


def scalar_context(context: SeekerContext) -> SeekerContext:
    from dataclasses import replace

    return replace(context, vectorized=False)


def pairs(result) -> list[tuple[int, float]]:
    return [(int(hit.table_id), float(hit.score)) for hit in result]


def check(label: str, got: list[tuple[int, float]], expected: list[tuple[int, float]]) -> None:
    if got != expected:
        raise WrongAnswer(
            f"{label}: answer differs from the oracle\n  got      {got[:5]}...\n"
            f"  expected {expected[:5]}..."
        )


def in_children(parts: int, work: Callable[[int], None]) -> None:
    """Run ``work(0)`` .. ``work(parts - 1)`` each in its own forked child
    and wait for every child to end.

    The children inherit the run's state (lake, index, answers)
    copy-on-write, so the answer checks after a window use every core
    without copying the index. A :class:`WrongAnswer` in a child is
    raised here; any other failure in a child raises ``RuntimeError``."""
    sys.stdout.flush()
    sys.stderr.flush()
    context = multiprocessing.get_context("fork")
    children = []
    failures: list[tuple[bool, str]] = []
    try:
        for part in range(parts):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_child, args=(work, part, sender), daemon=True)
            child.start()
            sender.close()
            children.append((child, receiver))
        for part, (child, receiver) in enumerate(children):
            try:
                failure = receiver.recv()
            except EOFError:
                failure = (False, f"answer-check child {part} ended without a report")
            if failure is not None:
                failures.append(failure)
    finally:
        for child, receiver in children:
            child.join(timeout=10)
            if child.is_alive():
                child.terminate()
                child.join()
            receiver.close()
    for wrong, message in failures:
        if wrong:
            raise WrongAnswer(message)
    if failures:
        raise RuntimeError(failures[0][1])


def _child(work: Callable[[int], None], part: int, sender) -> None:
    try:
        work(part)
    except WrongAnswer as wrong:
        sender.send((True, str(wrong)))
    except BaseException as error:  # reported to the parent
        sender.send((False, f"answer-check child {part}: {type(error).__name__}: {error}"))
    else:
        sender.send(None)
    finally:
        sender.close()


def serving_stats_delta(before: dict, after: dict) -> dict:
    """Per-layer serving counters between two ``ServingStats.snapshot()``
    views: completed, coalesced share, mean batch size (with the
    histogram), timeouts, errors and stale-context retries."""
    completed = after["completed"] - before["completed"]
    hist_before = {int(s): c for s, c in before["batch_size_histogram"].items()}
    batches = {
        int(size): count - hist_before.get(int(size), 0)
        for size, count in after["batch_size_histogram"].items()
    }
    total = sum(batches.values())
    return {
        "serving.completed": float(completed),
        "serving.coalesced_share": (
            (after["coalesced"] - before["coalesced"]) / completed if completed else 0.0
        ),
        "serving.batch_size_hist": (
            sum(size * count for size, count in batches.items()) / total if total else 0.0
        ),
        "serving.timeouts": float(after["timeouts"] - before["timeouts"]),
        "serving.errors": float(after["errors"] - before["errors"]),
        "serving.stale_retries": float(after["stale_retries"] - before["stale_retries"]),
        "batch_size_histogram": {size: count for size, count in sorted(batches.items()) if count},
    }


TYPED_ERRORS = (BlendError,)
