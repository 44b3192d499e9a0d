"""The traced-run scaffolding shared by every workload.

An untraced run (``--trace 0``) measures one timed window. A traced run
(``--trace 1``) installs the wrappers before set-up, measures a traced
phase (at least half the window and at least the exact window of reads),
removes the wrappers, and measures an untraced phase for the rest of the
window; the ratio of the two phases' median read latency is the tracing
overhead.
"""

from __future__ import annotations

import statistics
import time
from contextlib import ExitStack
from typing import Any, Optional

from .common import Options
from .layers import RequestLog, layer_metrics, patches
from .tracer import Tracer


class Session:
    def __init__(self, options: Options) -> None:
        self.options = options
        self.tracer: Optional[Tracer] = Tracer() if options.trace else None
        self.log = RequestLog()
        self._stack = ExitStack()
        self.phase = (0.0, 0.0)
        self.exact = (0.0, 0.0)

    def __enter__(self) -> "Session":
        if self.tracer is not None:
            self._stack.enter_context(self.tracer.installed(patches(self.log)))
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stack.close()

    def untrace(self) -> None:
        """Remove the wrappers (end of the traced phase)."""
        self._stack.close()

    def request(self, rid: int):
        """Tag the spans of one request made on this thread (no-op untraced)."""
        if self.tracer is None:
            return ExitStack()
        return self.tracer.request(rid)

    def windows(self) -> tuple[float, float]:
        """(traced-phase seconds, untraced-phase seconds) of this run; an
        untraced run has only the second."""
        seconds = self.options.seconds
        if self.tracer is None:
            return 0.0, seconds
        return seconds / 2, seconds / 2

    def layer_metrics(
        self,
        exact_rids: Optional[range],
        reads_in_exact: int,
        extra: dict[str, float],
        traced_latencies: list[float],
        untraced_latencies: list[float],
    ) -> tuple[dict, dict]:
        assert self.tracer is not None
        if traced_latencies and untraced_latencies:
            extra["trace.overhead_share"] = (
                statistics.median(traced_latencies) / statistics.median(untraced_latencies) - 1.0
            )
        metrics, record = layer_metrics(
            self.tracer, self.log, self.phase, self.exact, exact_rids, reads_in_exact, extra
        )
        return metrics, {"layers": record, "_tracer": self.tracer}


def now() -> float:
    return time.perf_counter()
