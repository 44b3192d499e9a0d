#!/usr/bin/env python3
"""The BLEND benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload served_http --seed 1 --seconds 36 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with wrappers around the program's public functions and prints
every per-layer metric instead. Workloads: interactive, served_http,
loaded_mc, ingest_sharded (see perfbench/README.md). The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
a human-readable report precedes it, and the full record (environment,
inputs, every metric, spans of a traced run) is written under
``perfbench/out/``.

The program is imported from ``src/`` of the same checkout; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("interactive", "served_http", "loaded_mc", "ingest_sharded")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="lake size multiplier (1.0 is the benchmark)")
    parser.add_argument("--min-reads", type=int, default=None,
                        help="reads a run reaches even past --seconds (default 1000)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for the run record and spans")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program is missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from blendbench.runner import run

    return run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
