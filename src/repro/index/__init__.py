"""The unified BLEND index: XASH super keys, Quadrant bits, the AllTables
builder, lake statistics, and Table VIII storage accounting.

The AllTables builder runs one **vectorised** kernel for the bulk build
and for incremental ``index_table`` / ``reindex_table`` alike (per-flush
token factorisation, quadrant bits from ``column_quadrant_matrix``, one
global sorted token dictionary hashed once with ``xash_batch``,
segmented super-key OR-reduction, bulk ``insert_columns`` appends), and
keeps the scalar cell-at-a-time reference
(``IndexConfig(vectorized=False)``) as the test oracle.
``benchmarks/run_bench.py`` tracks the speedups in ``BENCH_index.json``.
"""

from .alltables import (
    ALLTABLES_SCHEMA,
    IndexBuildReport,
    IndexConfig,
    build_alltables,
    deindex_table,
    index_table,
    reindex_table,
)
from .quadrant import column_means, column_quadrant_matrix, quadrant_bit, split_keys_by_target
from .stats import LakeStatistics
from .storage_model import StorageBreakdown, format_bytes, measure_breakdown
from .xash import may_contain, super_key, tuple_hash, xash, xash_batch

__all__ = [
    "ALLTABLES_SCHEMA",
    "IndexBuildReport",
    "IndexConfig",
    "build_alltables",
    "index_table",
    "deindex_table",
    "reindex_table",
    "column_means",
    "column_quadrant_matrix",
    "quadrant_bit",
    "split_keys_by_target",
    "LakeStatistics",
    "StorageBreakdown",
    "format_bytes",
    "measure_breakdown",
    "may_contain",
    "super_key",
    "tuple_hash",
    "xash",
    "xash_batch",
]
