"""Determinism suite for the vectorised AllTables build kernel.

The acceptance bar mirrors the vectorised-vs-scalar pin: on both storage
backends, both hash widths, shuffled rows, forced multi-part flushes and
empty or all-NULL lakes, ``build_alltables`` must produce **byte-
identical** ``AllTables`` relations (same values, same physical order)
and identical build reports to the scalar oracle
(``IndexConfig(vectorized=False)``), and incremental ``index_table``
must append exactly the rows a from-scratch build assigns.

The class names date from the removed process-pool build; they are kept
so the test ids stay stable.
"""

import random

import pytest

from repro.engine import Database
from repro.errors import IndexingError
from repro.index import IndexConfig, build_alltables
from repro.index import alltables
from repro.index.alltables import _FastFactorizer, index_table
from repro.lake import DataLake, Table
from repro.lake.generators import CorpusConfig, generate_corpus
from repro.lake.table import normalize_cell

ORACLE = IndexConfig(vectorized=False)


class _UnstringableCell:
    """A cell whose ``__str__`` raises -- drives an ordinary exception
    out of the normalize kernel."""

    def __str__(self):
        raise TypeError("unstringable cell")


def _random_lake(rng: random.Random, num_tables: int = 12) -> DataLake:
    """Adversarial random lakes: shared skewed vocabulary, numeric and
    mixed columns, NULL/empty/whitespace cells, bool/int collisions
    (``True == 1``), 0/1-valued cells (the fast factoriser's memo
    exclusion set), floats that normalise to ints, NaN, and tiny or
    single-column tables."""
    vocabulary = [f"tok{i}" for i in range(30)] + ["Mixed Case", " pad ", "1", "0"]
    lake = DataLake("parallel_prop")
    for t in range(num_tables):
        width = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(0, 18)):
            row = []
            for _ in range(width):
                roll = rng.random()
                if roll < 0.08:
                    row.append(None)
                elif roll < 0.16:
                    row.append(rng.randint(0, 3))
                elif roll < 0.24:
                    row.append(rng.choice([True, False]))
                elif roll < 0.34:
                    row.append(
                        rng.choice([0.0, 1.0, 2.5, 20.0, float("nan"), -7.125])
                    )
                elif roll < 0.40:
                    row.append(rng.choice(["", "  ", "42", "3.5"]))
                else:
                    row.append(rng.choice(vocabulary))
            rows.append(tuple(row))
        lake.add(Table(f"t{t}", [f"c{i}" for i in range(width)], rows))
    return lake


def _alltables_rows(lake, config, backend="column"):
    db = Database(backend=backend)
    report = build_alltables(lake, db, config)
    return db.execute("SELECT * FROM AllTables").rows, report


class TestByteIdenticalAcrossWorkerCounts:
    @pytest.mark.parametrize("flush_rows", [7, alltables._FLUSH_ROWS])
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_lakes_all_flush_sizes(self, seed, flush_rows, monkeypatch):
        """A 7-cell flush threshold splits every lake into many parts, so
        the global-dictionary merge recodes and hashes across parts."""
        lake = _random_lake(random.Random(seed))
        reference_rows, reference_report = _alltables_rows(lake, ORACLE)
        monkeypatch.setattr(alltables, "_FLUSH_ROWS", flush_rows)
        rows, report = _alltables_rows(lake, IndexConfig())
        assert rows == reference_rows
        assert report == reference_report

    @pytest.mark.parametrize("backend", ["row", "column"])
    def test_both_backends_generated_corpus(self, backend):
        lake = generate_corpus(
            CorpusConfig(name="par", num_tables=25, min_rows=4, max_rows=30, seed=13)
        )
        reference_rows, _ = _alltables_rows(lake, ORACLE, backend)
        rows, _ = _alltables_rows(lake, IndexConfig(), backend)
        assert rows == reference_rows

    @pytest.mark.parametrize("flush_rows", [7, alltables._FLUSH_ROWS])
    def test_128_bit_hashes_row_backend(self, flush_rows, monkeypatch):
        lake = _random_lake(random.Random(5))
        reference_rows, _ = _alltables_rows(
            lake, IndexConfig(hash_size=128, vectorized=False), "row"
        )
        assert any(row[4] >= 2**63 for row in reference_rows)  # real 128-bit keys
        monkeypatch.setattr(alltables, "_FLUSH_ROWS", flush_rows)
        rows, _ = _alltables_rows(lake, IndexConfig(hash_size=128), "row")
        assert rows == reference_rows

    def test_128_bit_rejected_on_column_store(self):
        lake = _random_lake(random.Random(5))
        for vectorized in (True, False):
            db = Database(backend="column")
            with pytest.raises(IndexingError, match="int64 SuperKey"):
                build_alltables(lake, db, IndexConfig(hash_size=128, vectorized=vectorized))

    def test_shuffle_rows_parity(self, monkeypatch):
        lake = _random_lake(random.Random(31))
        reference_rows, _ = _alltables_rows(
            lake, IndexConfig(shuffle_rows=True, shuffle_seed=17, vectorized=False)
        )
        for flush_rows in (alltables._FLUSH_ROWS, 7):
            monkeypatch.setattr(alltables, "_FLUSH_ROWS", flush_rows)
            rows, _ = _alltables_rows(lake, IndexConfig(shuffle_rows=True, shuffle_seed=17))
            assert rows == reference_rows, f"flush_rows={flush_rows} diverged"

    def test_scalar_oracle_agreement(self):
        lake = _random_lake(random.Random(47))
        scalar_rows, scalar_report = _alltables_rows(lake, ORACLE)
        rows, report = _alltables_rows(lake, IndexConfig())
        assert rows == scalar_rows
        assert report == scalar_report

    def test_empty_and_all_null_lakes(self, monkeypatch):
        empty = DataLake("empty")
        rows, report = _alltables_rows(empty, IndexConfig())
        assert rows == [] and report.num_index_rows == 0
        nulls = DataLake(
            "nulls",
            [Table("n", ["a", "b"], [(None, None)] * 5), Table("m", ["a"], [(None,)] * 3)],
        )
        reference_rows, reference_report = _alltables_rows(nulls, ORACLE)
        monkeypatch.setattr(alltables, "_FLUSH_ROWS", 7)  # one all-NULL part per table
        rows, report = _alltables_rows(nulls, IndexConfig())
        assert rows == reference_rows == []
        assert report == reference_report
        assert report.num_null_cells == 13


class TestFastFactorizerParity:
    """The kernel's factoriser against ``normalize_cell`` per cell, on the
    exact value classes where Python equality lies (``True == 1``,
    ``1 == 1.0``, NaN)."""

    def test_codes_match_token_for_token(self):
        rows = [
            (True, 1, "1", 1.0),
            (False, 0, "0", 0.0),
            (None, "", "  ", "x"),
            (2.0, 2, "2", float("nan")),
            (True, 1, "1", 1.0),  # repeats: memo-hit path
        ]
        fast = _FastFactorizer()
        fast_codes = fast.factorize(rows, 20)
        fast_tokens = [None if c < 0 else fast.tokens[c] for c in fast_codes]
        assert fast_tokens == [normalize_cell(value) for row in rows for value in row]
        assert fast_tokens[:4] == ["true", "1", "1", "1"]
        assert fast_tokens[4:8] == ["false", "0", "0", "0"]

    def test_zero_one_values_never_memoised(self):
        fast = _FastFactorizer()
        fast.factorize([(1, True, 0.0, "z")], 4)
        assert all(not (key == 0 or key == 1) for key in fast.memo if key is not None)


class TestWorkerFailureModes:
    def test_worker_exception_propagates(self):
        """An ordinary exception inside the normalize kernel (a cell whose
        __str__ raises) reaches the caller with its original type intact,
        and leaves no partial rows behind. (Unhashable cells -- the old
        trigger -- no longer raise: the token kernel normalises them via
        str() exactly like the scalar oracle.)"""
        lake = DataLake(
            "bad",
            [
                Table("ok", ["a"], [("fine",)] * 3),
                Table("t", ["a"], [(_UnstringableCell(),)] * 3),
            ],
        )
        db = Database(backend="column")
        with pytest.raises(TypeError, match="unstringable"):
            build_alltables(lake, db, IndexConfig())
        assert db.num_rows("AllTables") == 0

    def test_unhashable_cells_index_like_the_scalar_oracle(self):
        """Unhashable cells (lists) used to TypeError in the vectorised
        factoriser's value memo while the scalar oracle happily tokenised
        them via ``str()``; the token kernel removed the divergence."""
        lake = DataLake(
            "unhashable",
            [Table("t", ["a", "b"], [(["x", 1], "plain"), (["x", 1], None)] * 3)],
        )
        reference = Database(backend="column")
        build_alltables(lake, reference, ORACLE)
        expected = reference.execute("SELECT * FROM AllTables").rows
        assert expected, "scalar oracle indexed the unhashable cells"
        db = Database(backend="column")
        build_alltables(lake, db, IndexConfig())
        assert db.execute("SELECT * FROM AllTables").rows == expected


class TestMaintenanceAfterParallelBuild:
    @pytest.mark.parametrize("backend", ["row", "column"])
    def test_index_table_appends_identically(self, backend):
        lake = _random_lake(random.Random(11))
        extra = Table("t_extra", ["a", "b"], [("p", 1), (None, 2.5), ("q", None)])
        results = {}
        for label, config in (("scalar", ORACLE), ("kernel", IndexConfig())):
            db = Database(backend=backend)
            build_alltables(lake, db, config)
            added = index_table(len(lake), extra, db, config)
            assert added == 4  # six cells, two NULLs
            assert index_table(len(lake) + 1, Table("e", ["a"], []), db, config) == 0
            results[label] = db.execute("SELECT * FROM AllTables").rows
        assert results["kernel"] == results["scalar"]
