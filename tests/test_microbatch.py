"""Tests for the real-Spark micro-batch IQRE harness (repro.spark_iqre).

The defining property: changing the shuffle DOP *mid-query* must never
change the answer — every run is diffed against the DuckDB oracle.
"""
import dataclasses

import pytest

from repro.oracle import assert_equivalent
from repro.queries.tpch import QUERIES, load_tables
from repro.spark_iqre import SPECS, run_microbatch

SF = 0.005


@pytest.fixture(scope="module")
def tables(spark):
    names = sorted({t for q in QUERIES.values() for t in q.tables})
    return load_tables(spark, names, sf=SF)


class TestCorrectness:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_matches_oracle_with_dop_changes(self, spark, tables, name):
        qdef = QUERIES[name]
        sub = {t: tables[t] for t in qdef.tables}
        run = run_microbatch(spark, name, tables, n_batches=3, dop_schedule=[2, 16, 4])
        assert_equivalent(run.result, qdef.duckdb_sql, **sub)

    def test_matches_single_shot(self, spark, tables):
        qdef = QUERIES["Q2J"]
        single = qdef.spark_impl(spark, {t: tables[t] for t in qdef.tables})
        run = run_microbatch(spark, "Q2J", tables, n_batches=4)
        assert run.result.collect()[0]["cnt"] == single.collect()[0]["cnt"]

    @pytest.mark.parametrize("n_batches", [1, 5])
    def test_q3_reordered_join_matches_oracle(self, spark, tables, n_batches):
        """Q3's batches probe the pre-joined li ⋈ (o ⋈ c) build side."""
        qdef = QUERIES["Q3"]
        run = run_microbatch(spark, "Q3", tables, n_batches=n_batches, dop_schedule=[16, 2, 8])
        assert_equivalent(run.result, qdef.duckdb_sql, **{t: tables[t] for t in qdef.tables})

    def test_one_batch_degenerates_to_single_shot(self, spark, tables):
        qdef = QUERIES["QSHUF"]
        run = run_microbatch(spark, "QSHUF", tables, n_batches=1, dop_schedule=[8])
        assert_equivalent(
            run.result, qdef.duckdb_sql, **{t: tables[t] for t in qdef.tables}
        )


class TestDopMechanics:
    def test_schedule_list_applied_per_batch(self, spark, tables):
        run = run_microbatch(spark, "Q2J", tables, n_batches=3, dop_schedule=[2, 9, 5])
        assert run.batch_dops == [2, 9, 5]

    def test_schedule_callable(self, spark, tables):
        run = run_microbatch(spark, "Q2J", tables, n_batches=3,
                             dop_schedule=lambda i: 3 * (i + 1))
        assert run.batch_dops == [3, 6, 9]

    def test_default_schedule_doubles(self, spark, tables):
        run = run_microbatch(spark, "Q2J", tables, n_batches=3)
        assert run.batch_dops == [2, 4, 8]

    def test_conf_restored_after_run(self, spark, tables):
        before = spark.conf.get("spark.sql.shuffle.partitions")
        run_microbatch(spark, "Q2J", tables, n_batches=2, dop_schedule=[3, 7])
        assert spark.conf.get("spark.sql.shuffle.partitions") == before

    def test_partition_counts_recorded(self, spark, tables):
        run = run_microbatch(spark, "Q2J", tables, n_batches=2, dop_schedule=[2, 4])
        assert len(run.batch_partitions) == 2
        assert all(p >= 1 for p in run.batch_partitions)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_partitions_follow_dops_without_coalescing(self, spark, tables, name):
        key = "spark.sql.adaptive.coalescePartitions.enabled"
        old = spark.conf.get(key)
        spark.conf.set(key, "false")
        try:
            run = run_microbatch(spark, name, tables, n_batches=3, dop_schedule=[1, 5, 16])
        finally:
            spark.conf.set(key, old)
        assert run.batch_partitions == run.batch_dops == [1, 5, 16]

    def test_batch_wall_times_recorded(self, spark, tables):
        run = run_microbatch(spark, "Q1", tables, n_batches=3, dop_schedule=[2, 4])
        assert len(run.batch_s) == run.n_batches
        assert all(s > 0 for s in run.batch_s)

    def test_specs_cover_probe_queries(self):
        assert set(SPECS) == {"Q1", "Q3", "Q2J", "QSHUF"}
        for name, spec in SPECS.items():
            assert spec.probe_table == QUERIES[name].probe_table


class TestCleanup:
    """A run releases its checkpoints and restores the shuffle DOP, whether
    its batches succeed or one of them raises."""

    @staticmethod
    def _state(spark):
        return (
            spark.sparkContext._jsc.getPersistentRDDs().size(),
            spark.conf.get("spark.sql.shuffle.partitions"),
        )

    def test_normal_run(self, spark, tables):
        before = self._state(spark)
        run_microbatch(spark, "Q3", tables, n_batches=2, dop_schedule=[3, 7])
        assert self._state(spark) == before

    def test_run_whose_partial_raises(self, spark, tables, monkeypatch):
        def boom(batch, build):
            raise RuntimeError("partial failed")

        monkeypatch.setitem(SPECS, "Q2J", dataclasses.replace(SPECS["Q2J"], partial=boom))
        before = self._state(spark)
        with pytest.raises(RuntimeError, match="partial failed"):
            run_microbatch(spark, "Q2J", tables, n_batches=2, dop_schedule=[3, 7])
        assert self._state(spark) == before
