"""Benchmark C1 — micro-batch IQRE on the real SparkSession at SF 0.1.

Compares the fixed-DOP single-shot execution against the micro-batch
execution with mid-query shuffle-DOP changes (the runtime-elasticity
analogue), for the two-way join Q2J. Each benchmark runs one untimed
warm-up round before its timed rounds, so JVM start-up and code generation
are not counted in the first query that runs.
"""
import pytest

from repro.queries.tpch import QUERIES, load_tables
from repro.spark_iqre import run_microbatch

SF = 0.1


@pytest.fixture(scope="module")
def tables(spark):
    return load_tables(spark, ["lineitem", "orders", "customer"], sf=SF)


def test_q2j_single_shot(benchmark, spark, tables):
    qdef = QUERIES["Q2J"]

    def run():
        df = qdef.spark_impl(spark, {t: tables[t] for t in qdef.tables})
        return df.collect()[0]["cnt"]

    cnt = benchmark.pedantic(run, warmup_rounds=1, rounds=3)
    assert cnt > 0


def test_q2j_microbatch_elastic(benchmark, spark, tables):
    def run():
        r = run_microbatch(spark, "Q2J", tables, n_batches=4, dop_schedule=[4, 8, 16, 32])
        return r.result.collect()[0]["cnt"]

    cnt = benchmark.pedantic(run, warmup_rounds=1, rounds=3)
    assert cnt > 0


def test_q1_microbatch_elastic(benchmark, spark, tables):
    def run():
        r = run_microbatch(spark, "Q1", tables, n_batches=3, dop_schedule=[4, 16, 8])
        return r.result.count()

    n = benchmark.pedantic(run, warmup_rounds=1, rounds=3)
    assert n >= 1
