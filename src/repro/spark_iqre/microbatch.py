"""IQRE on the real Spark runtime: micro-batch execution with mid-query
DOP changes.

The paper contrasts Accordion with Spark's AQE: "AQE can only adjust
parallelism for a stage after the completion of the previous stage and
does not allow for DOP modifications during data processing" (§4.2.1).
This module demonstrates the closest legal analogue inside Spark's
execution model (per the reproduction brief): a query is executed as a
sequence of micro-batches over hash-partitioned slices of its probe
table — the Spark equivalent of Accordion's split-at-a-time table scan —
and between batches the driver retunes ``spark.sql.shuffle.partitions``
(the shuffle DOP of every subsequent Spark job inside the same logical
query). Partial aggregates are merged at the end, mirroring Accordion's
two-phase aggregation model (§4.1).

Every runner returns a DataFrame that tests check against the DuckDB
oracle — changing the DOP mid-query must never change the answer.
"""
from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Callable

import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.queries.tpch import QueryDef


@dataclass
class MicrobatchSpec:
    """How to run one query incrementally.

    ``build`` derives, from the input tables, the join input every batch
    probes (``None`` for a query without a join); ``partial`` computes a
    mergeable partial result of one probe-side batch against it; ``merge``
    combines the union of partials into the final result.
    """

    probe_table: str
    batch_key: str
    #: the probe columns ``partial`` reads; the probe is projected to them.
    probe_columns: tuple[str, ...]
    build: Callable[[dict[str, DataFrame]], DataFrame | None]
    partial: Callable[[DataFrame, DataFrame | None], DataFrame]
    merge: Callable[[DataFrame], DataFrame]


@dataclass
class MicrobatchRun:
    result: DataFrame
    n_batches: int
    #: shuffle DOP in force while each batch executed.
    batch_dops: list[int] = field(default_factory=list)
    #: widest post-AQE shuffle read of each batch, in partitions.
    batch_partitions: list[int] = field(default_factory=list)
    #: wall seconds of each batch: plan, execute and collect its partial.
    batch_s: list[float] = field(default_factory=list)


def _no_build(t):
    return None


# ---------------------------------------------------------------- Q1 spec
def _q1_partial(batch, build):
    return (
        batch.where(F.col("l_shipdate") <= F.lit("1998-09-02").cast("timestamp"))
        .groupBy("l_returnflag", "l_linestatus")
        .agg(
            F.sum("l_quantity").alias("sum_qty"),
            F.sum("l_extendedprice").alias("sum_base"),
            F.sum("l_discount").alias("sum_disc"),
            F.count(F.lit(1)).alias("count_order"),
        )
    )


def _q1_merge(parts):
    return (
        parts.groupBy("l_returnflag", "l_linestatus")
        .agg(
            F.sum("sum_qty").alias("sum_qty"),
            F.sum("sum_base").alias("sum_base"),
            (F.sum("sum_disc") / F.sum("count_order")).alias("avg_disc"),
            F.sum("count_order").alias("count_order"),
        )
    )


# ---------------------------------------------------------------- Q3 spec
def _q3_build(t):
    """orders ⋈ customer, the build side of the lineitem join: the plan is
    reordered to li ⋈ (o ⋈ c) so the two-table join runs once per query."""
    c = t["customer"].where(F.col("c_mktsegment") == "BUILDING")
    o = t["orders"].where(F.col("o_orderdate") < F.lit("1995-03-15").cast("timestamp"))
    return o.join(c, o.o_custkey == c.c_custkey).select("o_orderkey", "o_orderdate")


def _q3_partial(batch, build):
    li = batch.where(F.col("l_shipdate") > F.lit("1995-03-15").cast("timestamp"))
    return (
        li.join(build, li.l_orderkey == build.o_orderkey)
        .groupBy("l_orderkey", "o_orderdate")
        .agg(F.sum(F.col("l_extendedprice") * (1 - F.col("l_discount"))).alias("revenue"))
    )


def _q3_merge(parts):
    return (
        parts.groupBy("l_orderkey", "o_orderdate")
        .agg(F.sum("revenue").alias("revenue"))
        .orderBy(F.desc("revenue"), F.asc("l_orderkey"))
        .limit(10)
        .select("l_orderkey", "revenue", "o_orderdate")
    )


# --------------------------------------------------------------- Q2J spec
def _q2j_build(t):
    return t["orders"].select("o_orderkey")


def _q2j_partial(batch, build):
    return batch.join(build, batch.l_orderkey == build.o_orderkey).agg(
        F.count("l_orderkey").alias("cnt")
    )


def _count_merge(parts):
    return parts.agg(F.sum("cnt").alias("cnt"))


# ------------------------------------------------------------- QSHUF spec
def _qshuf_build(t):
    return t["customer"].where(F.col("c_nationkey") == 9).select("c_custkey")


def _qshuf_partial(batch, build):
    return batch.join(build, batch.o_custkey == build.c_custkey).agg(
        F.count("o_orderkey").alias("cnt")
    )


_Q1_COLUMNS = ("l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount",
               "l_shipdate")
_Q3_COLUMNS = ("l_orderkey", "l_extendedprice", "l_discount", "l_shipdate")

SPECS: dict[str, MicrobatchSpec] = {
    "Q1": MicrobatchSpec("lineitem", "l_orderkey", _Q1_COLUMNS, _no_build, _q1_partial, _q1_merge),
    "Q3": MicrobatchSpec("lineitem", "l_orderkey", _Q3_COLUMNS, _q3_build, _q3_partial, _q3_merge),
    "Q2J": MicrobatchSpec("lineitem", "l_orderkey", ("l_orderkey",), _q2j_build,
                          _q2j_partial, _count_merge),
    "QSHUF": MicrobatchSpec("orders", "o_orderkey", ("o_orderkey", "o_custkey"), _qshuf_build,
                            _qshuf_partial, _count_merge),
}

#: a line of ``RDD.toDebugString``. "(N) <rdd>" opens a run of RDDs with N
#: partitions each; the run's other RDDs follow on lines whose description
#: starts in the same column, and ``[ |+-]`` draw the shuffle tree.
_LINEAGE_LINE = re.compile(r"^[ |+-]*(?:\((?P<n>\d+)\) )?(?P<rdd>\S)")


def _shuffle_read_partitions(part: DataFrame) -> int:
    """Widest shuffle read, in partitions, of ``part``'s last execution.

    Reads the final adaptive plan, after AQE coalesced or split its shuffle
    reads: building its RDD lineage again starts no Spark job, because
    every query stage has already run. 0 if the plan reads no shuffle.
    """
    lineage = part._jdf.queryExecution().executedPlan().execute().toDebugString()
    runs: dict[int, int] = {}  # column of a run's descriptions -> its partitions
    widest = 0
    for line in lineage.splitlines():
        m = _LINEAGE_LINE.match(line)
        col = m.start("rdd")
        if m["n"] is not None:
            runs[col] = int(m["n"])
        if line.startswith("ShuffledRowRDD", col):
            widest = max(widest, runs[col])
    return widest


def _checkpoint(df: DataFrame, held: list[DataFrame]) -> DataFrame:
    """Materialise ``df`` once, in executor memory, and keep it in ``held``
    for :func:`_release`. Later plans over it start from a ``LogicalRDD``
    instead of re-deriving it from the input tables."""
    cp = df.localCheckpoint(eager=True)
    held.append(cp)
    return cp


def _release(held: list[DataFrame]) -> None:
    """Drop the blocks of every checkpoint in ``held``."""
    for cp in held:
        cp._jdf.queryExecution().analyzed().rdd().unpersist(True)


def run_microbatch(
    spark: SparkSession,
    query: str,
    tables: dict[str, DataFrame],
    *,
    n_batches: int = 4,
    dop_schedule: Callable[[int], int] | list[int] | None = None,
) -> MicrobatchRun:
    """Run ``query`` in ``n_batches`` micro-batches, retuning the shuffle
    DOP before each batch (the intra-query runtime elasticity analogue).

    ``dop_schedule`` maps batch index -> shuffle partition count; default
    doubles the DOP every batch starting from 2 (start small, scale up —
    the paper's headline usage pattern).

    The probe is split into batches and the build side derived once per
    run, each materialised as a local checkpoint, as Accordion scans each
    split once and builds a join's hash table once (§4.5). Each batch then
    executes once, at its DOP; both checkpoints are released at the end.
    """
    spec = SPECS[query]
    if dop_schedule is None:
        schedule: Callable[[int], int] = lambda i: 2 << i  # noqa: E731
    elif isinstance(dop_schedule, list):
        sched_list = dop_schedule
        schedule = lambda i: sched_list[min(i, len(sched_list) - 1)]  # noqa: E731
    else:
        schedule = dop_schedule

    old_dop = spark.conf.get("spark.sql.shuffle.partitions")
    run = MicrobatchRun(result=None, n_batches=n_batches)  # type: ignore[arg-type]
    partial_pdfs = []
    schema = None
    held: list[DataFrame] = []
    try:
        probe = tables[spec.probe_table].select(
            *spec.probe_columns,
            F.pmod(F.abs(F.hash(F.col(spec.batch_key))), F.lit(n_batches)).alias("__batch"),
        )
        probe = _checkpoint(probe, held)
        build = spec.build(tables)
        if build is not None:
            build = _checkpoint(build, held)
        for i in range(n_batches):
            t0 = time.perf_counter()
            dop = max(1, int(schedule(i)))
            spark.conf.set("spark.sql.shuffle.partitions", str(dop))
            run.batch_dops.append(dop)
            batch = probe.where(F.col("__batch") == i).drop("__batch")
            part = spec.partial(batch, build)
            schema = part.schema
            # Materialize under the current DOP — this is the point where
            # the runtime parallelism choice actually takes effect.
            partial_pdfs.append(part.toPandas())
            run.batch_partitions.append(_shuffle_read_partitions(part))
            run.batch_s.append(time.perf_counter() - t0)
    finally:
        _release(held)
        spark.conf.set("spark.sql.shuffle.partitions", old_dop)
    import pandas as pd

    union_pdf = pd.concat(partial_pdfs, ignore_index=True)
    parts_df = spark.createDataFrame(union_pdf, schema=schema)
    run.result = spec.merge(parts_df)
    return run


def reference_result(
    spark: SparkSession, qdef: QueryDef, tables: dict[str, DataFrame]
) -> DataFrame:
    """The single-shot (fixed-DOP) Spark execution of the same query."""
    return qdef.spark_impl(spark, tables)
