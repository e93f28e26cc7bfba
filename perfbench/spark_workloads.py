"""The Spark workloads: ``spark_single`` and ``spark_microbatch``.

Both run Q1/Q3/Q2J/QSHUF on one local Spark session over tables that
``repro.synth_data`` generates from the seed.

* spark_single: each query through ``QUERIES[q].spark_impl(...).collect()``.
  It never calls ``repro.spark_iqre``.
* spark_microbatch: each query through ``run_microbatch`` with the
  start-small-then-scale-up schedule ``DOP_SCHEDULE``, then Q2J through
  ``exec_spark.run_with_script`` with E3's tuning script.

Set-up starts the session and generates the tables ``SETUP_REPEATS``
times, then runs ``WARMUP_PASSES`` untimed passes of the workload.
``setup_s`` is the median start-plus-generate time plus the warm-up. The
first start launches the JVM; later ones restart the context in it.
``wall_s`` is the median pass time of the run, in plain wall seconds.
Unlike the ``sim`` timings it is not scaled by ``common.host_factor``: the
probe runs in the Python driver between Spark calls, where it competes
with the JVM's JIT and GC threads, and reads their load rather than the
host's. On five seeds of ``spark_microbatch``, scaling doubled the spread
of ``wall_s`` across runs (0.146 against 0.075). Over ten seeds of
``spark_single``, neither a probe taken after each pass with the JVM idle,
nor one that copies 32 MB, nor a fixed Spark job as the reference did
better than plain wall time (spreads 0.20, 0.15 and 0.09 against 0.10).

Every collected result, warm-up included, is diffed against DuckDB over
the same generated pandas frames through ``repro.oracle``, outside the
timed region. Traced passes tag every call with a Spark job group and
read job, stage, task, shuffle and executor-time counters for it from
the status tracker and the JVM status store, which work with the UI off.
"""
from __future__ import annotations

import os
import shlex
import time
from pathlib import Path

from common import Gate, Measured, median, run_measured, trace_overhead
from tracing import Tracer

#: Spark scale factor. ROADMAP measures at SF 0.1, where one micro-batch
#: pass alone takes about a minute on 4 cores; at 0.01 a run of either
#: Spark workload fits in under a minute with several passes.
SF = 0.01
QUERY_ORDER = ["Q1", "Q3", "Q2J", "QSHUF"]
TABLES = ["lineitem", "orders", "customer"]
DOP_SCHEDULE = [2, 4, 8, 16]
SETUP_REPEATS = 3
#: untimed passes before measuring. Pass times keep falling while the JIT
#: compiles, over about 80 jobs: four single-shot passes, where one
#: micro-batch pass already runs about 90.
WARMUP_PASSES = {"spark_single": 4, "spark_microbatch": 1}
#: a fixed heap (-Xms = -Xmx) keeps the JVM's resident size from
#: depending on when the collector chose to grow it.
DRIVER_MEMORY = "1g"
SHUFFLE_PARTITIONS = 64
COUNTERS = ("jobs", "stages", "tasks", "shuffle_read_mb", "shuffle_write_mb", "executor_run_s", "executor_cpu_s")


def master() -> str:
    """Two task threads at most: the other cores are left to the Python
    driver, the JVM's JIT and GC threads and the host's other tenants. In
    six interleaved runs of ``spark_single`` each, ``local[2]`` spread 0.04
    and ``local[3]`` 0.22, one of its runs taking 1.7 times the median."""
    return f"local[{min(2, max(1, (os.cpu_count() or 1) - 1))}]"


def configure(tmp: Path) -> None:
    """Launch settings for the JVMs; must run before pyspark starts them.

    spark-submit runs a launcher JVM before the driver JVM; both take
    ``JAVA_TOOL_OPTIONS``, which keeps their temporary files in ``tmp``.
    """
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master()} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(f'-Xms{DRIVER_MEMORY}')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
    )


def start_session(tmp: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm() -> None:
    """Stop the session and wait for the JVM pyspark launched to exit."""
    from pyspark import SparkContext

    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 - make sure it is gone
            proc.kill()
            proc.wait(timeout=30)
    # so that a later session in this process launches a new JVM
    SparkContext._gateway = SparkContext._jvm = None


class _Recorder:
    """Stands in for the session in ``TPCH_TABLES`` generators and keeps the
    pandas frame each one builds, for the DuckDB oracle."""

    def __init__(self, spark) -> None:
        self.spark = spark
        self.last = None

    def createDataFrame(self, pdf):  # noqa: N802 - SparkSession's name
        self.last = pdf
        return self.spark.createDataFrame(pdf)


def table_seed(seed: int, index: int) -> int:
    return seed * 16 + index


def generate(spark, seed: int, sf: float):
    from repro import synth_data

    rec = _Recorder(spark)
    tables, frames = {}, {}
    for i, name in enumerate(TABLES):
        tables[name] = synth_data.TPCH_TABLES[name](rec, sf=sf, seed=table_seed(seed, i))
        frames[name] = rec.last
    return tables, frames


class _Collected:
    """Rows a pass collected, shaped like the Spark frame ``repro.oracle``
    expects (it only calls ``toPandas``)."""

    def __init__(self, rows, columns) -> None:
        self.rows, self.columns = rows, columns

    def toPandas(self):  # noqa: N802 - DataFrame's name
        import pandas as pd

        return pd.DataFrame([tuple(r) for r in self.rows], columns=self.columns)


def check_result(query: str, rows, columns, frames, gate: Gate, what: str) -> bool:
    """Diff collected rows against DuckDB on the same input; count it."""
    from repro.oracle import assert_equivalent
    from repro.queries.tpch import QUERIES

    qdef = QUERIES[query]
    try:
        assert_equivalent(_Collected(rows, columns), qdef.duckdb_sql, **{t: frames[t] for t in qdef.tables})
    except AssertionError as exc:
        return gate.check(False, f"{what} {query} differs from DuckDB: {str(exc)[:300]}")
    return gate.check(True, "")


def group_counters(sc, group: str) -> dict[str, float]:
    """Job/stage/task/shuffle/executor counters of one job group."""
    from py4j.protocol import Py4JJavaError

    tracker = sc.statusTracker()
    store = sc._jsc.sc().statusStore()
    jobs = tracker.getJobIdsForGroup(group)
    stage_ids = set()
    for j in jobs:
        info = tracker.getJobInfo(j)
        if info is not None:
            stage_ids.update(info.stageIds)
    c = dict.fromkeys(COUNTERS, 0.0)
    c["jobs"] = len(jobs)
    read_bytes = write_bytes = 0
    for sid in stage_ids:
        try:
            attempts = store.stageData(sid, False, None, False, None)
        except Py4JJavaError:  # stage never submitted (skipped by AQE)
            continue
        for k in range(attempts.size()):
            sd = attempts.apply(k)
            if sd.status().toString() != "COMPLETE":
                continue
            c["stages"] += 1
            c["tasks"] += sd.numCompleteTasks()
            read_bytes += sd.shuffleReadBytes()
            write_bytes += sd.shuffleWriteBytes()
            c["executor_run_s"] += sd.executorRunTime() / 1e3
            c["executor_cpu_s"] += sd.executorCpuTime() / 1e9
    c["shuffle_read_mb"] = read_bytes / 1e6
    c["shuffle_write_mb"] = write_bytes / 1e6
    return c


class _Workload:
    def __init__(self, spark, tables, frames, tr: Tracer, gate: Gate) -> None:
        self.spark, self.tables, self.frames = spark, tables, frames
        self.tr, self.gate = tr, gate
        #: (query, rows, columns) collected by the last pass.
        self.results: list[tuple[str, list, list]] = []
        #: job groups tagged in the last traced pass: (group, query, kind).
        self.groups: list[tuple[str, str, str]] = []
        self.batches: list[tuple[list[int], list[int]]] = []

    def _group(self, query: str, kind: str) -> None:
        if self.tr.enabled:
            group = f"p{self.tr.pass_id}.{query}.{kind}"
            self.spark.sparkContext.setJobGroup(group, group)
            self.groups.append((group, query, kind))

    def _call(self, times: dict, key: str, query: str, fn) -> None:
        """Time ``fn``, which returns (rows, columns), under span
        ``bench.<key>``; an error it raises counts as a failed operation."""
        t = time.perf_counter()
        with self.tr.span(f"bench.{key}"):
            try:
                rows, columns = fn()
            except Exception as exc:  # noqa: BLE001 - counted by the gate
                self.gate.check(False, f"{key} raised {exc!r}")
            else:
                self.results.append((query, rows, columns))
        times[f"{key.lower()}_s"] = time.perf_counter() - t

    def single_pass(self) -> dict[str, float]:
        from repro.queries.tpch import QUERIES

        tr = self.tr

        def single(q):
            qdef = QUERIES[q]
            self._group(q, "single")
            with tr.span("queries.spark_impl"):
                df = qdef.spark_impl(self.spark, {n: self.tables[n] for n in qdef.tables})
            with tr.span("spark.collect"):
                return df.collect(), df.columns

        times: dict[str, float] = {}
        t_pass = time.perf_counter()
        for q in QUERY_ORDER:
            self._call(times, q, q, lambda: single(q))
        times["wall_s"] = time.perf_counter() - t_pass
        return times

    def microbatch_pass(self) -> dict[str, float]:
        from repro.engine.exec_spark import run_with_script
        from repro.experiments import q2j_switching
        from repro.spark_iqre import run_microbatch

        tr = self.tr

        def microbatch(q):
            self._group(q, "batches")
            with tr.span("spark_iqre.run_microbatch"):
                run = run_microbatch(self.spark, q, self.tables, n_batches=len(DOP_SCHEDULE),
                                     dop_schedule=DOP_SCHEDULE)
            self.batches.append((run.batch_dops, run.batch_partitions))
            self._group(q, "merge")
            with tr.span("spark.collect"):
                return run.result.collect(), run.result.columns

        def scripted():
            self._group("Q2J", "script")
            with tr.span("exec_spark.run_with_script"):
                res = run_with_script(self.spark, "Q2J", self.tables, q2j_switching.SCRIPT)
            with tr.span("spark.collect"):
                return res.result.collect(), res.result.columns

        times: dict[str, float] = {}
        t_pass = time.perf_counter()
        for q in QUERY_ORDER:
            self._call(times, q, q, lambda: microbatch(q))
        self._call(times, "q2j_script", "Q2J", scripted)
        times["wall_s"] = time.perf_counter() - t_pass
        return times

    def check_results(self, what: str) -> float:
        """Gate every result of the last pass; returns the seconds it took."""
        t = time.perf_counter()
        with self.tr.span("oracle.check"):
            for q, rows, columns in self.results:
                check_result(q, rows, columns, self.frames, self.gate, what)
        self.results.clear()
        return time.perf_counter() - t


def run(workload: str, seed: int, seconds: float, trace: bool, tr: Tracer, gate: Gate,
        tmp: Path) -> tuple[Measured, int]:
    configure(tmp)
    session_s, gen_s = [], []
    spark = None
    tr.enabled = trace  # set-up spans carry pass id 0
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tr.span("spark.session_start"):
            if spark is not None:
                spark.stop()
            spark = start_session(tmp)
        t1 = time.perf_counter()
        with tr.span("synth_data.gen"):
            tables, frames = generate(spark, seed, SF)
        session_s.append(t1 - t0)
        gen_s.append(time.perf_counter() - t1)
    tr.enabled = False
    wl = _Workload(spark, tables, frames, tr, gate)
    one = wl.microbatch_pass if workload == "spark_microbatch" else wl.single_pass
    t0 = time.perf_counter()
    for _ in range(WARMUP_PASSES[workload]):
        one()
    warmup_s = time.perf_counter() - t0
    wl.check_results("warm-up")
    sc = spark.sparkContext
    counters: dict[str, list[dict[str, float]]] = {q: [] for q in QUERY_ORDER}
    batches_of_traced: list[tuple[list[int], list[int]]] = []
    jobs_in_batches = []

    def one_pass() -> dict[str, float]:
        wl.groups.clear()
        wl.batches.clear()
        times = one()
        traced_pass = bool(wl.groups)
        if traced_pass:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc._jsc.sc().listenerBus().waitUntilEmpty()
            per_query: dict[str, dict[str, float]] = {}
            for group, q, kind in wl.groups:
                c = group_counters(sc, group)
                if kind == "batches":
                    jobs_in_batches.append(c["jobs"])
                if kind == "script":
                    continue
                acc = per_query.setdefault(q, dict.fromkeys(COUNTERS, 0.0))
                for k in COUNTERS:
                    acc[k] += c[k]
            for q, c in per_query.items():
                counters[q].append(c)
            batches_of_traced.extend(wl.batches)
        times["oracle.check_s"] = wl.check_results("traced pass" if traced_pass else "pass")
        return times

    untraced, traced = run_measured(one_pass, seconds, trace, tr)
    jvm_pid = int(sc._jvm.java.lang.ProcessHandle.current().pid())

    m = Measured()
    queries = [f"{q.lower()}_s" for q in QUERY_ORDER]
    m.host["samples_s"] = {k: [p[k] for p in untraced] for k in ["wall_s", *queries]}
    m.e2e = {
        "setup_s": median([a + b for a, b in zip(session_s, gen_s)]) + warmup_s,
        "wall_s": median(m.host["samples_s"]["wall_s"]),
    }
    m.samples = {"setup": SETUP_REPEATS, "untraced_passes": len(untraced), "traced_passes": len(traced)}
    m.host.update({
        "spark_master": sc.master,
        "jvm_launch_s": session_s[0],
        "driver_memory": DRIVER_MEMORY,
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "sf": SF,
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "dop_schedule": DOP_SCHEDULE if workload == "spark_microbatch" else None,
    })
    if trace:
        ids = {p["pass_id"] for p in traced}

        def per_pass(name: str, parents: set[str] | None = None) -> float:
            """Median over traced passes of the summed durations of ``name``
            spans (only those under one of ``parents``, if given)."""
            sums = dict.fromkeys(ids, 0.0)
            for s in tr.spans:
                if s[0] == name and s[4] in ids and (parents is None or tr.spans[s[3]][0] in parents):
                    sums[s[4]] += s[2] - s[1]
            return median(list(sums.values()))

        m.per_layer = {
            "trace.overhead_s": trace_overhead(untraced, traced),
            **{k: median(m.host["samples_s"][k]) for k in queries},
            "spark.session_start_s": median(session_s),
            "synth_data.gen_s": median(gen_s),
            "spark.collect_s": per_pass("spark.collect"),
            "oracle.check_s": median([p["oracle.check_s"] for p in traced]),
        }
        for q in QUERY_ORDER:
            for k in COUNTERS:
                m.per_layer[f"spark.{q.lower()}.{k}"] = median([c[k] for c in counters[q]])
        if workload == "spark_microbatch":
            dops = sum(sum(d) for d, _ in batches_of_traced)
            parts = sum(sum(p) for _, p in batches_of_traced)
            n_batches = sum(len(d) for d, _ in batches_of_traced)
            m.per_layer.update({
                "q2j_script_s": median([p["q2j_script_s"] for p in traced]),
                "spark_iqre.batches_s": per_pass("spark_iqre.run_microbatch"),
                "spark_iqre.merge_s": per_pass("spark.collect", {f"bench.{q}" for q in QUERY_ORDER}),
                "spark_iqre.jobs_per_batch": sum(jobs_in_batches) / max(1, n_batches),
                "spark_iqre.dop_honoured_ratio": parts / max(1, dops),
                "exec_spark.run_with_script_s": per_pass("exec_spark.run_with_script"),
            })
        m.deterministic = {
            f"{q}.{k}": [c[k] for c in counters[q]]
            for q in QUERY_ORDER for k in ("jobs", "stages", "tasks", "shuffle_read_mb", "shuffle_write_mb")
        }
    return m, jvm_pid
