"""Tests for the benchmark itself.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
The smoke tests run the benchmark with a one-second window: the sim ones
as a separate process, as the driver does, the Spark ones in this process
at a tiny scale factor; those take about a minute each.
"""
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import common  # noqa: E402
import sim_workload  # noqa: E402
import spark_workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _args(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *_args(workload, 3, 1, trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["host"], json.loads(lines[-1])


def _run_here(monkeypatch, capsys, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """``run.main`` in this process. It points TMPDIR into the checkout, which
    it then removes, and sets Spark's launch variables; all of that, and the
    directory ``tempfile`` cached meanwhile, is undone afterwards."""
    import run

    monkeypatch.chdir(ROOT)
    for var in ("TMPDIR", "JAVA_TOOL_OPTIONS", "PYSPARK_SUBMIT_ARGS"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    assert run.main(_args(workload, seed, seconds, trace)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["host"], json.loads(lines[-1])


class TestSpec:
    def test_contract_shape(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        assert SPEC["paths"] == ["perfbench"]
        assert 1 <= SPEC["run_seconds"] <= 60
        assert 2 <= len(SPEC["workloads"]) <= 8
        assert 1 <= len(SPEC["per_layer"]) <= 128
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in SPEC[k]]
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())

    def test_workloads_match_the_runner(self):
        import run

        assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize(
    "workload,trace",
    [("sim", 0), ("sim", 1), ("spark_single", 0), ("spark_microbatch", 1)],
)
def test_smoke_prints_every_declared_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    if workload == "sim":
        host, result = _run(workload, trace)
    else:
        monkeypatch.setattr(spark_workloads, "SF", 0.001)
        host, result = _run_here(monkeypatch, capsys, workload, 3, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert (ROOT / host["spans_file"]).is_file()
    assert host["seed"] == 3 and host["nproc"] >= 1 and host["samples"]["untraced_passes"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class _Frames:
    """Stands in for the session: generators hand back their pandas frame."""

    def createDataFrame(self, pdf):  # noqa: N802
        return pdf


def _tiny_frames():
    from repro import synth_data

    return {
        n: synth_data.TPCH_TABLES[n](_Frames(), sf=0.001, seed=spark_workloads.table_seed(5, i))
        for i, n in enumerate(spark_workloads.TABLES)
    }


def _duckdb_rows(query, frames):
    import duckdb

    from repro.queries.tpch import QUERIES

    qdef = QUERIES[query]
    con = duckdb.connect()
    for t in qdef.tables:
        con.register(t, frames[t])
    df = con.execute(qdef.duckdb_sql).fetchdf()
    con.close()
    return [tuple(r) for r in df.itertuples(index=False)], list(df.columns)


class TestGate:
    def test_correct_spark_result_passes(self):
        frames = _tiny_frames()
        gate = common.Gate()
        for q in spark_workloads.QUERY_ORDER:
            rows, cols = _duckdb_rows(q, frames)
            assert spark_workloads.check_result(q, rows, cols, frames, gate, "test")
        assert (gate.attempted, gate.failed) == (4, 0)

    def test_corrupted_spark_result_is_caught(self):
        frames = _tiny_frames()
        gate = common.Gate()
        rows, cols = _duckdb_rows("Q2J", frames)
        rows[0] = (rows[0][0] + 1,)
        assert not spark_workloads.check_result("Q2J", rows, cols, frames, gate, "test")
        assert (gate.attempted, gate.failed) == (1, 1)

    def test_corrupted_experiment_raises_error_rate(self, monkeypatch, capsys):
        real = sim_workload._experiments()

        def corrupted():
            def e3():
                out = dict(dict(real)["e3"]())
                out["reduction_pct"] += 0.01
                return out

            return [(k, e3 if k == "e3" else fn) for k, fn in real]

        monkeypatch.setattr(sim_workload, "_experiments", corrupted)
        _, result = _run_here(monkeypatch, capsys, "sim", 2, 0.1, 1)
        # one failed anchor in each of the untraced and the traced pass
        assert result["correct"] is False and result["failed"] == 2
        assert result["metrics"]["error_rate"]["value"] == pytest.approx(2 / result["attempted"])


def test_request_mix_is_the_experiments_mix(monkeypatch):
    from collections import Counter

    from repro.core import TASK, AutoTuner

    sent = []
    direct = AutoTuner.direct

    def recording(self, req):
        sent.append(req)
        return direct(self, req)

    monkeypatch.setattr(AutoTuner, "direct", recording)
    for key, fn in sim_workload._experiments():
        if key != "t1":
            fn()
    assert sim_workload.TASK_SHARE == sum(r.kind == TASK for r in sent) / len(sent)
    assert sim_workload.NEW_DOPS == Counter(r.new_dop for r in sent)


def test_sim_counts_repeat_for_one_seed():
    runs = []
    for _ in range(2):
        tr = Tracer(enabled=False)
        m = sim_workload.run(4, 0.1, True, tr, common.Gate())
        runs.append((m.deterministic, m.per_layer["exec_sim.ticks"], m.per_layer["core.requests"],
                     m.per_layer["core.accepted"]))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0 and runs[0][2] > runs[0][3] > 0


def test_timed_scales_by_the_probes_around_the_block(monkeypatch):
    # a host on which the reference work takes twice as long halves the time
    monkeypatch.setattr(common, "probe", lambda: 2 * common.REFERENCE_S)
    with common.Timed() as t:
        time.sleep(0.05)
    assert 0.025 <= t.s < 0.04


def test_fresh_import_is_timed_in_a_child_process():
    assert 0 < sim_workload.fresh_import_s() < 60


def test_self_time_excludes_children():
    tr = Tracer(enabled=True)
    tr.pass_id = 1
    with tr.span("bench.a"):
        with tr.span("core.b"):
            sum(range(10000))
    parent, child = tr.spans
    layers = tr.self_times_by_layer({1})
    assert layers["core"] == pytest.approx(child[2] - child[1])
    assert layers["bench"] == pytest.approx((parent[2] - parent[1]) - (child[2] - child[1]))
