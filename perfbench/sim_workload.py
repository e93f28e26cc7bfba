"""The ``sim`` workload: the simulator and the IQRE control plane, no Spark.

One pass has three interleaved phases.

* experiments: T1 and E1-E6, each through ``repro.experiments.<x>.run()``.
  These are dominated by simulator ticks and make few DOP requests.
* queries: Q1/Q3/Q2J/QSHUF each simulated to completion at stage DOP 2,
  once after every second experiment and after the tuning phase, with the
  benchmark driving ``SimExecutor.step`` and collecting runtime info every
  ``REQUEST_EVERY_S`` simulated seconds. Nothing here depends on the
  seed, so ``q*_s`` compare across seeds.
* tuning: Q1/Q3/Q5/Q7/Q2J/QSHUF again, now with one seeded DOP request
  sent through ``AutoTuner.direct`` at every collection. The requests
  resample the ones E1-E6 send (``TASK_SHARE``, ``NEW_DOPS``). This loads
  the filter, the what-if service and the scheduler's add/remove paths. A
  request changes how long the simulated query runs, so this phase is
  kept out of the per-query latencies and reported per layer.

Timings of blocks are in reference seconds (``common.Timed``): each is
scaled by how fast the host ran a fixed piece of Python right around it,
so that they read the same on a host that other tenants slow down.
``wall_s`` is the sum of a pass's timed blocks, and the median over the
run's passes; each per-query latency is the median of its samples. The
per-layer times taken from spans are plain wall seconds.

``setup_s`` is the median time a fresh interpreter takes to import the
simulator's queries, each import in a child process of its own, plus the
median time to build the queries and the request plan.

The gate compares the experiment outputs with the numbers printed in
EXPERIMENTS.md, at the printed precision, and checks that every seeded
request ends applied or rejected with a reason and every query finishes.
"""
from __future__ import annotations

import random
import re
import subprocess
import sys
from pathlib import Path

from common import Gate, Measured, Timed, median, percentile, run_measured, trace_overhead
from tracing import Tracer

LATENCY_QUERIES = ["Q1", "Q3", "Q2J", "QSHUF"]
TUNING_QUERIES = ["Q1", "Q3", "Q5", "Q7", "Q2J", "QSHUF"]
#: The 85 requests E1-E6 send through ``AutoTuner.direct`` on one run:
#: 17 of them change a task DOP (E1's AC script and sweep), the rest a
#: stage DOP; each new DOP with how often they ask for it.
TASK_SHARE = 17 / 85
NEW_DOPS = {1: 2, 2: 27, 3: 5, 4: 24, 5: 5, 6: 3, 7: 1, 8: 13, 10: 2, 12: 1, 15: 1, 16: 1}
#: simulated seconds between two runtime-info collections (and requests);
#: E1-E6 leave a median 9.9 s between two requests to one executor.
REQUEST_EVERY_S = 10.0
#: requests drawn per query; a query never runs long enough to use them all.
REQUESTS_PER_QUERY = 1000
#: guard against a query that never finishes (simulated seconds).
MAX_SIM_S = 100_000.0
SETUP_REPEATS = 5
#: run by a fresh interpreter with the benchmark's and the program's
#: directories as arguments; prints the import time in reference seconds.
IMPORT_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
from common import Timed
with Timed() as t:
    import repro.queries.tpch
print(t.s)
"""
#: Table 1 is anchored in EXPERIMENTS.md at this scale factor.
T1_SF = 0.1


def request_plan(seed: int, stage_counts: dict[str, int]) -> dict[str, list[tuple[str, int, int]]]:
    """Seeded (kind, stage index, new DOP) requests for each query."""
    from repro.core import STAGE, TASK

    rng = random.Random(seed)
    dops, weights = list(NEW_DOPS), list(NEW_DOPS.values())
    plan = {}
    for name in TUNING_QUERIES:
        n = stage_counts[name]
        plan[name] = [
            (TASK if rng.random() < TASK_SHARE else STAGE, rng.randrange(n), rng.choices(dops, weights)[0])
            for _ in range(REQUESTS_PER_QUERY)
        ]
    return plan


def simulate(name, sim_query, requests, tr: Tracer, gate: Gate, counts: dict) -> None:
    """Run one query to completion, collecting runtime info periodically
    and, if ``requests`` is given, sending the next one at each collection."""
    from repro.core import STAGE, AutoTuner, RuntimeInfoCollector, TuningRequest
    from repro.engine.exec_sim import SimExecutor

    with tr.span("exec_sim.init"):
        ex = SimExecutor(sim_query, stage_dop=2, task_dop=1)
    with tr.span("core.init"):
        tuner = AutoTuner(ex)
        collector = RuntimeInfoCollector(ex)
    stage_ids = sorted(sim_query.tree.stage_ids())
    pending = iter(requests or ())
    next_collect_t = REQUEST_EVERY_S
    while not ex.done and ex.t < MAX_SIM_S:
        with tr.span("exec_sim.step"):
            ex.step()
        counts["ticks"] += 1
        if ex.done or ex.t < next_collect_t:
            continue
        next_collect_t += REQUEST_EVERY_S
        with tr.span("core.collect"):
            collector.collect()
        if requests is None:
            continue
        kind, idx, dop = next(pending)
        req = TuningRequest(kind, stage_ids[idx], dop)
        if kind == STAGE:
            with tr.span("core.predict"):
                tuner.whatif.predict(req.stage_id, dop)
        with tr.span("core.direct"):
            out = tuner.direct(req)
        counts["requests"] += 1
        counts["accepted"] += out.applied
        gate.check(out.applied or bool(out.reason), f"{name}: {req.describe()} ended neither applied nor rejected with a reason")
    counts["filter_rejected"] += len(tuner.filter.rejections())
    gate.check(ex.done and ex.total_time_s is not None, f"{name}: did not finish by {MAX_SIM_S} simulated s")


def _experiments():
    from repro.experiments import (
        autotune, elastic_shuffle, prediction, q2j_switching, q3_intrastage, q3_intratask, table1,
    )

    return [
        ("t1", lambda: table1.run(sf=T1_SF)),
        ("e1", q3_intratask.run),
        ("e2", q3_intrastage.run),
        ("e3", q2j_switching.run),
        ("e4", elastic_shuffle.run),
        ("e5", prediction.run),
        ("e6", autotune.run),
    ]


def _reason_numbers(reason: str) -> list[float]:
    return [float(x) for x in re.findall(r"(\d+\.\d+)s", reason)]


def anchors(out: dict) -> list[tuple[str, object, object]]:
    """(what, measured at the printed precision, printed in EXPERIMENTS.md)."""
    t1 = {r["table"]: r for r in out["t1"]["rows"]}
    e1, e2, e3, e4, e5, e6 = (out[k] for k in ("e1", "e2", "e3", "e4", "e5", "e6"))
    r = round
    checks = [
        ("T1 Nation KB", r(t1["Nation"]["measured_bytes"] / 1e3, 2), 2.00),
        ("T1 Region B", t1["Region"]["measured_bytes"], 359),
        ("T1 Supplier KB", r(t1["Supplier"]["measured_bytes"] / 1e3, 1), 24.0),
        ("T1 Part MB", r(t1["Part"]["measured_bytes"] / 1e6, 2), 3.04),
        ("T1 Partsupp MB", r(t1["Partsupp"]["measured_bytes"] / 1e6, 2), 2.56),
        ("T1 Customer MB", r(t1["Customer"]["measured_bytes"] / 1e6, 2), 1.35),
        ("T1 Orders MB", r(t1["Orders"]["measured_bytes"] / 1e6, 1), 23.0),
        ("T1 Lineitem MB", r(t1["Lineitem"]["measured_bytes"] / 1e6, 1), 112.8),
        ("T1 Lineitem split MB", r(t1["Lineitem"]["measured_split_bytes"] / 1e6, 2), 1.61),
        ("T1 Lineitem splits", t1["Lineitem"]["n_splits"], 70),
        ("T1 total MB", r(out["t1"]["measured_total_bytes"] / 1e6, 1), 142.8),
        ("E1 baseline s", r(e1["baseline_s"], 2), 753.45),
        ("E1 tuned s", r(e1["tuned_s"], 2), 317.25),
        ("E1 reduction %", r(e1["reduction_pct"], 2), 57.89),
        ("E1 3rd S1 adjustment MB/s", (r(e1["saturation_thr_before_mb_s"]), r(e1["saturation_thr_after_mb_s"])), (200, 200)),
        ("E1 plan requests", e1["plan_rpc_requests"], 65),
        ("E1 plan ms", r(e1["plan_rpc_cost_s"] * 1e3, -1), 350),
        ("E1 intra-task sweep s", [r(e1["intra_task_sweep_s"][n]) for n in (1, 2, 4, 8)], [753, 379, 193, 100]),
        ("E1 intra-task-inc sweep s", [r(e1["intra_task_inc_sweep_s"][n]) for n in (2, 4, 8)], [392, 264, 264]),
        ("E2 tuned s", r(e2["q3"]["tuned_s"], 2), 241.15),
        ("E2 reduction %", r(e2["q3"]["reduction_pct"], 2), 67.99),
        ("E2 T_build S3 s", r(e2["q3"]["t_build_avg_s"][3], 2), 3.34),
        ("E2 T_build S1 s", r(e2["q3"]["t_build_avg_s"][1], 2), 14.15),
        ("E2 last S1 request rejected", [
            [r(x, 2) for x in _reason_numbers(m)] for m in e2["q3"]["rejected"]
        ], [[8.62, 14.15]]),
        ("E2 intra-stage-inc sweep s", [r(e2["intra_stage_inc_sweep_s"][n]) for n in (2, 4, 8)], [394, 267, 267]),
    ]
    for q, base, tuned, red in (("Q1", 185.1, 62.0, 66.5), ("Q5", 1445.9, 346.9, 76.0), ("Q7", 792.9, 317.6, 59.9)):
        o = e2["other_queries"][q]
        checks.append((f"E2 {q} baseline/tuned/reduction", (r(o["baseline_s"], 1), r(o["tuned_s"], 1), r(o["reduction_pct"], 1)), (base, tuned, red)))
    checks += [
        ("E3 baseline s", r(e3["baseline_s"], 2), 1333.83),
        ("E3 tuned s", r(e3["tuned_s"], 2), 572.03),
        ("E3 reduction %", r(e3["reduction_pct"], 2), 57.11),
        ("E3 init ms", r(e3["init_time_s"] * 1e3), 425),
        ("E3 tuning latency ms", r(e3["tuning_latency_avg_s"] * 1e3), 58),
        ("E3 4th request rejected", [
            (m.split(" — ")[0], [r(x, 1) for x in _reason_numbers(m)]) for m in e3["rejected"]
        ], [("AP S1,8,10 @ 560.0", [11.0, 17.1])]),
        ("E3 GB probed during rebuilds", [r(c["bytes_during_rebuild"] / 1e9, 1) for c in e3["probe_continuity"]], [2.5, 3.4, 3.7]),
        ("E3 Table 2", [(x["DOP switching"], x["Total time"], x["Shuffle time"], x["Build time"]) for x in e3["table2"]], [
            ("2 -> 4", 42.79, 12.55, 30.24), ("4 -> 6", 28.53, 8.37, 20.16), ("6 -> 8", 21.40, 6.28, 15.12),
        ]),
        ("E4 baseline s", r(e4["baseline_s"], 2), 50.32),
        ("E4 tuned s", r(e4["tuned_s"], 2), 35.98),
        ("E4 reduction %", r(e4["reduction_pct"], 2), 28.51),
        ("E4 baseline network bottleneck", e4["baseline_network_bottlenecks"], [2]),
        ("E4 S1 MB/s by shuffle DOP", [r(e4["s1_throughput_by_shuffle_dop_mb_s"][d]) for d in (1, 2, 3, 4, 5)], [0, 278, 549, 550, 550]),
        ("E4 bottleneck shift", (e4["bottleneck_shift"]["early_computational"], e4["bottleneck_shift"]["late_computational"]), ([1, 2], [1])),
        ("E4 init ms", r(e4["init_time_s"] * 1e3), 877),
        ("E4 switch ms", r(e4["switch_latency_avg_s"] * 1e3), 15),
        ("E5 predictions", [
            (p["stage"], r(p["predicted_end_s"], 2), r(p["actual_end_s"], 2), r(p["abs_error_s"], 2)) for p in e5["predictions"]
        ], [(3, 17.41, 17.50, 0.09), (1, 73.80, 73.90, 0.10)]),
        ("E5 S1 n_f cap", r(e5["predictions"][1]["n_f"], 2), 3.23),
        ("E6 Q2 s / met", (r(e6["q2"]["total_s"], 1), e6["q2"]["met"]), (103.4, True)),
        ("E6 Q2 scan ends s", (r(e6["q2"]["scan_end_s11_s"], 1), r(e6["q2"]["scan_end_s2_s"], 1)), (50.2, 100.7)),
        ("E6 Q2 RP ms", r(e6["q2"]["rp_latency_avg_s"] * 1e3), 15),
        ("E6 Q3 s / met", (r(e6["q3"]["total_s"], 1), e6["q3"]["met"]), (178.1, True)),
        ("E6 Q3 S1 end s / constraint met", (r(e6["q3"]["s1_end_s"], 1), e6["q3"]["new_constraint_met"]), (177.2, True)),
    ]
    return checks


def check_experiments(out: dict, gate: Gate) -> None:
    try:
        checks = anchors(out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        gate.check(False, f"experiment output malformed: {exc!r}")
        return
    for what, got, want in checks:
        gate.check(got == want, f"{what}: got {got!r}, EXPERIMENTS.md prints {want!r}")


def fresh_import_s() -> float:
    """Seconds a new interpreter takes to import ``repro.queries.tpch``."""
    import repro

    src = Path(repro.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).resolve().parent), str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def run(seed: int, seconds: float, trace: bool, tr: Tracer, gate: Gate) -> Measured:
    from repro.queries.tpch import QUERIES

    import_s = [fresh_import_s() for _ in range(SETUP_REPEATS)]
    construct_s = []
    tr.enabled = trace  # set-up spans carry pass id 0
    for _ in range(SETUP_REPEATS):
        with Timed() as t:
            with tr.span("queries.sim_query"):
                sim_queries = {q: QUERIES[q].sim_query() for q in TUNING_QUERIES}
            plan = request_plan(seed, {q: len(sq.tree.stage_ids()) for q, sq in sim_queries.items()})
        construct_s.append(t.s)
    tr.enabled = False
    experiments = _experiments()
    pass_counts: list[dict] = []

    def latency_round(times: dict[str, list[float]], counts: dict) -> None:
        for q in LATENCY_QUERIES:
            with Timed() as t, tr.span(f"bench.{q}"):
                try:
                    simulate(q, QUERIES[q].sim_query(), None, tr, gate, counts)
                except Exception as exc:  # noqa: BLE001 - counted by the gate
                    gate.check(False, f"{q} raised {exc!r}")
            times[f"{q.lower()}_s"].append(t.s)

    def one_pass() -> dict:
        times: dict = {f"{q.lower()}_s": [] for q in LATENCY_QUERIES}
        times["experiments_s"] = 0.0
        outputs = {}
        counts = {"ticks": 0, "requests": 0, "accepted": 0, "filter_rejected": 0}
        for i, (key, fn) in enumerate(experiments):
            with Timed() as t, tr.span(f"experiments.{key}"):
                try:
                    outputs[key] = fn()
                except Exception as exc:  # noqa: BLE001 - counted by the gate
                    gate.check(False, f"experiment {key} raised {exc!r}")
            times[f"{key}_s"] = t.s
            times["experiments_s"] += t.s
            if i % 2 == 0:
                latency_round(times, counts)
        with Timed() as t:
            for q in TUNING_QUERIES:
                with tr.span(f"bench.tuning.{q}"):
                    try:
                        simulate(q, QUERIES[q].sim_query(), plan[q], tr, gate, counts)
                    except Exception as exc:  # noqa: BLE001 - counted by the gate
                        gate.check(False, f"tuning {q} raised {exc!r}")
        times["tuning_s"] = t.s
        latency_round(times, counts)
        times["wall_s"] = times["experiments_s"] + times["tuning_s"] + sum(
            sum(times[f"{q.lower()}_s"]) for q in LATENCY_QUERIES
        )
        if pass_counts:
            gate.check(counts == pass_counts[0], f"counts {counts} differ from the first pass's {pass_counts[0]}")
        pass_counts.append(counts)
        with Timed() as t:
            if len(outputs) == len(experiments):
                with tr.span("oracle.check"):
                    check_experiments(outputs, gate)
        times["oracle.check_s"] = t.s
        return times

    untraced, traced = run_measured(one_pass, seconds, trace, tr)
    m = Measured()
    m.host["samples_s"] = {
        "wall_s": [p["wall_s"] for p in untraced],
        **{f"{q.lower()}_s": [x for p in untraced for x in p[f"{q.lower()}_s"]] for q in LATENCY_QUERIES},
    }
    m.e2e = {"setup_s": median(import_s) + median(construct_s), "wall_s": median(m.host["samples_s"]["wall_s"])}
    m.samples = {"setup": SETUP_REPEATS, "untraced_passes": len(untraced), "traced_passes": len(traced),
                 **{f"{q.lower()}_s": sum(len(p[f"{q.lower()}_s"]) for p in untraced) for q in LATENCY_QUERIES}}
    if trace:
        ids = {p["pass_id"] for p in traced}
        counts = pass_counts[-1]
        step_us = [d * 1e6 for d in tr.durations("exec_sim.step", ids)]
        m.per_layer = {
            "trace.overhead_s": trace_overhead(untraced, traced),
            **{f"{q.lower()}_s": median(m.host["samples_s"][f"{q.lower()}_s"]) for q in LATENCY_QUERIES},
            "experiments_s": median([p["experiments_s"] for p in traced]),
            "tuning_s": median([p["tuning_s"] for p in traced]),
            "oracle.check_s": median([p["oracle.check_s"] for p in traced]),
            **{f"experiments.{k}_s": median([p[f"{k}_s"] for p in traced]) for k, _ in experiments},
            "exec_sim.init_ms": median([d * 1e3 for d in tr.durations("exec_sim.init", ids)]),
            "exec_sim.step_us_p50": median(step_us),
            "exec_sim.step_us_p99": percentile(step_us, 99),
            "exec_sim.ticks": counts["ticks"],
            "core.direct_us": median([d * 1e6 for d in tr.durations("core.direct", ids)]),
            "core.collect_us": median([d * 1e6 for d in tr.durations("core.collect", ids)]),
            "core.predict_us": median([d * 1e6 for d in tr.durations("core.predict", ids)]),
            "core.requests": counts["requests"],
            "core.accepted": counts["accepted"],
            "core.filter_rejected": counts["filter_rejected"],
        }
        m.samples["exec_sim.step"] = len(step_us)
        m.samples["core.direct"] = len(tr.durations("core.direct", ids))
        m.deterministic = {k: [c[k] for c in pass_counts] for k in ("ticks", "requests", "accepted", "filter_rejected")}
    return m

