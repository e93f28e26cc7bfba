"""Seeded benchmark of the Spark plane and the simulator.

Run from the repository root:

    python3 perfbench/run.py --workload sim --seed 1 --seconds 15 --trace 0

Workloads and metrics are declared in BENCHMARK.json; their units are
taken from there. ``--trace 0`` prints the end-to-end metrics, measured
on untraced passes. ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics, taken from spans the benchmark records
around its calls into ``repro``; the spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of stdout is the result object; the line before it holds
the host and configuration record with the sample count behind every
figure. Exits non-zero, without a result, when ``src/repro`` is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spark_single", "spark_microbatch", "sim")
#: per-layer metrics of layers a workload does not call; they read 0.
NOT_EXERCISED = {
    "spark_single": ("spark_iqre.", "exec_spark.", "q2j_script_s", "exec_sim.", "core.", "experiments", "tuning_s"),
    "spark_microbatch": ("exec_sim.", "core.", "experiments", "tuning_s"),
    "sim": ("spark.", "spark_iqre.", "exec_spark.", "synth_data.", "q2j_script_s"),
}


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},  # stay inside the checkout
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """name -> unit for the end-to-end and per-layer metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    """Attach units; every declared metric must be present and no other."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


def peak_rss_mb(jvm_pid: int | None) -> float:
    """Peak resident memory of this process plus the JVM, if one ran."""
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if jvm_pid is not None:
        with open(f"/proc/{jvm_pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    mb += int(line.split()[1]) / 1024.0
    return mb


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("error: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics(root)
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = work / "tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))

    import common
    from common import Gate, median
    from tracing import Tracer

    tracer = Tracer(enabled=False)
    gate = Gate()
    t_start = time.perf_counter()
    if args.workload == "sim":
        import sim_workload
    else:
        import spark_workloads
    try:
        if args.workload == "sim":
            measured = sim_workload.run(args.seed, args.seconds, bool(args.trace), tracer, gate)
            measured.e2e["peak_rss_mb"] = peak_rss_mb(None)
        else:
            measured, jvm_pid = spark_workloads.run(
                args.workload, args.seed, args.seconds, bool(args.trace), tracer, gate, tmp
            )
            measured.e2e["peak_rss_mb"] = peak_rss_mb(jvm_pid)
    finally:
        if args.workload != "sim":
            spark_workloads.stop_jvm()
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        layers = tracer.self_times_by_layer({s[4] for s in tracer.spans if s[4] > 0})
        for name in layer_units:
            if name.startswith("self_s."):
                measured.per_layer[name] = layers.get(name.removeprefix("self_s."), 0.0)
        measured.per_layer["error_rate"] = gate.failed / max(1, gate.attempted)
        for name in layer_units:
            if name.startswith(NOT_EXERCISED[args.workload]):
                measured.per_layer.setdefault(name, 0.0)
        span_path = work / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(span_path)
        measured.host["spans_file"] = str(span_path.relative_to(root))
        measured.host["spans"] = len(tracer.spans)
        metrics = with_units(measured.per_layer, layer_units)
    else:
        metrics = with_units(measured.e2e, e2e_units)

    import duckdb
    import pyspark

    measured.host.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "duckdb": duckdb.__version__,
        "git_commit": _git_commit(root),
        "run_s": time.perf_counter() - t_start,
        "samples": measured.samples,
        "exact_counts": measured.deterministic,
        "failures": gate.messages[:20],
    })
    if common.probes:
        measured.host["reference_probe_s"] = {
            "n": len(common.probes), "min": min(common.probes),
            "median": median(common.probes), "max": max(common.probes),
        }
    print(json.dumps({"host": measured.host}, default=str))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
