"""Calibration constants for the timing simulator.

These are the *only* fitted quantities in the reproduction (DESIGN.md §4):
per-driver/per-task processing rates chosen so the paper's fixed-DOP
baselines (Q3 at DOP 1 = 740.34 s; Q2J at stage DOP 2 = 1331.99 s; QSHUF
= 45.22 s) land in the right ballpark at the paper's SF100 byte volumes.
Everything else in §6 — reduction percentages, CPU-saturation plateaus,
T_build values, Table 2's shuffle/build split, filter rejections,
bottleneck crossovers — emerges from the mechanisms.

Derivations from the paper's own numbers:

* ``BUILD_RATE_MB_S`` — Table 2's build column: 16.57 GB (orders) rebuilt
  by n tasks in ~30.12 s (n=4), 21.03 s (n=6), 16.49 s (n=8): all three
  give ~137 MB/s per task.
* ``REBUILD_SHUFFLE_RATE_MB_S`` — Table 2's shuffle column: 12.55 s at
  n=4 and 8.80 s at n=6 over the same 16.57 GB give ~330 MB/s per task.
* ``SHUFFLE_EXEC_RATE_MB_S`` — §6.4.2: orders (16.57 GB) on two nodes,
  shuffle-bound at 45.22 s -> ~183 MB/s per shuffler task.
* ``JOIN_PROBE_RATE_MB_S`` — Q3 at DOP 1 runs 740.34 s; its bottleneck is
  the S1 probe over ~37 GB of date-filtered lineitem -> 50 MB/s/driver.
* ``SCAN_RATE_MB_S`` — the post-tuning floor of Q3 (194.76 s over 74 GB of
  lineitem) implies the single-driver Arrow-CSV scan sustains ~400 MB/s.
"""
from __future__ import annotations

MB = 1e6
GB = 1e9

#: Raw table-scan rate per driver (Arrow CSV reader), bytes/s.
SCAN_RATE_MB_S = 400.0

#: Hash-join probe rate per driver over probe-side input bytes, bytes/s.
JOIN_PROBE_RATE_MB_S = 50.0

#: Partial/final aggregation rate per driver, bytes/s of input.
AGG_RATE_MB_S = 400.0

#: Hash-table build rate per task (Table 2 derivation).
BUILD_RATE_MB_S = 137.0

#: Reshuffle rate per *destination* task when rebuilding a distributed hash
#: table from the intermediate data cache (Table 2 derivation).
REBUILD_SHUFFLE_RATE_MB_S = 330.0

#: Throughput of one shuffle-buffer executor task (§6.4.2 derivation).
SHUFFLE_EXEC_RATE_MB_S = 183.0

#: Simulator time step, seconds. Small enough that a 500 ms elastic-buffer
#: resize interval (§4.2.2) spans several ticks.
SIM_DT_S = 0.1

#: Elastic-buffer page size, bytes (1 MB, the order of magnitude of
#: Presto's pages): a buffer starts at one page and grows by one page per
#: turn-up (§4.2.2).
PAGE_BYTES = 1_000_000

#: Elastic-buffer consumer-side resize interval, seconds (§4.2.2: "every
#: 500 milliseconds").
BUFFER_RESIZE_INTERVAL_S = 0.5


def mb_s(rate_mb: float) -> float:
    """Convert an MB/s calibration constant to bytes/s."""
    return rate_mb * MB
