"""Hash-join runtime elasticity: DOP switching + intermediate data cache (§4.5).

Two join flavours:

* **Broadcast hash join** — every task holds the full build-side hash
  table. Increasing stage DOP just spawns new tasks, each rebuilding the
  full table (in parallel, so the delay is one build, not n); existing
  tasks keep probing uninterrupted. Decreasing is end-page task closure
  with only scheduling overhead.
* **Partitioned hash join** — the hash table is sharded across the task
  group. Accordion's **DOP switching**: the build side first constructs a
  *new* distributed hash table in a *new task group*, fed from the
  **intermediate data cache** (fragment-result cache) rather than by
  re-balancing the old group (re-balancing would stall probes); only when
  construction completes does the probe side switch groups and the old
  group is closed. State-transfer time = reshuffle + build (Table 2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import calibration as cal


@dataclass
class CacheEntry:
    stage_id: int
    bytes: float
    rows: int = 0


@dataclass
class IntermediateDataCache:
    """Fragment-result cache: build-side stages store their output for
    reuse by subsequent hash-table reconstructions (§4.5, Fig. 17)."""

    entries: dict[int, CacheEntry] = field(default_factory=dict)

    def put(self, stage_id: int, bytes_: float, rows: int = 0) -> None:
        self.entries[stage_id] = CacheEntry(stage_id, bytes_, rows)

    def __contains__(self, stage_id: int) -> bool:
        return stage_id in self.entries


@dataclass
class StateTransferRecord:
    """One row of Table 2: a DOP switch and its cost decomposition."""

    stage_id: int
    old_dop: int
    new_dop: int
    shuffle_time_s: float
    build_time_s: float

    @property
    def total_time_s(self) -> float:
        return self.shuffle_time_s + self.build_time_s

    def as_row(self) -> dict:
        return {
            "DOP switching": f"{self.old_dop} -> {self.new_dop}",
            "Total time": round(self.total_time_s, 2),
            "Shuffle time": round(self.shuffle_time_s, 2),
            "Build time": round(self.build_time_s, 2),
        }


@dataclass
class RebuildOp:
    """An in-flight hash-table (re)construction for a DOP change."""

    stage_id: int
    old_dop: int
    new_dop: int
    partitioned: bool
    build_bytes: float
    started_at: float
    shuffle_done_at: float
    done_at: float
    #: task ids of the new task group (partitioned) / new tasks (broadcast).
    new_task_ids: list[str] = field(default_factory=list)

    @property
    def shuffle_time_s(self) -> float:
        return self.shuffle_done_at - self.started_at

    @property
    def build_time_s(self) -> float:
        return self.done_at - self.shuffle_done_at

    def record(self) -> StateTransferRecord:
        return StateTransferRecord(
            self.stage_id, self.old_dop, self.new_dop,
            self.shuffle_time_s, self.build_time_s,
        )


def plan_partitioned_switch(
    *,
    stage_id: int,
    old_dop: int,
    new_dop: int,
    build_bytes: float,
    now_s: float,
    rebuild_shuffle_rate_mb_s: float = cal.REBUILD_SHUFFLE_RATE_MB_S,
    build_rate_mb_s: float = cal.BUILD_RATE_MB_S,
) -> RebuildOp:
    """Time a partitioned-join DOP switch.

    The new task group's ``new_dop`` tasks pull the cached build side in
    parallel (reshuffle) and then build their shards in parallel, so both
    phases scale with ``new_dop`` — exactly the 1/n trend of Table 2.
    """
    shuffle_t = build_bytes / (new_dop * cal.mb_s(rebuild_shuffle_rate_mb_s))
    build_t = build_bytes / (new_dop * cal.mb_s(build_rate_mb_s))
    return RebuildOp(
        stage_id=stage_id,
        old_dop=old_dop,
        new_dop=new_dop,
        partitioned=True,
        build_bytes=build_bytes,
        started_at=now_s,
        shuffle_done_at=now_s + shuffle_t,
        done_at=now_s + shuffle_t + build_t,
    )


def plan_broadcast_rebuild(
    *,
    stage_id: int,
    old_dop: int,
    new_dop: int,
    build_bytes: float,
    now_s: float,
    build_rate_mb_s: float = cal.BUILD_RATE_MB_S,
) -> RebuildOp:
    """Time a broadcast-join DOP increase: every new task rebuilds the full
    table concurrently ("hash table reconstruction for multiple tasks
    occurs in parallel", §6.3) — duration is one full build, regardless of
    how many tasks are added, with no reshuffle phase."""
    build_t = build_bytes / cal.mb_s(build_rate_mb_s)
    return RebuildOp(
        stage_id=stage_id,
        old_dop=old_dop,
        new_dop=new_dop,
        partitioned=False,
        build_bytes=build_bytes,
        started_at=now_s,
        shuffle_done_at=now_s,  # no reshuffle for broadcast
        done_at=now_s + build_t,
    )


def estimate_build_time_s(
    *, partitioned: bool, build_bytes: float, new_dop: int,
    rebuild_shuffle_rate_mb_s: float = cal.REBUILD_SHUFFLE_RATE_MB_S,
    build_rate_mb_s: float = cal.BUILD_RATE_MB_S,
) -> float:
    """T_build as used by the tuning filter (§5.2) and predictor (§5.3)."""
    if partitioned:
        return build_bytes / (new_dop * cal.mb_s(rebuild_shuffle_rate_mb_s)) + build_bytes / (
            new_dop * cal.mb_s(build_rate_mb_s)
        )
    return build_bytes / cal.mb_s(build_rate_mb_s)
