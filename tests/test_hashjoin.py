"""Tests for DOP switching math and the intermediate data cache (§4.5)."""
import pytest

from repro.engine.hashjoin import (
    IntermediateDataCache,
    StateTransferRecord,
    estimate_build_time_s,
    plan_broadcast_rebuild,
    plan_partitioned_switch,
)

GB = 1e9
ORDERS = 16.57 * GB  # Q2J's build side (Table 1)


class TestIntermediateDataCache:
    def test_put_get(self):
        c = IntermediateDataCache()
        c.put(3, 1e9, rows=100)
        e = c.entries[3]
        assert 3 in c
        assert e.bytes == 1e9 and e.rows == 100

    def test_missing(self):
        c = IntermediateDataCache()
        assert 9 not in c


class TestPartitionedSwitch:
    def test_table2_row_2_to_4(self):
        # Paper Table 2: 2->4 shuffle 12.55 s, build 30.12 s, total 42.67 s
        op = plan_partitioned_switch(
            stage_id=1, old_dop=2, new_dop=4, build_bytes=ORDERS, now_s=0.0
        )
        assert op.shuffle_time_s == pytest.approx(12.55, rel=0.02)
        assert op.build_time_s == pytest.approx(30.12, rel=0.02)
        assert op.record().total_time_s == pytest.approx(42.67, rel=0.02)

    def test_table2_row_4_to_6(self):
        op = plan_partitioned_switch(
            stage_id=1, old_dop=4, new_dop=6, build_bytes=ORDERS, now_s=0.0
        )
        assert op.record().total_time_s == pytest.approx(29.03, rel=0.05)

    def test_table2_row_6_to_8(self):
        op = plan_partitioned_switch(
            stage_id=1, old_dop=6, new_dop=8, build_bytes=ORDERS, now_s=0.0
        )
        assert op.record().total_time_s == pytest.approx(21.61, rel=0.12)

    def test_times_scale_inverse_with_dop(self):
        a = plan_partitioned_switch(stage_id=1, old_dop=2, new_dop=4,
                                    build_bytes=ORDERS, now_s=0.0)
        b = plan_partitioned_switch(stage_id=1, old_dop=2, new_dop=8,
                                    build_bytes=ORDERS, now_s=0.0)
        assert b.record().total_time_s == pytest.approx(a.record().total_time_s / 2)

    def test_phases_are_sequential(self):
        op = plan_partitioned_switch(stage_id=1, old_dop=2, new_dop=4,
                                     build_bytes=GB, now_s=10.0)
        assert 10.0 < op.shuffle_done_at < op.done_at


class TestBroadcastRebuild:
    def test_no_shuffle_phase(self):
        op = plan_broadcast_rebuild(stage_id=3, old_dop=1, new_dop=4,
                                    build_bytes=GB, now_s=5.0)
        assert op.shuffle_time_s == 0.0

    def test_duration_independent_of_task_count(self):
        # §6.3: reconstruction for multiple tasks occurs in parallel
        a = plan_broadcast_rebuild(stage_id=3, old_dop=1, new_dop=2,
                                   build_bytes=GB, now_s=0.0)
        b = plan_broadcast_rebuild(stage_id=3, old_dop=1, new_dop=8,
                                   build_bytes=GB, now_s=0.0)
        assert a.build_time_s == b.build_time_s

    def test_q3_s3_build_time_matches_paper(self):
        # paper: ~2.991 s for stage 3 (build side = filtered customer)
        op = plan_broadcast_rebuild(stage_id=3, old_dop=1, new_dop=2,
                                    build_bytes=0.2 * 2.29 * GB, now_s=0.0)
        assert op.build_time_s == pytest.approx(2.991, rel=0.15)


class TestEstimate:
    def test_partitioned_estimate_includes_shuffle(self):
        t = estimate_build_time_s(partitioned=True, build_bytes=ORDERS, new_dop=4)
        assert t == pytest.approx(42.67, rel=0.02)

    def test_broadcast_estimate(self):
        t = estimate_build_time_s(partitioned=False, build_bytes=GB, new_dop=8)
        assert t == pytest.approx(1e9 / 137e6, rel=0.01)

    def test_record_as_row_shape(self):
        r = StateTransferRecord(1, 2, 4, 12.0, 30.0)
        row = r.as_row()
        assert row["DOP switching"] == "2 -> 4"
        assert row["Total time"] == 42.0
