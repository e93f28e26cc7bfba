"""Tests for the §4.2 buffer rules as the engine keeps them.

The runtime elastic buffer (§4.2.2) is ``exec_sim.ByteElasticBuffer``: one
per consuming stage edge, its contents tracked as a byte volume. The task
output buffers of §4.2.1 — a shared buffer for broadcast edges, a shuffle
buffer for partitioned ones — have no page queues of their own: their
buffer-ID array is kept from the consumer side, as the upstream addresses in
each downstream task's remote-split set, and the byte flow of an edge goes
through the consuming stage's elastic buffer.
"""
import pytest

from repro.cluster import Cluster
from repro.cluster import calibration as cal
from repro.engine import plan as P
from repro.engine.exec_sim import ByteElasticBuffer, SimExecutor, SimQuery, StageCost
from repro.engine.plan import fragment_plan
from repro.engine.scheduler import DynamicScheduler, schedule_query
from repro.engine.splits import RemoteSplit
from repro.queries.tpch import QUERIES, q2j_plan, q3_plan

PAGE = cal.PAGE_BYTES


def readers(exe, task_id):
    """Downstream tasks holding ``task_id`` among their upstream addresses —
    the buffer-ID array of that task's output buffer."""
    return {
        t.task_id
        for st in exe.stages.values()
        for t in st.tasks
        if task_id in {s.task_id for s in t.upstream_addresses()}
    }


def step_until(ex, cond, limit=200_000):
    for _ in range(limit):
        if cond():
            return
        ex.step()
    raise AssertionError("condition not reached")


class TestRuntimeElasticBuffer:
    def test_initial_capacity_one_page(self):
        # §4.2.2: "we can initially set all buffer capacities to the size
        # of a page"
        b = ByteElasticBuffer()
        assert b.capacity == PAGE
        assert b.free() == PAGE

    def test_offer_respects_capacity(self):
        # producers offer at most free(): a full buffer takes nothing more
        # until the consumer pulls
        b = ByteElasticBuffer()
        b.push(b.free())
        assert b.free() == 0.0
        b.take(PAGE / 4)
        assert b.free() == pytest.approx(PAGE / 4)

    def test_end_page_always_fits(self):
        # the end carries no bytes: a full buffer can still be ended, and
        # the consumer drains it without counting a turn-up
        b = ByteElasticBuffer()
        b.push(b.free())
        b.ended = True
        assert b.level == PAGE
        assert b.take(2 * PAGE) == PAGE
        assert b.drained() and b.turn_up_counter == 0

    def test_empty_pull_grows_capacity_and_counts_turn_up(self):
        # Fig. 11: consumer finds buffer empty -> grow + count (§5.1 signal)
        b = ByteElasticBuffer()
        assert b.take(100.0) == 0.0
        assert b.turn_up_counter == 1
        assert b.capacity == 2 * PAGE
        b.take(100.0)
        assert b.turn_up_counter == 2
        assert b.capacity == 3 * PAGE

    def test_pull_after_end_does_not_count(self):
        b = ByteElasticBuffer()
        b.push(10.0)
        b.ended = True
        assert b.take(10.0) == 10.0  # the last bytes
        assert b.take(10.0) == 0.0  # empty, but ended
        assert b.turn_up_counter == 0
        assert b.capacity == PAGE

    def test_resize_tracks_consumption(self):
        # §4.2.2: every 500 ms capacity tracks the last interval's
        # consumption (1.2x), counted afresh after each resize
        b = ByteElasticBuffer(capacity=100 * PAGE)
        b.push(15 * PAGE)
        b.take(10 * PAGE)
        b.tick(0.6)
        assert b.capacity == pytest.approx(12 * PAGE)
        b.take(5 * PAGE)
        b.tick(1.2)
        assert b.capacity == pytest.approx(6 * PAGE)

    def test_resize_has_floor_of_one(self):
        b = ByteElasticBuffer(capacity=5 * PAGE)
        b.tick(0.6)  # nothing consumed in the interval
        assert b.capacity == PAGE

    def test_resize_waits_for_interval(self):
        b = ByteElasticBuffer(capacity=5 * PAGE)
        b.tick(0.3)  # inside the 500 ms interval: no resize
        assert b.capacity == 5 * PAGE
        b.tick(cal.BUFFER_RESIZE_INTERVAL_S)
        assert b.capacity == PAGE


def two_input_query():
    """S0 final agg <- S1 project over two inputs: S2 scan a (small), S3
    scan b (large). Both feed S1's one input buffer."""
    union = P.PlanNode(P.PROJECT, [P.exchange(P.scan("a")), P.exchange(P.scan("b"))])
    pl = P.output(P.final_agg(P.exchange(union)))
    costs = {
        0: StageCost(per_driver_rate_mb_s=400.0),
        1: StageCost(per_driver_rate_mb_s=400.0, selectivity=1e-6),
        2: StageCost(per_driver_rate_mb_s=100.0, scan_bytes=0.1e9),
        3: StageCost(per_driver_rate_mb_s=100.0, scan_bytes=1e9),
    }
    return SimQuery("two_input", fragment_plan(pl), costs)


class TestSharedBuffer:
    """Broadcast edges (Q3): every downstream task reads every upstream task."""

    @pytest.fixture()
    def exe(self):
        return schedule_query(fragment_plan(q3_plan()), Cluster.presto_testbed(),
                              stage_dop=2)

    def test_unknown_buffer_id(self, exe):
        with pytest.raises(KeyError):
            exe.stages[5].task_by_id("task5_7")
        ptask = exe.stages[3].tasks[0]
        before = ptask.upstream_addresses()
        ptask.drop_upstream_task("task5_7")
        assert ptask.upstream_addresses() == before

    def test_buffer_id_array_is_dynamic(self, exe):
        # §4.2.1: the buffer ID array adapts to downstream DOP changes
        sched = DynamicScheduler(exe)
        assert readers(exe, "task5_0") == {"task3_0", "task3_1"}
        sched.add_tasks(3, 1)
        assert readers(exe, "task5_0") == {"task3_0", "task3_1", "task3_2"}
        sched.remove_tasks(3, 1)
        assert readers(exe, "task5_0") == {"task3_0", "task3_1"}

    def test_duplicate_buffer_id_rejected(self, exe):
        # wiring a task twice keeps one address; a retired task's id is
        # never handed out again
        ptask = exe.stages[3].tasks[0]
        n = len(ptask.upstream_addresses())
        ctask = exe.stages[5].tasks[0]
        ptask.add_upstream(RemoteSplit(ctask.url, ctask.task_id))
        assert len(ptask.upstream_addresses()) == n
        sched = DynamicScheduler(exe)
        sched.remove_tasks(5, 1)  # retires task5_1
        new, _ = sched.add_tasks(5, 1)
        assert new[0].task_id == "task5_2"
        assert readers(exe, "task5_1") == set()
        assert readers(exe, "task5_0") == readers(exe, "task5_2") == {"task3_0", "task3_1"}

    def test_end_signal_delivers_end_page_to_each_consumer_once(self):
        # §4.3/§4.4: the consumer's buffer ends once, after its last
        # producer has ended — not when the first one does
        ex = SimExecutor(two_input_query())
        step_until(ex, lambda: ex.states[2].ended)
        assert not ex.states[3].ended
        assert not ex.states[1].in_buf.ended
        step_until(ex, lambda: ex.states[3].ended)
        assert ex.states[1].in_buf.ended
        ex.run()
        assert ex.states[1].consumed == pytest.approx(1.1e9, rel=1e-6)

    def test_page_cache_retains_when_enabled(self):
        # §4.5: a join stage caches its build side once built; probe-side
        # and plain stages cache nothing
        ex = SimExecutor(QUERIES["Q3"].sim_query(), stage_dop=2)
        step_until(ex, lambda: ex.states[3].built)
        assert 5 in ex.cache
        assert ex.cache.entries[5].bytes == pytest.approx(ex.states[3].build_received)
        assert ex.states[3].build_received == pytest.approx(ex.states[3].expected_build, rel=1e-6)
        assert 4 not in ex.cache and 2 not in ex.cache

    def test_end_page_put_marks_ended(self):
        ex = SimExecutor(QUERIES["Q3"].sim_query(), stage_dop=2)
        st = ex.states[3]
        assert not st.build_buf.ended
        step_until(ex, lambda: ex.states[5].ended)
        assert st.build_buf.ended
        assert st.in_buf.ended == ex.states[4].ended


class TestShuffleBuffer:
    """Partitioned edges (Q2J): stage 1's join is sharded across its tasks."""

    @pytest.fixture()
    def exe(self):
        return schedule_query(fragment_plan(q2j_plan()), Cluster.presto_testbed(),
                              stage_dop=2, task_dop=2)

    def test_executor_count_tracks_downstream_tasks(self, exe):
        # §4.2.1: number of shuffle executors == number of downstream tasks
        sched = DynamicScheduler(exe)
        for cid in (2, 3):
            for ctask in exe.stages[cid].tasks:
                assert readers(exe, ctask.task_id) == {"task1_0", "task1_1"}
        sched.add_tasks(1, 2)
        assert len(readers(exe, "task2_0")) == 4
        sched.remove_tasks(1, 1)
        assert readers(exe, "task2_0") == {"task1_0", "task1_1", "task1_2"}

    def test_retire_group(self, exe):
        # §4.5: after a switch the old group is retired task by task: the
        # parents drop it, its nodes release its drivers, the stage forgets
        # it — with no RPC of its own
        sched = DynamicScheduler(exe)
        old = list(exe.stages[1].tasks)
        new, _ = sched.add_tasks(1, 3)
        requests = exe.rpc_requests
        for task in old:
            sched.retire_task(task)
        assert exe.rpc_requests == requests
        assert exe.stages[1].tasks == new
        assert readers(exe, "task1_0") == readers(exe, "task1_1") == set()
        assert all(readers(exe, t.task_id) == {"task0_0"} for t in new)
        nodes = sum(n.active_drivers for n in exe.cluster.nodes)
        assert nodes == sum(t.dop for st in exe.stages.values() for t in st.tasks)

    def test_task_groups_for_dop_switching(self):
        # §4.5: the new group builds while the old one keeps probing; the
        # probes switch groups when construction completes
        ex = SimExecutor(QUERIES["Q2J"].sim_query(), stage_dop=2)
        st = ex.states[1]
        step_until(ex, lambda: st.built)
        old_ids = [t.task_id for t in st.stage.tasks]
        out = ex.set_stage_dop(1, 4)
        assert out.applied
        new_ids = out.rebuild.new_task_ids
        assert len(new_ids) == 4 and not set(new_ids) & set(old_ids)
        assert st.probing_task_ids == old_ids
        assert st.stage.dop == 6
        assert all(st.active_from[tid] == out.rebuild.done_at for tid in new_ids)
        step_until(ex, lambda: ex.state_transfers)
        assert st.probing_task_ids == new_ids
        assert [t.task_id for t in st.stage.tasks] == new_ids

    def test_end_signal(self):
        ex = SimExecutor(QUERIES["Q2J"].sim_query(), stage_dop=2)
        st = ex.states[1]
        step_until(ex, lambda: ex.states[2].ended)
        assert st.in_buf.ended
        step_until(ex, lambda: st.ended)
        assert st.in_buf.drained()
        assert st.consumed == pytest.approx(st.expected_in, rel=1e-6)

    def test_page_cache(self):
        # the partitioned build side is cached; a later switch rebuilds
        # from that volume
        ex = SimExecutor(QUERIES["Q2J"].sim_query(), stage_dop=2)
        st = ex.states[1]
        step_until(ex, lambda: st.built)
        assert ex.cache.entries[3].bytes == pytest.approx(st.expected_build, rel=1e-6)
        out = ex.set_stage_dop(1, 3)
        assert out.rebuild.build_bytes == pytest.approx(ex.cache.entries[3].bytes, rel=1e-6)
