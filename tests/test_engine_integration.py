"""Object-level integration: the executor's byte flow, the end-page
protocol and the scheduler's topology changes, seen from the stages and
tasks a worker would run — data moving from a producing stage through the
consumer's elastic buffer, ends relayed up the stage tree, and remote-split
wiring across task removal and driver spawning.
"""
import pytest

from repro.cluster import Cluster
from repro.engine.exec_sim import SimExecutor
from repro.engine.plan import fragment_plan
from repro.engine.scheduler import DynamicScheduler, schedule_query
from repro.queries.tpch import QUERIES, q2j_plan, q3_plan


@pytest.fixture()
def q2j_exe():
    return schedule_query(fragment_plan(q2j_plan()), Cluster.presto_testbed(),
                          stage_dop=2)


@pytest.fixture()
def q3_exe():
    return schedule_query(fragment_plan(q3_plan()), Cluster.presto_testbed())


def sim(name, **kw):
    return SimExecutor(QUERIES[name].sim_query(), stage_dop=2, **kw)


def upstream_ids(task):
    return {s.task_id for s in task.upstream_addresses()}


class TestPageFlow:
    def test_scan_driver_to_output_buffer_to_downstream(self):
        # stage 4 (orders scan) produces; stage 3, still building its hash
        # table, holds the output in its input buffer
        ex = sim("Q3")
        ex.step()
        produced = ex.states[4].produced
        assert produced > 0
        assert ex.states[3].in_buf.level == pytest.approx(produced)
        assert ex.states[3].consumed == 0.0

    def test_filter_selectivity_applied_in_driver(self):
        # every stage emits its input scaled by its fragment's selectivity
        ex = sim("Q3")
        for _ in range(2000):
            ex.step()
        for st in ex.states.values():
            assert st.produced == pytest.approx(st.consumed * st.cost.selectivity)
        assert ex.states[4].consumed > ex.states[4].produced > 0

    def test_shuffle_buffer_partitions_across_downstream_tasks(self):
        # Q2J's scan stages feed a partitioned join: every join task reads
        # from every scan task, and the join's input capacity is the sum of
        # its tasks' shares
        ex = sim("Q2J")
        scan_ids = {t.task_id for cid in (2, 3) for t in ex.exe.stages[cid].tasks}
        join = ex.exe.stages[1]
        assert len(join.tasks) == 2
        for task in join.tasks:
            assert upstream_ids(task) == scan_ids
        cap2 = ex.stage_input_capacity_bytes_s(1)
        ex.set_task_dop(1, 2)
        assert ex.stage_input_capacity_bytes_s(1) == pytest.approx(2 * cap2)


class TestEndPageProtocol:
    def test_end_signal_reaches_every_downstream_task_once(self):
        # the build scan's end closes the join's build buffer, which every
        # join task reads: all of them finish building at the same tick
        ex = sim("Q2J")
        st = ex.states[1]
        while not ex.states[3].ended:
            ex.step()
        assert st.build_buf.ended and not st.in_buf.ended
        while not st.built:
            ex.step()
        assert st.build_done_times == [st.build_done_at]
        assert {t.context.hash_build_time_s for t in st.stage.tasks} == {st.build_done_at}

    def test_driver_close_relays_end_through_all_operators(self):
        # closing drivers mid-query (task DOP 2 -> 1) leaves the end relay
        # intact: every stage ends, each after all of its children
        ex = sim("Q3", task_dop=2)
        for _ in range(500):
            ex.step()
        assert ex.set_task_dop(2, 1).applied
        ex.run()
        for sid, st in ex.states.items():
            assert st.ended and st.in_buf.drained()
            assert all(t.context.finished for t in st.stage.tasks)
            for cid in ex.query.tree.children_of(sid):
                assert ex.states[cid].end_at <= st.end_at

    def test_remove_task_end_to_end(self, q2j_exe):
        """§4.4 decreasing stage DOP: parents drop the victim's address."""
        sched = DynamicScheduler(q2j_exe)
        sched.add_tasks(1, 1)  # S1: 2 -> 3 tasks
        victims, _ = sched.remove_tasks(1, 1)
        for ptask in q2j_exe.stages[0].tasks:
            assert victims[0].task_id not in {
                s.task_id for s in ptask.upstream_addresses()
            }


class TestIntraTaskDopObjectLevel:
    def test_new_driver_uses_global_remote_split_set(self, q3_exe):
        # §4.3: new drivers are wired from the task's split set without
        # the coordinator
        task = q3_exe.stages[1].tasks[0]
        addrs_before = task.upstream_addresses()
        task.set_dop(3)
        assert task.dop == 3
        assert task.upstream_addresses() == addrs_before

    def test_drivers_process_independently(self):
        # one more driver on one task adds one driver's rate; the other
        # task's drivers are untouched, and closing it again restores both
        ex = sim("Q3")
        a, b = ex.exe.stages[2].tasks
        before = ex.stage_input_capacity_bytes_s(2)
        per_driver = before / 2
        a.set_dop(2)
        ex.cluster.node(a.node_id).add_drivers(1)
        assert b.dop == 1
        assert ex.stage_input_capacity_bytes_s(2) == pytest.approx(before + per_driver)
        a.set_dop(1)
        ex.cluster.node(a.node_id).remove_drivers(1)
        assert ex.stage_input_capacity_bytes_s(2) == pytest.approx(before)


class TestSharedBufferDownstreamGrowth:
    def test_new_parent_task_gets_buffer_id_dynamically(self, q3_exe):
        # §4.2.1: a new downstream task is wired to every upstream task
        sched = DynamicScheduler(q3_exe)
        new, _ = sched.add_tasks(3, 2)
        children = {t.task_id for cid in (4, 5) for t in q3_exe.stages[cid].tasks}
        for task in new:
            assert upstream_ids(task) == children
        assert all(upstream_ids(t) >= {x.task_id for x in new} for t in q3_exe.stages[1].tasks)
