"""Property-based tests (hypothesis) for the engine substrate invariants."""
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import calibration as cal
from repro.engine import plan as P
from repro.engine.exec_sim import ByteElasticBuffer, SimExecutor
from repro.engine.splits import SplitSource
from repro.queries.tpch import QUERIES

# random physical plans: scans at the leaves, joins/filters above, every
# fragment boundary marked by an exchange (as the optimizer would)
_plans = st.recursive(
    st.sampled_from(["lineitem", "orders", "customer"]).map(
        lambda t: P.exchange(P.scan(t))
    ),
    lambda children: st.tuples(children, children, st.booleans()).map(
        lambda pb: P.exchange(P.hash_join(pb[0], pb[1], partitioned=pb[2]))
    ),
    max_leaves=6,
)


class TestFragmentationProperties:
    @given(plan=_plans)
    @settings(max_examples=60, deadline=None)
    def test_fragmentation_invariants(self, plan):
        tree = P.fragment_plan(P.output(P.final_agg(plan)))
        ids = tree.stage_ids()
        # ids are unique, contiguous from 0, root is 0
        assert ids == list(range(len(ids)))
        assert tree.root_id == 0
        # every non-root fragment has exactly one parent, and the parent's
        # source list points back at it
        for sid in ids[1:]:
            parent = tree.parent_of(sid)
            assert parent is not None
            assert sid in tree[parent].source_stage_ids()
        # topological order visits children before parents, root last
        order = tree.topological()
        assert set(order) == set(ids) and order[-1] == 0
        for sid in ids:
            for child in tree.children_of(sid):
                assert order.index(child) < order.index(sid)
        # every join fragment has exactly one probe and one build source
        for sid in ids:
            frag = tree[sid]
            if frag.has_join():
                assert frag.probe_source() is not None
                assert frag.build_source() is not None


class TestSplitProperties:
    @given(n_rows=st.integers(min_value=1, max_value=2000),
           n_nodes=st.integers(min_value=1, max_value=10),
           spn=st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_splits_partition_rows_exactly(self, n_rows, n_nodes, spn):
        pdf = pd.DataFrame({"k": range(n_rows)})
        src = SplitSource("t", pdf, n_nodes=n_nodes, splits_per_node=spn)
        assert len(src) == n_nodes * spn
        covered = [i for s in src.splits for i in range(s.start, s.stop)]
        assert covered == list(range(n_rows))
        assert len({s.split_id for s in src.splits}) == len(src)


class TestElasticBufferProperties:
    @given(amounts=st.lists(st.floats(min_value=0.0, max_value=1e8),
                            min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_byte_buffer_take_never_exceeds_pushed(self, amounts):
        b = ByteElasticBuffer()
        pushed = taken = 0.0
        for a in amounts:
            b.push(a)
            pushed += a
            taken += b.take(a / 2 + 1.0)
        assert taken <= pushed + 1e-6
        assert b.level >= -1e-6

    @given(ops=st.lists(st.tuples(st.sampled_from(["push", "take", "tick", "end"]),
                                  st.floats(min_value=0.0, max_value=5e6)),
                        min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_queue_never_exceeds_capacity_plus_ends(self, ops):
        # a producer that keeps to free() (as every stage does) never lifts
        # the level past capacity; an end adds no bytes. A resize may cut
        # capacity below the level; free() is then 0 until the consumer
        # drains the backlog.
        b = ByteElasticBuffer()
        t = 0.0
        for op, amount in ops:
            before = b.level
            if op == "push":
                b.push(min(amount, b.free()))
                assert b.level <= max(b.capacity, before)
            elif op == "take":
                b.take(amount)
                assert b.level <= before
            elif op == "tick":
                t += amount / 1e7
                b.tick(t)
            else:
                b.ended = True
                assert b.level == before
            if b.level > b.capacity:
                assert b.free() == 0.0

    @given(ops=st.lists(st.tuples(st.sampled_from(["push", "take", "tick", "end"]),
                                  st.floats(min_value=0.0, max_value=5e6)),
                        min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_byte_buffer_random_ops(self, ops):
        b = ByteElasticBuffer()
        t = 0.0
        for op, amount in ops:
            turn_ups = b.turn_up_counter
            if op == "push":
                b.push(amount)
            elif op == "take":
                starving = amount > 0 and b.drained() and not b.ended
                level = b.level
                got = b.take(amount)
                # a starving take hands over the sub-epsilon residue, even
                # past ``want``; any other take is bounded by ``want``
                assert 0.0 <= got <= (level if starving else min(amount, level))
                assert b.turn_up_counter == turn_ups + starving
            elif op == "tick":
                t += amount / 1e7  # 0-0.5 s: some ticks resize, some wait
                b.tick(t)
            else:
                b.ended = True
            if op != "take":
                assert b.turn_up_counter == turn_ups
            assert b.capacity >= cal.PAGE_BYTES
            assert b.level >= 0.0


def _check_conservation(ex):
    """Bytes are neither made nor lost: each stage emits its input scaled by
    its selectivity, and what the producers of a buffer emitted is what its
    consumer took plus what the buffer still holds."""
    for sid, s in ex.states.items():
        assert s.produced == pytest.approx(s.consumed * s.cost.selectivity)
        assert s.consumed <= s.expected_in * (1 + 1e-9) + 1.0
        if s.is_scan:
            continue
        fed = [ex.states[c.child_stage_id].produced
               for c in ex.query.tree[sid].sources if c.role != "build"]
        assert sum(fed) == pytest.approx(s.consumed + s.in_buf.level, rel=1e-9, abs=1.0)
        if s.build_buf is not None:
            built = [ex.states[c.child_stage_id].produced
                     for c in ex.query.tree[sid].sources if c.role == "build"]
            assert sum(built) == pytest.approx(
                s.build_received + s.build_buf.level, rel=1e-9, abs=1.0)


class TestOperatorProperties:
    @given(query=st.sampled_from(["Q3", "Q2J", "QSHUF"]),
           requests=st.lists(st.tuples(st.integers(0, 400), st.booleans(),
                                       st.integers(0, 7), st.integers(1, 12)),
                             min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_stateless_conservation_bounds(self, query, requests):
        ex = SimExecutor(QUERIES[query].sim_query(), stage_dop=2)
        sids = sorted(ex.states)
        for wait, stage_level, idx, dop in requests:
            for _ in range(wait):
                ex.step()
            _check_conservation(ex)
            sid = sids[idx % len(sids)]
            (ex.set_stage_dop if stage_level else ex.set_task_dop)(sid, dop)
            _check_conservation(ex)

    @given(query=st.sampled_from(["Q3", "Q2J", "QSHUF"]),
           requests=st.lists(st.tuples(st.integers(0, 400), st.booleans(),
                                       st.integers(0, 7), st.integers(1, 12)),
                             max_size=4))
    @settings(max_examples=10, deadline=None)
    def test_stateful_flushes_everything_at_end(self, query, requests):
        # whatever DOP changes happen on the way, at the end every stage has
        # consumed its whole input, every join its whole build side, and no
        # buffer holds anything
        ex = SimExecutor(QUERIES[query].sim_query(), stage_dop=2)
        sids = sorted(ex.states)
        for wait, stage_level, idx, dop in requests:
            for _ in range(wait):
                ex.step()
            sid = sids[idx % len(sids)]
            (ex.set_stage_dop if stage_level else ex.set_task_dop)(sid, dop)
        ex.run(max_s=20_000.0)
        _check_conservation(ex)
        for s in ex.states.values():
            assert s.ended
            assert s.consumed == pytest.approx(s.expected_in, rel=1e-6)
            assert s.in_buf.drained()
            if s.build_buf is not None:
                assert s.build_received == pytest.approx(s.expected_build, rel=1e-6)
                assert s.build_buf.drained()


def _check_engine_invariants(ex):
    nodes = sum(n.active_drivers for n in ex.cluster.nodes)
    tasks = sum(t.dop for s in ex.exe.stages.values() for t in s.tasks)
    assert nodes == tasks
    for sid, stage in ex.exe.stages.items():
        live = {t.task_id for c in ex.exe.child_stages(sid) for t in c.tasks}
        for task in stage.tasks:
            assert {s.task_id for s in task.upstream_addresses()} == live


# (ticks to wait, stage-level?, stage index, new DOP)
_requests = st.lists(
    st.tuples(st.integers(0, 400), st.booleans(), st.integers(0, 7), st.integers(0, 12)),
    min_size=1, max_size=6,
)


class TestDopRequestProperties:
    @given(query=st.sampled_from(["Q3", "Q2J", "QSHUF"]), requests=_requests)
    @settings(max_examples=25, deadline=None)
    def test_random_dop_requests_keep_engine_invariants(self, query, requests):
        ex = SimExecutor(QUERIES[query].sim_query(), stage_dop=2)
        sids = sorted(ex.states)
        _check_engine_invariants(ex)
        for wait, stage_level, idx, dop in requests:
            for _ in range(wait):
                ex.step()
            sid = sids[idx % len(sids)]
            request = ex.set_stage_dop if stage_level else ex.set_task_dop
            out = request(sid, dop)
            assert out.applied or out.reason
            _check_engine_invariants(ex)
        ex.run(max_s=20_000.0)
        assert ex.done
        _check_engine_invariants(ex)
