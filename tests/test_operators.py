"""Tests for the §4.1 operator classification (repro.engine.plan) and the
stage pinning the scheduler derives from it."""
import pytest

from repro.cluster import Cluster
from repro.engine.plan import STATEFUL_KINDS, STATELESS_KINDS, fragment_plan, is_stateless
from repro.engine.scheduler import schedule_query
from repro.queries.tpch import q2j_plan, q3_plan


class TestClassification:
    @pytest.mark.parametrize("kind", sorted(STATELESS_KINDS))
    def test_stateless_kinds(self, kind):
        assert is_stateless(kind)

    @pytest.mark.parametrize("kind", sorted(STATEFUL_KINDS))
    def test_stateful_kinds(self, kind):
        assert not is_stateless(kind)

    def test_unclassified_raises(self):
        with pytest.raises(ValueError):
            is_stateless("mystery")

    def test_paper_s41_stateless_set(self):
        # §4.1: filter, project, sink, source, exchange, task output, table
        # scan are stateless; partial agg is treated stateless.
        for k in ("filter", "project", "sink", "source", "exchange",
                  "task_output", "table_scan", "partial_agg"):
            assert is_stateless(k)

    def test_paper_s41_stateful_set(self):
        for k in ("final_agg", "build"):
            assert not is_stateless(k)

    @pytest.mark.parametrize("plan", [q3_plan, q2j_plan])
    def test_only_final_stage_pins_parallelism(self, plan):
        # final agg / top-N pin their stage; join stages are rebuilt (§4.5)
        tree = fragment_plan(plan())
        pinned = {sid for sid in tree.stage_ids() if tree[sid].pins_parallelism()}
        assert pinned == {tree.root_id}
        exe = schedule_query(tree, Cluster.presto_testbed(), stage_dop=2)
        assert exe.final_stage_ids() == pinned
