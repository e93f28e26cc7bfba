"""Presto-style execution engine substrate + Accordion's runtime elasticity.

Layering (bottom-up): splits -> plan (fragments/stage tree) -> tasks
(driver count + remote-split set)/stages -> scheduler (static + dynamic)
-> hashjoin (DOP switching) -> exec_sim (byte-flow timing data plane with
the elastic buffer). exec_spark runs the same queries on Spark through
the micro-batch plane in ``repro.spark_iqre``.
"""
from repro.engine.exec_sim import SimExecutor, SimQuery, StageCost, TuningOutcome
from repro.engine.plan import StageTree, fragment_plan

__all__ = [
    "SimExecutor",
    "SimQuery",
    "StageCost",
    "TuningOutcome",
    "StageTree",
    "fragment_plan",
]
