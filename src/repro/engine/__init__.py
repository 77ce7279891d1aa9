"""Execution engine: physical execution of plans under any model.

* :mod:`repro.engine.metrics` — runtime work counters and the execution
  context threaded through every operator (forked per morsel under
  parallel execution, reduced deterministically at the end).
* :mod:`repro.engine.parallel` — the execution driver: compiles a plan of
  any model onto the unified physical-operator layer
  (:mod:`repro.physical`) once per morsel and runs the morsels, in process
  or across shard workers (:mod:`repro.engine.shard`).
* :mod:`repro.engine.result` — query results returned to callers.
* :mod:`repro.engine.session` — the high-level public API (`Session`).
"""

from repro.engine.metrics import ExecContext, ExecutionMetrics, aggregate_metrics
from repro.engine.result import QueryResult
from repro.engine.session import PreparedPlan, Session

__all__ = [
    "ExecContext",
    "ExecutionMetrics",
    "PreparedPlan",
    "QueryResult",
    "Session",
    "aggregate_metrics",
]
